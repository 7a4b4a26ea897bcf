//! The work-stealing / work-sharing executor (§III-E, Algorithm 1).
//!
//! Each worker owns a Chase–Lev deque ([`crate::wsq`]) plus an **exclusive
//! task cache**: when a finishing task makes exactly one successor ready,
//! that successor goes straight into the cache and is executed next by the
//! same worker — linear chains run speculatively with no queue traffic and
//! no wake-ups (Algorithm 1 lines 16–25). Workers that find every queue
//! empty park themselves on the **idler list** ([`crate::notifier`]), from
//! which wakers pop exactly one spare worker (lines 5–13). After draining
//! a chain, a worker wakes one idler with a small probability to rebalance
//! load (lines 26–28).
//!
//! An executor is shareable between any number of taskflows
//! (`Arc<Executor>`), mirroring the paper's `std::shared_ptr`-managed
//! executor that avoids thread over-subscription in modular applications.

use crate::error::{panic_message, AdmissionError, FailurePolicy, RunError, RunResult, TaskPanic};
use crate::future::{Promise, SharedFuture};
use crate::graph::{RawNode, Work};
use crate::injector::Injector;
use crate::introspect::{CurrentTask, IntrospectConfig, IntrospectHandle, IntrospectState};
use crate::notifier::Notifier;
use crate::observer::{ExecutorObserver, DISPATCH_LANE};
use crate::qos::{
    BreakerSpec, BreakerState, RetryBudget, SloSpec, TenantQos, BREAKER_CLOSED, BREAKER_HALF_OPEN,
    BREAKER_OPEN,
};
use crate::stats::{AtomicHistogram, ExecutorStats, TenantStats, WorkerStats};
use crate::subflow::Subflow;
use crate::sync::{fence, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, RwLock};
use crate::topology::{Advance, PendingRun, RunCondition, Topology};
use crate::wsq;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of the scheduling algorithm; the defaults match the paper.
/// The ablation switches exist so the benches can quantify each heuristic.
#[derive(Debug, Clone)]
pub(crate) struct Config {
    /// Use the per-worker cache slot for the first ready successor.
    pub cache_slot: bool,
    /// After draining a chain, wake one idler with probability
    /// `1/wake_ratio` (0 disables the heuristic).
    pub wake_ratio: u64,
    /// Initial per-worker deque capacity (power of two). The default
    /// matches [`crate::wsq`]; tiny capacities exist so the sanitizer can
    /// reach the deque's grow path with model-sized graphs.
    pub queue_capacity: usize,
    /// Slot count of the lock-free MPMC injector ring; dispatch bursts
    /// past it spill into the injector's mutexed side queue.
    pub injector_capacity: usize,
    /// Ablation switch: route the injector through its mutexed side queue
    /// on every operation, reproducing the seed's `Mutex<VecDeque>`
    /// submission path for A/B benchmarking.
    pub mutexed_injector: bool,
    /// Admission budget: how many tenant-submitted topologies may be
    /// dispatched-but-not-finalized at once. Submissions past it queue
    /// per tenant and are released by weighted fair queueing.
    /// `usize::MAX` (the default) never queues.
    pub max_inflight: usize,
    /// Record per-tenant lifecycle latency into lock-free histogram
    /// shards (default on; the cost is a few relaxed atomics per tenant
    /// run). The `false` side is the introspect-gate's A/B ablation.
    pub latency_histograms: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cache_slot: true,
            wake_ratio: 64,
            queue_capacity: wsq::INITIAL_CAPACITY,
            injector_capacity: 1024,
            mutexed_injector: false,
            max_inflight: usize::MAX,
            latency_histograms: true,
        }
    }
}

/// Builds an [`Executor`] with custom settings.
///
/// ```
/// let ex = rustflow::ExecutorBuilder::new().workers(2).build();
/// assert_eq!(ex.num_workers(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ExecutorBuilder {
    workers: Option<usize>,
    cfg: Config,
}

impl ExecutorBuilder {
    /// Starts a builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads (default: available parallelism).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Ablation switch: disable the per-worker task cache so every ready
    /// successor goes through the deque.
    pub fn cache_slot(mut self, enabled: bool) -> Self {
        self.cfg.cache_slot = enabled;
        self
    }

    /// Ablation switch: the load-balancing wake-up fires with probability
    /// `1/ratio` after each drained chain (0 disables it).
    pub fn wake_ratio(mut self, ratio: u64) -> Self {
        self.cfg.wake_ratio = ratio;
        self
    }

    /// Initial per-worker deque capacity (rounded up to a power of two,
    /// minimum 2). Defaults to the production size; the sanitizer shrinks
    /// it so the Chase–Lev grow path is exercised by model-sized graphs.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity.max(2).next_power_of_two();
        self
    }

    /// Slot count of the lock-free MPMC injector ring (rounded up to a
    /// power of two, minimum 2). Dispatch bursts larger than the ring
    /// spill into a mutexed side queue, so no capacity loses tasks.
    pub fn injector_capacity(mut self, capacity: usize) -> Self {
        self.cfg.injector_capacity = capacity.max(2).next_power_of_two();
        self
    }

    /// Ablation switch: replace the lock-free injector with the seed's
    /// mutexed queue on the identical code path — the baseline the
    /// `serving` benchmark compares submission throughput against.
    pub fn mutexed_injector(mut self, enabled: bool) -> Self {
        self.cfg.mutexed_injector = enabled;
        self
    }

    /// Admission budget for tenant submissions: at most `n` tenant
    /// topologies may be dispatched-but-not-finalized at once; further
    /// submissions wait in their tenant's bounded queue and are released
    /// by weighted fair queueing. Defaults to unlimited (submissions
    /// dispatch immediately and tenant queues never fill).
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.cfg.max_inflight = n.max(1);
        self
    }

    /// Ablation switch: record per-tenant lifecycle latency (submit →
    /// admitted → dispatched → first task → finalize) into lock-free
    /// histogram shards, surfaced via `/metrics` and `/status` (default
    /// on). Disabling it removes the per-run stamping and recording —
    /// the baseline the introspect-gate A/Bs the latency layer against.
    pub fn latency_histograms(mut self, enabled: bool) -> Self {
        self.cfg.latency_histograms = enabled;
        self
    }

    /// Builds the executor and spawns its worker threads.
    pub fn build(self) -> Arc<Executor> {
        let workers = self.workers.unwrap_or_else(default_parallelism);
        Executor::with_config(workers, self.cfg)
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-worker state visible to other threads.
pub(crate) struct WorkerShared {
    pub(crate) stealer: wsq::Stealer,
    /// The task this worker is executing right now, published only while
    /// live introspection is on (`Inner::introspect_live`). Uncontended
    /// in steady state: the worker writes twice per task, the collector
    /// reads once per period.
    pub(crate) current: Mutex<Option<CurrentTask>>,
    /// Diagnostic counters (relaxed; advisory). Each worker writes only
    /// its own set, so there is no cross-worker contention.
    executed: AtomicU64,
    cache_hits: AtomicU64,
    steals: AtomicU64,
    steal_attempts: AtomicU64,
    steal_fails: AtomicU64,
    injector_pops: AtomicU64,
    parks: AtomicU64,
    wakes_sent: AtomicU64,
    skipped: AtomicU64,
    retries: AtomicU64,
}

impl WorkerShared {
    pub(crate) fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            steal_fails: self.steal_fails.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            wakes_sent: self.wakes_sent.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            ring_dropped: 0,
        }
    }
}

/// Per-worker private state.
struct WorkerCtx {
    id: usize,
    owner: wsq::Owner,
    /// The exclusive task cache (Algorithm 1); 0 = empty.
    cache: usize,
    /// xorshift64 state for the probabilistic wake-up.
    rng: u64,
    last_victim: usize,
}

impl WorkerCtx {
    #[inline]
    fn next_rand(&mut self) -> u64 {
        // xorshift64: cheap thread-local randomness; quality is irrelevant,
        // we only need an unbiased-enough coin for the wake heuristic.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

/// Zero-sized, line-aligned marker. In a `#[repr(C)]` struct the field
/// declared after it starts on a fresh cache line, so fields can be grouped
/// by *who writes them* without touching a single access path. 128 bytes,
/// not 64: x86-64's adjacent-line prefetcher pulls lines in pairs.
#[derive(Debug, Default, Clone, Copy)]
#[repr(align(128))]
struct LineBreak;

/// Field order is layout (`repr(C)`): grouped by who writes, one group per
/// cache-line pair (see [`LineBreak`]).
#[repr(C)]
pub(crate) struct Inner {
    // ---- set at construction or rarely; read by every thread ----
    pub(crate) shareds: Box<[WorkerShared]>,
    cfg: Config,
    /// The shared monotonic clock origin ([`crate::clock::origin`]),
    /// latched here so every timestamp this executor emits — ring events,
    /// flight-recorder windows, `/trace` output, profile spans — lives in
    /// one time domain (`Executor::now_us`).
    pub(crate) epoch: Instant,
    stop: AtomicBool,
    /// Fast-path mirror of [`RunningRegistry::closing`]: lets submission
    /// paths reject without the registry lock. The registry bool (set
    /// first, under its lock) is the authoritative race-free check.
    closing: AtomicBool,
    has_observers: AtomicBool,
    observers: RwLock<Vec<Arc<dyn ExecutorObserver>>>,
    /// `true` while live introspection is on; gates the current-task
    /// publication in `execute` (one relaxed load when off).
    pub(crate) introspect_live: AtomicBool,
    /// The live-introspection service, if started (collector + optional
    /// HTTP server). Holds a `Weak` back-reference to this `Inner`, so no
    /// cycle keeps the executor alive.
    pub(crate) introspect: RwLock<Option<Arc<IntrospectState>>>,
    /// Seeded sanitizer bug: a cell written plainly by `execute` and read
    /// plainly by parking workers with no ordering between them — a true
    /// data race the happens-before detector must flag.
    #[cfg(rustflow_weaken = "seed_plain_race")]
    race_scratch: crate::sync_cell::SyncCell<u64>,
    // ---- the hand-over queue: clients push, workers pop ----
    _injector: LineBreak,
    /// External submission queue (dispatch pushes source tasks here):
    /// a lock-free MPMC ring with a mutexed overflow spill.
    pub(crate) injector: Injector,
    // ---- written by workers around every steal round and park ----
    _workers: LineBreak,
    /// Workers currently inside a steal round. While any thief is active
    /// there is no need to wake another worker for a freshly pushed task —
    /// the spinning thief will find it (Cpp-Taskflow's notifier applies
    /// the same guard). Safe against lost wake-ups because a thief that
    /// gives up re-checks every queue under the notifier's Dekker
    /// protocol before parking.
    num_spinning: AtomicUsize,
    pub(crate) notifier: Notifier,
    // ---- taken by the claiming client and the finalizing worker ----
    _registry: LineBreak,
    /// Keep-alive registry: one slot per driver claim currently
    /// outstanding, plus the authoritative shutdown flag (see
    /// [`RunningRegistry`]).
    pub(crate) running: Mutex<RunningRegistry>,
    /// Signalled (under the `running` mutex) whenever the registry
    /// empties; `Executor::drop` sleeps on it instead of busy-yielding.
    all_done: Condvar,
    // ---- taken by whoever pumps: the submitting client, in steady state ----
    _door: LineBreak,
    /// Tenant control plane: the tenant list and the weighted-fair-queue
    /// clock. Taken by whoever pumps — in steady state the submitting
    /// client only (see [`FrontDoorBudget`]).
    qos: Mutex<QosState>,
    // ---- the two words submitter and finalizer share ----
    _budget: LineBreak,
    /// The in-flight budget and the count of queued runs: the two words a
    /// finalizing worker and a submitter share instead of `qos`.
    budget: FrontDoorBudget,
}

impl Inner {
    /// Snapshot of every worker's counters, with ring-drop counts folded
    /// in from the introspection tracer when one is installed.
    pub(crate) fn worker_stats(&self) -> Vec<WorkerStats> {
        let mut stats: Vec<WorkerStats> = self.shareds.iter().map(|s| s.snapshot()).collect();
        if let Some(state) = self.introspect.read().as_ref() {
            for (w, dropped) in stats.iter_mut().zip(state.tracer().dropped_per_lane()) {
                w.ring_dropped = dropped;
            }
        }
        stats
    }

    /// Snapshot of every tenant's counters and gauges.
    pub(crate) fn tenant_stats(&self) -> Vec<TenantStats> {
        let tenants: Vec<Arc<TenantState>> = self.qos.lock().tenants.clone();
        tenants.iter().map(|t| t.snapshot()).collect()
    }

    /// Scrape-time merge of every tenant's latency shards: folds each
    /// lock-free [`AtomicHistogram`](crate::AtomicHistogram) into a plain
    /// [`Histogram`] per phase. Workers never pay for this — the fold is
    /// a bucket-count copy done by the scraping thread.
    pub(crate) fn tenant_latency(&self) -> Vec<TenantLatencySnapshot> {
        let tenants: Vec<Arc<TenantState>> = self.qos.lock().tenants.clone();
        tenants
            .iter()
            .map(|t| TenantLatencySnapshot {
                name: t.name.clone(),
                slo: t.slo,
                phases: LATENCY_PHASES
                    .iter()
                    .zip(t.latency.iter())
                    .map(|(phase, shard)| (*phase, shard.snapshot()))
                    .collect(),
            })
            .collect()
    }
}

/// One tenant's latency distributions, merged at scrape time: phase
/// label → bucketed histogram, in [`LATENCY_PHASES`] order.
pub(crate) struct TenantLatencySnapshot {
    pub(crate) name: String,
    pub(crate) slo: Option<SloSpec>,
    pub(crate) phases: Vec<(&'static str, crate::stats::Histogram)>,
}

/// Runs every observer hook iff at least one observer is installed; the
/// hot paths pay a single relaxed-ish load when tracing is off.
#[inline]
fn notify_observers(inner: &Inner, f: impl Fn(&dyn ExecutorObserver)) {
    // ORDERING: Acquire pairs with `observe`'s Release store, so a hook
    // that fires sees the fully-constructed observer list.
    if inner.has_observers.load(Ordering::Acquire) {
        for ob in inner.observers.read().iter() {
            f(&**ob);
        }
    }
}

/// A shared pool of worker threads executing task dependency graphs.
pub struct Executor {
    inner: Arc<Inner>,
    /// Worker threads: model threads under the sanitizer, real named
    /// threads otherwise (see [`crate::sync::thread`]).
    threads: Mutex<Vec<crate::sync::thread::JoinHandle<()>>>,
    /// Introspection service threads (collector, HTTP acceptor); joined
    /// on drop after their stop flag is raised. Always real `std` threads
    /// — introspection is outside the model's scope.
    aux_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// Creates an executor with `workers` threads and default heuristics.
    pub fn new(workers: usize) -> Arc<Executor> {
        Executor::with_config(workers.max(1), Config::default())
    }

    fn with_config(workers: usize, cfg: Config) -> Arc<Executor> {
        let mut owners = Vec::with_capacity(workers);
        let mut shareds = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (owner, stealer) = wsq::deque_with_capacity(cfg.queue_capacity);
            owners.push(owner);
            shareds.push(WorkerShared {
                stealer,
                current: Mutex::new(None),
                executed: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                steal_attempts: AtomicU64::new(0),
                steal_fails: AtomicU64::new(0),
                injector_pops: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                wakes_sent: AtomicU64::new(0),
                skipped: AtomicU64::new(0),
                retries: AtomicU64::new(0),
            });
        }
        let inner = Arc::new(Inner {
            _injector: LineBreak,
            _workers: LineBreak,
            _registry: LineBreak,
            _door: LineBreak,
            _budget: LineBreak,
            shareds: shareds.into_boxed_slice(),
            injector: Injector::new(cfg.injector_capacity, cfg.mutexed_injector),
            num_spinning: AtomicUsize::new(0),
            notifier: Notifier::new(workers),
            stop: AtomicBool::new(false),
            running: Mutex::new(RunningRegistry::default()),
            all_done: Condvar::new(),
            closing: AtomicBool::new(false),
            qos: Mutex::new(QosState::default()),
            budget: FrontDoorBudget::new(cfg.max_inflight),
            observers: RwLock::new(Vec::new()),
            has_observers: AtomicBool::new(false),
            cfg,
            epoch: crate::clock::origin(),
            introspect_live: AtomicBool::new(false),
            introspect: RwLock::new(None),
            #[cfg(rustflow_weaken = "seed_plain_race")]
            race_scratch: crate::sync_cell::SyncCell::new(0),
        });
        let mut threads = Vec::with_capacity(workers);
        for (id, owner) in owners.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            let ctx = WorkerCtx {
                id,
                owner,
                cache: 0,
                rng: 0x9E37_79B9_7F4A_7C15 ^ ((id as u64 + 1) << 17),
                last_victim: (id + 1) % workers,
            };
            threads.push(crate::sync::thread::spawn_named(
                format!("rustflow-worker-{id}"),
                move || worker_loop(&inner, ctx),
            ));
        }
        Arc::new(Executor {
            inner,
            threads: Mutex::new(threads),
            aux_threads: Mutex::new(Vec::new()),
        })
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.inner.shareds.len()
    }

    /// Number of currently parked (idle) workers; advisory.
    pub fn num_idlers(&self) -> usize {
        self.inner.notifier.num_idlers()
    }

    /// Number of topologies currently executing on this executor.
    pub fn num_running_topologies(&self) -> usize {
        self.inner.running.lock().len()
    }

    /// Returns the tenant handle for `name`, creating it with the default
    /// [`TenantQos`] on first use. Handles are cheap to clone and safe to
    /// share across client threads.
    pub fn tenant(&self, name: &str) -> Tenant {
        self.tenant_with(name, TenantQos::default())
    }

    /// Returns the tenant handle for `name`, creating it with `qos` on
    /// first use. A tenant that already exists keeps its original QoS —
    /// weights are fixed at creation so the fair-queue arithmetic stays
    /// consistent across in-flight work.
    pub fn tenant_with(&self, name: &str, qos: TenantQos) -> Tenant {
        let mut q = self.inner.qos.lock();
        let state = match q.tenants.iter().find(|t| t.name == name) {
            Some(t) => Arc::clone(t),
            None => {
                let state = Arc::new(TenantState::new(
                    q.tenants.len() as u64 + 1,
                    name.to_string(),
                    qos,
                ));
                q.tenants.push(Arc::clone(&state));
                state
            }
        };
        drop(q);
        Tenant {
            state,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Stops admitting work: every queued tenant submission and every
    /// later `submit`/`try_submit` resolves with
    /// [`AdmissionError::ShuttingDown`]; topologies already dispatched run
    /// to completion. Idempotent; called automatically by `Drop`. This is
    /// the serving drain hook — call it before tearing a service down to
    /// get typed rejections instead of racing the destructor.
    pub fn close(&self) {
        {
            // The registry bool is authoritative: submission paths check
            // it under the same lock that registers keep-alives, so a
            // submission either registers before the drain below or is
            // rejected — never silently dropped.
            self.inner.running.lock().closing = true;
        }
        // ORDERING: SeqCst publishes the fast-path flag before the queue
        // drain; a tenant submit that pushed before the drain acquired
        // its queue lock is drained, one after sees the flag (checked
        // under the same queue lock) and is rejected.
        self.inner.closing.store(true, Ordering::SeqCst);
        let tenants: Vec<Arc<TenantState>> = self.inner.qos.lock().tenants.clone();
        for tenant in tenants {
            let drained: Vec<QueuedRun> = {
                let mut q = tenant.queue.lock();
                let runs: Vec<QueuedRun> = q.drain(..).collect();
                tenant.note_unqueued(&self.inner.budget, runs.len());
                // Counted under the queue lock, atomically with the
                // drain, so the ledger stays balanced for scrapers.
                tenant
                    .rejected_shutdown
                    .fetch_add(runs.len() as u64, Ordering::Relaxed);
                // Unblock submitters waiting for queue space; they
                // re-check the closing flag and return the typed error.
                tenant.space.notify_all();
                runs
            };
            for run in drained {
                tenant.release_probe(run.probe);
                run.promise
                    .set(Err(RunError::Rejected(AdmissionError::ShuttingDown)));
            }
        }
    }

    /// Installs an observer whose hooks run around every task execution.
    pub fn observe(&self, observer: Arc<dyn ExecutorObserver>) {
        observer.on_observe(self.num_workers());
        let mut obs = self.inner.observers.write();
        obs.push(observer);
        // ORDERING: Release publishes the list write above to
        // `notify_observers`' Acquire fast-path load.
        self.inner.has_observers.store(true, Ordering::Release);
    }

    /// Removes all observers.
    pub fn remove_observers(&self) {
        let mut obs = self.inner.observers.write();
        obs.clear();
        // ORDERING: Release orders the clear before the flag flip; the
        // fast path never iterates a list mid-teardown.
        self.inner.has_observers.store(false, Ordering::Release);
    }

    /// Per-worker diagnostic counters. When live introspection is on
    /// ([`Executor::serve_introspection`]) each entry also carries its
    /// worker's telemetry-ring drop count
    /// ([`WorkerStats::ring_dropped`]).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.inner.worker_stats()
    }

    /// A point-in-time snapshot of every worker's counters, ready for
    /// diffing ([`ExecutorStats::delta`]) or Prometheus-style export
    /// ([`ExecutorStats::prometheus_text`]).
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            workers: self.worker_stats(),
            tenants: self.inner.tenant_stats(),
        }
    }

    /// Microseconds since the process-wide monotonic clock origin — the
    /// time domain of every [`SchedEvent::ts_us`](crate::SchedEvent),
    /// flight-recorder window, `/trace` timestamp, and profile span this
    /// executor emits. Scrapers use it to correlate a live observation
    /// with trace output.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Starts the live-introspection collector (flight recorder +
    /// watchdog) **without** an HTTP endpoint; snapshots are read through
    /// the returned [`IntrospectHandle`]. The whole feature is off until
    /// this (or [`Executor::serve_introspection`]) is called: workers pay
    /// one relaxed load per task when disabled.
    ///
    /// Errors with [`std::io::ErrorKind::AlreadyExists`] if introspection
    /// was already started on this executor.
    pub fn start_introspection(
        &self,
        config: IntrospectConfig,
    ) -> std::io::Result<IntrospectHandle> {
        crate::introspect::start(self, &self.inner, config, None)
    }

    /// Starts live introspection with the default [`IntrospectConfig`]
    /// and serves it over an embedded HTTP endpoint bound to `addr`
    /// (e.g. `"127.0.0.1:9100"`; port 0 picks a free port — read it back
    /// via [`IntrospectHandle::local_addr`]).
    ///
    /// Routes: `GET /metrics` (Prometheus text), `GET /status` (JSON
    /// snapshot), `GET /trace?last_ms=N` (Chrome-trace JSON window from
    /// the flight recorder). The server is a dependency-free blocking
    /// `TcpListener` acceptor on its own thread; it shuts down with the
    /// executor.
    pub fn serve_introspection(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<IntrospectHandle> {
        self.serve_introspection_with(addr, IntrospectConfig::default())
    }

    /// [`Executor::serve_introspection`] with a custom config.
    pub fn serve_introspection_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: IntrospectConfig,
    ) -> std::io::Result<IntrospectHandle> {
        let listener = std::net::TcpListener::bind(addr)?;
        crate::introspect::start(self, &self.inner, config, Some(listener))
    }

    /// Hands the introspection service threads to the executor, which
    /// joins them on drop (after raising the service's stop flag).
    pub(crate) fn adopt_aux_threads(&self, threads: Vec<JoinHandle<()>>) {
        self.aux_threads.lock().extend(threads);
    }

    /// The process-wide default executor (used by [`crate::Taskflow::new`]),
    /// sized to the machine's available parallelism.
    pub fn default_shared() -> Arc<Executor> {
        static DEFAULT: OnceLock<Arc<Executor>> = OnceLock::new();
        Arc::clone(DEFAULT.get_or_init(|| Executor::new(default_parallelism())))
    }

    /// Submits an execution batch (`cond`) for a reusable topology and
    /// returns its completion future.
    ///
    /// Fast-fails on the topology's cached sanitizer verdict without
    /// touching the queue — a graph that could never complete (dependency
    /// cycle, self-edge) resolves immediately with
    /// [`RunError::InvalidGraph`] instead of deadlocking the worker pool
    /// as in Cpp-Taskflow. If the submission claims the idle topology, the
    /// caller's thread becomes the driver: it registers the keep-alive and
    /// starts the first iteration; otherwise the batch waits FIFO and the
    /// executor's finalize path picks it up.
    ///
    /// A submission racing shutdown resolves with
    /// [`RunError::Rejected`]`(`[`AdmissionError::ShuttingDown`]`)`: the
    /// closing check and the enqueue-plus-register step share one registry
    /// lock hold, so `Executor::drop` (which sets the flag under the same
    /// lock before waiting for the registry to empty) can never observe
    /// emptiness while a submission is half-registered.
    pub(crate) fn run_topology(
        &self,
        topo: &Arc<Topology>,
        cond: RunCondition,
    ) -> SharedFuture<RunResult> {
        if let Some(fatal) = topo.fatal() {
            return SharedFuture::ready(Err(fatal.clone()));
        }
        if topo.num_static_nodes() == 0 {
            // Nothing to run; never reaches the workers.
            return SharedFuture::ready(Ok(()));
        }
        let (promise, future) = crate::future::promise_pair();
        let claimed = {
            let mut reg = self.inner.running.lock();
            if reg.closing {
                return SharedFuture::ready(Err(RunError::Rejected(AdmissionError::ShuttingDown)));
            }
            let claimed = topo.enqueue(PendingRun { cond, promise });
            if claimed {
                topo.set_registration(reg.register(topo, None));
            }
            claimed
        };
        if claimed {
            // Untenanted claim: reset the tenant tag and lifecycle stamps
            // a previous tenant stint may have left on this (reusable)
            // topology, so observer events label this stint untenanted
            // and the latency pipeline stays disarmed.
            topo.set_tenant(0);
            topo.stamps.clear();
            advance_topology(&self.inner, topo, false);
        }
        future
    }

    /// Tenant-scoped submission: queues the batch in `tenant`'s bounded
    /// queue and lets the weighted-fair-queue pump dispatch it within the
    /// executor's in-flight budget. `block` decides what a full queue
    /// does: reject with [`AdmissionError::Saturated`] immediately, wait
    /// bounded, or wait indefinitely. `deadline`, when set (or defaulted
    /// from [`TenantQos::deadline`]), is checked for feasibility against
    /// the live queue-wait estimate and stamped onto the queued run for
    /// the dispatcher's shed check.
    pub(crate) fn run_topology_on(
        &self,
        tenant: &Tenant,
        topo: &Arc<Topology>,
        cond: RunCondition,
        block: Block,
        deadline: Option<Duration>,
    ) -> Result<SharedFuture<RunResult>, AdmissionError> {
        assert!(
            Arc::ptr_eq(&self.inner, &tenant.inner),
            "tenant '{}' belongs to a different executor",
            tenant.state.name
        );
        if let Some(fatal) = topo.fatal() {
            return Ok(SharedFuture::ready(Err(fatal.clone())));
        }
        if topo.num_static_nodes() == 0 {
            return Ok(SharedFuture::ready(Ok(())));
        }
        let state = &tenant.state;
        // Resolve the effective deadline (per-run override beats the
        // tenant default) and its feasibility estimate before taking the
        // queue lock — the estimate merges the admission-phase histogram
        // shards, which is too much work to do under the lock.
        let deadline = deadline.or(state.deadline);
        let estimate_us = match deadline {
            Some(_) => state.estimated_queue_wait_us(),
            None => None,
        };
        let (promise, future) = crate::future::promise_pair();
        let mut transition = None;
        let admitted = {
            let mut q = state.queue.lock();
            // Counted per admission *attempt* (under the queue lock, so
            // the ledger `submitted == queued + dispatched + coalesced +
            // shed + rejected_*` holds at every quiescent point).
            state.submitted.fetch_add(1, Ordering::Relaxed);
            self.admit_queued(state, &mut q, block, deadline, estimate_us, &mut transition)
                .map(|probe| {
                    let now = crate::clock::now_us().max(1);
                    q.push_back(QueuedRun {
                        topo: Arc::clone(topo),
                        cond,
                        promise,
                        // `.max(1)`: 0 is the "not stamped" sentinel and
                        // the clock's first microsecond is
                        // indistinguishable from it.
                        submit_us: if self.inner.cfg.latency_histograms {
                            now
                        } else {
                            0
                        },
                        admitted_us: 0,
                        enqueued_us: now,
                        deadline_us: deadline
                            .map(|d| now.saturating_add(d.as_micros() as u64))
                            .unwrap_or(0),
                        probe,
                    });
                    state.note_queued(&self.inner.budget);
                })
        };
        // Emit outside the queue lock: diagnostic subscribers run
        // arbitrary code.
        if let Some((from, to)) = transition {
            emit_breaker_transition(&self.inner, state, from, to);
        }
        admitted?;
        pump_tenants(&self.inner);
        Ok(future)
    }

    /// The admission gauntlet for one tenant submission, run under the
    /// tenant's queue lock: shutdown check, circuit breaker, deadline
    /// feasibility, then the bounded-queue wait according to `block`.
    /// `Ok(probe)` clears the run for enqueue.
    fn admit_queued(
        &self,
        state: &TenantState,
        q: &mut crate::sync::MutexGuard<'_, VecDeque<QueuedRun>>,
        block: Block,
        deadline: Option<Duration>,
        estimate_us: Option<u64>,
        transition: &mut Option<(BreakerState, BreakerState)>,
    ) -> Result<bool, AdmissionError> {
        // ORDERING: SeqCst pairs with `close`'s store. Checked under the
        // queue lock: a push serialized before the drain is always
        // drained; one after always sees the flag. Either way no
        // submission is silently dropped.
        if self.inner.closing.load(Ordering::SeqCst) {
            state.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::ShuttingDown);
        }
        // Breaker before deadline: an open breaker is the cheaper (and
        // more actionable) rejection. Checked once per submission — the
        // space wait below does not re-run it, so a probe admitted here
        // is never re-judged by its own claim.
        let probe = match state.breaker_admit(transition) {
            Ok(probe) => probe,
            Err(retry_after) => {
                state.rejected_breaker.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::BreakerOpen {
                    tenant: state.name.clone(),
                    retry_after,
                });
            }
        };
        // Deadline feasibility: cheap-reject beats queue-then-shed. Only
        // ever rejects with a warm histogram (cold start admits).
        if let (Some(deadline), Some(est)) = (deadline, estimate_us) {
            if est > deadline.as_micros() as u64 {
                state.rejected_infeasible.fetch_add(1, Ordering::Relaxed);
                state.release_probe(probe);
                return Err(AdmissionError::DeadlineInfeasible {
                    tenant: state.name.clone(),
                    deadline,
                    estimated_wait: Duration::from_micros(est),
                });
            }
        }
        loop {
            // ORDERING: SeqCst pairs with `close`'s store (same protocol
            // as the entry check above). Re-checked after every wakeup:
            // `close` drains the queue and notifies `space`, so a parked
            // submitter must observe the flag rather than push into a
            // drained queue.
            if self.inner.closing.load(Ordering::SeqCst) {
                state.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                state.release_probe(probe);
                return Err(AdmissionError::ShuttingDown);
            }
            if q.len() < state.max_queue {
                return Ok(probe);
            }
            match block {
                Block::Never => {}
                Block::Forever => {
                    state.space.wait(q);
                    continue;
                }
                Block::Until(until) => {
                    // Spurious wakeups loop back with the same absolute
                    // deadline; only a timeout with the queue still full
                    // gives up.
                    if !state.space.wait_until(q, until).timed_out() || q.len() < state.max_queue {
                        continue;
                    }
                }
            }
            state.rejected_saturated.fetch_add(1, Ordering::Relaxed);
            state.release_probe(probe);
            return Err(AdmissionError::Saturated {
                tenant: state.name.clone(),
                capacity: state.max_queue,
            });
        }
    }
}

/// What a tenant submission does when the queue is at `max_queued`
/// ([`Executor::run_topology_on`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Block {
    /// Reject with [`AdmissionError::Saturated`] immediately
    /// (`try_run_on`).
    Never,
    /// Wait for space until the absolute deadline, then reject with
    /// [`AdmissionError::Saturated`] (`run_on_timeout`).
    Until(Instant),
    /// Wait for space indefinitely (`run_on`).
    Forever,
}

/// Drives a topology on behalf of the current driver (the thread that
/// claimed it at submission, or the worker whose final `alive` decrement
/// ended an iteration): steps the batch state machine, then re-arms and
/// publishes the next iteration — or, when every batch is done, drops the
/// keep-alive registration, which the driver finds in O(1) through the slot
/// index the claim left in the topology.
fn advance_topology(inner: &Inner, topo: &Topology, iteration_finished: bool) {
    // The stint's registry slot and lifecycle stamps must be copied out
    // *before* `advance` can transition the topology to idle: the instant
    // it is idle, a concurrent resubmission may claim it and overwrite
    // both with its own stint's. The end stamp is taken here too — before
    // `advance` resolves the promises — so the recorded e2e interval is
    // bracketed by any client timing its own submit→resolve round trip
    // (promise resolution and finalize bookkeeping can be descheduled for
    // a long time on a loaded box, and that wait belongs to neither view).
    // Four relaxed loads and a clock read, skipped when the pipeline is
    // off.
    let slot = topo.registration();
    let stamps = inner
        .cfg
        .latency_histograms
        .then(|| (topo.stamps.snapshot(), crate::clock::now_us().max(1)));
    // The breaker's failure signal must be read before `advance` too: the
    // idle transition consumes the recorded error while resolving the
    // run's promises. Panics (and invalid graphs) count; a plain
    // cancellation is the client's choice, not the tenant's health.
    let failed = topo.tenant_id() != 0 && topo.has_panic();
    // SAFETY: the caller holds the driver role per the functions's
    // contract; at most one driver exists per topology at a time.
    match unsafe { topo.advance(iteration_finished) } {
        Advance::RunIteration => {
            // SAFETY: driver role; the topology is quiescent between
            // iterations, so re-arming owns every node until `publish`
            // makes the sources visible below.
            unsafe {
                topo.begin_iteration(|sources| {
                    notify_observers(inner, |ob| {
                        ob.on_topology_start(topo.iteration_info(), topo.num_static_nodes())
                    });
                    let k = sources.len();
                    inner.injector.push_batch(sources.iter().copied());
                    // ORDERING: Dekker fence — the pushes above must
                    // precede the idler check inside wake_one in the
                    // SeqCst total order (see notifier docs), or a
                    // concurrently-parking worker could be missed.
                    fence(Ordering::SeqCst);
                    for _ in 0..k {
                        match inner.notifier.wake_one() {
                            Some(w) => {
                                notify_observers(inner, |ob| ob.on_wake(DISPATCH_LANE, w, true))
                            }
                            None => break,
                        }
                    }
                });
            }
        }
        Advance::Idle => {
            // Every promise is resolved and the topology is settled: drop
            // this stint's keep-alive. A concurrent resubmission may
            // already hold a registration of its own for the same
            // topology; it sits in another slot and is untouched.
            let (keep_alive, tenant) = {
                let mut running = inner.running.lock();
                let removed = running.remove(slot);
                if running.is_empty() {
                    // Wake a destructor waiting for quiescence
                    // (Executor::drop).
                    inner.all_done.notify_all();
                }
                removed
            };
            drop(keep_alive);
            if let Some(tenant) = tenant {
                // Fold the finished stint into the tenant's latency
                // shards (a few relaxed fetch_adds; coalesced piggybacks
                // never get here — they are counted separately and have
                // no lifecycle of their own).
                if let Some((stamps, end_us)) = stamps {
                    record_latency(&tenant, stamps, end_us);
                }
                tenant.completed.fetch_add(1, Ordering::Relaxed);
                tenant.inflight.fetch_sub(1, Ordering::Relaxed);
                // Feed the circuit breaker; no locks held, so the
                // transition (if any) can be emitted inline.
                if let Some((from, to)) = tenant.note_outcome(failed) {
                    emit_breaker_transition(inner, &tenant, from, to);
                }
                // Return the admission slot. With nothing queued that is
                // all: no `qos`, no tenant queue lock. A run that arrived
                // at a full budget is either seen here or its submitter
                // sees the freed slot (see `FrontDoorBudget`).
                if inner.budget.release() {
                    pump_tenants(inner);
                }
            }
        }
    }
}

/// Decomposes a finished tenant stint's lifecycle into the five latency
/// phases and records each into the tenant's lock-free shards. All stamps
/// share one clock domain ([`crate::clock::origin`]), so the end-to-end
/// phase equals the sum of the four sub-phases exactly (modulo the
/// `saturating_sub` clamps against clock-read reordering). `end` is
/// stamped by the caller just before the idle transition resolves the
/// run's promises.
fn record_latency(tenant: &TenantState, s: crate::topology::StampSnapshot, end: u64) {
    if s.submit == 0 {
        // Stint never stamped: the latency pipeline was off when this
        // dispatch claimed the driver role, or an untenanted claim.
        return;
    }
    // An armed-but-unstamped latch (0: the stint ran no task, e.g. an
    // instantly-cancelled batch) falls back to the dispatch stamp so the
    // dispatch/exec split stays well-defined.
    let first = if s.first_start == 0 || s.first_start == u64::MAX {
        s.dispatched
    } else {
        s.first_start
    };
    tenant.latency[0].record(s.admitted.saturating_sub(s.submit));
    tenant.latency[1].record(s.dispatched.saturating_sub(s.admitted));
    tenant.latency[2].record(first.saturating_sub(s.dispatched));
    tenant.latency[3].record(end.saturating_sub(first));
    tenant.latency[4].record(end.saturating_sub(s.submit));
}

/// Forwards a breaker transition to the watchdog's diagnostic stream
/// (counter + subscribers), if introspection is live. Callers must hold
/// no tenant/qos locks — subscribers run arbitrary code.
fn emit_breaker_transition(
    inner: &Inner,
    tenant: &TenantState,
    from: BreakerState,
    to: BreakerState,
) {
    let state = inner.introspect.read().clone();
    if let Some(state) = state {
        state
            .watchdog()
            .note_breaker_transition(&tenant.name, from, to);
    }
}

/// The overload controller's actuator, invoked from the watchdog when a
/// tenant's SLO burn rate fires: sheds the newest half of the tenant's
/// queued runs (newest-first — the oldest queued work is closest to
/// dispatch and most worth finishing). Returns `(shed, still_queued)`.
pub(crate) fn shed_overburn(inner: &Inner, tenant: &str) -> (u64, u64) {
    let state = {
        let qos = inner.qos.lock();
        qos.tenants.iter().find(|t| t.name == tenant).cloned()
    };
    let Some(state) = state else {
        return (0, 0);
    };
    let now = crate::clock::now_us().max(1);
    let mut dropped: Vec<QueuedRun> = Vec::new();
    let remaining = {
        let mut q = state.queue.lock();
        let keep = q.len() / 2;
        while q.len() > keep {
            // Counted under the queue lock, like the dispatcher's
            // deadline sheds, so the ledger never transiently leaks.
            let run = q.pop_back().expect("len > keep >= 0");
            state.note_unqueued(&inner.budget, 1);
            state.shed.fetch_add(1, Ordering::Relaxed);
            state.space.notify_one();
            dropped.push(run);
        }
        q.len() as u64
    };
    let count = dropped.len() as u64;
    for run in dropped {
        let queued_for_us = now.saturating_sub(run.enqueued_us);
        resolve_shed(&state, run, queued_for_us);
    }
    (count, remaining)
}

/// Consults the run's tenant retry budget on behalf of [`execute`]'s
/// retry path. Untenanted runs (and tenants without a budget) always
/// retry; only reached when a task failed and would otherwise retry, so
/// the qos-lock lookup is off the hot path.
fn charge_retry(inner: &Inner, topo: &Topology) -> bool {
    let id = topo.tenant_id();
    if id == 0 {
        return true;
    }
    let state = {
        let qos = inner.qos.lock();
        qos.tenants.get(id as usize - 1).cloned()
    };
    match state {
        Some(state) => state.charge_retry(),
        None => true,
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if crate::sync::model_teardown() {
            // A model execution is being torn down (schedule aborted, or
            // this drop runs during an assertion unwind): the checker owns
            // every model thread and each shimmed wait below would wedge.
            // Skip the shutdown protocol; the engine reclaims the threads.
            return;
        }
        // Reject everything not yet admitted: queued tenant submissions
        // resolve with a typed `ShuttingDown` error, and any `submit`
        // racing this destructor is turned away instead of silently
        // dropped (the closing flag and the keep-alive registration share
        // the registry lock, so no submission can slip between the flag
        // and the emptiness wait below).
        self.close();
        // Let in-flight topologies finish: their node pointers reference
        // graphs that callers may drop right after their future resolves.
        // `finalize` signals `all_done` when the registry empties, so this
        // sleeps instead of burning a core on yield_now.
        {
            let mut running = self.inner.running.lock();
            while !running.is_empty() {
                self.inner.all_done.wait(&mut running);
            }
        }
        // Stop the introspection service (collector + HTTP acceptor)
        // before the workers: its threads hold an `Arc<Inner>` and poll a
        // stop flag with bounded sleeps, so the join is prompt.
        let introspect = self.inner.introspect.write().take();
        if let Some(state) = introspect {
            // ORDERING: Release — workers' Relaxed `live` loads may lag,
            // but anything they published before this store is visible to
            // the collector's final drain.
            self.inner.introspect_live.store(false, Ordering::Release);
            state.request_stop();
        }
        for t in self.aux_threads.lock().drain(..) {
            let _ = t.join();
        }
        // ORDERING: SeqCst puts the stop flag in the Dekker total order
        // ahead of wake_all, so a worker that re-checks queues on its way
        // to parking cannot miss shutdown and sleep forever.
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.notifier.wake_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.num_workers())
            .field("idlers", &self.num_idlers())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Worker loop (Algorithm 1)
// ---------------------------------------------------------------------------

fn worker_loop(inner: &Inner, mut ctx: WorkerCtx) {
    loop {
        // ORDERING: Acquire pairs with the SeqCst stop store in `drop`,
        // so a stopping worker sees all pre-shutdown writes.
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
        // Line 2: own queue first (the cache was drained last round).
        let mut t = std::mem::take(&mut ctx.cache);
        if t == 0 {
            t = ctx.owner.pop().unwrap_or(0);
        }
        // Line 3: steal. The spinning counter gates redundant wake-ups
        // from concurrent pushes (see Inner::num_spinning).
        if t == 0 {
            // ORDERING: SeqCst bracket around the steal attempt — the
            // spinner count shares the Dekker total order with
            // `schedule`'s fence, so a submitter either sees a spinner
            // (and skips the wake) or the spinner's scan sees its push.
            inner.num_spinning.fetch_add(1, Ordering::SeqCst);
            t = try_steal(inner, &mut ctx);
            inner.num_spinning.fetch_sub(1, Ordering::SeqCst); // ORDERING: closes the bracket above.
        }
        // Lines 5–13: park when everything is empty.
        if t == 0 {
            // SAFETY: deliberately WRONG — this plain read races with the
            // plain write in `execute`; it is the bug this mutation seeds
            // for the sanitizer to catch.
            #[cfg(rustflow_weaken = "seed_plain_race")]
            let _ = unsafe { *inner.race_scratch.get() };
            inner.shareds[ctx.id].parks.fetch_add(1, Ordering::Relaxed);
            notify_observers(inner, |ob| ob.on_park(ctx.id));
            inner.notifier.wait(
                ctx.id,
                || inner.shareds.iter().all(|s| s.stealer.is_empty()) && inner.injector.is_empty(),
                &inner.stop,
            );
            continue;
        }
        // Lines 16–25: run the task, then speculatively drain the cache —
        // a linear chain executes here without touching any queue. Every
        // non-empty take after the first task is a cache hit.
        // The counter bumps *before* `execute`: execution of the last task
        // finalizes its topology and releases `wait_for_all`, so counting
        // afterwards would let a freshly released reader miss the final
        // increments.
        inner.shareds[ctx.id]
            .executed
            .fetch_add(1, Ordering::Relaxed);
        execute(inner, &mut ctx, t as RawNode);
        loop {
            t = std::mem::take(&mut ctx.cache);
            if t == 0 {
                break;
            }
            inner.shareds[ctx.id]
                .cache_hits
                .fetch_add(1, Ordering::Relaxed);
            // SAFETY: the node is armed and its topology alive (same
            // contract as `execute` below, which runs it next).
            let label = unsafe { (*(t as RawNode)).label() };
            notify_observers(inner, |ob| ob.on_cache_hit(ctx.id, label));
            inner.shareds[ctx.id]
                .executed
                .fetch_add(1, Ordering::Relaxed);
            execute(inner, &mut ctx, t as RawNode);
        }
        // Lines 26–28: probabilistic wake-up for load balancing.
        if inner.cfg.wake_ratio != 0 && ctx.next_rand().is_multiple_of(inner.cfg.wake_ratio) {
            if let Some(woken) = inner.notifier.wake_one() {
                inner.shareds[ctx.id]
                    .wakes_sent
                    .fetch_add(1, Ordering::Relaxed);
                notify_observers(inner, |ob| ob.on_wake(ctx.id, woken, false));
            }
        }
    }
}

/// One round of stealing: last victim first, then the other workers, then
/// the external injector. `Retry` results re-attempt the same victim.
fn try_steal(inner: &Inner, ctx: &mut WorkerCtx) -> usize {
    let n = inner.shareds.len();
    let me = ctx.id;
    let mut attempts = 2 * n + 2;
    while attempts > 0 {
        attempts -= 1;
        let v = ctx.last_victim;
        if v != me {
            inner.shareds[me]
                .steal_attempts
                .fetch_add(1, Ordering::Relaxed);
            match inner.shareds[v].stealer.steal() {
                wsq::Steal::Success(x) => {
                    inner.shareds[me].steals.fetch_add(1, Ordering::Relaxed);
                    notify_observers(inner, |ob| ob.on_steal(me, v));
                    return x;
                }
                wsq::Steal::Retry => continue, // same victim again
                wsq::Steal::Empty => {}
            }
        }
        ctx.last_victim = (v + 1) % n;
    }
    let popped = inner.injector.pop();
    match popped {
        Some(x) => {
            inner.shareds[me]
                .injector_pops
                .fetch_add(1, Ordering::Relaxed);
            notify_observers(inner, |ob| ob.on_injector_pop(me));
            x
        }
        None => {
            inner.shareds[me]
                .steal_fails
                .fetch_add(1, Ordering::Relaxed);
            notify_observers(inner, |ob| ob.on_steal_fail(me));
            0
        }
    }
}

/// Schedules a node that just became ready, from worker context.
///
/// # Safety
/// `node` must be armed (join counter reached zero exactly once) and its
/// topology alive.
unsafe fn schedule(inner: &Inner, ctx: &mut WorkerCtx, node: RawNode) {
    let item = node as usize;
    if inner.cfg.cache_slot && ctx.cache == 0 {
        // First ready successor: speculative execution, no queue traffic.
        ctx.cache = item;
        return;
    }
    ctx.owner.push(item);
    // ORDERING: Dekker fence + SeqCst load — the push must precede the
    // spinner/idler checks in the single total order (notifier docs);
    // otherwise the new task could go unnoticed by every worker.
    fence(Ordering::SeqCst);
    if inner.num_spinning.load(Ordering::SeqCst) == 0 {
        if let Some(woken) = inner.notifier.wake_one() {
            inner.shareds[ctx.id]
                .wakes_sent
                .fetch_add(1, Ordering::Relaxed);
            notify_observers(inner, |ob| ob.on_wake(ctx.id, woken, true));
        }
    }
}

/// Executes a node: runs its work (retrying per the node's
/// [`RetryPolicy`](crate::graph::RetryPolicy)), spawns its subflow if any,
/// and performs completion bookkeeping. A node whose topology was
/// cancelled before this point is **skipped**: its work never runs, only
/// the bookkeeping — which is what lets a cancelled graph drain promptly
/// instead of executing its whole tail.
fn execute(inner: &Inner, ctx: &mut WorkerCtx, node: RawNode) {
    // SAFETY: the scheduling protocol hands each armed node to exactly one
    // worker; the node's topology (and thus the node) is kept alive by
    // `inner.running` until every node completed.
    unsafe {
        let topo = &*(*(*node).state.topology.get());
        // First-task stamp for the per-tenant latency pipeline: a single
        // relaxed load per task in steady state (the latch is armed only
        // between a tenant dispatch and its first task), one CAS for the
        // task that wins the race.
        topo.stamps.note_first_start();
        if topo.is_cancelled() {
            // The cancel flag was published after `RunError::Cancelled`
            // was recorded (see `Topology::cancel`), so skipping here can
            // never let the batch resolve `Ok`. Skipped tasks emit no
            // begin/end span — they did not run.
            inner.shareds[ctx.id]
                .skipped
                .fetch_add(1, Ordering::Relaxed);
            let label = (*node).label();
            notify_observers(inner, |ob| ob.on_task_skipped(ctx.id, label));
            complete(inner, ctx, node);
            return;
        }
        // Publish the running task for live introspection (`/status`,
        // stall watchdog). Off by default: one relaxed load per task;
        // when live, two uncontended mutex writes bracketing the work.
        let live = inner.introspect_live.load(Ordering::Relaxed);
        if live {
            *inner.shareds[ctx.id].current.lock() = Some(CurrentTask {
                label: (*node).label().clone(),
                node: node as u64,
                topology: topo.uid(),
                since_us: crate::clock::now_us(),
            });
        }
        // ORDERING: Acquire pairs with `observe`'s Release, so span hooks
        // run against a fully-installed observer list.
        let observed = inner.has_observers.load(Ordering::Acquire);
        // Span identity is built only when somebody is listening; the
        // zero-observer hot path pays the single Acquire load and nothing
        // else. Node and parent addresses are stable for the iteration,
        // and the run id cannot change while this node is alive.
        let span = observed.then(|| crate::observer::TaskSpanInfo {
            node: node as u64,
            parent: (*(*node).state.parent.get()) as u64,
            run: topo.run_id(),
        });
        if let Some(span) = span {
            let label = (*node).label();
            for ob in inner.observers.read().iter() {
                ob.on_task_begin(ctx.id, label, span);
            }
        }
        let retry = (*node).retry_policy();
        let mut attempt: u32 = 0;
        let mut deferred = false;
        loop {
            let mut failed: Option<Box<dyn std::any::Any + Send>> = None;
            let mut will_retry = false;
            {
                // Publish the executing topology so the closure can poll
                // `this_task::is_cancelled()` / read its iteration.
                let _task_scope = crate::this_task::ContextGuard::enter(topo as *const Topology);
                match (*node).structure.work.get_mut() {
                    Work::Empty => {}
                    Work::Static(f) => {
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                            if crate::sync::is_model_abort(payload.as_ref()) {
                                // Engine-internal unwind tearing the model
                                // execution down: the topology may already
                                // be freed, so no bookkeeping — rethrow.
                                std::panic::resume_unwind(payload);
                            }
                            // Budget last: the `&&` chain charges a
                            // retry token only when the retry would
                            // otherwise happen.
                            will_retry = attempt < retry.limit
                                && !topo.is_cancelled()
                                && charge_retry(inner, topo);
                            failed = Some(payload);
                        }
                    }
                    Work::Dynamic(f) => {
                        let mut sf = Subflow::new(node);
                        match catch_unwind(AssertUnwindSafe(|| f(&mut sf))) {
                            Ok(()) => deferred = spawn_subflow(inner, ctx, node, sf.is_detached()),
                            Err(payload) => {
                                if crate::sync::is_model_abort(payload.as_ref()) {
                                    // See the static arm above.
                                    std::panic::resume_unwind(payload);
                                }
                                will_retry = attempt < retry.limit
                                    && !topo.is_cancelled()
                                    && charge_retry(inner, topo);
                                if !will_retry {
                                    // Final failure: publish whatever the
                                    // closure managed to spawn, preserving
                                    // the historical partially-built-subflow
                                    // semantics (children built before the
                                    // panic still run under ContinueAll).
                                    deferred = spawn_subflow(inner, ctx, node, sf.is_detached());
                                }
                                failed = Some(payload);
                            }
                        }
                    }
                }
            }
            let Some(payload) = failed else { break };
            if will_retry {
                attempt += 1;
                inner.shareds[ctx.id]
                    .retries
                    .fetch_add(1, Ordering::Relaxed);
                let label = (*node).label();
                notify_observers(inner, |ob| ob.on_task_retry(ctx.id, label, attempt));
                // Reset just this node's run state (half-built subflow,
                // joined-child countdown); nothing propagated to
                // successors or `alive` yet, so the retry is invisible to
                // the rest of the graph.
                (*node).rearm_retry();
                let pause = retry.backoff(attempt);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                continue;
            }
            topo.record_panic(
                TaskPanic::new((*node).label().to_string(), panic_message(&*payload))
                    .with_iteration(topo.iterations()),
            );
            if topo.policy() == FailurePolicy::FailFast {
                // The panic is recorded (and wins over `Cancelled`), so
                // publishing the flag now satisfies the same
                // record-before-publish order `Topology::cancel` keeps.
                topo.cancel_internal();
            }
            break;
        }
        // SAFETY: deliberately WRONG — this plain increment races with the
        // plain read in `worker_loop`; it is the bug this mutation seeds
        // for the sanitizer to catch.
        #[cfg(rustflow_weaken = "seed_plain_race")]
        {
            *inner.race_scratch.get_mut() += 1;
        }
        if live {
            *inner.shareds[ctx.id].current.lock() = None;
        }
        if let Some(span) = span {
            let label = (*node).label();
            for ob in inner.observers.read().iter() {
                ob.on_task_end(ctx.id, label, span);
            }
        }
        if deferred {
            // Drop the spawn sentinel; the last finishing child (or we,
            // right now, if they all already finished) completes the node.
            // ORDERING: AcqRel — Release publishes this side's writes to
            // whoever hits zero; Acquire on the zero-crossing gathers
            // every child's effects before `complete` runs.
            if (*node).state.nested.fetch_sub(1, Ordering::AcqRel) == 1 {
                complete(inner, ctx, node);
            }
        } else {
            complete(inner, ctx, node);
        }
    }
}

/// Publishes a dynamic task's spawned children (§III-D).
///
/// Returns `true` when the parent's completion is deferred until the
/// (joined) children finish.
///
/// # Safety
/// Caller is the worker that just executed `node`.
unsafe fn spawn_subflow(inner: &Inner, ctx: &mut WorkerCtx, node: RawNode, detached: bool) -> bool {
    // SAFETY: the caller is the sole worker executing `node`, so its
    // subgraph is exclusively ours (cleared at re-arm, so it holds only
    // what this iteration's closure spawned).
    let sub = unsafe { (*node).state.subgraph.get_mut() };
    if sub.is_empty() {
        return false;
    }
    // Runtime-built graphs get the same sanitation as dispatched ones: a
    // cyclic subflow would keep the topology's `alive` counter from ever
    // reaching zero, wedging `wait_for_all`. Record the typed error and
    // spawn nothing (the parent completes as an empty subflow).
    //
    // SAFETY: no child has been spawned, so the subgraph is quiescent.
    let swept = unsafe { crate::validate::sweep(sub) };
    if swept.is_fatal() {
        // SAFETY: as above.
        let diagnostics = unsafe { crate::validate::validate_graph(sub) };
        // SAFETY: the topology pointer was armed at dispatch and its
        // storage is kept alive by the executor's `running` registry.
        let topo_ptr = unsafe { *(*node).state.topology.get() };
        // SAFETY: `topo_ptr` is live (see above); `record_error` is
        // internally synchronized.
        unsafe { (*topo_ptr).record_error(RunError::InvalidGraph(diagnostics)) };
        return false;
    }
    // SAFETY: armed at dispatch, kept alive by `running` (see above).
    let topo_ptr = unsafe { *(*node).state.topology.get() };
    // The topology must know about the children before any of them can
    // finish, otherwise `alive` could hit zero early.
    //
    // SAFETY: `topo_ptr` is live; `alive` is an atomic.
    unsafe { (*topo_ptr).alive.fetch_add(sub.len(), Ordering::Relaxed) };
    if !detached {
        // +1 sentinel held by the parent until spawning finishes; prevents
        // the children from completing the parent while we still arm their
        // siblings.
        //
        // SAFETY: `node` is ours (executing worker); `nested` is atomic.
        unsafe { (*node).state.nested.store(sub.len() + 1, Ordering::Relaxed) };
    }
    let parent: RawNode = if detached { std::ptr::null_mut() } else { node };
    for child in sub.iter_mut() {
        // SAFETY: `child` is a node owned by the subgraph; it has not
        // been scheduled yet, so we have exclusive access.
        unsafe { child.rearm(topo_ptr, parent) };
    }
    for &source in &swept.sources {
        // SAFETY: a source is armed (join counter = in-degree = 0) and
        // its topology alive.
        unsafe { schedule(inner, ctx, source as RawNode) };
    }
    !detached
}

/// Completion bookkeeping: release successors, count down the topology,
/// and propagate joined-subflow completion to the parent.
///
/// # Safety
/// Called exactly once per node, by the worker that finished it (or, for a
/// parent with a joined subflow, by the worker that finished its last
/// child).
unsafe fn complete(inner: &Inner, ctx: &mut WorkerCtx, node: RawNode) {
    // SAFETY: per this function's contract the node is finished and owned
    // by us; its topology/parent pointers were armed before it could run,
    // and their storage outlives the topology, which `inner.running`
    // keeps alive until the last node (at least until this call returns).
    let topo_ptr = unsafe { *(*node).state.topology.get() };
    // SAFETY: same contract; `parent` was armed at spawn time.
    let parent = unsafe { *(*node).state.parent.get() };
    {
        // SAFETY: successors are frozen after the build/spawn phase.
        let succs = unsafe { (*node).structure.successors.get() };
        for &s in succs.iter() {
            // ORDERING: AcqRel — each predecessor Releases its task's
            // effects; the zero-crossing Acquires them all, so `s` runs
            // after every dependency in the happens-before order.
            // SAFETY: `s` targets a live node of the same topology;
            // `join_counter` is atomic.
            if unsafe { (*s).state.join_counter.fetch_sub(1, Ordering::AcqRel) } == 1 {
                // SAFETY: the zero-crossing arms `s`; it happened exactly
                // once, so we are its unique scheduler.
                unsafe { schedule(inner, ctx, s) };
            }
        }
    }
    // ORDERING: AcqRel — the finalizing zero-crossing must Acquire every
    // node's completion writes before tearing the iteration down.
    // SAFETY: `topo_ptr` is live until the last `alive` decrement — which
    // is at earliest this one.
    if unsafe { (*topo_ptr).alive.fetch_sub(1, Ordering::AcqRel) } == 1 {
        // Only a node with no parent can be the last alive: a parent's own
        // completion is always pending while any child lives.
        debug_assert!(parent.is_null());
        finalize(inner, topo_ptr);
        return;
    }
    // ORDERING: AcqRel — the last joined child's effects are Acquired
    // before the parent completes (mirror of the sentinel drop above).
    // SAFETY: a non-null parent is a live node awaiting its joined
    // children; `nested` is atomic.
    if !parent.is_null() && unsafe { (*parent).state.nested.fetch_sub(1, Ordering::AcqRel) } == 1 {
        // SAFETY: the last joined child completes the parent exactly once.
        unsafe { complete(inner, ctx, parent) };
    }
}

/// Ends the iteration whose last node just completed, then hands the
/// driver role back to the batch state machine — which either re-arms and
/// re-dispatches the same topology for its next iteration or retires the
/// keep-alive once every queued batch has resolved.
fn finalize(inner: &Inner, topo_ptr: *const Topology) {
    // SAFETY: the keep-alive registry holds the topology until `advance`
    // transitions it to idle (inside `advance_topology` below), so the
    // pointer is live for this whole call.
    let topo = unsafe { &*topo_ptr };
    notify_observers(inner, |ob| ob.on_topology_stop(topo.iteration_info()));
    advance_topology(inner, topo, true);
}

// ---------------------------------------------------------------------------
// Keep-alive registry
// ---------------------------------------------------------------------------

/// One driver claim's keep-alive: the `Arc` pinning the topology's
/// storage, and the tenant (if any) that gets the completion credit and
/// the admission slot back when that stint finalizes.
type Registration = (Arc<Topology>, Option<Arc<TenantState>>);

/// Stints currently executing: a slab with one slot per *registration*
/// (a resubmission racing finalize briefly gives one topology two), the
/// slot index remembered by the topology itself, so register and remove
/// are O(1) with no hashing and, once the slab is warm, no allocation.
/// The `closing` flag lives inside so shutdown and registration serialize
/// on one lock: a submission either registers before `Executor::drop`
/// starts waiting for emptiness or observes the flag and is rejected.
#[derive(Default)]
pub(crate) struct RunningRegistry {
    /// Authoritative shutdown flag (mirrored by `Inner::closing` for
    /// lock-free fast paths).
    pub(crate) closing: bool,
    slots: Vec<Option<Registration>>,
    /// Indices of the vacant `slots`.
    free: Vec<usize>,
}

impl RunningRegistry {
    /// Adds a keep-alive registration for `topo`, crediting `tenant` (if
    /// any) when the stint finalizes; returns its slot.
    fn register(&mut self, topo: &Arc<Topology>, tenant: Option<Arc<TenantState>>) -> usize {
        let registration = Some((Arc::clone(topo), tenant));
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = registration;
                slot
            }
            None => {
                self.slots.push(registration);
                self.slots.len() - 1
            }
        }
    }

    /// Vacates `slot` (the stint now finalizing) and hands back what it
    /// held, for the caller to drop outside the registry lock.
    fn remove(&mut self, slot: usize) -> Registration {
        let registration = self.slots[slot].take().expect("stint is registered");
        self.free.push(slot);
        registration
    }

    /// True when nothing is registered (executor quiescent).
    pub(crate) fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }

    /// Number of distinct topologies currently registered.
    pub(crate) fn len(&self) -> usize {
        self.distinct().len()
    }

    /// Snapshot of the registered topologies (for introspection), each
    /// once however many registrations it holds.
    pub(crate) fn topologies(&self) -> Vec<Arc<Topology>> {
        self.distinct().into_iter().cloned().collect()
    }

    fn distinct(&self) -> Vec<&Arc<Topology>> {
        let mut live: Vec<&Arc<Topology>> = self.slots.iter().flatten().map(|r| &r.0).collect();
        live.sort_unstable_by_key(|t| t.uid());
        live.dedup_by_key(|t| t.uid());
        live
    }
}

// ---------------------------------------------------------------------------
// The front door's shared words
// ---------------------------------------------------------------------------

/// ORDERING: SeqCst on the front door's Dekker pair — the submitter's
/// `backlog` increment then `inflight` load, the finalizer's `inflight`
/// decrement then `backlog` load — puts all four in one total order, so
/// when a run arrives at a full budget while a slot is being freed,
/// either the submitter sees the slot or the finalizer sees the run. The
/// `rustflow_weaken` cfg relaxes the pair so the model checker can show
/// the stranded run it permits (see crates/check).
const FRONTDOOR_DEKKER: Ordering = if cfg!(rustflow_weaken = "frontdoor_backlog") {
    Ordering::Relaxed
} else {
    Ordering::SeqCst
};

/// What a submitter and a finalizing worker share in place of the `qos`
/// lock: the in-flight budget and the number of runs queued across all
/// tenants. A finalizer frees its slot and pumps only if something is
/// queued; a submitter queues its run and dispatches only if a slot is
/// free. (Public only for the model-checker tests via `check_internals`.)
pub struct FrontDoorBudget {
    max: usize,
    /// Tenant stints dispatched but not yet finalized, at most `max`.
    /// Charged under the `qos` lock, released without it.
    inflight: AtomicUsize,
    /// Runs sitting in tenant queues; moved only under a queue lock.
    backlog: AtomicUsize,
}

impl FrontDoorBudget {
    /// A budget of `max` in-flight stints, none in flight, none queued.
    pub fn new(max: usize) -> FrontDoorBudget {
        FrontDoorBudget {
            max,
            inflight: AtomicUsize::new(0),
            backlog: AtomicUsize::new(0),
        }
    }

    /// Submitter, with the push: one more run is queued.
    pub fn queued(&self) {
        self.backlog.fetch_add(1, FRONTDOOR_DEKKER);
    }

    /// With the pop, shed or drain: `n` runs left the queues. Relaxed: a
    /// finalizer that still reads the larger count pumps once for nothing.
    pub fn unqueued(&self, n: usize) {
        self.backlog.fetch_sub(n, Ordering::Relaxed);
    }

    /// Pumper, under the `qos` lock: may one more stint be dispatched?
    pub fn has_room(&self) -> bool {
        self.inflight.load(FRONTDOOR_DEKKER) < self.max
    }

    /// Pumper, under the `qos` lock and after [`has_room`](Self::has_room):
    /// takes the slot. Only pumpers add and they are serialized, so the
    /// check cannot be overtaken.
    pub fn charge(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Finalizer: frees a slot; `true` when runs are queued, i.e. the
    /// caller must pump.
    pub fn release(&self) -> bool {
        self.inflight.fetch_sub(1, FRONTDOOR_DEKKER);
        self.backlog.load(FRONTDOOR_DEKKER) != 0
    }
}

// ---------------------------------------------------------------------------
// Tenants: per-client admission control + weighted fair queueing
// ---------------------------------------------------------------------------

/// Virtual-time fixed-point scale: a weight-1 tenant advances its clock by
/// `VT_SCALE` per dispatched topology, a weight-w tenant by `VT_SCALE/w`,
/// so over any busy interval tenants dispatch in proportion to weight.
const VT_SCALE: u64 = 1 << 20;

/// A run waiting in a tenant queue for a dispatch slot.
pub(crate) struct QueuedRun {
    topo: Arc<Topology>,
    cond: RunCondition,
    promise: Promise<RunResult>,
    /// [`crate::clock::now_us`] at admission into the tenant queue
    /// (`.max(1)`); `0` when the latency pipeline is off.
    submit_us: u64,
    /// Stamped by [`next_dispatch`] when the fair-queue pump pops the
    /// run; `0` until then (and when the pipeline is off).
    admitted_us: u64,
    /// [`crate::clock::now_us`] at enqueue, always stamped (unlike
    /// `submit_us` it does not depend on the latency pipeline): the
    /// shed path reports time spent queued from it.
    enqueued_us: u64,
    /// Absolute expiry ([`crate::clock::now_us`] domain) past which the
    /// dispatcher sheds this run instead of dispatching it; `0` = none.
    deadline_us: u64,
    /// This run is the circuit breaker's half-open probe; shedding or
    /// shutdown-draining it must release the probe claim so the breaker
    /// can admit another.
    probe: bool,
}

/// Shared per-tenant state: the bounded submission queue plus the fair
/// queueing clock and the counters exported as [`TenantStats`].
///
/// Field order is layout (`repr(C)`): grouped by which side of a served
/// run writes them, each group on its own cache lines, so the submitting
/// client and the finalizing worker stop invalidating each other's lines
/// on every run.
#[repr(C)]
pub(crate) struct TenantState {
    // ---- fixed at creation; read by both sides ----
    /// Stable 1-based id; `0` in trace output means "untenanted".
    pub(crate) id: u64,
    pub(crate) name: String,
    weight: u32,
    max_queue: usize,
    /// The tenant's latency objective, if any ([`TenantQos::slo`]).
    slo: Option<SloSpec>,
    /// Default per-run deadline, if any ([`TenantQos::deadline`]).
    deadline: Option<Duration>,
    /// Retry budget, if any ([`TenantQos::retry_budget`]).
    retry_budget: Option<RetryBudget>,
    /// Circuit-breaker parameters, if any ([`TenantQos::breaker`]).
    breaker: Option<BreakerSpec>,

    // ---- written on the way in: submit, admission, dispatch ----
    _door: LineBreak,
    queue: Mutex<VecDeque<QueuedRun>>,
    /// Signalled when queue space frees up (dispatch) or admission closes
    /// (shutdown); blocking submitters wait on it.
    space: Condvar,
    /// `queue.len()`, moved under the queue lock with every push and pop,
    /// so the fair-queue scan can skip an empty tenant without locking it.
    queued: AtomicUsize,
    /// Weighted-fair-queueing virtual finish time. Only mutated under the
    /// executor's `qos` lock; atomic so snapshots read it lock-free.
    vtime: AtomicU64,
    submitted: AtomicU64,
    dispatched: AtomicU64,
    coalesced: AtomicU64,
    rejected_saturated: AtomicU64,
    rejected_shutdown: AtomicU64,
    /// Runs rejected at submit time because the expected queue wait
    /// already exceeded their deadline ([`AdmissionError::DeadlineInfeasible`]).
    rejected_infeasible: AtomicU64,
    /// Runs fast-rejected by an open circuit breaker
    /// ([`AdmissionError::BreakerOpen`]).
    rejected_breaker: AtomicU64,
    /// Queued runs dropped by the dispatcher — deadline expired in the
    /// queue, or the overload controller shed them
    /// ([`RunError::Shed`](crate::RunError)).
    shed: AtomicU64,

    // ---- written by both: up at dispatch, down at finalize ----
    _both: LineBreak,
    inflight: AtomicU64,

    // ---- written on the way out: finalize, breaker, retries ----
    _done: LineBreak,
    completed: AtomicU64,
    /// Retries that the retry budget refused (the task failed instead).
    retry_budget_exhausted: AtomicU64,
    /// Retries charged against the budget so far (monotone; allowance is
    /// recomputed from `completed`, so no refill bookkeeping is needed).
    retry_spent: AtomicU64,
    /// Consecutive failed runs; reset by any non-failed completion.
    consecutive_failures: AtomicU64,
    /// Circuit-breaker state word: [`BREAKER_CLOSED`]/[`BREAKER_OPEN`]/
    /// [`BREAKER_HALF_OPEN`]. All transitions are CASes, so every
    /// transition has exactly one witness (which emits the diagnostic).
    breaker_word: AtomicU64,
    /// When the current open window ends ([`crate::clock::now_us`]
    /// domain). Written before the word transitions to open.
    breaker_open_until_us: AtomicU64,
    /// A half-open probe has been admitted and not yet resolved.
    probe_inflight: AtomicBool,
    /// Lock-free latency shards, one per [`LATENCY_PHASES`] entry.
    /// Recorded by the finalizing driver (a few relaxed `fetch_add`s per
    /// run), merged only at scrape time. ~4.2 KiB per tenant
    /// (5 phases × 105 buckets × 8 B).
    latency: [AtomicHistogram; LATENCY_PHASES.len()],
}

/// Phase labels of the per-tenant latency decomposition, in the order of
/// [`TenantState::latency`]: admission wait (submit → admitted), queue
/// wait (admitted → dispatched), dispatch-to-first-task, execution
/// (first task → finalize), and end-to-end (submit → finalize).
pub(crate) const LATENCY_PHASES: [&str; 5] = ["admission", "queue", "dispatch", "exec", "e2e"];

/// Index of the end-to-end phase in [`LATENCY_PHASES`].
pub(crate) const PHASE_E2E: usize = 4;

impl TenantState {
    fn new(id: u64, name: String, qos: TenantQos) -> TenantState {
        TenantState {
            id,
            name,
            weight: qos.weight.max(1),
            max_queue: qos.max_queued.max(1),
            slo: qos.slo,
            deadline: qos.deadline,
            retry_budget: qos.retry_budget,
            breaker: qos.breaker,
            _door: LineBreak,
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            queued: AtomicUsize::new(0),
            vtime: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected_saturated: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            rejected_infeasible: AtomicU64::new(0),
            rejected_breaker: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            _both: LineBreak,
            inflight: AtomicU64::new(0),
            _done: LineBreak,
            completed: AtomicU64::new(0),
            retry_budget_exhausted: AtomicU64::new(0),
            retry_spent: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            breaker_word: AtomicU64::new(BREAKER_CLOSED),
            breaker_open_until_us: AtomicU64::new(0),
            probe_inflight: AtomicBool::new(false),
            latency: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// One run entered the queue; call under the queue lock, after the
    /// push. `queued` first: a finalizer that sees the backlog through the
    /// budget's SeqCst pair then also sees which tenant holds it.
    fn note_queued(&self, budget: &FrontDoorBudget) {
        self.queued.fetch_add(1, Ordering::Relaxed);
        budget.queued();
    }

    /// `n` runs left the queue (dispatch, shed, shutdown drain); call
    /// under the queue lock, with the pops.
    fn note_unqueued(&self, budget: &FrontDoorBudget, n: usize) {
        self.queued.fetch_sub(n, Ordering::Relaxed);
        budget.unqueued(n);
    }

    /// Point-in-time snapshot of this tenant's counters and gauges.
    ///
    /// Holds the queue lock across every read: all ledger mutations
    /// (submit, reject, shed, dispatch) happen under the same lock, so a
    /// scraper never observes a transiently unbalanced ledger — `queued`
    /// and `dispatched` move together with the counters. The only
    /// exceptions are the shutdown races documented in
    /// [`dispatch_tenant_run`], and `completed`/`in_flight`, which by
    /// design trail `dispatched` while work is genuinely in flight.
    fn snapshot(&self) -> TenantStats {
        let q = self.queue.lock();
        TenantStats {
            name: self.name.clone(),
            weight: self.weight,
            queued: q.len() as u64,
            in_flight: self.inflight.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_saturated: self.rejected_saturated.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            rejected_infeasible: self.rejected_infeasible.load(Ordering::Relaxed),
            rejected_breaker: self.rejected_breaker.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retry_budget_exhausted: self.retry_budget_exhausted.load(Ordering::Relaxed),
            consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
            breaker_state: self.breaker_word.load(Ordering::Relaxed),
        }
    }

    /// Expected tenant-queue wait in microseconds, interpolated from the
    /// live admission-phase histogram (p50 of submit → admitted). `None`
    /// until at least [`ESTIMATE_MIN_SAMPLES`] runs have been recorded:
    /// the cold start admits optimistically rather than guessing.
    fn estimated_queue_wait_us(&self) -> Option<u64> {
        let h = self.latency[0].snapshot();
        if h.count() < ESTIMATE_MIN_SAMPLES {
            return None;
        }
        Some(h.percentile(0.50) as u64)
    }

    /// Circuit-breaker admission check. `Ok(probe)` admits (with `probe`
    /// set when this run is the half-open probe); `Err(retry_after)`
    /// fast-rejects. Lock-free; callers may hold the queue lock. A state
    /// transition taken here (open → half-open) is returned through
    /// `transition` for the caller to emit *after* dropping its locks.
    fn breaker_admit(
        &self,
        transition: &mut Option<(BreakerState, BreakerState)>,
    ) -> Result<bool, Duration> {
        let Some(spec) = self.breaker else {
            return Ok(false);
        };
        loop {
            // ORDERING: Acquire pairs with the Release CAS in
            // `note_outcome` so an observed `open` word comes with the
            // `breaker_open_until_us` write that preceded it.
            match self.breaker_word.load(Ordering::Acquire) {
                BREAKER_OPEN => {
                    let until = self.breaker_open_until_us.load(Ordering::Relaxed);
                    let now_us = crate::clock::now_us().max(1);
                    if now_us < until {
                        return Err(Duration::from_micros(until - now_us));
                    }
                    // Open window elapsed: race to admit the probe. The
                    // winner's run decides the breaker's fate; losers
                    // re-read the new state.
                    // ORDERING: AcqRel — the winner owns the probe slot
                    // (store below) before any other submitter can see
                    // `half-open`.
                    if self
                        .breaker_word
                        .compare_exchange(
                            BREAKER_OPEN,
                            BREAKER_HALF_OPEN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        self.probe_inflight.store(true, Ordering::Relaxed);
                        *transition = Some((BreakerState::Open, BreakerState::HalfOpen));
                        return Ok(true);
                    }
                }
                BREAKER_HALF_OPEN => {
                    // Exactly one probe at a time; everyone else waits
                    // out roughly another open window.
                    if !self.probe_inflight.swap(true, Ordering::Relaxed) {
                        return Ok(true);
                    }
                    return Err(spec.open_for);
                }
                _ => return Ok(false),
            }
        }
    }

    /// Releases the half-open probe claim when a probe run is resolved
    /// without executing (shed, shutdown-drained, or rejected later in
    /// admission). Benign race: if the breaker has since closed and
    /// reopened, this may let one extra probe through — one stray run,
    /// never a stuck-open breaker.
    fn release_probe(&self, probe: bool) {
        if probe {
            self.probe_inflight.store(false, Ordering::Relaxed);
        }
    }

    /// Folds a finished run's outcome into the breaker state machine.
    /// Returns the transition this outcome caused, if any, for the
    /// caller to emit (no locks are held here).
    fn note_outcome(&self, failed: bool) -> Option<(BreakerState, BreakerState)> {
        let spec = self.breaker?;
        if failed {
            let fails = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
            let now_us = crate::clock::now_us().max(1);
            // Arm the open window *before* any CAS can expose the open
            // state; a stale overwrite by a concurrent failure only
            // nudges the window, never unleashes admission early.
            self.breaker_open_until_us.store(
                now_us.saturating_add(spec.open_for.as_micros() as u64),
                Ordering::Relaxed,
            );
            // A failure while half-open (the probe, or a straggler
            // admitted before the breaker opened) re-opens immediately.
            // ORDERING: Release on success publishes the window store
            // above to `breaker_admit`'s Acquire load.
            if self
                .breaker_word
                .compare_exchange(
                    BREAKER_HALF_OPEN,
                    BREAKER_OPEN,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                self.probe_inflight.store(false, Ordering::Relaxed);
                return Some((BreakerState::HalfOpen, BreakerState::Open));
            }
            if fails >= u64::from(spec.failures.max(1)) {
                // ORDERING: Release — as above.
                if self
                    .breaker_word
                    .compare_exchange(
                        BREAKER_CLOSED,
                        BREAKER_OPEN,
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return Some((BreakerState::Closed, BreakerState::Open));
                }
            }
            None
        } else {
            self.consecutive_failures.store(0, Ordering::Relaxed);
            // Probe success (or a healthy straggler): close fully.
            // ORDERING: Release orders the failure-streak reset above
            // before the closed word becomes visible.
            if self
                .breaker_word
                .compare_exchange(
                    BREAKER_HALF_OPEN,
                    BREAKER_CLOSED,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                self.probe_inflight.store(false, Ordering::Relaxed);
                return Some((BreakerState::HalfOpen, BreakerState::Closed));
            }
            None
        }
    }

    /// Charges one retry against the tenant's budget: allowance is
    /// `floor + per_mille/1000 × completed`, spending is monotone.
    /// Returns whether the retry may proceed.
    fn charge_retry(&self) -> bool {
        let Some(budget) = self.retry_budget else {
            return true;
        };
        let allowance = budget.floor.saturating_add(
            self.completed.load(Ordering::Relaxed) * u64::from(budget.per_mille) / 1000,
        );
        let spent = self.retry_spent.fetch_add(1, Ordering::Relaxed);
        if spent < allowance {
            true
        } else {
            // Over-claimed: hand the token back. Racing claimants may
            // transiently see a pessimistic allowance — retries degrade
            // to failures, never the reverse.
            self.retry_spent.fetch_sub(1, Ordering::Relaxed);
            self.retry_budget_exhausted.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Minimum admission-phase samples before the deadline-feasibility
/// estimate trusts the histogram ([`TenantState::estimated_queue_wait_us`]).
const ESTIMATE_MIN_SAMPLES: u64 = 8;

/// The tenant control plane, guarded by `Inner::qos`: the tenant list and
/// the weighted-fair-queueing dispatch state.
#[derive(Default)]
pub(crate) struct QosState {
    pub(crate) tenants: Vec<Arc<TenantState>>,
    /// The fair queue's notion of "now": the virtual time of the last
    /// dispatch. A tenant idle for a while resumes from here rather than
    /// from its stale clock, so sleeping never banks credit.
    vnow: u64,
}

/// A client handle for one tenant of an [`Executor`] — the unit of
/// isolation for the multi-tenant submission path.
///
/// Obtained from [`Executor::tenant`] / [`Executor::tenant_with`]; cheap
/// to clone and safe to share across threads. Submissions through a
/// tenant ([`Taskflow::run_on`](crate::Taskflow::run_on),
/// [`Taskflow::try_run_on`](crate::Taskflow::try_run_on)) pass admission
/// control (bounded per-tenant queue) and weighted fair queueing before
/// they reach the executor's injector.
#[derive(Clone)]
pub struct Tenant {
    pub(crate) state: Arc<TenantState>,
    pub(crate) inner: Arc<Inner>,
}

impl Tenant {
    /// The tenant's name, as passed to [`Executor::tenant`].
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// The tenant's stable 1-based id within its executor — the id trace
    /// output and [`ChaosSpec::for_tenant`](crate::chaos::ChaosSpec::for_tenant)
    /// scoping use (`0` there means "untenanted").
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The tenant's fair-queueing weight.
    pub fn weight(&self) -> u32 {
        self.state.weight
    }

    /// The tenant's admission bound (maximum queued submissions).
    pub fn max_queued(&self) -> usize {
        self.state.max_queue
    }

    /// Point-in-time snapshot of this tenant's counters.
    pub fn stats(&self) -> TenantStats {
        self.state.snapshot()
    }

    /// The tenant's latency objective, if one was set at creation
    /// ([`TenantQos::slo`]).
    pub fn slo(&self) -> Option<SloSpec> {
        self.state.slo
    }

    /// The tenant's default run deadline, if one was set at creation
    /// ([`TenantQos::deadline`]).
    pub fn deadline(&self) -> Option<Duration> {
        self.state.deadline
    }

    /// Current state of the tenant's circuit breaker. Always
    /// [`BreakerState::Closed`] when no breaker was configured.
    pub fn breaker_state(&self) -> BreakerState {
        BreakerState::from_word(self.state.breaker_word.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.state.name)
            .field("weight", &self.state.weight)
            .field("max_queued", &self.state.max_queue)
            .finish()
    }
}

/// Dispatches queued tenant runs while the admission budget has room:
/// repeatedly picks the nonempty tenant with the smallest virtual time
/// (weighted fair queueing) and starts its oldest queued run.
///
/// Called after every tenant submission, and after a tenant topology
/// finalizes *if anything is queued* ([`FrontDoorBudget::release`]), so
/// the budget is always refilled promptly. Runs on client and worker
/// threads alike; all steps are non-blocking.
fn pump_tenants(inner: &Inner) {
    let mut shed: Vec<(Arc<TenantState>, QueuedRun, u64)> = Vec::new();
    loop {
        let next = next_dispatch(inner, &mut shed);
        // Resolve shed runs *after* the qos/queue locks drop — promise
        // resolution can run arbitrary waker code (same discipline as
        // `Executor::close`).
        for (tenant, run, queued_for_us) in shed.drain(..) {
            resolve_shed(&tenant, run, queued_for_us);
        }
        let Some((tenant, run)) = next else {
            return;
        };
        dispatch_tenant_run(inner, tenant, run);
    }
}

/// Resolves one shed run: releases a probe claim it may hold and fails
/// its promise with [`RunError::Shed`]. The run never reached
/// `Topology::enqueue`, so the topology stays idle/claimable — re-arming
/// after a shed needs no cleanup.
fn resolve_shed(tenant: &TenantState, run: QueuedRun, queued_for_us: u64) {
    tenant.release_probe(run.probe);
    run.promise.set(Err(RunError::Shed {
        tenant: tenant.name.clone(),
        queued_for: Duration::from_micros(queued_for_us),
    }));
}

/// Picks the next run to dispatch under weighted fair queueing, or `None`
/// when the budget is exhausted or every tenant queue is empty. On
/// success the admission slot is already charged (`Inner::budget`) and the
/// tenant's `dispatched` counter bumped (under the queue lock, atomically
/// with the pop, so snapshots never see the run in neither bucket).
///
/// Queued runs whose deadline has already expired are shed instead of
/// dispatched: counted under the queue lock, pushed onto `shed` for the
/// caller to resolve outside the locks.
fn next_dispatch(
    inner: &Inner,
    shed: &mut Vec<(Arc<TenantState>, QueuedRun, u64)>,
) -> Option<(Arc<TenantState>, QueuedRun)> {
    let mut qos = inner.qos.lock();
    'scan: loop {
        if !inner.budget.has_room() {
            return None;
        }
        // Min-virtual-time scan. Tenant counts are small (a handful of
        // clients); the scan under the qos lock is cheaper than a heap
        // that would need rebalancing on every idle/busy transition.
        let vnow = qos.vnow;
        let mut best: Option<(usize, u64)> = None;
        for (i, t) in qos.tenants.iter().enumerate() {
            // The queue's length word, not its lock. A pumping submitter
            // reads its own push; a pumping finalizer got here through
            // the budget's SeqCst pair, which the count was bumped before.
            if t.queued.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // An idle tenant's stale clock fast-forwards to `vnow`:
            // fairness applies to backlogged tenants, idling banks no
            // credit.
            let vt = t.vtime.load(Ordering::Relaxed).max(vnow);
            if best.is_none_or(|(_, b)| vt < b) {
                best = Some((i, vt));
            }
        }
        let (idx, vt) = best?;
        let tenant = Arc::clone(&qos.tenants[idx]);
        let run = {
            // Lock order: qos → tenant.queue (here only; never the
            // inverse).
            let mut q = tenant.queue.lock();
            let now = crate::clock::now_us().max(1);
            loop {
                let Some(mut run) = q.pop_front() else {
                    // The whole queue was doomed work (or a shed or a
                    // shutdown drain emptied it since the scan); rescan —
                    // another tenant may still have dispatchable runs.
                    continue 'scan;
                };
                tenant.note_unqueued(&inner.budget, 1);
                if run.deadline_us != 0 && now >= run.deadline_us {
                    // Shed: the run could not be dispatched before its
                    // deadline; dispatching it now would burn worker
                    // time on work whose client has given up.
                    tenant.shed.fetch_add(1, Ordering::Relaxed);
                    tenant.space.notify_one();
                    let queued_for_us = now.saturating_sub(run.enqueued_us);
                    shed.push((Arc::clone(&tenant), run, queued_for_us));
                    continue;
                }
                if run.submit_us != 0 {
                    // Admission stamp: the fair-queue pump just released
                    // this run from the tenant queue (end of the
                    // admission-wait phase).
                    run.admitted_us = now;
                }
                // Dispatched the moment it leaves the queue: same lock
                // hold as the pop, so `queued + dispatched` is invariant
                // across the handoff (see `TenantState::snapshot`).
                tenant.dispatched.fetch_add(1, Ordering::Relaxed);
                // A blocking submitter may be waiting for exactly this
                // slot.
                tenant.space.notify_one();
                break run;
            }
        };
        qos.vnow = vt;
        tenant
            .vtime
            .store(vt + VT_SCALE / u64::from(tenant.weight), Ordering::Relaxed);
        inner.budget.charge();
        return Some((tenant, run));
    }
}

/// Starts a run handed out by [`next_dispatch`]: registers the keep-alive
/// (or rejects, if shutdown began since the pop) and drives the first
/// iteration when this run claims the topology's driver role.
fn dispatch_tenant_run(inner: &Inner, tenant: Arc<TenantState>, run: QueuedRun) {
    let QueuedRun {
        topo,
        cond,
        promise,
        submit_us,
        admitted_us,
        enqueued_us: _,
        deadline_us: _,
        probe,
    } = run;
    let claimed = {
        let mut reg = inner.running.lock();
        if reg.closing {
            drop(reg);
            // Hands the slot back; the pump loop that called us looks at
            // the queues again itself, so the answer is not needed.
            let _ = inner.budget.release();
            // `next_dispatch` already counted this run dispatched (under
            // the queue lock); move it to the rejected bucket. The two
            // steps are not under one lock, so a scraper racing this
            // narrow shutdown window can see the run double-counted for
            // an instant — over-counted, never lost.
            tenant.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            tenant.dispatched.fetch_sub(1, Ordering::Relaxed);
            tenant.release_probe(probe);
            promise.set(Err(RunError::Rejected(AdmissionError::ShuttingDown)));
            return;
        }
        let claimed = topo.enqueue(PendingRun { cond, promise });
        if claimed {
            topo.set_tenant(tenant.id);
            topo.set_registration(reg.register(&topo, Some(Arc::clone(&tenant))));
        }
        claimed
    };
    if claimed {
        // Stamp the stint's lifecycle and arm the first-task latch before
        // the first iteration publishes: the claiming dispatch has
        // exclusive access to the stamps until `begin_iteration` makes
        // the sources visible (the injector's Release publish carries
        // them to workers). Coalesced dispatches below ride the incumbent
        // driver's stint and are never recorded.
        if submit_us != 0 {
            topo.stamps
                .arm(submit_us, admitted_us, crate::clock::now_us().max(1));
        } else {
            topo.stamps.clear();
        }
        tenant.inflight.fetch_add(1, Ordering::Relaxed);
        advance_topology(inner, &topo, false);
    } else {
        // The topology is already running under another registration; the
        // batch rides the incumbent driver's pending queue and resolves
        // with it. The admission slot frees immediately — this dispatch
        // put no new topology in flight. A probe claim is handed back:
        // the incumbent's outcome (possibly another tenant's) must not
        // be this breaker's verdict, and holding the claim with no stint
        // of our own to clear it would wedge the breaker half-open.
        tenant.release_probe(probe);
        tenant.coalesced.fetch_add(1, Ordering::Relaxed);
        let _ = inner.budget.release();
    }
}

#[cfg(test)]
mod tests;
