//! The executor core: the shared state every layer hangs off ([`Inner`]),
//! the public [`Executor`] API, and a run's life between its claim
//! ([`Inner::claim`], [`RunningRegistry`]) and its finalize
//! ([`advance_topology`]). Around it, one job per module:
//! [`crate::scheduler`] is Algorithm 1 (§III-E), [`crate::frontdoor`] the
//! tenant submission path, [`crate::resilience`] the tenant QoS specs and
//! what honours them (DESIGN.md §7 has the map). The scheduler knows
//! neither of the other two; it comes back here at exactly two points,
//! [`advance_topology`] (an iteration ended) and [`Inner::may_retry`] (a
//! failed task has retries left), and this module forwards what concerns
//! a tenant to the front door.
//!
//! An executor is shareable between any number of taskflows
//! (`Arc<Executor>`), mirroring the paper's `std::shared_ptr`-managed
//! executor that avoids thread over-subscription in modular applications.

use crate::error::{AdmissionError, RunError, RunResult};
use crate::frontdoor::{self, FrontDoorBudget, QosState, Tenant, TenantState};
use crate::future::SharedFuture;
use crate::graph::RawNode;
use crate::injector::{self, Injector};
use crate::label::TaskLabel;
use crate::notifier::Notifier;
use crate::observer::{ExecutorObserver, SchedEventKind, DISPATCH_LANE};
use crate::resilience::TenantQos;
use crate::scheduler::{guest_loop, schedule, worker_loop, WorkerCtx, WorkerShared};
use crate::stats::{ExecutorStats, WorkerStats};
use crate::sync::{fence, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, RwLock};
use crate::topology::{Advance, PendingRun, RunCondition, Topology};
use crate::wsq;
use crate::{IntrospectConfig, IntrospectHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Builds an [`Executor`] with custom settings.
///
/// ```
/// let ex = rustflow::ExecutorBuilder::new().workers(2).build();
/// assert_eq!(ex.num_workers(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ExecutorBuilder {
    workers: Option<usize>,
    /// `None` (the default) never queues a tenant submission.
    max_inflight: Option<usize>,
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

    /// Admission budget for tenant submissions: at most `n` tenant
    /// topologies may be dispatched-but-not-finalized at once; further
    /// submissions wait in their tenant's bounded queue and are released
    /// by weighted fair queueing. Defaults to unlimited (submissions
    /// dispatch immediately and tenant queues never fill).
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = Some(n.max(1));
        self
    }

    /// Builds the executor and spawns its worker threads.
    pub fn build(self) -> Arc<Executor> {
        let workers = self.workers.unwrap_or_else(default_parallelism);
        Executor::with_budget(workers, self.max_inflight.unwrap_or(usize::MAX))
    }
}

/// Guest seats per executor: how many threads at once may run a graph they
/// wait on ([`Executor::run_topology`]). One serves a client in
/// `wait_for_all`, the second a task that itself waits on a nested
/// taskflow; a waiter that finds none free blocks instead.
const GUEST_SEATS: usize = 2;

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Zero-sized, line-aligned marker. In a `#[repr(C)]` struct the field
/// declared after it starts on a fresh cache line, so fields can be grouped
/// by *who writes them* without touching a single access path. 128 bytes,
/// not 64: x86-64's adjacent-line prefetcher pulls lines in pairs.
#[derive(Debug, Default, Clone, Copy)]
#[repr(align(128))]
pub(crate) struct LineBreak;

/// Field order is layout (`repr(C)`): grouped by who writes, one group per
/// cache-line pair (see [`LineBreak`]).
#[repr(C)]
pub(crate) struct Inner {
    // ---- set at construction or rarely; read by every thread ----
    /// One entry per lane: the worker threads', then the guest seats'.
    /// Steal rounds and the park re-check scan all of them alike.
    pub(crate) shareds: Box<[WorkerShared]>,
    /// How many of `shareds` belong to worker threads (the leading ones).
    pub(crate) num_workers: usize,
    /// The shared monotonic clock origin ([`crate::clock::origin`]),
    /// latched here so every timestamp this executor emits — ring events,
    /// flight-recorder windows, `/trace` output, profile spans — lives in
    /// one time domain (`Executor::now_us`).
    pub(crate) epoch: Instant,
    pub(crate) stop: AtomicBool,
    /// Fast-path mirror of [`RunningRegistry::closing`]: lets submission
    /// paths reject without the registry lock. The registry bool (set
    /// first, under its lock) is the authoritative race-free check.
    pub(crate) closing: AtomicBool,
    /// `true` while `observers` is non-empty: all that [`emit`] reads when
    /// nobody listens.
    has_observers: AtomicBool,
    /// Every installed observer, each with whether
    /// [`Executor::remove_observers`] takes it off again: what `observe`
    /// installed is removable, introspection's own observer is not.
    observers: RwLock<Vec<(Arc<dyn ExecutorObserver>, bool)>>,
    /// Seeded sanitizer bug: a cell written plainly by `execute` and read
    /// plainly by parking workers with no ordering between them — a true
    /// data race the happens-before detector must flag.
    #[cfg(rustflow_weaken = "seed_plain_race")]
    pub(crate) race_scratch: crate::sync_cell::SyncCell<u64>,
    // ---- the hand-over queue: clients push, workers pop ----
    _injector: LineBreak,
    /// External submission queue (dispatch pushes source tasks here). The
    /// ring carries served single-source runs and re-armed meshes; a wide
    /// one-shot graph's thousands of sources overflow into its spill.
    pub(crate) injector: Injector,
    // ---- written by workers around every steal round and park ----
    _workers: LineBreak,
    /// Workers currently inside a steal round. While any thief is active
    /// there is no need to wake another worker for a freshly pushed task —
    /// the spinning thief will find it (Cpp-Taskflow's notifier applies
    /// the same guard). Safe against lost wake-ups because a thief that
    /// gives up re-checks every queue under the notifier's Dekker
    /// protocol before parking.
    pub(crate) num_spinning: AtomicUsize,
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
    /// The free guest seats. A helping waiter pops one when it dispatches
    /// and pushes it back when it stops helping; the lock is the
    /// happens-before edge between two successive guests of one seat's
    /// deque owner half and cache slot.
    seats: Mutex<Vec<WorkerCtx>>,
    // ---- written on the way in: whoever pumps, straight-through clients ----
    _door: LineBreak,
    /// Tenant control plane: the tenant list. Taken by whoever pumps, and
    /// by nobody while nothing is queued (see [`FrontDoorBudget`]).
    pub(crate) qos: Mutex<QosState>,
    /// The fair queue's notion of "now": the virtual time of the latest
    /// dispatch, an atomic max. A tenant idle for a while resumes from
    /// here rather than from its stale clock, so sleeping never banks
    /// credit.
    pub(crate) vnow: AtomicU64,
    // ---- the two words submitter and finalizer share ----
    _budget: LineBreak,
    /// The in-flight budget and the count of queued runs: the two words a
    /// finalizing worker and a submitter share instead of `qos`.
    pub(crate) budget: FrontDoorBudget,
}

impl Inner {
    /// Snapshot of every lane's counters (workers, then guest seats).
    pub(crate) fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shareds.iter().map(|s| s.snapshot()).collect()
    }

    /// The one way a run becomes a topology's batch: under the registry
    /// lock, refuse it if shutdown has begun, else enqueue it, and if that
    /// claimed the idle topology's driver role (the run is then the
    /// current batch, with no queue in between), tag the stint with its
    /// tenant (`None` = untenanted) and register its keep-alive. The
    /// closing check and the enqueue-plus-register step share one lock
    /// hold, so `Executor::drop` (which sets the flag under the same lock
    /// before waiting for the registry to empty) can never observe
    /// emptiness while a submission is half-registered.
    pub(crate) fn claim(
        &self,
        topo: &Arc<Topology>,
        run: PendingRun,
        tenant: Option<&Arc<TenantState>>,
    ) -> Claim {
        let mut reg = self.running.lock();
        if reg.closing {
            return Claim::Closed(run);
        }
        if !topo.enqueue(run) {
            return Claim::Rider;
        }
        topo.set_tenant(tenant.map_or(0, |t| t.id));
        topo.set_registration(reg.register(topo, tenant.cloned()));
        Claim::Driver
    }

    /// Installs `observer`, told the lane count first; `removable` says
    /// whether [`Executor::remove_observers`] takes it off again.
    pub(crate) fn install(&self, observer: Arc<dyn ExecutorObserver>, removable: bool) {
        observer.on_observe(self.shareds.len());
        let mut observers = self.observers.write();
        observers.push((observer, removable));
        // ORDERING: Release publishes the list write above to `emit`'s
        // Acquire fast-path load.
        self.has_observers.store(true, Ordering::Release);
    }

    /// May the failed task of `topo` be run again? The scheduler's question
    /// before every retry; untenanted runs always may, a tenant's retry
    /// budget answers for the rest.
    pub(crate) fn may_retry(&self, topo: &Topology) -> bool {
        let tenant = topo.tenant_id();
        tenant == 0 || frontdoor::charge_retry(self, tenant)
    }
}

/// What [`Inner::claim`] made of a run.
pub(crate) enum Claim {
    /// The topology was idle: the caller now drives it and must call
    /// [`advance_topology`].
    Driver,
    /// The topology is running under another claim; the run waits FIFO in
    /// its batch queue and the incumbent driver picks it up.
    Rider,
    /// Shutdown has begun; the run is handed back unqueued.
    Closed(PendingRun),
}

/// The label of an event that concerns no task.
pub(crate) const NO_LABEL: &TaskLabel = &TaskLabel::empty();

/// The one way the scheduler and this module reach observers: one event,
/// `kind`, on `lane`. With no observer installed this is one load; `kind`
/// is built only when somebody listens, then handed to each observer by
/// [`deliver`].
#[inline]
pub(crate) fn emit(
    inner: &Inner,
    lane: usize,
    label: &TaskLabel,
    kind: impl FnOnce() -> SchedEventKind,
) {
    // ORDERING: Acquire pairs with `install`'s Release store, so a hook
    // that fires sees the fully-constructed observer list.
    if inner.has_observers.load(Ordering::Acquire) {
        deliver(inner, lane, label, &kind());
    }
}

/// [`emit`]'s calls, out of line so that the scheduler's hot functions
/// keep only the load and a branch: one call per observer. A hook that
/// panics is caught here, so a faulty observer costs neither the lane nor
/// the run, and it stays installed.
#[inline(never)]
fn deliver(inner: &Inner, lane: usize, label: &TaskLabel, kind: &SchedEventKind) {
    for (observer, _) in inner.observers.read().iter() {
        let hook = catch_unwind(AssertUnwindSafe(|| observer.on_event(lane, label, kind)));
        if let Err(payload) = hook {
            if crate::sync::is_model_abort(payload.as_ref()) {
                // The model engine tearing its execution down: rethrow,
                // as `execute` does for a task.
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// A shared pool of worker threads executing task dependency graphs.
pub struct Executor {
    pub(crate) inner: Arc<Inner>,
    /// Worker threads: model threads under the sanitizer, real named
    /// threads otherwise (see [`crate::sync::thread`]).
    threads: Mutex<Vec<crate::sync::thread::JoinHandle<()>>>,
    /// The live-introspection service, if started: its state and its
    /// threads (real `std` threads; introspection is outside the model's
    /// scope). Stopped and joined on drop, before the workers.
    introspection: Mutex<Option<crate::introspect::Service>>,
}

impl Executor {
    /// Creates an executor with `workers` threads and no admission budget.
    pub fn new(workers: usize) -> Arc<Executor> {
        Executor::with_budget(workers.max(1), usize::MAX)
    }

    /// `workers` threads, at most `max_inflight` tenant topologies in
    /// flight ([`ExecutorBuilder::max_inflight`]).
    fn with_budget(workers: usize, max_inflight: usize) -> Arc<Executor> {
        let lanes = workers + GUEST_SEATS;
        let mut ctxs = Vec::with_capacity(lanes);
        let mut shareds = Vec::with_capacity(lanes);
        for id in 0..lanes {
            let (owner, stealer) = wsq::deque();
            ctxs.push(WorkerCtx::new(id, owner, lanes));
            shareds.push(WorkerShared::new(stealer, id >= workers));
        }
        let seats = ctxs.split_off(workers);
        let inner = Arc::new(Inner {
            _injector: LineBreak,
            _workers: LineBreak,
            _registry: LineBreak,
            _door: LineBreak,
            _budget: LineBreak,
            shareds: shareds.into_boxed_slice(),
            num_workers: workers,
            seats: Mutex::new(seats),
            injector: Injector::new(injector::RING_SLOTS),
            num_spinning: AtomicUsize::new(0),
            notifier: Notifier::new(workers),
            stop: AtomicBool::new(false),
            running: Mutex::new(RunningRegistry::default()),
            all_done: Condvar::new(),
            closing: AtomicBool::new(false),
            qos: Mutex::new(QosState::default()),
            vnow: AtomicU64::new(0),
            budget: FrontDoorBudget::new(max_inflight),
            observers: RwLock::new(Vec::new()),
            has_observers: AtomicBool::new(false),
            epoch: crate::clock::origin(),
            #[cfg(rustflow_weaken = "seed_plain_race")]
            race_scratch: crate::sync_cell::SyncCell::new(0),
        });
        let mut threads = Vec::with_capacity(workers);
        for (id, ctx) in ctxs.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            threads.push(crate::sync::thread::spawn_named(
                format!("rustflow-worker-{id}"),
                move || worker_loop(&inner, ctx),
            ));
        }
        Arc::new(Executor {
            inner,
            threads: Mutex::new(threads),
            introspection: Mutex::new(None),
        })
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.inner.num_workers
    }

    /// Number of lanes: the worker threads plus the guest seats a waiting
    /// caller executes on ([`Taskflow::wait_for_all`](crate::Taskflow::wait_for_all)).
    /// Every lane id an observer hook, [`Executor::worker_stats`] or a
    /// trace names is below it (workers first), so it is what sizes a
    /// [`Tracer`](crate::Tracer) or a
    /// [`ProfileReport`](crate::ProfileReport).
    pub fn num_lanes(&self) -> usize {
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
        Tenant::find_or_create(&self.inner, name, qos)
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
        frontdoor::drain_for_shutdown(&self.inner);
    }

    /// Installs an observer whose hooks run around every task execution.
    pub fn observe(&self, observer: Arc<dyn ExecutorObserver>) {
        self.inner.install(observer, true);
    }

    /// Removes every observer installed through [`Executor::observe`].
    /// Live introspection's own observer stays: `/trace` and the watchdog
    /// keep seeing the executor.
    pub fn remove_observers(&self) {
        let mut observers = self.inner.observers.write();
        observers.retain(|(_, removable)| !removable);
        // ORDERING: Release orders the removal before the flag flip; the
        // fast path never iterates a list mid-teardown.
        self.inner
            .has_observers
            .store(!observers.is_empty(), Ordering::Release);
    }

    /// Per-lane diagnostic counters: one entry per worker, then one per
    /// guest seat ([`WorkerStats::guest`]).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.inner.worker_stats()
    }

    /// A point-in-time snapshot of every lane's counters, ready for
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
    /// this (or [`Executor::serve_introspection`]) is called: it is one
    /// more observer, so with none installed workers pay one load per
    /// event.
    ///
    /// Errors with [`std::io::ErrorKind::AlreadyExists`] if introspection
    /// was already started on this executor.
    pub fn start_introspection(
        &self,
        config: IntrospectConfig,
    ) -> std::io::Result<IntrospectHandle> {
        crate::introspect::start(&self.inner, &self.introspection, config, None)
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
        crate::introspect::start(&self.inner, &self.introspection, config, Some(listener))
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
    /// [`RunError::Rejected`]`(`[`AdmissionError::ShuttingDown`]`)`
    /// ([`Inner::claim`]).
    ///
    /// `caller_waits` says the caller blocks on the returned future next
    /// (`wait_for_all`). If the submission then claims the topology and a
    /// guest seat is free, the caller **helps**: the first iteration's
    /// sources go to the seat instead of the injector, and the caller runs
    /// [`guest_loop`] on it before this returns. The thread that would
    /// sleep through the run executes it, in whole or in part, and a run
    /// one thread can finish wakes nobody. Without a free seat (or as a
    /// rider, or during shutdown) the call is the plain one.
    pub(crate) fn run_topology(
        &self,
        topo: &Arc<Topology>,
        cond: RunCondition,
        caller_waits: bool,
    ) -> SharedFuture<RunResult> {
        if let Some(fatal) = topo.fatal() {
            return SharedFuture::ready(Err(fatal.clone()));
        }
        if topo.num_static_nodes() == 0 {
            // Nothing to run; never reaches the workers.
            return SharedFuture::ready(Ok(()));
        }
        let (promise, future) = crate::future::promise_pair();
        match self.inner.claim(topo, PendingRun { cond, promise }, None) {
            Claim::Closed(run) => run
                .promise
                .set(Err(RunError::Rejected(AdmissionError::ShuttingDown))),
            Claim::Driver => {
                // Untenanted claim: the tenant tag is already reset; clear
                // the lifecycle stamps a previous tenant stint may have
                // left on this (reusable) topology too, so the latency
                // pipeline stays disarmed.
                topo.stamps.clear();
                let seat = caller_waits
                    .then(|| self.inner.seats.lock().pop())
                    .flatten();
                match seat {
                    Some(mut guest) => {
                        advance_topology(&self.inner, topo, false, Some(&mut guest));
                        guest_loop(&self.inner, &mut guest, || future.is_ready());
                        self.inner.seats.lock().push(guest);
                    }
                    None => advance_topology(&self.inner, topo, false, None),
                }
            }
            Claim::Rider => {}
        }
        future
    }
}

/// Drives a topology on behalf of the current driver (the thread that
/// claimed it at submission, or the worker whose sink completion ended an
/// iteration): steps the batch state machine, then publishes the next
/// iteration — or, when every batch is done, drops the
/// keep-alive registration, which the driver finds in O(1) through the slot
/// index the claim left in the topology.
///
/// The next iteration's sources go through the injector, with one wake-up
/// each, unless the driver is a helping waiter and passes its `guest`
/// seat: then [`schedule`] puts the first in the seat's cache slot and
/// the rest on its deque, waking a worker only as a completing task
/// would.
pub(crate) fn advance_topology(
    inner: &Inner,
    topo: &Topology,
    iteration_finished: bool,
    guest: Option<&mut WorkerCtx>,
) {
    // The stint's registry slot and lifecycle stamps must be copied out
    // *before* `advance` can transition the topology to idle: the instant
    // it is idle, a concurrent resubmission may claim it and overwrite
    // both with its own stint's. The end stamp is taken here too — before
    // `advance` resolves the promises — so the recorded e2e interval is
    // bracketed by any client timing its own submit→resolve round trip
    // (promise resolution and finalize bookkeeping can be descheduled for
    // a long time on a loaded box, and that wait belongs to neither view).
    // `advance` asks for them only where the stint may end, and only a
    // tenant's stint records them, so neither a claim whose batch runs
    // nor an untenanted iteration pays the four relaxed loads, the clock
    // read or the error flag.
    let slot = topo.registration();
    let mut stint = None;
    let snapshot = || {
        if topo.tenant_id() != 0 {
            let stamps = (topo.stamps.snapshot(), crate::clock::now_us().max(1));
            // The breaker's failure signal must be read before the idle
            // transition too: it consumes the recorded error while
            // resolving the run's promises. Panics (and invalid graphs)
            // count; a plain cancellation is the client's choice, not
            // the tenant's health.
            stint = Some((stamps, topo.has_panic()));
        }
    };
    // SAFETY: the caller holds the driver role per the functions's
    // contract; at most one driver exists per topology at a time.
    match unsafe { topo.advance(iteration_finished, snapshot) } {
        Advance::RunIteration => {
            // SAFETY: driver role; the topology is quiescent between
            // iterations, and every node re-armed itself as it completed.
            unsafe {
                topo.begin_iteration(|sources| {
                    emit(inner, DISPATCH_LANE, NO_LABEL, || {
                        SchedEventKind::TopologyDispatch {
                            info: topo.iteration_info(),
                            tasks: topo.num_static_nodes(),
                        }
                    });
                    if let Some(guest) = guest {
                        for &source in sources {
                            // SAFETY: a source is armed (join counter =
                            // in-degree = 0) since the freeze and its
                            // topology is held by the keep-alive registry.
                            schedule(inner, guest, source as RawNode);
                        }
                        return;
                    }
                    let k = sources.len();
                    inner.injector.push_batch(sources.iter().copied());
                    // ORDERING: Dekker fence — the pushes above must
                    // precede the idler check inside wake_one in the
                    // SeqCst total order (see notifier docs), or a
                    // concurrently-parking worker could be missed.
                    fence(Ordering::SeqCst);
                    for _ in 0..k {
                        match inner.notifier.wake_one() {
                            Some(woken) => emit(inner, DISPATCH_LANE, NO_LABEL, || {
                                SchedEventKind::Wake { woken }
                            }),
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
            // A registration names a tenant exactly when the claim tagged
            // the topology with one.
            if let (Some(tenant), Some((stamps, failed))) = (tenant, stint) {
                frontdoor::stint_finished(inner, &tenant, stamps, failed);
            }
        }
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
        if let Some(service) = self.introspection.get_mut().take() {
            service.stop();
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

#[cfg(test)]
pub(crate) mod tests;
