//! The front door: how a tenant's submission becomes a running topology.
//!
//! A submission passes an ordered admission chain under its tenant's queue
//! lock ([`TenantState::admit`]: shutdown → breaker → deadline feasibility
//! → queue space). With nothing queued anywhere and a slot of the
//! executor's in-flight budget ([`FrontDoorBudget`]) free, the submitter
//! then dispatches the run itself, straight through; otherwise the run
//! waits in the tenant's bounded queue and is popped by the
//! weighted-fair-queue pump ([`pump_tenants`]) when the budget has room.
//! Either way the dispatcher claims the run's topology ([`Inner::claim`])
//! and drives its first iteration. When the stint finalizes, the executor
//! core calls back once ([`stint_finished`]) to credit the tenant and free
//! the slot.
//!
//! Every submission ends in exactly one [`Outcome`], and
//! [`TenantState::record`] is the only writer of the counters behind
//! [`TenantStats`]' ledger, so `submitted == Σ outcomes` holds whenever
//! nothing is queued or in flight. A queued run that will never execute
//! (shed, or drained by shutdown) ends in [`TenantState::retire`], the one
//! place that fails a queued run's promise.
//!
//! Locks: `Inner::qos` (tenant list, the right to pump), then a tenant's
//! `queue`, the only nesting there is. The registry lock
//! (`Inner::running`) is taken with neither held. While nothing is
//! queued, a served run takes the tenant's `queue` once, then `running`
//! with the topology's `pending` nested in it, then the promise at
//! `get()`: four mutexes and one clock read on the client, and none of
//! the front door's on the finalizing worker.

use crate::error::{AdmissionError, RunError, RunResult};
use crate::executor::{advance_topology, Claim, Executor, Inner, LineBreak};
use crate::future::SharedFuture;
use crate::resilience::{
    self, Breaker, BreakerSpec, BreakerState, RetryBudget, RetryMeter, SloSpec, TenantQos,
};
use crate::stats::{AtomicHistogram, TenantStats};
use crate::sync::{AtomicU64, AtomicUsize, Condvar, Mutex};
use crate::topology::{PendingRun, RunCondition, StampSnapshot, Topology};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// How a tenant submission ended. Each `submitted` increment is matched by
/// exactly one of these, recorded by [`TenantState::record`].
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// Claimed its topology's driver role: one stint, one `completed`.
    Dispatched,
    /// Joined the batch queue of a topology already running under
    /// another claim; resolves with that stint.
    Coalesced,
    /// Dropped from the queue by the pump because its deadline expired
    /// there ([`RunError::Shed`]).
    Shed,
    /// Refused with [`AdmissionError::Saturated`].
    RejectedSaturated,
    /// Refused, or drained from the queue, by shutdown.
    RejectedShutdown,
    /// Refused with [`AdmissionError::DeadlineInfeasible`].
    RejectedInfeasible,
    /// Refused with [`AdmissionError::BreakerOpen`].
    RejectedBreaker,
}

impl Outcome {
    /// Variants, i.e. ledger slots: one past the last.
    const COUNT: usize = Outcome::RejectedBreaker as usize + 1;

    /// The outcome of a submission the admission chain refused with `e`.
    fn refused(e: &AdmissionError) -> Outcome {
        match e {
            AdmissionError::Saturated { .. } => Outcome::RejectedSaturated,
            AdmissionError::ShuttingDown => Outcome::RejectedShutdown,
            AdmissionError::DeadlineInfeasible { .. } => Outcome::RejectedInfeasible,
            AdmissionError::BreakerOpen { .. } => Outcome::RejectedBreaker,
        }
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
/// queued; a submitter dispatches straight through when nothing is queued
/// and a slot is free, and otherwise queues its run and pumps. (Public
/// only for the model-checker tests via `check_internals`.)
pub struct FrontDoorBudget {
    max: usize,
    /// Tenant stints dispatched but not yet finalized, at most `max`.
    /// Charged by a CAS — the pump's under the `qos` lock, a
    /// straight-through submitter's under its tenant's queue lock — and
    /// released under neither.
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

    /// Takes a slot if one is free. The pump and straight-through
    /// submitters both charge, so the check and the add are one CAS. A
    /// charge that fails read, in the pair's total order, a slot held by
    /// a stint whose [`release`](Self::release) is still to come and will
    /// see this caller's queued run.
    pub fn try_charge(&self) -> bool {
        // Every read here is the pair's, the failing one included: a
        // weaker one could still see a slot that is already released.
        let mut held = self.inflight.load(FRONTDOOR_DEKKER);
        while held < self.max {
            match self.inflight.compare_exchange_weak(
                held,
                held + 1,
                FRONTDOOR_DEKKER,
                FRONTDOOR_DEKKER,
            ) {
                Ok(_) => return true,
                Err(now) => held = now,
            }
        }
        false
    }

    /// Submitter, under its tenant's queue lock with that queue empty:
    /// takes a slot for a run that skips the queues, which the pump would
    /// have picked next — nothing is queued anywhere and a slot is free.
    /// `false` leaves the budget untouched; the run is then queued.
    pub fn try_straight_through(&self) -> bool {
        // Relaxed: a run queued by another tenant that this misses is
        // concurrent with this submission, and its own pump or the
        // release of the slot taken here dispatches it.
        self.backlog.load(Ordering::Relaxed) == 0 && self.try_charge()
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
struct QueuedRun {
    topo: Arc<Topology>,
    pending: PendingRun,
    /// [`crate::clock::now_us`] at admission into the tenant queue
    /// (`.max(1)`: 0 is the stamps' "not stamped" sentinel and the clock's
    /// first microsecond is indistinguishable from it). The latency
    /// phases start here, and the shed path reports time spent queued
    /// from it.
    submit_us: u64,
    /// Stamped by [`next_dispatch`] when the fair-queue pump pops the
    /// run, or equal to `submit_us` for a run dispatched straight through
    /// ([`Executor::run_topology_on`]); `0` until then.
    admitted_us: u64,
    /// Absolute expiry ([`crate::clock::now_us`] domain) past which the
    /// dispatcher sheds this run instead of dispatching it; `0` = none.
    deadline_us: u64,
    /// This run is the circuit breaker's half-open probe; shedding or
    /// shutdown-draining it must release the probe claim so the breaker
    /// can admit another.
    probe: bool,
}

impl QueuedRun {
    /// Is the run's deadline already past at `now`? Such a run is shed,
    /// not dispatched: its client has given up on it.
    fn expired(&self, now: u64) -> bool {
        self.deadline_us != 0 && now >= self.deadline_us
    }
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
    breaker_spec: Option<BreakerSpec>,

    // ---- written on the way in: submit, admission, dispatch ----
    _door: LineBreak,
    queue: Mutex<VecDeque<QueuedRun>>,
    /// Signalled when queue space frees up (dispatch) or admission closes
    /// (shutdown); blocking submitters wait on it.
    space: Condvar,
    /// `queue.len()`, moved under the queue lock with every push and pop,
    /// so the fair-queue scan can skip an empty tenant without locking it.
    queued: AtomicUsize,
    /// Weighted-fair-queueing virtual finish time. Only written under this
    /// tenant's queue lock ([`TenantState::advance_vtime`]); atomic so the
    /// pump's scan and snapshots read it lock-free.
    vtime: AtomicU64,
    /// Admission attempts, counted under the queue lock.
    submitted: AtomicU64,
    /// The ledger: how many submissions ended in each [`Outcome`],
    /// indexed by it. Written by [`TenantState::record`] only.
    outcomes: [AtomicU64; Outcome::COUNT],

    // ---- written by both: up at the pop, down at the outcome ----
    _both: LineBreak,
    /// Runs out of the queue — popped, or admitted straight through —
    /// whose fate is not final yet: until the stint finalizes for a
    /// dispatched run, until the outcome is recorded for every other.
    /// `queued + inflight == 0` therefore means every submission so far
    /// is in the ledger.
    inflight: AtomicU64,

    // ---- written on the way out: finalize, breaker, retries ----
    _done: LineBreak,
    completed: AtomicU64,
    retries: RetryMeter,
    breaker: Breaker,
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
            breaker_spec: qos.breaker,
            _door: LineBreak,
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            queued: AtomicUsize::new(0),
            vtime: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            outcomes: std::array::from_fn(|_| AtomicU64::new(0)),
            _both: LineBreak,
            inflight: AtomicU64::new(0),
            _done: LineBreak,
            completed: AtomicU64::new(0),
            retries: RetryMeter::default(),
            breaker: Breaker::default(),
            latency: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// Enters `outcome` into the ledger: the only writer of the counters
    /// behind `dispatched`, `coalesced`, `shed` and `rejected_*`.
    fn record(&self, outcome: Outcome) {
        self.outcomes[outcome as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn recorded(&self, outcome: Outcome) -> u64 {
        self.outcomes[outcome as usize].load(Ordering::Relaxed)
    }

    /// Pops the run closest to dispatch and moves the gauges with it,
    /// under the queue lock: out of `queued` and the backlog, into
    /// `inflight` until its outcome is final.
    fn unqueue(&self, q: &mut VecDeque<QueuedRun>, budget: &FrontDoorBudget) -> Option<QueuedRun> {
        let run = q.pop_front()?;
        self.queued.fetch_sub(1, Ordering::Relaxed);
        budget.unqueued(1);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        // A blocking submitter may be waiting for exactly this slot.
        self.space.notify_one();
        Some(run)
    }

    /// The fair-queue clocks move as one of this tenant's runs is
    /// dispatched: an idle tenant's stale clock first fast-forwards to
    /// `vnow` (idling banks no credit), `vnow` moves up to it, and the
    /// tenant's clock moves one weighted step past. Call under this
    /// tenant's queue lock, which serializes every write of `vtime`.
    fn advance_vtime(&self, inner: &Inner) {
        let mut vnow = inner.vnow.load(Ordering::Relaxed);
        let vt = self.vtime.load(Ordering::Relaxed).max(vnow);
        // An atomic max: the pump and straight-through submitters of
        // other tenants move it concurrently.
        while vnow < vt {
            match inner
                .vnow
                .compare_exchange_weak(vnow, vt, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => vnow = seen,
            }
        }
        self.vtime
            .store(vt + VT_SCALE / u64::from(self.weight), Ordering::Relaxed);
    }

    /// Ends an unqueued run that will never execute: hands back a probe
    /// claim it may hold, records `outcome` and fails its promise. Call
    /// with no lock held — promise resolution can run arbitrary waker
    /// code. The run never reached `Topology::enqueue`, so the topology
    /// stays idle/claimable: re-arming after a shed needs no cleanup.
    fn retire(&self, run: QueuedRun, outcome: Outcome) {
        let error = match outcome {
            Outcome::Shed => RunError::Shed {
                tenant: self.name.clone(),
                queued_for: Duration::from_micros(
                    crate::clock::now_us().saturating_sub(run.submit_us),
                ),
            },
            Outcome::RejectedShutdown => RunError::Rejected(AdmissionError::ShuttingDown),
            _ => unreachable!("only a shed or a shutdown retires a queued run, not {outcome:?}"),
        };
        self.breaker.release_probe(run.probe);
        // Recorded before the promise resolves, so a client that has seen
        // its handle fail finds the run in the ledger.
        self.record(outcome);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        run.pending.promise.set(Err(error));
    }

    /// Point-in-time snapshot of this tenant's counters and gauges.
    ///
    /// Holds the queue lock across every read: a submission is counted,
    /// and then refused, pushed or put in flight, under the same lock, so
    /// a scraper never sees one that is in none of `queued`, `in_flight`
    /// and the `rejected_*` buckets. A run out of the queue is carried by
    /// `in_flight` until its outcome is recorded; the ledger is exact once
    /// `queued` and `in_flight` are both zero.
    fn snapshot(&self) -> TenantStats {
        let q = self.queue.lock();
        TenantStats {
            name: self.name.clone(),
            weight: self.weight,
            queued: q.len() as u64,
            in_flight: self.inflight.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            dispatched: self.recorded(Outcome::Dispatched),
            coalesced: self.recorded(Outcome::Coalesced),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_saturated: self.recorded(Outcome::RejectedSaturated),
            rejected_shutdown: self.recorded(Outcome::RejectedShutdown),
            rejected_infeasible: self.recorded(Outcome::RejectedInfeasible),
            rejected_breaker: self.recorded(Outcome::RejectedBreaker),
            shed: self.recorded(Outcome::Shed),
            retry_budget_exhausted: self.retries.exhausted(),
            consecutive_failures: self.breaker.consecutive_failures(),
            breaker_state: self.breaker.word(),
            breaker_transitions: self.breaker.transitions(),
        }
    }

    /// The admission chain for one tenant submission, run under the
    /// tenant's queue lock, in order: shutdown, circuit breaker, deadline
    /// feasibility, then the bounded-queue wait according to `block`.
    /// `Ok(probe)` clears the run for enqueue; a refusal by a stage after
    /// the breaker hands a probe claim back.
    fn admit(
        &self,
        inner: &Inner,
        q: &mut crate::sync::MutexGuard<'_, VecDeque<QueuedRun>>,
        block: Block,
        deadline: Option<Duration>,
    ) -> Result<bool, AdmissionError> {
        check_open(inner)?;
        // Breaker before deadline: an open breaker is the cheaper (and
        // more actionable) rejection. Checked once per submission — the
        // space wait below does not re-run it, so a probe admitted here
        // is never re-judged by its own claim.
        let probe = self
            .breaker
            .admit(self.breaker_spec)
            .map_err(|retry_after| AdmissionError::BreakerOpen {
                tenant: self.name.clone(),
                retry_after,
            })?;
        let head_submit_us = q.front().map(|head| head.submit_us);
        let cleared = resilience::check_deadline(&self.name, deadline, head_submit_us)
            .and_then(|()| self.wait_for_space(inner, q, block));
        if cleared.is_err() {
            self.breaker.release_probe(probe);
        }
        cleared.map(|()| probe)
    }

    /// The last admission stage: room in the bounded queue, waiting for it
    /// as `block` allows.
    fn wait_for_space(
        &self,
        inner: &Inner,
        q: &mut crate::sync::MutexGuard<'_, VecDeque<QueuedRun>>,
        block: Block,
    ) -> Result<(), AdmissionError> {
        while q.len() >= self.max_queue {
            let gave_up = match block {
                Block::Never => true,
                Block::Forever => {
                    self.space.wait(q);
                    false
                }
                // Spurious wakeups loop back with the same absolute
                // deadline; only a timeout with the queue still full
                // gives up.
                Block::Until(until) => {
                    self.space.wait_until(q, until).timed_out() && q.len() >= self.max_queue
                }
            };
            if gave_up {
                return Err(AdmissionError::Saturated {
                    tenant: self.name.clone(),
                    capacity: self.max_queue,
                });
            }
            // Re-checked after every wakeup: `close` drains the queue and
            // notifies `space`, so a parked submitter must observe the
            // flag rather than push into a drained queue.
            check_open(inner)?;
        }
        Ok(())
    }
}

/// The first admission stage, repeated after every wait of the last: has
/// shutdown begun? Call under the tenant's queue lock.
fn check_open(inner: &Inner) -> Result<(), AdmissionError> {
    // ORDERING: SeqCst pairs with `close`'s store. Checked under the
    // queue lock: a push serialized before the drain is always
    // drained; one after always sees the flag. Either way no
    // submission is silently dropped.
    if inner.closing.load(Ordering::SeqCst) {
        return Err(AdmissionError::ShuttingDown);
    }
    Ok(())
}

/// The tenant control plane, guarded by `Inner::qos`: the tenant list,
/// and the right to pump.
#[derive(Default)]
pub(crate) struct QosState {
    pub(crate) tenants: Vec<Arc<TenantState>>,
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
    /// The handle for tenant `name` of `inner`, created with `qos` on
    /// first use ([`Executor::tenant_with`]).
    pub(crate) fn find_or_create(inner: &Arc<Inner>, name: &str, qos: TenantQos) -> Tenant {
        let mut q = inner.qos.lock();
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
            inner: Arc::clone(inner),
        }
    }

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
        BreakerState::from_word(self.state.breaker.word())
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

/// One tenant's latency distributions, merged at scrape time: phase
/// label → bucketed histogram, in [`LATENCY_PHASES`] order.
pub(crate) struct TenantLatencySnapshot {
    pub(crate) name: String,
    pub(crate) slo: Option<SloSpec>,
    pub(crate) phases: Vec<(&'static str, crate::stats::Histogram)>,
}

impl Inner {
    fn tenants(&self) -> Vec<Arc<TenantState>> {
        self.qos.lock().tenants.clone()
    }

    /// Snapshot of every tenant's counters and gauges.
    pub(crate) fn tenant_stats(&self) -> Vec<TenantStats> {
        self.tenants().iter().map(|t| t.snapshot()).collect()
    }

    /// Scrape-time merge of every tenant's latency shards: folds each
    /// lock-free [`AtomicHistogram`](crate::AtomicHistogram) into a plain
    /// [`Histogram`](crate::Histogram) per phase. Workers never pay for
    /// this — the fold is a bucket-count copy done by the scraping thread.
    pub(crate) fn tenant_latency(&self) -> Vec<TenantLatencySnapshot> {
        self.tenants()
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

impl Executor {
    /// Tenant-scoped submission: runs the admission chain under `tenant`'s
    /// queue lock, then either dispatches the run straight through or
    /// queues it for the weighted-fair-queue pump. `block` decides what a
    /// full queue does: reject with [`AdmissionError::Saturated`]
    /// immediately, wait bounded, or wait indefinitely. `deadline`, when
    /// set (or defaulted from [`TenantQos::deadline`]), is checked for
    /// feasibility against the age of the tenant's oldest queued run and
    /// stamped onto the run for the dispatcher's shed check.
    ///
    /// Straight through is the pump's own dispatch, done in place when
    /// the pump would pick this very run: the tenant's queue is empty,
    /// nothing is queued anywhere, and a slot is free. It takes no `qos`
    /// lock and no second queue lock, and the one clock read stamps
    /// submit, admission and dispatch alike. A full budget or a run
    /// queued anywhere sends the run through the queue and the pump.
    pub(crate) fn run_topology_on(
        &self,
        tenant: &Tenant,
        topo: &Arc<Topology>,
        cond: RunCondition,
        block: Block,
        deadline: Option<Duration>,
    ) -> Result<SharedFuture<RunResult>, AdmissionError> {
        let inner = &*self.inner;
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
        // The per-run override beats the tenant default.
        let deadline = deadline.or(state.deadline);
        let (promise, future) = crate::future::promise_pair();
        let mut q = state.queue.lock();
        // Counted per admission *attempt*, and the attempt refused, pushed
        // or put in flight under one hold of the queue lock (see
        // `snapshot`).
        state.submitted.fetch_add(1, Ordering::Relaxed);
        let probe = match state.admit(inner, &mut q, block, deadline) {
            Ok(probe) => probe,
            Err(refusal) => {
                state.record(Outcome::refused(&refusal));
                return Err(refusal);
            }
        };
        let now = crate::clock::now_us().max(1);
        let mut run = QueuedRun {
            topo: Arc::clone(topo),
            pending: PendingRun { cond, promise },
            submit_us: now,
            admitted_us: 0,
            deadline_us: deadline
                .map(|d| now.saturating_add(d.as_micros() as u64))
                .unwrap_or(0),
            probe,
        };
        if !(q.is_empty() && inner.budget.try_straight_through()) {
            q.push_back(run);
            // `queued` first: a finalizer that sees the backlog through
            // the budget's SeqCst pair then also sees which tenant holds
            // it.
            state.queued.fetch_add(1, Ordering::Relaxed);
            inner.budget.queued();
            drop(q);
            pump_tenants(inner);
            return Ok(future);
        }
        // Straight through: what `next_dispatch` does for a popped run,
        // with the slot already charged.
        state.inflight.fetch_add(1, Ordering::Relaxed);
        let expired = run.expired(now);
        if !expired {
            state.advance_vtime(inner);
        }
        drop(q);
        run.admitted_us = now;
        // A slot handed back while runs are queued obliges its releaser
        // to pump (see `FrontDoorBudget`).
        let must_pump = if expired {
            let queued = inner.budget.release();
            state.retire(run, Outcome::Shed);
            queued
        } else {
            dispatch_tenant_run(inner, &tenant.state, run, Some(now))
        };
        if must_pump {
            pump_tenants(inner);
        }
        Ok(future)
    }
}

/// Dispatches queued tenant runs while the admission budget has room:
/// repeatedly picks the nonempty tenant with the smallest virtual time
/// (weighted fair queueing) and starts its oldest queued run.
///
/// Called after every queued tenant submission, and whenever a slot is
/// handed back *while anything is queued* ([`FrontDoorBudget::release`]),
/// so the budget is always refilled promptly. Runs on client and worker
/// threads alike; all steps are non-blocking.
fn pump_tenants(inner: &Inner) {
    let mut expired: Vec<(Arc<TenantState>, QueuedRun)> = Vec::new();
    loop {
        let next = next_dispatch(inner, &mut expired);
        // Shed *after* the qos/queue locks drop (see `retire`).
        for (tenant, run) in expired.drain(..) {
            tenant.retire(run, Outcome::Shed);
        }
        let Some((tenant, run)) = next else {
            return;
        };
        // The loop looks at the queues again itself.
        let _ = dispatch_tenant_run(inner, &tenant, run, None);
    }
}

/// Picks the next run to dispatch under weighted fair queueing, or `None`
/// when the budget is exhausted or every tenant queue is empty. On
/// success the admission slot is already charged (`Inner::budget`).
///
/// Queued runs whose deadline has already expired are not dispatched:
/// they are pushed onto `expired` for the caller to shed outside the
/// locks.
fn next_dispatch(
    inner: &Inner,
    expired: &mut Vec<(Arc<TenantState>, QueuedRun)>,
) -> Option<(Arc<TenantState>, QueuedRun)> {
    let qos = inner.qos.lock();
    'scan: loop {
        if !inner.budget.has_room() {
            return None;
        }
        // Min-virtual-time scan. Tenant counts are small (a handful of
        // clients); the scan under the qos lock is cheaper than a heap
        // that would need rebalancing on every idle/busy transition.
        let vnow = inner.vnow.load(Ordering::Relaxed);
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
        let (idx, _) = best?;
        let tenant = Arc::clone(&qos.tenants[idx]);
        // Lock order: qos → tenant.queue (here only; never the inverse).
        let mut q = tenant.queue.lock();
        // The slot is charged before the pop: a straight-through submitter
        // may have taken the last one since the check above, and then the
        // run stays queued for that stint's release to pump.
        if !inner.budget.try_charge() {
            return None;
        }
        let now = crate::clock::now_us().max(1);
        let run = loop {
            let Some(mut run) = tenant.unqueue(&mut q, &inner.budget) else {
                // The whole queue was doomed work (or a shutdown drain
                // emptied it since the scan); hand the slot back and
                // rescan — another tenant may still have dispatchable
                // runs, and this loop is the pump that would be asked.
                let _ = inner.budget.release();
                continue 'scan;
            };
            if run.expired(now) {
                // Shed: the run could not be dispatched before its
                // deadline; dispatching it now would burn worker time on
                // work whose client has given up.
                expired.push((Arc::clone(&tenant), run));
                continue;
            }
            // Admission stamp: the fair-queue pump just released this run
            // from the tenant queue (end of the admission-wait phase).
            run.admitted_us = now;
            break run;
        };
        tenant.advance_vtime(inner);
        drop(q);
        return Some((tenant, run));
    }
}

/// Starts a run taken out of the queues with its slot charged — popped by
/// [`next_dispatch`], or admitted straight through: claims its topology
/// (or retires it, if shutdown began since admission) and drives the
/// first iteration when this run got the driver role. `dispatched_us` is
/// the stamp a straight-through run shares with its submission; `None`
/// reads the clock at the claim. Returns whether the slot went back while
/// runs were queued, i.e. the caller must pump.
fn dispatch_tenant_run(
    inner: &Inner,
    tenant: &Arc<TenantState>,
    run: QueuedRun,
    dispatched_us: Option<u64>,
) -> bool {
    match inner.claim(&run.topo, run.pending, Some(tenant)) {
        Claim::Closed(pending) => {
            let must_pump = inner.budget.release();
            tenant.retire(QueuedRun { pending, ..run }, Outcome::RejectedShutdown);
            must_pump
        }
        Claim::Driver => {
            tenant.record(Outcome::Dispatched);
            // Stamp the stint's lifecycle and arm the first-task latch before
            // the first iteration publishes: the claiming dispatch has
            // exclusive access to the stamps until `begin_iteration` makes
            // the sources visible (the injector's Release publish carries
            // them to workers). Coalesced dispatches below ride the incumbent
            // driver's stint and are never recorded.
            let dispatched_us = dispatched_us.unwrap_or_else(|| crate::clock::now_us().max(1));
            run.topo
                .stamps
                .arm(run.submit_us, run.admitted_us, dispatched_us);
            advance_topology(inner, &run.topo, false, None);
            false
        }
        Claim::Rider => {
            // The topology is already running under another registration; the
            // batch rides the incumbent driver's pending queue and resolves
            // with it. The admission slot frees immediately — this dispatch
            // put no new topology in flight. A probe claim is handed back:
            // the incumbent's outcome (possibly another tenant's) must not
            // be this breaker's verdict, and holding the claim with no stint
            // of our own to clear it would wedge the breaker half-open.
            tenant.breaker.release_probe(run.probe);
            tenant.record(Outcome::Coalesced);
            tenant.inflight.fetch_sub(1, Ordering::Relaxed);
            inner.budget.release()
        }
    }
}

/// A tenant stint finalized (its keep-alive is already dropped): folds it
/// into the tenant's latency shards, credits the completion, feeds the
/// circuit breaker and returns the admission slot. `stamps` is the
/// stint's lifecycle and its end time; `failed` is the breaker's signal.
pub(crate) fn stint_finished(
    inner: &Inner,
    tenant: &TenantState,
    (stamps, end_us): (StampSnapshot, u64),
    failed: bool,
) {
    // A few relaxed fetch_adds; coalesced piggybacks never get here —
    // they are counted separately and have no lifecycle of their own.
    record_latency(tenant, stamps, end_us);
    tenant.completed.fetch_add(1, Ordering::Relaxed);
    tenant.inflight.fetch_sub(1, Ordering::Relaxed);
    tenant.breaker.note_outcome(tenant.breaker_spec, failed);
    // Return the admission slot. With nothing queued that is
    // all: no `qos`, no tenant queue lock. A run that arrived
    // at a full budget is either seen here or its submitter
    // sees the freed slot (see `FrontDoorBudget`).
    if inner.budget.release() {
        pump_tenants(inner);
    }
}

/// Consults tenant `id`'s retry budget on behalf of the scheduler's retry
/// path. Tenants without a budget always retry; only reached when a task
/// failed and would otherwise retry, so the qos-lock lookup is off the
/// hot path.
pub(crate) fn charge_retry(inner: &Inner, id: u64) -> bool {
    let state = inner.qos.lock().tenants.get(id as usize - 1).cloned();
    state.is_none_or(|t| {
        t.retries
            .charge(t.retry_budget, t.completed.load(Ordering::Relaxed))
    })
}

/// Decomposes a finished tenant stint's lifecycle into the five latency
/// phases and records each into the tenant's lock-free shards. All stamps
/// share one clock domain ([`crate::clock::origin`]), so the end-to-end
/// phase equals the sum of the four sub-phases exactly (modulo the
/// `saturating_sub` clamps against clock-read reordering). `end` is
/// stamped by the caller just before the idle transition resolves the
/// run's promises.
fn record_latency(tenant: &TenantState, s: StampSnapshot, end: u64) {
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

/// The shutdown drain ([`Executor::close`], after the closing flags are
/// up): every queued run is rejected with
/// [`AdmissionError::ShuttingDown`], and submitters parked for queue space
/// are woken to find the flag.
pub(crate) fn drain_for_shutdown(inner: &Inner) {
    for tenant in inner.tenants() {
        let drained: Vec<QueuedRun> = {
            let mut q = tenant.queue.lock();
            let runs = std::iter::from_fn(|| tenant.unqueue(&mut q, &inner.budget)).collect();
            // Unblock submitters waiting for queue space; they
            // re-check the closing flag and return the typed error.
            tenant.space.notify_all();
            runs
        };
        for run in drained {
            tenant.retire(run, Outcome::RejectedShutdown);
        }
    }
}

#[cfg(test)]
mod tests;
