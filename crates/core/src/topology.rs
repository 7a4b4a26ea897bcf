//! A dispatched, **reusable** task dependency graph (§III-C of the paper,
//! extended with the run-based execution model of Taskflow v2).
//!
//! Dispatching moves the taskflow's present graph into a [`Topology`]. The
//! paper's model is one-shot; here a topology survives its first execution
//! and can be *re-armed* and executed again — this is what backs
//! `Taskflow::run` / `run_n` / `run_until`. The split works like this:
//!
//! * The graph **structure** (nodes, edges, callables, static in-degrees)
//!   is frozen when the topology is created and swept exactly once
//!   ([`validate::sweep`]): the sweep yields the source set and the
//!   sanitizer's verdict, cached in [`Topology::fatal`]. The findings
//!   behind a fatal verdict are built only then.
//! * The per-run **state** (join counters, subflow subgraphs, the `alive`
//!   countdown) is reset by [`Topology::begin_iteration`] before every
//!   iteration.
//!
//! Execution requests arrive as [`PendingRun`] *batches* (run once, run
//! `n` times, run until a predicate holds), queued FIFO. At most one batch
//! is active at a time; the state machine in [`Topology::advance`] is
//! driven by whoever holds the *driver* role — the thread that claimed the
//! idle topology on submission, or the worker whose final `alive`
//! decrement finished an iteration. The owning
//! [`Taskflow`](crate::Taskflow) keeps every topology it created in a list
//! (so task handles and the executor's raw node pointers stay valid), and
//! the executor additionally holds a keep-alive `Arc` while batches run.

use crate::error::{panic_message, FailurePolicy, RunError, RunResult, TaskPanic};
use crate::future::Promise;
use crate::graph::Graph;
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex};
use crate::sync_cell::SyncCell;
use crate::validate;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// Process-wide iteration id source; a fresh id is drawn for every
/// iteration so observer hooks and traces can tell runs of the same
/// topology apart.
static NEXT_TOPOLOGY_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Process-wide *stable* topology id source: one id per frozen graph,
/// shared by every iteration — what observers roll per-topology counters
/// up by ([`crate::observer::IterationInfo::topology`]).
static NEXT_TOPOLOGY_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// No batch executing; the graph is quiescent and the next submission
/// claims the driver role.
const IDLE: usize = 0;
/// A batch is executing (or between iterations under its driver).
const RUNNING: usize = 1;

/// How long a submitted batch keeps re-running the topology.
pub(crate) enum RunCondition {
    /// Run exactly this many more iterations.
    Count(u64),
    /// Run until the predicate returns `true`. Checked before every
    /// iteration, so a predicate that is already `true` runs nothing —
    /// `Count(n)` and a decrementing predicate agree on semantics.
    Until(Box<dyn FnMut() -> bool + Send + 'static>),
}

/// One queued execution request: a stop condition plus the promise that
/// resolves when the batch finishes (or fails).
pub(crate) struct PendingRun {
    pub(crate) cond: RunCondition,
    pub(crate) promise: Promise<RunResult>,
}

/// Batches ended by one [`Topology::advance`] call, in resolution order.
/// Nearly every call ends exactly one, so the first lives inline and the
/// common case allocates nothing.
#[derive(Default)]
struct Resolved {
    first: Option<(PendingRun, RunResult)>,
    rest: Vec<(PendingRun, RunResult)>,
}

impl Resolved {
    fn push(&mut self, ended: (PendingRun, RunResult)) {
        if self.first.is_none() {
            self.first = Some(ended);
        } else {
            self.rest.push(ended);
        }
    }
}

/// What the driver must do after [`Topology::advance`] returns.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Advance {
    /// Re-arm and publish the sources ([`Topology::begin_iteration`]).
    RunIteration,
    /// No work left; the topology went idle — drop the keep-alive.
    Idle,
}

/// Lifecycle timestamps of the tenant stint currently driving a topology,
/// in [`crate::clock::origin`]-domain microseconds (always nonzero once
/// stamped; `0` means "not stamped"). Written by the claiming dispatch
/// before the first iteration publishes (driver-exclusive at that point),
/// read by the driver at finalization and by observer hooks, so relaxed
/// atomics suffice — cross-thread visibility rides the injector's Release
/// publish and the iteration's `alive` AcqRel chain.
pub(crate) struct RunStamps {
    /// When the submission entered the tenant queue.
    pub(crate) submit_us: AtomicU64,
    /// When the fair-queue pump popped it for dispatch.
    pub(crate) admitted_us: AtomicU64,
    /// When the claiming dispatch handed it to the executor.
    pub(crate) dispatched_us: AtomicU64,
    /// When the first task of the stint started executing. Sentinel
    /// protocol: `u64::MAX` = disarmed (no recording), `0` = armed and
    /// awaiting the first task (workers CAS it exactly once), anything
    /// else = stamped.
    pub(crate) first_start_us: AtomicU64,
}

impl RunStamps {
    fn new() -> RunStamps {
        RunStamps {
            submit_us: AtomicU64::new(0),
            admitted_us: AtomicU64::new(0),
            dispatched_us: AtomicU64::new(0),
            first_start_us: AtomicU64::new(u64::MAX),
        }
    }

    /// Marks the upcoming stint as unstamped (untenanted claims): the
    /// first-task latch becomes a no-op and nothing is recorded.
    pub(crate) fn clear(&self) {
        self.submit_us.store(0, Ordering::Relaxed);
        self.first_start_us.store(u64::MAX, Ordering::Relaxed);
    }

    /// Stamps the queue-side lifecycle and arms the first-task latch.
    /// Must only be called by the dispatch that claimed the driver role,
    /// before the first iteration publishes.
    pub(crate) fn arm(&self, submit_us: u64, admitted_us: u64, dispatched_us: u64) {
        self.submit_us.store(submit_us, Ordering::Relaxed);
        self.admitted_us.store(admitted_us, Ordering::Relaxed);
        self.dispatched_us.store(dispatched_us, Ordering::Relaxed);
        self.first_start_us.store(0, Ordering::Relaxed);
    }

    /// First-task latch: one relaxed load per task in steady state (the
    /// stint is armed only between a tenant dispatch and its first task),
    /// a single CAS for the task that wins the race.
    #[inline]
    pub(crate) fn note_first_start(&self) {
        if self.first_start_us.load(Ordering::Relaxed) == 0 {
            let now = crate::clock::now_us().max(1);
            let _ =
                self.first_start_us
                    .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// A plain copy of the four stamps (relaxed loads).
    pub(crate) fn snapshot(&self) -> StampSnapshot {
        StampSnapshot {
            submit: self.submit_us.load(Ordering::Relaxed),
            admitted: self.admitted_us.load(Ordering::Relaxed),
            dispatched: self.dispatched_us.load(Ordering::Relaxed),
            first_start: self.first_start_us.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`RunStamps`], taken by the finalizing driver
/// *before* `advance` can transition the topology to idle (after which a
/// concurrent resubmission may claim it and overwrite the stamps).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StampSnapshot {
    pub(crate) submit: u64,
    pub(crate) admitted: u64,
    pub(crate) dispatched: u64,
    pub(crate) first_start: u64,
}

pub(crate) struct Topology {
    /// Stable id of this topology, shared by every iteration.
    uid: u64,
    /// Id of the currently (or most recently) executing iteration; fresh
    /// per iteration, exposed through observer hooks.
    run_id: AtomicU64,
    /// Total iterations completed across all batches.
    iterations: AtomicU64,
    /// The graph being executed. Workers navigate it through raw pointers;
    /// the graph's chunked arena keeps addresses stable.
    pub(crate) graph: SyncCell<Graph>,
    /// Source nodes (static in-degree zero), cached once at construction —
    /// the structure never changes, so neither do the sources.
    sources: Vec<usize>,
    /// Number of nodes that have not yet completed in the current
    /// iteration, including nodes spawned dynamically into subflows. The
    /// zero-crossing ends the iteration.
    pub(crate) alive: AtomicUsize,
    /// [`IDLE`] or [`RUNNING`]; transitions are serialized by the
    /// `pending` mutex.
    state: AtomicUsize,
    /// The batch currently driving iterations; driver-exclusive.
    current: SyncCell<Option<PendingRun>>,
    /// Batches waiting their turn, FIFO.
    pending: Mutex<VecDeque<PendingRun>>,
    /// First error observed while running an iteration (kept, later ones
    /// dropped); taken by the driver when the iteration ends.
    pub(crate) error: Mutex<Option<RunError>>,
    /// Cooperative cancellation flag. Once set, workers *skip* every node
    /// they would otherwise start (completion bookkeeping still runs, so
    /// the iteration drains promptly) and in-flight tasks can poll it via
    /// [`crate::this_task::is_cancelled`]. Cleared by the driver when the
    /// topology transitions to idle.
    cancelled: AtomicBool,
    /// How a task panic affects the rest of the graph; frozen when the
    /// graph is frozen.
    policy: FailurePolicy,
    /// Cached pre-dispatch sanitizer verdict: `Some` iff the structure can
    /// never complete (cycle / self-edge). Computed once at construction —
    /// submissions fail fast without re-walking the graph.
    fatal: Option<RunError>,
    /// Id of the tenant whose dispatch currently drives this topology
    /// (`0` = untenanted). Written by the dispatch that claims the driver
    /// role; read by observer hooks for tenant-labelled traces.
    tenant: AtomicU64,
    /// Lifecycle timestamps of the current tenant stint, feeding the
    /// per-tenant latency histograms and the schema-v5 `submit_us` field
    /// of [`crate::observer::IterationInfo`].
    pub(crate) stamps: RunStamps,
    /// Slot of the current stint's keep-alive registration in the
    /// executor's registry. Driver-exclusive like the stamps, and copied
    /// out by the finalizing driver before `advance` for the same reason:
    /// once the topology is idle a resubmission may claim it and store
    /// its own slot here.
    registration: AtomicUsize,
}

// SAFETY: interior fields follow the sync_cell phase discipline (the
// `current` cell is driver-exclusive); atomics and mutexes are inherently
// thread-safe; Graph is Send + Sync under the same discipline.
unsafe impl Send for Topology {}
unsafe impl Sync for Topology {}

impl Topology {
    /// Freezes `graph` into a reusable topology: one sweep yields the
    /// source set and the sanitizer's verdict, both cached. The findings
    /// are built only behind a fatal verdict; that verdict also covers a
    /// graph whose nodes wait on a predecessor outside it (no finding
    /// names those, but publishing sources that can never drain `alive`
    /// would wedge every waiter). The failure policy is frozen alongside
    /// the structure.
    pub(crate) fn new(graph: Graph, policy: FailurePolicy) -> std::sync::Arc<Topology> {
        // SAFETY: the graph was just moved here; no other thread sees it.
        let swept = unsafe { validate::sweep(&graph) };
        let fatal = swept.is_fatal().then(|| {
            // SAFETY: as above.
            RunError::InvalidGraph(unsafe { validate::validate_graph(&graph) })
        });
        // Kept for the topology's whole life: give back the queue's slack.
        let mut sources = swept.sources;
        sources.shrink_to_fit();
        std::sync::Arc::new(Topology {
            uid: NEXT_TOPOLOGY_UID.fetch_add(1, Ordering::Relaxed),
            run_id: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            graph: SyncCell::new(graph),
            sources,
            alive: AtomicUsize::new(0),
            state: AtomicUsize::new(IDLE),
            current: SyncCell::new(None),
            pending: Mutex::new(VecDeque::new()),
            error: Mutex::new(None),
            cancelled: AtomicBool::new(false),
            policy,
            fatal,
            tenant: AtomicU64::new(0),
            stamps: RunStamps::new(),
            registration: AtomicUsize::new(0),
        })
    }

    /// The failure policy frozen into this topology.
    pub(crate) fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Requests cooperative cancellation of everything this topology has
    /// in flight or queued. Returns `true` if a run was actually
    /// cancelled, `false` if the topology was already idle (cancel after
    /// finalize is a no-op).
    ///
    /// The pending-queue mutex serializes the decision against the
    /// driver's idle transition in [`Topology::advance`]: either the
    /// driver has already gone idle (we return `false`) or it is still
    /// running and must pass through the drain point below, where it will
    /// observe the flag.
    ///
    /// Ordering matters: the `Cancelled` error is recorded **before** the
    /// flag is published. A worker that observes the flag and skips a node
    /// therefore knows the error is already recorded, so the driver that
    /// finalizes after the skip can never resolve the batch `Ok(())`. The
    /// `cancel_publish` weaken point inverts the two writes so the
    /// interleaving model can demonstrate exactly that lost-cancel
    /// outcome (a skipped run reported as success).
    pub(crate) fn cancel(&self) -> bool {
        // Seeded lockdep bug: holding `error` while taking `pending`
        // inverts the crate-wide order (`record_error` below and the
        // drain in `advance_inner` both take `error` under `pending`),
        // closing an error → pending → error cycle in the lock graph.
        // Dropped before `record_error` re-locks it — the cycle is an
        // *order* violation long before any schedule actually deadlocks.
        #[cfg(rustflow_weaken = "seed_lock_cycle")]
        let cycle_probe = self.error.lock();
        let _q = self.pending.lock();
        #[cfg(rustflow_weaken = "seed_lock_cycle")]
        drop(cycle_probe);
        // ORDERING: Acquire pairs with the Release IDLE stores in
        // `advance_inner`, so a cancel that sees a live run also sees
        // that run's queue state under the lock.
        if self.state.load(Ordering::Acquire) == IDLE {
            return false;
        }
        // ORDERING: Release on `cancelled` *after* `record_error` — a
        // worker that Acquire-loads the flag must find the Cancelled
        // error already recorded, or a skipped batch could resolve Ok.
        // The `cancel_publish` weaken inverts the two writes to seed
        // exactly that bug for the sanitizer.
        #[cfg(rustflow_weaken = "cancel_publish")]
        self.cancelled.store(true, Ordering::Release);
        self.record_error(RunError::Cancelled);
        #[cfg(not(rustflow_weaken = "cancel_publish"))]
        // ORDERING: Release, record-then-publish — see above.
        self.cancelled.store(true, Ordering::Release);
        true
    }

    /// Cancels the rest of the graph from *inside* a run — the
    /// [`FailurePolicy::FailFast`] reaction to a panic. The panic was
    /// already recorded (first error wins), so only the flag needs
    /// publishing; the failed batch still resolves with the panic while
    /// queued batches drain as [`RunError::Cancelled`].
    pub(crate) fn cancel_internal(&self) {
        // ORDERING: Release — the recorded panic (under the error lock)
        // happens-before any worker that sees the flag and skips.
        self.cancelled.store(true, Ordering::Release);
    }

    /// `true` once cancellation has been requested for the current run.
    pub(crate) fn is_cancelled(&self) -> bool {
        // ORDERING: Acquire pairs with the Release stores in `cancel` /
        // `cancel_internal`: a worker that observes the flag also
        // observes the error recorded before it.
        self.cancelled.load(Ordering::Acquire)
    }

    /// The cached sanitizer verdict; `Some` means the topology must never
    /// reach the executor.
    pub(crate) fn fatal(&self) -> Option<&RunError> {
        self.fatal.as_ref()
    }

    /// Id of the current iteration (as shown in observer hooks).
    pub(crate) fn run_id(&self) -> u64 {
        self.run_id.load(Ordering::Relaxed)
    }

    /// Identity of the in-flight (or most recent) iteration, as reported
    /// to observers. `iteration` is the count of *completed* iterations,
    /// which equals the 0-based index of the one in flight: the counter is
    /// incremented only after the iteration's `on_topology_stop` fired.
    pub(crate) fn iteration_info(&self) -> crate::observer::IterationInfo {
        crate::observer::IterationInfo {
            run: self.run_id(),
            topology: self.uid,
            iteration: self.iterations(),
            tenant: self.tenant.load(Ordering::Relaxed),
            submit_us: self.stamps.submit_us.load(Ordering::Relaxed),
        }
    }

    /// Tags this topology with the tenant driving its current stint
    /// (`0` = untenanted). Called by the dispatch that claimed the driver
    /// role, before the first iteration publishes.
    pub(crate) fn set_tenant(&self, tenant: u64) {
        self.tenant.store(tenant, Ordering::Relaxed);
    }

    /// Tenant driving the current stint (`0` = untenanted); see
    /// [`Topology::set_tenant`].
    pub(crate) fn tenant_id(&self) -> u64 {
        self.tenant.load(Ordering::Relaxed)
    }

    /// Records where the stint being claimed is registered; see the
    /// `registration` field. Driver-exclusive.
    pub(crate) fn set_registration(&self, slot: usize) {
        self.registration.store(slot, Ordering::Relaxed);
    }

    /// The current stint's registry slot; see [`Topology::set_registration`].
    pub(crate) fn registration(&self) -> usize {
        self.registration.load(Ordering::Relaxed)
    }

    /// Total iterations completed so far.
    pub(crate) fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Stable id of this topology (matches
    /// [`IterationInfo::topology`](crate::observer::IterationInfo)).
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// Nodes of the current iteration that have not completed yet
    /// (advisory; racy against workers counting down).
    pub(crate) fn alive_count(&self) -> usize {
        self.alive.load(Ordering::Relaxed)
    }

    /// Batches queued behind the currently executing one (advisory).
    pub(crate) fn pending_batches(&self) -> usize {
        self.pending.lock().len()
    }

    /// `true` while an error (panic, cancellation, invalid subflow) is
    /// recorded for the in-flight iteration and not yet taken by the
    /// driver (advisory).
    pub(crate) fn has_error(&self) -> bool {
        self.error.lock().is_some()
    }

    /// `true` while the recorded error is a genuine task failure (panic)
    /// rather than a cancellation — the circuit breaker's signal. Read by
    /// the driver before `advance` consumes the error.
    pub(crate) fn has_panic(&self) -> bool {
        matches!(&*self.error.lock(), Some(RunError::Panic(_)))
    }

    /// `true` when no batch is executing or queued: the graph is quiescent
    /// and may be inspected (DOT dumps) or reclaimed (`gc`).
    pub(crate) fn is_settled(&self) -> bool {
        // ORDERING: Acquire pairs with the driver's Release IDLE store,
        // so a settled topology's final graph state is visible.
        self.state.load(Ordering::Acquire) == IDLE
    }

    /// Queues `batch` FIFO. Returns `true` when the caller claimed the
    /// idle topology and is now its driver: it must call
    /// [`Topology::advance`]`(false)` and act on the outcome.
    ///
    /// The queue mutex serializes this claim against the driver's
    /// own idle transition in `advance`, so a batch is never lost between
    /// "driver saw an empty queue" and "driver went idle".
    pub(crate) fn enqueue(&self, batch: PendingRun) -> bool {
        let mut q = self.pending.lock();
        q.push_back(batch);
        // ORDERING: AcqRel — the Acquire half sees the outgoing driver's
        // final writes behind its Release IDLE store; the Release half
        // publishes this batch to whoever later claims the topology.
        self.state
            .compare_exchange(IDLE, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Drives the batch state machine. Called with
    /// `iteration_finished == false` right after claiming the topology in
    /// [`Topology::enqueue`], and with `true` from the executor's finalize
    /// path when an iteration's `alive` count hit zero.
    ///
    /// Resolves the promises of batches that end here (last iteration
    /// done, iteration error, zero-count, predicate already true), pops
    /// the next pending batch FIFO, and either asks the driver to run an
    /// iteration or transitions the topology to idle.
    ///
    /// # Safety
    /// Caller must hold the driver role: it claimed the topology via
    /// `enqueue`, or it performed the final `alive` decrement of an
    /// iteration. At most one driver exists at a time.
    pub(crate) unsafe fn advance(&self, iteration_finished: bool) -> Advance {
        // Promises resolve only *after* the next state is decided: a
        // waiter that observes a resolved future may immediately check
        // `is_settled` (gc, dumps) or resubmit, so the idle transition
        // must never lag behind the resolution it caused.
        let mut resolved = Resolved::default();
        // SAFETY: forwarded driver-role contract.
        let action = unsafe { self.advance_inner(iteration_finished, &mut resolved) };
        for (batch, result) in resolved.first.into_iter().chain(resolved.rest) {
            batch.promise.set(result);
        }
        action
    }

    /// The state machine body of [`Topology::advance`]; ended batches are
    /// pushed onto `resolved` instead of being resolved in place.
    ///
    /// # Safety
    /// Same contract as [`Topology::advance`].
    unsafe fn advance_inner(&self, iteration_finished: bool, resolved: &mut Resolved) -> Advance {
        if iteration_finished {
            self.iterations.fetch_add(1, Ordering::Relaxed);
            let err = self.error.lock().take();
            // SAFETY: driver-exclusive cell per this function's contract.
            let cur = unsafe { self.current.get_mut() };
            let batch = cur.as_mut().expect("iteration finished without a batch");
            let outcome: Option<RunResult> = if let Some(e) = err {
                // An error in iteration k resolves the whole batch with
                // that iteration's error; remaining iterations are
                // abandoned (reference `run_n` semantics).
                Some(Err(e))
            } else {
                match &mut batch.cond {
                    RunCondition::Count(n) => {
                        *n -= 1;
                        (*n == 0).then_some(Ok(()))
                    }
                    RunCondition::Until(pred) => match catch_unwind(AssertUnwindSafe(pred)) {
                        Ok(true) => Some(Ok(())),
                        Ok(false) => None,
                        Err(payload) => {
                            if crate::sync::is_model_abort(payload.as_ref()) {
                                // Engine-internal unwind: never a
                                // predicate failure; rethrow.
                                std::panic::resume_unwind(payload);
                            }
                            Some(Err(predicate_panic(&*payload, self.iterations())))
                        }
                    },
                }
            };
            match outcome {
                None => return Advance::RunIteration,
                Some(result) => {
                    let batch = cur.take().expect("checked above");
                    resolved.push((batch, result));
                }
            }
        }
        // The current batch (if any) just ended: pop the next one FIFO.
        // Batches that need no iteration resolve immediately and the loop
        // keeps popping.
        loop {
            let mut next = {
                let mut q = self.pending.lock();
                // ORDERING: Acquire pairs with `cancel`'s Release store,
                // making the recorded Cancelled error visible to the
                // drain below.
                if self.cancelled.load(Ordering::Acquire) {
                    // Cancellation drains the whole queue: every batch that
                    // never got to run resolves `Cancelled`, the flag is
                    // reset so a later submission starts clean, and the
                    // topology goes idle. Holding the queue lock keeps
                    // this atomic with respect to `cancel` (which checks
                    // IDLE under the same lock) and `enqueue`.
                    while let Some(b) = q.pop_front() {
                        resolved.push((b, Err(RunError::Cancelled)));
                    }
                    // A cancel that raced in *after* this call's error take
                    // (its batch already resolved) left `Cancelled` behind;
                    // clear it so the next submission starts clean. Lock
                    // order pending → error matches `cancel`.
                    let _ = self.error.lock().take();
                    // ORDERING: Release pair — the drained queue and the
                    // cleared error are published before the flag reset
                    // and the IDLE store that lets a new run claim us.
                    self.cancelled.store(false, Ordering::Release);
                    self.state.store(IDLE, Ordering::Release);
                    return Advance::Idle;
                }
                match q.pop_front() {
                    Some(b) => b,
                    None => {
                        // Going idle must happen under the queue lock so a
                        // concurrent `enqueue` either hands us its batch
                        // (pushed before our pop) or claims the driver
                        // role itself (CAS after our store).
                        // ORDERING: Release publishes the finished run's
                        // graph state to `enqueue`'s AcqRel CAS and to
                        // `is_settled`'s Acquire load.
                        self.state.store(IDLE, Ordering::Release);
                        return Advance::Idle;
                    }
                }
            };
            let outcome: Option<RunResult> = match &mut next.cond {
                RunCondition::Count(0) => Some(Ok(())),
                RunCondition::Count(_) => None,
                RunCondition::Until(pred) => match catch_unwind(AssertUnwindSafe(pred)) {
                    Ok(true) => Some(Ok(())),
                    Ok(false) => None,
                    Err(payload) => {
                        if crate::sync::is_model_abort(payload.as_ref()) {
                            // See the matching arm in the finished branch.
                            std::panic::resume_unwind(payload);
                        }
                        Some(Err(predicate_panic(&*payload, self.iterations())))
                    }
                },
            };
            match outcome {
                Some(result) => resolved.push((next, result)),
                None => {
                    // SAFETY: driver-exclusive cell.
                    unsafe { *self.current.get_mut() = Some(next) };
                    return Advance::RunIteration;
                }
            }
        }
    }

    /// Re-arms every node for the next iteration, then hands the cached
    /// source set to `publish` (which makes the sources visible to workers
    /// and wakes them).
    ///
    /// The re-arm **must complete before any source is published**: a
    /// woken thief may execute a source immediately and count down a
    /// successor's join counter and the `alive` total — observing
    /// last-iteration values would lose the successor or underflow
    /// `alive`, wedging the run. The `rearm_publish` weaken point inverts
    /// the order so the interleaving model can demonstrate exactly that
    /// failure.
    ///
    /// # Safety
    /// Caller must hold the driver role and the topology must be
    /// quiescent (no iteration in flight).
    pub(crate) unsafe fn begin_iteration(&self, publish: impl FnOnce(&[usize])) {
        #[cfg(rustflow_weaken = "rearm_publish")]
        publish(&self.sources);
        self.run_id.store(
            NEXT_TOPOLOGY_ID.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        let tp: *const Topology = self;
        // SAFETY: quiescent per the caller's contract — the driver has
        // exclusive access to every node until the sources are published.
        unsafe {
            let g = self.graph.get_mut();
            self.alive.store(g.len(), Ordering::Relaxed);
            g.iter_mut()
                .for_each(|node| node.rearm(tp, std::ptr::null_mut()));
        }
        #[cfg(not(rustflow_weaken = "rearm_publish"))]
        publish(&self.sources);
    }

    /// Records the first panic; later errors are ignored.
    pub(crate) fn record_panic(&self, panic: TaskPanic) {
        self.record_error(RunError::Panic(panic));
    }

    /// Records the first error; later ones are ignored.
    pub(crate) fn record_error(&self, error: RunError) {
        let mut guard = self.error.lock();
        if guard.is_none() {
            *guard = Some(error);
        }
    }

    /// Number of top-level nodes (excludes dynamically spawned subflows);
    /// reported to observers when an iteration starts.
    pub(crate) fn num_static_nodes(&self) -> usize {
        // SAFETY: the node count is frozen at construction.
        unsafe { self.graph.get().len() }
    }
}

fn predicate_panic(payload: &(dyn std::any::Any + Send), iteration: u64) -> RunError {
    RunError::Panic(
        TaskPanic::new("run_until predicate", panic_message(payload)).with_iteration(iteration),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::promise_pair;
    use crate::graph::Work;

    fn batch(cond: RunCondition) -> (PendingRun, crate::future::SharedFuture<RunResult>) {
        let (promise, future) = promise_pair();
        (PendingRun { cond, promise }, future)
    }

    fn topo_of(graph: Graph) -> std::sync::Arc<Topology> {
        Topology::new(graph, FailurePolicy::ContinueAll)
    }

    #[test]
    fn record_panic_keeps_first() {
        let topo = topo_of(Graph::new());
        topo.record_panic(TaskPanic::new("a", "first"));
        topo.record_panic(TaskPanic::new("b", "second"));
        assert_eq!(
            topo.error
                .lock()
                .as_ref()
                .unwrap()
                .as_panic()
                .unwrap()
                .message,
            "first"
        );
    }

    #[test]
    fn sanitize_verdict_cached_at_construction() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        unsafe {
            crate::graph::Node::connect(a, b);
            crate::graph::Node::connect(b, a);
        }
        let topo = topo_of(g);
        assert!(matches!(topo.fatal(), Some(RunError::InvalidGraph(_))));
    }

    #[test]
    fn count_batch_runs_and_settles() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        assert!(topo.fatal().is_none());
        let (b, future) = batch(RunCondition::Count(2));
        assert!(topo.enqueue(b));
        assert!(!topo.is_settled());
        unsafe {
            assert_eq!(topo.advance(false), Advance::RunIteration);
            let mut published = 0;
            topo.begin_iteration(|s| published = s.len());
            assert_eq!(published, 1);
            // First iteration "completes".
            assert_eq!(topo.advance(true), Advance::RunIteration);
            assert!(!future.is_ready());
            topo.begin_iteration(|_| {});
            // Second (last) iteration completes: batch resolves, idle.
            assert_eq!(topo.advance(true), Advance::Idle);
        }
        assert!(future.get().is_ok());
        assert_eq!(topo.iterations(), 2);
        assert!(topo.is_settled());
    }

    #[test]
    fn zero_count_batch_resolves_without_running() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        let (b, future) = batch(RunCondition::Count(0));
        assert!(topo.enqueue(b));
        unsafe {
            assert_eq!(topo.advance(false), Advance::Idle);
        }
        assert!(future.get().is_ok());
        assert_eq!(topo.iterations(), 0);
    }

    #[test]
    fn until_predicate_already_true_runs_nothing() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        let (b, future) = batch(RunCondition::Until(Box::new(|| true)));
        assert!(topo.enqueue(b));
        unsafe {
            assert_eq!(topo.advance(false), Advance::Idle);
        }
        assert!(future.get().is_ok());
        assert_eq!(topo.iterations(), 0);
    }

    #[test]
    fn iteration_error_stops_batch_with_that_error() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        let (b, future) = batch(RunCondition::Count(10));
        assert!(topo.enqueue(b));
        unsafe {
            assert_eq!(topo.advance(false), Advance::RunIteration);
            topo.begin_iteration(|_| {});
            topo.record_panic(TaskPanic::new("t", "boom"));
            assert_eq!(topo.advance(true), Advance::Idle);
        }
        let err = future.get().expect_err("batch must fail");
        assert_eq!(err.as_panic().unwrap().message, "boom");
        assert_eq!(topo.iterations(), 1);
    }

    #[test]
    fn batches_queue_fifo() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        let (b1, f1) = batch(RunCondition::Count(1));
        let (b2, f2) = batch(RunCondition::Count(1));
        assert!(topo.enqueue(b1));
        assert!(!topo.enqueue(b2)); // already running: queued, not claimed
        unsafe {
            assert_eq!(topo.advance(false), Advance::RunIteration);
            topo.begin_iteration(|_| {});
            // Batch 1 ends; batch 2 starts without going idle.
            assert_eq!(topo.advance(true), Advance::RunIteration);
            assert!(f1.is_ready());
            assert!(!f2.is_ready());
            topo.begin_iteration(|_| {});
            assert_eq!(topo.advance(true), Advance::Idle);
        }
        assert!(f2.get().is_ok());
    }

    #[test]
    fn run_ids_are_fresh_per_iteration() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        let (b, _f) = batch(RunCondition::Count(2));
        topo.enqueue(b);
        unsafe {
            topo.advance(false);
            topo.begin_iteration(|_| {});
            let first = topo.run_id();
            topo.advance(true);
            topo.begin_iteration(|_| {});
            assert_ne!(topo.run_id(), first);
            topo.advance(true);
        }
    }
}
