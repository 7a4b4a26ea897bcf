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
//!   ([`validate::sweep`]): the sweep arms every node for this topology
//!   and yields the source set, the sink count and the sanitizer's
//!   verdict, cached in [`Topology::fatal`]. The findings behind a fatal
//!   verdict are built only then.
//! * The per-run **state** of a node (join counter, subflow subgraph) is
//!   kept by the node itself: the worker that completes a node reloads its
//!   join counter from the in-degree before it releases any successor, and
//!   a dynamic task drops its previous subgraph when it next executes. So
//!   no thread walks the graph between iterations:
//!   [`Topology::begin_iteration`] draws a run id, resets the countdown of
//!   sinks still to complete, and publishes the sources.
//!
//! Only a sink can end an iteration, so only a sink outside any joined
//! subflow counts the topology down (a detached subflow adds its own sinks
//! when it spawns; a joined one is covered by its parent, which is pending
//! until its children are done). Every other node's writes reach the
//! finalizer through the join-counter chain that ends at a sink (AcqRel
//! decrements, Acquired by each node's last arrival).
//!
//! Execution requests arrive as [`PendingRun`] *batches* (run once, run
//! `n` times, run until a predicate holds), queued FIFO. At most one batch
//! is active at a time; the state machine in [`Topology::advance`] is
//! driven by whoever holds the *driver* role — the thread that claimed the
//! idle topology on submission, or the worker whose sink completion
//! finished an iteration. The owning
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
    /// Publish the sources ([`Topology::begin_iteration`]).
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
/// publish and the iteration's join-counter and sink chain.
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
    /// Static sinks (nodes without successors), counted once at
    /// construction: what `sinks_left` starts every iteration at.
    sinks: usize,
    /// Sinks of the current iteration that have not completed yet: the
    /// static ones plus those of every detached subflow spawned so far
    /// (a joined subflow's are covered by its pending parent). The
    /// zero-crossing ends the iteration.
    pub(crate) sinks_left: AtomicUsize,
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
    /// `error.is_some()`, written under the `error` lock by
    /// [`Topology::record_error`] and by the take, so that an error-free
    /// finalize reads one word instead of taking the lock.
    errored: AtomicBool,
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
    /// Freezes `graph` into a reusable topology: one sweep arms every node
    /// for it, once for the topology's life, and yields the source set,
    /// the sink count and the sanitizer's verdict, all cached. The
    /// findings are built only behind a fatal verdict; that verdict also
    /// covers a graph whose nodes wait on a predecessor outside it (no
    /// finding names those, but publishing sources whose sinks can never
    /// complete would wedge every waiter). The failure policy is frozen
    /// alongside the structure.
    pub(crate) fn new(graph: Graph, policy: FailurePolicy) -> std::sync::Arc<Topology> {
        std::sync::Arc::new_cyclic(|me| {
            // The nodes' back-pointer: where this topology is about to be
            // placed. Nothing dereferences it before the `Arc` exists.
            let topology = me.as_ptr();
            // SAFETY: the graph was just moved here; no other thread sees
            // it.
            let swept = unsafe { validate::sweep(&graph, topology, std::ptr::null_mut()) };
            let fatal = swept.is_fatal().then(|| {
                // SAFETY: as above.
                RunError::InvalidGraph(unsafe { validate::validate_graph(&graph) })
            });
            // Kept for the topology's whole life: give back the queue's
            // slack.
            let mut sources = swept.sources;
            sources.shrink_to_fit();
            Topology {
                uid: NEXT_TOPOLOGY_UID.fetch_add(1, Ordering::Relaxed),
                run_id: AtomicU64::new(0),
                iterations: AtomicU64::new(0),
                graph: SyncCell::new(graph),
                sources,
                sinks: swept.sinks,
                sinks_left: AtomicUsize::new(0),
                state: AtomicUsize::new(IDLE),
                current: SyncCell::new(None),
                pending: Mutex::new(VecDeque::new()),
                error: Mutex::new(None),
                errored: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
                policy,
                fatal,
                tenant: AtomicU64::new(0),
                stamps: RunStamps::new(),
                registration: AtomicUsize::new(0),
            }
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
    /// incremented only after the iteration's finalize event fired.
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

    /// Sink tasks of the current iteration that have not completed yet,
    /// detached subflows' sinks included (advisory; racy against workers
    /// counting down). Not a count of live tasks: a run whose sinks wait
    /// on a long chain reads the same number until the chain ends.
    pub(crate) fn sinks_left(&self) -> usize {
        self.sinks_left.load(Ordering::Relaxed)
    }

    /// Batches queued behind the currently executing one (advisory).
    pub(crate) fn pending_batches(&self) -> usize {
        self.pending.lock().len()
    }

    /// `true` while an error (panic, cancellation, invalid subflow) is
    /// recorded for the in-flight iteration and not yet taken by the
    /// driver (advisory).
    pub(crate) fn has_error(&self) -> bool {
        self.errored.load(Ordering::Relaxed)
    }

    /// `true` while the recorded error is a genuine task failure (panic)
    /// rather than a cancellation — the circuit breaker's signal. Read by
    /// the driver before `advance` consumes the error; with no error
    /// recorded it takes no lock.
    pub(crate) fn has_panic(&self) -> bool {
        self.has_error() && matches!(&*self.error.lock(), Some(RunError::Panic(_)))
    }

    /// Takes the recorded error, if any; with none recorded it takes no
    /// lock. Relaxed suffices for the flag: every writer reaches the
    /// driver through a happens-before edge of its own — a task's
    /// recording through the sink chain that ended the iteration, a
    /// `cancel` through the `cancelled` flag the drain Acquires — and one
    /// that has none raced the take and is cleared by the next.
    fn take_error(&self) -> Option<RunError> {
        if !self.has_error() {
            return None;
        }
        let mut guard = self.error.lock();
        self.errored.store(false, Ordering::Relaxed);
        guard.take()
    }

    /// `true` when no batch is executing or queued: the graph is quiescent
    /// and may be inspected (DOT dumps) or reclaimed (`gc`).
    pub(crate) fn is_settled(&self) -> bool {
        // ORDERING: Acquire pairs with the driver's Release IDLE store,
        // so a settled topology's final graph state is visible.
        self.state.load(Ordering::Acquire) == IDLE
    }

    /// Queues `batch` FIFO. Returns `true` when the caller claimed the
    /// idle topology and is now its driver: the batch is then already the
    /// current one (an idle topology has an empty queue, so nothing is
    /// overtaken), and the caller must call [`Topology::advance`]`(false)`
    /// and act on the outcome.
    ///
    /// The queue mutex serializes this claim against the driver's
    /// own idle transition in `advance`, so a batch is never lost between
    /// "driver saw an empty queue" and "driver went idle".
    pub(crate) fn enqueue(&self, batch: PendingRun) -> bool {
        let mut q = self.pending.lock();
        // ORDERING: AcqRel — the Acquire half sees the outgoing driver's
        // final writes (its `current` included) behind its Release IDLE
        // store.
        let claimed = self
            .state
            .compare_exchange(IDLE, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if claimed {
            // SAFETY: the CAS just made the caller the driver, the only
            // thread that touches `current` until it goes idle again.
            unsafe { *self.current.get_mut() = Some(batch) };
        } else {
            q.push_back(batch);
        }
        claimed
    }

    /// Drives the batch state machine. Called with
    /// `iteration_finished == false` right after claiming the topology in
    /// [`Topology::enqueue`], and with `true` from the executor's finalize
    /// path when an iteration's last sink completed.
    ///
    /// Resolves the promises of batches that end here (last iteration
    /// done, iteration error, zero-count, predicate already true), pops
    /// the next pending batch FIFO, and either asks the driver to run an
    /// iteration or transitions the topology to idle.
    ///
    /// `ended` runs at most once, before anything here can make the
    /// topology idle, and only when this call may end the driver's stint:
    /// at once when an iteration finished, or when the claimed batch needs
    /// no iteration. A claim whose batch runs takes no lock here.
    ///
    /// # Safety
    /// Caller must hold the driver role: it claimed the topology via
    /// `enqueue`, or it performed the final `sinks_left` decrement of an
    /// iteration. At most one driver exists at a time.
    pub(crate) unsafe fn advance(&self, iteration_finished: bool, ended: impl FnOnce()) -> Advance {
        // Promises resolve only *after* the next state is decided: a
        // waiter that observes a resolved future may immediately check
        // `is_settled` (gc, dumps) or resubmit, so the idle transition
        // must never lag behind the resolution it caused.
        let mut resolved = Resolved::default();
        // SAFETY: forwarded driver-role contract.
        let action = unsafe { self.advance_inner(iteration_finished, ended, &mut resolved) };
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
    unsafe fn advance_inner(
        &self,
        iteration_finished: bool,
        ended: impl FnOnce(),
        resolved: &mut Resolved,
    ) -> Advance {
        // SAFETY: driver-exclusive cell per this function's contract.
        let cur = unsafe { self.current.get_mut() };
        let batch = cur.as_mut().expect("a driver always has a batch");
        let outcome = if iteration_finished {
            ended();
            self.iterations.fetch_add(1, Ordering::Relaxed);
            match self.take_error() {
                // An error in iteration k resolves the whole batch with
                // that iteration's error; remaining iterations are
                // abandoned (reference `run_n` semantics).
                Some(e) => Some(Err(e)),
                None => {
                    if let RunCondition::Count(n) = &mut batch.cond {
                        *n -= 1;
                    }
                    batch.cond.finished(self.iterations())
                }
            }
        } else {
            // A claim: `enqueue` made the batch current.
            let outcome = batch.cond.finished(self.iterations());
            if outcome.is_some() {
                ended();
            }
            outcome
        };
        match outcome {
            None => return Advance::RunIteration,
            Some(result) => {
                let batch = cur.take().expect("checked above");
                resolved.push((batch, result));
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
                    let _ = self.take_error();
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
            match next.cond.finished(self.iterations()) {
                Some(result) => resolved.push((next, result)),
                None => {
                    // SAFETY: driver-exclusive cell.
                    unsafe { *self.current.get_mut() = Some(next) };
                    return Advance::RunIteration;
                }
            }
        }
    }

    /// Starts the next iteration: a fresh run id, the sink countdown
    /// reset to the static sink count, then the cached source set handed
    /// to `publish` (which makes the sources visible to workers and wakes
    /// them). No node is touched: each re-armed itself when it completed
    /// in the previous iteration, before releasing anything, so every
    /// join counter is already back at its in-degree.
    ///
    /// # Safety
    /// Caller must hold the driver role and the topology must be
    /// quiescent (no iteration in flight).
    pub(crate) unsafe fn begin_iteration(&self, publish: impl FnOnce(&[usize])) {
        self.run_id.store(
            NEXT_TOPOLOGY_ID.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        // Relaxed: `publish` hands the sources over with Release (the
        // injector, or the helping caller's own lane), and every decrement
        // comes after a source ran.
        self.sinks_left.store(self.sinks, Ordering::Relaxed);
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
            self.errored.store(true, Ordering::Relaxed);
        }
    }

    /// Number of top-level nodes (excludes dynamically spawned subflows);
    /// reported to observers when an iteration starts.
    pub(crate) fn num_static_nodes(&self) -> usize {
        // SAFETY: the node count is frozen at construction.
        unsafe { self.graph.get().len() }
    }
}

impl RunCondition {
    /// Is the batch done before its next iteration? `Count` is
    /// decremented by the caller as each iteration ends, so `Count(0)` is
    /// done; `Until` asks its predicate, and a predicate that panics ends
    /// the batch with that panic, charged to `iteration`.
    fn finished(&mut self, iteration: u64) -> Option<RunResult> {
        match self {
            RunCondition::Count(n) => (*n == 0).then_some(Ok(())),
            RunCondition::Until(pred) => match catch_unwind(AssertUnwindSafe(pred)) {
                Ok(true) => Some(Ok(())),
                Ok(false) => None,
                Err(payload) => {
                    if crate::sync::is_model_abort(payload.as_ref()) {
                        // Engine-internal unwind: never a predicate
                        // failure; rethrow.
                        std::panic::resume_unwind(payload);
                    }
                    let message = panic_message(&*payload);
                    let panic = TaskPanic::new("run_until predicate", message);
                    Some(Err(RunError::Panic(panic.with_iteration(iteration))))
                }
            },
        }
    }
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
            assert_eq!(topo.advance(false, || {}), Advance::RunIteration);
            let mut published = 0;
            topo.begin_iteration(|s| published = s.len());
            assert_eq!(published, 1);
            // First iteration "completes".
            assert_eq!(topo.advance(true, || {}), Advance::RunIteration);
            assert!(!future.is_ready());
            topo.begin_iteration(|_| {});
            // Second (last) iteration completes: batch resolves, idle.
            assert_eq!(topo.advance(true, || {}), Advance::Idle);
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
            assert_eq!(topo.advance(false, || {}), Advance::Idle);
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
            assert_eq!(topo.advance(false, || {}), Advance::Idle);
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
            assert_eq!(topo.advance(false, || {}), Advance::RunIteration);
            topo.begin_iteration(|_| {});
            topo.record_panic(TaskPanic::new("t", "boom"));
            assert_eq!(topo.advance(true, || {}), Advance::Idle);
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
            assert_eq!(topo.advance(false, || {}), Advance::RunIteration);
            topo.begin_iteration(|_| {});
            // Batch 1 ends; batch 2 starts without going idle.
            assert_eq!(topo.advance(true, || {}), Advance::RunIteration);
            assert!(f1.is_ready());
            assert!(!f2.is_ready());
            topo.begin_iteration(|_| {});
            assert_eq!(topo.advance(true, || {}), Advance::Idle);
        }
        assert!(f2.get().is_ok());
    }

    /// The stint hook runs only where a stint may end: after an iteration,
    /// or at a claim whose batch needs none; a claim that runs skips it.
    #[test]
    fn ended_runs_only_where_the_stint_may_end() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        let calls = std::cell::Cell::new(0);
        let ended = || calls.set(calls.get() + 1);
        let (b, _f) = batch(RunCondition::Count(1));
        assert!(topo.enqueue(b));
        unsafe {
            assert_eq!(topo.advance(false, ended), Advance::RunIteration);
            assert_eq!(calls.get(), 0, "a claim that runs reads no stint");
            topo.begin_iteration(|_| {});
            assert_eq!(topo.advance(true, ended), Advance::Idle);
            assert_eq!(calls.get(), 1);
        }
        let (b, _f) = batch(RunCondition::Count(0));
        assert!(topo.enqueue(b));
        unsafe {
            assert_eq!(topo.advance(false, ended), Advance::Idle);
        }
        assert_eq!(calls.get(), 2, "a claim that needs no iteration ends");
    }

    #[test]
    fn run_ids_are_fresh_per_iteration() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        let topo = topo_of(g);
        let (b, _f) = batch(RunCondition::Count(2));
        topo.enqueue(b);
        unsafe {
            topo.advance(false, || {});
            topo.begin_iteration(|_| {});
            let first = topo.run_id();
            topo.advance(true, || {});
            topo.begin_iteration(|_| {});
            assert_ne!(topo.run_id(), first);
            topo.advance(true, || {});
        }
    }
}
