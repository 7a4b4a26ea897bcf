//! Algorithm 1 of the paper (§III-E), and nothing else: the worker loop
//! and the per-task call chain `execute` → `complete` → `schedule`.
//!
//! Each worker owns a Chase–Lev deque ([`crate::wsq`]) plus an **exclusive
//! task cache**: when a finishing task makes exactly one successor ready,
//! that successor goes straight into the cache and is executed next by the
//! same worker — linear chains run speculatively with no queue traffic and
//! no wake-ups (Algorithm 1 lines 16–25). A worker whose own queues are
//! empty **explores** before it parks (lines 3–13 as Taskflow's later
//! executor runs them, arXiv 2004.10908): one spinning bracket around a
//! bounded number of steal rounds, the first few separated by a CPU spin
//! hint and the rest by a yield, with the stop flag read every round.
//! Only when the bound runs out does it park on the **idler list**
//! ([`crate::notifier`]), re-scanning every queue under the notifier's
//! Dekker protocol first; wakers pop exactly one spare worker. A thief
//! that leaves the bracket holding a task as the last spinner wakes one
//! parked peer (the ramp-up wake), because pushes made while it spun
//! skipped theirs. Otherwise one rule wakes a worker: a push onto a deque
//! while no thief is spinning ([`schedule`]). The paper's other one, a
//! 1-in-64 coin after every drained chain (lines 26–28), is not kept: the
//! spinning rule already reaches every pushed task, and Taskflow's later
//! executor has no such coin either.
//!
//! Beside the workers' lanes sit a few **guest seats**: the same deque,
//! cache slot and counters, owned for the length of one call by a thread
//! that waits on a run it has just dispatched ([`guest_loop`]). A guest
//! runs the inner loop above with one steal round instead of an
//! exploration, since it must not spin on its caller's thread, and never
//! parks here: when the run has resolved, or a round finds every queue
//! empty, it leaves and its caller blocks on the run's promise. Thieves
//! and the park re-check scan a seat exactly like a peer's deque.
//!
//! Serving policy (tenants, admission, fair queueing, breakers) lives
//! beside this module, not in it: the scheduler names no serving type and
//! leaves for the executor core through one call, [`advance_topology`],
//! when an iteration's last sink completes; a failed task's retry is its
//! own policy and its topology's cancel flag, nothing more. Nor does it
//! know who watches: every scheduling event goes to the observers through
//! one call, [`emit`], and live introspection is one observer among them
//! (`tests/safety_audit.rs` holds it to all of that).

use crate::error::{panic_message, FailurePolicy, RunError, TaskPanic};
use crate::executor::{advance_topology, emit, Inner, NO_LABEL};
use crate::graph::{RawNode, WorkKind};
use crate::observer::{SchedEventKind, TaskSpanInfo, DISPATCH_LANE};
use crate::stats::{Counter, Metric, WorkerStats, LANE_METRICS};
use crate::subflow::Subflow;
use crate::sync::{fence, thread, AtomicU64, AtomicUsize};
use crate::topology::Topology;
use crate::wsq;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Per-lane state visible to other threads: one per worker, then one per
/// guest seat.
pub(crate) struct WorkerShared {
    pub(crate) stealer: wsq::Stealer,
    /// `true` for a guest seat's lane.
    guest: bool,
    /// Diagnostic counters (advisory), indexed by [`Counter`]. Single
    /// writer: only the thread holding the lane bumps them (see
    /// [`WorkerShared::count`]); any thread may [`snapshot`](Self::snapshot).
    counters: [AtomicU64; Counter::COUNT],
}

impl WorkerShared {
    pub(crate) fn new(stealer: wsq::Stealer, guest: bool) -> WorkerShared {
        WorkerShared {
            stealer,
            guest,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// One more of `counter` on this lane: a load and a store, no locked
    /// read-modify-write.
    ///
    /// ORDERING: Relaxed suffices because the lane has one writer at a
    /// time: a worker for its whole life, a guest for one seat tenure. A
    /// seat passes between guests through the `seats` mutex, whose
    /// release/acquire makes the last tenure's stores visible to the next
    /// holder's load, so no bump is lost. Readers (`snapshot`) see each
    /// word whole and never decreasing (coherence), just not as a cut
    /// across words or lanes. `tests/safety_audit.rs` holds every call
    /// site to the calling lane.
    #[inline]
    fn count(&self, counter: Counter) {
        let word = &self.counters[counter as usize];
        word.store(word.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// What the counters read right now.
    pub(crate) fn snapshot(&self) -> WorkerStats {
        let words = self
            .counters
            .iter()
            .map(|word| word.load(Ordering::Relaxed));
        let stats = WorkerStats {
            guest: self.guest,
            ..WorkerStats::default()
        };
        Metric::load(LANE_METRICS, words, stats)
    }
}

/// Per-lane private state: a worker thread's for its whole life, a guest
/// seat's for whoever holds the seat.
pub(crate) struct WorkerCtx {
    id: usize,
    owner: wsq::Owner,
    /// The exclusive task cache (Algorithm 1); 0 = empty.
    cache: usize,
    last_victim: usize,
}

impl WorkerCtx {
    /// Lane `id` of `lanes`, owning `owner`.
    pub(crate) fn new(id: usize, owner: wsq::Owner, lanes: usize) -> WorkerCtx {
        WorkerCtx {
            id,
            owner,
            cache: 0,
            last_victim: (id + 1) % lanes,
        }
    }

    /// Line 2: the cache slot, then the lane's own deque; 0 = neither.
    #[inline]
    fn next_local(&mut self) -> usize {
        match std::mem::take(&mut self.cache) {
            0 => self.owner.pop().unwrap_or(0),
            t => t,
        }
    }
}

pub(crate) fn worker_loop(inner: &Inner, mut ctx: WorkerCtx) {
    loop {
        // ORDERING: Acquire pairs with the SeqCst stop store in `drop`,
        // so a stopping worker sees all pre-shutdown writes.
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
        // Line 2: own queue first (the cache was drained last round).
        let mut t = ctx.next_local();
        // Line 3: steal, for a bounded while.
        if t == 0 {
            t = explore(inner, &mut ctx);
        }
        // Lines 5–13: park when the exploration found nothing.
        if t == 0 {
            // SAFETY: deliberately WRONG — this plain read races with the
            // plain write in `execute`; it is the bug this mutation seeds
            // for the sanitizer to catch.
            #[cfg(rustflow_weaken = "seed_plain_race")]
            let _ = unsafe { *inner.race_scratch.get() };
            inner.shareds[ctx.id].count(Counter::Parks);
            emit(inner, ctx.id, NO_LABEL, || SchedEventKind::Park);
            inner
                .notifier
                .wait(ctx.id, || all_queues_empty(inner), &inner.stop);
            continue;
        }
        run_chain(inner, &mut ctx, t);
    }
}

/// The same loop on a guest seat, for a thread that waits on a run it has
/// just handed to `ctx` (see `Executor::run_topology`): cache, own deque,
/// then `done`, then one steal round. It returns when `done()` holds or
/// when a round found nothing and every queue is empty, which is where a
/// worker would park; either way the seat's cache and deque are empty, so
/// the next guest inherits no task. It never parks on the idler list: its
/// caller blocks on the run's promise instead.
pub(crate) fn guest_loop(inner: &Inner, ctx: &mut WorkerCtx, done: impl Fn() -> bool) {
    loop {
        let mut t = ctx.next_local();
        if t == 0 {
            if done() {
                return;
            }
            t = steal_round(inner, ctx);
        }
        if t == 0 {
            // A push that saw this guest spinning skipped its wake-up
            // (`schedule`). A worker in that position re-checks every
            // queue on its way to parking; so does a guest on its way out.
            // ORDERING: SeqCst fence — orders the spinner-count decrement
            // in `steal_round` before the scan, the second half of the
            // Dekker pair with `schedule`'s fence: the pusher saw no
            // spinner and woke a worker, or this scan sees its push.
            fence(Ordering::SeqCst);
            if all_queues_empty(inner) {
                return;
            }
            continue;
        }
        run_chain(inner, ctx, t);
    }
}

/// `true` when no deque (workers' and seats') and no injector slot holds a
/// task: the re-check a thief makes before it stops looking.
fn all_queues_empty(inner: &Inner) -> bool {
    inner.shareds.iter().all(|s| s.stealer.is_empty()) && inner.injector.is_empty()
}

/// The first steal rounds of an exploration, each followed by a CPU spin
/// hint: for a task a busy peer is about to push.
const SPIN_ROUNDS: u32 = 4;
/// Steal rounds an exploration may take in all; the rest, past
/// [`SPIN_ROUNDS`], are each followed by a yield. ≈40–70 µs of looking on
/// a 2-vCPU box before a worker pays a park and its unpark.
const EXPLORE_ROUNDS: u32 = SPIN_ROUNDS + 100;

/// Line 3 for a worker: up to [`EXPLORE_ROUNDS`] steal rounds inside one
/// spinning bracket; 0 when the bound ran out or the executor stops. The
/// spinning counter gates redundant wake-ups from concurrent pushes (see
/// `Inner::num_spinning`), so a thief that finds a task as the last
/// spinner wakes one parked peer for the pushes that skipped theirs.
fn explore(inner: &Inner, ctx: &mut WorkerCtx) -> usize {
    // ORDERING: SeqCst bracket around the steal rounds — the spinner
    // count shares the Dekker total order with `schedule`'s fence, so a
    // submitter either sees a spinner (and skips the wake) or the
    // spinner's rounds or its park re-scan see the push.
    inner.num_spinning.fetch_add(1, Ordering::SeqCst);
    let mut round = 1;
    let t = loop {
        let t = try_steal(inner, ctx);
        // ORDERING: Acquire pairs with the SeqCst stop store in `drop`,
        // as at the top of `worker_loop`.
        if t != 0 || round == EXPLORE_ROUNDS || inner.stop.load(Ordering::Acquire) {
            break t;
        }
        if round <= SPIN_ROUNDS {
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
        round += 1;
    };
    // ORDERING: SeqCst closes the bracket above; reading 1 means no other
    // thief was looking when this one stopped.
    let last = inner.num_spinning.fetch_sub(1, Ordering::SeqCst) == 1;
    if t == 0 {
        steal_failed(inner, ctx);
    } else if last {
        wake_one(inner, ctx);
    }
    t
}

/// Line 3 for a guest: one steal round in the same spinning bracket.
fn steal_round(inner: &Inner, ctx: &mut WorkerCtx) -> usize {
    // ORDERING: SeqCst bracket, as in `explore`.
    inner.num_spinning.fetch_add(1, Ordering::SeqCst);
    let t = try_steal(inner, ctx);
    inner.num_spinning.fetch_sub(1, Ordering::SeqCst); // ORDERING: closes the bracket above.
    if t == 0 {
        steal_failed(inner, ctx);
    }
    t
}

/// One failed exploration, counted and reported once however many rounds
/// it took.
fn steal_failed(inner: &Inner, ctx: &WorkerCtx) {
    inner.shareds[ctx.id].count(Counter::StealFails);
    emit(inner, ctx.id, NO_LABEL, || SchedEventKind::StealFail);
}

/// Lines 16–25: run the task, then speculatively drain the cache — a
/// linear chain executes here without touching any queue. Every non-empty
/// take after the first task is a cache hit.
fn run_chain(inner: &Inner, ctx: &mut WorkerCtx, first: usize) {
    // The counter bumps *before* `execute`: execution of the last task
    // finalizes its topology and releases `wait_for_all`, so counting
    // afterwards would let a freshly released reader miss the final
    // increments.
    inner.shareds[ctx.id].count(Counter::Executed);
    execute(inner, ctx, first as RawNode);
    loop {
        let t = std::mem::take(&mut ctx.cache);
        if t == 0 {
            break;
        }
        inner.shareds[ctx.id].count(Counter::CacheHits);
        // SAFETY: the node is armed and its topology alive (same
        // contract as `execute` below, which runs it next).
        let label = unsafe { (*(t as RawNode)).label() };
        emit(inner, ctx.id, label, || SchedEventKind::CacheHit);
        inner.shareds[ctx.id].count(Counter::Executed);
        execute(inner, ctx, t as RawNode);
    }
}

/// One round of stealing: last victim first, then the other lanes, then
/// the external injector. `Retry` results re-attempt the same victim.
/// A miss is counted by the caller, once per exploration.
fn try_steal(inner: &Inner, ctx: &mut WorkerCtx) -> usize {
    let n = inner.shareds.len();
    let me = ctx.id;
    let mut attempts = 2 * n + 2;
    while attempts > 0 {
        attempts -= 1;
        let v = ctx.last_victim;
        if v != me {
            inner.shareds[me].count(Counter::StealAttempts);
            match inner.shareds[v].stealer.steal() {
                wsq::Steal::Success(x) => {
                    inner.shareds[me].count(Counter::Steals);
                    emit(inner, me, NO_LABEL, || SchedEventKind::Steal { victim: v });
                    return x;
                }
                wsq::Steal::Retry => continue, // same victim again
                wsq::Steal::Empty => {}
            }
        }
        ctx.last_victim = (v + 1) % n;
    }
    let Some(x) = inner.injector.pop() else {
        return 0;
    };
    inner.shareds[me].count(Counter::InjectorPops);
    emit(inner, me, NO_LABEL, || SchedEventKind::InjectorPop);
    x
}

/// Schedules a node that just became ready, on the lane that made it so:
/// a worker or guest completing a predecessor, or a guest handed a run's
/// sources at dispatch.
///
/// # Safety
/// `node` must be armed (readied exactly once, by its last arrival) and
/// its topology alive.
pub(crate) unsafe fn schedule(inner: &Inner, ctx: &mut WorkerCtx, node: RawNode) {
    let item = node as usize;
    if ctx.cache == 0 {
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
        wake_one(inner, ctx);
    }
}

/// Wakes one parked worker, if any, on behalf of lane `ctx`.
fn wake_one(inner: &Inner, ctx: &WorkerCtx) {
    if let Some(woken) = inner.notifier.wake_one() {
        inner.shareds[ctx.id].count(Counter::WakesSent);
        emit(inner, ctx.id, NO_LABEL, || SchedEventKind::Wake { woken });
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
            inner.shareds[ctx.id].count(Counter::Skipped);
            emit(inner, ctx.id, (*node).label(), || {
                SchedEventKind::TaskSkipped
            });
            complete(inner, ctx, node);
            return;
        }
        // The execution's identity, built only when somebody listens. Node
        // and parent addresses are stable for the iteration, and the run
        // id cannot change while this node is alive, so the begin and the
        // end event name the same span.
        let span = || TaskSpanInfo {
            node: node as u64,
            parent: (*(*node).state.parent.get()) as u64,
            run: topo.run_id(),
            topology: topo.uid(),
        };
        emit(inner, ctx.id, (*node).label(), || {
            SchedEventKind::TaskBegin { span: span() }
        });
        let retry = (*node).retry_policy();
        let mut attempt: u32 = 0;
        let mut deferred = false;
        loop {
            // `Some(detached)` once a dynamic task's closure has built
            // its subflow.
            let mut spawned = None;
            let outcome = {
                // Publish the executing topology so the closure can poll
                // `this_task::is_cancelled()` / read its iteration.
                let _task_scope = crate::this_task::ContextGuard::enter(topo as *const Topology);
                match (*node).structure.work.get_mut().kind() {
                    WorkKind::Empty => Ok(()),
                    WorkKind::Static(f) => catch_unwind(AssertUnwindSafe(|| f.call())),
                    WorkKind::Dynamic(f) => {
                        // The subgraph spawned last time (the previous
                        // iteration's, or a failed attempt's) is done with.
                        (*node).clear_subflow();
                        let mut sf = Subflow::new(node);
                        let outcome = catch_unwind(AssertUnwindSafe(|| f.call(&mut sf)));
                        spawned = Some(sf.is_detached());
                        outcome
                    }
                }
            };
            if let Err(payload) = &outcome {
                if crate::sync::is_model_abort(payload.as_ref()) {
                    // Engine-internal unwind tearing the model execution
                    // down: the topology may already be freed, so no
                    // bookkeeping — rethrow.
                    std::panic::resume_unwind(outcome.unwrap_err());
                }
                if attempt < retry.limit && !topo.is_cancelled() {
                    attempt += 1;
                    retry_after(inner, ctx, node, attempt, retry.backoff(attempt));
                    continue;
                }
            }
            // The final attempt. A dynamic task publishes what its closure
            // spawned, even after a panic: children built before it still
            // run under ContinueAll.
            if let Some(detached) = spawned {
                deferred = spawn_subflow(inner, ctx, node, detached);
            }
            if let Err(payload) = outcome {
                record_failure(topo, node, payload);
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
        emit(inner, ctx.id, (*node).label(), || SchedEventKind::TaskEnd {
            span: span(),
        });
        if deferred {
            // Drop the spawn sentinel; the last finishing child (or we,
            // right now, if they all already finished) completes the node.
            // The last arrival gathers every child's effects before
            // `complete` runs (see `count_down`).
            if count_down(&(*node).state.nested) {
                complete(inner, ctx, node);
            }
        } else {
            complete(inner, ctx, node);
        }
    }
}

/// A failed attempt will be run again: counts and reports retry
/// `attempt`, then waits out its backoff. Nothing has propagated to the
/// successors or the topology yet, so the retry is invisible to the rest
/// of the graph; a dynamic task's half-built subflow is dropped when the
/// next attempt starts.
///
/// # Safety
/// Caller is the worker executing `node`.
#[cold]
unsafe fn retry_after(
    inner: &Inner,
    ctx: &WorkerCtx,
    node: RawNode,
    attempt: u32,
    pause: Duration,
) {
    inner.shareds[ctx.id].count(Counter::Retries);
    // SAFETY: per this function's contract `node` is live and ours.
    let label = unsafe { (*node).label() };
    emit(inner, ctx.id, label, || SchedEventKind::TaskRetried {
        attempt,
    });
    if !pause.is_zero() {
        std::thread::sleep(pause);
    }
}

/// The final attempt failed: records the panic against the iteration and,
/// under [`FailurePolicy::FailFast`], cancels the rest of the topology.
///
/// # Safety
/// Caller is the worker executing `node`, a node of `topo`.
#[cold]
unsafe fn record_failure(topo: &Topology, node: RawNode, payload: Box<dyn std::any::Any + Send>) {
    // SAFETY: per this function's contract `node` is live and ours.
    let label = unsafe { (*node).label() }.to_string();
    topo.record_panic(
        TaskPanic::new(label, panic_message(&*payload)).with_iteration(topo.iterations()),
    );
    if topo.policy() == FailurePolicy::FailFast {
        // The panic is recorded (and wins over `Cancelled`), so publishing
        // the flag now satisfies the same record-before-publish order
        // `Topology::cancel` keeps.
        topo.cancel_internal();
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
    // subgraph is exclusively ours (cleared when this execution started,
    // so it holds only what this closure spawned).
    let sub = unsafe { (*node).state.subgraph.get_mut() };
    if sub.is_empty() {
        return false;
    }
    // SAFETY: the topology pointer was armed at freeze and its storage is
    // kept alive by the executor's `running` registry while `node` runs.
    let topo_ptr = unsafe { *(*node).state.topology.get() };
    let parent: RawNode = if detached { std::ptr::null_mut() } else { node };
    // Runtime-built graphs get the same sanitation as dispatched ones: a
    // cyclic subflow would keep the topology's sink countdown from ever
    // reaching zero, wedging `wait_for_all`. Record the typed error and
    // spawn nothing (the parent completes as an empty subflow). The sweep
    // also arms every child for this topology, under `parent`.
    //
    // SAFETY: no child has been spawned, so the subgraph is quiescent and
    // ours.
    let swept = unsafe { crate::validate::sweep(sub, topo_ptr, parent) };
    if swept.is_fatal() {
        // SAFETY: as above.
        let diagnostics = unsafe { crate::validate::validate_graph(sub) };
        // SAFETY: `topo_ptr` is live (see above); `record_error` is
        // internally synchronized.
        unsafe { (*topo_ptr).record_error(RunError::InvalidGraph(diagnostics)) };
        return false;
    }
    if detached {
        // A detached subflow's sinks end the iteration with the static
        // ones, so the topology must count them before any child can
        // complete. `node` is still running, so it, or a sink it has yet
        // to release, holds the countdown above zero meanwhile.
        //
        // SAFETY: `topo_ptr` is live; `sinks_left` is an atomic.
        unsafe {
            (*topo_ptr)
                .sinks_left
                .fetch_add(swept.sinks, Ordering::Relaxed)
        };
    } else {
        // A joined subflow's children count down the parent instead: one
        // each, plus a sentinel held by the parent until spawning
        // finishes, so they cannot complete it while we still publish
        // their siblings.
        //
        // SAFETY: `node` is ours (executing worker); `nested` is atomic.
        unsafe { (*node).state.nested.store(sub.len() + 1, Ordering::Relaxed) };
    }
    for &source in &swept.sources {
        // SAFETY: a source is armed (join counter = in-degree = 0) and
        // its topology alive.
        unsafe { schedule(inner, ctx, source as RawNode) };
    }
    !detached
}

/// Completion bookkeeping: re-arm the node and release its successors (or,
/// for a sink, count the topology down), then propagate joined-subflow
/// completion to the parent.
///
/// # Safety
/// Called exactly once per execution of a node, by the worker that
/// finished it (or, for a parent with a joined subflow, by the worker that
/// finished its last child).
unsafe fn complete(inner: &Inner, ctx: &mut WorkerCtx, node: RawNode) {
    let ready = |s| {
        // SAFETY: the last arrival readied `s` exactly once, so this lane
        // is its unique scheduler; its topology is alive, since `s` is
        // still to run.
        unsafe { schedule(inner, ctx, s) }
    };
    // SAFETY: per this function's contract the node is finished and ours.
    let parent = unsafe { rearm_and_release(node, ready, |topo| finalize(inner, topo)) };
    // The last arrival gathers every joined child's effects, and the
    // parent's own, before the parent completes (mirror of the sentinel
    // drop in `execute`; see `count_down`).
    // SAFETY: a non-null parent is a live node awaiting its joined
    // children (this one among them); `nested` is atomic.
    if !parent.is_null() && count_down(unsafe { &(*parent).state.nested }) {
        // SAFETY: the last joined child completes the parent exactly once.
        unsafe { complete(inner, ctx, parent) };
    }
}

// ORDERING: AcqRel on every join-counter decrement — each predecessor that
// is not last Releases its task's effects, and everything it had acquired,
// to the last arrival, which Acquires them all (by its own decrement, or by
// the `LAST_ARRIVAL` load below): a node runs after every dependency in the
// happens-before order, and a sink carries the writes of every node
// upstream of it to the finalizer. The `join_release` weakening drops it to
// Relaxed, for the model and the sanitizer to catch.
const JOIN: Ordering = if cfg!(rustflow_weaken = "join_release") {
    Ordering::Relaxed
} else {
    Ordering::AcqRel
};

// ORDERING: Acquire on the last-arrival load — reading 1 reads from the
// release sequence of every earlier JOIN decrement of the counter, so the
// last arrival Acquires all the other predecessors' effects just as a
// zero-crossing decrement would, and hands them on with the task it
// readies. The `join_last_acquire` weakening drops it to Relaxed, for the
// model and the sanitizer to catch.
const LAST_ARRIVAL: Ordering = if cfg!(rustflow_weaken = "join_last_acquire") {
    Ordering::Relaxed
} else {
    Ordering::Acquire
};

/// One arrival at a join counter: a node's `join_counter` (one arrival
/// per predecessor) or a parent's `nested` (one per joined child, plus
/// the parent's sentinel). Returns `true` for the last of them, the one
/// that readies (or completes) the node. Every count-down of either
/// counter goes through here (`tests/safety_audit.rs` holds it to that).
///
/// An arrival that loads 1 is the last: the counter started at the number
/// of arrivals, only arrivals that are not last decrement it, and the
/// value a node left behind in an earlier iteration was overwritten
/// (reloaded in [`rearm_and_release`], `nested` stored at spawn) before
/// any of this round's arrivals could run. Such an arrival skips its
/// locked decrement and leaves the counter at 1; nothing reads that value
/// before the next reload. A chain pays no RMW at all, and a fan-in pays
/// one per arrival but the last.
#[inline]
fn count_down(counter: &AtomicUsize) -> bool {
    // ORDERING: LAST_ARRIVAL (Acquire) and JOIN (AcqRel) — see their
    // definitions.
    // SAFETY: reading 1 proves every other arrival has decremented, so no
    // thread touches the counter again this round and the skipped RMW
    // loses nothing.
    counter.load(LAST_ARRIVAL) == 1 || counter.fetch_sub(1, JOIN) == 1
}

/// A finished node's completion bookkeeping, the one copy the scheduler's
/// [`complete`] and the re-arm model (`rearm_model.rs`) both run. It
/// reloads the node's join counter from its in-degree, so the node is
/// armed for its next execution, and then releases it: each successor's
/// join counter counts down ([`count_down`]) and `ready` gets the ones
/// this node was the last arrival at; a sink outside any joined subflow
/// counts down its topology's pending sinks instead, and `ended` gets the
/// topology if that was the last.
/// Returns the joined-subflow parent still to be counted down (null for
/// none).
///
/// Two obligations keep the next iteration sound without any thread
/// walking the graph:
///
/// * The reload comes before the first release. A release may end the
///   iteration, and the next one may reach the node's predecessors before
///   this call returns; a late reload would undo their count-downs and
///   wedge the run. The `rearm_publish` weakening moves the reload after
///   the releases, for the model and the sanitizer to catch.
/// * After the last release nothing of the node or its topology is
///   touched: everything needed is read up front. Once a top-level or
///   detached node has released, the iteration can end and the topology be
///   dropped. (A joined child's parent, and the child itself, live on
///   until the parent completes, which waits on the caller's count-down.)
///
/// # Safety
/// Same contract as [`complete`]: `node` is finished and the caller is the
/// only thread completing it. Its back-pointers were armed before it ran.
pub(crate) unsafe fn rearm_and_release(
    node: RawNode,
    mut ready: impl FnMut(RawNode),
    ended: impl FnOnce(*const Topology),
) -> RawNode {
    // SAFETY: per the contract the node is ours; its back-pointers were
    // armed at freeze or spawn and its structure is frozen.
    let (topo, parent, succs, in_degree) = unsafe {
        (
            *(*node).state.topology.get(),
            *(*node).state.parent.get(),
            (*node).structure.successors.get(),
            *(*node).structure.in_degree.get() as usize,
        )
    };
    let sink = succs.is_empty();
    // Relaxed: the next count-down of this counter comes from a
    // predecessor in a later iteration, which starts only after this
    // node's releases below reached the finalizer.
    let reload = || {
        // SAFETY: the node is live until its last release (and, in the
        // weakened build, possibly not — that is the seeded bug).
        unsafe {
            (*node)
                .state
                .join_counter
                .store(in_degree, Ordering::Relaxed)
        }
    };
    #[cfg(not(rustflow_weaken = "rearm_publish"))]
    reload();
    for &s in succs.iter() {
        // SAFETY: `s` is a pending node of the same topology, and the
        // node (whose successor list this is) is live until its last
        // release, this loop's last turn.
        if count_down(unsafe { &(*s).state.join_counter }) {
            ready(s);
        }
    }
    let last_sink = sink && parent.is_null() && {
        // ORDERING: AcqRel — every sink Releases what its join-counter
        // chain Acquired; the zero-crossing Acquires all of it before the
        // finalizer tears the iteration down.
        // SAFETY: a sink's topology is live until its countdown reaches
        // zero, at earliest with this decrement.
        unsafe { (*topo).sinks_left.fetch_sub(1, Ordering::AcqRel) == 1 }
    };
    if last_sink {
        ended(topo);
    }
    // Deliberately WRONG: by now the node may be counted down by the next
    // iteration, or freed with its topology.
    #[cfg(rustflow_weaken = "rearm_publish")]
    reload();
    parent
}

/// Ends the iteration whose last sink just completed, then hands the
/// driver role back to the batch state machine — which either
/// re-dispatches the same topology for its next iteration or retires the
/// keep-alive once every queued batch has resolved.
fn finalize(inner: &Inner, topo_ptr: *const Topology) {
    // SAFETY: the keep-alive registry holds the topology until `advance`
    // transitions it to idle (inside `advance_topology` below), so the
    // pointer is live for this whole call.
    let topo = unsafe { &*topo_ptr };
    emit(inner, DISPATCH_LANE, NO_LABEL, || {
        SchedEventKind::TopologyFinalize {
            info: topo.iteration_info(),
        }
    });
    advance_topology(inner, topo, true, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Node, Work};

    /// `A, B → C`, completed by hand on one thread: the first arrival pays
    /// the decrement, the last one only loads and leaves the counter at 1,
    /// and `C`'s own completion reloads its in-degree.
    #[test]
    fn the_last_arrival_readies_by_a_load_and_the_node_reloads() {
        let mut g = Graph::new();
        let [a, b, c] = [(); 3].map(|_| g.emplace(Work::empty()));
        // SAFETY: single-threaded build phase.
        unsafe {
            Node::connect(a, c);
            Node::connect(b, c);
        }
        let topo = Topology::new(g, FailurePolicy::ContinueAll);
        assert!(topo.fatal().is_none());
        topo.sinks_left.store(1, Ordering::Relaxed);
        // SAFETY: the topology owns the nodes and nothing else runs them.
        let join = |n: RawNode| unsafe { (*n).state.join_counter.load(Ordering::Relaxed) };
        assert_eq!(join(c), 2, "armed from the in-degree");
        let mut readied = Vec::new();
        let mut ended = 0;
        // SAFETY: each call completes a node that is armed and ours.
        unsafe { rearm_and_release(a, |s| readied.push(s), |_| ended += 1) };
        assert_eq!((join(c), readied.len()), (1, 0), "first arrival: 2 → 1");
        // SAFETY: as above.
        unsafe { rearm_and_release(b, |s| readied.push(s), |_| ended += 1) };
        assert_eq!(join(c), 1, "the last arrival skips its decrement");
        assert_eq!(readied, vec![c], "the last arrival readies C once");
        assert_eq!(ended, 0);
        // SAFETY: as above.
        let parent = unsafe { rearm_and_release(c, |s| readied.push(s), |_| ended += 1) };
        assert!(parent.is_null());
        assert_eq!(join(c), 2, "C's completion reloads its in-degree");
        assert_eq!((readied.len(), ended), (1, 1), "C is the only sink");
        assert_eq!((join(a), join(b)), (0, 0));
    }
}
