//! Algorithm 1 of the paper (§III-E), and nothing else: the worker loop
//! and the per-task call chain `execute` → `complete` → `schedule`.
//!
//! Each worker owns a Chase–Lev deque ([`crate::wsq`]) plus an **exclusive
//! task cache**: when a finishing task makes exactly one successor ready,
//! that successor goes straight into the cache and is executed next by the
//! same worker — linear chains run speculatively with no queue traffic and
//! no wake-ups (Algorithm 1 lines 16–25). Workers that find every queue
//! empty park themselves on the **idler list** ([`crate::notifier`]), from
//! which wakers pop exactly one spare worker (lines 5–13). One rule wakes
//! a worker: a push onto a deque while no thief is spinning ([`schedule`]).
//! The paper's other one, a 1-in-64 coin after every drained chain (lines
//! 26–28), is not kept: the spinning rule already reaches every pushed
//! task, and Taskflow's later executor has no such coin either.
//!
//! Beside the workers' lanes sit a few **guest seats**: the same deque,
//! cache slot and counters, owned for the length of one call by a thread
//! that waits on a run it has just dispatched ([`guest_loop`]). A guest
//! runs the inner loop above (cache, own deque, one steal round) and never
//! parks here: when the run has resolved, or a round finds every queue
//! empty, it leaves and its caller blocks on the run's promise. Thieves
//! and the park re-check scan a seat exactly like a peer's deque.
//!
//! Serving policy (tenants, admission, fair queueing, breakers, retry
//! budgets) lives beside this module, not in it: the scheduler names no
//! serving type and leaves through two calls on the executor core,
//! [`advance_topology`] when an iteration's last node completes and
//! [`Inner::may_retry`] before it re-runs a failed task
//! (`tests/safety_audit.rs` holds it to that).

use crate::error::{panic_message, FailurePolicy, RunError, TaskPanic};
use crate::executor::{advance_topology, notify_observers, Inner};
use crate::graph::{RawNode, WorkKind};
use crate::introspect::CurrentTask;
use crate::stats::{Counter, Metric, WorkerStats, LANE_METRICS};
use crate::subflow::Subflow;
use crate::sync::{fence, AtomicU64, Mutex};
use crate::topology::Topology;
use crate::wsq;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// Per-lane state visible to other threads: one per worker, then one per
/// guest seat.
pub(crate) struct WorkerShared {
    pub(crate) stealer: wsq::Stealer,
    /// `true` for a guest seat's lane.
    guest: bool,
    /// The task this worker is executing right now, published only while
    /// live introspection is on (`Inner::introspect_live`). Uncontended
    /// in steady state: the worker writes twice per task, the collector
    /// reads once per period.
    pub(crate) current: Mutex<Option<CurrentTask>>,
    /// Diagnostic counters (relaxed; advisory), indexed by [`Counter`].
    /// Each lane writes only its own set, so there is no cross-lane
    /// contention.
    counters: [AtomicU64; Counter::COUNT],
}

impl WorkerShared {
    pub(crate) fn new(stealer: wsq::Stealer, guest: bool) -> WorkerShared {
        WorkerShared {
            stealer,
            guest,
            current: Mutex::new(None),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// One more of `counter` on this lane.
    #[inline]
    fn count(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// What the counters read right now; `ring_dropped` is left for the
    /// caller (the tracer counts it).
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
        // Line 3: steal.
        if t == 0 {
            t = steal_round(inner, &mut ctx);
        }
        // Lines 5–13: park when everything is empty.
        if t == 0 {
            // SAFETY: deliberately WRONG — this plain read races with the
            // plain write in `execute`; it is the bug this mutation seeds
            // for the sanitizer to catch.
            #[cfg(rustflow_weaken = "seed_plain_race")]
            let _ = unsafe { *inner.race_scratch.get() };
            inner.shareds[ctx.id].count(Counter::Parks);
            notify_observers(inner, |ob| ob.on_park(ctx.id));
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

/// Line 3: one steal round, counted as spinning while it lasts. The
/// spinning counter gates redundant wake-ups from concurrent pushes (see
/// `Inner::num_spinning`).
fn steal_round(inner: &Inner, ctx: &mut WorkerCtx) -> usize {
    // ORDERING: SeqCst bracket around the steal attempt — the spinner
    // count shares the Dekker total order with `schedule`'s fence, so a
    // submitter either sees a spinner (and skips the wake) or the
    // spinner's scan sees its push.
    inner.num_spinning.fetch_add(1, Ordering::SeqCst);
    let t = try_steal(inner, ctx);
    inner.num_spinning.fetch_sub(1, Ordering::SeqCst); // ORDERING: closes the bracket above.
    t
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
        notify_observers(inner, |ob| ob.on_cache_hit(ctx.id, label));
        inner.shareds[ctx.id].count(Counter::Executed);
        execute(inner, ctx, t as RawNode);
    }
}

/// One round of stealing: last victim first, then the other lanes, then
/// the external injector. `Retry` results re-attempt the same victim.
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
            inner.shareds[me].count(Counter::InjectorPops);
            notify_observers(inner, |ob| ob.on_injector_pop(me));
            x
        }
        None => {
            inner.shareds[me].count(Counter::StealFails);
            notify_observers(inner, |ob| ob.on_steal_fail(me));
            0
        }
    }
}

/// Schedules a node that just became ready, on the lane that made it so:
/// a worker or guest completing a predecessor, or a guest handed a run's
/// sources at dispatch.
///
/// # Safety
/// `node` must be armed (join counter reached zero exactly once) and its
/// topology alive.
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
        if let Some(woken) = inner.notifier.wake_one() {
            inner.shareds[ctx.id].count(Counter::WakesSent);
            notify_observers(inner, |ob| ob.on_wake(ctx.id, woken));
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
            inner.shareds[ctx.id].count(Counter::Skipped);
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
                match (*node).structure.work.get_mut().kind() {
                    WorkKind::Empty => {}
                    WorkKind::Static(f) => {
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f.call())) {
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
                                && inner.may_retry(topo);
                            failed = Some(payload);
                        }
                    }
                    WorkKind::Dynamic(f) => {
                        let mut sf = Subflow::new(node);
                        match catch_unwind(AssertUnwindSafe(|| f.call(&mut sf))) {
                            Ok(()) => deferred = spawn_subflow(inner, ctx, node, sf.is_detached()),
                            Err(payload) => {
                                if crate::sync::is_model_abort(payload.as_ref()) {
                                    // See the static arm above.
                                    std::panic::resume_unwind(payload);
                                }
                                will_retry = attempt < retry.limit
                                    && !topo.is_cancelled()
                                    && inner.may_retry(topo);
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
                inner.shareds[ctx.id].count(Counter::Retries);
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
    advance_topology(inner, topo, true, None);
}
