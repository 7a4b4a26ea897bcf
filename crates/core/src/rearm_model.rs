//! Model-checking harness for the self re-arm → finalize → re-dispatch
//! handoff of reusable topologies.
//!
//! Only compiled under the `rustflow_check` cargo feature, where the
//! [`crate::sync`] facade resolves to the deterministic interleaving
//! checker's shims — so the **production** [`Topology`] state machine
//! (`enqueue` / `advance` / `begin_iteration`) and the production
//! completion bookkeeping ([`rearm_and_release`], the one copy the
//! scheduler's `complete` runs) are what the checker explores, not a
//! hand-written re-implementation.
//!
//! The harness replaces the work-stealing executor with the smallest
//! faithful stand-in: a single blocking ready-queue (facade mutex +
//! condvar) plays the role of the deques/injector, and
//! [`RearmHarness::execute`] runs a node and hands it to
//! [`rearm_and_release`]: the node reloads its own join counter, counts
//! its successors down (an Acquire load that reads 1 marks the last
//! arrival, which skips its decrement; any other arrival decrements with
//! AcqRel), and a sink counts the topology's pending sinks down, the last
//! one taking the driver role. Replacing the
//! queues is sound for this model because what's under test is the
//! *re-arm ordering*, not the queue protocol (the queues have their own
//! models): any lost or premature token becomes a blocked `pop`, which
//! the checker reports as a deadlock, and every node's closure cell is
//! race-checked across iterations.
//!
//! The interesting race surface: a node's reload against the next
//! iteration. With the `rearm_publish` weakening (reload after the
//! releases), the sink that ends iteration *k* reloads its join counter
//! only after the driver published iteration *k+1*, so a source of *k+1*
//! can count it down first and the late reload undoes that: the fan-in
//! successor is never readied and the batch never completes. With
//! `join_release` (Relaxed join-counter decrements), the first finisher
//! of the fan-in publishes nothing to the node that ends the iteration,
//! and its closure's next run races with its last one. With
//! `join_last_acquire` (the last arrival's load Relaxed), the first
//! finisher publishes but the last arrival, reading 1, Acquires nothing:
//! the same race from the other end.

use crate::error::{FailurePolicy, RunResult};
use crate::future::{promise_pair, SharedFuture};
use crate::graph::{Graph, Node, RawNode, Work, WorkKind};
use crate::scheduler::rearm_and_release;
use crate::sync::{AtomicUsize, Condvar, Mutex};
use crate::topology::{Advance, PendingRun, RunCondition, Topology};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A miniature executor around a production [`Topology`], exposing the
/// exact operations a model thread needs: blocking [`RearmHarness::pop`]
/// and completion-mirroring [`RearmHarness::execute`].
pub struct RearmHarness {
    topo: Arc<Topology>,
    /// Ready tasks, in the role of the executor's queues. Blocking pop:
    /// a token lost by incorrect re-arm ordering surfaces as a deadlock.
    ready: Mutex<VecDeque<usize>>,
    cv: Condvar,
    /// Per-node execution counters, index-aligned with the graph.
    counters: Vec<Arc<AtomicUsize>>,
    /// Tokens popped but skipped because the topology was cancelled —
    /// the harness twin of the executor's skip path (bookkeeping still
    /// runs, the closure does not).
    skips: AtomicUsize,
    /// Completion future of the single submitted batch.
    future: SharedFuture<RunResult>,
}

impl RearmHarness {
    /// Builds the minimal fan-in graph `A → C ← B` in a reusable
    /// topology, submits one `Count(runs)` batch through the production
    /// path, and starts the first iteration on the calling thread (so the
    /// model's concurrency begins with the workers, not the setup).
    ///
    /// Tokens published per iteration: `A`, `B`, then `C` once both
    /// predecessors finished — `3 * runs` total; spawn workers whose pop
    /// counts sum to exactly that.
    pub fn fan_in(runs: u64) -> Arc<RearmHarness> {
        let mut g = Graph::new();
        let counters: Vec<Arc<AtomicUsize>> =
            (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let count = |c: &Arc<AtomicUsize>| {
            let c = Arc::clone(c);
            Work::new_static(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
        };
        let a = g.emplace(count(&counters[0]));
        let b = g.emplace(count(&counters[1]));
        let c = g.emplace(count(&counters[2]));
        // SAFETY: single-threaded build phase.
        unsafe {
            Node::connect(a, c);
            Node::connect(b, c);
        }
        let topo = Topology::new(g, FailurePolicy::ContinueAll);
        assert!(topo.fatal().is_none(), "fan-in graph must be valid");
        let (promise, future) = promise_pair();
        let harness = Arc::new(RearmHarness {
            topo: Arc::clone(&topo),
            ready: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            counters,
            skips: AtomicUsize::new(0),
            future,
        });
        let claimed = topo.enqueue(PendingRun {
            cond: RunCondition::Count(runs),
            promise,
        });
        assert!(claimed, "fresh topology must be claimable");
        harness.drive(false);
        harness
    }

    /// Steps the production batch state machine as the current driver and
    /// publishes the next iteration's sources into the ready queue —
    /// the harness twin of the executor's `advance_topology`.
    fn drive(&self, iteration_finished: bool) {
        // SAFETY: the caller holds the driver role — it claimed the idle
        // topology at submission, or performed the final sink count-down
        // of an iteration (see `execute`).
        match unsafe { self.topo.advance(iteration_finished, || {}) } {
            Advance::RunIteration => {
                // SAFETY: driver role; quiescent between iterations.
                unsafe {
                    self.topo.begin_iteration(|sources| {
                        let mut q = self.ready.lock();
                        q.extend(sources.iter().copied());
                        self.cv.notify_all();
                    });
                }
            }
            Advance::Idle => {}
        }
    }

    /// Blocking pop of the next ready task — the stand-in for a worker's
    /// pop/steal round. Blocks forever (a modeled deadlock) if re-arm
    /// ordering loses the token this worker is owed.
    pub fn pop(&self) -> usize {
        let mut q = self.ready.lock();
        loop {
            if let Some(t) = q.pop_front() {
                return t;
            }
            self.cv.wait(&mut q);
        }
    }

    /// Runs a popped task and performs the executor's completion
    /// bookkeeping through the production [`rearm_and_release`]: the node
    /// reloads its join counter, counts each successor's down (the last
    /// arrival publishes it) and, as a sink, the topology's pending sinks,
    /// whose final decrement takes the driver role and starts the next
    /// iteration or finishes the batch.
    pub fn execute(&self, token: usize) {
        let node = token as RawNode;
        // SAFETY: the scheduling protocol hands each published token to
        // exactly one worker; the topology (and the nodes) outlive the
        // harness via the `topo` Arc.
        unsafe {
            // The executor's cancellation skip path: an Acquire load of the
            // cancel flag elides the closure but still performs the full
            // completion bookkeeping below, so token accounting (and hence
            // batch finalization) is unchanged.
            if self.topo.is_cancelled() {
                self.skips.fetch_add(1, Ordering::Relaxed);
            } else {
                match (*node).structure.work.get_mut().kind() {
                    WorkKind::Static(f) => f.call(),
                    _ => unreachable!("harness graphs hold static work only"),
                }
            }
            rearm_and_release(
                node,
                |s| {
                    let mut q = self.ready.lock();
                    q.push_back(s as usize);
                    self.cv.notify_all();
                },
                // The iteration's last sink: we are the driver.
                |_| self.drive(true),
            );
        }
    }

    /// Per-node execution counts, index-aligned with emplacement order
    /// (`[A, B, C]` for [`RearmHarness::fan_in`]).
    pub fn executions(&self) -> Vec<usize> {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Requests cooperative cancellation through the production
    /// [`Topology::cancel`] path (error recorded, then flag published).
    /// Returns `false` if the topology had already finalized.
    pub fn cancel(&self) -> bool {
        self.topo.cancel()
    }

    /// Tokens that were popped but skipped due to cancellation.
    pub fn skips(&self) -> usize {
        self.skips.load(Ordering::Relaxed)
    }

    /// The batch result, if the batch has resolved.
    pub fn result(&self) -> Option<RunResult> {
        self.future.try_get()
    }
}
