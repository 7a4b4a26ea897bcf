//! Iteration semantics of the reusable-topology API: `run`, `run_n`,
//! `run_until`, their interaction with subflows, failures, the legacy
//! one-shot `dispatch` path, and the `gc`/watermark bookkeeping; and the
//! exact counts behind them: every node re-arms itself as it completes,
//! so each runs once per iteration after its predecessors, across
//! cancelled and failed batches and re-spawned subflows. Whatever could
//! wedge runs under a 30 s guard.

use proptest::prelude::*;
use rustflow::{Executor, Taskflow};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

mod common;

fn counting_flow(workers: usize) -> (Taskflow, Arc<AtomicUsize>) {
    let tf = Taskflow::with_executor(Executor::new(workers));
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    tf.emplace(move || {
        c.fetch_add(1, Ordering::Relaxed);
    });
    (tf, counter)
}

#[test]
fn run_n_executes_the_graph_n_times_without_rebuilding() {
    let tf = Taskflow::with_executor(Executor::new(4));
    let counter = Arc::new(AtomicUsize::new(0));
    // Diamond a → {b, c} → d so every iteration exercises real edges.
    let c0 = Arc::clone(&counter);
    let a = tf.emplace(move || {
        c0.fetch_add(1, Ordering::Relaxed);
    });
    let c1 = Arc::clone(&counter);
    let b = tf.emplace(move || {
        c1.fetch_add(1, Ordering::Relaxed);
    });
    let c2 = Arc::clone(&counter);
    let c = tf.emplace(move || {
        c2.fetch_add(1, Ordering::Relaxed);
    });
    let c3 = Arc::clone(&counter);
    let d = tf.emplace(move || {
        c3.fetch_add(1, Ordering::Relaxed);
    });
    a.precede([b, c]);
    b.precede(d);
    c.precede(d);

    tf.run_n(100).get().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 400);
    assert_eq!(tf.num_iterations(), 100);
    // One frozen topology serves every iteration.
    assert_eq!(tf.num_topologies(), 1);

    // A later batch re-arms the same topology again.
    tf.run().get().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 404);
    assert_eq!(tf.num_iterations(), 101);
    assert_eq!(tf.num_topologies(), 1);
}

#[test]
fn run_n_zero_completes_immediately_without_running() {
    let (tf, counter) = counting_flow(2);
    let f = tf.run_n(0);
    assert!(f.get().is_ok());
    assert_eq!(counter.load(Ordering::Relaxed), 0);
    assert_eq!(tf.num_iterations(), 0);
}

#[test]
fn run_on_empty_taskflow_resolves_immediately() {
    let tf = Taskflow::with_executor(Executor::new(2));
    assert!(tf.run().get().is_ok());
    assert!(tf.run_n(7).get().is_ok());
    assert_eq!(tf.num_topologies(), 0);
}

#[test]
fn queued_batches_run_fifo() {
    let (tf, counter) = counting_flow(2);
    // Submitted while the first batch may still be running: the second
    // must queue behind it, so the first future can never resolve after
    // the second.
    let f1 = tf.run_n(50);
    let f2 = tf.run_n(50);
    f2.get().unwrap();
    assert!(f1.is_ready(), "batches must resolve in submission order");
    f1.get().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 100);
    assert_eq!(tf.num_iterations(), 100);
}

#[test]
fn joined_subflow_respawns_children_every_iteration() {
    let tf = Taskflow::with_executor(Executor::new(4));
    let children = Arc::new(AtomicUsize::new(0));
    let after = Arc::new(AtomicUsize::new(0));
    let ch = Arc::clone(&children);
    let parent = tf.emplace_subflow(move |sf| {
        for _ in 0..3 {
            let ch = Arc::clone(&ch);
            sf.emplace(move || {
                ch.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    // A joined subflow must finish its children before successors run.
    let (ch2, af) = (Arc::clone(&children), Arc::clone(&after));
    let next = tf.emplace(move || {
        assert_eq!(ch2.load(Ordering::Relaxed) % 3, 0);
        af.fetch_add(1, Ordering::Relaxed);
    });
    parent.precede(next);

    tf.run_n(20).get().unwrap();
    assert_eq!(children.load(Ordering::Relaxed), 60);
    assert_eq!(after.load(Ordering::Relaxed), 20);
}

#[test]
fn detached_subflow_respawns_children_every_iteration() {
    let tf = Taskflow::with_executor(Executor::new(4));
    let children = Arc::new(AtomicUsize::new(0));
    let ch = Arc::clone(&children);
    tf.emplace_subflow(move |sf| {
        sf.detach();
        for _ in 0..2 {
            let ch = Arc::clone(&ch);
            sf.emplace(move || {
                ch.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    // Detached children still count toward the iteration's `alive` total,
    // so each iteration (and therefore the batch future) waits for them.
    tf.run_n(25).get().unwrap();
    assert_eq!(children.load(Ordering::Relaxed), 50);
    assert_eq!(tf.num_iterations(), 25);
}

#[test]
fn run_until_iterates_until_predicate_is_true() {
    let (tf, counter) = counting_flow(2);
    let seen = Arc::clone(&counter);
    tf.run_until(move || seen.load(Ordering::Relaxed) >= 5)
        .get()
        .unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 5);
}

#[test]
fn run_until_with_initially_true_predicate_runs_nothing() {
    let (tf, counter) = counting_flow(2);
    tf.run_until(|| true).get().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 0);
}

#[test]
fn run_until_predicate_panic_resolves_future_with_error_and_stops() {
    let (tf, counter) = counting_flow(2);
    let calls = AtomicUsize::new(0);
    let err = tf
        .run_until(move || {
            if calls.fetch_add(1, Ordering::Relaxed) == 2 {
                panic!("predicate boom");
            }
            false
        })
        .get()
        .expect_err("predicate panic must fail the batch");
    let panic = err.as_panic().expect("panic, not a graph error");
    assert_eq!(panic.task, "run_until predicate");
    assert!(panic.message.contains("predicate boom"));
    // Exactly the iterations before the panicking evaluation ran.
    assert_eq!(counter.load(Ordering::Relaxed), 2);

    // The topology stays reusable after a failed batch.
    tf.run_n(3).get().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 5);
}

#[test]
fn task_panic_in_iteration_k_stops_the_batch_with_that_error() {
    let tf = Taskflow::with_executor(Executor::new(2));
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    tf.emplace(move || {
        if c.fetch_add(1, Ordering::Relaxed) == 3 {
            panic!("iteration boom");
        }
    })
    .name("flaky");
    let err = tf
        .run_n(10)
        .get()
        .expect_err("task panic must fail the batch");
    let panic = err.as_panic().expect("panic, not a graph error");
    assert_eq!(panic.task, "flaky");
    assert!(panic.message.contains("iteration boom"));
    // Iterations 0..3 ran clean, iteration 3 panicked, 4..10 abandoned.
    assert_eq!(counter.load(Ordering::Relaxed), 4);

    // A fresh batch on the same topology runs clean again.
    tf.run_n(2).get().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 6);
}

#[test]
fn run_interleaves_with_legacy_one_shot_dispatch() {
    let tf = Taskflow::with_executor(Executor::new(2));
    let runs = Arc::new(AtomicUsize::new(0));
    let shots = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&runs);
    tf.emplace(move || {
        r.fetch_add(1, Ordering::Relaxed);
    });
    tf.run_n(2).get().unwrap();

    // A one-shot dispatch of a *new* graph must not disturb the run
    // target: `run` afterwards re-runs the reusable topology, not the
    // dispatched one.
    let s = Arc::clone(&shots);
    tf.emplace(move || {
        s.fetch_add(1, Ordering::Relaxed);
    });
    tf.dispatch().get().unwrap();
    tf.run().get().unwrap();

    assert_eq!(runs.load(Ordering::Relaxed), 3);
    assert_eq!(shots.load(Ordering::Relaxed), 1);
    assert_eq!(tf.num_topologies(), 2);
    tf.wait_for_all();
}

#[test]
fn emplacing_after_run_freezes_a_new_target() {
    let tf = Taskflow::with_executor(Executor::new(2));
    let (old, new) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let o = Arc::clone(&old);
    tf.emplace(move || {
        o.fetch_add(1, Ordering::Relaxed);
    });
    tf.run().get().unwrap();

    let n = Arc::clone(&new);
    tf.emplace(move || {
        n.fetch_add(1, Ordering::Relaxed);
    });
    // The present graph is non-empty, so this freezes a new topology and
    // retargets `run*` at it; the old one is never re-armed again.
    tf.run_n(2).get().unwrap();

    assert_eq!(old.load(Ordering::Relaxed), 1);
    assert_eq!(new.load(Ordering::Relaxed), 2);
    assert_eq!(tf.num_iterations(), 2, "counts the current target only");
}

#[test]
fn try_wait_for_all_reports_errors_sticky_and_incremental() {
    let tf = Taskflow::with_executor(Executor::new(2));
    tf.emplace(|| panic!("sticky boom")).name("bad");
    tf.run().get().expect_err("panic expected");
    assert!(tf.try_wait_for_all().is_err());

    // New clean work completes, but the first error stays sticky.
    let ok = Arc::new(AtomicUsize::new(0));
    let o = Arc::clone(&ok);
    tf.emplace(move || {
        o.fetch_add(1, Ordering::Relaxed);
    });
    let err = tf.try_wait_for_all().expect_err("first error is sticky");
    assert_eq!(err.as_panic().expect("panic").task, "bad");
    assert_eq!(ok.load(Ordering::Relaxed), 1);
}

#[test]
fn gc_keeps_the_reusable_target_but_reclaims_one_shots() {
    let mut tf = Taskflow::with_executor(Executor::new(2));
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    tf.emplace(move || {
        c.fetch_add(1, Ordering::Relaxed);
    });
    tf.run_n(2).get().unwrap();
    for _ in 0..4 {
        tf.emplace(|| {});
        tf.dispatch().get().unwrap();
    }
    assert_eq!(tf.num_topologies(), 5);

    let reclaimed = tf.gc();
    assert_eq!(reclaimed, 4, "one-shot topologies are reclaimed");
    assert_eq!(tf.num_topologies(), 1, "the run target survives gc");

    // ... and is still re-armable afterwards.
    tf.run().get().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 3);
}

#[test]
fn num_retained_nodes_includes_last_iterations_subflow_children() {
    let tf = Taskflow::with_executor(Executor::new(2));
    tf.emplace_subflow(|sf| {
        for _ in 0..5 {
            sf.emplace(|| {});
        }
    });
    tf.run_n(3).get().unwrap();
    // 1 static parent + the 5 children of the most recent iteration
    // (earlier iterations' children were dropped as the parent re-ran).
    assert_eq!(tf.num_retained_nodes(), 6);
}

// ---------------------------------------------------------------------------
// Exact counts: a node re-arms itself as it completes, and only sinks end
// an iteration
// ---------------------------------------------------------------------------

/// A taskflow of counting tasks wired by `edges` (`u` precedes `v`). Each
/// run of node `v` bumps `runs[v]` and checks what it witnesses: that this
/// is its `k`-th run of the batch (the batch's `k`-th iteration, counted
/// from `base`), and that every predecessor has run `k + 1` times already.
/// A mismatch is tallied in `violations` instead of panicking, so one bad
/// run cannot cancel the rest of the batch. `hook(v, k)` runs last, for a
/// scenario's own behaviour.
struct Counted {
    tf: Taskflow,
    runs: Arc<Vec<AtomicUsize>>,
    base: Arc<AtomicUsize>,
    violations: Arc<AtomicUsize>,
}

impl Counted {
    fn new(
        workers: usize,
        (n, edges): &(usize, Vec<(usize, usize)>),
        hook: impl Fn(usize, usize) + Send + Sync + 'static,
    ) -> Counted {
        let tf = Taskflow::with_executor(Executor::new(workers));
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..*n).map(|_| AtomicUsize::new(0)).collect());
        let base = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let hook = Arc::new(hook);
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); *n];
        for &(u, v) in edges {
            preds[v].push(u);
        }
        let tasks: Vec<_> = preds
            .into_iter()
            .enumerate()
            .map(|(v, preds)| {
                let (runs, base) = (Arc::clone(&runs), Arc::clone(&base));
                let (violations, hook) = (Arc::clone(&violations), Arc::clone(&hook));
                tf.emplace(move || {
                    let k = runs[v].fetch_add(1, Ordering::SeqCst);
                    let iteration =
                        rustflow::this_task::iteration().expect("inside a run") as usize;
                    let mut bad = usize::from(iteration - base.load(Ordering::SeqCst) != k);
                    for &u in &preds {
                        bad += usize::from(runs[u].load(Ordering::SeqCst) != k + 1);
                    }
                    violations.fetch_add(bad, Ordering::SeqCst);
                    hook(v, k);
                })
            })
            .collect();
        for &(u, v) in edges {
            tasks[u].precede(tasks[v]);
        }
        Counted {
            tf,
            runs,
            base,
            violations,
        }
    }

    /// Starts counting afresh for the next batch.
    fn restart(&self) {
        for r in self.runs.iter() {
            r.store(0, Ordering::SeqCst);
        }
        let done = self.tf.num_iterations() as usize;
        self.base.store(done, Ordering::SeqCst);
    }

    /// Every node ran exactly `n` times, each after its predecessors.
    fn assert_runs(&self, n: usize, what: &str) {
        let runs: Vec<usize> = self.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        assert!(
            runs.iter().all(|&r| r == n),
            "{what}: runs {runs:?}, not {n} each"
        );
        assert_eq!(
            self.violations.load(Ordering::SeqCst),
            0,
            "{what}: witness violations"
        );
    }
}

/// `a → {b, c} → d`.
fn diamond() -> (usize, Vec<(usize, usize)>) {
    (4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
}

/// A `k`×`k` wavefront: each cell precedes its right and lower neighbour.
fn mesh(k: usize) -> (usize, Vec<(usize, usize)>) {
    let mut edges = Vec::new();
    for i in 0..k {
        for j in 0..k {
            if j + 1 < k {
                edges.push((i * k + j, i * k + j + 1));
            }
            if i + 1 < k {
                edges.push((i * k + j, (i + 1) * k + j));
            }
        }
    }
    (k * k, edges)
}

#[test]
fn run_n_runs_every_node_exactly_n_times_after_its_predecessors() {
    common::within_30s("run_n(200) of a diamond and a 32x32 mesh", || {
        for (name, graph) in [("diamond", diamond()), ("mesh", mesh(32))] {
            for workers in [1, 3] {
                let c = Counted::new(workers, &graph, |_, _| {});
                c.tf.run_n(200).get().unwrap();
                c.assert_runs(200, &format!("{name} on {workers} workers"));
                assert_eq!(c.tf.num_iterations(), 200);
            }
        }
    });
}

/// `n` sources all preceding one sink.
fn fan_in(n: usize) -> (usize, Vec<(usize, usize)>) {
    (n + 1, (0..n).map(|u| (u, n)).collect())
}

/// The last predecessor to arrive readies a node by a load, without
/// decrementing: with 64 predecessors racing for the sink, and with the
/// mesh's two-predecessor cells, every node still runs exactly once per
/// iteration and witnesses all of its predecessors.
#[test]
fn the_last_arrival_readies_each_node_once_per_iteration() {
    common::within_30s("run_n(500) of a 64-way fan-in and a 32x32 mesh", || {
        for (name, graph) in [("fan-in", fan_in(64)), ("mesh", mesh(32))] {
            let c = Counted::new(3, &graph, |_, _| {});
            c.tf.run_n(500).get().unwrap();
            c.assert_runs(500, &format!("{name} on 3 workers"));
        }
    });
}

/// A dynamic task spawns 64 joined children on every iteration; they race
/// its sentinel drop to be the last arrival at its `nested` count. Each
/// child runs once per iteration, in that iteration, and the parent's
/// successor runs after all of them.
#[test]
fn joined_children_race_the_sentinel_drop() {
    const CHILDREN: usize = 64;
    common::within_30s("run_n(200) of 64 joined children", || {
        let tf = Taskflow::with_executor(Executor::new(3));
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..CHILDREN).map(|_| AtomicUsize::new(0)).collect());
        let [after, violations] = std::array::from_fn(|_| Arc::new(AtomicUsize::new(0)));
        let (children, bad) = (Arc::clone(&runs), Arc::clone(&violations));
        let p = tf.emplace_subflow(move |sf| {
            let k = rustflow::this_task::iteration().expect("inside a run") as usize;
            for i in 0..CHILDREN {
                let (children, bad) = (Arc::clone(&children), Arc::clone(&bad));
                sf.emplace(move || {
                    let seen = children[i].fetch_add(1, Ordering::SeqCst);
                    bad.fetch_add(usize::from(seen != k), Ordering::SeqCst);
                });
            }
        });
        let (children, af, bad) = (
            Arc::clone(&runs),
            Arc::clone(&after),
            Arc::clone(&violations),
        );
        let s = tf.emplace(move || {
            let k = af.fetch_add(1, Ordering::SeqCst);
            let early = children
                .iter()
                .filter(|r| r.load(Ordering::SeqCst) != k + 1)
                .count();
            bad.fetch_add(early, Ordering::SeqCst);
        });
        p.precede(s);
        tf.run_n(200).get().unwrap();
        let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        assert!(
            counts.iter().all(|&r| r == 200),
            "children ran {counts:?} times, not 200 each"
        );
        assert_eq!(after.load(Ordering::SeqCst), 200, "the successor");
        assert_eq!(violations.load(Ordering::SeqCst), 0, "witness violations");
    });
}

/// A batch cancelled mid-iteration skips the rest of its nodes, and the
/// skip path re-arms them like a run: the next batch runs every node.
#[test]
fn a_cancelled_iteration_leaves_every_node_armed() {
    common::within_30s("cancel mid-iteration, then run_n(3)", || {
        for workers in [1, 3] {
            let started = Arc::new(AtomicBool::new(false));
            let hold = Arc::clone(&started);
            // An inner cell of the mesh holds its first run until the
            // cancel lands, so the iteration is cut in the middle.
            let c = Counted::new(workers, &mesh(8), move |v, _| {
                if v == 27 && !hold.swap(true, Ordering::SeqCst) {
                    while !rustflow::this_task::is_cancelled() {
                        std::thread::yield_now();
                    }
                }
            });
            let handle = c.tf.run_n(5);
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            assert!(handle.cancel());
            assert!(handle.get().unwrap_err().is_cancelled());
            let ran: usize = c.runs.iter().map(|r| r.load(Ordering::SeqCst)).sum();
            assert!(ran < 64, "the cancelled iteration skipped nothing");
            c.restart();
            c.tf.run_n(3).get().unwrap();
            c.assert_runs(3, &format!("after a cancel on {workers} workers"));
        }
    });
}

/// A FailFast panic in iteration `k` ends the batch with that panic and
/// skips the rest of the iteration; the next batch still runs every node.
#[test]
fn a_fail_fast_panic_leaves_the_next_batch_whole() {
    common::within_30s("a FailFast panic, then run_n(3)", || {
        for workers in [1, 3] {
            let armed = Arc::new(AtomicBool::new(true));
            let fire = Arc::clone(&armed);
            let c = Counted::new(workers, &mesh(8), move |v, k| {
                if v == 27 && k == 2 && fire.swap(false, Ordering::SeqCst) {
                    panic!("boom in iteration 2");
                }
            });
            c.tf.set_failure_policy(rustflow::FailurePolicy::FailFast);
            let err = c.tf.run_n(5).get().unwrap_err();
            assert_eq!(err.as_panic().expect("a task panic").iteration, 2);
            assert_eq!(c.tf.num_iterations(), 3);
            c.restart();
            c.tf.run_n(3).get().unwrap();
            c.assert_runs(3, &format!("after a panic on {workers} workers"));
        }
    });
}

/// Bumps its counter when dropped.
struct DropCount(Arc<AtomicUsize>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A dynamic task `p` spawns a joined child `j` on every iteration, and `j`
/// spawns a detached child `d`. Each runs exactly once per iteration; the
/// previous iteration's pair is dropped before `p` spawns the next; `p`'s
/// successor runs after `j`; and no iteration, nor the batch, ends before
/// its detached child finished.
#[test]
fn a_dynamic_task_respawns_a_joined_and_a_detached_child_every_iteration() {
    common::within_30s("run_n(50) of a joined and a detached subflow", || {
        for workers in [1, 3] {
            let tf = Taskflow::with_executor(Executor::new(workers));
            let [joined, detached, drops, after, violations] =
                std::array::from_fn(|_| Arc::new(AtomicUsize::new(0)));
            let (j_runs, d_runs, dropped, bad) = (
                Arc::clone(&joined),
                Arc::clone(&detached),
                Arc::clone(&drops),
                Arc::clone(&violations),
            );
            let p = tf.emplace_subflow(move |sf| {
                let k = rustflow::this_task::iteration().expect("inside a run") as usize;
                let seen = [
                    dropped.load(Ordering::SeqCst),
                    j_runs.load(Ordering::SeqCst),
                    d_runs.load(Ordering::SeqCst),
                ];
                bad.fetch_add(usize::from(seen != [2 * k, k, k]), Ordering::SeqCst);
                let (j_guard, d_guard) = (
                    DropCount(Arc::clone(&dropped)),
                    DropCount(Arc::clone(&dropped)),
                );
                let (j_runs, d_runs) = (Arc::clone(&j_runs), Arc::clone(&d_runs));
                let mut d_guard = Some(d_guard);
                sf.emplace_subflow(move |sf| {
                    let _keep = &j_guard;
                    j_runs.fetch_add(1, Ordering::SeqCst);
                    sf.detach();
                    let (d_guard, d_runs) = (d_guard.take(), Arc::clone(&d_runs));
                    sf.emplace(move || {
                        let _keep = &d_guard;
                        std::thread::sleep(std::time::Duration::from_micros(100));
                        d_runs.fetch_add(1, Ordering::SeqCst);
                    });
                });
            });
            let (j_runs, af, bad) = (
                Arc::clone(&joined),
                Arc::clone(&after),
                Arc::clone(&violations),
            );
            let s = tf.emplace(move || {
                let k = af.fetch_add(1, Ordering::SeqCst);
                bad.fetch_add(
                    usize::from(j_runs.load(Ordering::SeqCst) != k + 1),
                    Ordering::SeqCst,
                );
            });
            p.precede(s);
            tf.run_n(50).get().unwrap();
            let counts = [&joined, &detached, &after].map(|c| c.load(Ordering::SeqCst));
            assert_eq!(
                counts,
                [50, 50, 50],
                "{workers} workers: joined, detached, successor"
            );
            assert_eq!(violations.load(Ordering::SeqCst), 0, "{workers} workers");
            // The last iteration's pair is still owned by the topology.
            assert_eq!(drops.load(Ordering::SeqCst), 98, "{workers} workers");
            drop(tf);
            assert_eq!(drops.load(Ordering::SeqCst), 100, "{workers} workers");
        }
    });
}

/// Strategy: a DAG of 0–64 nodes in emplacement order, each node shaped
/// by a kind and up to eight picks: isolated (no edge of its own), the
/// next link of a chain, a fan-in from earlier nodes, or a fan-out to
/// later ones.
fn arb_shaped_dag() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (0usize..65)
        .prop_flat_map(|n| {
            let shape = (0u8..4, collection::vec(0usize..64, 1..9));
            (Just(n), collection::vec(shape, n..n + 1))
        })
        .prop_map(|(n, shapes)| {
            let mut edges = std::collections::BTreeSet::new();
            for (v, (kind, picks)) in shapes.into_iter().enumerate() {
                match kind {
                    1 if v > 0 => {
                        edges.insert((v - 1, v));
                    }
                    2 if v > 0 => edges.extend(picks.iter().map(|p| (p % v, v))),
                    3 if v + 1 < n => {
                        let later = n - v - 1;
                        edges.extend(picks.iter().map(|p| (v, v + 1 + p % later)));
                    }
                    _ => {}
                }
            }
            (n, edges.into_iter().collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random DAGs × `run_n(1..=4)` × 1–3 workers: every node runs exactly
    /// once per iteration, after every predecessor, and the batch resolves
    /// `Ok`. A failing case prints its inputs and reproduces by its index.
    #[test]
    fn any_dag_re_runs_each_task_once_per_iteration_in_order(
        graph in arb_shaped_dag(),
        iterations in 1usize..5,
        workers in 1usize..4,
    ) {
        let counted = common::within_30s("a random DAG under run_n", move || {
            let c = Counted::new(workers, &graph, |_, _| {});
            let result = c.tf.run_n(iterations as u64).get();
            let runs: Vec<usize> = c.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
            (result.is_ok(), runs, c.violations.load(Ordering::SeqCst))
        });
        let (ok, runs, violations) = counted;
        prop_assert!(ok, "the batch failed");
        prop_assert!(runs.iter().all(|&r| r == iterations), "runs {:?}, not {} each", runs, iterations);
        prop_assert_eq!(violations, 0);
    }
}
