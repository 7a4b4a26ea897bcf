//! Pre-dispatch sanitizer tests: `Taskflow::validate()`, dispatch
//! rejection of graphs that could never complete, and the annotated DOT
//! dump.

use rustflow::{Executor, GraphDiagnostic, RunError, Taskflow};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn empty_taskflow_validates_clean() {
    let tf = Taskflow::new();
    assert!(tf.validate().is_empty());
    // And an empty dispatch still resolves Ok.
    assert!(tf.dispatch().get().is_ok());
}

#[test]
fn cycle_is_reported_with_label_path() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    let c = tf.emplace(|| {}).name("C");
    a.precede(b);
    b.precede(c);
    c.precede(a);
    let diags = tf.validate();
    assert_eq!(diags.len(), 1);
    match &diags[0] {
        GraphDiagnostic::Cycle { path, nodes } => {
            assert_eq!(path, &["A", "B", "C", "A"]);
            assert_eq!(nodes.len(), 3);
        }
        other => panic!("expected Cycle, got {other:?}"),
    }
    assert!(diags[0].is_fatal());
}

#[test]
fn cyclic_dispatch_resolves_typed_error_instead_of_deadlocking() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let a = tf.emplace(|| panic!("must never run")).name("A");
    let b = tf.emplace(|| panic!("must never run")).name("B");
    a.precede(b);
    b.precede(a);
    let future = tf.dispatch();
    // The future must resolve promptly — a rejected graph never reaches
    // the workers, so nothing can wedge.
    let result = future
        .future()
        .get_timeout(Duration::from_secs(10))
        .expect("rejected dispatch must resolve, not hang");
    match result {
        Err(RunError::InvalidGraph(diags)) => {
            assert!(diags.iter().any(|d| d.is_fatal()));
            assert!(matches!(diags[0], GraphDiagnostic::Cycle { .. }));
        }
        other => panic!("expected InvalidGraph, got {other:?}"),
    }
    // The taskflow was left with a fresh graph and stays usable.
    assert!(tf.is_empty());
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    tf.emplace(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    assert!(tf.dispatch().get().is_ok());
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn taskflow_with_rejected_dispatch_drops_without_hanging() {
    // Regression: Taskflow::drop waits on every dispatched future. Before
    // the sanitizer, dispatching a cyclic graph wedged (or panicked with
    // the promise unfulfilled), so the drop below would hang forever.
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    a.precede(b);
    b.precede(a);
    tf.silent_dispatch(); // non-blocking; error observed only by drop
    drop(tf); // must return
}

#[test]
fn self_edge_rejected() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("loopy");
    a.precede(a);
    let diags = tf.validate();
    assert_eq!(
        diags,
        vec![GraphDiagnostic::SelfEdge {
            label: "loopy".into(),
            node: 0
        }]
    );
    let err = tf.dispatch().get().expect_err("self-edge must be rejected");
    assert!(err.to_string().contains("precedes itself"));
}

#[test]
fn diamond_with_duplicate_edges_warns_but_runs() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let count = Arc::new(AtomicUsize::new(0));
    let mk = |name: &str| {
        let c = Arc::clone(&count);
        tf.emplace(move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .name(name)
    };
    let a = mk("A");
    let b = mk("B");
    let c = mk("C");
    let d = mk("D");
    a.precede([b, c]);
    b.precede(d);
    c.precede(d);
    // The bug under test: an extra copy of each fan-in edge.
    b.precede(d);
    c.precede(d);
    let diags = tf.validate();
    assert_eq!(diags.len(), 2, "one finding per duplicated edge: {diags:?}");
    for d in &diags {
        assert!(!d.is_fatal());
        match d {
            GraphDiagnostic::DuplicateEdge { to, count, .. } => {
                assert_eq!(to, "D");
                assert_eq!(*count, 2);
            }
            other => panic!("expected DuplicateEdge, got {other:?}"),
        }
    }
    // Warnings don't block: the diamond still runs to completion (the
    // join counter is armed from the accumulated in-degree).
    tf.wait_for_all();
    assert_eq!(count.load(Ordering::SeqCst), 4);
}

#[test]
fn orphan_task_warns_but_runs() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    tf.emplace(|| {}).name("lonely");
    a.precede(b);
    let diags = tf.validate();
    assert_eq!(
        diags,
        vec![GraphDiagnostic::Orphan {
            label: "lonely".into(),
            node: 2
        }]
    );
    tf.wait_for_all();
}

#[test]
fn cyclic_subflow_reports_typed_error_and_topology_completes() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let sibling_ran = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&sibling_ran);
    tf.emplace_subflow(|sf| {
        let x = sf
            .emplace(|| panic!("child of a cyclic subflow must not run"))
            .name("X");
        let y = sf.emplace(|| {}).name("Y");
        x.precede(y);
        y.precede(x);
    })
    .name("parent");
    tf.emplace(move || {
        s.fetch_add(1, Ordering::SeqCst);
    });
    let err = tf
        .try_wait_for_all()
        .expect_err("cyclic subflow must surface an error");
    match &err {
        RunError::InvalidGraph(diags) => match &diags[0] {
            GraphDiagnostic::Cycle { path, .. } => assert_eq!(path, &["X", "Y", "X"]),
            other => panic!("expected Cycle, got {other:?}"),
        },
        other => panic!("expected InvalidGraph, got {other:?}"),
    }
    // The rest of the topology still completed.
    assert_eq!(sibling_ran.load(Ordering::SeqCst), 1);
}

#[test]
fn ten_k_node_chain_validates_quickly() {
    let tf = Taskflow::new();
    let mut prev = tf.emplace(|| {}).name("head");
    for _ in 0..9_999 {
        let next = tf.emplace(|| {});
        prev.precede(next);
        prev = next;
    }
    let start = Instant::now();
    let diags = tf.validate();
    let elapsed = start.elapsed();
    assert!(diags.is_empty());
    // O(V + E) — generous bound so CI noise can't flake it.
    assert!(
        elapsed < Duration::from_secs(2),
        "validate took {elapsed:?} on a 10k chain"
    );
}

#[test]
fn annotated_dump_highlights_cycle_nodes() {
    let tf = Taskflow::new();
    tf.set_name("bad");
    let a = tf.emplace(|| {}).name("A");
    let b = tf.emplace(|| {}).name("B");
    a.precede(b);
    b.precede(a);
    tf.emplace(|| {}).name("lonely");
    let (dot, diags) = tf.dump_with_diagnostics();
    assert!(diags.iter().any(|d| d.is_fatal()));
    assert!(dot.starts_with("digraph bad {"));
    assert_eq!(dot.matches("fillcolor=red").count(), 2, "{dot}");
    assert_eq!(dot.matches("fillcolor=orange").count(), 1, "{dot}");
    // The plain dump stays unannotated.
    assert!(!tf.dump().contains("fillcolor"));
}

#[test]
fn edge_into_another_taskflow_is_rejected_on_both_sides() {
    let ex = Executor::new(2);
    let ours = Taskflow::with_executor(Arc::clone(&ex));
    let theirs = Taskflow::with_executor(ex);
    ours.set_name("ours");
    let ran = Arc::new(AtomicUsize::new(0));
    let count = |ran: &Arc<AtomicUsize>| {
        let ran = Arc::clone(ran);
        move || {
            ran.fetch_add(1, Ordering::SeqCst);
        }
    };
    let a = ours.emplace(count(&ran)).name("A");
    let b = ours.emplace(count(&ran)).name("B");
    let outside = theirs.emplace(count(&ran)).name("outside");
    a.precede(b);
    a.precede(outside);

    let expected = vec![GraphDiagnostic::ForeignEdge {
        from: "A".into(),
        from_node: 0,
    }];
    assert_eq!(ours.validate(), expected);
    assert!(expected[0].is_fatal());
    let (dot, diags) = ours.dump_with_diagnostics();
    assert_eq!(diags, expected);
    assert_eq!(dot.matches("fillcolor=red").count(), 1, "{dot}");

    // Before the sanitizer knew foreign edges, `A` ran and counted down
    // `outside`'s join counter, in a graph this run does not own.
    let result = ours
        .dispatch()
        .future()
        .get_timeout(Duration::from_secs(10))
        .expect("rejected dispatch must resolve, not hang");
    match result {
        Err(RunError::InvalidGraph(diags)) => assert_eq!(diags, expected),
        other => panic!("expected InvalidGraph, got {other:?}"),
    }
    // The receiving graph waits on a predecessor that will never run in
    // it; it is rejected as well instead of wedging its waiters.
    let result = theirs
        .dispatch()
        .future()
        .get_timeout(Duration::from_secs(10))
        .expect("a graph waiting on an outside predecessor must not hang");
    assert!(
        matches!(result, Err(RunError::InvalidGraph(_))),
        "{result:?}"
    );
    assert_eq!(ran.load(Ordering::SeqCst), 0, "nothing may have run");
}
