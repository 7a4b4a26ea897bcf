//! Tests of the DOT dump (§III-G): structure, names, escaping, and the
//! present-graph vs dispatched-topology split.

use rustflow::{
    Executor, ProfileReport, SchedEvent, SchedEventKind, TaskLabel, TaskSpanInfo, Taskflow,
};

#[test]
fn dump_contains_all_named_nodes_and_edges() {
    let tf = Taskflow::new();
    tf.set_name("fig2");
    let a0 = tf.emplace(|| {}).name("a0");
    let a1 = tf.emplace(|| {}).name("a1");
    let b0 = tf.emplace(|| {}).name("b0");
    a0.precede(a1);
    b0.precede(a1);
    let dot = tf.dump();
    assert!(dot.starts_with("digraph fig2 {"));
    for name in ["a0", "a1", "b0"] {
        assert!(dot.contains(&format!("label=\"{name}\"")), "{name} missing");
    }
    assert_eq!(dot.matches(" -> ").count(), 2);
}

#[test]
fn unnamed_nodes_get_pointer_labels() {
    let tf = Taskflow::new();
    tf.emplace(|| {});
    let dot = tf.dump();
    assert!(dot.contains("label=\"0x"), "expected pointer label: {dot}");
}

#[test]
fn names_with_quotes_are_escaped() {
    let tf = Taskflow::new();
    tf.emplace(|| {}).name("weird \"name\"");
    let dot = tf.dump();
    assert!(dot.contains("weird \\\"name\\\""));
}

#[test]
fn dump_reflects_present_graph_only() {
    let ex = Executor::new(1);
    let tf = Taskflow::with_executor(ex);
    tf.emplace(|| {}).name("first_graph_task");
    tf.wait_for_all();
    // After dispatch the present graph is fresh.
    assert!(!tf.dump().contains("first_graph_task"));
    tf.emplace(|| {}).name("second_graph_task");
    assert!(tf.dump().contains("second_graph_task"));
    // The dispatched (completed) topology is visible separately.
    assert!(tf.dump_topologies().contains("first_graph_task"));
}

#[test]
fn running_topologies_are_skipped_by_dump_topologies() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let ex = Executor::new(1);
    let tf = Taskflow::with_executor(ex);
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    tf.emplace(move || {
        while !r.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    })
    .name("gated");
    let future = tf.dispatch();
    // While running, the topology must not be dumped (its graph is hot).
    assert!(!tf.dump_topologies().contains("gated"));
    release.store(true, Ordering::Release);
    future.wait();
    assert!(tf.dump_topologies().contains("gated"));
}

#[test]
fn taskflow_debug_format() {
    let tf = Taskflow::new();
    tf.set_name("dbg");
    tf.emplace(|| {});
    let s = format!("{tf:?}");
    assert!(s.contains("dbg"));
    assert!(s.contains("nodes: 1"));
}

/// `dump_profiled` over a graph with a joined subflow, node ids mapped to
/// labels: heat and timing on the static nodes, the subflow's cluster,
/// structural edges on the critical path bold red, and the spawn and
/// join hops of the path as dashed red edges after the walk. The profile
/// is built from fixed timestamps over the run's real node ids, so every
/// line is exact.
#[test]
fn profiled_dump_pins_nodes_edges_clusters_and_critical_hops() {
    let tf = Taskflow::with_executor(Executor::new(1));
    tf.set_name("profiled");
    let a = tf.emplace(|| {}).name("a");
    let p = tf
        .emplace_subflow(|sf| {
            let x = sf.emplace(|| {}).name("x");
            let y = sf.emplace(|| {}).name("y");
            x.precede(y);
        })
        .name("p");
    let z = tf.emplace(|| {}).name("z");
    a.precede(p);
    p.precede(z);
    tf.run().get().unwrap();

    let snap = tf.profile_snapshot();
    let id = |label: &str| snap.nodes.iter().find(|n| n.label == label).unwrap().id;
    let parent_of = |label: &str| {
        if matches!(label, "x" | "y") {
            id("p")
        } else {
            0
        }
    };
    let span = |label: &str| TaskSpanInfo {
        node: id(label),
        parent: parent_of(label),
        run: 1,
        ..Default::default()
    };
    let mut events = Vec::new();
    for (label, begin, end) in [
        ("a", 0, 10),
        ("p", 10, 20),
        ("x", 20, 50),
        ("y", 50, 60),
        ("z", 60, 65),
    ] {
        for (ts_us, kind) in [
            (begin, SchedEventKind::TaskBegin { span: span(label) }),
            (end, SchedEventKind::TaskEnd { span: span(label) }),
        ] {
            events.push(SchedEvent {
                worker: 0,
                ts_us,
                label: TaskLabel::new(label),
                kind,
            });
        }
    }
    let report = ProfileReport::build(&snap, &events, 1, 0);

    let mut dot = tf.dump_profiled(&report);
    for n in &snap.nodes {
        dot = dot.replace(&format!("n{:x}", n.id), &n.label);
    }
    let expected = r#"digraph profiled {
  node [style=filled];
  a [label="a\n10us / 1x", fillcolor="0.0 1.000 1.0"];
  a -> p [color=red, penwidth=2];
  p [label="p\n10us / 1x", fillcolor="0.0 1.000 1.0"];
  p -> z;
  subgraph cluster_1 {
    label="Subflow_p";
    style=dashed;
    x [label="x", fillcolor="0.0 0.000 1.0"];
    x -> y [color=red, penwidth=2];
    y [label="y", fillcolor="0.0 0.000 1.0"];
  }
  z [label="z\n5us / 1x", fillcolor="0.0 0.500 1.0"];
  p -> x [color=red, penwidth=2, style=dashed, constraint=false];
  y -> z [color=red, penwidth=2, style=dashed, constraint=false];
}
"#;
    assert_eq!(dot, expected, "{dot}");
}
