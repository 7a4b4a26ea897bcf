//! Integration tests of the causal profiler: exact work/span/critical-path
//! values on a diamond DAG with known durations, detached-subflow spans
//! outliving their parent iteration, iteration roll-up across `run_n`
//! re-arms, flush-on-finalize visibility, and a real-execution smoke test
//! joining traced spans to the frozen graph.

use rustflow::profile::{GraphSnapshot, SnapshotNode};
use rustflow::{
    Executor, ExecutorObserver, ProfileReport, SchedEvent, SchedEventKind, TaskLabel, TaskSpanInfo,
    Taskflow, Tracer,
};
use std::sync::Arc;

fn begin(worker: usize, ts: u64, node: u64, parent: u64, run: u64, label: &str) -> SchedEvent {
    SchedEvent {
        worker,
        ts_us: ts,
        label: TaskLabel::new(label),
        kind: SchedEventKind::TaskBegin {
            span: TaskSpanInfo { node, parent, run },
        },
    }
}

fn end(worker: usize, ts: u64, node: u64, parent: u64, run: u64, label: &str) -> SchedEvent {
    SchedEvent {
        worker,
        ts_us: ts,
        label: TaskLabel::new(label),
        kind: SchedEventKind::TaskEnd {
            span: TaskSpanInfo { node, parent, run },
        },
    }
}

fn snapshot(nodes: &[(u64, &str)], edges: &[(u64, u64)]) -> GraphSnapshot {
    GraphSnapshot {
        nodes: nodes
            .iter()
            .enumerate()
            .map(|(i, &(id, label))| SnapshotNode {
                id,
                label: label.to_string(),
                successors: edges
                    .iter()
                    .filter(|&&(f, _)| f == id)
                    .map(|&(_, t)| t)
                    .collect(),
                static_index: Some(i),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Diamond DAG with known durations: exact work / span / critical path
// ---------------------------------------------------------------------------

/// a(10) → {b(20), c(40)} → d(10) on two workers:
/// work = 80, span = a+c+d = 60, parallelism = 4/3, critical path a→c→d.
#[test]
fn diamond_exact_work_span_and_critical_path() {
    let snap = snapshot(
        &[(1, "a"), (2, "b"), (3, "c"), (4, "d")],
        &[(1, 2), (1, 3), (2, 4), (3, 4)],
    );
    let events = vec![
        begin(0, 0, 1, 0, 7, "a"),
        end(0, 10, 1, 0, 7, "a"),
        begin(0, 10, 2, 0, 7, "b"),
        begin(1, 10, 3, 0, 7, "c"),
        end(0, 30, 2, 0, 7, "b"),
        end(1, 50, 3, 0, 7, "c"),
        begin(1, 50, 4, 0, 7, "d"),
        end(1, 60, 4, 0, 7, "d"),
    ];
    let r = ProfileReport::build(&snap, &events, 2, 0);

    assert_eq!(r.iterations.len(), 1);
    let it = &r.iterations[0];
    assert_eq!(it.tasks, 4);
    assert_eq!(it.work_us, 80);
    assert_eq!(it.span_us, 60);
    assert_eq!(it.wall_us, 60);
    assert_eq!(it.critical_path, vec!["a", "c", "d"]);
    assert_eq!(it.critical_nodes, vec![1, 3, 4]);
    assert!((it.parallelism - 80.0 / 60.0).abs() < 1e-9);
    assert!((it.achieved_speedup - 80.0 / 60.0).abs() < 1e-9);
    // Brent: min(P, T1/T∞) = min(2, 1.333) = 1.333.
    assert!((it.brent_speedup - 80.0 / 60.0).abs() < 1e-9);

    // Critical edges feed the DOT annotation, in path order.
    assert_eq!(r.critical_edges, vec![(1, 3), (3, 4)]);

    // Per-node aggregates: single iteration, heaviest (c) first.
    assert_eq!(r.nodes.len(), 4);
    assert_eq!(r.nodes[0].identity, "c");
    assert_eq!(r.nodes[0].total_us, 40);
    assert_eq!(r.nodes[0].critical_appearances, 1);
    let b = r.nodes.iter().find(|n| n.identity == "b").unwrap();
    assert_eq!(b.critical_appearances, 0);

    // The JSON artifact carries the same numbers.
    let json = r.to_json();
    assert!(json.contains("\"work_us\": 80"));
    assert!(json.contains("\"span_us\": 60"));
    assert!(json.contains("\"critical_path\": [\"a\", \"c\", \"d\"]"));
}

/// A task whose begin event was lost (ring pressure) degrades to a
/// zero-length span instead of corrupting the pairing.
#[test]
fn missing_begin_degrades_to_zero_length_span() {
    let snap = snapshot(&[(1, "a"), (2, "b")], &[(1, 2)]);
    let events = vec![
        // No begin for a.
        end(0, 10, 1, 0, 7, "a"),
        begin(0, 10, 2, 0, 7, "b"),
        end(0, 25, 2, 0, 7, "b"),
    ];
    let r = ProfileReport::build(&snap, &events, 2, 3);
    let it = &r.iterations[0];
    assert_eq!(it.tasks, 2);
    assert_eq!(it.work_us, 15);
    assert_eq!(it.span_us, 15);
    assert_eq!(r.dropped_events, 3, "drop count must reach the report");
}

// ---------------------------------------------------------------------------
// Subflow spans: joined children on the critical path, detached children
// outliving the parent iteration
// ---------------------------------------------------------------------------

/// Joined subflow child sits between its parent and the parent's
/// successor on the critical path: a(10) spawns s(20), then b(5).
/// Span = 10+20+5 = 35 through the spawn and join edges even though the
/// child is absent from the frozen structure.
#[test]
fn joined_subflow_child_extends_critical_path() {
    let snap = snapshot(&[(1, "a"), (2, "b")], &[(1, 2)]);
    let events = vec![
        begin(0, 0, 1, 0, 9, "a"),
        end(0, 10, 1, 0, 9, "a"),
        // Dynamic child, id unknown to the snapshot, parent = a.
        begin(1, 10, 100, 1, 9, ""),
        end(1, 30, 100, 1, 9, ""),
        begin(0, 30, 2, 0, 9, "b"),
        end(0, 35, 2, 0, 9, "b"),
    ];
    let r = ProfileReport::build(&snap, &events, 2, 0);
    let it = &r.iterations[0];
    assert_eq!(it.work_us, 35);
    assert_eq!(it.span_us, 35);
    assert_eq!(it.critical_path, vec!["a", "(subflow)", "b"]);
    // The dynamic child aggregates into the unnamed-subflow bucket.
    let sub = r.nodes.iter().find(|n| n.identity == "(subflow)").unwrap();
    assert_eq!(sub.count, 1);
    assert_eq!(sub.total_us, 20);
}

/// A detached child keeps running after the parent iteration's last
/// static task ended: its span still counts toward the iteration's work
/// and extends the observed wall clock.
#[test]
fn detached_subflow_span_outlives_parent_iteration() {
    let snap = snapshot(&[(1, "p")], &[]);
    let events = vec![
        begin(0, 0, 1, 0, 11, "p"),
        end(0, 10, 1, 0, 11, "p"),
        // Detached child (parent = 0): begins inside the iteration but
        // ends well after the parent topology finalized at t=10.
        begin(1, 5, 200, 0, 11, "det"),
        end(1, 40, 200, 0, 11, "det"),
    ];
    let r = ProfileReport::build(&snap, &events, 2, 0);
    let it = &r.iterations[0];
    assert_eq!(it.tasks, 2);
    assert_eq!(it.work_us, 10 + 35);
    assert_eq!(it.wall_us, 40, "wall extends to the detached span's end");
    assert_eq!(it.span_us, 35, "independent spans: span = longest one");
    assert_eq!(it.critical_path, vec!["det"]);
}

/// Spans from different run ids never fuse into one iteration, even when
/// node ids repeat (static storage is re-armed across `run_n` iterations).
#[test]
fn iterations_are_split_by_run_id() {
    let snap = snapshot(&[(1, "a"), (2, "b")], &[(1, 2)]);
    let mut events = Vec::new();
    for (run, base) in [(21u64, 0u64), (22, 100), (23, 200)] {
        events.push(begin(0, base, 1, 0, run, "a"));
        events.push(end(0, base + 10, 1, 0, run, "a"));
        events.push(begin(0, base + 10, 2, 0, run, "b"));
        events.push(end(0, base + 40, 2, 0, run, "b"));
    }
    let r = ProfileReport::build(&snap, &events, 2, 0);
    assert_eq!(r.iterations.len(), 3);
    for it in &r.iterations {
        assert_eq!(it.work_us, 40);
        assert_eq!(it.span_us, 40);
        assert_eq!(it.critical_path, vec!["a", "b"]);
    }
    // Aggregates fold across iterations by stable node id.
    let a = r.nodes.iter().find(|n| n.identity == "a").unwrap();
    assert_eq!(a.count, 3);
    assert_eq!(a.total_us, 30);
    assert_eq!(a.critical_appearances, 3);
    assert_eq!(r.total_work_us, 120);
}

// ---------------------------------------------------------------------------
// Real execution: spans joined to the frozen graph, roll-up across
// re-arms, finalize flush visibility
// ---------------------------------------------------------------------------

/// End-to-end: trace a diamond across `run_n(3)`, join spans to
/// `profile_snapshot`, and check counts, per-node aggregates, and the
/// iteration roll-up all agree.
#[test]
fn traced_run_n_profiles_three_iterations() {
    let ex = Executor::new(4);
    let tracer = Arc::new(Tracer::new(4));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);

    let tf = Taskflow::with_executor(ex);
    let (a, b, c, d) = rustflow::emplace!(
        tf,
        || std::thread::sleep(std::time::Duration::from_micros(200)),
        || std::thread::sleep(std::time::Duration::from_micros(200)),
        || std::thread::sleep(std::time::Duration::from_micros(200)),
        || std::thread::sleep(std::time::Duration::from_micros(200)),
    );
    let (a, b, c, d) = (a.name("a"), b.name("b"), c.name("c"), d.name("d"));
    a.precede([b, c]);
    d.succeed([b, c]);
    tf.run_n(3).get().unwrap();

    let snap = tf.profile_snapshot();
    assert_eq!(snap.len(), 4);
    let report = ProfileReport::build(&snap, &tracer.sched_events(), 4, tracer.dropped());

    assert_eq!(report.iterations.len(), 3);
    for it in &report.iterations {
        assert_eq!(it.tasks, 4);
        assert!(it.work_us >= it.span_us);
        assert!(it.span_us > 0);
        // The sink runs last: it ends every critical path.
        assert_eq!(it.critical_path.last().unwrap(), "d");
        assert_eq!(it.critical_path.first().unwrap(), "a");
    }
    // Iteration indices are 0..3 on one stable topology id.
    let topo_ids: Vec<u64> = report.iterations.iter().map(|it| it.topology).collect();
    assert!(topo_ids.iter().all(|&t| t != 0 && t == topo_ids[0]));
    let mut iters: Vec<u64> = report.iterations.iter().map(|it| it.iteration).collect();
    iters.sort_unstable();
    assert_eq!(iters, vec![0, 1, 2]);

    // Static nodes aggregate by id across re-arms: 4 nodes × 3 runs.
    assert_eq!(report.nodes.len(), 4);
    for n in &report.nodes {
        assert_eq!(n.count, 3, "{} must fold across iterations", n.identity);
    }

    // Utilization timelines exist for every worker and stay within [0, 1].
    assert_eq!(report.utilization.len(), 4);
    assert!(report
        .utilization
        .iter()
        .all(|t| t.busy.iter().all(|&b| (0.0..=1.0).contains(&b))));

    // Artifacts render.
    let json = report.to_json();
    assert!(json.contains("\"schema_version\": 1"));
    let prom = report.prometheus_text();
    assert!(prom.contains("rustflow_task_duration_us_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("rustflow_task_total_us{task=\"a\"}"));
    let dot = tf.dump_profiled(&report);
    assert!(dot.contains("fillcolor="));
    assert!(dot.contains("color=red, penwidth=2"), "critical path bold");
}

/// Finalize flushes the rings: after a run resolves, a reader that only
/// looks at the archive (no collect) still sees the topology's final
/// task-end and the finalize event — dropping the executor can never
/// truncate a completed iteration's schedule.
#[test]
fn finalize_flush_makes_last_task_end_visible_without_collect() {
    let ex = Executor::new(2);
    let tracer = Arc::new(Tracer::new(2));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(ex);
    let first = tf.emplace(|| {}).name("first");
    let last = tf.emplace(|| {}).name("last");
    first.precede(last);
    tf.run().get().unwrap();
    drop(tf);

    // No tracer.collect() here: only what finalize flushed is visible.
    let archived = tracer.archived_events();
    assert!(
        archived.iter().any(|e| matches!(
            &e.kind,
            SchedEventKind::TaskEnd { .. } if e.label == "last"
        )),
        "final task-end must be in the archive after the run resolves"
    );
    assert!(archived
        .iter()
        .any(|e| matches!(e.kind, SchedEventKind::TopologyFinalize { .. })));
}

/// Subflow children spawned at runtime are profiled: the snapshot includes
/// the residue of the last iteration and per-label aggregation groups the
/// dynamic spans.
#[test]
fn subflow_children_appear_in_profile() {
    let ex = Executor::new(2);
    let tracer = Arc::new(Tracer::new(2));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(ex);
    tf.emplace_subflow(|sf| {
        let x = sf.emplace(|| {}).name("child_x");
        let y = sf.emplace(|| {}).name("child_y");
        x.precede(y);
    })
    .name("parent");
    tf.run().get().unwrap();

    let snap = tf.profile_snapshot();
    assert_eq!(snap.len(), 3, "parent plus two spawned children");
    let report = ProfileReport::build(&snap, &tracer.sched_events(), 2, tracer.dropped());
    assert_eq!(report.iterations[0].tasks, 3);
    for name in ["parent", "child_x", "child_y"] {
        assert!(
            report.nodes.iter().any(|n| n.identity == name),
            "{name} missing from profile"
        );
    }
}
