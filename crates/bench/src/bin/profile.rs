//! Causal profiler driver and CI perf-regression gate.
//!
//! Runs two iterative workloads — the Fig. 7 wavefront and the Fig. 12
//! DNN epoch pipeline — under the event tracer, reconstructs the executed
//! schedule, and writes the work/span analysis
//! ([`rustflow::ProfileReport`]) as three artifacts:
//!
//! * `<out>/profile_report.json` — schema-stable report: per-iteration
//!   work, span, parallelism, Brent-bound vs achieved speedup, per-node
//!   aggregates, binned per-worker utilization;
//! * `<out>/profile_wavefront.dot` — the wavefront graph heat-colored by
//!   task time with the critical path bold red;
//! * `<out>/profile_metrics.prom` — Prometheus histogram / summary
//!   families for both workloads.
//!
//! Modes:
//!
//! * default — profile and write the artifacts (all three git-ignored:
//!   they hold this run's timings);
//! * `--check` — the CI gate: compare this run against the committed
//!   `<out>/profile_baseline.json` and exit non-zero when the schedule
//!   drifts; the artifacts go under `target/tf-bench/`.
//!
//! What the gate checks is machine-independent. The task count per
//! iteration and the iteration count must match the baseline exactly and
//! no event may have been dropped: a change means the schedule itself
//! changed. Mean parallelism (work / span) must stay above the baseline's
//! `min_parallelism` floor: a serialized scheduler collapses it toward 1
//! on any box. How *long* the work took is the pinned benchmark's business
//! (`benchmark/`), not this gate's. The baseline is edited by hand when a
//! workload changes on purpose (a failing run prints the numbers).

use rustflow::wire::json;
use std::sync::Arc;
use tf_bench::harness::{finish_gate, time_ms, Cli};
use tf_workloads::run::ReusableRustflow;
use tf_workloads::wavefront::{self, WavefrontSpec};

/// One profiled workload: its report plus run metadata for the gate.
struct Profiled {
    name: &'static str,
    report: rustflow::ProfileReport,
    wall_ms: f64,
    dot: Option<String>,
}

/// Runs `iterations` of the frozen `dag` under a fresh executor + tracer
/// and reconstructs the schedule.
fn profile_reusable(
    name: &'static str,
    rf: &ReusableRustflow,
    tracer: &Arc<rustflow::Tracer>,
    lanes: usize,
    iterations: u64,
    want_dot: bool,
) -> Profiled {
    let wall_ms = time_ms(|| rf.run_n(iterations).expect("profiled batch failed"));
    let snapshot = rf.taskflow().profile_snapshot();
    let report =
        rustflow::ProfileReport::build(&snapshot, &tracer.sched_events(), lanes, tracer.dropped());
    let dot = want_dot.then(|| rf.taskflow().dump_profiled(&report));
    Profiled {
        name,
        report,
        wall_ms,
        dot,
    }
}

fn main() {
    let flags = Cli::parse();
    let threads = flags.thread_count(4);
    let iterations: u64 = if flags.full { 20 } else { 5 };

    // --- Workload 1: wavefront (Fig. 7 kernel, iterative). --------------
    let spec = WavefrontSpec::new(if flags.full { 32 } else { 16 });
    let (dag, _sink) = wavefront::build(spec);
    let ex = rustflow::Executor::new(threads);
    let tracer = Arc::new(rustflow::Tracer::new(ex.num_lanes()));
    let rf = ReusableRustflow::new(&dag, &ex);
    rf.run_n(1).expect("warm-up failed"); // warm-up, untraced
    ex.observe(Arc::clone(&tracer) as Arc<dyn rustflow::ExecutorObserver>);
    let wave = profile_reusable("wavefront", &rf, &tracer, ex.num_lanes(), iterations, true);

    // --- Workload 2: DNN training epoch (Fig. 12 pipeline). -------------
    let data = Arc::new(tf_dnn::synthetic_mnist(
        if flags.full { 1000 } else { 300 },
        0xDA7A,
    ));
    let net = tf_dnn::Mlp::new(&[784, 16, 10], 42);
    let train = tf_dnn::pipeline::TrainSpec {
        epochs: iterations as usize,
        batch: 100,
        lr: 0.01,
        storages: 2,
        seed: 42,
    };
    let (dnn_dag, _state) = tf_dnn::pipeline::build_epoch_dag(&net, data, train);
    let ex = rustflow::Executor::new(threads);
    let tracer = Arc::new(rustflow::Tracer::new(ex.num_lanes()));
    let rf = ReusableRustflow::new(&dnn_dag, &ex);
    rf.run_n(1).expect("warm-up failed"); // warm-up epoch, untraced
    ex.observe(Arc::clone(&tracer) as Arc<dyn rustflow::ExecutorObserver>);
    let dnn = profile_reusable("dnn_epoch", &rf, &tracer, ex.num_lanes(), iterations, false);

    let profiled = [wave, dnn];
    for p in &profiled {
        let r = &p.report;
        println!(
            "{}: {} iterations x {} tasks, {} threads",
            p.name,
            r.iterations.len(),
            r.iterations.first().map_or(0, |i| i.tasks),
            threads
        );
        println!(
            "  work {} us  span {:.0} us  parallelism {:.2}  wall {:.1} ms  dropped {}",
            r.total_work_us, r.mean_span_us, r.mean_parallelism, p.wall_ms, r.dropped_events
        );
        if let Some(it) = r.iterations.last() {
            println!(
                "  achieved speedup {:.2} vs Brent bound {:.2}",
                it.achieved_speedup, it.brent_speedup
            );
        }
    }

    // --- Artifacts. ------------------------------------------------------
    let mut report = json::Writer::pretty();
    report.begin_object();
    report.field("schema_version", 1);
    report.key("workloads");
    report.begin_object();
    for p in &profiled {
        report.key(p.name);
        report.document(&p.report.to_json());
    }
    report.end();
    report.end();
    flags.write_report("profile_report.json", &report.finish());

    let prom: String = profiled
        .iter()
        .map(|p| p.report.prometheus_text())
        .collect();
    flags.write_report("profile_metrics.prom", &prom);

    for p in &profiled {
        if let Some(dot) = &p.dot {
            flags.write_report(&format!("profile_{}.dot", p.name), dot);
        }
    }

    if flags.check {
        let failures = check_against_baseline(&profiled, &flags.out.join("profile_baseline.json"));
        let ok = format!(
            "{} workloads match the baseline's structure",
            profiled.len()
        );
        finish_gate("profile", &ok, &failures);
    }
}

/// Compares this run against the committed baseline; returns one message
/// per violated bound.
fn check_against_baseline(profiled: &[Profiled], path: &std::path::Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read baseline {}: {e}", path.display())],
    };
    let base = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline is not valid JSON: {e}")],
    };
    let Some(workloads) = base.get("workloads").and_then(json::Value::as_arr) else {
        return vec!["baseline has no workloads array".into()];
    };

    let mut failures = Vec::new();
    for p in profiled {
        let Some(b) = workloads
            .iter()
            .find(|w| w.get("name").and_then(json::Value::as_str) == Some(p.name))
        else {
            failures.push(format!("{}: missing from baseline", p.name));
            continue;
        };
        let r = &p.report;
        let get_u = |k: &str| b.get(k).and_then(json::Value::as_u64).unwrap_or(0);

        if r.iterations.len() as u64 != get_u("iterations") {
            failures.push(format!(
                "{}: {} iterations profiled, baseline says {}",
                p.name,
                r.iterations.len(),
                get_u("iterations")
            ));
        }
        let tasks = r.iterations.first().map_or(0, |it| it.tasks) as u64;
        if tasks != get_u("tasks_per_iteration") {
            failures.push(format!(
                "{}: {} tasks per iteration, baseline says {} — the graph itself changed",
                p.name,
                tasks,
                get_u("tasks_per_iteration")
            ));
        }
        if r.dropped_events != 0 {
            failures.push(format!(
                "{}: {} events dropped — schedule reconstruction incomplete",
                p.name, r.dropped_events
            ));
        }
        // Parallelism floor: a serialized schedule is a regression on any
        // machine.
        let floor = b.get("min_parallelism").and_then(json::Value::as_f64);
        if floor.is_some_and(|floor| r.mean_parallelism < floor) {
            failures.push(format!(
                "{}: parallelism {:.2} fell below the baseline floor {:.2}",
                p.name,
                r.mean_parallelism,
                floor.unwrap_or(0.0)
            ));
        }
    }
    failures
}
