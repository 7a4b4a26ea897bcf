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
//! * default — profile and write the artifacts;
//! * `--write-baseline` — additionally save the committed baseline
//!   (`<out>/profile_baseline.json`) the gate compares against;
//! * `--check` — the CI gate: compare this run against the baseline and
//!   exit non-zero when structural metrics drift or timings leave the
//!   tolerance band.
//!
//! The gate checks two classes of metric. **Structural** (task count per
//! iteration, iteration count, zero dropped events) must match exactly —
//! they are machine-independent, and a change means the schedule itself
//! changed. **Temporal** (work, span, wall clock) must stay within
//! `tolerance_ratio` of the baseline in both directions — wide enough to
//! absorb machine noise, tight enough to catch a serialized scheduler
//! (span collapsing toward work) or a runaway slowdown.

use std::sync::Arc;
use tf_bench::harness::time_ms;
use tf_bench::json;
use tf_workloads::run::ReusableRustflow;
use tf_workloads::wavefront::{self, WavefrontSpec};

struct Flags {
    out: std::path::PathBuf,
    threads: usize,
    full: bool,
    check: bool,
    write_baseline: bool,
    baseline: Option<std::path::PathBuf>,
}

fn parse_flags() -> Flags {
    let mut f = Flags {
        out: std::path::PathBuf::from("results"),
        threads: 4,
        full: false,
        check: false,
        write_baseline: false,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => f.out = args.next().expect("--out needs a directory").into(),
            "--threads" => {
                f.threads = args
                    .next()
                    .expect("--threads needs a count")
                    .parse()
                    .expect("bad thread count");
            }
            "--full" => f.full = true,
            "--check" => f.check = true,
            "--write-baseline" => f.write_baseline = true,
            "--baseline" => f.baseline = Some(args.next().expect("--baseline needs a path").into()),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --out <dir> | --threads n | --full | --check | --write-baseline | --baseline <path>"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    f
}

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
    let flags = parse_flags();
    let threads = flags.threads;
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
    std::fs::create_dir_all(&flags.out).expect("cannot create output directory");
    let mut report_json = String::from("{\n  \"schema_version\": 1,\n  \"workloads\": {\n");
    for (i, p) in profiled.iter().enumerate() {
        report_json.push_str(&format!(
            "    \"{}\": {}",
            p.name,
            indent(&p.report.to_json(), 4)
        ));
        report_json.push_str(if i + 1 < profiled.len() { ",\n" } else { "\n" });
    }
    report_json.push_str("  }\n}\n");
    let path = flags.out.join("profile_report.json");
    std::fs::write(&path, &report_json).expect("cannot write profile_report.json");
    println!("  -> {}", path.display());

    let mut prom = String::new();
    for p in &profiled {
        prom.push_str(&p.report.prometheus_text());
    }
    let path = flags.out.join("profile_metrics.prom");
    std::fs::write(&path, prom).expect("cannot write profile_metrics.prom");
    println!("  -> {}", path.display());

    for p in &profiled {
        if let Some(dot) = &p.dot {
            let path = flags.out.join(format!("profile_{}.dot", p.name));
            std::fs::write(&path, dot).expect("cannot write DOT dump");
            println!("  -> {}", path.display());
        }
    }

    let baseline_path = flags
        .baseline
        .clone()
        .unwrap_or_else(|| flags.out.join("profile_baseline.json"));

    if flags.write_baseline {
        let mut b = String::from(
            "{\n  \"schema_version\": 1,\n  \"tolerance_ratio\": 6.0,\n  \"workloads\": [\n",
        );
        for (i, p) in profiled.iter().enumerate() {
            let r = &p.report;
            b.push_str(&format!(
                "    {{\"name\": \"{}\", \"iterations\": {}, \"tasks_per_iteration\": {}, \"total_work_us\": {}, \"mean_span_us\": {:.3}, \"wall_ms\": {:.3}, \"min_parallelism\": {:.3}}}{}\n",
                p.name,
                r.iterations.len(),
                r.iterations.first().map_or(0, |it| it.tasks),
                r.total_work_us,
                r.mean_span_us,
                p.wall_ms,
                // Regressions serialize the schedule: parallelism collapses
                // toward 1. Gate at half the observed value, floored at 1.
                (r.mean_parallelism / 2.0).max(1.0),
                if i + 1 < profiled.len() { "," } else { "" }
            ));
        }
        b.push_str("  ]\n}\n");
        std::fs::write(&baseline_path, b).expect("cannot write baseline");
        println!("  -> {}", baseline_path.display());
    }

    if flags.check {
        let failures = check_against_baseline(&profiled, &baseline_path);
        if failures.is_empty() {
            println!(
                "profile gate: OK ({} workloads within tolerance)",
                profiled.len()
            );
        } else {
            for f in &failures {
                eprintln!("profile gate FAIL: {f}");
            }
            std::process::exit(1);
        }
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
    let tol = base
        .get("tolerance_ratio")
        .and_then(json::Value::as_f64)
        .unwrap_or(6.0);
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
        let get_f = |k: &str| b.get(k).and_then(json::Value::as_f64).unwrap_or(0.0);

        // Structural: exact.
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

        // Temporal: tolerance band in both directions.
        let band = |what: &str, now: f64, then: f64| -> Option<String> {
            if then <= 0.0 || now <= 0.0 {
                return None;
            }
            let ratio = now / then;
            (ratio > tol || ratio < 1.0 / tol).then(|| {
                format!(
                    "{}: {what} {now:.1} vs baseline {then:.1} (x{ratio:.2}, band x{tol})",
                    p.name
                )
            })
        };
        failures.extend(band(
            "total work (us)",
            r.total_work_us as f64,
            get_f("total_work_us"),
        ));
        failures.extend(band(
            "mean span (us)",
            r.mean_span_us,
            get_f("mean_span_us"),
        ));
        failures.extend(band("wall clock (ms)", p.wall_ms, get_f("wall_ms")));

        // Parallelism floor: a serialized schedule is a regression even
        // inside the timing band.
        let floor = get_f("min_parallelism");
        if floor > 0.0 && r.mean_parallelism < floor {
            failures.push(format!(
                "{}: parallelism {:.2} fell below the baseline floor {floor:.2}",
                p.name, r.mean_parallelism
            ));
        }
    }
    failures
}

/// Re-indents a rendered JSON document for embedding as a nested value.
fn indent(json: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    let mut out = String::with_capacity(json.len());
    for (i, line) in json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(&pad);
        }
        out.push_str(line);
    }
    out
}
