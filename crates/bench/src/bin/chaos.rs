//! Chaos gate — deterministic fault-injection runs over paper-shaped
//! workloads (beyond the paper; CI job `chaos-gate`).
//!
//! For every seed in a fixed matrix, the gate derives the *expected*
//! outcome from the pure [`rustflow::chaos::ChaosSpec`] fault plan (no
//! execution needed), then runs the workload under the fault-tolerance
//! layer and checks the executor delivered exactly that outcome:
//!
//! * **wavefront / continue_all** — seeded panics; every fault-free task
//!   body still runs; the run fails iff the plan contains a panic.
//! * **wavefront / fail_fast** — the first panic cancels the rest; no
//!   more than the fault-free plan count can have run.
//! * **wavefront / retry** — the same faults made transient (each point
//!   panics once); `retry(1)` rescues the whole run, with one retry
//!   charged per planned panic.
//! * **wavefront / deadline** — seeded delays plus a cancellation-aware
//!   spinning tail; `run_timeout` must degrade to `Cancelled`.
//! * **dnn_epoch / continue_all** — a layered epoch pipeline under
//!   `run_n`; the batch stops at the first epoch whose plan panics, with
//!   every fault-free body of the executed epochs completed.
//! * **dnn_epoch / retry** — transient per-(node, epoch) faults under
//!   `run_n`; all epochs complete.
//! * **dnn_epoch / cancel** — `cancel()` mid-batch; the handle resolves
//!   `Cancelled` and the remaining epochs are abandoned.
//!
//! Results land in `<out>/chaos_report.json`; any mismatch makes the
//! process exit non-zero, failing the CI job.

use rustflow::chaos::{ChaosSpec, Fault};
use rustflow::{this_task, Executor, FailurePolicy, RunError, Taskflow};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tf_bench::harness::Cli;

/// The fixed seed matrix CI sweeps. Chosen arbitrarily and then frozen:
/// a new seed only joins after its expected plan has been reviewed.
const SEEDS: &[u64] = &[11, 23, 42, 77, 1802];

/// Panic rate for the fault scenarios (40‰ ≈ a couple dozen faults on
/// the wavefront grid).
const PANIC_PERMILLE: u16 = 40;

struct Outcome {
    workload: &'static str,
    scenario: &'static str,
    seed: u64,
    total: u64,
    plan_panics: u64,
    completed: u64,
    skipped: u64,
    retries: u64,
    result: String,
    pass: bool,
    note: String,
}

fn main() {
    let cli = Cli::parse();
    // Seeded panics are the point of this gate; the default hook would
    // bury the scenario table under hundreds of expected backtraces. The
    // messages survive in each run's `TaskPanic` either way.
    std::panic::set_hook(Box::new(|_| {}));
    let mut outcomes: Vec<Outcome> = Vec::new();
    println!("chaos gate: {} seeds × 7 scenarios", SEEDS.len());
    for &seed in SEEDS {
        outcomes.push(wavefront_continue_all(seed));
        outcomes.push(wavefront_fail_fast(seed));
        outcomes.push(wavefront_retry(seed));
        outcomes.push(wavefront_deadline(seed));
        outcomes.push(dnn_continue_all(seed));
        outcomes.push(dnn_retry(seed));
        outcomes.push(dnn_cancel(seed));
    }
    let failed = outcomes.iter().filter(|o| !o.pass).count();
    for o in &outcomes {
        println!(
            "  {} {:10} {:12} seed={:<5} total={:<5} panics={:<3} completed={:<5} \
             skipped={:<5} retries={:<3} result={} {}",
            if o.pass { "ok  " } else { "FAIL" },
            o.workload,
            o.scenario,
            o.seed,
            o.total,
            o.plan_panics,
            o.completed,
            o.skipped,
            o.retries,
            o.result,
            o.note,
        );
    }
    write_report(&cli, &outcomes);
    if failed > 0 {
        eprintln!("chaos gate: {failed} scenario(s) diverged from their seeded plan");
        std::process::exit(1);
    }
    println!(
        "chaos gate: all {} scenarios match their plans",
        outcomes.len()
    );
}

/// Builds a `dim × dim` wavefront of chaos-wrapped tasks (node `(i, j)`
/// precedes `(i+1, j)` and `(i, j+1)`), each body bumping `completed`.
/// `transient` reroutes planned panics through a fire-once latch instead
/// of the pure injector; `retry` sets each task's retry budget.
fn build_wavefront(
    tf: &Taskflow,
    spec: ChaosSpec,
    dim: usize,
    completed: &Arc<AtomicUsize>,
    transient: bool,
    retry: u32,
) {
    let tasks: Vec<Vec<rustflow::Task<'_>>> = (0..dim)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let node = (i * dim + j) as u64;
                    let c = Arc::clone(completed);
                    let body = move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    };
                    let t = if transient {
                        tf.emplace(transient_wrap(spec, node, body))
                    } else {
                        tf.emplace(spec.wrap(node, body))
                    };
                    t.name(format!("w{i}_{j}")).retry(retry)
                })
                .collect()
        })
        .collect();
    for i in 0..dim {
        for j in 0..dim {
            if i + 1 < dim {
                tasks[i][j].precede(tasks[i + 1][j]);
            }
            if j + 1 < dim {
                tasks[i][j].precede(tasks[i][j + 1]);
            }
        }
    }
}

/// A chaos wrapper whose planned panics fire **once per (node,
/// iteration)** point — the transient-fault model that a retry budget is
/// meant to absorb. Delays stay pure.
fn transient_wrap(
    spec: ChaosSpec,
    node: u64,
    mut body: impl FnMut() + Send + 'static,
) -> impl FnMut() + Send + 'static {
    // Iterations execute in order per node, so "already fired at this
    // iteration" collapses to remembering the last fired iteration.
    let fired = AtomicU64::new(u64::MAX);
    move || {
        let iteration = this_task::iteration().unwrap_or(0);
        match spec.fault(node, iteration) {
            Fault::Panic if fired.swap(iteration, Ordering::Relaxed) != iteration => {
                panic!("chaos: transient panic (node={node}, iteration={iteration})")
            }
            Fault::Delay(d) => std::thread::sleep(d),
            _ => {}
        }
        body();
    }
}

fn panics_in_plan(spec: ChaosSpec, total: u64, iteration: u64) -> u64 {
    (0..total)
        .filter(|&n| spec.fault(n, iteration) == Fault::Panic)
        .count() as u64
}

fn wavefront_continue_all(seed: u64) -> Outcome {
    const DIM: usize = 24;
    let total = (DIM * DIM) as u64;
    let spec = ChaosSpec::new(seed).panic_permille(PANIC_PERMILLE);
    let plan_panics = panics_in_plan(spec, total, 0);
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let completed = Arc::new(AtomicUsize::new(0));
    build_wavefront(&tf, spec, DIM, &completed, false, 0);
    let before = ex.stats();
    let result = tf.run().get();
    let d = ex.stats().delta(&before).total();
    let completed = completed.load(Ordering::Relaxed) as u64;
    // ContinueAll: every fault-free body ran; failure iff the plan says so.
    let pass = completed == total - plan_panics && result.is_err() == (plan_panics > 0);
    Outcome {
        workload: "wavefront",
        scenario: "continue_all",
        seed,
        total,
        plan_panics,
        completed,
        skipped: d.skipped,
        retries: d.retries,
        result: fmt_result(&result),
        pass,
        note: String::new(),
    }
}

fn wavefront_fail_fast(seed: u64) -> Outcome {
    const DIM: usize = 24;
    let total = (DIM * DIM) as u64;
    let spec = ChaosSpec::new(seed).panic_permille(PANIC_PERMILLE);
    let plan_panics = panics_in_plan(spec, total, 0);
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    tf.set_failure_policy(FailurePolicy::FailFast);
    let completed = Arc::new(AtomicUsize::new(0));
    build_wavefront(&tf, spec, DIM, &completed, false, 0);
    let before = ex.stats();
    let result = tf.run().get();
    let d = ex.stats().delta(&before).total();
    let completed = completed.load(Ordering::Relaxed) as u64;
    // FailFast: the run fails iff the plan panics, never more bodies run
    // than ContinueAll would allow, and every node is accounted for as
    // completed, skipped, or a panicked attempt.
    let pass = result.is_err() == (plan_panics > 0)
        && completed <= total - plan_panics
        && completed + d.skipped <= total
        && completed + d.skipped + plan_panics >= total;
    Outcome {
        workload: "wavefront",
        scenario: "fail_fast",
        seed,
        total,
        plan_panics,
        completed,
        skipped: d.skipped,
        retries: d.retries,
        result: fmt_result(&result),
        pass,
        note: String::new(),
    }
}

fn wavefront_retry(seed: u64) -> Outcome {
    const DIM: usize = 24;
    let total = (DIM * DIM) as u64;
    let spec = ChaosSpec::new(seed).panic_permille(PANIC_PERMILLE);
    let plan_panics = panics_in_plan(spec, total, 0);
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let completed = Arc::new(AtomicUsize::new(0));
    // One retry per task absorbs every fire-once transient fault.
    build_wavefront(&tf, spec, DIM, &completed, true, 1);
    let before = ex.stats();
    let result = tf.run().get();
    let d = ex.stats().delta(&before).total();
    let completed = completed.load(Ordering::Relaxed) as u64;
    let pass = result.is_ok() && completed == total && d.retries == plan_panics;
    Outcome {
        workload: "wavefront",
        scenario: "retry",
        seed,
        total,
        plan_panics,
        completed,
        skipped: d.skipped,
        retries: d.retries,
        result: fmt_result(&result),
        pass,
        note: String::new(),
    }
}

fn wavefront_deadline(seed: u64) -> Outcome {
    const DIM: usize = 12;
    let total = (DIM * DIM) as u64;
    let spec = ChaosSpec::new(seed).delay_permille(1000, 300);
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let completed = Arc::new(AtomicUsize::new(0));
    build_wavefront(&tf, spec, DIM, &completed, false, 0);
    // A cancellation-aware tail that never finishes on its own
    // guarantees the deadline fires for every seed.
    tf.emplace(|| {
        while !this_task::is_cancelled() {
            std::thread::yield_now();
        }
    })
    .name("tail");
    let before = ex.stats();
    let result = tf.run_timeout(Duration::from_millis(50));
    let d = ex.stats().delta(&before).total();
    let pass = result == Err(RunError::Cancelled);
    Outcome {
        workload: "wavefront",
        scenario: "deadline",
        seed,
        total: total + 1,
        plan_panics: 0,
        completed: completed.load(Ordering::Relaxed) as u64,
        skipped: d.skipped,
        retries: d.retries,
        result: fmt_result(&result),
        pass,
        note: String::new(),
    }
}

/// Builds one epoch of a DNN-shaped pipeline: `layers` ranks of `width`
/// chaos-wrapped tasks with full bipartite dependencies between
/// consecutive ranks (forward pass shape); re-run per epoch via `run_n`.
fn build_dnn_epoch(
    tf: &Taskflow,
    spec: ChaosSpec,
    layers: usize,
    width: usize,
    completed: &Arc<AtomicUsize>,
    transient: bool,
    retry: u32,
) {
    let ranks: Vec<Vec<rustflow::Task<'_>>> = (0..layers)
        .map(|l| {
            (0..width)
                .map(|u| {
                    let node = (l * width + u) as u64;
                    let c = Arc::clone(completed);
                    let body = move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    };
                    let t = if transient {
                        tf.emplace(transient_wrap(spec, node, body))
                    } else {
                        tf.emplace(spec.wrap(node, body))
                    };
                    t.name(format!("l{l}_u{u}")).retry(retry)
                })
                .collect()
        })
        .collect();
    for l in 1..layers {
        for prev in &ranks[l - 1] {
            for cur in &ranks[l] {
                prev.precede(*cur);
            }
        }
    }
}

fn dnn_continue_all(seed: u64) -> Outcome {
    const LAYERS: usize = 8;
    const WIDTH: usize = 8;
    const EPOCHS: u64 = 5;
    let total = (LAYERS * WIDTH) as u64;
    let spec = ChaosSpec::new(seed).panic_permille(PANIC_PERMILLE);
    // run_n semantics: the first epoch whose plan panics resolves the
    // batch with that epoch's error and abandons the rest.
    let first_bad = (0..EPOCHS).find(|&e| panics_in_plan(spec, total, e) > 0);
    let epochs_run = first_bad.map_or(EPOCHS, |e| e + 1);
    let expect_completed: u64 = (0..epochs_run)
        .map(|e| total - panics_in_plan(spec, total, e))
        .sum();
    let plan_panics: u64 = (0..epochs_run)
        .map(|e| panics_in_plan(spec, total, e))
        .sum();
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let completed = Arc::new(AtomicUsize::new(0));
    build_dnn_epoch(&tf, spec, LAYERS, WIDTH, &completed, false, 0);
    let result = tf.run_n(EPOCHS).get();
    let completed = completed.load(Ordering::Relaxed) as u64;
    let pass = completed == expect_completed && result.is_err() == first_bad.is_some();
    Outcome {
        workload: "dnn_epoch",
        scenario: "continue_all",
        seed,
        total: total * EPOCHS,
        plan_panics,
        completed,
        skipped: 0,
        retries: 0,
        result: fmt_result(&result),
        pass,
        note: format!("epochs_run={epochs_run}"),
    }
}

fn dnn_retry(seed: u64) -> Outcome {
    const LAYERS: usize = 8;
    const WIDTH: usize = 8;
    const EPOCHS: u64 = 5;
    let total = (LAYERS * WIDTH) as u64;
    let spec = ChaosSpec::new(seed).panic_permille(PANIC_PERMILLE);
    let plan_panics: u64 = (0..EPOCHS).map(|e| panics_in_plan(spec, total, e)).sum();
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let completed = Arc::new(AtomicUsize::new(0));
    build_dnn_epoch(&tf, spec, LAYERS, WIDTH, &completed, true, 1);
    let before = ex.stats();
    let result = tf.run_n(EPOCHS).get();
    let d = ex.stats().delta(&before).total();
    let completed = completed.load(Ordering::Relaxed) as u64;
    let pass = result.is_ok() && completed == total * EPOCHS && d.retries == plan_panics;
    Outcome {
        workload: "dnn_epoch",
        scenario: "retry",
        seed,
        total: total * EPOCHS,
        plan_panics,
        completed,
        skipped: d.skipped,
        retries: d.retries,
        result: fmt_result(&result),
        pass,
        note: String::new(),
    }
}

fn dnn_cancel(seed: u64) -> Outcome {
    const LAYERS: usize = 8;
    const WIDTH: usize = 8;
    const EPOCHS: u64 = 10_000;
    let total = (LAYERS * WIDTH) as u64;
    let spec = ChaosSpec::new(seed); // no faults: pure cancel scenario
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let completed = Arc::new(AtomicUsize::new(0));
    build_dnn_epoch(&tf, spec, LAYERS, WIDTH, &completed, false, 0);
    let run = tf.run_n(EPOCHS);
    // Let a few epochs land, then pull the plug mid-batch.
    while completed.load(Ordering::Relaxed) < (3 * total) as usize {
        std::thread::yield_now();
    }
    let requested = run.cancel();
    let result = run.get();
    let completed = completed.load(Ordering::Relaxed) as u64;
    let pass = requested && result == Err(RunError::Cancelled) && completed < total * EPOCHS;
    Outcome {
        workload: "dnn_epoch",
        scenario: "cancel",
        seed,
        total: total * EPOCHS,
        plan_panics: 0,
        completed,
        skipped: 0,
        retries: 0,
        result: fmt_result(&result),
        pass,
        note: String::new(),
    }
}

fn fmt_result(r: &Result<(), RunError>) -> String {
    match r {
        Ok(()) => "ok".into(),
        Err(RunError::Cancelled) => "cancelled".into(),
        Err(e) if e.as_panic().is_some() => "panic".into(),
        Err(_) => "error".into(),
    }
}

fn write_report(cli: &Cli, outcomes: &[Outcome]) {
    let mut w = rustflow::wire::json::Writer::pretty();
    w.begin_object();
    w.field("schema", 1);
    w.key("scenarios");
    w.begin_array();
    for o in outcomes {
        w.begin_object();
        w.field_str("workload", o.workload);
        w.field_str("scenario", o.scenario);
        w.field("seed", o.seed);
        w.field("total", o.total);
        w.field("plan_panics", o.plan_panics);
        w.field("completed", o.completed);
        w.field("skipped", o.skipped);
        w.field("retries", o.retries);
        w.field_str("result", &o.result);
        w.field("pass", o.pass);
        w.end();
    }
    w.end();
    w.end();
    cli.write_report("chaos_report.json", &w.finish());
}
