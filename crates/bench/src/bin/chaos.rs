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
//! Each is a row of [`SCENARIOS`] over one driver ([`Scenario::run`]).
//! Results land in `<out>/chaos_report.json` (git-ignored: its completed
//! and skipped counts differ run to run); any mismatch makes the process
//! exit non-zero, failing the CI job.

use rustflow::chaos::{ChaosSpec, Fault};
use rustflow::{this_task, Executor, FailurePolicy, RunError, RunResult, Taskflow};
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

/// One workload shape: a grid of chaos-wrapped tasks, each body bumping a
/// counter; the task at `(row, column)` is node `row * columns + column`.
#[derive(Clone, Copy)]
struct Shape {
    name: &'static str,
    rows: usize,
    columns: usize,
    /// A task is named `<.0><row><.1><column>`.
    tags: (&'static str, &'static str),
    /// Full bipartite dependencies between consecutive rows, or else each
    /// task precedes its neighbours below and to the right.
    bipartite: bool,
}

/// A wavefront: node `(i, j)` precedes `(i+1, j)` and `(i, j+1)`.
const WAVEFRONT: Shape = Shape {
    name: "wavefront",
    rows: 24,
    columns: 24,
    tags: ("w", "_"),
    bipartite: false,
};

/// One epoch of a DNN-shaped pipeline: layers of units, each layer feeding
/// all of the next (forward pass shape); re-run per epoch via `run_n`.
const DNN_EPOCH: Shape = Shape {
    name: "dnn_epoch",
    rows: 8,
    columns: 8,
    tags: ("l", "_u"),
    bipartite: true,
};

impl Shape {
    /// Emplaces the grid through `task` and wires the shape's edges.
    fn build<'a>(self, task: impl Fn(u64, String) -> rustflow::Task<'a>) {
        let name = |r: usize, c: usize| format!("{}{r}{}{c}", self.tags.0, self.tags.1);
        let row = |r: usize| (0..self.columns).map(move |c| (r, c));
        let tasks: Vec<Vec<rustflow::Task<'_>>> = (0..self.rows)
            .map(|r| {
                row(r)
                    .map(|(r, c)| task((r * self.columns + c) as u64, name(r, c)))
                    .collect()
            })
            .collect();
        for (r, rank) in tasks.iter().enumerate() {
            for (c, task) in rank.iter().enumerate() {
                match tasks.get(r + 1) {
                    Some(below) if self.bipartite => task.precede(below),
                    Some(below) => task.precede(below[c]),
                    None => *task,
                };
                if let (false, Some(right)) = (self.bipartite, rank.get(c + 1)) {
                    task.precede(*right);
                }
            }
        }
    }
}

/// How a scenario's run is driven to its result.
#[derive(Clone, Copy)]
enum Drive {
    /// `run_n(epochs).get()`.
    Get,
    /// A cancellation-aware tail task that never finishes on its own
    /// guarantees the deadline fires for every seed; the run is bounded
    /// by it and must degrade to `Cancelled`.
    Deadline(Duration),
    /// Let a few epochs land, then pull the plug mid-batch.
    CancelAfterEpochs(u64),
}

/// One scenario: a row of the gate.
struct Scenario {
    name: &'static str,
    shape: Shape,
    epochs: u64,
    faults: fn(ChaosSpec) -> ChaosSpec,
    policy: FailurePolicy,
    /// Planned panics fire once per (node, epoch) and every task may retry
    /// this often: the transient-fault model a retry budget absorbs.
    retries: u32,
    drive: Drive,
    verdict: fn(&Outcome) -> bool,
}

/// One scenario under one seed.
struct Outcome {
    scenario: &'static Scenario,
    seed: u64,
    // What the pure fault plan says before anything runs. Without a retry
    // budget `run_n` stops at the first epoch whose plan panics, resolving
    // the batch with that epoch's error and abandoning the rest.
    /// Nodes of one epoch.
    nodes: u64,
    /// The first epoch with a planned panic.
    first_bad: Option<u64>,
    epochs_run: u64,
    /// Planned panics of the epochs that run.
    plan_panics: u64,
    // What the run did.
    completed: u64,
    skipped: u64,
    retries: u64,
    result: RunResult,
    /// `cancel()`'s answer under [`Drive::CancelAfterEpochs`].
    cancel_requested: bool,
}

fn seeded_panics(spec: ChaosSpec) -> ChaosSpec {
    spec.panic_permille(PANIC_PERMILLE)
}

/// ContinueAll: every fault-free body of the executed epochs ran; the
/// batch fails iff the plan says so.
fn continue_all(o: &Outcome) -> bool {
    let fault_free = o.nodes * o.epochs_run - o.plan_panics;
    o.completed == fault_free && o.result.is_err() == o.first_bad.is_some()
}

/// FailFast: the run fails iff the plan panics, never more bodies run
/// than ContinueAll would allow, and every node is accounted for as
/// completed, skipped, or a panicked attempt.
fn fail_fast(o: &Outcome) -> bool {
    o.result.is_err() == (o.plan_panics > 0)
        && o.completed <= o.nodes - o.plan_panics
        && o.completed + o.skipped <= o.nodes
        && o.completed + o.skipped + o.plan_panics >= o.nodes
}

/// One retry per task absorbs every fire-once transient fault, with one
/// retry charged per planned panic.
fn retried(o: &Outcome) -> bool {
    o.result.is_ok() && o.completed == o.nodes * o.scenario.epochs && o.retries == o.plan_panics
}

fn cancelled(o: &Outcome) -> bool {
    o.result == Err(RunError::Cancelled)
}

fn cancelled_mid_batch(o: &Outcome) -> bool {
    o.cancel_requested
        && o.result == Err(RunError::Cancelled)
        && o.completed < o.nodes * o.scenario.epochs
}

/// The plain scenario; a row of [`SCENARIOS`] says where it differs.
const PLAIN: Scenario = Scenario {
    name: "continue_all",
    shape: WAVEFRONT,
    epochs: 1,
    faults: seeded_panics,
    policy: FailurePolicy::ContinueAll,
    retries: 0,
    drive: Drive::Get,
    verdict: continue_all,
};

static SCENARIOS: [Scenario; 7] = [
    PLAIN,
    Scenario {
        name: "fail_fast",
        policy: FailurePolicy::FailFast,
        verdict: fail_fast,
        ..PLAIN
    },
    Scenario {
        name: "retry",
        retries: 1,
        verdict: retried,
        ..PLAIN
    },
    Scenario {
        name: "deadline",
        shape: Shape {
            rows: 12,
            columns: 12,
            ..WAVEFRONT
        },
        faults: |spec| spec.delay_permille(1000, 300),
        drive: Drive::Deadline(Duration::from_millis(50)),
        verdict: cancelled,
        ..PLAIN
    },
    Scenario {
        shape: DNN_EPOCH,
        epochs: 5,
        ..PLAIN
    },
    Scenario {
        name: "retry",
        shape: DNN_EPOCH,
        epochs: 5,
        retries: 1,
        verdict: retried,
        ..PLAIN
    },
    // No faults: a pure cancel scenario.
    Scenario {
        name: "cancel",
        shape: DNN_EPOCH,
        epochs: 10_000,
        faults: |spec| spec,
        drive: Drive::CancelAfterEpochs(3),
        verdict: cancelled_mid_batch,
        ..PLAIN
    },
];

impl Scenario {
    /// Derives the plan for `seed`, builds the workload, snapshots the
    /// executor's counters, runs, and reports what happened.
    fn run(&'static self, seed: u64) -> Outcome {
        let spec = (self.faults)(ChaosSpec::new(seed));
        let nodes = (self.shape.rows * self.shape.columns) as u64;
        let panics_in = |epoch: u64| {
            let planned = (0..nodes).filter(|&n| spec.fault(n, epoch) == Fault::Panic);
            planned.count() as u64
        };
        let first_bad = (0..self.epochs).find(|&e| panics_in(e) > 0);
        let epochs_run = match first_bad {
            Some(bad) if self.retries == 0 => bad + 1,
            _ => self.epochs,
        };
        let plan_panics: u64 = (0..epochs_run).map(panics_in).sum();

        let ex = Executor::new(4);
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        tf.set_failure_policy(self.policy);
        let completed = Arc::new(AtomicUsize::new(0));
        self.shape.build(|node, name| {
            let c = Arc::clone(&completed);
            let body = move || {
                c.fetch_add(1, Ordering::Relaxed);
            };
            let task = if self.retries > 0 {
                tf.emplace(transient_wrap(spec, node, body))
            } else {
                tf.emplace(spec.wrap(node, body))
            };
            task.name(name).retry(self.retries)
        });
        if let Drive::Deadline(_) = self.drive {
            let tail = || {
                while !this_task::is_cancelled() {
                    std::thread::yield_now();
                }
            };
            tf.emplace(tail).name("tail");
        }
        let before = ex.stats();
        let run = tf.run_n(self.epochs);
        let mut cancel_requested = false;
        let result = match self.drive {
            Drive::Get => run.get(),
            Drive::Deadline(deadline) => run.wait_timeout(deadline),
            Drive::CancelAfterEpochs(landed) => {
                while (completed.load(Ordering::Relaxed) as u64) < landed * nodes {
                    std::thread::yield_now();
                }
                cancel_requested = run.cancel();
                run.get()
            }
        };
        let delta = ex.stats().delta(&before).total();
        Outcome {
            scenario: self,
            seed,
            nodes,
            first_bad,
            epochs_run,
            plan_panics,
            completed: completed.load(Ordering::Relaxed) as u64,
            skipped: delta.skipped,
            retries: delta.retries,
            result,
            cancel_requested,
        }
    }
}

impl Outcome {
    fn pass(&self) -> bool {
        (self.scenario.verdict)(self)
    }

    /// Tasks the whole batch would run: every epoch's nodes, and the
    /// deadline scenario's tail.
    fn total(&self) -> u64 {
        let tail = matches!(self.scenario.drive, Drive::Deadline(_)) as u64;
        (self.nodes + tail) * self.scenario.epochs
    }
}

fn main() {
    let cli = Cli::parse();
    // Seeded panics are the point of this gate; the default hook would
    // bury the scenario table under hundreds of expected backtraces. The
    // messages survive in each run's `TaskPanic` either way.
    std::panic::set_hook(Box::new(|_| {}));
    let (seeds, scenarios) = (SEEDS.len(), SCENARIOS.len());
    println!("chaos gate: {seeds} seeds × {scenarios} scenarios");
    let runs = SEEDS
        .iter()
        .flat_map(|&seed| SCENARIOS.iter().map(move |s| s.run(seed)));
    let outcomes: Vec<Outcome> = runs.collect();
    for o in &outcomes {
        println!(
            "  {} {:10} {:12} seed={:<5} total={:<5} panics={:<3} completed={:<5} \
             skipped={:<5} retries={:<3} result={} epochs_run={}",
            if o.pass() { "ok  " } else { "FAIL" },
            o.scenario.shape.name,
            o.scenario.name,
            o.seed,
            o.total(),
            o.plan_panics,
            o.completed,
            o.skipped,
            o.retries,
            fmt_result(&o.result),
            o.epochs_run,
        );
    }
    write_report(&cli, &outcomes);
    let failed = outcomes.iter().filter(|o| !o.pass()).count();
    if failed > 0 {
        eprintln!("chaos gate: {failed} scenario(s) diverged from their seeded plan");
        std::process::exit(1);
    }
    println!(
        "chaos gate: all {} scenarios match their plans",
        outcomes.len()
    );
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

fn fmt_result(r: &RunResult) -> &'static str {
    match r {
        Ok(()) => "ok",
        Err(RunError::Cancelled) => "cancelled",
        Err(e) if e.as_panic().is_some() => "panic",
        Err(_) => "error",
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
        w.field_str("workload", o.scenario.shape.name);
        w.field_str("scenario", o.scenario.name);
        w.field("seed", o.seed);
        w.field("total", o.total());
        w.field("plan_panics", o.plan_panics);
        w.field("completed", o.completed);
        w.field("skipped", o.skipped);
        w.field("retries", o.retries);
        w.field_str("result", fmt_result(&o.result));
        w.field("pass", o.pass());
        w.end();
    }
    w.end();
    w.end();
    cli.write_report("chaos_report.json", &w.finish());
}
