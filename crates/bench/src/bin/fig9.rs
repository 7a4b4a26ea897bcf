//! Figure 9 — Runtime comparisons of incremental timing between
//! OpenTimer v1 (OpenMP-style levelized) and v2 (rustflow), 16 CPUs, with
//! the sequential engine beside them as the oracle.
//!
//! Per iteration: one random design modifier (gate resize) followed by a
//! timing query that triggers an incremental update. tv80 runs 30
//! iterations, vga_lcd 100, as in the paper. `--full` uses the paper's
//! full gate counts; the default scales the circuits down (same shape).
//!
//! The v1 measurement includes re-levelizing the affected region (the
//! paper: "the time to reconstruct the data structure required by
//! OpenMP"); the v2 measurement includes building and launching the task
//! dependency graph.
//!
//! `--check` is the gate CI runs: the same modifier streams at the default
//! scale on one worker, nothing timed. Every iteration must leave v2 with
//! the sequential engine's worst slack, and per circuit the gates
//! propagated and the rustflow tasks executed (an `ExecutorStats` delta,
//! exact on any worker count) must equal the committed
//! `results/fig9_counts.json`, whose `block` is the v2 engine's gates per
//! task: executed tasks = Σ ⌈region / block⌉. The file is edited by hand
//! when the block size or the generator changes on purpose; a failing run
//! prints the numbers to put there.

use rustflow::wire::json;
use rustflow::Executor;
use tf_baselines::Pool;
use tf_bench::harness::{time_ms, Cli, Report};
use tf_timer::{Circuit, CircuitSpec, DesignModifier, Engine, Timer};

/// Seed of every modifier stream.
const MODIFIER_SEED: u64 = 0xF19;

fn specs(scale: f64) -> [(CircuitSpec, usize); 2] {
    [
        (CircuitSpec::tv80().scaled(scale), 30),
        (CircuitSpec::vga_lcd().scaled(scale), 100),
    ]
}

/// A timer over `circuit`, brought up to date by `engine`, and the
/// modifier stream every engine is driven by.
fn timer_and_modifier(circuit: Circuit, engine: &Engine<'_>) -> (Timer, DesignModifier) {
    let timer = Timer::new(circuit);
    timer.full_update(engine);
    let modifier = DesignModifier::new(timer.circuit(), MODIFIER_SEED);
    (timer, modifier)
}

fn main() {
    let cli = Cli::parse();
    if cli.check {
        check(&cli);
        return;
    }
    let threads = 16;
    let scale = if cli.full { 1.0 } else { 0.05 };
    let pool = Pool::new(threads);
    let executor = Executor::new(threads);

    let mut report = Report::new(
        &cli,
        "fig9",
        &[
            "circuit",
            "gates",
            "iteration",
            "tasks",
            "v1_ms",
            "v2_ms",
            "seq_ms",
        ],
    );
    println!(
        "Figure 9: incremental timing, v1 (levelized) vs v2 (rustflow) on {threads} threads, \
         and the sequential engine"
    );
    report.print_header();

    for (spec, iterations) in specs(scale) {
        let circuit = spec.generate();
        println!(
            "  {}: {} gates, {} nets",
            spec.name,
            circuit.num_gates(),
            circuit.num_nets()
        );
        // Three identical timers driven by identical modifier streams, so
        // every engine sees the same incremental workload.
        let (mut t_v1, mut m_v1) = timer_and_modifier(circuit.clone(), &Engine::V1Levelized(&pool));
        let (mut t_v2, mut m_v2) =
            timer_and_modifier(circuit.clone(), &Engine::V2Rustflow(&executor));
        let (mut t_seq, mut m_seq) = timer_and_modifier(circuit, &Engine::Sequential);

        let mut total_tasks = 0usize;
        let (mut sum_v1, mut sum_v2, mut sum_seq) = (0.0f64, 0.0f64, 0.0f64);
        let mut ratios: Vec<f64> = Vec::with_capacity(iterations);
        for iter in 0..iterations {
            let seeds = m_v1.apply(&mut t_v1);
            assert_eq!(seeds, m_v2.apply(&mut t_v2), "modifier streams diverged");
            assert_eq!(seeds, m_seq.apply(&mut t_seq), "modifier streams diverged");
            let mut tasks = 0;
            let v1_ms = time_ms(|| {
                tasks = t_v1.incremental_update(&seeds, &Engine::V1Levelized(&pool));
            });
            let v2_ms = time_ms(|| {
                t_v2.incremental_update(&seeds, &Engine::V2Rustflow(&executor));
            });
            let seq_ms = time_ms(|| {
                t_seq.incremental_update(&seeds, &Engine::Sequential);
            });
            for (engine, timer) in [("v1", &t_v1), ("v2", &t_v2)] {
                assert!(
                    (timer.worst_slack() - t_seq.worst_slack()).abs() < 1e-6,
                    "{engine} disagrees with the sequential engine on slack"
                );
            }
            total_tasks += tasks;
            sum_v1 += v1_ms;
            sum_v2 += v2_ms;
            sum_seq += seq_ms;
            ratios.push(v1_ms / v2_ms.max(1e-9));
            report.row(&[
                spec.name.to_string(),
                spec.gates.to_string(),
                iter.to_string(),
                tasks.to_string(),
                format!("{v1_ms:.3}"),
                format!("{v2_ms:.3}"),
                format!("{seq_ms:.3}"),
            ]);
        }
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max_ratio = ratios.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "  {}: total incremental tasks {} | average per-iteration \
             speed-up v2/v1 {:.2}x (paper's metric), max {:.2}x, \
             total-time ratio {:.2}x | total time v2/sequential {:.2}x",
            spec.name,
            total_tasks,
            mean_ratio,
            max_ratio,
            sum_v1 / sum_v2.max(1e-9),
            sum_seq / sum_v2.max(1e-9)
        );
    }
    report.save();
    println!(
        "\nShape check: v2 consistently at or below v1 per iteration; \
         fluctuation follows the affected-region size (local vs global \
         modifiers), as in the paper."
    );
}

/// The `--check` gate (module doc).
fn check(cli: &Cli) {
    let path = cli.out.join("fig9_counts.json");
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("--check needs {}: {e}", path.display()));
    let committed = json::parse(&committed).expect("committed fig9_counts.json is not JSON");
    let field = |v: &json::Value, key: &str| {
        v.get(key)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("{} has no {key}", path.display()))
    };
    assert_eq!(
        field(&committed, "modifier_seed"),
        MODIFIER_SEED,
        "modifier seed"
    );
    let block = field(&committed, "block");
    let executor = Executor::new(1);
    let engine = Engine::V2Rustflow(&executor);
    println!(
        "Figure 9 gate: one worker, {block} gates per task, against {}",
        path.display()
    );

    let mut failed = false;
    for (spec, iterations) in specs(0.05) {
        let circuit = spec.generate();
        let (mut v2, mut m_v2) = timer_and_modifier(circuit.clone(), &engine);
        let (mut seq, mut m_seq) = timer_and_modifier(circuit, &Engine::Sequential);

        let before = executor.stats().total().executed;
        let (mut region_gates, mut blocks) = (0u64, 0u64);
        for iter in 0..iterations {
            let seeds = m_v2.apply(&mut v2);
            assert_eq!(seeds, m_seq.apply(&mut seq), "modifier streams diverged");
            let region = v2.incremental_update(&seeds, &engine) as u64;
            seq.incremental_update(&seeds, &Engine::Sequential);
            assert!(
                (v2.worst_slack() - seq.worst_slack()).abs() < 1e-6,
                "{} iteration {iter}: v2 slack {} != sequential {}",
                spec.name,
                v2.worst_slack(),
                seq.worst_slack()
            );
            region_gates += region;
            blocks += region.div_ceil(block);
        }
        let executed = executor.stats().total().executed - before;

        let want = committed
            .get("circuits")
            .and_then(|c| c.get(spec.name))
            .unwrap_or_else(|| panic!("{} has no circuits.{}", path.display(), spec.name));
        let got = [
            ("iterations", iterations as u64),
            ("region_gates", region_gates),
            ("executed_tasks", executed),
        ];
        println!(
            "  {}: {iterations} iterations, {region_gates} gates propagated, \
             {executed} tasks executed",
            spec.name
        );
        if executed != blocks {
            eprintln!(
                "fig9 gate: {} executed {executed} tasks, but the regions cut into blocks \
                 of {block} give {blocks}",
                spec.name
            );
            failed = true;
        }
        for (key, value) in got {
            if value != field(want, key) {
                eprintln!(
                    "fig9 gate: {} {key} is {value}, committed {}",
                    spec.name,
                    field(want, key)
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("fig9 gate: OK (slack agrees every iteration, task counts exact)");
}
