//! Incremental VLSI static timing analysis (§II / §IV-B): the paper's
//! motivating application. Generates a tv80-scale synthetic design, runs
//! a full timing update with the v2 (rustflow) engine, then plays an
//! optimization loop of design modifiers with incremental updates —
//! checking against the sequential oracle as it goes.
//!
//! ```text
//! cargo run --release --example timing_analysis [gates] [iterations]
//! ```

use rustflow::Executor;
use std::time::Instant;
use tf_timer::{CircuitSpec, DesignModifier, Engine, Timer};

fn main() {
    let mut args = std::env::args().skip(1);
    let gates: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5_300);
    let iterations: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);

    let mut spec = CircuitSpec::tv80();
    spec.gates = gates;
    let circuit = spec.generate();
    println!(
        "design: {} gates, {} nets, {} edges, {} endpoints",
        circuit.num_gates(),
        circuit.num_nets(),
        circuit.num_edges(),
        circuit.endpoints().count()
    );

    let executor = Executor::new(4);
    let engine = Engine::V2Rustflow(&executor);
    let mut timer = Timer::new(circuit.clone());

    let start = Instant::now();
    let tasks = timer.full_update(&engine);
    println!(
        "full update: {tasks} gates in {:.2} ms, worst slack {:.2} ps",
        start.elapsed().as_secs_f64() * 1e3,
        timer.worst_slack()
    );
    let path = timer.critical_path();
    println!(
        "critical path: {} gates, ends at arrival {:.2} ps",
        path.len(),
        timer.arrival(*path.last().expect("nonempty path"))
    );

    // The optimization loop: modify, then query (incremental update).
    let mut modifier = DesignModifier::new(timer.circuit(), 42);
    let mut oracle = Timer::new(circuit);
    let mut oracle_modifier = DesignModifier::new(oracle.circuit(), 42);
    oracle.full_update(&Engine::Sequential);

    let mut total_tasks = 0;
    let loop_start = Instant::now();
    for i in 0..iterations {
        let seeds = modifier.apply(&mut timer);
        let oracle_seeds = oracle_modifier.apply(&mut oracle);
        assert_eq!(seeds, oracle_seeds);
        let n = timer.incremental_update(&seeds, &engine);
        oracle.incremental_update(&oracle_seeds, &Engine::Sequential);
        total_tasks += n;
        let slack = timer.worst_slack();
        assert!(
            (slack - oracle.worst_slack()).abs() < 1e-9,
            "engine diverged from oracle at iteration {i}"
        );
        if i < 5 || i + 1 == iterations {
            println!("iteration {i}: {n} gates, worst slack {slack:.2} ps");
        }
    }
    println!(
        "{iterations} incremental iterations, {total_tasks} gates propagated in {:.2} ms (all slacks verified against the sequential oracle)",
        loop_start.elapsed().as_secs_f64() * 1e3
    );
}
