//! Figure 8 — An example task dependency graph of a single timing update.
//!
//! Builds the paper's sample circuit (inp1/inp2/clock ports, gates u1–u4,
//! flip-flop f1, output out), runs a full timing update and reports the
//! critical path. The graph drawn is the one the v2 engine dispatches
//! (`Timer::update_task_graph_dot`): one task per block of level-sorted
//! gates, so the paper's eight gates are a single node. What lands in
//! `results/fig8.dot` for GraphViz is therefore the full update of a
//! generated 200-gate design, which has the structure the figure is about.

use tf_bench::harness::Cli;
use tf_timer::{Circuit, CircuitSpec, Engine, GateKind, Timer};

fn main() {
    let cli = Cli::parse();

    // The circuit of Fig. 8: u1 = NAND(inp1, inp2); f1 captures u1 and
    // launches u2/u4; u2 -> u3 -> out path; u4 = NAND(u1, f1) -> out.
    let mut c = Circuit::new(200.0);
    let inp1 = c.add_gate(GateKind::Input, 1.0);
    let inp2 = c.add_gate(GateKind::Input, 1.0);
    let u1 = c.add_gate(GateKind::Nand2, 1.0);
    let f1 = c.add_gate(GateKind::Dff, 1.0);
    let u2 = c.add_gate(GateKind::Inv, 1.0);
    let u3 = c.add_gate(GateKind::Inv, 1.0);
    let u4 = c.add_gate(GateKind::Nand2, 1.0);
    let out = c.add_gate(GateKind::Output, 1.0);
    c.connect(inp1, u1);
    c.connect(inp2, u1);
    c.connect(u1, f1); // D capture
    c.connect(f1, u2); // Q launch
    c.connect(u2, u3);
    c.connect(u1, u4);
    c.connect(f1, u4);
    c.connect(u3, out);

    let timer = Timer::new(c);
    let tasks = timer.full_update(&Engine::Sequential);
    println!("Figure 8: single timing update over {tasks} gates");
    println!("worst slack: {:.2} ps", timer.worst_slack());
    println!("critical path (gate ids): {:?}", timer.critical_path());
    let _ = u4;

    let seeds: Vec<u32> = timer.circuit().sources().collect();
    println!(
        "its task dependency graph:\n{}",
        timer.update_task_graph_dot(&seeds)
    );

    let timer = Timer::new(CircuitSpec::small_test(200, 8).generate());
    let seeds: Vec<u32> = timer.circuit().sources().collect();
    let dot = timer.update_task_graph_dot(&seeds);
    println!(
        "task dependency graph of a {}-gate design:",
        timer.circuit().num_gates()
    );
    cli.write_report("fig8.dot", &dot);
}
