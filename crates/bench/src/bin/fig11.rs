//! Figure 11 — The task decomposition strategy for parallel DNN
//! training, rendered as a DOT graph.
//!
//! Builds one epoch of the training task graph (a few batches of the
//! 3-layer architecture) with named tasks — `E0_S` (shuffle), `F_j`
//! (forward), `G_j_i` (per-layer gradient), `U_j_i` (per-layer update) —
//! and dumps it to `results/fig11.dot`.

use rustflow::Taskflow;
use tf_bench::harness::Cli;

fn main() {
    let cli = Cli::parse();
    let layers = 3;
    let batches = 3;

    let tf = Taskflow::new();
    tf.set_name("dnn_training_epoch");
    let shuffle = tf.placeholder().name("E0_S");
    let mut prev_updates: Vec<rustflow::Task<'_>> = Vec::new();
    for j in 0..batches {
        let forward = tf.placeholder().name(format!("F_{j}"));
        shuffle.precede(forward);
        forward.succeed(&prev_updates);
        prev_updates.clear();
        let mut prev = forward;
        for i in (0..layers).rev() {
            let g = tf.placeholder().name(format!("G_{j}_{i}"));
            prev.precede(g);
            let u = tf.placeholder().name(format!("U_{j}_{i}"));
            g.precede(u);
            prev_updates.push(u);
            prev = g;
        }
    }
    let dot = tf.dump();
    println!(
        "Figure 11: one-epoch training task graph ({} tasks: 1 shuffle + \
         {batches} x (1 forward + {layers} gradient + {layers} update))",
        1 + batches * (1 + 2 * layers)
    );
    cli.write_report("fig11.dot", &dot);
    println!("{dot}");
}
