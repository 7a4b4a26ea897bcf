//! Figure 7 — Performance comparisons on the two micro-benchmarks.
//!
//! * `--part size`: runtime vs problem size at a fixed thread count
//!   (paper: 8 CPUs; wavefront up to 262,144 tasks, graph traversal up to
//!   711,002 tasks), all three parallel models.
//! * `--part threads`: runtime vs thread count at the maximum problem
//!   size, rustflow vs the TBB-style flow graph (the paper skips OpenMP
//!   here as it is slower than both).
//!
//! The measurement includes library ramp-up (executor/pool creation),
//! graph construction, execution, and clean-up — matching §IV-A.

use rustflow::Executor;
use tf_baselines::Pool;
use tf_bench::harness::{median_ms, Cli, Report};
use tf_bench::impls::*;
use tf_workloads::randdag::RandDagSpec;

fn main() {
    let cli = Cli::parse();
    if cli.wants_part("size") {
        size_sweep(&cli);
    }
    if cli.wants_part("threads") {
        thread_sweep(&cli);
    }
}

/// Wavefront dims and traversal node counts for the sweep.
fn problem_sizes(full: bool) -> (Vec<usize>, Vec<usize>) {
    if full {
        // Paper scale: up to 512*512 = 262,144 and 711,002 tasks.
        (
            vec![128, 192, 256, 320, 384, 448, 512],
            vec![100_000, 200_000, 348_000, 500_000, 711_002],
        )
    } else {
        (
            vec![32, 48, 64, 96, 128],
            vec![10_000, 25_000, 50_000, 100_000],
        )
    }
}

fn size_sweep(cli: &Cli) {
    let reps = cli.number("--reps", 3) as usize;
    let threads = 8;
    let (dims, dag_sizes) = problem_sizes(cli.full);
    println!("Figure 7 (top): runtime vs problem size, {threads} threads");
    let mut report = Report::new(
        cli,
        "fig7_size",
        &[
            "benchmark",
            "tasks",
            "rustflow_ms",
            "tbb_style_ms",
            "openmp_style_ms",
            "levelized_ms",
        ],
    );
    report.print_header();

    for &dim in &dims {
        let iters = 40;
        let ex = Executor::new(threads);
        let rf = median_ms(reps, || {
            wavefront_rustflow::run(dim, iters, &ex);
        });
        let pool = Pool::new(threads);
        let fg = median_ms(reps, || {
            wavefront_flowgraph::run(dim, iters, &pool);
        });
        let omp = median_ms(reps, || {
            wavefront_openmp::run(dim, iters, &pool);
        });
        let lv = median_ms(reps, || {
            wavefront_levelized::run(dim, iters, &pool);
        });
        report.row(&[
            "wavefront".into(),
            (dim * dim).to_string(),
            format!("{rf:.2}"),
            format!("{fg:.2}"),
            format!("{omp:.2}"),
            format!("{lv:.2}"),
        ]);
    }
    for &nodes in &dag_sizes {
        let spec = RandDagSpec::new(nodes);
        let ex = Executor::new(threads);
        let rf = median_ms(reps, || {
            traversal_rustflow::run(spec, &ex);
        });
        let pool = Pool::new(threads);
        let fg = median_ms(reps, || {
            traversal_flowgraph::run(spec, &pool);
        });
        let omp = median_ms(reps, || {
            traversal_openmp::run(spec, &pool);
        });
        let lv = median_ms(reps, || {
            traversal_levelized::run(spec, &pool);
        });
        report.row(&[
            "traversal".into(),
            nodes.to_string(),
            format!("{rf:.2}"),
            format!("{fg:.2}"),
            format!("{omp:.2}"),
            format!("{lv:.2}"),
        ]);
    }
    report.save();
}

fn thread_sweep(cli: &Cli) {
    let reps = cli.number("--reps", 3) as usize;
    let threads = cli.thread_sweep(if cli.full {
        &[1, 2, 4, 8, 16, 32, 64]
    } else {
        &[1, 2, 4, 8]
    });
    let (dims, dag_sizes) = problem_sizes(cli.full);
    let dim = *dims.last().expect("nonempty");
    let nodes = *dag_sizes.last().expect("nonempty");
    println!(
        "Figure 7 (bottom): runtime vs threads (wavefront {} tasks, traversal {} tasks)",
        dim * dim,
        nodes
    );
    let mut report = Report::new(
        cli,
        "fig7_threads",
        &["benchmark", "threads", "rustflow_ms", "tbb_style_ms"],
    );
    report.print_header();
    for &t in &threads {
        let ex = Executor::new(t);
        let rf = median_ms(reps, || {
            wavefront_rustflow::run(dim, 40, &ex);
        });
        let pool = Pool::new(t);
        let fg = median_ms(reps, || {
            wavefront_flowgraph::run(dim, 40, &pool);
        });
        report.row(&[
            "wavefront".into(),
            t.to_string(),
            format!("{rf:.2}"),
            format!("{fg:.2}"),
        ]);
    }
    for &t in &threads {
        let spec = RandDagSpec::new(nodes);
        let ex = Executor::new(t);
        let rf = median_ms(reps, || {
            traversal_rustflow::run(spec, &ex);
        });
        let pool = Pool::new(t);
        let fg = median_ms(reps, || {
            traversal_flowgraph::run(spec, &pool);
        });
        report.row(&[
            "traversal".into(),
            t.to_string(),
            format!("{rf:.2}"),
            format!("{fg:.2}"),
        ]);
    }
    report.save();
}
