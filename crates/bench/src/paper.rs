//! The paper's record: every table and figure as an entry of one table
//! (`ARTIFACTS`), regenerated and checked by one runner ([`run`], the
//! `paper` binary) over one table of programming models
//! ([`crate::impls::CONTENDERS`]).
//!
//! Without `--check` an artifact is regenerated into `--out`: the cost
//! tables and graphs (`table*.csv`, `selfcost.csv`, `fig*.dot`), whose
//! bytes depend on the source alone, and the figures' timing CSVs, which
//! are this box's record. With `--check` everything runs at the default
//! scale and nothing is written under `--out`. Each claim an artifact
//! makes is asserted if this box can resolve it:
//!
//! * exact ones in every run: every contender's checksum or bitwise
//!   weights equal the oracle's in the very run that was timed, the
//!   executor's `executed` delta equals the closed-form task count, the
//!   cost tables' orderings that hold here;
//! * under `--check`, a regenerated exact file is byte-equal to the
//!   committed one, and a timing ordering holds as a same-process
//!   interleaved median ratio against a margin wider than the box's own
//!   spread (`Paper::ratio_claim`: rustflow against the TBB-style graph
//!   on Figure 7 at one and two threads). Every other timing is printed.
//!
//! A paper claim that does not hold here is printed as what is measured,
//! never asserted; EXPERIMENTS.md says which ones and why.

use crate::harness::{canonical_dot, median, time_ms, Cli, Report, Sampler};
use crate::impls::{Backend, Contender, Runtime, Subject};
use rustflow::wire::json;
use rustflow::{BusyCounter, Executor, ExecutorObserver, Taskflow, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_baselines::Pool;
use tf_dnn::net::{arch_3layer, arch_5layer};
use tf_dnn::pipeline::TrainSpec;
use tf_metrics::SoftwareCost;
use tf_timer::{Circuit, CircuitSpec, DesignModifier, Engine, GateKind, Timer};
use tf_workloads::randdag::{self, RandDagSpec};
use tf_workloads::wavefront::{self, WavefrontSpec};

type Artifact = (&'static str, fn(&mut Paper<'_>));

/// Every artifact under the name `--part` selects it by (its panels are
/// `<name>.<panel>`), in the paper's order; `selfcost` is Table II's
/// yardstick turned on this repository.
const ARTIFACTS: &[Artifact] = &[
    ("table1", table1),
    ("fig7", fig7),
    ("table2", table2),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("table3", table3),
    ("fig11", fig11),
    ("fig12", fig12),
    ("selfcost", selfcost),
];

/// How far a timing ratio may exceed 1 before [`Paper::ratio_claim`]
/// fails. Ten runs of unchanged code on the 2-vCPU build box spread the
/// one asserted family (rustflow / tbb-style at 1 and 2 threads) by up to
/// 0.41 at a point, 0.24–0.98 overall (EXPERIMENTS.md, "The paper's
/// record"), so "A is not slower than B" is held to 1.5. A ratio whose
/// own spread is wider than that (v2 / v1 on Figure 10: 0.61–1.46) is
/// printed, not asserted.
const RATIO_MARGIN: f64 = 1.5;

type PaperCosts = (&'static str, [(u32, u32); 3], u32);

/// The paper's own cells of Tables I and III per model: `(LOC, CC)` on
/// wavefront, traversal and DNN training, then the DNN's development time
/// in hours, a human measurement nothing here reproduces. A model the
/// paper does not have reads zeros.
const PAPER_COSTS: &[PaperCosts] = &[
    ("rustflow", [(30, 7), (40, 6), (59, 11)], 3),
    ("openmp-style", [(64, 12), (213, 28), (162, 23)], 9),
    ("tbb-style", [(38, 8), (59, 8), (90, 12)], 3),
    ("sequential", [(14, 3), (14, 3), (33, 9)], 2),
];

/// One run of the record: the flags, the contenders, and what failed.
pub struct Paper<'a> {
    cli: &'a Cli,
    contenders: &'a [Contender],
    failures: Vec<String>,
}

/// Runs the artifacts `--part` selects (all without it) over `contenders`
/// and returns the claims that failed.
pub fn run(cli: &Cli, contenders: &[Contender]) -> Vec<String> {
    let mut paper = Paper {
        cli,
        contenders,
        failures: Vec::new(),
    };
    let wanted = ARTIFACTS.iter().filter(|(name, _)| cli.wants_part(name));
    let wanted: Vec<_> = wanted.collect();
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    assert!(!wanted.is_empty(), "--part names none of {names:?}");
    for (_, artifact) in wanted {
        artifact(&mut paper);
    }
    paper.failures
}

/// Records a claim this run can resolve exactly: `claim!(paper, holds,
/// "what went wrong, {formatted}")`, an `assert!` that lets the run
/// finish and report every failure.
macro_rules! claim {
    ($paper:expr, $holds:expr, $($what:tt)+) => {
        if !$holds {
            let what = format!($($what)+);
            eprintln!("  FAIL: {what}");
            $paper.failures.push(what);
        }
    };
}

/// Milliseconds as `[contender][repetition]`.
type Samples = Vec<Vec<f64>>;

/// One row of a sweep: what every contender is timed on.
struct Point<'a, R> {
    /// The row's leading cells, which also name it in a failure.
    lead: String,
    threads: usize,
    /// Rustflow tasks one run executes, by the closed form.
    tasks: usize,
    /// What every result must equal; `None`: the sequential contender's
    /// result at this very point.
    oracle: Option<R>,
    /// Whether the paper's "rustflow ahead of the TBB-style graph" is
    /// asserted here (under `--check`, as a ratio) or only printed.
    rustflow_leads: bool,
    run: Entry<'a, R>,
}

/// A contender's entry point bound to one point's arguments.
type Entry<'a, R> = Box<dyn Fn(&Contender, &Runtime) -> R + 'a>;

impl Paper<'_> {
    /// A size of an experiment: `default`, which keeps its shape at what
    /// the 2-vCPU build box finishes in seconds, or on `--full` the
    /// paper's (hours on a small box). A `--check` run is never full.
    fn pick<T>(&self, default: T, full: T) -> T {
        if self.cli.full && !self.cli.check {
            full
        } else {
            default
        }
    }

    /// The thread sweep of Figures 7, 10 and 12, unless `--threads` says
    /// otherwise.
    fn threads(&self) -> Vec<usize> {
        let default = self.pick(&[1, 2, 4, 8][..], &[1, 2, 4, 8, 16, 32, 64]);
        self.cli.thread_sweep(default)
    }

    fn reps(&self) -> usize {
        self.cli.number("--reps", 3).max(1) as usize
    }

    /// A file whose bytes follow from the source alone: rewritten by a
    /// record run, and under `--check` compared with the committed one
    /// (the regenerated text lands beside the other gate outputs).
    fn exact(&mut self, file: &str, text: &str) {
        let same = !self.cli.check || self.cli.committed(file) == text;
        claim!(
            self,
            same,
            "{file} regenerates differently from the committed file"
        );
        self.cli.write_report(file, text);
    }

    fn index_of(&self, label: &str) -> Option<usize> {
        self.contenders.iter().position(|c| c.label == label)
    }

    /// The sequential oracle among the contenders: the one that runs on
    /// the calling thread.
    fn sequential(&self) -> Option<usize> {
        let inline = |c: &Contender| c.backend == Backend::Inline;
        self.contenders.iter().position(inline)
    }

    /// A timing ordering "`a` is not slower than `b`" from samples taken
    /// interleaved in this process: the median of the per-repetition
    /// ratios `a / b` is printed, and where `asserted`, under `--check`,
    /// must stay within [`RATIO_MARGIN`].
    fn ratio_claim(&mut self, what: &str, a: &[f64], b: &[f64], asserted: bool) {
        let mut ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| a / b.max(1e-9)).collect();
        let (ratio, pairs) = (median(&mut ratios), ratios.len());
        println!("  {what}: median ratio {ratio:.2} over {pairs} pairs");
        let holds = !(asserted && self.cli.check) || ratio <= RATIO_MARGIN;
        claim!(
            self,
            holds,
            "{what}: ratio {ratio:.2} exceeds {RATIO_MARGIN}"
        );
    }

    /// Times one point: every contender runs it on a fresh backend of
    /// `point.threads` workers, `reps` times, the repetitions interleaved
    /// across contenders so that drift hits them alike. Every result must
    /// equal the oracle's, and an executor must have executed exactly
    /// `point.tasks` tasks per run.
    fn time_point<R: PartialEq>(&mut self, reps: usize, point: &Point<'_, R>) -> Samples {
        let contenders = self.contenders;
        let start = |c: &Contender| c.backend.start(point.threads);
        let runtimes: Vec<Runtime> = contenders.iter().map(start).collect();
        let executed_before: Vec<Option<u64>> = runtimes.iter().map(Runtime::executed).collect();
        let mut samples = vec![Vec::with_capacity(reps); runtimes.len()];
        let mut results: Vec<Option<R>> = runtimes.iter().map(|_| None).collect();
        for _ in 0..reps {
            for (i, (contender, runtime)) in contenders.iter().zip(&runtimes).enumerate() {
                let run = || results[i] = Some((point.run)(contender, runtime));
                samples[i].push(time_ms(run));
            }
        }
        let what = &point.lead;
        let oracle = point.oracle.as_ref();
        let oracle = oracle.or_else(|| results[self.sequential()?].as_ref());
        let oracle = oracle.unwrap_or_else(|| panic!("{what}: no oracle, no sequential contender"));
        for (i, contender) in contenders.iter().enumerate() {
            let label = contender.label;
            let agrees = results[i].as_ref() == Some(oracle);
            claim!(self, agrees, "{what}: {label} disagrees with the oracle");
            let executed = runtimes[i].executed().zip(executed_before[i]);
            let got = executed.map(|(after, before)| after - before);
            let want = (reps * point.tasks) as u64;
            let counted = got.is_none_or(|got| got == want);
            claim!(
                self,
                counted,
                "{what}: {label} executed {got:?} tasks, not the {want} of the closed form"
            );
        }
        samples
    }

    /// One panel of a sweep figure: a row per point, its `lead` cells and
    /// then every contender's median in `unit` (`per_ms` of them to the
    /// millisecond), under the header `lead` and `<model>_<unit>`.
    fn sweep<R: PartialEq>(
        &mut self,
        file: &str,
        lead: &str,
        (unit, per_ms): (&str, f64),
        reps: usize,
        points: Vec<Point<'_, R>>,
    ) {
        let column = |c: &Contender| format!(",{}_{unit}", c.column());
        let columns: String = self.contenders.iter().map(column).collect();
        let mut report = Report::new(&format!("{lead}{columns}"));
        for point in points {
            let mut samples = self.time_point(reps, &point);
            if let (Some(rf), Some(tbb)) = (self.index_of("rustflow"), self.index_of("tbb-style")) {
                let what = format!("{}: rustflow / tbb-style", point.lead);
                self.ratio_claim(&what, &samples[rf], &samples[tbb], point.rustflow_leads);
            }
            let median_cell = |s: &mut Vec<f64>| format!(",{:.2}", median(s) * per_ms);
            let medians: String = samples.iter_mut().map(median_cell).collect();
            report.row(format_args!("{}{medians}", point.lead));
        }
        self.cli.write_report(file, report.csv());
    }
}

// ---------------------------------------------------------------------
// Tables I and III: software costs of the contenders' sources
// ---------------------------------------------------------------------

/// Appends the rows of benchmark `what` to a cost table: `subject` of
/// every contender is measured, beside column `benchmark` of
/// [`PAPER_COSTS`]. A row is `model, loc, cc_total, functions, paper_loc,
/// paper_cc`, led by the benchmark in Table I and followed by the paper's
/// development hours in Table III.
///
/// Asserted are the orderings of the paper's cost tables that hold here:
/// the sequential code is the shortest, and rustflow is no longer than
/// the TBB- and OpenMP-style codes. How much longer those are is printed
/// beside the paper's ratio: its OpenMP blow-up on traversal (213 against
/// 40 lines) does not reproduce on implementations that share this
/// repository's baselines.
fn cost_rows<F>(
    paper: &mut Paper<'_>,
    report: &mut Report,
    (benchmark, what, table3): (usize, &str, bool),
    subject: impl Fn(&Contender) -> &Subject<F>,
) {
    let contenders = paper.contenders;
    let measure = |c: &Contender| SoftwareCost::measure_files(c.label, [subject(c).source_path()]);
    let costs: Vec<SoftwareCost> = contenders.iter().map(measure).collect();
    let in_paper = |label: &str| {
        let row = PAPER_COSTS.iter().find(|(model, ..)| *model == label);
        row.map_or(((0, 0), 0), |(_, cells, hours)| (cells[benchmark], *hours))
    };
    let sequential = paper.sequential().map(|i| costs[i].sloc);
    // (lines here, lines in the paper).
    let rustflow = paper.index_of("rustflow");
    let rustflow = rustflow.map(|i| (costs[i].sloc, in_paper("rustflow").0 .0));
    for (contender, cost) in contenders.iter().zip(&costs) {
        let (label, sloc) = (contender.label, cost.sloc);
        let parallel = contender.backend != Backend::Inline;
        if let (Some(sequential), true) = (sequential, parallel) {
            claim!(
                paper,
                sequential < sloc,
                "{what}: sequential ({sequential} LOC) is not below {label} ({sloc})"
            );
        }
        let ((paper_loc, paper_cc), hours) = in_paper(label);
        if let (Some((rustflow, paper_rustflow)), true) =
            (rustflow, ["tbb-style", "openmp-style"].contains(&label))
        {
            claim!(
                paper,
                rustflow <= sloc,
                "{what}: rustflow ({rustflow} LOC) is above {label} ({sloc})"
            );
            println!(
                "  {what}: {label} is {:.2}x rustflow's LOC here, {:.2}x in the paper",
                sloc as f64 / rustflow as f64,
                paper_loc as f64 / paper_rustflow as f64
            );
        }
        let (cc, functions) = (cost.cc_total(), cost.complexity.num_functions());
        let cells = format!("{label},{sloc},{cc},{functions},{paper_loc},{paper_cc}");
        if table3 {
            report.row(format_args!("{cells},{hours}"));
        } else {
            report.row(format_args!("{what},{cells}"));
        }
    }
}

fn table1(paper: &mut Paper<'_>) {
    println!("\nTable I: software costs on micro-benchmarks (ours vs paper)");
    let mut report = Report::new("benchmark,model,loc,cc_total,functions,paper_loc,paper_cc");
    cost_rows(paper, &mut report, (0, "wavefront", false), |c| {
        &c.wavefront
    });
    cost_rows(paper, &mut report, (1, "traversal", false), |c| {
        &c.traversal
    });
    paper.exact("table1.csv", report.csv());
}

fn table3(paper: &mut Paper<'_>) {
    println!("\nTable III: software costs on machine learning (ours vs paper)");
    let mut report = Report::new("model,loc,cc_total,functions,paper_loc,paper_cc,paper_devtime_h");
    cost_rows(paper, &mut report, (2, "dnn", true), |c| &c.dnn);
    paper.exact("table3.csv", report.csv());
}

// ---------------------------------------------------------------------
// Figure 7: the two micro-benchmarks
// ---------------------------------------------------------------------

/// Spin iterations of a wavefront block's kernel.
const WAVEFRONT_ITERS: u32 = 40;

/// A wavefront over `dim × dim` blocks as a sweep point; its oracle is the
/// order-independent checksum every model must arrive at.
fn wavefront_point(dim: usize, threads: usize, x: usize) -> Point<'static, u64> {
    let spec = WavefrontSpec {
        dim,
        work_iters: WAVEFRONT_ITERS,
    };
    Point {
        lead: format!("wavefront,{x}"),
        threads,
        tasks: dim * dim,
        oracle: Some(wavefront::expected_checksum(spec)),
        rustflow_leads: threads <= 2,
        run: Box::new(move |c, runtime| (c.wavefront.run)(dim, WAVEFRONT_ITERS, runtime)),
    }
}

/// A traversal of the seeded random DAG of `nodes` nodes, likewise.
fn traversal_point(nodes: usize, threads: usize, x: usize) -> Point<'static, u64> {
    let spec = RandDagSpec::new(nodes);
    Point {
        lead: format!("traversal,{x}"),
        threads,
        tasks: nodes,
        oracle: Some(randdag::expected_checksum(spec)),
        rustflow_leads: threads <= 2,
        run: Box::new(move |c, runtime| (c.traversal.run)(spec, runtime)),
    }
}

/// * `fig7.size`: runtime vs problem size at 8 threads (the paper's CPU
///   count).
/// * `fig7.threads`: runtime vs thread count at the largest size.
///
/// A measurement covers graph construction, execution and clean-up on a
/// backend started beforehand. The paper draws rustflow fastest; here
/// the ordering against the TBB-style graph is asserted at the one and
/// two threads the box has cores for, as an interleaved ratio, and
/// everything else is the box's record.
fn fig7(paper: &mut Paper<'_>) {
    // The paper: wavefront up to 262,144 tasks, traversal up to 711,002.
    let dims = paper.pick(
        &[32, 48, 64, 96, 128][..],
        &[128, 192, 256, 320, 384, 448, 512],
    );
    let dag_nodes = paper.pick(
        &[10_000, 25_000, 50_000, 100_000][..],
        &[100_000, 200_000, 348_000, 500_000, 711_002],
    );
    let reps = paper.reps();
    if paper.cli.wants_part("fig7.size") {
        println!("\nFigure 7 (top): runtime vs problem size, 8 threads");
        let wavefronts = dims.iter().map(|&dim| wavefront_point(dim, 8, dim * dim));
        let traversals = dag_nodes
            .iter()
            .map(|&nodes| traversal_point(nodes, 8, nodes));
        let points = wavefronts.chain(traversals).collect();
        paper.sweep(
            "fig7_size.csv",
            "benchmark,tasks",
            ("ms", 1.0),
            reps,
            points,
        );
    }
    if paper.cli.wants_part("fig7.threads") {
        let threads = paper.threads();
        let dim = *dims.last().expect("nonempty");
        let nodes = *dag_nodes.last().expect("nonempty");
        println!(
            "\nFigure 7 (bottom): runtime vs threads (wavefront {} tasks, traversal {nodes} tasks)",
            dim * dim
        );
        let wavefronts = threads.iter().map(|&t| wavefront_point(dim, t, t));
        let traversals = threads.iter().map(|&t| traversal_point(nodes, t, t));
        let points = wavefronts.chain(traversals).collect();
        paper.sweep(
            "fig7_threads.csv",
            "benchmark,threads",
            ("ms", 1.0),
            reps,
            points,
        );
    }
}

// ---------------------------------------------------------------------
// Figure 12: DNN training
// ---------------------------------------------------------------------

/// * `fig12.epochs`: training runtime vs epoch count for the 3-layer and
///   5-layer architectures at 16 threads (the paper's CPU count).
/// * `fig12.threads`: training runtime vs thread count at a fixed epoch
///   count.
///
/// All models train on identical data with identical shuffle schedules,
/// and every timed run's weights, biases and losses must equal the
/// sequential contender's bit for bit, so the comparison is purely about
/// scheduling. The paper draws rustflow fastest in every configuration;
/// here an epoch's batches serialise (achieved parallelism ≈ 1.0,
/// `results/profile_baseline.json`), the models land within the box's
/// spread of each other, and nothing about their order is asserted.
fn fig12(paper: &mut Paper<'_>) {
    if paper.cli.wants_part("fig12.epochs") {
        println!("\nFigure 12 (top): training runtime vs epochs, 16 threads");
        let epochs = paper.pick(&[2, 4, 6, 8][..], &[20, 40, 60, 80, 100]);
        let sweep: Vec<_> = epochs.iter().map(|&e| (e, 16, e)).collect();
        dnn_sweep(paper, "fig12_epochs.csv", "arch,epochs,tasks", &sweep);
    }
    if paper.cli.wants_part("fig12.threads") {
        let epochs = paper.pick(5, 500);
        println!("\nFigure 12 (bottom): training runtime vs threads, {epochs} epochs");
        let threads = paper.threads();
        let sweep: Vec<_> = threads.iter().map(|&t| (epochs, t, t)).collect();
        dnn_sweep(paper, "fig12_threads.csv", "arch,threads,tasks", &sweep);
    }
}

/// One panel of Figure 12: a row per architecture and `(epochs, threads,
/// x)` of `sweep`, each contender timed once.
fn dnn_sweep(paper: &mut Paper<'_>, file: &str, lead: &str, sweep: &[(usize, usize, usize)]) {
    let data = Arc::new(tf_dnn::synthetic_mnist(paper.pick(3_000, 60_000), 0xDA7A));
    // "Twice the number of threads" of storages, capped to bound memory.
    let max_storages = paper.pick(4, 8);
    let archs = [("3-layer", arch_3layer()), ("5-layer", arch_5layer())];
    let mut points = Vec::new();
    for (name, arch) in &archs {
        for &(epochs, threads, x) in sweep {
            let spec = TrainSpec {
                epochs,
                batch: 100,
                lr: 0.001,
                storages: (2 * threads).min(max_storages),
                seed: 0xD11A,
            };
            let batches = data.len() / spec.batch;
            let tasks = epochs * (1 + batches * (1 + 2 * (arch.len() - 1)));
            let data = &data;
            points.push(Point {
                lead: format!("{name},{x},{tasks}"),
                threads,
                tasks,
                oracle: None,
                rustflow_leads: false,
                run: Box::new(move |c, runtime| {
                    let (net, losses) = (c.dnn.run)(data, arch, spec, 7, runtime);
                    (net.weights, net.biases, losses)
                }),
            });
        }
    }
    paper.sweep(file, lead, ("s", 1e-3), 1, points);
}

// ---------------------------------------------------------------------
// Table II and selfcost: the SLOCCount / COCOMO yardstick
// ---------------------------------------------------------------------

fn crate_src(krate: &str, file: &str) -> PathBuf {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    crates.join(krate).join("src").join(file)
}

/// Measures the two timing-engine implementations with the
/// SLOCCount-equivalent counter and the COCOMO organic model (the exact
/// formulas SLOCCount uses, validated in `tf-metrics` against the paper's
/// own numbers). The v1 row counts the scheduling machinery a levelized
/// analyzer must own (its engine file plus the barrier pool and levelizer
/// it runs on); the v2 row counts the rustflow engine file, whose
/// scheduling concerns the tasking library absorbs. Shared analyzer code
/// (netlist, delay model, propagation) is counted in both rows, as it
/// exists in both OpenTimer versions.
fn table2(paper: &mut Paper<'_>) {
    let shared =
        ["circuit.rs", "delay.rs", "analysis.rs", "engine.rs"].map(|f| crate_src("timer", f));
    let v1_own = [
        crate_src("timer", "engine_v1.rs"),
        crate_src("baselines", "pool.rs"),
        crate_src("baselines", "levelized.rs"),
        crate_src("baselines", "dag.rs"),
    ];
    let v2_own = [crate_src("timer", "engine_v2.rs")];
    let with_shared = |own: &[PathBuf]| shared.iter().chain(own).cloned().collect::<Vec<_>>();
    let v1 = SoftwareCost::measure_files("v1 (levelized/OpenMP-style)", with_shared(&v1_own));
    let v2 = SoftwareCost::measure_files("v2 (rustflow)", with_shared(&v2_own));
    let shared_sloc = SoftwareCost::measure_files("shared", shared).sloc;

    println!("\nTable II: software costs of the timing engines (ours vs paper)");
    let mut report = Report::new(
        "tool,loc,mcc,effort_py,dev,cost_usd,paper_loc,paper_mcc,paper_effort,paper_dev,paper_cost",
    );
    // Each tool beside the paper's row for it.
    for (cost, in_paper) in [
        (&v1, "9123,58,2.04,2.90,275287"),
        (&v2, "4482,20,0.97,1.83,130523"),
    ] {
        let (est, mcc) = (cost.cocomo(), cost.cc_max());
        report.row(format_args!(
            "{},{},{mcc},{:.2},{:.2},{:.0},{in_paper}",
            cost.label, cost.sloc, est.effort_person_years, est.developers, est.cost_dollars
        ));
    }
    let (v1_own, v2_own) = (v1.sloc - shared_sloc, v2.sloc - shared_sloc);
    println!(
        "  beyond the {shared_sloc} shared lines, v1 owns {v1_own} lines of scheduling \
         machinery and v2 {v2_own} (tests included); the paper's v2 is half of its v1 \
         (9,123 -> 4,482 LOC; MCC 58 -> 20)"
    );
    let halved = 2 * v2_own < v1_own;
    claim!(
        paper,
        halved,
        "v2's own code ({v2_own} LOC) is no longer under half of v1's ({v1_own})"
    );
    paper.exact("table2.csv", report.csv());
}

/// The same yardstick on this repository: every crate's `src/` by SLOC,
/// total and maximum cyclomatic complexity. The counts are exact, so a
/// simplicity claim is a change to a committed row of `selfcost.csv`.
fn selfcost(paper: &mut Paper<'_>) {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut names: Vec<String> = std::fs::read_dir(&crates_dir)
        .expect("crates/ is readable")
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    println!("\nSoftware cost of this repository, per crate (crates/*/src)");
    let mut report = Report::new("crate,sloc,cc,max_cc");
    let (mut sloc, mut cc, mut max_cc) = (0, 0, 0);
    for name in names {
        let cost = SoftwareCost::measure_dir(name.as_str(), &crates_dir.join(&name).join("src"));
        report.row(format_args!(
            "{name},{},{},{}",
            cost.sloc,
            cost.cc_total(),
            cost.cc_max()
        ));
        sloc += cost.sloc;
        cc += cost.cc_total();
        max_cc = max_cc.max(cost.cc_max());
    }
    report.row(format_args!("total,{sloc},{cc},{max_cc}"));
    paper.exact("selfcost.csv", report.csv());
}

// ---------------------------------------------------------------------
// Figures 8-10: the timing analyzer
// ---------------------------------------------------------------------

/// Builds the paper's sample circuit (inp1/inp2/clock ports, gates u1–u4,
/// flip-flop f1, output out), runs a full timing update and reports the
/// critical path. The graph drawn is the one the v2 engine dispatches
/// (`Timer::update_task_graph_dot`): one task per block of level-sorted
/// gates, so the paper's eight gates are a single node. What lands in
/// `fig8.dot` for GraphViz is therefore the full update of a generated
/// 200-gate design, which has the structure the figure is about.
fn fig8(paper: &mut Paper<'_>) {
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
    let gates = c.num_gates();
    let timer = Timer::new(c);
    let propagated = timer.full_update(&Engine::Sequential);
    println!("\nFigure 8: single timing update over {propagated} gates");
    println!("  worst slack: {:.2} ps", timer.worst_slack());
    println!("  critical path (gate ids): {:?}", timer.critical_path());
    let all = propagated == gates;
    claim!(
        paper,
        all,
        "a full update propagated {propagated} of the circuit's {gates} gates"
    );
    let dot_of = |timer: &Timer| {
        let seeds: Vec<u32> = timer.circuit().sources().collect();
        canonical_dot(&timer.update_task_graph_dot(&seeds))
    };
    println!("  its task dependency graph:\n{}", dot_of(&timer));

    let timer = Timer::new(CircuitSpec::small_test(200, 8).generate());
    let gates = timer.circuit().num_gates();
    println!("  task dependency graph of a {gates}-gate design:");
    paper.exact("fig8.dot", &dot_of(&timer));
}

/// Seed of every modifier stream of Figure 9.
const MODIFIER_SEED: u64 = 0xF19;

/// A timer over `circuit`, brought up to date by `engine`, and the
/// modifier stream every engine is driven by.
fn timer_and_modifier(circuit: Circuit, engine: &Engine<'_>) -> (Timer, DesignModifier) {
    let timer = Timer::new(circuit);
    timer.full_update(engine);
    let modifier = DesignModifier::new(timer.circuit(), MODIFIER_SEED);
    (timer, modifier)
}

/// Incremental timing on 16 threads as in the paper, tv80 for 30
/// iterations and vga_lcd for 100. Per iteration: one random design
/// modifier (gate resize) followed by a timing query that triggers an
/// incremental update. The v1 measurement includes re-levelizing the
/// affected region (the paper: "the time to reconstruct the data structure
/// required by OpenMP"); the v2 measurement includes building and
/// launching the task dependency graph.
///
/// What is exact is asserted in every run: both engines leave the
/// sequential engine's worst slack after every iteration, and at the
/// default scale the gates propagated and the rustflow tasks executed per
/// circuit (an `ExecutorStats` delta, exact on any worker count) equal the
/// committed `fig9_counts.json`, whose `block` is the v2 engine's gates
/// per task: executed tasks = Σ ⌈region / block⌉. That file is edited by
/// hand when the block size or the generator changes on purpose; a failing
/// run prints the numbers to put there. The per-iteration times are this
/// box's record; how often v2 is at or below v1 is printed, not asserted.
fn fig9(paper: &mut Paper<'_>) {
    let file = "fig9_counts.json";
    let committed = json::parse(&paper.cli.committed(file)).expect("fig9_counts.json is not JSON");
    let field = |v: &json::Value, key: &str| {
        let value = v.get(key).and_then(json::Value::as_u64);
        value.unwrap_or_else(|| panic!("{file} has no {key}"))
    };
    let seed = field(&committed, "modifier_seed");
    assert_eq!(seed, MODIFIER_SEED, "modifier seed");
    let block = field(&committed, "block");
    // The fraction of each circuit's gates generated; the committed
    // counts are the default's.
    let scale = paper.pick(0.05, 1.0);
    let counted = scale < 1.0;

    let threads = 16;
    let pool = Pool::new(threads);
    let executor = Executor::new(threads);
    let (v1, v2) = (Engine::V1Levelized(&pool), Engine::V2Rustflow(&executor));
    println!(
        "\nFigure 9: incremental timing, v1 (levelized) vs v2 (rustflow, {block} gates per \
         task) on {threads} threads, and the sequential engine"
    );
    let mut report = Report::new("circuit,gates,iteration,tasks,v1_ms,v2_ms,seq_ms");
    for (spec, iterations) in [(CircuitSpec::tv80(), 30), (CircuitSpec::vga_lcd(), 100)] {
        let spec = spec.scaled(scale);
        let (name, circuit) = (spec.name, spec.generate());
        let (gates, nets) = (circuit.num_gates(), circuit.num_nets());
        println!("  {name}: {gates} gates, {nets} nets");
        // Three identical timers driven by identical modifier streams, so
        // every engine sees the same incremental workload.
        let (mut t_v1, mut m_v1) = timer_and_modifier(circuit.clone(), &v1);
        let (mut t_v2, mut m_v2) = timer_and_modifier(circuit.clone(), &v2);
        let (mut t_seq, mut m_seq) = timer_and_modifier(circuit, &Engine::Sequential);

        let executed_before = executor.stats().total().executed;
        let (mut region_gates, mut blocks) = (0u64, 0u64);
        let (mut sum_v1, mut sum_v2, mut sum_seq) = (0.0f64, 0.0f64, 0.0f64);
        let mut ratios: Vec<f64> = Vec::with_capacity(iterations);
        for iter in 0..iterations {
            let seeds = m_v1.apply(&mut t_v1);
            assert_eq!(seeds, m_v2.apply(&mut t_v2), "modifier streams diverged");
            assert_eq!(seeds, m_seq.apply(&mut t_seq), "modifier streams diverged");
            let mut region = 0;
            let v1_ms = time_ms(|| {
                t_v1.incremental_update(&seeds, &v1);
            });
            let v2_ms = time_ms(|| region = t_v2.incremental_update(&seeds, &v2) as u64);
            let seq_ms = time_ms(|| {
                t_seq.incremental_update(&seeds, &Engine::Sequential);
            });
            let want = t_seq.worst_slack();
            for (engine, slack) in [("v1", t_v1.worst_slack()), ("v2", t_v2.worst_slack())] {
                let agrees = (slack - want).abs() < 1e-6;
                claim!(
                    paper,
                    agrees,
                    "{name} iteration {iter}: {engine} slack {slack} != sequential {want}"
                );
            }
            region_gates += region;
            blocks += region.div_ceil(block);
            sum_v1 += v1_ms;
            sum_v2 += v2_ms;
            sum_seq += seq_ms;
            ratios.push(v1_ms / v2_ms.max(1e-9));
            report.row(format_args!(
                "{name},{},{iter},{region},{v1_ms:.3},{v2_ms:.3},{seq_ms:.3}",
                spec.gates
            ));
        }
        let executed = executor.stats().total().executed - executed_before;
        println!(
            "  {name}: {iterations} iterations, {region_gates} gates propagated, {executed} tasks \
             executed | v2 at or below v1 in {} iterations | average per-iteration speed-up \
             v2/v1 {:.2}x (paper's metric), max {:.2}x, total-time ratio {:.2}x | total time \
             v2/sequential {:.2}x",
            ratios.iter().filter(|&&r| r >= 1.0).count(),
            ratios.iter().sum::<f64>() / ratios.len() as f64,
            ratios.iter().cloned().fold(0.0f64, f64::max),
            sum_v1 / sum_v2.max(1e-9),
            sum_seq / sum_v2.max(1e-9)
        );
        let cut = executed == blocks;
        claim!(paper, cut, "{name} executed {executed} tasks, but the regions cut into blocks of {block} give {blocks}");
        let want = committed.get("circuits").and_then(|c| c.get(name));
        let want = want.unwrap_or_else(|| panic!("{file} has no circuits.{name}"));
        for (key, value) in [
            ("iterations", iterations as u64),
            ("region_gates", region_gates),
            ("executed_tasks", executed),
        ] {
            let committed = field(want, key);
            let same = !counted || value == committed;
            claim!(
                paper,
                same,
                "{name} {key} is {value}, committed {committed}"
            );
        }
    }
    paper.cli.write_report("fig9.csv", report.csv());
}

/// * `fig10.scaling`: full-timing runtime vs thread count on
///   netcard-shaped (1.4M gates in the paper) and leon3mp-shaped (1.2M)
///   circuits, v1 (levelized) vs v2 (rustflow), interleaved per
///   repetition. Each engine must leave the sequential engine's worst
///   slack. The paper has v2 within 3-4% of v1 on one CPU and ahead
///   from two; here the interleaved ratio v2 / v1 is printed, not
///   asserted: ten runs of unchanged code spread it over 0.61-1.46.
/// * `fig10.util`: CPU-utilization profile over time while v2 runs
///   repeated full updates on leon3mp, sampled from a [`BusyCounter`]
///   observer at several worker counts. The run also records the full
///   scheduler lifecycle through a ring-buffered [`Tracer`], writes it
///   as `trace.json` (loadable in ui.perfetto.dev / chrome://tracing),
///   dumps the per-worker counters in Prometheus text format to
///   `fig10_metrics.prom`, and prints the traced-vs-untraced runtime
///   ratio so tracing overhead stays honest.
fn fig10(paper: &mut Paper<'_>) {
    // The fraction of each circuit's gates generated.
    let scale = paper.pick(0.02, 1.0);
    if paper.cli.wants_part("fig10.scaling") {
        fig10_scaling(paper, scale);
    }
    if paper.cli.wants_part("fig10.util") {
        fig10_utilization(paper, scale);
    }
}

fn fig10_scaling(paper: &mut Paper<'_>, scale: f64) {
    let threads = paper.threads();
    println!("\nFigure 10 (left): full-timing runtime vs threads");
    let mut report = Report::new("circuit,gates,threads,v1_ms,v2_ms");
    for spec in [CircuitSpec::netcard(), CircuitSpec::leon3mp()] {
        let spec = spec.scaled(scale);
        let (name, timer) = (spec.name, Timer::new(spec.generate()));
        timer.full_update(&Engine::Sequential);
        let want = timer.worst_slack();
        for &t in &threads {
            let (pool, executor) = (Pool::new(t), Executor::new(t));
            let engines = [Engine::V1Levelized(&pool), Engine::V2Rustflow(&executor)];
            let mut samples = [Vec::new(), Vec::new()];
            for _ in 0..paper.reps() {
                for (engine, samples) in engines.iter().zip(&mut samples) {
                    samples.push(time_ms(|| {
                        timer.full_update(engine);
                    }));
                    let slack = timer.worst_slack();
                    let agrees = (slack - want).abs() < 1e-6;
                    claim!(
                        paper,
                        agrees,
                        "{name}, {t} threads: slack {slack} != sequential {want}"
                    );
                }
            }
            let what = format!("{name} full update, {t} threads: v2 / v1");
            paper.ratio_claim(&what, &samples[1], &samples[0], false);
            let [v1_ms, v2_ms] = samples.each_mut().map(|s| median(s));
            report.row(format_args!(
                "{name},{},{t},{v1_ms:.1},{v2_ms:.1}",
                spec.gates
            ));
        }
    }
    paper.cli.write_report("fig10_scaling.csv", report.csv());
}

fn fig10_utilization(paper: &mut Paper<'_>, scale: f64) {
    let timer = Timer::new(CircuitSpec::leon3mp().scaled(scale).generate());
    let default = paper.pick(&[2, 4, 8][..], &[8, 16, 32, 64]);
    let worker_counts = paper.cli.thread_sweep(default);
    println!("\nFigure 10 (right): busy-worker percentage over time (leon3mp)");
    let mut report = Report::new("workers,sample_ms,busy_pct,tasks_done");
    let mut artifacts: Option<(String, String)> = None;
    for &workers in &worker_counts {
        let executor = Executor::new(workers);
        let v2 = Engine::V2Rustflow(&executor);

        // Baseline: one untraced update, to report tracing overhead.
        let untraced_ms = time_ms(|| {
            timer.full_update(&v2);
        });

        let counter = Arc::new(BusyCounter::new());
        executor.observe(Arc::clone(&counter) as Arc<dyn ExecutorObserver>);
        // Sized so one full update fits in each lane between collects.
        let tracer = Arc::new(Tracer::with_capacity(executor.num_lanes(), 1 << 16));
        executor.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
        let executed_before = executor.stats().total().executed;

        // Sample in a side thread while v2 runs repeated full updates
        // (the paper profiles utilization over the run's lifetime).
        let (sampled, start) = (Arc::clone(&counter), Instant::now());
        let sampler = Sampler::start(Duration::from_millis(5), move || {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (ms, sampled.busy(), sampled.executed())
        });
        let updates = paper.pick(3, 4);
        let mut traced_ms = 0.0;
        for _ in 0..updates {
            traced_ms += time_ms(|| {
                timer.full_update(&v2);
            });
            // Drain the fixed-capacity rings between updates so long runs
            // keep their full event history.
            tracer.collect();
        }
        traced_ms /= updates as f64;
        for (ms, busy, done) in sampler.stop() {
            let busy_pct = 100.0 * busy as f64 / workers as f64;
            report.row(format_args!("{workers},{ms:.1},{busy_pct:.1},{done}"));
        }
        let dropped = tracer.dropped();
        println!(
            "# workers={workers}: untraced {untraced_ms:.1} ms/update, traced \
             {traced_ms:.1} ms/update ({:.2}x), {dropped} events dropped",
            traced_ms / untraced_ms.max(1e-9)
        );
        let observed = counter.executed() as u64;
        let executed = executor.stats().total().executed - executed_before;
        let complete = observed == executed && dropped == 0;
        claim!(paper, complete, "{workers} workers: the observer saw {observed} of {executed} executed tasks, the tracer dropped {dropped} events");
        // Keep the largest sweep's artifacts (they have the most lanes).
        artifacts = Some((
            tracer.chrome_trace_json(),
            executor.stats().prometheus_text(),
        ));
    }
    paper.cli.write_report("fig10_util.csv", report.csv());
    if let Some((trace, counters)) = artifacts {
        println!("scheduler trace (open in ui.perfetto.dev) and counters:");
        paper.cli.write_report("trace.json", &trace);
        paper.cli.write_report("fig10_metrics.prom", &counters);
    }
}

// ---------------------------------------------------------------------
// Figure 11: the DNN task decomposition
// ---------------------------------------------------------------------

/// Builds one epoch of the training task graph (a few batches of the
/// 3-layer architecture) with named tasks — `E0_S` (shuffle), `F_j`
/// (forward), `G_j_i` (per-layer gradient), `U_j_i` (per-layer update) —
/// and dumps it to `fig11.dot`.
fn fig11(paper: &mut Paper<'_>) {
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
    let dot = canonical_dot(&tf.dump());
    let tasks = 1 + batches * (1 + 2 * layers);
    println!(
        "\nFigure 11: one-epoch training task graph ({tasks} tasks: 1 shuffle + \
         {batches} x (1 forward + {layers} gradient + {layers} update))"
    );
    let drawn = dot.matches("[label=").count();
    claim!(
        paper,
        drawn == tasks,
        "the graph draws {drawn} tasks, the decomposition has {tasks}"
    );
    paper.exact("fig11.dot", &dot);
    println!("{dot}");
}
