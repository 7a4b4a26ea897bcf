//! Table II — Software Costs of OpenTimer v1 and v2.
//!
//! Measures the two timing-engine implementations with the
//! SLOCCount-equivalent counter and the COCOMO organic model (the exact
//! formulas SLOCCount uses, validated in `tf-metrics` against the paper's
//! own numbers). The v1 row counts the scheduling machinery a levelized
//! analyzer must own (its engine file plus the barrier pool and levelizer
//! it runs on); the v2 row counts the rustflow engine file, whose
//! scheduling concerns the tasking library absorbs. Shared analyzer code
//! (netlist, delay model, propagation) is counted in both rows, as it
//! exists in both OpenTimer versions.
//!
//! `--part self` turns the same yardstick on this repository: each crate's
//! `src/` measured with `SoftwareCost::measure_dir`, written to
//! `results/selfcost.csv`. The counts are exact, so CI regenerates the file
//! and fails on a diff; a simplicity claim is a change to a committed row.

use std::path::Path;
use tf_bench::harness::{Cli, Report};
use tf_metrics::SoftwareCost;

fn timer_src(file: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../timer/src")
        .join(file)
}

fn baselines_src(file: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../baselines/src")
        .join(file)
}

/// Every crate's `src/` by SLOC, total and maximum cyclomatic complexity.
fn self_cost(cli: &Cli) {
    println!("Software cost of this repository, per crate (crates/*/src)");
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut names: Vec<String> = std::fs::read_dir(&crates_dir)
        .expect("crates/ is readable")
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut report = Report::new(cli, "selfcost", &["crate", "sloc", "cc", "max_cc"]);
    report.print_header();
    let (mut sloc, mut cc, mut max_cc) = (0, 0, 0);
    for name in names {
        let cost = SoftwareCost::measure_dir(name.as_str(), &crates_dir.join(&name).join("src"));
        report.row_display(&[&name, &cost.sloc, &cost.cc_total(), &cost.cc_max()]);
        sloc += cost.sloc;
        cc += cost.cc_total();
        max_cc = max_cc.max(cost.cc_max());
    }
    report.row_display(&[&"total", &sloc, &cc, &max_cc]);
    report.save();
}

fn main() {
    let cli = Cli::parse();
    if cli.wants_part("self") {
        self_cost(&cli);
    }
    if !cli.wants_part("paper") {
        return;
    }
    println!("Table II: software costs of the timing engines (ours vs paper)");
    let shared = [
        timer_src("circuit.rs"),
        timer_src("delay.rs"),
        timer_src("analysis.rs"),
        timer_src("engine.rs"),
    ];

    let v1_files: Vec<_> = shared
        .iter()
        .cloned()
        .chain([
            timer_src("engine_v1.rs"),
            baselines_src("pool.rs"),
            baselines_src("levelized.rs"),
            baselines_src("dag.rs"),
        ])
        .collect();
    let v2_files: Vec<_> = shared
        .iter()
        .cloned()
        .chain([timer_src("engine_v2.rs")])
        .collect();

    let v1 = SoftwareCost::measure_files("v1 (levelized/OpenMP-style)", v1_files);
    let v2 = SoftwareCost::measure_files("v2 (rustflow)", v2_files);
    let shared_sloc = SoftwareCost::measure_files("shared", shared).sloc;

    let mut report = Report::new(
        &cli,
        "table2",
        &[
            "tool",
            "loc",
            "mcc",
            "effort_py",
            "dev",
            "cost_usd",
            "paper_loc",
            "paper_mcc",
            "paper_effort",
            "paper_dev",
            "paper_cost",
        ],
    );
    report.print_header();
    for (cost, p_loc, p_mcc, p_eff, p_dev, p_cost) in [
        (&v1, 9_123, 58, 2.04, 2.90, 275_287),
        (&v2, 4_482, 20, 0.97, 1.83, 130_523),
    ] {
        let est = cost.cocomo();
        report.row(&[
            cost.label.clone(),
            cost.sloc.to_string(),
            cost.cc_max().to_string(),
            format!("{:.2}", est.effort_person_years),
            format!("{:.2}", est.developers),
            format!("{:.0}", est.cost_dollars),
            p_loc.to_string(),
            p_mcc.to_string(),
            format!("{p_eff:.2}"),
            format!("{p_dev:.2}"),
            p_cost.to_string(),
        ]);
    }
    report.save();
    let (v1_own, v2_own) = (v1.sloc - shared_sloc, v2.sloc - shared_sloc);
    println!(
        "\nShape check: beyond the {shared_sloc} shared lines, v1 owns {v1_own} lines of \
         scheduling machinery and v2 {v2_own} (tests included); the paper's v2 is half \
         of its v1 (9,123 -> 4,482 LOC; MCC 58 -> 20)."
    );
    assert!(
        2 * v2_own < v1_own,
        "the v2 engine is no longer well under v1's scheduling code"
    );
}
