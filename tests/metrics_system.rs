//! System tests of the software-cost tooling against the repository's own
//! sources, plus the COCOMO ↔ paper calibration at whole-project scale.

use std::path::Path;
use tf_metrics::{analyze, count_sloc, estimate_paper, SoftwareCost};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn repository_is_measurable_and_substantial() {
    let crates = repo_root().join("crates");
    let cost = SoftwareCost::measure_dir("workspace", &crates);
    assert!(
        cost.sloc > 5_000,
        "workspace unexpectedly small: {} SLOC",
        cost.sloc
    );
    assert!(cost.complexity.num_functions() > 200);
    assert!(cost.cc_max() >= 5);
    // The COCOMO estimate scales with the size.
    let est = cost.cocomo();
    assert!(est.effort_person_years > 0.5);
    assert!(est.cost_dollars > 50_000.0);
}

#[test]
fn core_crate_smaller_than_whole_workspace() {
    let core = SoftwareCost::measure_dir("core", &repo_root().join("crates/core/src"));
    let all = SoftwareCost::measure_dir("all", &repo_root().join("crates"));
    assert!(core.sloc > 500);
    assert!(core.sloc < all.sloc);
}

#[test]
fn analyzer_handles_this_test_file() {
    let src = std::fs::read_to_string(repo_root().join("tests/metrics_system.rs")).unwrap();
    let sloc = count_sloc(&src);
    assert!(sloc > 20);
    let report = analyze(&src);
    assert!(report.num_functions() >= 4);
    assert!(report
        .functions
        .iter()
        .any(|f| f.name == "analyzer_handles_this_test_file"));
}

#[test]
fn cocomo_matches_paper_table2_exactly() {
    // The calibration the whole Table II reproduction rests on.
    let v1 = estimate_paper(9_123);
    assert!((v1.effort_person_years - 2.04).abs() < 0.005);
    assert!((v1.developers - 2.90).abs() < 0.02);
    let v2 = estimate_paper(4_482);
    assert!((v2.effort_person_years - 0.97).abs() < 0.005);
    // Cost ratio between v1 and v2 ≈ paper's 275,287 / 130,523.
    let ratio = v1.cost_dollars / v2.cost_dollars;
    assert!((ratio - 275_287.0 / 130_523.0).abs() < 0.02, "{ratio}");
}

#[test]
fn loc_ordering_of_micro_benchmark_impls_holds() {
    // The Table I / III conclusion, asserted as a test so regressions in
    // the implementations keep the programmability story honest. The
    // sources are the contender table's, so a model added there is held
    // to the same orderings.
    use tf_bench::impls::{Backend, CONTENDERS};
    let loc = |path: std::path::PathBuf| {
        let source = std::fs::read_to_string(&path);
        count_sloc(&source.unwrap_or_else(|e| panic!("{}: {e}", path.display())))
    };
    // Per model: (label, is it parallel, wavefront, traversal, DNN lines).
    let lines: Vec<_> = CONTENDERS
        .iter()
        .map(|c| {
            let sources = [
                c.wavefront.source_path(),
                c.traversal.source_path(),
                c.dnn.source_path(),
            ];
            (c.label, c.backend != Backend::Inline, sources.map(loc))
        })
        .collect();
    let of = |label: &str| {
        let row = lines.iter().find(|(model, ..)| *model == label);
        row.unwrap_or_else(|| panic!("no contender {label}")).2
    };
    let [sequential, rustflow, tbb, openmp] =
        ["sequential", "rustflow", "tbb-style", "openmp-style"].map(of);
    for benchmark in 0..3 {
        // Sequential is the shortest; rustflow no longer than either
        // competing model.
        for (label, parallel, model) in &lines {
            assert!(
                !parallel || sequential[benchmark] < model[benchmark],
                "{label}"
            );
        }
        assert!(rustflow[benchmark] <= tbb[benchmark]);
        assert!(rustflow[benchmark] <= openmp[benchmark]);
    }
    // Traversal: rustflow strictly below tbb-style; DNN: tbb-style below
    // openmp-style.
    assert!(rustflow[1] < tbb[1]);
    assert!(tbb[2] < openmp[2]);
}
