//! `paper --check` has teeth: it fails when a committed exact file stops
//! matching what the source regenerates, and when a contender stops
//! agreeing with the oracle.

use std::path::{Path, PathBuf};
use std::process::Command;
use tf_bench::harness::Cli;
use tf_bench::impls::{Backend, Contender, Subject, CONTENDERS};

fn committed_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `paper --check --part table1 --out dir`'s exit status.
fn table1_check_passes(dir: &Path) -> bool {
    let paper = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["--check", "--part", "table1", "--out"])
        .arg(dir)
        .output()
        .expect("paper runs");
    paper.status.success()
}

#[test]
fn one_changed_digit_of_table1_fails_the_check() {
    let table1 = std::fs::read_to_string(committed_results().join("table1.csv"))
        .expect("results/table1.csv is committed");
    let dir = std::env::temp_dir().join(format!("tf-bench-paper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    // The control: a faithful copy passes, so the failure below is the
    // digit's.
    std::fs::write(dir.join("table1.csv"), &table1).expect("copy");
    assert!(table1_check_passes(&dir), "an unchanged copy must pass");

    let digit = table1.rfind(|c: char| c.is_ascii_digit()).expect("a digit");
    let changed = if &table1[digit..=digit] == "0" {
        "1"
    } else {
        "0"
    };
    let mut planted = table1.clone();
    planted.replace_range(digit..=digit, changed);
    std::fs::write(dir.join("table1.csv"), planted).expect("plant");
    assert!(!table1_check_passes(&dir), "a changed digit must fail");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn a_contender_with_a_wrong_checksum_fails_the_check() {
    let sequential = *CONTENDERS
        .iter()
        .find(|c| c.backend == Backend::Inline)
        .expect("the table has the sequential oracle");
    let planted = Contender {
        label: "planted",
        wavefront: Subject {
            run: |_, _, _| 0xBAD,
            ..sequential.wavefront
        },
        ..sequential
    };
    let args = ["--check", "--part", "fig7.size", "--reps", "1"].map(String::from);
    let cli = Cli::from_args(args, &[]);

    let sound = tf_bench::paper::run(&cli, &[sequential]);
    assert_eq!(sound, Vec::<String>::new(), "the oracle agrees with itself");
    let failures = tf_bench::paper::run(&cli, &[sequential, planted]);
    assert!(!failures.is_empty(), "a wrong checksum must fail the check");
    for failure in &failures {
        assert!(
            failure.contains("wavefront") && failure.contains("planted disagrees"),
            "only the planted wavefront fails: {failure}"
        );
    }
}
