//! The paper's record: regenerates every table and figure into `--out`
//! (default `results/`), or with `--check` runs them all at the default
//! scale and fails on any claim of the record that no longer holds
//! (`tf_bench::paper` has the artifacts and what each asserts).
//!
//! `--part table1|fig7|table2|fig8|fig9|fig10|table3|fig11|fig12|selfcost`
//! selects one artifact, `--part fig7.size` one panel; `--full`,
//! `--threads a,b,c` and `--reps n` are as described in
//! `tf_bench::harness`.

use tf_bench::harness::{finish_gate, Cli};

fn main() {
    let cli = Cli::parse();
    let failures = tf_bench::paper::run(&cli, &tf_bench::impls::CONTENDERS);
    finish_gate("paper", "every claim of the record holds", &failures);
}
