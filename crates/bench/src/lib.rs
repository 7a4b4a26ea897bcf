//! # tf-bench — the benchmark harness regenerating every table and figure
//!
//! One binary for the paper's record and one per gate beyond it (see
//! DESIGN.md §4 for the full index):
//!
//! | target | does |
//! |---|---|
//! | `paper` | regenerates Tables I–III and Figures 7–12 (`--part table1` ... `fig12`, a panel as `fig7.size`) and `results/selfcost.csv` (`--part selfcost`); `--check` asserts every claim of the record this box can resolve ([`paper`]) |
//! | `oneshot` | per-phase allocations and ns per node of a one-shot graph + CI allocation gate |
//! | `served` | allocations per served run, tenanted and untenanted + CI allocation gate |
//! | `profile` | causal work/span profile + CI perf-regression gate |
//! | `chaos` | deterministic fault-injection gate |
//! | `introspect` | live-introspection overhead + endpoint smoke gate |
//! | `serving` | client-count sweep through the front door + server/client histogram agreement gate |
//! | `soak` | sustained 2x overload, resilience on vs off + CI resilience gate |
//!
//! Criterion micro-benches (`benches/`) cover per-task scheduling
//! overhead, algorithm primitives, and the Algorithm-1 ablations.

#![warn(missing_docs)]

pub mod count_alloc;
pub mod harness;
pub mod impls;
pub mod paper;

#[cfg(test)]
mod impl_tests {
    use crate::impls::{Backend, CONTENDERS};
    use std::sync::Arc;
    use tf_dnn::pipeline::TrainSpec;
    use tf_workloads::randdag::{self, RandDagSpec};
    use tf_workloads::wavefront::{self, WavefrontSpec};

    #[test]
    fn micro_benchmarks_agree_with_the_closed_form_checksums() {
        let (dim, iters) = (12, 10);
        let wavefront = wavefront::expected_checksum(WavefrontSpec {
            dim,
            work_iters: iters,
        });
        let spec = RandDagSpec::new(1500);
        let traversal = randdag::expected_checksum(spec);
        for contender in &CONTENDERS {
            let runtime = contender.backend.start(3);
            let label = contender.label;
            assert_eq!(
                (contender.wavefront.run)(dim, iters, &runtime),
                wavefront,
                "{label}"
            );
            assert_eq!(
                (contender.traversal.run)(spec, &runtime),
                traversal,
                "{label}"
            );
        }
    }

    #[test]
    fn dnn_drivers_match_the_sequential_one_bitwise() {
        let sequential = CONTENDERS
            .iter()
            .find(|c| c.backend == Backend::Inline)
            .expect("the table has the sequential oracle");
        // The paper's two architectures: the OpenMP-style driver supports
        // no other.
        for (arch, storages) in [(tf_dnn::arch_3layer(), 2), (tf_dnn::arch_5layer(), 1)] {
            let data = Arc::new(tf_dnn::synthetic_mnist(200, 78));
            let spec = TrainSpec {
                epochs: 2,
                batch: 100,
                lr: 0.01,
                storages,
                seed: 56,
            };
            let inline = sequential.backend.start(1);
            let (oracle, oracle_losses) = (sequential.dnn.run)(&data, &arch, spec, 14, &inline);
            for contender in &CONTENDERS {
                let runtime = contender.backend.start(4);
                let (net, losses) = (contender.dnn.run)(&data, &arch, spec, 14, &runtime);
                let label = contender.label;
                assert_eq!(losses, oracle_losses, "{label}");
                assert_eq!(net.weights, oracle.weights, "{label}");
                assert_eq!(net.biases, oracle.biases, "{label}");
            }
        }
    }

    #[test]
    fn impl_sources_exist_for_measurement() {
        for contender in &CONTENDERS {
            for path in [
                contender.wavefront.source_path(),
                contender.traversal.source_path(),
                contender.dnn.source_path(),
            ] {
                assert!(path.exists(), "{} missing", path.display());
            }
        }
    }
}
