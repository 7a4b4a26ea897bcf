//! # tf-bench — the benchmark harness regenerating every table and figure
//!
//! One binary per experiment (see DESIGN.md §4 for the full index):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — software costs of the micro-benchmarks |
//! | `fig7` | Figure 7 — micro-benchmark runtimes (size & thread sweeps) |
//! | `table2` | Table II — OpenTimer v1/v2 software costs + COCOMO |
//! | `fig8` | Figure 8 — a timing-update task graph (DOT) |
//! | `fig9` | Figure 9 — incremental timing, v1 vs v2 vs sequential + CI slack-and-task-count gate (`--check`) |
//! | `fig10` | Figure 10 — full-timing scalability + CPU utilization |
//! | `table3` | Table III — software costs of the DNN implementations |
//! | `fig11` | Figure 11 — the DNN task decomposition (DOT) |
//! | `fig12` | Figure 12 — DNN training runtimes (epoch & thread sweeps) |
//! | `oneshot` | per-phase allocations and ns per node of a one-shot graph + CI allocation gate (beyond the paper) |
//! | `served` | allocations per served run, tenanted and untenanted + CI allocation gate (beyond the paper) |
//! | `profile` | causal work/span profile + CI perf-regression gate (beyond the paper) |
//! | `chaos` | deterministic fault-injection gate (beyond the paper) |
//! | `introspect` | live-introspection overhead + endpoint smoke gate (beyond the paper) |
//!
//! Criterion micro-benches (`benches/`) cover per-task scheduling
//! overhead, algorithm primitives, and the Algorithm-1 ablations.

#![warn(missing_docs)]

pub mod count_alloc;
pub mod harness;
pub mod impls;

#[cfg(test)]
mod impl_tests {
    use crate::impls::*;
    use rustflow::Executor;
    use std::sync::Arc;
    use tf_baselines::Pool;
    use tf_dnn::pipeline::TrainSpec;
    use tf_workloads::randdag::RandDagSpec;
    use tf_workloads::wavefront::{expected_checksum, WavefrontSpec};

    #[test]
    fn wavefront_impls_agree() {
        let dim = 12;
        let iters = 10;
        let expected = expected_checksum(WavefrontSpec {
            dim,
            work_iters: iters,
        });
        assert_eq!(wavefront_seq::run(dim, iters), expected);
        let ex = Executor::new(3);
        assert_eq!(wavefront_rustflow::run(dim, iters, &ex), expected);
        let pool = Pool::new(3);
        assert_eq!(wavefront_flowgraph::run(dim, iters, &pool), expected);
        assert_eq!(wavefront_levelized::run(dim, iters, &pool), expected);
        assert_eq!(wavefront_openmp::run(dim, iters, &pool), expected);
    }

    #[test]
    fn traversal_impls_agree() {
        let spec = RandDagSpec::new(1500);
        let expected = tf_workloads::randdag::expected_checksum(spec);
        assert_eq!(traversal_seq::run(spec), expected);
        let ex = Executor::new(3);
        assert_eq!(traversal_rustflow::run(spec, &ex), expected);
        let pool = Pool::new(3);
        assert_eq!(traversal_flowgraph::run(spec, &pool), expected);
        assert_eq!(traversal_levelized::run(spec, &pool), expected);
        assert_eq!(traversal_openmp::run(spec, &pool), expected);
    }

    #[test]
    fn dnn_impls_match_sequential_bitwise() {
        let data = tf_dnn::synthetic_mnist(150, 77);
        let arch = [784, 10, 10];
        let spec = TrainSpec {
            epochs: 2,
            batch: 50,
            lr: 0.01,
            storages: 2,
            seed: 55,
        };
        let (oracle, oracle_losses) = dnn_seq::train(&data, &arch, spec, 13);

        let ex = Executor::new(4);
        let (net_rf, losses_rf) = dnn_rustflow::train(Arc::new(data.clone()), &arch, spec, 13, &ex);
        assert_eq!(losses_rf, oracle_losses);
        assert_eq!(net_rf.weights, oracle.weights);
        assert_eq!(net_rf.biases, oracle.biases);

        let pool = Pool::new(4);
        let (net_fg, losses_fg) =
            dnn_flowgraph::train(Arc::new(data.clone()), &arch, spec, 13, &pool);
        assert_eq!(losses_fg, oracle_losses);
        assert_eq!(net_fg.weights, oracle.weights);

        let (net_lv, losses_lv) = dnn_levelized::train(&data, &arch, spec, 13, &pool);
        assert_eq!(losses_lv, oracle_losses);
        assert_eq!(net_lv.weights, oracle.weights);
    }

    #[test]
    fn dnn_openmp_matches_sequential_bitwise() {
        // The taskdep driver only supports the paper's architectures.
        let data = tf_dnn::synthetic_mnist(200, 78);
        let arch = tf_dnn::arch_3layer();
        let spec = TrainSpec {
            epochs: 2,
            batch: 100,
            lr: 0.01,
            storages: 2,
            seed: 56,
        };
        let (oracle, oracle_losses) = dnn_seq::train(&data, &arch, spec, 14);
        let pool = Pool::new(4);
        let (net, losses) = dnn_openmp::train(Arc::new(data), &arch, spec, 14, &pool);
        assert_eq!(losses, oracle_losses);
        assert_eq!(net.weights, oracle.weights);
        assert_eq!(net.biases, oracle.biases);
    }

    #[test]
    fn dnn_openmp_5layer_works() {
        let data = tf_dnn::synthetic_mnist(100, 79);
        let arch = tf_dnn::arch_5layer();
        let spec = TrainSpec {
            epochs: 1,
            batch: 50,
            lr: 0.01,
            storages: 1,
            seed: 57,
        };
        let (oracle, oracle_losses) = dnn_seq::train(&data, &arch, spec, 15);
        let pool = Pool::new(3);
        let (net, losses) = dnn_openmp::train(Arc::new(data), &arch, spec, 15, &pool);
        assert_eq!(losses, oracle_losses);
        assert_eq!(net.weights, oracle.weights);
    }

    #[test]
    fn impl_sources_exist_for_measurement() {
        for f in [
            "wavefront_rustflow.rs",
            "wavefront_flowgraph.rs",
            "wavefront_levelized.rs",
            "wavefront_seq.rs",
            "traversal_rustflow.rs",
            "traversal_flowgraph.rs",
            "traversal_levelized.rs",
            "traversal_seq.rs",
            "wavefront_openmp.rs",
            "traversal_openmp.rs",
            "dnn_rustflow.rs",
            "dnn_flowgraph.rs",
            "dnn_levelized.rs",
            "dnn_openmp.rs",
            "dnn_seq.rs",
        ] {
            assert!(source_path(f).exists(), "{f} missing");
        }
    }
}
