//! System tests of the DNN substrate: the Figure-11 pipeline trained by
//! every scheduler agrees bitwise with plain SGD at a realistic scale,
//! learns the synthetic distribution, and matches the paper's task-count
//! arithmetic. Every rustflow run is bounded ([`common::within_30s`]): a
//! wedged executor fails the suite after 30 s instead of hanging it.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::within_30s;
use rustflow::Executor;
use std::sync::Arc;
use tf_baselines::{Dag, Pool};
use tf_dnn::net::{arch_3layer, arch_5layer};
use tf_dnn::pipeline::{build_training_dag, train_sequential, TrainSpec};
use tf_dnn::{synthetic_mnist, Mlp};

/// `run_rustflow(dag, ex)`, bounded.
fn run_rustflow(what: &str, dag: Dag, ex: &Arc<Executor>) {
    let ex = Arc::clone(ex);
    within_30s(&format!("rustflow on {what}"), move || {
        tf_workloads::run::run_rustflow(&dag, &ex)
    });
}

#[test]
fn paper_task_counts_per_epoch() {
    // "Each epoch consists of 4201 tasks and 6601 tasks for the
    // three-layer DNN and the five-layer DNN" — with 60K images and
    // batch 100 (600 batches).
    let data = Arc::new(synthetic_mnist(60_000, 1));
    let spec = TrainSpec::paper(1);
    let net3 = Mlp::new(&arch_3layer(), 1);
    let (dag3, _) = build_training_dag(&net3, Arc::clone(&data), spec);
    assert_eq!(dag3.len(), 4_201);
    let net5 = Mlp::new(&arch_5layer(), 1);
    let (dag5, _) = build_training_dag(&net5, data, spec);
    assert_eq!(dag5.len(), 6_601);
}

#[test]
fn five_layer_pipeline_matches_sgd_bitwise_under_parallel_run() {
    let data = synthetic_mnist(600, 3);
    let arch = arch_5layer();
    let spec = TrainSpec {
        epochs: 3,
        batch: 100,
        lr: 0.02,
        storages: 3,
        seed: 17,
    };
    let mut oracle = Mlp::new(&arch, 23);
    let oracle_losses = train_sequential(&mut oracle, &data, spec);

    let net = Mlp::new(&arch, 23);
    let (dag, state) = build_training_dag(&net, Arc::new(data), spec);
    let ex = Executor::new(4);
    run_rustflow("three epochs of the five-layer pipeline", dag, &ex);
    let trained = state.to_mlp(&arch);
    assert_eq!(state.losses(), oracle_losses);
    for (w1, w2) in trained.weights.iter().zip(&oracle.weights) {
        assert_eq!(w1, w2);
    }
}

#[test]
fn training_learns_held_out_distribution() {
    let (test, train) = synthetic_mnist(2_000, 0xAB).split_at(400);
    let arch = arch_3layer();
    let spec = TrainSpec {
        epochs: 12,
        batch: 100,
        lr: 0.05,
        storages: 2,
        seed: 9,
    };
    let net = Mlp::new(&arch, 31);
    let (test_images, test_labels) = test.batch(0, test.len());
    let before = net.accuracy(&test_images, test_labels);
    let (dag, state) = build_training_dag(&net, Arc::new(train), spec);
    let pool = Pool::new(4);
    tf_workloads::run::run_flowgraph(&dag, &pool);
    let after = state.to_mlp(&arch).accuracy(&test_images, test_labels);
    assert!(
        after > 0.8 && after > before,
        "held-out accuracy too low: {before} -> {after}"
    );
}

#[test]
fn losses_decrease_over_training() {
    let data = synthetic_mnist(1_000, 0xCD);
    let arch = arch_3layer();
    let spec = TrainSpec {
        epochs: 8,
        batch: 100,
        lr: 0.05,
        storages: 2,
        seed: 77,
    };
    let net = Mlp::new(&arch, 41);
    let (dag, state) = build_training_dag(&net, Arc::new(data), spec);
    let ex = Executor::new(2);
    run_rustflow("eight epochs of the three-layer pipeline", dag, &ex);
    let losses = state.losses();
    assert_eq!(losses.len(), 8 * 10);
    let first: f64 = losses[..10].iter().sum::<f64>() / 10.0;
    let last: f64 = losses[losses.len() - 10..].iter().sum::<f64>() / 10.0;
    assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");
}

#[test]
fn storages_bound_memory_but_not_correctness() {
    // 1 storage slot fully serializes shuffle/training; many slots let
    // shuffles run ahead. Results must be identical either way.
    let data = synthetic_mnist(300, 0xEF);
    let arch = [784usize, 8, 10];
    let base = TrainSpec {
        epochs: 4,
        batch: 50,
        lr: 0.03,
        storages: 1,
        seed: 3,
    };
    let ex = Executor::new(4);
    let mut results = Vec::new();
    for storages in [1, 2, 4] {
        let spec = TrainSpec { storages, ..base };
        let net = Mlp::new(&arch, 51);
        let (dag, state) = build_training_dag(&net, Arc::new(data.clone()), spec);
        run_rustflow("four epochs with a storage bound", dag, &ex);
        results.push(state.to_mlp(&arch));
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0].weights, pair[1].weights);
    }
}
