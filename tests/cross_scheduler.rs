//! Cross-crate invariant: every scheduler in the repository — rustflow,
//! the TBB-style flow graph, the OpenMP-style levelized executor, the
//! OpenMP-`task depend` runtime, and the sequential oracle — executes the
//! same randomized DAGs in dependency order, running every task exactly
//! once.
//!
//! No wait here is unbounded: each scheduler's case runs on a helper
//! thread ([`common::bounded`]), and a case that has not finished after
//! 30 s fails the suite with the scheduler's name and the seed the DAG is
//! rebuilt from ([`dag_from_seed`]).

mod common;

use common::bounded;
use proptest::prelude::*;
use rustflow::Executor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tf_baselines::{Dag, FlowGraphBuilder, Pool, TaskDepRegion};

struct Probe {
    clock: Arc<AtomicUsize>,
    stamps: Vec<Arc<AtomicUsize>>,
    runs: Vec<Arc<AtomicUsize>>,
}

impl Probe {
    fn new(n: usize) -> Probe {
        Probe {
            clock: Arc::new(AtomicUsize::new(0)),
            stamps: (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect(),
            runs: (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect(),
        }
    }

    fn dag(&self, edges: &[(usize, usize)]) -> Dag {
        let mut dag = Dag::with_capacity(self.stamps.len());
        for i in 0..self.stamps.len() {
            let clock = Arc::clone(&self.clock);
            let stamp = Arc::clone(&self.stamps[i]);
            let run = Arc::clone(&self.runs[i]);
            dag.add(move || {
                run.fetch_add(1, Ordering::SeqCst);
                stamp.store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            });
        }
        for &(u, v) in edges {
            dag.edge(u, v);
        }
        dag
    }

    fn verify(&self, edges: &[(usize, usize)]) -> Result<(), TestCaseError> {
        for (i, run) in self.runs.iter().enumerate() {
            prop_assert_eq!(run.load(Ordering::SeqCst), 1, "task {} runs", i);
        }
        let s: Vec<usize> = self
            .stamps
            .iter()
            .map(|x| x.load(Ordering::SeqCst))
            .collect();
        for &(u, v) in edges {
            prop_assert!(s[u] < s[v], "edge ({},{}) violated", u, v);
        }
        Ok(())
    }
}

/// The DAG of one seed: node count and forward edges.
fn dag_from_seed(seed: u64) -> (usize, Vec<(usize, usize)>) {
    arb_edges().sample(&mut TestRng::new(seed))
}

/// One scheduler over the DAG of `seed`, bounded: `run` gets the DAG and
/// its edge list, and the probe it leaves behind is verified.
fn check_scheduler(
    scheduler: &str,
    seed: u64,
    run: impl FnOnce(&Dag, &[(usize, usize)]) + Send + 'static,
) -> Result<(), TestCaseError> {
    let (n, edges) = dag_from_seed(seed);
    let case_edges = edges.clone();
    let probe = bounded(
        scheduler,
        &format!("the DAG of seed {seed:#x}"),
        move || {
            let probe = Probe::new(n);
            run(&probe.dag(&case_edges), &case_edges);
            probe
        },
    );
    probe.verify(&edges)
}

fn arb_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0usize..n, 0usize..n), 0..80).prop_map(move |pairs| {
                let mut edges: Vec<(usize, usize)> = pairs
                    .into_iter()
                    .filter(|&(u, v)| u != v)
                    .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                edges
            });
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rustflow_respects_random_dags(seed in 0u64..u64::MAX) {
        check_scheduler("rustflow", seed, |dag, _| {
            let ex = Executor::new(3);
            tf_workloads::run::run_rustflow(dag, &ex);
        })?;
    }

    #[test]
    fn flowgraph_respects_random_dags(seed in 0u64..u64::MAX) {
        check_scheduler("flowgraph", seed, |dag, _| {
            let pool = Pool::new(3);
            let (graph, sources) = FlowGraphBuilder::from_dag(dag);
            for s in sources {
                graph.try_put(s, &pool);
            }
            graph.wait_for_all();
        })?;
    }

    #[test]
    fn levelized_respects_random_dags(seed in 0u64..u64::MAX) {
        check_scheduler("levelized", seed, |dag, _| {
            let pool = Pool::new(3);
            tf_baselines::run_levelized(dag, &pool, 0);
        })?;
    }

    #[test]
    fn taskdep_respects_random_dags(seed in 0u64..u64::MAX) {
        check_scheduler("taskdep", seed, |dag, edges| {
            let pool = Pool::new(3);
            let region = TaskDepRegion::new(&pool);
            // Nodes are issued in topological id order; declare depend(in:)
            // on each predecessor's address and depend(out:) on one's own.
            for v in 0..dag.len() {
                let payload = dag.payload_of(v);
                let mut ins: Vec<u64> = Vec::new();
                for &(u, w) in edges {
                    if w == v {
                        ins.push(u as u64);
                    }
                }
                region.task(&ins, &[v as u64], move || payload());
            }
            region.wait_all();
        })?;
    }

    #[test]
    fn sequential_respects_random_dags(seed in 0u64..u64::MAX) {
        check_scheduler("sequential", seed, |dag, _| dag.run_sequential())?;
    }
}

/// The pool under `taskdep`, `levelized` and `flowgraph` shuts down however
/// its workers fall against the destructor: 20 000 lifecycles of two
/// workers, two no-op jobs and a drop. A `stop` flag set outside the queue
/// lock let the destructor's wake land between a worker's last check and
/// its wait, and `join` hung (this loop wedged within a few thousand
/// lifecycles).
#[test]
fn pool_lifecycles_never_wedge_the_drop() {
    bounded("the baseline pool", "20 000 lifecycles", || {
        for _ in 0..20_000 {
            let pool = Pool::new(2);
            pool.submit(|| {});
            pool.submit(|| {});
        }
    });
}

/// The micro-benchmark checksum agreement at a non-trivial size, across
/// every scheduler (the deterministic core of Figure 7's setup).
#[test]
fn micro_benchmarks_checksum_agreement() {
    use tf_workloads::randdag::RandDagSpec;
    use tf_workloads::wavefront::{self, WavefrontSpec};

    const SCHEDULERS: [&str; 3] = ["rustflow", "flowgraph", "levelized"];
    let ex = Executor::new(3);
    let pool = Arc::new(Pool::new(3));
    let run = |scheduler: &'static str, input: &str, dag: Dag| {
        let (ex, pool) = (Arc::clone(&ex), Arc::clone(&pool));
        bounded(scheduler, input, move || match scheduler {
            "rustflow" => tf_workloads::run::run_rustflow(&dag, &ex),
            "flowgraph" => tf_workloads::run::run_flowgraph(&dag, &pool),
            _ => tf_workloads::run::run_levelized(&dag, &pool),
        });
    };

    let spec = WavefrontSpec::new(24);
    let expected = wavefront::expected_checksum(spec);
    for scheduler in SCHEDULERS {
        let (dag, sink) = wavefront::build(spec);
        run(scheduler, "the 24x24 wavefront", dag);
        assert_eq!(sink.value(), expected, "{scheduler}");
    }

    let spec = RandDagSpec::new(4_000);
    let expected = tf_workloads::randdag::expected_checksum(spec);
    for scheduler in SCHEDULERS {
        let (dag, sink) = tf_workloads::randdag::build(spec);
        run(scheduler, "the 4000-node random DAG", dag);
        assert_eq!(sink.value(), expected, "{scheduler}");
    }
}
