//! Per-model implementations of the paper's three coding-cost subjects
//! (wavefront, graph traversal, DNN training), written the way a user of
//! each programming model would write them.
//!
//! These files are **measurement subjects**: Tables I and III run the
//! SLOC / cyclomatic-complexity analyzer (`tf-metrics`) over their
//! sources, reproducing the paper's methodology on our Rust
//! implementations. They are therefore deliberately *not* factored
//! through the shared `Dag` abstraction — each uses its model's native
//! graph-description API, because that API's verbosity is exactly what
//! the experiment quantifies.
//!
//! [`CONTENDERS`] is the one place that names them: every sweep, cost
//! table and agreement test iterates it, so a programming model added
//! there is timed, measured and checked against the sequential oracle
//! without further code.

mod dnn_flowgraph;
mod dnn_levelized;
mod dnn_openmp;
mod dnn_rustflow;
mod dnn_seq;
mod traversal_flowgraph;
mod traversal_levelized;
mod traversal_openmp;
mod traversal_rustflow;
mod traversal_seq;
mod wavefront_flowgraph;
mod wavefront_levelized;
mod wavefront_openmp;
mod wavefront_rustflow;
mod wavefront_seq;

use rustflow::Executor;
use std::sync::Arc;
use tf_baselines::Pool;
use tf_dnn::pipeline::TrainSpec;
use tf_dnn::{Dataset, Mlp};
use tf_workloads::randdag::RandDagSpec;

/// What a programming model's code runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The calling thread: the sequential oracle.
    Inline,
    /// A rustflow [`Executor`].
    Executor,
    /// A `tf-baselines` [`Pool`].
    Pool,
}

impl Backend {
    /// Starts the backend with `threads` workers.
    pub fn start(self, threads: usize) -> Runtime {
        match self {
            Backend::Inline => Runtime::Inline,
            Backend::Executor => Runtime::Executor(Executor::new(threads)),
            Backend::Pool => Runtime::Pool(Pool::new(threads)),
        }
    }
}

/// A started [`Backend`], handed to every entry point of the model.
pub enum Runtime {
    /// Nothing to hand over.
    Inline,
    /// The executor a rustflow entry point dispatches to.
    Executor(Arc<Executor>),
    /// The pool a baseline entry point runs on.
    Pool(Pool),
}

impl Runtime {
    fn executor(&self) -> &Arc<Executor> {
        let Runtime::Executor(executor) = self else {
            panic!("this contender's backend is Backend::Executor");
        };
        executor
    }

    fn pool(&self) -> &Pool {
        let Runtime::Pool(pool) = self else {
            panic!("this contender's backend is Backend::Pool");
        };
        pool
    }

    /// Tasks the executor has run so far; `None` on a backend that does
    /// not count them.
    pub fn executed(&self) -> Option<u64> {
        match self {
            Runtime::Executor(executor) => Some(executor.stats().total().executed),
            _ => None,
        }
    }
}

/// One model's implementation of one subject: the file `tf-metrics`
/// measures (under `src/impls/`) and its entry point.
#[derive(Clone, Copy)]
pub struct Subject<F> {
    /// File name under `src/impls/`.
    pub source: &'static str,
    /// The entry point.
    pub run: F,
}

impl<F> Subject<F> {
    /// Where the source file is.
    pub fn source_path(&self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("src/impls")
            .join(self.source)
    }
}

/// Wavefront over a `dim × dim` grid with `iters` of nominal work per
/// task; returns the order-independent checksum.
pub type WavefrontFn = fn(usize, u32, &Runtime) -> u64;
/// Traversal of the seeded random DAG; returns the checksum.
pub type TraversalFn = fn(RandDagSpec, &Runtime) -> u64;
/// Training of an MLP of the given layer sizes from the given seed;
/// returns the trained network and the per-epoch losses.
pub type DnnFn = fn(&Arc<Dataset>, &[usize], TrainSpec, u64, &Runtime) -> (Mlp, Vec<f64>);

/// One programming model: a row of the paper's Tables I and III and a
/// line of its Figures 7 and 12.
#[derive(Clone, Copy)]
pub struct Contender {
    /// The model's name in every table and CSV (`*`: not in the paper).
    pub label: &'static str,
    /// What its entry points run on.
    pub backend: Backend,
    /// Table I / Figure 7, wavefront.
    pub wavefront: Subject<WavefrontFn>,
    /// Table I / Figure 7, graph traversal.
    pub traversal: Subject<TraversalFn>,
    /// Table III / Figure 12. The OpenMP-style driver hand-codes its
    /// clause order and supports only the paper's two architectures.
    pub dnn: Subject<DnnFn>,
}

impl Contender {
    /// The label as a CSV column stem: `tbb-style` → `tbb_style`.
    pub fn column(&self) -> String {
        self.label.trim_end_matches('*').replace('-', "_")
    }
}

/// The five programming models, in the paper's row order.
pub static CONTENDERS: [Contender; 5] = [
    Contender {
        label: "rustflow",
        backend: Backend::Executor,
        wavefront: Subject {
            source: "wavefront_rustflow.rs",
            run: |dim, iters, rt| wavefront_rustflow::run(dim, iters, rt.executor()),
        },
        traversal: Subject {
            source: "traversal_rustflow.rs",
            run: |spec, rt| traversal_rustflow::run(spec, rt.executor()),
        },
        dnn: Subject {
            source: "dnn_rustflow.rs",
            run: |data, arch, spec, seed, rt| {
                dnn_rustflow::train(Arc::clone(data), arch, spec, seed, rt.executor())
            },
        },
    },
    Contender {
        label: "openmp-style",
        backend: Backend::Pool,
        wavefront: Subject {
            source: "wavefront_openmp.rs",
            run: |dim, iters, rt| wavefront_openmp::run(dim, iters, rt.pool()),
        },
        traversal: Subject {
            source: "traversal_openmp.rs",
            run: |spec, rt| traversal_openmp::run(spec, rt.pool()),
        },
        dnn: Subject {
            source: "dnn_openmp.rs",
            run: |data, arch, spec, seed, rt| {
                dnn_openmp::train(Arc::clone(data), arch, spec, seed, rt.pool())
            },
        },
    },
    Contender {
        label: "tbb-style",
        backend: Backend::Pool,
        wavefront: Subject {
            source: "wavefront_flowgraph.rs",
            run: |dim, iters, rt| wavefront_flowgraph::run(dim, iters, rt.pool()),
        },
        traversal: Subject {
            source: "traversal_flowgraph.rs",
            run: |spec, rt| traversal_flowgraph::run(spec, rt.pool()),
        },
        dnn: Subject {
            source: "dnn_flowgraph.rs",
            run: |data, arch, spec, seed, rt| {
                dnn_flowgraph::train(Arc::clone(data), arch, spec, seed, rt.pool())
            },
        },
    },
    Contender {
        label: "sequential",
        backend: Backend::Inline,
        wavefront: Subject {
            source: "wavefront_seq.rs",
            run: |dim, iters, _| wavefront_seq::run(dim, iters),
        },
        traversal: Subject {
            source: "traversal_seq.rs",
            run: |spec, _| traversal_seq::run(spec),
        },
        dnn: Subject {
            source: "dnn_seq.rs",
            run: |data, arch, spec, seed, _| dnn_seq::train(data, arch, spec, seed),
        },
    },
    // Our extra OpenTimer-v1-style baseline: no counterpart in the paper.
    Contender {
        label: "levelized*",
        backend: Backend::Pool,
        wavefront: Subject {
            source: "wavefront_levelized.rs",
            run: |dim, iters, rt| wavefront_levelized::run(dim, iters, rt.pool()),
        },
        traversal: Subject {
            source: "traversal_levelized.rs",
            run: |spec, rt| traversal_levelized::run(spec, rt.pool()),
        },
        dnn: Subject {
            source: "dnn_levelized.rs",
            run: |data, arch, spec, seed, rt| {
                dnn_levelized::train(data, arch, spec, seed, rt.pool())
            },
        },
    },
];
