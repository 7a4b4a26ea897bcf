//! # rustflow — fast task-based parallel programming
//!
//! A from-scratch Rust reproduction of **Cpp-Taskflow** (T.-W. Huang,
//! C.-X. Lin, G. Guo, M. Wong, *Cpp-Taskflow: Fast Task-Based Parallel
//! Programming Using Modern C++*, IPDPS 2019).
//!
//! rustflow helps you quickly write parallel programs using **task
//! dependency graphs**: you describe *what* depends on *what*; a
//! work-stealing executor decides *who* runs *when*. There is no explicit
//! thread management and no lock juggling in user code.
//!
//! ```
//! let tf = rustflow::Taskflow::new();
//!
//! let (a, b, c, d) = rustflow::emplace!(tf,
//!     || println!("Task A"),
//!     || println!("Task B"),
//!     || println!("Task C"),
//!     || println!("Task D"),
//! );
//!
//! a.precede([b, c]); // A runs before B and C
//! b.precede(d);      // B runs before D
//! c.precede(d);      // C runs before D
//!
//! tf.wait_for_all(); // block until finish
//! ```
//!
//! ## Feature map (paper section → API)
//!
//! | Paper | API |
//! |---|---|
//! | §III-A create a task | [`Taskflow::emplace`], [`Taskflow::placeholder`], [`emplace!`] |
//! | §III-B static tasking | [`Task::precede`], [`Task::succeed`] |
//! | §III-C dispatch | [`Taskflow::wait_for_all`], [`Taskflow::dispatch`], [`Taskflow::silent_dispatch`], [`RunHandle`] |
//! | §III-D dynamic tasking | [`Taskflow::emplace_subflow`], [`Subflow`] (join/detach) |
//! | §III-E executor | [`Executor`], [`ExecutorBuilder`] (work stealing + work sharing, Algorithm 1) |
//! | §III-F algorithms | [`algorithm::parallel_for`], [`algorithm::reduce`], [`algorithm::transform`] |
//! | §III-G debugging | [`Taskflow::dump`], [`Taskflow::dump_topologies`] (GraphViz DOT) |
//!
//! ## Scheduling (Algorithm 1 of the paper)
//!
//! The executor mixes **work stealing** with **work sharing**: each worker
//! owns a Chase–Lev deque plus an *exclusive task cache* that lets linear
//! task chains run speculatively with no queue traffic; idle workers park
//! on a precise *idler list* from which wakers pop exactly one spare
//! worker, and a worker is woken only for a pushed task that no spinning
//! thief will find. See [`Executor`] for details.

#![warn(missing_docs)]
#![warn(unsafe_op_in_unsafe_fn)]

#[macro_use]
mod taskflow;

pub mod algorithm;
pub mod chaos;
mod clock;
mod dot;
mod error;
mod executor;
mod frontdoor;
mod future;
mod graph;
mod handle;
mod injector;
pub mod introspect;
mod label;
mod notifier;
mod observer;
pub mod profile;
#[cfg(feature = "rustflow_check")]
mod rearm_model;
mod resilience;
mod ring;
mod scheduler;
mod shared_vec;
mod stats;
mod subflow;
mod sync;
mod sync_cell;
mod task;
pub mod this_task;
mod topology;
mod validate;
pub mod wire;
pub mod wsq;

/// Internal protocol types re-exported for the model-checker test suite
/// (`crates/check/tests`). Not part of the public API.
#[cfg(feature = "rustflow_check")]
#[doc(hidden)]
pub mod check_internals {
    pub use crate::frontdoor::FrontDoorBudget;
    pub use crate::future::promise_pair;
    pub use crate::injector::Injector;
    pub use crate::notifier::Notifier;
    pub use crate::rearm_model::RearmHarness;
    pub use crate::ring::Ring;
}

pub use error::{AdmissionError, FailurePolicy, RunError, RunResult, TaskPanic};
pub use executor::{Executor, ExecutorBuilder};
pub use frontdoor::Tenant;
pub use future::{Promise, SharedFuture};
pub use handle::RunHandle;
pub use introspect::{IntrospectConfig, IntrospectHandle, WatchdogCounts, WatchdogDiagnostic};
pub use label::TaskLabel;
pub use observer::{
    chrome_trace_json_from, BusyCounter, ExecutorObserver, IterationInfo, SchedEvent,
    SchedEventKind, TaskSpanInfo, Tracer, DISPATCH_LANE, SCHED_EVENT_SCHEMA_VERSION,
};
pub use profile::{GraphSnapshot, ProfileReport, PROFILE_SCHEMA_VERSION};
pub use resilience::{BreakerSpec, BreakerState, RetryBudget, SloSpec, TenantQos};
pub use shared_vec::SharedVec;
pub use stats::{percentile, AtomicHistogram, ExecutorStats, Histogram, TenantStats, WorkerStats};
pub use subflow::Subflow;
pub use task::{Task, TaskSet};
pub use taskflow::Taskflow;
pub use validate::GraphDiagnostic;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::algorithm::{self, parallel_for, reduce, transform};
    pub use crate::emplace;
    pub use crate::{
        Executor, ExecutorBuilder, FailurePolicy, RunHandle, SharedVec, Subflow, Task, Taskflow,
    };
}
