//! Error types reported by a dispatched topology, plus the failure
//! policy that decides how much of a graph keeps running after the first
//! task failure.

use crate::validate::GraphDiagnostic;
use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

/// How a [`Taskflow`](crate::Taskflow) reacts to the first task panic in
/// a running topology.
///
/// The policy is frozen into the topology when the graph is dispatched or
/// first `run`; changing it afterwards affects only graphs frozen later.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Record the first panic but keep executing the rest of the graph —
    /// dependents of the failed task still run (their data contract is
    /// the user's responsibility, as in C++). This is the historical
    /// behavior and the default.
    #[default]
    ContinueAll,
    /// The first panic internally cancels the rest of the topology: nodes
    /// not yet started are skipped (counted, never executed), in-flight
    /// tasks observe [`crate::this_task::is_cancelled`], and remaining
    /// iterations plus queued `run_n`/`run_until` batches resolve with
    /// [`RunError::Cancelled`]. The batch that contained the panic still
    /// resolves with that panic (first error wins).
    FailFast,
}

/// A task's closure panicked while the topology was running.
///
/// Cpp-Taskflow (C++) lets exceptions terminate the program; in Rust we
/// catch the unwind at the task boundary, record the first panic, keep the
/// rest of the graph running (under [`FailurePolicy::ContinueAll`];
/// [`FailurePolicy::FailFast`] cancels it instead), and surface the
/// failure when the topology is waited on.
#[derive(Debug, Clone, Eq)]
pub struct TaskPanic {
    /// Name of the panicking task (empty if unnamed).
    pub task: String,
    /// The panic payload rendered as a string.
    pub message: String,
    /// 0-based topology iteration index the panic happened in (always 0
    /// for one-shot `dispatch`; the iteration of the `run_n`/`run_until`
    /// batch otherwise).
    pub iteration: u64,
    /// Backtrace captured at the task boundary, when the process runs
    /// with `RUSTFLOW_BACKTRACE=1`; `None` otherwise. Excluded from
    /// equality and from [`fmt::Display`] so failure assertions and error
    /// messages stay stable across capture configurations.
    pub backtrace: Option<String>,
}

impl TaskPanic {
    /// A panic record for `task` with `message`, iteration 0, and a
    /// backtrace iff `RUSTFLOW_BACKTRACE=1` is set in the environment.
    pub fn new(task: impl Into<String>, message: impl Into<String>) -> TaskPanic {
        TaskPanic {
            task: task.into(),
            message: message.into(),
            iteration: 0,
            backtrace: capture_backtrace(),
        }
    }

    /// Sets the topology iteration index the panic happened in.
    pub fn with_iteration(mut self, iteration: u64) -> TaskPanic {
        self.iteration = iteration;
        self
    }
}

/// Equality ignores the captured backtrace: two records of the same
/// failure compare equal whether or not `RUSTFLOW_BACKTRACE` was set.
impl PartialEq for TaskPanic {
    fn eq(&self, other: &Self) -> bool {
        self.task == other.task
            && self.message == other.message
            && self.iteration == other.iteration
    }
}

/// `true` iff the process was started with `RUSTFLOW_BACKTRACE=1`;
/// checked once and cached (the env var is read on the executor's panic
/// path, which must stay cheap).
fn backtrace_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("RUSTFLOW_BACKTRACE").as_deref() == Ok("1"))
}

/// Captures a backtrace at the call site when `RUSTFLOW_BACKTRACE=1`.
fn capture_backtrace() -> Option<String> {
    backtrace_enabled().then(|| std::backtrace::Backtrace::force_capture().to_string())
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.task.is_empty() {
            write!(f, "task panicked: {}", self.message)
        } else {
            write!(f, "task '{}' panicked: {}", self.task, self.message)
        }
    }
}

impl std::error::Error for TaskPanic {}

/// Why the executor's front door turned a submission away.
///
/// Returned by the non-blocking tenant submission path
/// ([`Taskflow::try_run_on`](crate::Taskflow::try_run_on)) and carried
/// inside [`RunError::Rejected`] when an already-accepted submission is
/// drained by shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's bounded submission queue was full. Back off and retry,
    /// or use the blocking [`Taskflow::run_on`](crate::Taskflow::run_on)
    /// which waits for queue space instead.
    Saturated {
        /// Name of the saturated tenant.
        tenant: String,
        /// The tenant's queue bound ([`TenantQos::max_queued`](crate::TenantQos)).
        capacity: usize,
    },
    /// The executor is shutting down ([`Executor::close`](crate::Executor)
    /// was called, or the executor is being dropped); no further work is
    /// admitted.
    ShuttingDown,
    /// Deadline-aware admission turned the run away at submit time: the
    /// tenant's oldest queued run has already waited longer than this
    /// run's deadline, so queueing it behind that run would only burn
    /// capacity on work that is doomed to be shed. Cheap-reject beats
    /// queue-then-cancel.
    DeadlineInfeasible {
        /// Name of the tenant that rejected the run.
        tenant: String,
        /// The run's deadline, relative to submission.
        deadline: Duration,
        /// How long the tenant's oldest queued run had waited at the
        /// submission (the queue's head-of-line sojourn).
        estimated_wait: Duration,
    },
    /// The tenant's circuit breaker is open after too many consecutive
    /// run failures ([`TenantQos::breaker`](crate::TenantQos)): the
    /// submission is fast-rejected without touching the queue. Retry
    /// after `retry_after`; the first submission past that window is
    /// admitted as a half-open probe whose success closes the breaker.
    BreakerOpen {
        /// Name of the tenant whose breaker is open.
        tenant: String,
        /// How long until the breaker admits a half-open probe (zero
        /// when a probe is already in flight).
        retry_after: Duration,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Saturated { tenant, capacity } => write!(
                f,
                "tenant '{tenant}' saturated: {capacity} submissions already queued"
            ),
            AdmissionError::ShuttingDown => write!(f, "executor is shutting down"),
            AdmissionError::DeadlineInfeasible {
                tenant,
                deadline,
                estimated_wait,
            } => write!(
                f,
                "tenant '{tenant}' cannot meet a {deadline:?} deadline: \
                 expected queue wait is {estimated_wait:?}"
            ),
            AdmissionError::BreakerOpen {
                tenant,
                retry_after,
            } => write!(
                f,
                "tenant '{tenant}' circuit breaker is open: retry in {retry_after:?}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a dispatched topology did not complete cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A task's closure panicked (first panic wins; see [`TaskPanic`]).
    Panic(TaskPanic),
    /// The graph was rejected by the pre-dispatch sanitizer
    /// ([`crate::Taskflow::validate`]): it contains at least one fatal
    /// finding (a dependency cycle, a self-edge, an edge into another
    /// graph) or waits on a task outside itself, so running it could
    /// never complete. Carries *every* finding, warnings included.
    InvalidGraph(Vec<GraphDiagnostic>),
    /// The run was cancelled — by [`RunHandle::cancel`](crate::RunHandle),
    /// by a deadline expiring
    /// ([`RunHandle::wait_timeout`](crate::RunHandle)), or because a
    /// queued batch was drained after an earlier batch failed under
    /// [`FailurePolicy::FailFast`]. Tasks already running were allowed to
    /// finish; queued-but-unstarted tasks were skipped.
    Cancelled,
    /// The submission was accepted into a tenant queue but never
    /// dispatched: the executor shut down (or, for a submission racing
    /// `Executor::drop`, admission had already closed). No task of this
    /// batch ran.
    Rejected(AdmissionError),
    /// The run was shed from its tenant queue before dispatch: its
    /// deadline expired while it waited. No task of this batch ran; the
    /// topology was never claimed, so it re-arms clean for the next
    /// submission.
    Shed {
        /// Name of the tenant whose queue shed the run.
        tenant: String,
        /// How long the run sat queued before it was shed.
        queued_for: Duration,
    },
}

impl RunError {
    /// The panic record, when this error is a task panic.
    pub fn as_panic(&self) -> Option<&TaskPanic> {
        match self {
            RunError::Panic(p) => Some(p),
            _ => None,
        }
    }

    /// The sanitizer findings, when this error is a rejected graph.
    pub fn diagnostics(&self) -> Option<&[GraphDiagnostic]> {
        match self {
            RunError::InvalidGraph(d) => Some(d),
            _ => None,
        }
    }

    /// `true` when the run was cancelled rather than failing on its own.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, RunError::Cancelled)
    }

    /// The admission error, when the submission was rejected before any
    /// task ran.
    pub fn as_rejected(&self) -> Option<&AdmissionError> {
        match self {
            RunError::Rejected(a) => Some(a),
            _ => None,
        }
    }

    /// `true` when the run was shed from its tenant queue before
    /// dispatch because its deadline expired there.
    pub fn is_shed(&self) -> bool {
        matches!(self, RunError::Shed { .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panic(p) => p.fmt(f),
            RunError::InvalidGraph(diags) => {
                write!(f, "invalid task graph: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    d.fmt(f)?;
                }
                Ok(())
            }
            RunError::Cancelled => write!(f, "run cancelled"),
            RunError::Rejected(a) => write!(f, "submission rejected: {a}"),
            RunError::Shed { tenant, queued_for } => write!(
                f,
                "run shed from tenant '{tenant}' queue after {queued_for:?} \
                 (deadline expired)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TaskPanic> for RunError {
    fn from(p: TaskPanic) -> RunError {
        RunError::Panic(p)
    }
}

/// Outcome of a dispatched topology: `Ok(())`, the first task panic, or a
/// graph rejected by the sanitizer.
pub type RunResult = Result<(), RunError>;

/// Renders a `catch_unwind` payload as a string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_name() {
        let e = TaskPanic::new("A", "boom");
        assert_eq!(e.to_string(), "task 'A' panicked: boom");
        let e = TaskPanic::new("", "boom");
        assert_eq!(e.to_string(), "task panicked: boom");
        // The iteration index is diagnostic metadata; Display stays stable.
        assert_eq!(e.with_iteration(7).to_string(), "task panicked: boom");
    }

    #[test]
    fn equality_ignores_backtrace_but_not_iteration() {
        let a = TaskPanic::new("A", "boom");
        let mut b = a.clone();
        b.backtrace = Some("synthetic frames".into());
        assert_eq!(a, b);
        assert_ne!(a, b.with_iteration(3));
    }

    #[test]
    fn run_error_wraps_and_projects() {
        let p = TaskPanic::new("A", "boom");
        let e = RunError::from(p.clone());
        assert_eq!(e.as_panic(), Some(&p));
        assert!(e.diagnostics().is_none());
        assert_eq!(e.to_string(), "task 'A' panicked: boom");

        let e = RunError::InvalidGraph(vec![
            GraphDiagnostic::SelfEdge {
                label: "X".into(),
                node: 0,
            },
            GraphDiagnostic::Orphan {
                label: "Y".into(),
                node: 1,
            },
        ]);
        assert!(e.as_panic().is_none());
        assert_eq!(e.diagnostics().map(|d| d.len()), Some(2));
        assert_eq!(
            e.to_string(),
            "invalid task graph: task 'X' precedes itself; \
             orphan task 'Y' (no predecessors or successors)"
        );
    }

    #[test]
    fn overload_errors_display_and_project() {
        let e = AdmissionError::DeadlineInfeasible {
            tenant: "api".into(),
            deadline: Duration::from_millis(5),
            estimated_wait: Duration::from_millis(40),
        };
        assert_eq!(
            e.to_string(),
            "tenant 'api' cannot meet a 5ms deadline: expected queue wait is 40ms"
        );
        let e = AdmissionError::BreakerOpen {
            tenant: "api".into(),
            retry_after: Duration::from_millis(250),
        };
        assert_eq!(
            e.to_string(),
            "tenant 'api' circuit breaker is open: retry in 250ms"
        );
        let shed = RunError::Shed {
            tenant: "api".into(),
            queued_for: Duration::from_millis(12),
        };
        assert!(shed.is_shed());
        assert!(!shed.is_cancelled());
        assert!(shed.as_rejected().is_none());
        assert_eq!(
            shed.to_string(),
            "run shed from tenant 'api' queue after 12ms (deadline expired)"
        );
        assert!(!RunError::Cancelled.is_shed());
    }

    #[test]
    fn panic_message_variants() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(&*s), "static");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(&*s), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(&*s), "<non-string panic payload>");
    }
}
