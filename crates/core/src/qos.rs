//! What a client asks of a tenant: the quality-of-service parameters fixed
//! at tenant creation ([`TenantQos`]) and the specs they are made of. Plain
//! data; the machinery that honours them (admission, fair queueing, the
//! breaker state machine, SLO burn rates) lives in `executor.rs` and
//! `introspect/`.

use std::time::Duration;

/// Quality-of-service parameters for a tenant, fixed at tenant creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQos {
    /// Weighted-fair-queueing share: a weight-4 tenant dispatches 4
    /// topologies for each one of a weight-1 tenant while both have work
    /// queued. Clamped to at least 1.
    pub weight: u32,
    /// Admission bound: submissions beyond this many queued (not yet
    /// dispatched) topologies block (`submit`) or are rejected with
    /// [`AdmissionError::Saturated`](crate::AdmissionError) (`try_submit`). Clamped to at
    /// least 1.
    pub max_queued: usize,
    /// Optional latency objective. When set, the stall watchdog runs a
    /// multi-window burn-rate check over this tenant's end-to-end latency
    /// histogram and emits
    /// [`WatchdogDiagnostic::SloBurn`](crate::WatchdogDiagnostic) when
    /// the error budget burns too fast (see [`SloSpec`]).
    pub slo: Option<SloSpec>,
    /// Default deadline applied to every run submitted on this tenant
    /// (overridable per run via
    /// [`Taskflow::run_on_deadline`](crate::Taskflow::run_on_deadline)).
    /// A deadlined run is cheap-rejected at submit time when the
    /// expected queue wait already exceeds it
    /// ([`AdmissionError::DeadlineInfeasible`](crate::AdmissionError)) and shed from the queue
    /// ([`RunError::Shed`](crate::RunError)) if it expires before the
    /// fair-queue pump dispatches it. The deadline does **not** cancel a
    /// run once dispatched — pair it with
    /// [`RunHandle::wait_timeout`](crate::RunHandle::wait_timeout) for
    /// execution-side expiry.
    pub deadline: Option<Duration>,
    /// Retry budget consulted by [`Task::retry`](crate::Task::retry):
    /// when set, retries beyond `floor + per_mille/1000 ×
    /// completions` degrade to ordinary failures instead of amplifying
    /// load exactly when capacity is scarcest. `None` (the default)
    /// leaves retries unbudgeted.
    pub retry_budget: Option<RetryBudget>,
    /// Per-tenant circuit breaker: after `failures` consecutive failed
    /// runs the tenant's submissions are fast-rejected with
    /// [`AdmissionError::BreakerOpen`](crate::AdmissionError) for `open_for`, then a single
    /// half-open probe is admitted whose success closes the breaker.
    /// `None` (the default) disables the breaker.
    pub breaker: Option<BreakerSpec>,
}

impl Default for TenantQos {
    fn default() -> Self {
        TenantQos {
            weight: 1,
            max_queued: 1024,
            slo: None,
            deadline: None,
            retry_budget: None,
            breaker: None,
        }
    }
}

/// Retry-budget parameters ([`TenantQos::retry_budget`]): the tenant may
/// spend `floor` retries unconditionally plus `per_mille` additional
/// retries per 1000 successful completions. The budget is cumulative —
/// healthy periods bank allowance that overload then draws down, so a
/// retry storm under sustained failure degrades to plain failures once
/// the bank is empty ([`rustflow_retry_budget_exhausted_total`]).
///
/// [`rustflow_retry_budget_exhausted_total`]: crate::TenantStats::retry_budget_exhausted
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Retries always available, regardless of completion history.
    pub floor: u64,
    /// Extra retries granted per 1000 successful completions (100 =
    /// the canonical "10% of completions").
    pub per_mille: u32,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            floor: 8,
            per_mille: 100,
        }
    }
}

/// Circuit-breaker parameters ([`TenantQos::breaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSpec {
    /// Consecutive failed runs (task panics / invalid graphs — not
    /// cancellations) that open the breaker. Clamped to at least 1.
    pub failures: u32,
    /// How long an open breaker fast-rejects submissions before
    /// admitting one half-open probe.
    pub open_for: Duration,
}

impl Default for BreakerSpec {
    fn default() -> Self {
        BreakerSpec {
            failures: 5,
            open_for: Duration::from_secs(1),
        }
    }
}

/// State of a tenant's circuit breaker (closed → open → half-open →
/// closed). Exposed as the `rustflow_breaker_state` gauge (0, 1, 2 in
/// declaration order) and in [`WatchdogDiagnostic::BreakerTransition`](crate::WatchdogDiagnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal admission; consecutive failures are being counted.
    Closed,
    /// Fast-rejecting all submissions until the open window elapses.
    Open,
    /// One probe run has been admitted; its outcome decides the next
    /// state (success → closed, failure → open again).
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding used by `rustflow_breaker_state` and the tenant
    /// state word: 0 = closed, 1 = open, 2 = half-open.
    pub(crate) fn from_word(w: u64) -> BreakerState {
        match w {
            BREAKER_OPEN => BreakerState::Open,
            BREAKER_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// The state's name as rendered in `/status` and diagnostics.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Encodings of a tenant's breaker state word (the atomic the breaker
/// state machine CASes).
pub(crate) const BREAKER_CLOSED: u64 = 0;
pub(crate) const BREAKER_OPEN: u64 = 1;
pub(crate) const BREAKER_HALF_OPEN: u64 = 2;

/// A per-tenant latency service-level objective: "99% of runs finish
/// end-to-end (submit → finalize) within `p99_us`, judged over `window`".
///
/// The error budget is the 1% of runs allowed past the target. The
/// watchdog alerts SRE-style on *burn rate* — budget consumed per unit
/// budget allotted — over two windows at once (`window` and `window/12`),
/// so a sustained breach fires quickly while a long-gone spike does not
/// page ([`WatchdogDiagnostic::SloBurn`](crate::WatchdogDiagnostic)).
///
/// ```
/// use std::time::Duration;
/// let qos = rustflow::TenantQos {
///     slo: Some(rustflow::SloSpec {
///         p99_us: 50_000,
///         window: Duration::from_secs(60),
///     }),
///     ..rustflow::TenantQos::default()
/// };
/// assert_eq!(qos.slo.unwrap().p99_us, 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Target 99th-percentile end-to-end latency, in microseconds.
    pub p99_us: u64,
    /// The long burn-rate window; the fast window is `window/12`
    /// (clamped to one watchdog pass). Clamped to at least one second.
    pub window: Duration,
}
