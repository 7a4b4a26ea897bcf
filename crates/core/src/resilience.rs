//! Resilience: what a client asks of a tenant ([`TenantQos`] and the specs
//! it is made of) next to the one stage that needs machinery of its own,
//! the circuit-breaker word machine ([`Breaker`]). The front door
//! ([`crate::frontdoor`]) calls it at admission and at finalize; it knows
//! nothing of queues, fair queueing or the scheduler. A deadline needs no
//! machinery: it is judged once, when the pump or a straight-through
//! submitter is about to dispatch the run, and an expired run is shed. SLO
//! burn rates are judged in `introspect/watchdog.rs`, which reports them
//! and acts on no queue, so a tenant that wants its queue shed sets a
//! deadline.

use crate::sync::{AtomicBool, AtomicU64};
use std::sync::atomic::Ordering;
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
    /// the error budget burns too fast (see [`SloSpec`]). It is a report
    /// only: to have queued runs dropped, set `deadline` (for example to
    /// the SLO target).
    pub slo: Option<SloSpec>,
    /// Default deadline applied to every run submitted on this tenant
    /// (overridable per run via
    /// [`Taskflow::run_on_deadline`](crate::Taskflow::run_on_deadline)).
    /// A deadlined run is admitted like any other and judged once, at
    /// dispatch: if it expired in the queue it is shed
    /// ([`RunError::Shed`](crate::RunError)) instead of run. The deadline
    /// does **not** cancel a run once dispatched — pair it with
    /// [`RunHandle::wait_timeout`](crate::RunHandle::wait_timeout) for
    /// execution-side expiry.
    pub deadline: Option<Duration>,
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
            breaker: None,
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
/// declaration order); every change is counted in
/// `rustflow_breaker_transitions_total`.
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
const BREAKER_CLOSED: u64 = 0;
const BREAKER_OPEN: u64 = 1;
const BREAKER_HALF_OPEN: u64 = 2;

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

/// One tenant's circuit-breaker state machine. Lock-free: every transition
/// is a CAS on `word`, so each has exactly one witness, which counts it in
/// `transitions`. Written by the finalizing worker ([`Breaker::note_outcome`])
/// and, while open or half-open, by submitters ([`Breaker::admit`]); the
/// parameters ([`BreakerSpec`]) stay with the tenant's read-only fields and
/// come in per call, so a submitter on a breaker-less tenant never touches
/// these worker-written words. `Default` is closed (`BREAKER_CLOSED` is 0)
/// with no failures counted and no probe out.
#[derive(Default)]
pub(crate) struct Breaker {
    /// Consecutive failed runs; reset by any non-failed completion.
    consecutive_failures: AtomicU64,
    /// State word: [`BREAKER_CLOSED`]/[`BREAKER_OPEN`]/[`BREAKER_HALF_OPEN`].
    word: AtomicU64,
    /// When the current open window ends ([`crate::clock::now_us`]
    /// domain). Written before the word transitions to open.
    open_until_us: AtomicU64,
    /// A half-open probe has been admitted and not yet resolved.
    probe_inflight: AtomicBool,
    /// State changes so far, bumped by each winning CAS.
    transitions: AtomicU64,
}

impl Breaker {
    /// The raw state word (the `rustflow_breaker_state` gauge).
    pub(crate) fn word(&self) -> u64 {
        self.word.load(Ordering::Relaxed)
    }

    /// Consecutive failed runs right now (gauge).
    pub(crate) fn consecutive_failures(&self) -> u64 {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    /// State changes so far (`rustflow_breaker_transitions_total`).
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Moves the state word from `from` to `to` if it still reads `from`,
    /// and counts the change; `false` when another thread moved it first.
    /// The CAS's orderings are the caller's, argued at each call.
    fn transition(&self, from: u64, to: u64, success: Ordering, failure: Ordering) -> bool {
        let won = self
            .word
            .compare_exchange(from, to, success, failure)
            .is_ok();
        if won {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
        won
    }

    /// Circuit-breaker admission check. `Ok(probe)` admits (with `probe`
    /// set when this run is the half-open probe); `Err(retry_after)`
    /// fast-rejects. Lock-free; callers may hold the queue lock.
    pub(crate) fn admit(&self, spec: Option<BreakerSpec>) -> Result<bool, Duration> {
        let Some(spec) = spec else {
            return Ok(false);
        };
        loop {
            // ORDERING: Acquire pairs with the Release CAS in
            // `note_outcome` so an observed `open` word comes with the
            // `open_until_us` write that preceded it.
            match self.word.load(Ordering::Acquire) {
                BREAKER_OPEN => {
                    let until = self.open_until_us.load(Ordering::Relaxed);
                    let now_us = crate::clock::now_us().max(1);
                    if now_us < until {
                        return Err(Duration::from_micros(until - now_us));
                    }
                    // Open window elapsed: race to admit the probe. The
                    // winner's run decides the breaker's fate; losers
                    // re-read the new state.
                    // ORDERING: AcqRel — the winner owns the probe slot
                    // (store below) before any other submitter can see
                    // `half-open`.
                    if self.transition(
                        BREAKER_OPEN,
                        BREAKER_HALF_OPEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        self.probe_inflight.store(true, Ordering::Relaxed);
                        return Ok(true);
                    }
                }
                BREAKER_HALF_OPEN => {
                    // Exactly one probe at a time; everyone else waits
                    // out roughly another open window.
                    if !self.probe_inflight.swap(true, Ordering::Relaxed) {
                        return Ok(true);
                    }
                    return Err(spec.open_for);
                }
                _ => return Ok(false),
            }
        }
    }

    /// Releases the half-open probe claim when a probe run is resolved
    /// without executing (shed, shutdown-drained, or rejected later in
    /// admission). Benign race: if the breaker has since closed and
    /// reopened, this may let one extra probe through — one stray run,
    /// never a stuck-open breaker.
    pub(crate) fn release_probe(&self, probe: bool) {
        if probe {
            self.probe_inflight.store(false, Ordering::Relaxed);
        }
    }

    /// Folds a finished run's outcome into the breaker state machine.
    pub(crate) fn note_outcome(&self, spec: Option<BreakerSpec>, failed: bool) {
        let Some(spec) = spec else {
            return;
        };
        if failed {
            let fails = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
            let now_us = crate::clock::now_us().max(1);
            // Arm the open window *before* any CAS can expose the open
            // state; a stale overwrite by a concurrent failure only
            // nudges the window, never unleashes admission early.
            self.open_until_us.store(
                now_us.saturating_add(spec.open_for.as_micros() as u64),
                Ordering::Relaxed,
            );
            // A failure while half-open (the probe, or a straggler
            // admitted before the breaker opened) re-opens immediately.
            // ORDERING: Release on success publishes the window store
            // above to `admit`'s Acquire load.
            if self.transition(
                BREAKER_HALF_OPEN,
                BREAKER_OPEN,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                self.probe_inflight.store(false, Ordering::Relaxed);
            } else if fails >= u64::from(spec.failures.max(1)) {
                // ORDERING: Release — as above.
                self.transition(
                    BREAKER_CLOSED,
                    BREAKER_OPEN,
                    Ordering::Release,
                    Ordering::Relaxed,
                );
            }
        } else {
            self.consecutive_failures.store(0, Ordering::Relaxed);
            // Probe success (or a healthy straggler): close fully.
            // ORDERING: Release orders the failure-streak reset above
            // before the closed word becomes visible.
            if self.transition(
                BREAKER_HALF_OPEN,
                BREAKER_CLOSED,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                self.probe_inflight.store(false, Ordering::Relaxed);
            }
        }
    }
}
