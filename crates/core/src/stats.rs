//! Per-worker scheduler counters and their Prometheus-style export.
//!
//! Workers maintain relaxed atomic counters for every Algorithm-1 event
//! class (executions, cache hits, steals and their failures, parks,
//! wake-ups, injector pops). [`crate::Executor::stats`] snapshots them
//! into an [`ExecutorStats`], which can be diffed against an earlier
//! snapshot ([`ExecutorStats::delta`]) and rendered in the Prometheus
//! text exposition format ([`ExecutorStats::prometheus_text`]) for
//! scraping or offline analysis.
//!
//! Beyond plain counters, [`Histogram`] provides the exposition format's
//! `_bucket`/`_sum`/`_count` histogram families (cumulative buckets with
//! `le` labels, closed by `+Inf`): the tenant latency families and the
//! causal profiler's ([`crate::profile`]) task-duration and steal-latency
//! distributions, all over one bucket layout. Every line of exposition text is written by
//! [`crate::wire::prom`]; what this module owns is *which* counters exist:
//! [`LANE_METRICS`] and [`TENANT_METRICS`] declare each one once (stats
//! field, Prometheus family, help text, JSON key), and snapshot, delta,
//! total, `/metrics` and `/status` all walk those tables.
//!
//! [`AtomicHistogram`] is the one recording side, lock-free for the
//! online latency pipeline: log-linear (HDR-style) buckets updated with two
//! relaxed `fetch_add`s per observation, snapshotted into a [`Histogram`]
//! only at scrape time. [`Histogram::percentile`] interpolates quantiles
//! out of bucketed counts, and the free [`percentile`] function is the
//! exact-sample sibling shared with `tf-bench`'s client-side latency
//! reports.

use crate::sync::AtomicU64;
use crate::wire::prom;
use std::sync::atomic::Ordering;

/// One row of a counter table: a `u64` field of the stats struct `S`,
/// declared once for everything that reads, diffs or renders it.
pub(crate) struct Metric<S> {
    /// Prometheus family name.
    pub(crate) name: &'static str,
    /// Prometheus help text.
    pub(crate) help: &'static str,
    /// Prometheus type: `"counter"` (diffed by `delta`) or `"gauge"`
    /// (passed through).
    pub(crate) kind: &'static str,
    /// Key in `/status`: the field's own name.
    pub(crate) key: &'static str,
    pub(crate) get: fn(&S) -> u64,
    pub(crate) slot: fn(&mut S) -> &mut u64,
}

impl<S: Clone> Metric<S> {
    /// `later - earlier` for every counter of `table`, saturating at
    /// zero; gauges and everything outside the table pass through from
    /// `later`.
    fn delta(table: &[Metric<S>], later: &S, earlier: &S) -> S {
        let mut out = later.clone();
        for m in table.iter().filter(|m| m.kind == "counter") {
            *(m.slot)(&mut out) = (m.get)(later).saturating_sub((m.get)(earlier));
        }
        out
    }

    /// Stores `words` into the fields of `stats` that the leading rows of
    /// `table` name, word `i` into row `i`'s.
    pub(crate) fn load(
        table: &[Metric<S>],
        words: impl IntoIterator<Item = u64>,
        mut stats: S,
    ) -> S {
        for (m, word) in table.iter().zip(words) {
            *(m.slot)(&mut stats) = word;
        }
        stats
    }
}

/// Declares `TABLE: &[Metric<Stats>]` from `field kind "family" "help";`
/// rows. With `enum Index`, the rows that lead with `Variant =` also make
/// up that enum, numbered by row (they come first, `_ =` rows after), so a
/// slot array indexed by it cannot drift from the table.
macro_rules! metric_table {
    ($(#[$doc:meta])* $table:ident: $stats:ty;
     $($field:ident $kind:ident $name:literal $help:literal;)*) => {
        $(#[$doc])*
        pub(crate) const $table: &[Metric<$stats>] = &[$(Metric::<$stats> {
            name: $name,
            help: $help,
            kind: stringify!($kind),
            key: stringify!($field),
            get: |s| s.$field,
            slot: |s| &mut s.$field,
        }),*];
    };
    ($(#[$doc:meta])* $table:ident: $stats:ty, enum $index:ident;
     $($variant:ident = $field:ident $kind:ident $name:literal $help:literal;)*
     $(_ = $rest:ident $rest_kind:ident $rest_name:literal $rest_help:literal;)*) => {
        metric_table!($(#[$doc])* $table: $stats;
            $($field $kind $name $help;)* $($rest $rest_kind $rest_name $rest_help;)*);
        /// The slot of each live counter: its row in the table.
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum $index { $($variant),* }
        impl $index {
            /// Variants, i.e. slots.
            pub(crate) const COUNT: usize = [$(stringify!($variant)),*].len();
        }
    };
}
pub(crate) use metric_table;

/// Snapshot of one lane's diagnostic counters: a worker thread's, or a
/// guest seat's (the threads that executed tasks while waiting in
/// [`Taskflow::wait_for_all`](crate::Taskflow::wait_for_all)).
///
/// All counters are maintained with relaxed atomics on the lane's own
/// cache line; they are advisory (monotonic, but a snapshot is not an
/// atomic cut across lanes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// `true` for a guest seat's lane, `false` for a worker thread's. A
    /// guest never parks, so its `parks` stays 0.
    pub guest: bool,
    /// Tasks this worker executed.
    pub executed: u64,
    /// Tasks pulled from the exclusive cache slot (linear-chain steps
    /// that touched no queue).
    pub cache_hits: u64,
    /// Successful steals this worker performed.
    pub steals: u64,
    /// Individual steal attempts (one per victim probe).
    pub steal_attempts: u64,
    /// Steal rounds that found nothing anywhere (victims + injector).
    pub steal_fails: u64,
    /// Tasks taken from the external injector queue.
    pub injector_pops: u64,
    /// Times this worker entered the idle path.
    pub parks: u64,
    /// Wake-ups this lane issued for a task it pushed.
    pub wakes_sent: u64,
    /// Tasks popped ready but skipped because their topology was
    /// cancelled (no closure ran, no span was emitted).
    pub skipped: u64,
    /// Extra attempts executed under a [`Task::retry`](crate::Task::retry)
    /// budget (one per re-execution, not counting the first attempt).
    pub retries: u64,
    /// Telemetry events lost because this worker's event ring wrapped
    /// between collections (0 unless live introspection installed its
    /// tracer — see [`Executor::serve_introspection`]). Overflow used to
    /// be visible only as a crate-wide sum; per-worker accounting is what
    /// lets a scrape localize a saturating lane.
    ///
    /// [`Executor::serve_introspection`]: crate::Executor::serve_introspection
    pub ring_dropped: u64,
}

impl WorkerStats {
    /// Counter-wise `self - earlier`, saturating at zero.
    pub fn delta(&self, earlier: &WorkerStats) -> WorkerStats {
        Metric::delta(LANE_METRICS, self, earlier)
    }
}

metric_table!(
    /// Every lane counter. [`Counter`] indexes `WorkerShared`'s array of
    /// atomics; `ring_dropped` has no slot there (the tracer counts it).
    LANE_METRICS: WorkerStats, enum Counter;
    Executed = executed counter "rustflow_tasks_executed_total" "Tasks executed, per worker.";
    CacheHits = cache_hits counter "rustflow_cache_hits_total"
        "Tasks pulled from the exclusive per-worker cache slot.";
    Steals = steals counter "rustflow_steals_total" "Successful steals, per thief.";
    StealAttempts = steal_attempts counter "rustflow_steal_attempts_total"
        "Individual steal probes, per thief.";
    StealFails = steal_fails counter "rustflow_steal_failures_total"
        "Steal rounds that found no work anywhere.";
    InjectorPops = injector_pops counter "rustflow_injector_pops_total"
        "Tasks taken from the external injector queue.";
    Parks = parks counter "rustflow_parks_total" "Times a worker parked on the idler list.";
    WakesSent = wakes_sent counter "rustflow_wakes_sent_total"
        "Wake-ups issued for a pushed task.";
    Skipped = skipped counter "rustflow_tasks_skipped_total"
        "Ready tasks skipped because their topology was cancelled.";
    Retries = retries counter "rustflow_task_retries_total"
        "Extra task attempts executed under a retry budget.";
    _ = ring_dropped counter "rustflow_ring_dropped_events_total"
        "Telemetry events lost to per-worker ring overflow.";
);

/// Snapshot of one tenant's submission-path counters
/// ([`crate::Executor::tenant`]).
///
/// Counters are relaxed atomics like [`WorkerStats`]: monotonic but not
/// an atomic cut. `queued` and `in_flight` are gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name, as passed to [`crate::Executor::tenant`].
    pub name: String,
    /// Weighted-fair-queueing weight ([`crate::TenantQos::weight`]).
    pub weight: u32,
    /// Submissions waiting in the tenant queue right now (gauge).
    pub queued: u64,
    /// Runs popped from the tenant queue whose fate is not final yet
    /// (gauge): a dispatched run until its stint finalizes, any other for
    /// the instant before its outcome is counted.
    pub in_flight: u64,
    /// Admission attempts, accepted or not. Every one ends in exactly one
    /// outcome, so `submitted == dispatched + coalesced + shed +
    /// rejected_*` whenever `queued` and `in_flight` are both zero.
    pub submitted: u64,
    /// Submissions that claimed their topology's driver role: one stint
    /// each, so `completed` catches up with it at quiescence. A popped run
    /// that found its topology already running counts as `coalesced`
    /// instead, never as both.
    pub dispatched: u64,
    /// Submissions that joined an already-running topology's batch queue
    /// instead of claiming a driver role of their own; they resolve with
    /// that stint and have no completion of their own.
    pub coalesced: u64,
    /// Driver-claimed dispatches that ran to finalization.
    pub completed: u64,
    /// `try_submit` rejections because the tenant queue was full.
    pub rejected_saturated: u64,
    /// Submissions rejected (or drained unrun) by executor shutdown.
    pub rejected_shutdown: u64,
    /// Submissions cheap-rejected because the expected queue wait
    /// already exceeded their deadline
    /// ([`AdmissionError::DeadlineInfeasible`](crate::AdmissionError)).
    pub rejected_infeasible: u64,
    /// Submissions fast-rejected by an open circuit breaker
    /// ([`AdmissionError::BreakerOpen`](crate::AdmissionError)).
    pub rejected_breaker: u64,
    /// Queued runs the dispatcher dropped because their deadline expired
    /// in the queue ([`RunError::Shed`](crate::RunError)).
    pub shed: u64,
    /// Retries refused by the tenant's retry budget (the task failed
    /// instead of retrying).
    pub retry_budget_exhausted: u64,
    /// Consecutive failed runs right now (gauge; resets on any
    /// non-failed completion).
    pub consecutive_failures: u64,
    /// Circuit-breaker state (gauge): 0 = closed, 1 = open,
    /// 2 = half-open ([`crate::BreakerState`]).
    pub breaker_state: u64,
}

impl TenantStats {
    /// Counter-wise `self - earlier`, saturating at zero; gauges pass
    /// through from `self`.
    pub fn delta(&self, earlier: &TenantStats) -> TenantStats {
        Metric::delta(TENANT_METRICS, self, earlier)
    }
}

metric_table!(
    /// Every tenant counter and gauge with a Prometheus family, in
    /// `/metrics` order. `/status` lists the gauges first, then the
    /// counters, under the same keys; `breaker_state` goes there as a
    /// name, beside `consecutive_failures`.
    TENANT_METRICS: TenantStats;
    submitted counter "rustflow_tenant_submissions_total"
        "Admission attempts through the tenant, accepted or not.";
    dispatched counter "rustflow_tenant_dispatches_total"
        "Submissions that claimed a topology's driver role (one stint each).";
    coalesced counter "rustflow_tenant_coalesced_total"
        "Submissions that joined an already-running topology's stint.";
    completed counter "rustflow_tenant_completions_total"
        "Driver-claimed dispatches that ran to finalization.";
    rejected_saturated counter "rustflow_tenant_rejected_saturated_total"
        "try_submit rejections due to a full tenant queue.";
    rejected_shutdown counter "rustflow_tenant_rejected_shutdown_total"
        "Submissions rejected or drained by executor shutdown.";
    rejected_infeasible counter "rustflow_tenant_rejected_infeasible_total"
        "Submissions cheap-rejected because the expected queue wait exceeded their deadline.";
    rejected_breaker counter "rustflow_tenant_rejected_breaker_total"
        "Submissions fast-rejected by an open circuit breaker.";
    shed counter "rustflow_runs_shed_total"
        "Queued runs dropped by the dispatcher because their deadline expired.";
    retry_budget_exhausted counter "rustflow_retry_budget_exhausted_total"
        "Retries refused by the tenant retry budget (task failed instead of retrying).";
    breaker_state gauge "rustflow_breaker_state"
        "Circuit-breaker state: 0 closed, 1 open, 2 half-open.";
    queued gauge "rustflow_tenant_queued" "Submissions waiting in the tenant queue.";
    in_flight gauge "rustflow_tenant_in_flight"
        "Tenant topologies dispatched and not yet finalized.";
);

/// The label pair of one lane's sample: its id, and whether it is a worker
/// thread's or a guest seat's (`worker="2",lane="guest"`).
pub(crate) fn lane_labels(id: usize, guest: bool) -> String {
    let lane = if guest { "guest" } else { "worker" };
    prom::labels(&[("worker", &id.to_string()), ("lane", lane)])
}

/// A point-in-time snapshot of every lane's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// One entry per lane, indexed by lane id: the worker threads, then
    /// the guest seats ([`WorkerStats::guest`]).
    pub workers: Vec<WorkerStats>,
    /// One entry per tenant, in tenant creation order; empty when the
    /// executor's multi-tenant front door is unused.
    pub tenants: Vec<TenantStats>,
}

impl ExecutorStats {
    /// Sum of all lanes' counters, guests' included: `total().executed`
    /// is every task the executor ran, on whichever thread.
    pub fn total(&self) -> WorkerStats {
        let mut total = WorkerStats::default();
        for m in LANE_METRICS {
            *(m.slot)(&mut total) = self.workers.iter().map(m.get).sum();
        }
        total
    }

    /// Worker-wise difference against an `earlier` snapshot of the same
    /// executor — the activity that happened in between (e.g. during one
    /// benchmark run). Saturates at zero per counter.
    pub fn delta(&self, earlier: &ExecutorStats) -> ExecutorStats {
        // A lane or tenant `earlier` lacks is diffed against all zeros.
        let (no_lane, no_tenant) = (WorkerStats::default(), TenantStats::default());
        let workers = self.workers.iter().enumerate();
        let tenant_before = |t: &TenantStats| earlier.tenants.iter().find(|e| e.name == t.name);
        ExecutorStats {
            workers: workers
                .map(|(i, w)| w.delta(earlier.workers.get(i).unwrap_or(&no_lane)))
                .collect(),
            tenants: self
                .tenants
                .iter()
                .map(|t| t.delta(tenant_before(t).unwrap_or(&no_tenant)))
                .collect(),
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one counter family per metric under its help and type header, with
    /// one `{worker="N",lane="worker"|"guest"}`-labelled sample per lane.
    ///
    /// ```
    /// let ex = rustflow::Executor::new(2);
    /// let text = ex.stats().prometheus_text();
    /// let parsed = rustflow::wire::prom::parse(&text).unwrap();
    /// assert_eq!(parsed.family("rustflow_tasks_executed_total").unwrap().kind, "counter");
    /// assert!(text.contains("rustflow_tasks_executed_total{worker=\"0\",lane=\"worker\"}"));
    /// assert!(text.contains("rustflow_tasks_executed_total{worker=\"2\",lane=\"guest\"}"));
    /// ```
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(LANE_METRICS.len() * (96 + self.workers.len() * 48));
        let lanes = self.workers.iter().enumerate();
        let labels: Vec<String> = lanes.map(|(id, w)| lane_labels(id, w.guest)).collect();
        for m in LANE_METRICS {
            prom::header(&mut out, m.name, m.help, m.kind);
            for (w, labels) in self.workers.iter().zip(&labels) {
                prom::sample(&mut out, m.name, labels, (m.get)(w));
            }
        }
        // Tenant families render only when the multi-tenant front door is
        // in use; a tenant-less executor's exposition is unchanged.
        if !self.tenants.is_empty() {
            for m in TENANT_METRICS {
                prom::header(&mut out, m.name, m.help, m.kind);
                for t in &self.tenants {
                    let labels = prom::labels(&[("tenant", &t.name)]);
                    prom::sample(&mut out, m.name, &labels, (m.get)(t));
                }
            }
        }
        out
    }
}

/// An owned histogram snapshot rendered as a Prometheus histogram family:
/// cumulative `_bucket` samples with `le` labels (closed by `le="+Inf"`),
/// plus `_sum` and `_count`. Nothing records into one: observations go
/// through an [`AtomicHistogram`], whose [`snapshot`](AtomicHistogram::snapshot)
/// is this type over the one log-linear layout, and a scrape is rebuilt
/// with [`from_parts`](Histogram::from_parts).
///
/// ```
/// let recorder = rustflow::AtomicHistogram::new();
/// recorder.record(3);
/// recorder.record(40);
/// let text = recorder
///     .snapshot()
///     .prometheus_text("rustflow_task_duration_us", "Task durations.");
/// assert!(text.contains("rustflow_task_duration_us_bucket{le=\"+Inf\"} 2"));
/// assert!(text.contains("rustflow_task_duration_us_sum 43"));
/// assert!(text.contains("rustflow_task_duration_us_count 2"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; one extra slot for `+Inf`.
    counts: Vec<u64>,
    sum: u64,
}

impl Histogram {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket bounds (exclusive of the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from its exposition parts: inclusive upper
    /// `bounds` (strictly increasing) and per-bucket **non-cumulative**
    /// `counts` with one extra slot for `+Inf`. This is the inverse of
    /// what [`render_into`](Histogram::render_into) emits (after
    /// de-cumulating the `_bucket` samples) — `tf-bench serving` uses it
    /// to reconstruct server-side distributions from a `/metrics` scrape.
    ///
    /// Returns `None` when `counts.len() != bounds.len() + 1` or the
    /// bounds are not strictly increasing.
    pub fn from_parts(bounds: Vec<u64>, counts: Vec<u64>, sum: u64) -> Option<Histogram> {
        if counts.len() != bounds.len() + 1 || bounds.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(Histogram {
            bounds,
            counts,
            sum,
        })
    }

    /// Interpolated quantile `q` (in `[0, 1]`) from the bucketed counts.
    ///
    /// Finds the bucket holding the `q`-th observation and interpolates
    /// linearly inside its `(previous bound, bound]` range, so the error
    /// is at most one bucket width. Observations in the `+Inf` overflow
    /// bucket are clamped to the last finite bound. Returns 0.0 for an
    /// empty histogram.
    ///
    /// ```
    /// // 4 and 8 in (0, 10], 12 and 16 in (10, 20], 35 in (20, 40].
    /// let h = rustflow::Histogram::from_parts(vec![10, 20, 40], vec![2, 2, 1, 0], 75).unwrap();
    /// let p50 = h.percentile(0.5);
    /// assert!(p50 > 10.0 && p50 <= 20.0, "p50 = {p50}");
    /// ```
    pub fn percentile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += count;
            if (cumulative as f64) < target {
                continue;
            }
            if i >= self.bounds.len() {
                // +Inf bucket: clamp to the last finite bound.
                return self.bounds.last().copied().unwrap_or(0) as f64;
            }
            let upper = self.bounds[i] as f64;
            let lower = if i == 0 {
                0.0
            } else {
                self.bounds[i - 1] as f64
            };
            let frac = (target - before as f64) / count as f64;
            return lower + (upper - lower) * frac;
        }
        self.bounds.last().copied().unwrap_or(0) as f64
    }

    /// Observations recorded at or below `value`, quantized up to the
    /// inclusive bound of the bucket containing `value` (i.e. counts the
    /// whole bucket `value` falls in). Used by the SLO burn-rate check,
    /// where the ≤25% bucket-width quantization of the log-linear layout
    /// is an acceptable threshold error.
    pub fn count_le(&self, value: u64) -> u64 {
        let idx = self
            .bounds
            .partition_point(|&b| b < value)
            .min(self.bounds.len());
        self.counts[..=idx].iter().sum()
    }

    /// Renders the histogram family (help and type header, cumulative
    /// `_bucket` samples, `_sum`, `_count`) into `out`.
    pub fn render_into(&self, out: &mut String, name: &str, help: &str) {
        prom::header(out, name, help, "histogram");
        self.render_labelled_into(out, name, "");
    }

    /// Renders only the samples (`_bucket`/`_sum`/`_count`) with `labels`
    /// (e.g. `tenant="a",phase="e2e"`, already escaped) prefixed to the
    /// `le` label, so one help and type header can cover many
    /// labelled series of the same family. Pass `""` for no extra labels.
    pub fn render_labelled_into(&self, out: &mut String, name: &str, labels: &str) {
        prom::histogram(out, name, labels, &self.bounds, &self.counts, self.sum);
    }

    /// The histogram family as a standalone exposition string.
    pub fn prometheus_text(&self, name: &str, help: &str) -> String {
        let mut out = String::new();
        self.render_into(&mut out, name, help);
        out
    }
}

/// Interpolated quantile `q` (in `[0, 1]`) over `sorted` exact samples
/// (ascending). Uses the standard linear rank interpolation
/// (`rank = q·(n−1)`), matching what `/status` reports from bucketed
/// data — this is the shared implementation `tf-bench serving` uses for
/// its client-side latency samples. Returns 0.0 for an empty slice.
///
/// ```
/// let samples = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(rustflow::percentile(&samples, 0.0), 1.0);
/// assert_eq!(rustflow::percentile(&samples, 0.5), 2.5);
/// assert_eq!(rustflow::percentile(&samples, 1.0), 4.0);
/// ```
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Linear subdivisions per octave in the log-linear bucket layout, as a
/// power of two: 2² = 4 sub-buckets per doubling.
const LOG_LINEAR_SUB_BITS: u32 = 2;
/// Linear sub-buckets per octave.
const LOG_LINEAR_SUB: u64 = 1 << LOG_LINEAR_SUB_BITS;
/// Largest octave shift with finite buckets. The top finite bound is
/// `(2·SUB << MAX_SHIFT) − 1` = 134 217 727 µs ≈ 134 s; anything above
/// lands in the `+Inf` overflow bucket.
const LOG_LINEAR_MAX_SHIFT: u64 = 24;
/// Finite bucket count: `2·SUB` unit-width buckets for values below
/// `2·SUB`, then `SUB` buckets per octave for shifts `1..=MAX_SHIFT`.
const LOG_LINEAR_FINITE: usize =
    (2 * LOG_LINEAR_SUB + LOG_LINEAR_MAX_SHIFT * LOG_LINEAR_SUB) as usize;

/// A lock-free log-linear (HDR-style) histogram: the recording side of
/// the executor's online latency pipeline.
///
/// [`record`](AtomicHistogram::record) is two relaxed `fetch_add`s — no
/// locks, no allocation — so tenant latency shards can sit on the hot
/// run-finalization path. Buckets cover `0 µs ..= ~134 s` with at most
/// 25% relative width (4 linear sub-buckets per power-of-two octave,
/// 104 finite buckets + `+Inf` overflow, ~0.8 KiB per shard); values
/// past the top finite bound count toward `+Inf`.
///
/// [`snapshot`](AtomicHistogram::snapshot) folds the shard into a plain
/// [`Histogram`] for rendering and quantile interpolation. Snapshots are
/// advisory: concurrent recording can tear `_sum` against the bucket
/// counts, but each snapshot's buckets are internally consistent enough
/// for monotone cumulative rendering.
///
/// ```
/// let h = rustflow::AtomicHistogram::new();
/// h.record(7);
/// h.record(1_000);
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 2);
/// assert_eq!(snap.sum(), 1_007);
/// ```
pub struct AtomicHistogram {
    /// `LOG_LINEAR_FINITE` finite buckets plus the `+Inf` overflow slot.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl AtomicHistogram {
    /// A zeroed histogram with the crate-wide log-linear layout.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..=LOG_LINEAR_FINITE).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// The shared log-linear bucket bounds (inclusive upper bounds, the
    /// `+Inf` overflow bucket implicit), exposed so scrape consumers can
    /// reconstruct distributions with [`Histogram::from_parts`].
    pub fn bounds_us() -> Vec<u64> {
        let mut bounds = Vec::with_capacity(LOG_LINEAR_FINITE);
        // Unit-width buckets: le="0" .. le="7".
        for v in 0..2 * LOG_LINEAR_SUB {
            bounds.push(v);
        }
        // SUB buckets per octave, each `2^shift` wide.
        for shift in 1..=LOG_LINEAR_MAX_SHIFT {
            for sub in 0..LOG_LINEAR_SUB {
                bounds.push(((LOG_LINEAR_SUB + sub + 1) << shift) - 1);
            }
        }
        debug_assert_eq!(bounds.len(), LOG_LINEAR_FINITE);
        bounds
    }

    /// Bucket index for `value`: direct for small values, otherwise the
    /// top `1 + SUB_BITS` significant bits select (octave, sub-bucket).
    fn bucket_index(value: u64) -> usize {
        if value < 2 * LOG_LINEAR_SUB {
            return value as usize;
        }
        let msb = 63 - u64::leading_zeros(value) as u64;
        let shift = msb - LOG_LINEAR_SUB_BITS as u64;
        if shift > LOG_LINEAR_MAX_SHIFT {
            return LOG_LINEAR_FINITE; // +Inf overflow bucket
        }
        let sub = (value >> shift) - LOG_LINEAR_SUB;
        ((shift + 1) * LOG_LINEAR_SUB + sub) as usize
    }

    /// Records one observation: two relaxed `fetch_add`s.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Folds the shard into a plain [`Histogram`] (relaxed loads; see the
    /// type docs for the tearing caveat).
    pub fn snapshot(&self) -> Histogram {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let sum = self.sum.load(Ordering::Relaxed);
        Histogram::from_parts(Self::bounds_us(), counts, sum)
            .expect("layout invariant: FINITE+1 counts over strictly increasing bounds")
    }
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("AtomicHistogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(executed: u64, steals: u64) -> WorkerStats {
        WorkerStats {
            executed,
            steals,
            ..WorkerStats::default()
        }
    }

    #[test]
    fn total_sums_workers() {
        let s = ExecutorStats {
            workers: vec![stats(3, 1), stats(4, 2)],
            tenants: vec![],
        };
        let t = s.total();
        assert_eq!(t.executed, 7);
        assert_eq!(t.steals, 3);
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let early = ExecutorStats {
            workers: vec![stats(3, 5)],
            tenants: vec![],
        };
        let late = ExecutorStats {
            workers: vec![stats(10, 5), stats(2, 0)],
            tenants: vec![],
        };
        let d = late.delta(&early);
        assert_eq!(d.workers[0].executed, 7);
        assert_eq!(d.workers[0].steals, 0);
        // Worker appearing only in the later snapshot passes through.
        assert_eq!(d.workers[1].executed, 2);
        // Saturation instead of underflow.
        assert_eq!(early.delta(&late).workers[0].executed, 0);
    }

    #[test]
    fn prometheus_text_is_valid_exposition_format() {
        let guest = WorkerStats {
            guest: true,
            ..stats(5, 0)
        };
        let s = ExecutorStats {
            workers: vec![stats(3, 1), stats(4, 2), guest],
            tenants: vec![],
        };
        let text = s.prometheus_text();
        let parsed = prom::parse(&text).expect("strict parse");
        let mut samples = 0;
        for family in &parsed.families {
            assert!(family.name.starts_with("rustflow_") && family.name.ends_with("_total"));
            assert_eq!(family.kind, "counter", "all lane metrics are counters");
            assert!(!family.help.is_empty());
            for (lane, sample) in family.samples.iter().enumerate() {
                assert_eq!(sample.label("worker"), Some(lane.to_string().as_str()));
                assert_eq!(sample.value.fract(), 0.0, "integer sample value");
                samples += 1;
            }
        }
        // 11 metrics × 3 lanes.
        assert_eq!(samples, 33);
        assert!(text.contains("rustflow_tasks_executed_total{worker=\"0\",lane=\"worker\"} 3"));
        assert!(text.contains("rustflow_steals_total{worker=\"1\",lane=\"worker\"} 2"));
        assert!(text.contains("rustflow_tasks_executed_total{worker=\"2\",lane=\"guest\"} 5"));
    }

    #[test]
    fn tenant_families_render_with_escaped_labels() {
        let s = ExecutorStats {
            workers: vec![stats(1, 0)],
            tenants: vec![TenantStats {
                name: "ana\"lytics".into(),
                weight: 4,
                queued: 2,
                in_flight: 1,
                submitted: 10,
                dispatched: 8,
                coalesced: 1,
                completed: 7,
                rejected_saturated: 3,
                rejected_shutdown: 0,
                rejected_infeasible: 2,
                rejected_breaker: 1,
                shed: 4,
                retry_budget_exhausted: 5,
                consecutive_failures: 0,
                breaker_state: 1,
            }],
        };
        let text = s.prometheus_text();
        let parsed = prom::parse(&text).expect("strict parse");
        let kind = |family: &str| parsed.family(family).map(|f| f.kind.as_str());
        assert_eq!(kind("rustflow_tenant_submissions_total"), Some("counter"));
        assert_eq!(kind("rustflow_tenant_queued"), Some("gauge"));
        assert!(text.contains("rustflow_tenant_submissions_total{tenant=\"ana\\\"lytics\"} 10"));
        assert!(text.contains("rustflow_tenant_in_flight{tenant=\"ana\\\"lytics\"} 1"));
        // Counter-wise delta: counters subtract, gauges pass through.
        let d = s.delta(&s);
        assert_eq!(d.tenants[0].submitted, 0);
        assert_eq!(d.tenants[0].queued, 2);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_closed_by_inf() {
        // 1, 10, 11, 100 and 5000 under inclusive bounds: 10 lands in
        // le="10", 100 in le="100".
        let h = Histogram::from_parts(vec![10, 100, 1000], vec![2, 2, 0, 1], 5122).unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5122);
        let text = h.prometheus_text("x_us", "help");
        assert_eq!(prom::parse(&text).unwrap().families[0].kind, "histogram");
        assert!(text.contains("x_us_bucket{le=\"10\"} 2"));
        assert!(text.contains("x_us_bucket{le=\"100\"} 4"));
        assert!(text.contains("x_us_bucket{le=\"1000\"} 4"));
        assert!(text.contains("x_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("x_us_sum 5122"));
        assert!(text.contains("x_us_count 5"));
        // +Inf closes the family: its cumulative count equals _count.
        let inf: u64 = 5;
        assert_eq!(h.count(), inf);
    }

    #[test]
    fn sample_percentile_interpolates() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 0.9), 46.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        // Out-of-range q clamps.
        assert_eq!(percentile(&v, 1.5), 50.0);
    }

    #[test]
    fn histogram_percentile_brackets_the_true_quantile() {
        let recorder = AtomicHistogram::new();
        (1..=1000u64).for_each(|v| recorder.record(v));
        let h = recorder.snapshot();
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = h.percentile(q);
            // Log-linear layout: at most one bucket width (≤25%) off.
            assert!(
                (est - exact).abs() <= exact * 0.25 + 1.0,
                "p{q}: est {est} vs exact {exact}"
            );
        }
        // Empty histogram reports 0.
        assert_eq!(AtomicHistogram::new().snapshot().percentile(0.99), 0.0);
    }

    #[test]
    fn histogram_count_le_quantizes_to_bucket_bound() {
        let h = Histogram::from_parts(vec![10, 100, 1000], vec![2, 2, 0, 1], 5122).unwrap();
        assert_eq!(h.count_le(10), 2);
        // 50 falls in the (10, 100] bucket: the whole bucket counts.
        assert_eq!(h.count_le(50), 4);
        assert_eq!(h.count_le(1000), 4);
        // Above the top finite bound: everything, including +Inf.
        assert_eq!(h.count_le(u64::MAX), 5);
    }

    #[test]
    fn from_parts_validates_shape() {
        assert!(Histogram::from_parts(vec![1, 2], vec![0, 0, 0], 0).is_some());
        assert!(Histogram::from_parts(vec![1, 2], vec![0, 0], 0).is_none());
        assert!(Histogram::from_parts(vec![2, 1], vec![0, 0, 0], 0).is_none());
        let h = Histogram::from_parts(vec![10, 100], vec![1, 2, 3], 500).unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 500);
        assert_eq!(h.bucket_counts(), &[1, 2, 3]);
    }

    #[test]
    fn atomic_histogram_layout_is_consistent() {
        let bounds = AtomicHistogram::bounds_us();
        // 8 unit buckets then 4 per octave, strictly increasing.
        assert_eq!(bounds.len(), LOG_LINEAR_FINITE);
        assert_eq!(&bounds[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 9, 11]);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            *bounds.last().unwrap(),
            ((2 * LOG_LINEAR_SUB) << LOG_LINEAR_MAX_SHIFT) - 1
        );
        // bucket_index agrees with partition_point over the bounds for
        // values around every bucket edge (inclusive-upper convention).
        for &b in &bounds {
            for v in [b.saturating_sub(1), b, b + 1] {
                let expect = bounds.partition_point(|&x| x < v).min(bounds.len());
                assert_eq!(
                    AtomicHistogram::bucket_index(v),
                    expect,
                    "value {v} (edge {b})"
                );
            }
        }
        assert_eq!(AtomicHistogram::bucket_index(u64::MAX), LOG_LINEAR_FINITE);
        // Bucket resolution: 1 µs absolute in the unit region, ≤ 25%
        // relative everywhere above it.
        for w in bounds.windows(2) {
            let width = (w[1] - w[0]) as f64;
            assert!(
                width <= 1.0 || width / w[1] as f64 <= 0.25 + 1e-9,
                "bucket {w:?}"
            );
        }
    }

    #[test]
    fn atomic_histogram_records_and_snapshots() {
        let h = AtomicHistogram::new();
        for v in [0, 1, 7, 8, 9, 100, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8);
        // u64::MAX lands in +Inf.
        assert_eq!(*snap.bucket_counts().last().unwrap(), 1);
        assert_eq!(snap.count_le(7), 3);
        // Labelled rendering: cumulative buckets, +Inf closes the family.
        let mut out = String::new();
        snap.render_labelled_into(&mut out, "x_us", "tenant=\"t\",phase=\"e2e\"");
        assert!(out.contains("x_us_bucket{tenant=\"t\",phase=\"e2e\",le=\"+Inf\"} 8"));
        assert!(out.contains("x_us_count{tenant=\"t\",phase=\"e2e\"} 8"));
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must be monotone: {line}");
            last = v;
        }
    }
}
