//! Stall detection over live scheduler state.
//!
//! The watchdog runs inside each collection pass and inspects four
//! signals, emitting a structured [`WatchdogDiagnostic`] to
//! subscribers (and bumping a `rustflow_watchdog_*` counter) when one
//! trips:
//!
//! 1. **Stalled worker** — a worker has been inside the *same* task
//!    invocation beyond the configured threshold. Detection keys on the
//!    task's start timestamp, so one stuck invocation is reported once,
//!    however long it lasts; a fresh invocation of the same task can
//!    trip again.
//! 2. **Stalled topology** — a dispatched topology whose progress tuple
//!    (run id, iteration count, live-task count) has not changed for a
//!    full threshold while the executor is otherwise quiescent: no
//!    worker is running anything and every queue (including the
//!    injector) is empty. The quiescence condition is what separates a
//!    lost wakeup or dependency-count bug from a merely slow task —
//!    a long task occupies a worker slot, so signal 1 owns that case.
//! 3. **Ring saturation** — the introspection tracer dropped events
//!    since the previous pass, i.e. the collector is not keeping up
//!    with event production.
//! 4. **SLO burn** — a tenant with a latency objective
//!    ([`crate::SloSpec`]) is consuming its p99 error budget too fast.
//!    SRE-style multi-window burn rate over the tenant's end-to-end
//!    latency histogram: the fraction of runs past the target, divided
//!    by the 1% budget, must exceed the fire threshold over *both* the
//!    long window (`SloSpec::window`) and the fast window (`window/12`)
//!    — a sustained breach fires within the fast window, while a spike
//!    that ended long ago does not page. One report per episode; the
//!    episode re-arms once the fast-window burn drops below 1. The report
//!    is all it does: the watchdog reads the front door and never writes
//!    it (a tenant that wants queued runs dropped sets a deadline).
//!
//! What a lane is running is read from the event stream, not from a slot
//! the worker writes: each pass folds the events it drained into a
//! per-lane table ([`WatchdogPass::fold`]). A `TaskBegin` sets the lane's
//! entry, and an event a lane records only outside a task body clears
//! it. The lossy tracer evicts a full lane's *oldest* event, so the
//! lane's latest begin or end is in every drain that follows it.
//!
//! All state lives in [`WatchdogPass`], which the collector keeps inside
//! the pass mutex — passes are serialized, so detection needs no atomics
//! beyond the public counters. Every diagnostic is raised inside a pass,
//! on the collector thread or the thread serving `/trace` or `/status`; a
//! subscriber that panics is caught there.

use crate::executor::Inner;
use crate::frontdoor::PHASE_E2E;
use crate::label::TaskLabel;
use crate::observer::{SchedEvent, SchedEventKind, Tracer};
use crate::stats::{metric_table, Metric};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Burn-rate multiple of budget-paced consumption at which an episode
/// fires (both windows must reach it).
const SLO_BURN_FIRE: f64 = 2.0;
/// Fast-window burn rate below which a fired episode re-arms.
const SLO_BURN_CLEAR: f64 = 1.0;
/// Minimum runs inside a window before its burn rate is meaningful.
const SLO_MIN_RUNS: u64 = 10;
/// Error budget fraction implied by a p99 target: 1% of runs may breach.
const SLO_BUDGET: f64 = 0.01;

/// A structured stall report emitted by the introspection watchdog.
///
/// Delivered to callbacks registered with
/// [`IntrospectHandle::subscribe_watchdog`](super::IntrospectHandle::subscribe_watchdog);
/// each emission also increments the matching `rustflow_watchdog_*`
/// Prometheus counter on `/metrics`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum WatchdogDiagnostic {
    /// A worker has run the same task invocation beyond the threshold.
    StalledWorker {
        /// Worker index.
        worker: usize,
        /// Label of the task it is stuck in (may be empty).
        label: String,
        /// Opaque id of the stuck task node.
        node: u64,
        /// Uid of the topology the task belongs to.
        topology: u64,
        /// How long the invocation had been running when detected.
        running_for: Duration,
        /// The configured stall threshold, for context.
        threshold: Duration,
    },
    /// A dispatched topology stopped making progress while all workers
    /// and queues were idle — sink tasks are pending but nothing can run
    /// them.
    StalledTopology {
        /// Uid of the non-progressing topology.
        topology: u64,
        /// Run id of the stuck run.
        run: u64,
        /// Iterations completed when progress stopped.
        iteration: u64,
        /// Sink tasks of the stuck iteration still pending (detached
        /// subflows' sinks included): the countdown that ends it.
        alive: usize,
        /// How long the progress tuple had been frozen when detected.
        stalled_for: Duration,
    },
    /// The introspection event rings overflowed since the last pass:
    /// the collector is falling behind event production.
    RingSaturation {
        /// Events lost since the previous collection pass.
        dropped_delta: u64,
        /// Total events lost since introspection started.
        dropped_total: u64,
    },
    /// A tenant with a latency objective ([`crate::SloSpec`]) burned its
    /// p99 error budget faster than the fire threshold over both the
    /// long and the fast burn-rate windows.
    SloBurn {
        /// The burning tenant's name.
        tenant: String,
        /// The objective's target p99, in microseconds.
        target_p99_us: u64,
        /// The objective's long burn-rate window.
        window: Duration,
        /// Runs past the target inside the long window.
        breached: u64,
        /// Total runs inside the long window.
        total: u64,
        /// Long-window burn rate: budget consumed per unit allotted
        /// (1.0 = exactly budget pace; the fire threshold is 2.0).
        burn: f64,
    },
}

impl std::fmt::Display for WatchdogDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchdogDiagnostic::StalledWorker {
                worker,
                label,
                running_for,
                threshold,
                ..
            } => write!(
                f,
                "worker {worker} stalled in task \"{label}\" for {running_for:?} (threshold {threshold:?})"
            ),
            WatchdogDiagnostic::StalledTopology {
                topology,
                iteration,
                alive,
                stalled_for,
                ..
            } => write!(
                f,
                "topology {topology} made no progress for {stalled_for:?} \
                 (iteration {iteration}, {alive} sink tasks pending, all workers idle)"
            ),
            WatchdogDiagnostic::RingSaturation {
                dropped_delta,
                dropped_total,
            } => write!(
                f,
                "introspection rings dropped {dropped_delta} events since last pass ({dropped_total} total)"
            ),
            WatchdogDiagnostic::SloBurn {
                tenant,
                target_p99_us,
                window,
                breached,
                total,
                burn,
            } => write!(
                f,
                "tenant \"{tenant}\" is burning its p99 SLO error budget at {burn:.1}x \
                 ({breached}/{total} runs over {target_p99_us}us in the last {window:?})"
            ),
        }
    }
}

/// Cumulative watchdog trip counts since introspection started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogCounts {
    /// [`WatchdogDiagnostic::StalledWorker`] emissions.
    pub stalled_workers: u64,
    /// [`WatchdogDiagnostic::StalledTopology`] emissions.
    pub stalled_topologies: u64,
    /// [`WatchdogDiagnostic::RingSaturation`] emissions.
    pub ring_saturation: u64,
    /// [`WatchdogDiagnostic::SloBurn`] emissions.
    pub slo_burn: u64,
}

metric_table!(
    /// Every watchdog counter: the key `/status` lists it under (the
    /// field's name), its `/metrics` family, and by [`Tripped`] its slot
    /// in [`Watchdog`].
    WATCHDOG_METRICS: WatchdogCounts, enum Tripped;
    StalledWorker = stalled_workers counter "rustflow_watchdog_stalled_workers_total"
        "Watchdog reports of a worker stuck in one task invocation.";
    StalledTopology = stalled_topologies counter "rustflow_watchdog_stalled_topologies_total"
        "Watchdog reports of a dispatched topology frozen while the executor was idle.";
    RingSaturation = ring_saturation counter "rustflow_watchdog_ring_saturation_total"
        "Watchdog reports of event-ring overflow between collection passes.";
    SloBurn = slo_burn counter "rustflow_slo_breach_total"
        "Watchdog reports of a tenant burning its latency SLO error budget too fast.";
);

type Subscriber = Box<dyn Fn(&WatchdogDiagnostic) + Send + Sync>;

/// Counters plus the subscriber list — shared between the collector
/// (emitting) and scrape/API paths (reading counts).
pub(crate) struct Watchdog {
    counters: [AtomicU64; Tripped::COUNT],
    subscribers: Mutex<Vec<Subscriber>>,
}

impl Watchdog {
    pub(crate) fn new() -> Watchdog {
        Watchdog {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            subscribers: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn subscribe(&self, f: Subscriber) {
        self.subscribers.lock().push(f);
    }

    pub(crate) fn counts(&self) -> WatchdogCounts {
        let words = self
            .counters
            .iter()
            .map(|word| word.load(Ordering::Relaxed));
        Metric::load(WATCHDOG_METRICS, words, WatchdogCounts::default())
    }

    /// Counts `d` and hands it to every subscriber. A subscriber that
    /// panics is caught, as `executor::deliver` catches an observer hook:
    /// it stays subscribed, and neither the pass's thread nor the
    /// subscribers after it pay for the panic.
    fn emit(&self, d: &WatchdogDiagnostic) {
        let counted_as = match d {
            WatchdogDiagnostic::StalledWorker { .. } => Tripped::StalledWorker,
            WatchdogDiagnostic::StalledTopology { .. } => Tripped::StalledTopology,
            WatchdogDiagnostic::RingSaturation { .. } => Tripped::RingSaturation,
            WatchdogDiagnostic::SloBurn { .. } => Tripped::SloBurn,
        };
        self.counters[counted_as as usize].fetch_add(1, Ordering::Relaxed);
        for s in self.subscribers.lock().iter() {
            let _ = catch_unwind(AssertUnwindSafe(|| s(d)));
        }
    }
}

/// Per-topology progress observation carried across passes.
struct TopoObservation {
    run: u64,
    iterations: u64,
    alive: usize,
    /// When this exact progress tuple was first seen (µs).
    frozen_since_us: u64,
    /// Whether the current frozen episode was already reported.
    reported: bool,
}

/// Per-tenant SLO burn-rate bookkeeping carried across passes.
#[derive(Default)]
struct SloTrack {
    /// One `(pass timestamp µs, total runs, breached runs)` cumulative
    /// observation per pass, evicted past the long window (one sample
    /// older than the window is kept as the window-start baseline).
    history: VecDeque<(u64, u64, u64)>,
    /// Whether the current burn episode was already reported.
    firing: bool,
}

/// Cumulative budget consumption over one burn-rate window.
struct WindowBurn {
    /// Burn rate: budget consumed per unit allotted.
    rate: f64,
    /// Runs past the target inside the window.
    breached: u64,
    /// Total runs inside the window.
    total: u64,
}

/// Burn rate over the trailing `win_us`: deltas against the newest
/// observation at least `win_us` old (or the oldest available — a history
/// shorter than the window is all "recent"). `None` until the window
/// holds [`SLO_MIN_RUNS`] runs.
fn burn_over(history: &VecDeque<(u64, u64, u64)>, now_us: u64, win_us: u64) -> Option<WindowBurn> {
    let &(_, total_now, breached_now) = history.back()?;
    let &(_, total_base, breached_base) = history
        .iter()
        .rev()
        .find(|(ts, _, _)| now_us.saturating_sub(*ts) >= win_us)
        .unwrap_or(history.front()?);
    let total = total_now.saturating_sub(total_base);
    if total < SLO_MIN_RUNS {
        return None;
    }
    let breached = breached_now.saturating_sub(breached_base);
    Some(WindowBurn {
        rate: (breached as f64 / total as f64) / SLO_BUDGET,
        breached,
        total,
    })
}

/// What a lane is running, as its latest task event says.
#[derive(Debug, Clone)]
pub(crate) struct RunningTask {
    /// The task's label (cloning is a refcount bump).
    pub(crate) label: TaskLabel,
    /// Opaque node id (stable for the topology's lifetime).
    pub(crate) node: u64,
    /// Uid of the topology the task belongs to.
    pub(crate) topology: u64,
    /// Task entry time, µs since the process clock origin.
    pub(crate) since_us: u64,
}

/// Detection bookkeeping owned by the collection-pass mutex.
pub(crate) struct WatchdogPass {
    /// Per lane (workers, then guest seats): the task it is running, as
    /// of the events drained so far.
    pub(super) running: Vec<Option<RunningTask>>,
    /// Per lane: `since_us` of the last invocation reported as stalled.
    reported_stall: Vec<Option<u64>>,
    topologies: HashMap<u64, TopoObservation>,
    last_dropped: u64,
    /// Per tenant (by name): SLO burn-rate history and episode state.
    slo: HashMap<String, SloTrack>,
}

impl WatchdogPass {
    pub(crate) fn new(num_lanes: usize) -> WatchdogPass {
        WatchdogPass {
            running: vec![None; num_lanes],
            reported_stall: vec![None; num_lanes],
            topologies: HashMap::new(),
            last_dropped: 0,
            slo: HashMap::new(),
        }
    }

    /// Folds drained events, in each lane's recorded order, into the
    /// running-task table. A `TaskBegin` sets the lane's entry; the
    /// events a lane records outside a task body clear it. A retry and a
    /// wake-up can come from inside a body, and the dispatch lane runs no
    /// task, so they leave the table alone.
    pub(crate) fn fold(&mut self, events: &[SchedEvent]) {
        for e in events {
            let Some(entry) = self.running.get_mut(e.worker) else {
                continue;
            };
            match &e.kind {
                SchedEventKind::TaskBegin { span } => {
                    *entry = Some(RunningTask {
                        label: e.label.clone(),
                        node: span.node,
                        topology: span.topology,
                        since_us: e.ts_us,
                    });
                }
                SchedEventKind::TaskEnd { .. }
                | SchedEventKind::TaskSkipped
                | SchedEventKind::CacheHit
                | SchedEventKind::Steal { .. }
                | SchedEventKind::InjectorPop
                | SchedEventKind::StealFail
                | SchedEventKind::Park => *entry = None,
                SchedEventKind::TaskRetried { .. }
                | SchedEventKind::Wake { .. }
                | SchedEventKind::TopologyDispatch { .. }
                | SchedEventKind::TopologyFinalize { .. } => {}
            }
        }
    }
}

/// One watchdog sweep; called from every collection pass with the pass
/// lock held, after the pass folded its drained events. `queues_idle`
/// says every deque and the injector read empty before the drain.
pub(crate) fn check(
    pass: &mut WatchdogPass,
    wd: &Watchdog,
    inner: &Inner,
    tracer: &Tracer,
    queues_idle: bool,
    threshold_us: u64,
    now_us: u64,
) {
    // --- Signal 1: workers stuck in one task invocation. -----------------
    for (w, cur) in pass.running.iter().enumerate() {
        match cur {
            Some(ct) => {
                let running_for = now_us.saturating_sub(ct.since_us);
                if running_for >= threshold_us && pass.reported_stall[w] != Some(ct.since_us) {
                    pass.reported_stall[w] = Some(ct.since_us);
                    wd.emit(&WatchdogDiagnostic::StalledWorker {
                        worker: w,
                        label: ct.label.as_str().to_string(),
                        node: ct.node,
                        topology: ct.topology,
                        running_for: Duration::from_micros(running_for),
                        threshold: Duration::from_micros(threshold_us),
                    });
                }
            }
            None => pass.reported_stall[w] = None,
        }
    }

    // --- Signal 2: dispatched topologies frozen while executor is idle. --
    // Quiescent = no worker mid-task, every deque empty, injector empty.
    // Snapshot the running list and drop its lock before touching any
    // per-topology mutex (lock-order: never hold `running` across them).
    let quiescent = queues_idle && pass.running.iter().all(Option::is_none);
    let running: Vec<_> = inner.running.lock().topologies();
    let mut seen = Vec::with_capacity(running.len());
    for topo in &running {
        let uid = topo.uid();
        seen.push(uid);
        let progress = (topo.run_id(), topo.iterations(), topo.sinks_left());
        let obs = pass.topologies.entry(uid).or_insert(TopoObservation {
            run: progress.0,
            iterations: progress.1,
            alive: progress.2,
            frozen_since_us: now_us,
            reported: false,
        });
        let moved = (obs.run, obs.iterations, obs.alive) != progress;
        // Cancelled runs drain asynchronously (skipped tasks still settle)
        // and settled runs are just awaiting finalize — neither is a stall.
        if moved || !quiescent || topo.is_cancelled() || topo.is_settled() {
            obs.run = progress.0;
            obs.iterations = progress.1;
            obs.alive = progress.2;
            obs.frozen_since_us = now_us;
            obs.reported = false;
            continue;
        }
        let frozen_for = now_us.saturating_sub(obs.frozen_since_us);
        if frozen_for >= threshold_us && !obs.reported && progress.2 > 0 {
            obs.reported = true;
            wd.emit(&WatchdogDiagnostic::StalledTopology {
                topology: uid,
                run: progress.0,
                iteration: progress.1,
                alive: progress.2,
                stalled_for: Duration::from_micros(frozen_for),
            });
        }
    }
    pass.topologies.retain(|uid, _| seen.contains(uid));

    // --- Signal 3: event rings overflowing between passes. ---------------
    let dropped_total = tracer.dropped();
    if dropped_total > pass.last_dropped {
        let delta = dropped_total - pass.last_dropped;
        pass.last_dropped = dropped_total;
        wd.emit(&WatchdogDiagnostic::RingSaturation {
            dropped_delta: delta,
            dropped_total,
        });
    }

    // --- Signal 4: tenants burning their latency SLO error budget. -------
    let latency = inner.tenant_latency();
    for t in &latency {
        let Some(slo) = t.slo else { continue };
        let e2e = &t.phases[PHASE_E2E].1;
        let total = e2e.count();
        // `count_le` quantizes the target up to its bucket's bound (≤25%
        // with the log-linear layout) — a breach is a run in any bucket
        // strictly above the one holding the target.
        let breached = total - e2e.count_le(slo.p99_us);
        let win_us = slo.window.max(Duration::from_secs(1)).as_micros() as u64;
        let track = pass.slo.entry(t.name.clone()).or_default();
        track.history.push_back((now_us, total, breached));
        while track.history.len() > 1 && now_us.saturating_sub(track.history[1].0) >= win_us {
            track.history.pop_front();
        }
        let long = burn_over(&track.history, now_us, win_us);
        let short = burn_over(&track.history, now_us, win_us / 12);
        match (long, short) {
            (Some(l), Some(s))
                if l.rate >= SLO_BURN_FIRE && s.rate >= SLO_BURN_FIRE && !track.firing =>
            {
                track.firing = true;
                wd.emit(&WatchdogDiagnostic::SloBurn {
                    tenant: t.name.clone(),
                    target_p99_us: slo.p99_us,
                    window: slo.window,
                    breached: l.breached,
                    total: l.total,
                    burn: l.rate,
                });
            }
            (_, Some(s)) if s.rate < SLO_BURN_CLEAR => track.firing = false,
            _ => {}
        }
    }
    pass.slo
        .retain(|name, _| latency.iter().any(|t| t.slo.is_some() && t.name == *name));
}
