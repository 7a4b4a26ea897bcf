//! Scheduler telemetry: lifecycle observers, event records, and trace
//! export (§III-G of the paper, extended to the full Algorithm-1
//! lifecycle).
//!
//! Cpp-Taskflow exposes an `ExecutorObserverInterface` so tools can watch
//! the scheduler without touching it. This module widens that idea from
//! task entry/exit to every scheduling decision Algorithm 1 makes — cache
//! hits, steals, parks, wake-ups, topology dispatch — and records them
//! without any lock shared between workers: the [`Tracer`] gives each
//! worker its own fixed-capacity [`Ring`](crate::ring) and drains them
//! off the hot path.

use crate::label::TaskLabel;
use crate::ring::Ring;
use crate::sync::{AtomicU64, AtomicUsize, Mutex};
use crate::wire::json::Writer;
use std::fmt::Display;
use std::sync::atomic::Ordering;

/// Pseudo lane id used for events recorded off every lane (topology
/// dispatch runs on the caller's thread).
///
/// Real lane ids are `0..`[`Executor::num_lanes`](crate::Executor::num_lanes):
/// the worker threads first, then the guest seats, on which a thread waiting
/// in [`Taskflow::wait_for_all`](crate::Taskflow::wait_for_all) executes
/// tasks. Every `worker` argument of the hooks below is such an id.
pub const DISPATCH_LANE: usize = usize::MAX;

/// Version of the ring event schema ([`SchedEventKind`] and its payloads).
///
/// * **v1** — task entry/exit events carried only the worker id and label.
/// * **v2** — task begin/end events carry the node id, spawning parent,
///   and per-iteration run id ([`TaskSpanInfo`]); topology dispatch and
///   finalize events carry the stable topology uid and iteration index
///   ([`IterationInfo`]). This is what lets [`crate::profile`] stitch the
///   per-worker rings back into the executed DAG schedule.
/// * **v3** — adds the fault-tolerance lifecycle:
///   [`SchedEventKind::TaskSkipped`] (a node handed to a worker after its
///   topology was cancelled; its work never ran) and
///   [`SchedEventKind::TaskRetried`] (a panicked attempt re-armed and
///   re-executed under [`crate::Task::retry`], with the 1-based attempt
///   index).
/// * **v4** — dispatch/finalize events carry the tenant id of the
///   multi-tenant front door ([`IterationInfo::tenant`]; `0` =
///   untenanted), giving traces per-tenant lanes.
/// * **v5** — dispatch/finalize events carry the submit timestamp of the
///   tenant stint driving the topology ([`IterationInfo::submit_us`];
///   `0` = untenanted), anchoring each
///   stint's lifecycle decomposition in the trace's time domain.
/// * **v6** — [`SchedEventKind::Wake`] loses its `targeted` flag: every
///   wake-up is a push-side one since the post-chain coin went.
/// * **v7** — [`TaskSpanInfo`] carries the topology uid
///   ([`TaskSpanInfo::topology`]), so a task begin names its topology
///   without a dispatch event to join against.
pub const SCHED_EVENT_SCHEMA_VERSION: u32 = 7;

/// Identity of one task execution, attached to task begin/end events.
///
/// `node` is the address of the executed graph node: stable across
/// iterations for static nodes (the structure/state split re-arms the same
/// nodes in place), fresh per iteration for dynamically spawned subflow
/// children (their subgraph is rebuilt every iteration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskSpanInfo {
    /// Stable id of the executed node (its address).
    pub node: u64,
    /// Id of the spawning parent for *joined* subflow children; `0` for
    /// top-level and detached nodes.
    pub parent: u64,
    /// Run id of the iteration this execution belongs to (matches
    /// [`IterationInfo::run`]).
    pub run: u64,
    /// Stable id of the topology this execution belongs to (matches
    /// [`IterationInfo::topology`]). Schema v7.
    pub topology: u64,
}

/// Identity of one topology iteration, attached to dispatch/finalize
/// events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterationInfo {
    /// Globally unique id of this iteration (fresh per re-arm).
    pub run: u64,
    /// Stable id of the topology, shared by every iteration of every
    /// `run`/`run_n`/`run_until` batch on the same frozen graph.
    pub topology: u64,
    /// 0-based index of this iteration within the topology's life.
    pub iteration: u64,
    /// Id of the tenant whose dispatch drives this stint of the topology
    /// (`0` = untenanted / direct submission). Schema v4.
    pub tenant: u64,
    /// Microseconds since [`crate::clock::origin`] when the driving
    /// tenant stint was submitted; `0` when the stint is untenanted.
    /// Schema v5.
    pub submit_us: u64,
}

/// What happened, for one [`SchedEvent`].
///
/// The variants mirror Algorithm 1 of the paper: task execution (lines
/// 16–25), the exclusive-cache fast path, work stealing (line 3), parking
/// on the idler list (lines 5–13), wake-ups (on a push no spinning thief
/// will see), and topology dispatch/finalize (§III-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedEventKind {
    /// A worker is about to invoke a task's callable (schema v2: carries
    /// the node identity so spans can be joined to the graph structure).
    TaskBegin {
        /// Identity of the execution (node, parent, run).
        span: TaskSpanInfo,
    },
    /// The task's callable returned (or panicked; the end still fires).
    TaskEnd {
        /// Identity of the execution (matches its [`TaskBegin`] event).
        ///
        /// [`TaskBegin`]: SchedEventKind::TaskBegin
        span: TaskSpanInfo,
    },
    /// The worker was handed a node whose topology had been cancelled:
    /// the task's work was **not** executed (no begin/end span is
    /// emitted), only its completion bookkeeping ran so the graph could
    /// drain. Schema v3.
    TaskSkipped,
    /// A task attempt panicked and the node was re-armed for another
    /// attempt under its [`crate::Task::retry`] budget. Schema v3.
    TaskRetried {
        /// 1-based index of the retry about to start (1 = second
        /// attempt overall).
        attempt: u32,
    },
    /// The next task came from the worker's exclusive cache slot — a
    /// linear-chain step that touched no queue.
    CacheHit,
    /// The worker stole a task from `victim`'s deque.
    Steal {
        /// Worker whose deque was robbed.
        victim: usize,
    },
    /// An exploration (a worker's bounded steal rounds, a guest's one
    /// round; every victim plus the injector) found nothing.
    StealFail,
    /// The worker took a task from the external injector queue.
    InjectorPop,
    /// The worker is about to park on the idler list.
    Park,
    /// This thread woke a parked worker.
    Wake {
        /// The worker that was woken.
        woken: usize,
    },
    /// A topology iteration was dispatched to the executor. A reusable
    /// topology driven by `run_n`/`run_until` emits one dispatch event per
    /// iteration, each with a fresh run id but the same stable topology id.
    TopologyDispatch {
        /// Identity of the iteration (dispatch events carry
        /// [`DISPATCH_LANE`] in [`SchedEvent::worker`]).
        info: IterationInfo,
        /// Number of top-level tasks in the dispatched graph.
        tasks: usize,
    },
    /// The last task of a topology iteration completed.
    TopologyFinalize {
        /// Identity of the iteration (matches its dispatch event).
        info: IterationInfo,
    },
}

/// One recorded scheduler event.
#[derive(Debug, Clone)]
pub struct SchedEvent {
    /// Worker that recorded the event, or [`DISPATCH_LANE`] for events
    /// from non-worker threads (dispatch, finalize observed off-worker).
    pub worker: usize,
    /// Microseconds since the process-wide monotonic clock origin
    /// ([`crate::clock`]); every tracer, flight recorder, and profile
    /// export shares this one time domain.
    pub ts_us: u64,
    /// Label of the task involved, when the event concerns a task
    /// (entry/exit/cache hit); empty otherwise. Cloning a label is a
    /// reference-count bump, never an allocation.
    pub label: TaskLabel,
    /// What happened.
    pub kind: SchedEventKind,
}

/// What an executor tells an observer: the paper's set-up, entry and exit
/// hooks, plus one hook for every scheduling event.
///
/// Every method has a default body, so an implementation overrides only
/// what it cares about: a task timer implements [`on_entry`] and
/// [`on_exit`], a recorder [`on_event`]. Hooks run on the hot path behind a
/// single `has_observers` check and must be cheap and thread-safe. A hook
/// that panics is caught where the executor calls it: the lane and the run
/// go on, and the observer stays installed.
///
/// [`on_entry`]: ExecutorObserver::on_entry
/// [`on_exit`]: ExecutorObserver::on_exit
/// [`on_event`]: ExecutorObserver::on_event
pub trait ExecutorObserver: Send + Sync {
    /// Called once when the observer is installed, with the executor's
    /// lane count ([`Executor::num_lanes`](crate::Executor::num_lanes)):
    /// every lane id a later hook passes is below it.
    fn on_observe(&self, _num_lanes: usize) {}
    /// Called by worker `worker` immediately before invoking a task.
    fn on_entry(&self, _worker: usize, _label: &TaskLabel) {}
    /// Called by worker `worker` immediately after a task returns (also
    /// fires when the task panicked).
    fn on_exit(&self, _worker: usize, _label: &TaskLabel) {}
    /// Called for every scheduling event: by lane `worker` for the events
    /// of a lane, with [`DISPATCH_LANE`] for topology dispatch and
    /// finalize and for a wake-up sent by a dispatching thread. `label` is
    /// the task's for task events and empty otherwise. The default
    /// forwards [`SchedEventKind::TaskBegin`] and
    /// [`SchedEventKind::TaskEnd`] to [`ExecutorObserver::on_entry`] and
    /// [`ExecutorObserver::on_exit`] and ignores the rest.
    fn on_event(&self, worker: usize, label: &TaskLabel, kind: &SchedEventKind) {
        match kind {
            SchedEventKind::TaskBegin { .. } => self.on_entry(worker, label),
            SchedEventKind::TaskEnd { .. } => self.on_exit(worker, label),
            _ => {}
        }
    }
}

/// Counts workers that are currently executing a task; sampling it over
/// time yields a utilization profile (Fig. 10 right of the paper).
#[derive(Default)]
pub struct BusyCounter {
    busy: AtomicUsize,
    executed: AtomicUsize,
}

impl BusyCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of workers executing a task right now.
    pub fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Total number of tasks executed since installation.
    pub fn executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }
}

impl ExecutorObserver for BusyCounter {
    fn on_entry(&self, _worker: usize, _label: &TaskLabel) {
        self.busy.fetch_add(1, Ordering::Relaxed);
    }
    fn on_exit(&self, _worker: usize, _label: &TaskLabel) {
        self.busy.fetch_sub(1, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Default ring capacity per lane (events).
const DEFAULT_LANE_CAPACITY: usize = 1 << 15;

/// One lane of a [`Tracer`]: its ring and the events it could not take.
struct Lane {
    ring: Ring<SchedEvent>,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

/// Records the full scheduler lifecycle into per-worker event rings.
///
/// The record path touches only the recording worker's own ring — no lock
/// is shared between workers, so tracing perturbs the schedule far less
/// than a global mutex would. Rings have fixed capacity; when one fills
/// up, the recording worker drains its ring into the archive and retries
/// (a short stall, no loss). Only the live-introspection tracer, whose
/// collector drains on its own cadence, evicts the lane's oldest event
/// instead and counts it in [`Tracer::dropped`].
pub struct Tracer {
    /// One ring per lane plus a final one for the dispatch lane (and for
    /// any lane id past `max_lanes`).
    lanes: Box<[Lane]>,
    /// Drained events, ordered by timestamp only once a reader collects:
    /// the recording worker appends without sorting.
    archive: Mutex<Vec<SchedEvent>>,
    /// On ring overflow: evict-oldest-and-count (`true`) instead of the
    /// default drain-and-retry. See [`Tracer::lossy`].
    lossy: bool,
}

impl Tracer {
    /// Creates a tracer for up to `max_lanes` lanes
    /// ([`Executor::num_lanes`](crate::Executor::num_lanes): workers plus
    /// guest seats) with the default per-lane capacity (32768 events). A
    /// lane past `max_lanes` records into the dispatch lane's ring, still
    /// under its own id.
    pub fn new(max_lanes: usize) -> Self {
        Tracer::with_capacity(max_lanes, DEFAULT_LANE_CAPACITY)
    }

    /// Creates a tracer whose per-lane rings hold `lane_capacity`
    /// events (rounded up to a power of two).
    pub fn with_capacity(max_lanes: usize, lane_capacity: usize) -> Self {
        Tracer {
            lanes: (0..=max_lanes)
                .map(|_| Lane {
                    ring: Ring::new(lane_capacity),
                    dropped: AtomicU64::new(0),
                })
                .collect(),
            archive: Mutex::new(Vec::new()),
            lossy: false,
        }
    }

    /// Switches overflow handling from drain-and-retry to
    /// evict-oldest-and-count: when a lane's ring is full the recording
    /// lane discards its own oldest event, charges it to
    /// [`Tracer::dropped`] and pushes the new one, instead of draining
    /// into the archive lock. Completeness-oriented exporters want the
    /// default; an always-on consumer with its own drain cadence (the
    /// live-introspection collector) wants this. A saturated lane then
    /// holds its newest events, its latest task begin or end among them,
    /// and the loss is surfaced by the ring-saturation watchdog signal.
    pub(crate) fn lossy(mut self) -> Self {
        self.lossy = true;
        self
    }

    /// Number of executing lanes (excluding the dispatch lane).
    pub fn num_lanes(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Events discarded because a lane's ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped_per_lane().iter().sum()
    }

    /// Events discarded per lane: one entry per worker, then the dispatch
    /// lane. Backs the per-worker `rustflow_ring_dropped_events_total`
    /// counter — overflow is no longer visible only as a crate-wide sum.
    pub fn dropped_per_lane(&self) -> Vec<u64> {
        self.lanes
            .iter()
            .map(|l| l.dropped.load(Ordering::Relaxed))
            .collect()
    }

    /// Approximate fill level of each lane's ring, in events (same order
    /// as [`Tracer::dropped_per_lane`]). Advisory; used by the watchdog
    /// to flag rings saturating between collection passes.
    pub fn lane_fill(&self) -> Vec<usize> {
        self.lanes.iter().map(|l| l.ring.len()).collect()
    }

    /// Drains every lane **and** the archive, returning all events
    /// recorded since the previous drain, ordered by timestamp. This is
    /// the collector-thread feed for the flight recorder: unlike
    /// [`Tracer::sched_events`] it empties the archive, so the tracer's
    /// own memory stays bounded on long-lived executors.
    pub fn drain_events(&self) -> Vec<SchedEvent> {
        self.collect();
        std::mem::take(&mut *self.archive.lock())
    }

    /// Drains every lane into the internal archive and sorts it by
    /// timestamp. Call periodically during long runs to keep the
    /// fixed-capacity rings from overflowing; every exporter calls it
    /// implicitly. The sort is stable, so a lane's events keep their
    /// recorded order.
    pub fn collect(&self) {
        let mut archive = self.archive.lock();
        let queued = self.lanes.iter().filter(|l| !l.ring.is_empty());
        archive.extend(queued.flat_map(|l| std::iter::from_fn(|| l.ring.pop())));
        archive.sort_by_key(|e| e.ts_us);
    }

    /// All recorded scheduler events, ordered by timestamp (collects
    /// first; does not drain the archive).
    pub fn sched_events(&self) -> Vec<SchedEvent> {
        self.collect();
        self.archive.lock().clone()
    }

    /// Renders every recorded event as a Chrome trace (`chrome://tracing`
    /// / Perfetto JSON array format): one lane (`tid`) per worker plus a
    /// dispatch lane. Task executions become complete (`"X"`) events;
    /// parks become complete events lasting until the lane's next event;
    /// cache hits, steals, wakes and topology milestones become instants
    /// (`"i"`). Collects first; does not drain, so it can be called
    /// repeatedly. All names are JSON-escaped.
    pub fn chrome_trace_json(&self) -> String {
        self.collect();
        let archive = self.archive.lock();
        chrome_trace_json_from(&archive, self.num_lanes())
    }
}

/// Renders a slice of scheduler events as a Chrome trace (same format as
/// [`Tracer::chrome_trace_json`]): task executions become complete
/// (`"X"`) events, parks last until the lane's next event, everything
/// else becomes an instant. `num_lanes` (workers plus guest seats) assigns
/// the dispatch lane its `tid`, one past the last executing lane. `events`
/// must be ordered by timestamp (exporters sort before
/// calling). This is the shared back-end of the tracer export and the
/// flight recorder's live `/trace` window.
pub fn chrome_trace_json_from(events: &[SchedEvent], num_lanes: usize) -> String {
    // For park durations: timestamp of the next event on the same lane.
    let mut next_on_lane: Vec<Option<u64>> = vec![None; events.len()];
    let mut last_seen: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if let Some(prev) = last_seen.insert(e.worker, i) {
            next_on_lane[prev] = Some(e.ts_us);
        }
    }

    // One span per task end, in the order the ends appear below.
    let mut spans = crate::profile::task_spans(events).into_iter();
    let mut w = Writer::compact();
    w.begin_array();
    for (i, e) in events.iter().enumerate() {
        let tid = match &e.kind {
            // Tenanted dispatches get their own lane past the dispatch
            // lane (tid = num_lanes + tenant id), so each tenant's
            // submission stream reads as one track.
            SchedEventKind::TopologyDispatch { info, .. }
            | SchedEventKind::TopologyFinalize { info }
                if info.tenant != 0 =>
            {
                num_lanes + info.tenant as usize
            }
            _ if e.worker == DISPATCH_LANE => num_lanes,
            _ => e.worker,
        };
        // An instant's name, category, whether its `args` open with the
        // task's label, and the numbers that follow.
        let (name, cat, task, args): (&str, &str, bool, Args<'_>) = match &e.kind {
            SchedEventKind::TaskBegin { .. } => continue,
            SchedEventKind::TaskEnd { .. } => {
                let span = spans.next().expect("one span per task end");
                let name = if span.label.is_empty() {
                    "(task)"
                } else {
                    &span.label
                };
                complete(&mut w, name, "task", span.begin_us, span.end_us, tid);
                continue;
            }
            SchedEventKind::Park => {
                let until = next_on_lane[i].unwrap_or(e.ts_us);
                complete(&mut w, "park", "idle", e.ts_us, until, tid);
                continue;
            }
            SchedEventKind::CacheHit => ("cache-hit", "sched", true, vec![]),
            SchedEventKind::TaskSkipped => ("task-skipped", "fault", true, vec![]),
            SchedEventKind::TaskRetried { attempt } => {
                ("task-retried", "fault", true, vec![("attempt", attempt)])
            }
            SchedEventKind::Steal { victim } => ("steal", "sched", false, vec![("victim", victim)]),
            SchedEventKind::StealFail => ("steal-fail", "sched", false, vec![]),
            SchedEventKind::InjectorPop => ("injector-pop", "sched", false, vec![]),
            SchedEventKind::Wake { woken } => ("wake", "sched", false, vec![("woken", woken)]),
            SchedEventKind::TopologyDispatch { info, tasks } => {
                let mut args = topology_args(info);
                args.extend([("tasks", tasks as &dyn Display), ("tenant", &info.tenant)]);
                ("topology-dispatch", "topology", false, args)
            }
            SchedEventKind::TopologyFinalize { info } => {
                let mut args = topology_args(info);
                args.push(("tenant", &info.tenant));
                ("topology-finalize", "topology", false, args)
            }
        };
        w.begin_object();
        w.field_str("name", name);
        w.field_str("cat", cat);
        w.field_str("ph", "i");
        // Thread-scoped, unless it is a topology milestone.
        w.field_str("s", if cat == "topology" { "g" } else { "t" });
        w.field("ts", e.ts_us);
        w.field("pid", 0);
        w.field("tid", tid);
        if task || !args.is_empty() {
            w.key("args");
            w.begin_object();
            if task {
                w.field_str("task", &e.label);
            }
            for (key, number) in args {
                w.field(key, number);
            }
            w.end();
        }
        w.end();
    }
    w.end();
    w.finish()
}

/// The numbers in an instant trace event's `args`.
type Args<'a> = Vec<(&'static str, &'a dyn Display)>;

/// What a dispatch and a finalize event both say about their iteration.
fn topology_args(info: &IterationInfo) -> Args<'_> {
    vec![
        ("topology", &info.topology),
        ("run", &info.run),
        ("iteration", &info.iteration),
    ]
}

/// One complete (`"X"`) trace event from `begin_us` to `end_us`, at least
/// a microsecond long so viewers draw it.
fn complete(w: &mut Writer, name: &str, cat: &str, begin_us: u64, end_us: u64, tid: usize) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("cat", cat);
    w.field_str("ph", "X");
    w.field("ts", begin_us);
    w.field("dur", end_us.saturating_sub(begin_us).max(1));
    w.field("pid", 0);
    w.field("tid", tid);
    w.end();
}

impl ExecutorObserver for Tracer {
    /// Records one event, stamped with the process-wide clock
    /// ([`crate::clock`], the one time domain of every tracer, flight
    /// recorder and profile export), into `worker`'s ring. A full ring
    /// costs a lossless tracer one drain of that ring into the archive,
    /// unsorted, and a lossy one the eviction of the lane's oldest event.
    fn on_event(&self, worker: usize, label: &TaskLabel, kind: &SchedEventKind) {
        let lane = &self.lanes[worker.min(self.lanes.len() - 1)];
        let mut event = SchedEvent {
            worker,
            ts_us: crate::clock::now_us(),
            label: label.clone(),
            kind: kind.clone(),
        };
        // Each round frees at least one slot; only another producer on
        // the same ring (the shared dispatch lane) can take it first, and
        // then that producer's push went through.
        while let Err(refused) = lane.ring.push(event) {
            event = refused;
            if !self.lossy {
                let mut archive = self.archive.lock();
                archive.extend(std::iter::from_fn(|| lane.ring.pop()));
            } else if lane.ring.pop().is_some() {
                lane.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::task_spans;

    fn label(s: &str) -> TaskLabel {
        TaskLabel::new(s)
    }

    /// `kind` on `lane` through the observer interface, unlabelled.
    fn event(t: &Tracer, lane: usize, kind: SchedEventKind) {
        t.on_event(lane, &TaskLabel::empty(), &kind);
    }

    /// A task execution of `name` on `lane`, as the executor reports it.
    fn task(t: &Tracer, lane: usize, name: &str) {
        let span = TaskSpanInfo::default();
        t.on_event(lane, &label(name), &SchedEventKind::TaskBegin { span });
        t.on_event(lane, &label(name), &SchedEventKind::TaskEnd { span });
    }

    #[test]
    fn a_sched_event_stays_eighty_eight_bytes() {
        // A task begin's span (32 B) fits under a dispatch's payload
        // (48 B), so the ring slot did not grow with schema v7.
        assert_eq!(std::mem::size_of::<TaskSpanInfo>(), 32);
        assert_eq!(std::mem::size_of::<SchedEvent>(), 88);
    }

    #[test]
    fn busy_counter_tracks_entries_and_exits() {
        let c = BusyCounter::new();
        c.on_entry(0, &label("a"));
        c.on_entry(1, &label("b"));
        assert_eq!(c.busy(), 2);
        c.on_exit(0, &label("a"));
        assert_eq!(c.busy(), 1);
        assert_eq!(c.executed(), 1);
        c.on_exit(1, &label("b"));
        assert_eq!(c.busy(), 0);
        assert_eq!(c.executed(), 2);
    }

    #[test]
    fn tracer_records_matched_events() {
        let t = Tracer::new(2);
        task(&t, 0, "x");
        task(&t, 1, "y");
        let spans = task_spans(&t.sched_events());
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].label.as_str(), spans[0].worker), ("x", 0));
        assert!(spans[0].end_us >= spans[0].begin_us);
    }

    #[test]
    fn tracer_keeps_lifecycle_events() {
        let t = Tracer::new(2);
        event(&t, 1, SchedEventKind::Steal { victim: 0 });
        event(&t, 1, SchedEventKind::StealFail);
        event(&t, 0, SchedEventKind::InjectorPop);
        event(&t, 1, SchedEventKind::Park);
        event(&t, 0, SchedEventKind::Wake { woken: 1 });
        t.on_event(0, &label("c"), &SchedEventKind::CacheHit);
        let info = IterationInfo {
            run: 7,
            topology: 1,
            iteration: 0,
            tenant: 0,
            submit_us: 0,
        };
        event(
            &t,
            DISPATCH_LANE,
            SchedEventKind::TopologyDispatch { info, tasks: 3 },
        );
        event(&t, DISPATCH_LANE, SchedEventKind::TopologyFinalize { info });
        let events = t.sched_events();
        assert_eq!(events.len(), 8);
        assert!(events
            .iter()
            .any(|e| e.kind == SchedEventKind::Steal { victim: 0 }));
        assert!(events
            .iter()
            .any(|e| e.kind == SchedEventKind::TopologyDispatch { info, tasks: 3 }));
        // None of them is a task execution.
        assert!(task_spans(&events).is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let t = Tracer::new(2);
        task(&t, 0, "alpha");
        task(&t, 1, "beta");
        event(&t, 1, SchedEventKind::Steal { victim: 0 });
        event(&t, 1, SchedEventKind::Park);
        event(&t, 0, SchedEventKind::Wake { woken: 1 });
        let json = t.chrome_trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"alpha\""));
        assert!(json.contains("\"name\":\"steal\""));
        assert!(json.contains("\"name\":\"park\""));
        assert!(json.contains("\"name\":\"wake\""));
        assert!(json.contains("\"tid\":1"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3); // 2 tasks + park
    }

    #[test]
    fn tracer_tolerates_unmatched_exit() {
        let t = Tracer::new(1);
        let span = TaskSpanInfo::default();
        t.on_event(0, &label("ghost"), &SchedEventKind::TaskEnd { span });
        let spans = task_spans(&t.sched_events());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].begin_us, spans[0].end_us);
        assert_eq!(spans[0].label, "ghost");
    }

    #[test]
    fn overflow_flushes_to_archive_instead_of_dropping() {
        // Pre-PR4 behavior: events 9..20 were silently discarded. The
        // record path now drains the full lane into the archive and
        // retries, so a burst larger than the ring survives intact.
        let t = Tracer::with_capacity(1, 8);
        for _ in 0..20 {
            event(&t, 0, SchedEventKind::Park);
        }
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.sched_events().len(), 20);
    }

    #[test]
    fn collect_between_bursts_prevents_loss() {
        let t = Tracer::with_capacity(1, 8);
        for _ in 0..8 {
            event(&t, 0, SchedEventKind::Park);
        }
        t.collect();
        for _ in 0..8 {
            event(&t, 0, SchedEventKind::Park);
        }
        assert_eq!(t.sched_events().len(), 16);
        assert_eq!(t.dropped(), 0);
    }

    /// A lossy lane that overflows while a reader drains it: every event
    /// is drained or counted as dropped, each lane's drained events keep
    /// their recorded order, and the newest event survives.
    #[test]
    #[cfg_attr(miri, ignore = "tens of thousands of events; too slow under miri")]
    fn a_lossy_tracer_evicts_its_oldest_events_under_a_concurrent_drain() {
        const PUSHED: usize = 20_000;
        let t = Tracer::with_capacity(2, 8).lossy();
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut drained = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..PUSHED {
                    // The sequence number rides in the victim field.
                    event(&t, i % 2, SchedEventKind::Steal { victim: i });
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                drained.extend(t.drain_events());
            }
        });
        drained.extend(t.drain_events());

        assert_eq!(drained.len() as u64 + t.dropped(), PUSHED as u64);
        assert!(t.dropped() > 0, "an 8-slot ring must overflow");
        for lane in 0..2 {
            let seq: Vec<usize> = drained
                .iter()
                .filter(|e| e.worker == lane)
                .map(|e| match e.kind {
                    SchedEventKind::Steal { victim } => victim,
                    ref other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert!(seq.windows(2).all(|w| w[0] < w[1]), "lane {lane} reordered");
            assert_eq!(
                seq.last(),
                Some(&(PUSHED - 2 + lane)),
                "lane {lane}'s newest"
            );
        }
    }
}
