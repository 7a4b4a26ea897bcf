//! Causal profiling: reconstructing the executed schedule from the event
//! rings and computing work / span / critical-path analysis.
//!
//! The telemetry of PR 1 counts *how often* scheduler events happen; this
//! module answers *why a run took as long as it did*. Task begin/end
//! events (schema v2, [`crate::observer::SCHED_EVENT_SCHEMA_VERSION`])
//! carry the executed node's identity, so the per-worker rings can be
//! stitched back into the DAG schedule that actually ran. From it we
//! compute, per iteration:
//!
//! * **work** `T₁` — the sum of all span durations (what one worker would
//!   need);
//! * **span** `T∞` — the longest dependency-weighted path through the
//!   executed nodes, including dynamically spawned subflow children;
//! * **parallelism** `T₁ / T∞` — the maximum useful worker count;
//! * achieved speedup `T₁ / wall` versus **Brent's bound**
//!   `min(P, T₁/T∞)` — the work-stealing literature's limit on what any
//!   scheduler could have achieved on `P` workers.
//!
//! Plus cross-iteration per-node aggregates, Fig. 10-style binned
//! per-worker utilization timelines, and task-duration / steal-latency
//! histograms. [`ProfileReport::to_json`] emits a schema-stable JSON
//! report, [`ProfileReport::prometheus_text`] the histogram/summary
//! families, and [`crate::Taskflow::dump_profiled`] a DOT dump with the
//! critical path bold and nodes heat-colored by total time.

use crate::graph::{Graph, Node};
use crate::observer::{SchedEvent, SchedEventKind};
use crate::stats::{AtomicHistogram, Histogram};
use crate::wire::{json, prom};
use std::collections::{HashMap, HashSet};

/// Version of the [`ProfileReport`] JSON schema.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// One node of a frozen graph, as seen by the profiler.
#[derive(Debug, Clone)]
pub struct SnapshotNode {
    /// Stable node id (matches [`crate::TaskSpanInfo::node`]).
    pub id: u64,
    /// The node's label ("" when unnamed).
    pub label: String,
    /// Ids of the node's successors.
    pub successors: Vec<u64>,
    /// Index among the topology's top-level nodes; `None` for subflow
    /// children (whose storage is rebuilt every iteration).
    pub static_index: Option<usize>,
}

/// The frozen structure of a topology's graph: what task spans are joined
/// against to recover dependency edges.
///
/// Taken from a *settled* topology via
/// [`crate::Taskflow::profile_snapshot`]. Static nodes keep the same id
/// across every `run_n` iteration (the structure/state split re-arms the
/// same storage); subflow children listed here are the residue of the most
/// recent iteration only.
#[derive(Debug, Clone, Default)]
pub struct GraphSnapshot {
    /// Every node reachable from the topology's top level, subflow
    /// children included.
    pub nodes: Vec<SnapshotNode>,
}

impl GraphSnapshot {
    /// Builds a snapshot of `graph` (recursively including spawned
    /// subflow subgraphs).
    ///
    /// # Safety
    /// The graph must be quiescent: its owning topology settled, or never
    /// dispatched.
    pub(crate) unsafe fn from_graph(graph: &Graph) -> GraphSnapshot {
        let mut snapshot = GraphSnapshot::default();
        // SAFETY: forwarded quiescence contract.
        unsafe { collect_nodes(graph, true, &mut snapshot.nodes) };
        snapshot
    }

    /// Number of snapshotted nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Recursive walk collecting every node; top-level nodes get their static
/// index, subflow children get `None`.
///
/// # Safety
/// Quiescent graph per [`GraphSnapshot::from_graph`].
unsafe fn collect_nodes(graph: &Graph, top_level: bool, out: &mut Vec<SnapshotNode>) {
    for (i, n) in graph.iter().enumerate() {
        // SAFETY: quiescent phase per the caller's contract.
        let label = unsafe { n.label() }.to_string();
        // SAFETY: successors are frozen after the build/spawn phase.
        let successors = unsafe { n.structure.successors.get() }
            .iter()
            .map(|&s| s as u64)
            .collect();
        out.push(SnapshotNode {
            id: n as *const Node as u64,
            label,
            successors,
            static_index: top_level.then_some(i),
        });
        // SAFETY: quiescent phase per the caller's contract.
        let sub = unsafe { n.state.subgraph.get() };
        if !sub.is_empty() {
            // SAFETY: forwarded quiescence contract.
            unsafe { collect_nodes(sub, false, out) };
        }
    }
}

/// One reconstructed task execution.
#[derive(Debug, Clone)]
pub struct TaskSpan {
    /// Id of the executed node.
    pub node: u64,
    /// Id of the spawning parent (0 for top-level / detached nodes).
    pub parent: u64,
    /// Run id of the iteration the span belongs to.
    pub run: u64,
    /// Worker that executed the task.
    pub worker: usize,
    /// Task label ("" when unnamed).
    pub label: String,
    /// Begin timestamp, µs since the process-wide monotonic clock origin ([`crate::Executor::now_us`]'s domain, shared with ring events and `/trace`).
    pub begin_us: u64,
    /// End timestamp, µs since the process-wide monotonic clock origin ([`crate::Executor::now_us`]'s domain, shared with ring events and `/trace`).
    pub end_us: u64,
}

impl TaskSpan {
    fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.begin_us)
    }
}

/// Pairs task begin/end events into one [`TaskSpan`] per execution, in the
/// order the executions ended: the one pairing behind the profiler and the
/// Chrome-trace export. Pairing is per lane (a lane's executions never
/// nest): an end closes its lane's most recent open begin and takes that
/// begin's timestamp and label. An end whose begin was lost to ring
/// pressure degrades to a zero-length span at the end's timestamp. `events`
/// must be ordered by timestamp ([`crate::Tracer::sched_events`] is).
pub fn task_spans(events: &[SchedEvent]) -> Vec<TaskSpan> {
    let mut open: HashMap<usize, Vec<&SchedEvent>> = HashMap::new();
    let mut spans = Vec::new();
    for e in events {
        match &e.kind {
            SchedEventKind::TaskBegin { .. } => open.entry(e.worker).or_default().push(e),
            SchedEventKind::TaskEnd { span } => {
                let begin = open.get_mut(&e.worker).and_then(Vec::pop).unwrap_or(e);
                spans.push(TaskSpan {
                    node: span.node,
                    parent: span.parent,
                    run: span.run,
                    worker: e.worker,
                    label: begin.label.to_string(),
                    begin_us: begin.ts_us,
                    end_us: e.ts_us,
                });
            }
            _ => {}
        }
    }
    spans
}

/// Work/span analysis of one topology iteration.
#[derive(Debug, Clone)]
pub struct IterationProfile {
    /// Run id of the iteration (fresh per re-arm).
    pub run: u64,
    /// Stable topology id (0 when the dispatch event was not captured).
    pub topology: u64,
    /// 0-based iteration index within the topology.
    pub iteration: u64,
    /// Executed spans attributed to this iteration.
    pub tasks: usize,
    /// Work `T₁`: sum of span durations, µs.
    pub work_us: u64,
    /// Span `T∞`: longest dependency-weighted path, µs.
    pub span_us: u64,
    /// Wall clock of the iteration (last end − first begin), µs.
    pub wall_us: u64,
    /// Parallelism `T₁ / T∞`.
    pub parallelism: f64,
    /// Achieved speedup `T₁ / wall`.
    pub achieved_speedup: f64,
    /// Brent's bound on speedup: `min(P, T₁/T∞)` for `P` workers.
    pub brent_speedup: f64,
    /// Human-readable identities along the critical path, in order.
    pub critical_path: Vec<String>,
    /// Node ids along the critical path, in order.
    pub critical_nodes: Vec<u64>,
}

/// Cross-iteration aggregate for one task (or one aggregation bucket; see
/// [`ProfileReport::build`] for the keying rules).
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// Human-readable identity (label, `task<i>` for unnamed static
    /// nodes, `(subflow)` for unnamed dynamic children).
    pub identity: String,
    /// Stable node id for static nodes; `None` for label/dynamic buckets.
    pub id: Option<u64>,
    /// Number of executions.
    pub count: u64,
    /// Total execution time, µs.
    pub total_us: u64,
    /// Mean execution time, µs.
    pub mean_us: f64,
    /// Longest single execution, µs.
    pub max_us: u64,
    /// Iterations in which this task lay on the critical path.
    pub critical_appearances: u64,
}

/// Fig. 10-style utilization timeline of one worker: the busy fraction of
/// each time bin.
#[derive(Debug, Clone)]
pub struct WorkerTimeline {
    /// Worker id.
    pub worker: usize,
    /// Busy fraction (0..=1) per bin of [`ProfileReport::bin_us`] µs.
    pub busy: Vec<f64>,
}

/// The causal profiler's full output: per-iteration work/span analysis,
/// per-node aggregates, utilization timelines, and latency histograms.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// JSON schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Lane count the report was built with
    /// ([`Executor::num_lanes`](crate::Executor::num_lanes): workers plus
    /// guest seats, every thread that can execute a task at once); the
    /// `P` of Brent's bound. The name is the JSON schema's.
    pub num_workers: usize,
    /// First span begin, µs since the process-wide monotonic clock origin ([`crate::Executor::now_us`]'s domain, shared with ring events and `/trace`).
    pub begin_us: u64,
    /// Last span end, µs since the process-wide monotonic clock origin ([`crate::Executor::now_us`]'s domain, shared with ring events and `/trace`).
    pub end_us: u64,
    /// Width of one utilization bin, µs.
    pub bin_us: u64,
    /// Per-iteration analysis, ordered by run id.
    pub iterations: Vec<IterationProfile>,
    /// Cross-iteration per-task aggregates, heaviest first.
    pub nodes: Vec<NodeProfile>,
    /// Per-worker binned busy fractions.
    pub utilization: Vec<WorkerTimeline>,
    /// Distribution of task durations, µs.
    pub task_duration: Histogram,
    /// Distribution of steal latencies, µs: the gap between a successful
    /// steal and the thief's previous recorded event — an upper bound on
    /// how long the thief hunted for that task.
    pub steal_latency: Histogram,
    /// Total work across all iterations, µs.
    pub total_work_us: u64,
    /// Mean per-iteration span, µs.
    pub mean_span_us: f64,
    /// Mean per-iteration parallelism.
    pub mean_parallelism: f64,
    /// Whole-capture wall clock (`end_us - begin_us`), µs.
    pub wall_us: u64,
    /// Ring events dropped during capture (0 ⇒ the schedule is complete).
    pub dropped_events: u64,
    /// Critical-path edges `(from, to)` of the most recent iteration, for
    /// DOT annotation ([`crate::Taskflow::dump_profiled`]).
    pub critical_edges: Vec<(u64, u64)>,
}

impl ProfileReport {
    /// Reconstructs the executed schedule from `events` and joins it to
    /// `snapshot`.
    ///
    /// Span pairing is per lane (a lane's executions never nest).
    /// `num_lanes` sizes the utilization timelines, one per lane, guest
    /// seats included: pass [`Executor::num_lanes`](crate::Executor::num_lanes).
    /// Spans are grouped into iterations by run id; dependency edges come
    /// from three sources: the frozen structure (for ids present in the
    /// snapshot), spawn edges (`parent → child` for subflow children), and
    /// join edges (`child → parent's successors`, since a joined parent's
    /// successors cannot start before its children finish). Subflow
    /// children of earlier iterations whose storage was rebuilt since only
    /// contribute spawn/join edges — the snapshot holds the residue of the
    /// most recent iteration.
    ///
    /// Aggregation keying: static nodes aggregate by id (stable across
    /// iterations); dynamic children aggregate by label, or into one
    /// `(subflow)` bucket when unnamed.
    ///
    /// `dropped` is the tracer's drop counter; it is carried into
    /// [`ProfileReport::dropped_events`] so a reader can tell a complete
    /// schedule from a truncated one.
    pub fn build(
        snapshot: &GraphSnapshot,
        events: &[SchedEvent],
        num_lanes: usize,
        dropped: u64,
    ) -> ProfileReport {
        let by_id: HashMap<u64, &SnapshotNode> = snapshot.nodes.iter().map(|n| (n.id, n)).collect();
        // Structural predecessor lists (snapshot ids only).
        let mut preds: HashMap<u64, Vec<u64>> = HashMap::new();
        for n in &snapshot.nodes {
            for &s in &n.successors {
                preds.entry(s).or_default().push(n.id);
            }
        }

        // --- Pair begin/end events into spans; collect histograms. -------
        let spans = task_spans(events);
        let task_duration = AtomicHistogram::new();
        for s in &spans {
            task_duration.record(s.duration_us());
        }
        let steal_latency = AtomicHistogram::new();
        let mut last_on_lane: HashMap<usize, u64> = HashMap::new();
        let mut dispatch: HashMap<u64, (u64, u64)> = HashMap::new();
        for e in events {
            match &e.kind {
                SchedEventKind::Steal { .. } => {
                    if let Some(&prev) = last_on_lane.get(&e.worker) {
                        steal_latency.record(e.ts_us.saturating_sub(prev));
                    }
                }
                SchedEventKind::TopologyDispatch { info, .. } => {
                    dispatch.insert(info.run, (info.topology, info.iteration));
                }
                _ => {}
            }
            last_on_lane.insert(e.worker, e.ts_us);
        }

        // --- Group spans into iterations by run id. ----------------------
        let mut runs: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            runs.entry(s.run).or_default().push(i);
        }
        let mut run_ids: Vec<u64> = runs.keys().copied().collect();
        run_ids.sort_unstable();

        let mut iterations = Vec::with_capacity(run_ids.len());
        let mut critical_edges = Vec::new();
        let mut critical_count: HashMap<u64, u64> = HashMap::new();
        for run in run_ids {
            let members = &runs[&run];
            let analysis = analyze_iteration(&spans, members, &by_id, &preds, num_lanes);
            for &id in &analysis.critical_nodes {
                *critical_count.entry(id).or_insert(0) += 1;
            }
            critical_edges = analysis
                .critical_nodes
                .windows(2)
                .map(|w| (w[0], w[1]))
                .collect();
            let (topology, iteration) = dispatch.get(&run).copied().unwrap_or((0, 0));
            iterations.push(IterationProfile {
                run,
                topology,
                iteration,
                ..analysis
            });
        }

        // --- Cross-iteration per-node aggregates. ------------------------
        #[derive(Default)]
        struct Agg {
            identity: String,
            id: Option<u64>,
            count: u64,
            total_us: u64,
            max_us: u64,
            critical: u64,
        }
        let mut aggs: HashMap<String, Agg> = HashMap::new();
        for s in &spans {
            let is_static = by_id.get(&s.node).is_some_and(|n| n.static_index.is_some());
            let (key, identity, id) = if is_static {
                let n = by_id[&s.node];
                let identity = if n.label.is_empty() {
                    format!("task{}", n.static_index.unwrap_or(0))
                } else {
                    n.label.clone()
                };
                (format!("s{}", s.node), identity, Some(s.node))
            } else if !s.label.is_empty() {
                (format!("l{}", s.label), s.label.clone(), None)
            } else {
                ("d".to_string(), "(subflow)".to_string(), None)
            };
            let agg = aggs.entry(key).or_default();
            agg.identity = identity;
            agg.id = id;
            agg.count += 1;
            agg.total_us += s.duration_us();
            agg.max_us = agg.max_us.max(s.duration_us());
        }
        for (id, n) in critical_count {
            if let Some(agg) = aggs.get_mut(&format!("s{id}")) {
                agg.critical += n;
            }
        }
        let mut nodes: Vec<NodeProfile> = aggs
            .into_values()
            .map(|a| NodeProfile {
                identity: a.identity,
                id: a.id,
                count: a.count,
                total_us: a.total_us,
                mean_us: if a.count == 0 {
                    0.0
                } else {
                    a.total_us as f64 / a.count as f64
                },
                max_us: a.max_us,
                critical_appearances: a.critical,
            })
            .collect();
        nodes.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.identity.cmp(&b.identity))
        });

        // --- Whole-capture extent + utilization timelines. ---------------
        let begin_us = spans.iter().map(|s| s.begin_us).min().unwrap_or(0);
        let end_us = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        let wall_us = end_us.saturating_sub(begin_us);
        const BINS: usize = 64;
        let bin_us = (wall_us / BINS as u64).max(1);
        let nbins = (wall_us as usize).div_ceil(bin_us as usize).max(1);
        let mut busy = vec![vec![0u64; nbins]; num_lanes];
        for s in &spans {
            if s.worker >= num_lanes {
                continue;
            }
            // Spread the span's duration across the bins it overlaps.
            let mut t = s.begin_us;
            while t < s.end_us {
                let bin = ((t - begin_us) / bin_us) as usize;
                let bin_end = begin_us + (bin as u64 + 1) * bin_us;
                let until = s.end_us.min(bin_end);
                if let Some(b) = busy[s.worker].get_mut(bin.min(nbins - 1)) {
                    *b += until - t;
                }
                t = until;
            }
        }
        let utilization = busy
            .into_iter()
            .enumerate()
            .map(|(worker, bins)| WorkerTimeline {
                worker,
                busy: bins
                    .into_iter()
                    .map(|us| (us as f64 / bin_us as f64).min(1.0))
                    .collect(),
            })
            .collect();

        let total_work_us = iterations.iter().map(|i| i.work_us).sum();
        let n = iterations.len().max(1) as f64;
        let mean_span_us = iterations.iter().map(|i| i.span_us).sum::<u64>() as f64 / n;
        let mean_parallelism = iterations.iter().map(|i| i.parallelism).sum::<f64>() / n;

        ProfileReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            num_workers: num_lanes,
            begin_us,
            end_us,
            bin_us,
            iterations,
            nodes,
            utilization,
            task_duration: task_duration.snapshot(),
            steal_latency: steal_latency.snapshot(),
            total_work_us,
            mean_span_us,
            mean_parallelism,
            wall_us,
            dropped_events: dropped,
            critical_edges,
        }
    }

    /// Renders the report as schema-stable JSON (see
    /// [`PROFILE_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::pretty();
        w.begin_object();
        w.field("schema_version", self.schema_version);
        w.field("num_workers", self.num_workers);
        w.field("wall_us", self.wall_us);
        w.field("total_work_us", self.total_work_us);
        w.field("mean_span_us", format_args!("{:.3}", self.mean_span_us));
        w.field(
            "mean_parallelism",
            format_args!("{:.3}", self.mean_parallelism),
        );
        w.field("dropped_events", self.dropped_events);
        w.key("iterations");
        w.begin_array();
        for it in &self.iterations {
            w.begin_object();
            w.field("run", it.run);
            w.field("topology", it.topology);
            w.field("iteration", it.iteration);
            w.field("tasks", it.tasks);
            w.field("work_us", it.work_us);
            w.field("span_us", it.span_us);
            w.field("wall_us", it.wall_us);
            w.field("parallelism", format_args!("{:.3}", it.parallelism));
            w.field(
                "achieved_speedup",
                format_args!("{:.3}", it.achieved_speedup),
            );
            w.field("brent_speedup", format_args!("{:.3}", it.brent_speedup));
            w.key("critical_path");
            w.begin_array();
            for step in &it.critical_path {
                w.string(step);
            }
            w.end();
            w.end();
        }
        w.end();
        w.key("nodes");
        w.begin_array();
        for n in &self.nodes {
            w.begin_object();
            w.field_str("identity", &n.identity);
            w.field("count", n.count);
            w.field("total_us", n.total_us);
            w.field("mean_us", format_args!("{:.3}", n.mean_us));
            w.field("max_us", n.max_us);
            w.field("critical_appearances", n.critical_appearances);
            w.end();
        }
        w.end();
        w.key("utilization");
        w.begin_object();
        w.field("begin_us", self.begin_us);
        w.field("bin_us", self.bin_us);
        w.key("workers");
        w.begin_array();
        for timeline in &self.utilization {
            w.begin_array();
            for busy in &timeline.busy {
                w.value(format_args!("{busy:.3}"));
            }
            w.end();
        }
        w.end();
        w.end();
        w.key("histograms");
        w.begin_object();
        for (key, h) in [
            ("task_duration_us", &self.task_duration),
            ("steal_latency_us", &self.steal_latency),
        ] {
            w.key(key);
            w.begin_object();
            for (key, values) in [("bounds_us", h.bounds()), ("counts", h.bucket_counts())] {
                w.key(key);
                w.begin_array();
                values.iter().for_each(|v| w.value(v));
                w.end();
            }
            w.field("sum_us", h.sum());
            w.field("count", h.count());
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// Renders the profiler's Prometheus families: task-duration and
    /// steal-latency histograms (`_bucket`/`_sum`/`_count`), per-task
    /// summary gauges (label values escaped per the exposition format),
    /// and per-iteration work/span/parallelism gauges.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.task_duration.render_into(
            &mut out,
            "rustflow_task_duration_us",
            "Distribution of task execution durations in microseconds.",
        );
        self.steal_latency.render_into(
            &mut out,
            "rustflow_steal_latency_us",
            "Distribution of steal latencies in microseconds.",
        );
        type PerTask = fn(&NodeProfile) -> u64;
        let per_task: [(&str, &str, &str, PerTask); 2] = [
            (
                "rustflow_task_total_us",
                "Total execution time per task.",
                "gauge",
                |n| n.total_us,
            ),
            (
                "rustflow_task_executions_total",
                "Executions per task.",
                "counter",
                |n| n.count,
            ),
        ];
        for (name, help, kind, get) in per_task {
            prom::header(&mut out, name, help, kind);
            for n in &self.nodes {
                let labels = prom::labels(&[("task", &n.identity)]);
                prom::sample(&mut out, name, &labels, get(n));
            }
        }
        type PerIteration = fn(&IterationProfile) -> f64;
        let per_iteration: [(&str, &str, PerIteration); 3] = [
            (
                "rustflow_iteration_work_us",
                "Work (sum of span durations) per iteration.",
                |it| it.work_us as f64,
            ),
            (
                "rustflow_iteration_span_us",
                "Critical-path length per iteration.",
                |it| it.span_us as f64,
            ),
            (
                "rustflow_iteration_parallelism",
                "Work/span parallelism per iteration.",
                |it| it.parallelism,
            ),
        ];
        for (name, help, get) in per_iteration {
            prom::header(&mut out, name, help, "gauge");
            for it in &self.iterations {
                let labels = prom::labels(&[
                    ("topology", &it.topology.to_string()),
                    ("iteration", &it.iteration.to_string()),
                ]);
                prom::sample(&mut out, name, &labels, format_args!("{:.3}", get(it)));
            }
        }
        out
    }
}

/// Work/span analysis of one iteration's spans (`members` indexes into
/// `spans`). Returns an [`IterationProfile`] with `run`/`topology`/
/// `iteration` left zeroed (the caller fills them in).
fn analyze_iteration(
    spans: &[TaskSpan],
    members: &[usize],
    by_id: &HashMap<u64, &SnapshotNode>,
    preds: &HashMap<u64, Vec<u64>>,
    num_lanes: usize,
) -> IterationProfile {
    // Topological order for the DP: sort by begin time. In any valid
    // schedule a dependency's source ended (hence began) before its target
    // began, so restricting edges to earlier-beginning spans keeps the
    // graph acyclic even under timestamp ties or clock anomalies.
    let mut order: Vec<usize> = members.to_vec();
    order.sort_by_key(|&i| (spans[i].begin_us, spans[i].end_us, spans[i].node));
    let pos: HashMap<u64, usize> = order
        .iter()
        .enumerate()
        .map(|(k, &i)| (spans[i].node, k))
        .collect();

    let executed: HashSet<u64> = order.iter().map(|&i| spans[i].node).collect();
    // Dependency edges of span k (indexes into `order`), from:
    //   1. frozen structure: snapshot predecessors that executed;
    //   2. spawn edges: parent → child for subflow children;
    //   3. join edges: child → each executed successor of its parent
    //      (a joined parent's completion — and so its successors — waits
    //      for every child).
    let pred_positions = |k: usize| -> Vec<usize> {
        let s = &spans[order[k]];
        let mut out = Vec::new();
        let mut push = |id: u64| {
            if let Some(&p) = pos.get(&id) {
                if p < k {
                    out.push(p);
                }
            }
        };
        if let Some(ps) = preds.get(&s.node) {
            for &p in ps {
                if executed.contains(&p) {
                    push(p);
                }
            }
        }
        if s.parent != 0 {
            push(s.parent);
        }
        // Join edges land on the *successor*: for span s with parent q,
        // successors of q executed in this run depend on s. Handled from
        // the successor's side: nothing to do here — see below.
        out
    };
    // Join edges are easier gathered per successor: for each span v whose
    // structural predecessors include a parent-with-children q, every
    // child of q also precedes v. Build the children index first.
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for &i in &order {
        let s = &spans[i];
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(pos[&s.node]);
        }
    }

    let n = order.len();
    let mut cp = vec![0u64; n];
    let mut from: Vec<Option<usize>> = vec![None; n];
    for k in 0..n {
        let mut best: Option<(u64, usize)> = None;
        let mut consider = |p: usize| {
            if p < k {
                match best {
                    Some((w, _)) if w >= cp[p] => {}
                    _ => best = Some((cp[p], p)),
                }
            }
        };
        for p in pred_positions(k) {
            consider(p);
        }
        // Join edges: if a structural predecessor spawned joined children,
        // they all precede this span too.
        if let Some(ps) = preds.get(&spans[order[k]].node) {
            for &q in ps {
                if let Some(kids) = children.get(&q) {
                    for &p in kids {
                        consider(p);
                    }
                }
            }
        }
        let dur = spans[order[k]].duration_us();
        match best {
            Some((w, p)) => {
                cp[k] = w + dur;
                from[k] = Some(p);
            }
            None => cp[k] = dur,
        }
    }

    let work_us: u64 = order.iter().map(|&i| spans[i].duration_us()).sum();
    let begin = order.iter().map(|&i| spans[i].begin_us).min().unwrap_or(0);
    let end = order.iter().map(|&i| spans[i].end_us).max().unwrap_or(0);
    let wall_us = end.saturating_sub(begin);
    let (span_us, tail) = cp
        .iter()
        .copied()
        .zip(0..)
        .max_by_key(|&(w, _)| w)
        .unwrap_or((0, 0));

    // Backtrack the critical path.
    let mut critical_nodes = Vec::new();
    let mut cur = (n > 0).then_some(tail);
    while let Some(k) = cur {
        critical_nodes.push(spans[order[k]].node);
        cur = from[k];
    }
    critical_nodes.reverse();
    let critical_path = critical_nodes
        .iter()
        .map(|id| {
            let k = pos[id];
            let s = &spans[order[k]];
            if !s.label.is_empty() {
                s.label.clone()
            } else if let Some(n) = by_id.get(id) {
                match n.static_index {
                    Some(i) => format!("task{i}"),
                    None => "(subflow)".to_string(),
                }
            } else {
                "(subflow)".to_string()
            }
        })
        .collect();

    let parallelism = if span_us == 0 {
        0.0
    } else {
        work_us as f64 / span_us as f64
    };
    let achieved_speedup = if wall_us == 0 {
        0.0
    } else {
        work_us as f64 / wall_us as f64
    };
    IterationProfile {
        run: 0,
        topology: 0,
        iteration: 0,
        tasks: n,
        work_us,
        span_us,
        wall_us,
        parallelism,
        achieved_speedup,
        brent_speedup: parallelism.min(num_lanes as f64),
        critical_path,
        critical_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TaskLabel;
    use crate::observer::TaskSpanInfo;

    fn begin(worker: usize, ts: u64, node: u64, parent: u64, run: u64, label: &str) -> SchedEvent {
        SchedEvent {
            worker,
            ts_us: ts,
            label: TaskLabel::new(label),
            kind: SchedEventKind::TaskBegin {
                span: TaskSpanInfo { node, parent, run },
            },
        }
    }

    fn end(worker: usize, ts: u64, node: u64, parent: u64, run: u64, label: &str) -> SchedEvent {
        SchedEvent {
            worker,
            ts_us: ts,
            label: TaskLabel::new(label),
            kind: SchedEventKind::TaskEnd {
                span: TaskSpanInfo { node, parent, run },
            },
        }
    }

    fn snapshot(edges: &[(u64, u64)], nodes: &[(u64, &str)]) -> GraphSnapshot {
        GraphSnapshot {
            nodes: nodes
                .iter()
                .enumerate()
                .map(|(i, &(id, label))| SnapshotNode {
                    id,
                    label: label.to_string(),
                    successors: edges
                        .iter()
                        .filter(|&&(f, _)| f == id)
                        .map(|&(_, t)| t)
                        .collect(),
                    static_index: Some(i),
                })
                .collect(),
        }
    }

    #[test]
    fn empty_events_give_empty_report() {
        let r = ProfileReport::build(&GraphSnapshot::default(), &[], 4, 0);
        assert!(r.iterations.is_empty());
        assert!(r.nodes.is_empty());
        assert_eq!(r.total_work_us, 0);
        let json = r.to_json();
        assert!(json.contains("\"schema_version\": 1"));
    }

    #[test]
    fn single_chain_span_equals_work() {
        // a(10) -> b(20): work 30, span 30, parallelism 1.
        let snap = snapshot(&[(1, 2)], &[(1, "a"), (2, "b")]);
        let events = vec![
            begin(0, 0, 1, 0, 7, "a"),
            end(0, 10, 1, 0, 7, "a"),
            begin(0, 10, 2, 0, 7, "b"),
            end(0, 30, 2, 0, 7, "b"),
        ];
        let r = ProfileReport::build(&snap, &events, 2, 0);
        assert_eq!(r.iterations.len(), 1);
        let it = &r.iterations[0];
        assert_eq!(it.work_us, 30);
        assert_eq!(it.span_us, 30);
        assert_eq!(it.critical_path, vec!["a", "b"]);
        assert!((it.parallelism - 1.0).abs() < 1e-9);
    }
}
