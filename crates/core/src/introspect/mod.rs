//! Live introspection: an always-on collector, embedded HTTP endpoints,
//! a flight recorder, and a stall watchdog.
//!
//! Everything here is **off until asked for**. Calling
//! [`Executor::serve_introspection`](crate::Executor::serve_introspection)
//! (or [`start_introspection`](crate::Executor::start_introspection) for
//! the in-process API without a socket) installs a dedicated
//! [`Tracer`] as an observer, flips one executor-wide flag, and spawns:
//!
//! * a **collector thread** that every [`IntrospectConfig::collect_period`]
//!   drains the per-worker event rings into a bounded, time-windowed
//!   [flight recorder](recorder) and runs the [watchdog] sweep;
//! * optionally an **HTTP acceptor** ([server]) exposing `GET /metrics`
//!   (Prometheus text), `GET /status` (JSON scheduler snapshot), and
//!   `GET /trace?last_ms=N` (Chrome-trace JSON of the recent window).
//!
//! The only hot-path costs while enabled are the ring pushes the tracer
//! already paid for under any observer, plus one relaxed flag load and a
//! per-task `Mutex<Option<CurrentTask>>` store publishing what each
//! worker is running (uncontended except when a scrape reads it). With
//! introspection off, the flag load is all that remains.
//!
//! All timestamps across `/status`, `/trace`, ring events, and profiler
//! spans share one process-wide monotonic origin ([`crate::clock`]), so
//! readings from different endpoints can be correlated directly.

mod recorder;
mod server;
mod watchdog;

pub use watchdog::{WatchdogCounts, WatchdogDiagnostic};

use crate::executor::{Executor, Inner};
use crate::label::TaskLabel;
use crate::observer::{chrome_trace_json_from, ExecutorObserver, Tracer};
use crate::stats::{lane_labels, ExecutorStats, LANE_METRICS, TENANT_METRICS};
use crate::wire::{json, prom};
use parking_lot::Mutex;
use recorder::FlightRecorder;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use watchdog::{Watchdog, WatchdogPass, WATCHDOG_METRICS};

/// What a worker is running *right now*; published into
/// `WorkerShared.current` at task entry and cleared at exit, read by
/// `/status` and the worker-stall watchdog.
#[derive(Debug, Clone)]
pub(crate) struct CurrentTask {
    /// The task's label (cloning is a refcount bump).
    pub(crate) label: TaskLabel,
    /// Opaque node id (stable for the topology's lifetime).
    pub(crate) node: u64,
    /// Uid of the topology the task belongs to.
    pub(crate) topology: u64,
    /// Task entry time, µs since the process clock origin.
    pub(crate) since_us: u64,
}

/// Tuning knobs for the introspection service.
///
/// The defaults keep a ten-second flight-recorder window under a fixed
/// ~9 MiB budget and detect stalls within about a second; see
/// `DESIGN.md` for the budget math.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct IntrospectConfig {
    /// How often the collector drains the event rings and runs the
    /// watchdog sweep.
    pub collect_period: Duration,
    /// Flight-recorder retention window: `/trace` can look back at most
    /// this far.
    pub window: Duration,
    /// Flight-recorder memory budget, in events; the oldest events are
    /// evicted (and counted) beyond it.
    pub max_events: usize,
    /// A worker stuck in one task invocation — or a dispatched topology
    /// frozen while the executor is idle — for at least this long trips
    /// the watchdog.
    pub stall_threshold: Duration,
    /// Capacity of each per-worker event ring, in events (rounded up to
    /// a power of two).
    pub ring_capacity: usize,
}

impl Default for IntrospectConfig {
    fn default() -> IntrospectConfig {
        IntrospectConfig {
            collect_period: Duration::from_millis(100),
            window: Duration::from_secs(10),
            max_events: 1 << 17,
            stall_threshold: Duration::from_secs(1),
            ring_capacity: 1 << 15,
        }
    }
}

/// Shared introspection state: the tracer feeding the flight recorder,
/// the watchdog, and the renderers behind every endpoint.
///
/// Holds the executor core only weakly — the executor owns *us* (via
/// `Inner.introspect`), so a strong reference would leak the whole
/// scheduler.
pub(crate) struct IntrospectState {
    inner: Weak<Inner>,
    num_workers: usize,
    /// Workers plus guest seats: what sizes every per-lane array here.
    num_lanes: usize,
    tracer: Arc<Tracer>,
    recorder: FlightRecorder,
    watchdog: Watchdog,
    /// Serializes collection passes and owns watchdog bookkeeping.
    pass: Mutex<WatchdogPass>,
    /// Previous `/status` scrape's counters, for since-last-scrape deltas.
    last_scrape: Mutex<Vec<crate::stats::WorkerStats>>,
    stop: AtomicBool,
    local_addr: Option<SocketAddr>,
    config: IntrospectConfig,
}

impl IntrospectState {
    /// The tracer installed as this executor's introspection observer.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The watchdog, for diagnostic sources outside the collection pass
    /// (the executor's breaker transitions).
    pub(crate) fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Asks the collector and HTTP threads to exit (the executor joins
    /// them in its `Drop`).
    pub(crate) fn request_stop(&self) {
        // ORDERING: Release publishes all pre-stop state (final ring
        // drains, flight-recorder writes) to the exiting threads.
        self.stop.store(true, Ordering::Release);
    }

    pub(crate) fn stopped(&self) -> bool {
        // ORDERING: Acquire pairs with `request_stop`'s Release.
        self.stop.load(Ordering::Acquire)
    }

    /// One synchronous collection pass, if the executor is still alive.
    fn collect_pass(&self) {
        if let Some(inner) = self.inner.upgrade() {
            self.collect_pass_with(&inner);
        }
    }

    /// Drain rings → flight recorder, then run the watchdog sweep.
    fn collect_pass_with(&self, inner: &Inner) {
        let mut pass = self.pass.lock();
        let now = crate::clock::now_us();
        self.recorder.absorb(self.tracer.drain_events(), now);
        watchdog::check(
            &mut pass,
            &self.watchdog,
            inner,
            &self.tracer,
            self.config.stall_threshold.as_micros() as u64,
            now,
        );
    }

    /// The `/metrics` body: worker counters plus live gauges and the
    /// introspection-specific families.
    pub(crate) fn metrics_text(&self) -> String {
        let Some(inner) = self.inner.upgrade() else {
            return String::new();
        };
        let stats = ExecutorStats {
            workers: inner.worker_stats(),
            tenants: inner.tenant_stats(),
        };
        let mut out = stats.prometheus_text();
        // Lanes from `num_workers` up are guest seats.
        let lane = |w: usize| lane_labels(w, w >= self.num_workers);
        let queue_depth = "rustflow_queue_depth";
        let help = "Tasks currently queued in each lane's deque.";
        prom::header(&mut out, queue_depth, help, "gauge");
        for (w, s) in inner.shareds.iter().enumerate() {
            prom::sample(&mut out, queue_depth, &lane(w), s.stealer.len());
        }
        let ring_fill = "rustflow_ring_fill";
        let help = "Telemetry events waiting in each lane's ring.";
        prom::header(&mut out, ring_fill, help, "gauge");
        for (w, fill) in self
            .tracer
            .lane_fill()
            .iter()
            .take(self.num_lanes)
            .enumerate()
        {
            prom::sample(&mut out, ring_fill, &lane(w), fill);
        }
        let singles: &[(&str, &str, &str, u64)] = &[
            (
                "rustflow_injector_depth",
                "Tasks waiting in the external injector queue.",
                "gauge",
                inner.injector.len() as u64,
            ),
            (
                "rustflow_injector_spills_total",
                "Pushes that overflowed the injector ring into its mutexed spill queue.",
                "counter",
                inner.injector.spilled_total(),
            ),
            (
                "rustflow_parked_workers",
                "Workers currently parked on the idler list.",
                "gauge",
                inner.notifier.num_idlers() as u64,
            ),
            (
                "rustflow_inflight_topologies",
                "Topologies dispatched and not yet finalized.",
                "gauge",
                inner.running.lock().len() as u64,
            ),
            (
                "rustflow_flight_recorder_events",
                "Events currently retained by the flight recorder.",
                "gauge",
                self.recorder.len() as u64,
            ),
            (
                "rustflow_flight_recorder_dropped_total",
                "Events evicted by the flight-recorder memory budget before aging out.",
                "counter",
                self.recorder.evicted(),
            ),
        ];
        for (name, help, kind, value) in singles {
            prom::header(&mut out, name, help, kind);
            prom::sample(&mut out, name, "", value);
        }
        let watchdog = self.watchdog.counts();
        for m in WATCHDOG_METRICS {
            prom::header(&mut out, m.name, m.help, m.kind);
            prom::sample(&mut out, m.name, "", (m.get)(&watchdog));
        }
        // Per-tenant × per-phase latency histograms, merged from the
        // lock-free shards at scrape time. One header covers every
        // labelled series of the family (like the tenant counters, the
        // family renders only when the front door is in use).
        let latency = inner.tenant_latency();
        if !latency.is_empty() {
            let name = "rustflow_tenant_latency_us";
            let help = "Run lifecycle latency by tenant and phase \
                        (admission, queue, dispatch, exec, e2e), in microseconds.";
            prom::header(&mut out, name, help, "histogram");
            for t in &latency {
                for (phase, hist) in &t.phases {
                    let labels = prom::labels(&[("tenant", &t.name), ("phase", phase)]);
                    hist.render_labelled_into(&mut out, name, &labels);
                }
            }
        }
        out
    }

    /// The `/status` body: a JSON snapshot of workers (including what
    /// each is running right now) and in-flight topologies.
    pub(crate) fn status_json(&self) -> String {
        let Some(inner) = self.inner.upgrade() else {
            return "{}".to_string();
        };
        let now = crate::clock::now_us();
        let stats = inner.worker_stats();
        let deltas: Vec<crate::stats::WorkerStats> = {
            let mut last = self.last_scrape.lock();
            let d = stats
                .iter()
                .enumerate()
                .map(|(w, s)| match last.get(w) {
                    Some(prev) => s.delta(prev),
                    None => s.clone(),
                })
                .collect();
            *last = stats.clone();
            d
        };
        let ring_dropped_total: u64 = self.tracer.dropped_per_lane().iter().sum();
        let mut w = json::Writer::compact();
        w.begin_object();
        w.field("schema", 1);
        w.field("now_us", now);
        w.field("num_workers", self.num_workers);
        w.field("num_lanes", self.num_lanes);
        w.field("parked_workers", inner.notifier.num_idlers());
        w.field("injector_depth", inner.injector.len());
        w.field("inflight_topologies", inner.running.lock().len());
        w.key("collector");
        w.begin_object();
        w.field("period_ms", self.config.collect_period.as_millis());
        w.field("window_ms", self.config.window.as_millis());
        w.field("recorder_events", self.recorder.len());
        w.field("recorder_dropped", self.recorder.evicted());
        w.field("ring_dropped_total", ring_dropped_total);
        w.end();
        let wd = self.watchdog.counts();
        w.key("watchdog");
        w.begin_object();
        for m in WATCHDOG_METRICS {
            w.field(m.key, (m.get)(&wd));
        }
        w.end();
        w.key("workers");
        w.begin_array();
        for (id, shared) in inner.shareds.iter().enumerate() {
            w.begin_object();
            w.field("id", id);
            w.field("guest", id >= self.num_workers);
            w.field("queue_depth", shared.stealer.len());
            w.key("running");
            let current = shared.current.lock().clone();
            match current {
                Some(ct) => {
                    w.begin_object();
                    w.field_str("label", ct.label.as_str());
                    w.field("node", ct.node);
                    w.field("topology", ct.topology);
                    w.field("since_us", ct.since_us);
                    w.field("running_for_us", now.saturating_sub(ct.since_us));
                    w.end();
                }
                None => w.value("null"),
            }
            // Every lane counter, under the same keys in both views.
            for (key, counters) in [("since_last_scrape", &deltas[id]), ("total", &stats[id])] {
                w.key(key);
                w.begin_object();
                for m in LANE_METRICS {
                    w.field(m.key, (m.get)(counters));
                }
                w.end();
            }
            w.end();
        }
        w.end();
        w.key("tenants");
        w.begin_array();
        let latency = inner.tenant_latency();
        for t in inner.tenant_stats() {
            w.begin_object();
            w.field_str("name", &t.name);
            w.field("weight", t.weight);
            // Gauges, then counters; the breaker's state goes by name below.
            for kind in ["gauge", "counter"] {
                let of_kind = |m: &&crate::stats::Metric<_>| m.kind == kind;
                for m in TENANT_METRICS.iter().filter(of_kind) {
                    if m.key != "breaker_state" {
                        w.field(m.key, (m.get)(&t));
                    }
                }
            }
            w.key("breaker");
            w.begin_object();
            w.field_str(
                "state",
                crate::BreakerState::from_word(t.breaker_state).as_str(),
            );
            w.field("consecutive_failures", t.consecutive_failures);
            w.end();
            // Matched by name, not index: the stats and latency snapshots
            // come from two separate lock acquisitions, so a tenant
            // created in between could skew positions.
            if let Some(lat) = latency.iter().find(|l| l.name == t.name) {
                w.key("slo");
                match lat.slo {
                    Some(slo) => {
                        w.begin_object();
                        w.field("p99_us", slo.p99_us);
                        w.field("window_ms", slo.window.as_millis());
                        w.end();
                    }
                    None => w.value("null"),
                }
                w.key("latency_us");
                w.begin_object();
                for (phase, hist) in &lat.phases {
                    w.key(phase);
                    w.begin_object();
                    w.field("count", hist.count());
                    for (key, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
                        w.field(key, format_args!("{:.1}", hist.percentile(q)));
                    }
                    w.end();
                }
                w.end();
            }
            w.end();
        }
        w.end();
        w.key("topologies");
        w.begin_array();
        let running: Vec<_> = inner.running.lock().topologies();
        for topo in &running {
            let state = if topo.is_cancelled() {
                "cancelled"
            } else if topo.is_settled() {
                "finalizing"
            } else {
                "running"
            };
            w.begin_object();
            w.field("topology", topo.uid());
            w.field("run", topo.run_id());
            w.field("iteration", topo.iterations());
            w.field("alive", topo.alive_count());
            w.field("pending_batches", topo.pending_batches());
            w.field("has_error", topo.has_error());
            w.field_str("state", state);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// The `/trace` body: Chrome-trace JSON for the last `last` of
    /// activity (clamped to the retention window). Runs a collection
    /// pass first so the window includes events still in the rings.
    pub(crate) fn trace_json(&self, last: Duration) -> String {
        self.collect_pass();
        let now = crate::clock::now_us();
        let last_us = u64::try_from(last.as_micros()).unwrap_or(u64::MAX);
        let events = self.recorder.window(last_us, now);
        chrome_trace_json_from(&events, self.num_lanes)
    }
}

/// A live handle to a running introspection service.
///
/// Returned by
/// [`Executor::serve_introspection`](crate::Executor::serve_introspection)
/// and [`Executor::start_introspection`](crate::Executor::start_introspection).
/// Every accessor works whether or not an HTTP listener was bound — the
/// endpoints are just these methods behind a socket. The handle is a
/// passive view: dropping it does not stop the service (the executor
/// owns the threads and stops them in its own `Drop`).
#[derive(Clone)]
pub struct IntrospectHandle {
    state: Arc<IntrospectState>,
}

impl IntrospectHandle {
    /// The bound HTTP address, if a listener was requested. With an
    /// ephemeral port (`"127.0.0.1:0"`), this is where to point `curl`.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.state.local_addr
    }

    /// Runs one collection pass synchronously: drains the event rings
    /// into the flight recorder and performs a watchdog sweep. Useful in
    /// tests for deterministic timing; the background collector does the
    /// same thing every [`IntrospectConfig::collect_period`].
    pub fn force_collect(&self) {
        self.state.collect_pass();
    }

    /// The Prometheus text exposition served at `GET /metrics`.
    pub fn metrics_text(&self) -> String {
        self.state.metrics_text()
    }

    /// The JSON scheduler snapshot served at `GET /status`.
    pub fn status_json(&self) -> String {
        self.state.status_json()
    }

    /// The Chrome-trace JSON served at `GET /trace?last_ms=N`, covering
    /// the last `last` of activity (clamped to the retention window).
    pub fn trace_json(&self, last: Duration) -> String {
        self.state.trace_json(last)
    }

    /// Registers a callback invoked (on the collector thread) for every
    /// [`WatchdogDiagnostic`] the watchdog emits. Keep callbacks cheap —
    /// they run inside the collection pass.
    pub fn subscribe_watchdog(&self, f: impl Fn(&WatchdogDiagnostic) + Send + Sync + 'static) {
        self.state.watchdog.subscribe(Box::new(f));
    }

    /// Cumulative watchdog trip counts since introspection started.
    pub fn watchdog_counts(&self) -> WatchdogCounts {
        self.state.watchdog.counts()
    }

    /// Events currently retained by the flight recorder.
    pub fn flight_recorder_len(&self) -> usize {
        self.state.recorder.len()
    }

    /// Events evicted by the flight-recorder budget before aging out of
    /// the window.
    pub fn flight_recorder_dropped(&self) -> u64 {
        self.state.recorder.evicted()
    }

    /// Telemetry events lost to ring overflow, summed across workers.
    pub fn ring_dropped(&self) -> u64 {
        self.state.tracer.dropped_per_lane().iter().sum()
    }
}

impl std::fmt::Debug for IntrospectHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntrospectHandle")
            .field("local_addr", &self.state.local_addr)
            .field("num_workers", &self.state.num_workers)
            .field("recorder_events", &self.state.recorder.len())
            .finish()
    }
}

/// Installs the introspection service on `executor`: registers the
/// tracer observer, flips the live flag, and spawns the collector (and,
/// with a listener, the HTTP acceptor). Fails with `AlreadyExists` if
/// the executor already has one.
pub(crate) fn start(
    executor: &Executor,
    inner: &Arc<Inner>,
    config: IntrospectConfig,
    listener: Option<TcpListener>,
) -> std::io::Result<IntrospectHandle> {
    let num_lanes = inner.shareds.len();
    let state = {
        let mut slot = inner.introspect.write();
        if slot.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "introspection service already running on this executor",
            ));
        }
        let window_us = u64::try_from(config.window.as_micros()).unwrap_or(u64::MAX);
        let state = Arc::new(IntrospectState {
            inner: Arc::downgrade(inner),
            num_workers: inner.num_workers,
            num_lanes,
            tracer: Arc::new(Tracer::with_capacity(num_lanes, config.ring_capacity).lossy()),
            recorder: FlightRecorder::new(window_us, config.max_events),
            watchdog: Watchdog::new(),
            pass: Mutex::new(WatchdogPass::new(num_lanes)),
            last_scrape: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            local_addr: listener.as_ref().and_then(|l| l.local_addr().ok()),
            config,
        });
        *slot = Some(Arc::clone(&state));
        state
    };
    executor.observe(Arc::clone(&state.tracer) as Arc<dyn ExecutorObserver>);
    // ORDERING: Release — the service state installed above is visible to
    // any worker whose Relaxed `live` load observes the flag.
    inner.introspect_live.store(true, Ordering::Release);

    let mut threads = Vec::with_capacity(2);
    {
        let inner = Arc::clone(inner);
        let state = Arc::clone(&state);
        threads.push(
            std::thread::Builder::new()
                .name("rustflow-introspect".into())
                .spawn(move || collector_loop(&inner, &state))?,
        );
    }
    if let Some(listener) = listener {
        let state = Arc::clone(&state);
        threads.push(
            std::thread::Builder::new()
                .name("rustflow-introspect-http".into())
                .spawn(move || server::serve(listener, state))?,
        );
    }
    executor.adopt_aux_threads(threads);
    Ok(IntrospectHandle { state })
}

/// The collector thread: one pass per period, sleeping in short chunks
/// so shutdown is prompt, with a final pass after stop so nothing left
/// in the rings is lost.
fn collector_loop(inner: &Arc<Inner>, state: &Arc<IntrospectState>) {
    let period = state.config.collect_period;
    while !state.stopped() {
        state.collect_pass_with(inner);
        let mut remaining = period;
        while !state.stopped() && !remaining.is_zero() {
            let step = remaining.min(Duration::from_millis(20));
            std::thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
    }
    state.collect_pass_with(inner);
}
