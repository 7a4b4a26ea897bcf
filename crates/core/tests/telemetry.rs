//! Integration tests of the scheduler telemetry stack: per-worker event
//! rings under stress, lifecycle observer semantics (subflows, panics,
//! concurrent install/remove), Prometheus export, and Chrome-trace JSON
//! validity.

use rustflow::wire::{json, prom};
use rustflow::{
    Executor, ExecutorBuilder, ExecutorObserver, ExecutorStats, IntrospectConfig, SchedEventKind,
    SloSpec, TaskLabel, Taskflow, Tenant, TenantQos, Tracer,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Ring stress: 8 workers, 100k tasks, no shared-lock record path
// ---------------------------------------------------------------------------

#[test]
fn stress_eight_workers_hundred_k_tasks_accounted() {
    const TASKS: usize = 100_000;
    let ex = Executor::new(8);
    let tracer = Arc::new(Tracer::new(8));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);

    // Drain concurrently with recording, as a real exporter would.
    let stop = Arc::new(AtomicUsize::new(0));
    let drainer = {
        let tracer = Arc::clone(&tracer);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while stop.load(Ordering::Acquire) == 0 {
                tracer.collect();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let counter = Arc::new(AtomicUsize::new(0));
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..TASKS {
        let c = Arc::clone(&counter);
        tf.emplace(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    tf.wait_for_all();
    stop.store(1, Ordering::Release);
    drainer.join().unwrap();

    assert_eq!(counter.load(Ordering::Relaxed), TASKS);
    let events = tracer.sched_events();
    let entries = events
        .iter()
        .filter(|e| matches!(e.kind, SchedEventKind::TaskBegin { .. }))
        .count();
    let exits = events
        .iter()
        .filter(|e| matches!(e.kind, SchedEventKind::TaskEnd { .. }))
        .count();
    let dropped = tracer.dropped() as usize;
    // Every task produced an entry and an exit; each was either collected
    // or counted as dropped when its ring was momentarily full.
    assert!(
        entries + exits + dropped >= 2 * TASKS,
        "lost events beyond ring capacity: {entries} entries + {exits} exits + {dropped} dropped < {}",
        2 * TASKS
    );
    assert!(entries <= TASKS && exits <= TASKS);
    if dropped == 0 {
        assert_eq!(entries, TASKS);
        assert_eq!(exits, TASKS);
    }
    // The executed counters are exact regardless of ring pressure.
    let total = ex.stats().total();
    assert_eq!(total.executed, TASKS as u64);
}

#[test]
fn small_rings_flush_instead_of_dropping() {
    const TASKS: usize = 5_000;
    let ex = Executor::new(4);
    let tracer = Arc::new(Tracer::with_capacity(4, 64));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(ex);
    for _ in 0..TASKS {
        tf.emplace(|| {});
    }
    tf.wait_for_all();
    // 64-slot rings overflow constantly here, but the record path drains
    // the full lane into the archive and retries instead of discarding, so
    // every begin/end pair survives.
    let events = tracer.sched_events();
    let begins = events
        .iter()
        .filter(|e| matches!(e.kind, SchedEventKind::TaskBegin { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|e| matches!(e.kind, SchedEventKind::TaskEnd { .. }))
        .count();
    assert_eq!(tracer.dropped(), 0, "overflow must flush, not drop");
    assert_eq!(begins, TASKS);
    assert_eq!(ends, TASKS);
}

// ---------------------------------------------------------------------------
// Observer semantics
// ---------------------------------------------------------------------------

/// Records entry/exit label strings in order.
#[derive(Default)]
struct LogObserver {
    entries: parking_lot::Mutex<Vec<String>>,
    exits: parking_lot::Mutex<Vec<String>>,
}

impl ExecutorObserver for LogObserver {
    fn on_entry(&self, _worker: usize, label: &TaskLabel) {
        self.entries.lock().push(label.to_string());
    }
    fn on_exit(&self, _worker: usize, label: &TaskLabel) {
        self.exits.lock().push(label.to_string());
    }
}

#[test]
fn observers_see_joined_subflow_children() {
    let ex = Executor::new(4);
    let log = Arc::new(LogObserver::default());
    ex.observe(Arc::clone(&log) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(ex);
    tf.emplace_subflow(|sf| {
        for i in 0..4 {
            sf.emplace(|| {}).name(format!("child{i}"));
        }
        // joined by default
    })
    .name("parent");
    tf.wait_for_all();
    let entries = log.entries.lock().clone();
    let exits = log.exits.lock().clone();
    assert_eq!(entries.len(), 5, "parent + 4 children entered: {entries:?}");
    assert_eq!(exits.len(), 5);
    for i in 0..4 {
        let name = format!("child{i}");
        assert_eq!(entries.iter().filter(|e| **e == name).count(), 1);
        assert_eq!(exits.iter().filter(|e| **e == name).count(), 1);
    }
    // The parent's exit hook fires when its callable returns, before the
    // joined children run to completion — so the parent entry comes first
    // and every child entry follows it.
    assert_eq!(entries[0], "parent");
}

#[test]
fn observers_see_detached_subflow_children() {
    let ex = Executor::new(4);
    let log = Arc::new(LogObserver::default());
    ex.observe(Arc::clone(&log) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(ex);
    tf.emplace_subflow(|sf| {
        for i in 0..3 {
            sf.emplace(|| {}).name(format!("det{i}"));
        }
        sf.detach();
    })
    .name("parent");
    tf.wait_for_all();
    let entries = log.entries.lock().clone();
    let exits = log.exits.lock().clone();
    assert_eq!(
        entries.len(),
        4,
        "parent + 3 detached children: {entries:?}"
    );
    assert_eq!(exits.len(), 4);
    for i in 0..3 {
        assert!(entries.iter().any(|e| *e == format!("det{i}")));
    }
}

#[test]
fn on_exit_fires_even_when_task_panics() {
    let ex = Executor::new(2);
    let log = Arc::new(LogObserver::default());
    ex.observe(Arc::clone(&log) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(ex);
    tf.emplace(|| panic!("boom")).name("bomb");
    tf.emplace(|| {}).name("fine");
    assert!(tf.try_wait_for_all().is_err());
    let entries = log.entries.lock().clone();
    let exits = log.exits.lock().clone();
    assert_eq!(entries.len(), 2);
    assert_eq!(exits.len(), 2, "exit must fire for the panicking task too");
    assert!(exits.iter().any(|e| e == "bomb"));
}

/// An observer whose `on_entry` panics on its third call.
#[derive(Default)]
struct FaultyObserver {
    entries: AtomicUsize,
}

impl ExecutorObserver for FaultyObserver {
    fn on_entry(&self, _worker: usize, _label: &TaskLabel) {
        if self.entries.fetch_add(1, Ordering::SeqCst) == 2 {
            panic!("observer hook fault");
        }
    }
}

/// A panicking hook is the observer's fault, not the task's: the lane that
/// called it goes on, the run resolves `Ok`, and the observer stays
/// installed and sees every later task.
#[test]
fn a_panicking_hook_neither_kills_its_lane_nor_wedges_the_run() {
    const CHAIN: usize = 50;
    let ex = Executor::new(2);
    let faulty = Arc::new(FaultyObserver::default());
    ex.observe(Arc::clone(&faulty) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let mut prev = tf.emplace(|| {});
    for _ in 1..CHAIN {
        let next = tf.emplace(|| {});
        prev.precede(next);
        prev = next;
    }
    let run = tf.run_n(5);
    let outcome = run.future().get_timeout(std::time::Duration::from_secs(30));
    if outcome.is_none() {
        // A dead lane took its node with it: nothing finishes the run, and
        // the executor's destructor would wait for it forever.
        std::mem::forget(tf);
        std::mem::forget(ex);
        panic!("run_n(5) did not resolve within 30 s");
    }
    assert_eq!(outcome, Some(Ok(())));
    assert_eq!(faulty.entries.load(Ordering::SeqCst), 5 * CHAIN);
    assert_eq!(ex.stats().total().executed, 5 * CHAIN as u64);
}

#[test]
fn concurrent_observe_and_remove_does_not_deadlock() {
    let ex = Executor::new(4);
    let churn = {
        let ex = Arc::clone(&ex);
        std::thread::spawn(move || {
            for _ in 0..200 {
                ex.observe(Arc::new(LogObserver::default()) as Arc<dyn ExecutorObserver>);
                ex.observe(Arc::new(Tracer::new(4)) as Arc<dyn ExecutorObserver>);
                ex.remove_observers();
            }
        })
    };
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..20 {
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        for _ in 0..500 {
            let c = Arc::clone(&counter);
            tf.emplace(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        tf.wait_for_all();
    }
    churn.join().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 10_000);
}

#[test]
fn lifecycle_events_cover_algorithm_one() {
    let ex = ExecutorBuilder::new().workers(4).build();
    let tracer = Arc::new(Tracer::new(ex.num_lanes()));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    // A fan-out of chains: sources come from the injector (`run`, unlike
    // `wait_for_all`, leaves the graph to the workers), chains hit the
    // cache slot, and the uneven shape provokes steals and parks.
    for c in 0..32 {
        let mut prev = tf.emplace(|| {}).name(format!("head{c}"));
        for _ in 0..50 {
            let next = tf.emplace(|| {
                std::hint::black_box(0u64);
            });
            prev.precede(next);
            prev = next;
        }
    }
    // Every worker explores for a bounded while and then parks before the
    // dispatch, so the run starts from idlers.
    while ex.num_idlers() < ex.num_workers() {
        std::thread::yield_now();
    }
    tf.run().get().unwrap();
    let events = tracer.sched_events();
    let has = |f: &dyn Fn(&SchedEventKind) -> bool| events.iter().any(|e| f(&e.kind));
    assert!(has(&|k| matches!(k, SchedEventKind::TaskBegin { .. })));
    assert!(has(&|k| matches!(k, SchedEventKind::TaskEnd { .. })));
    // Schema v2: begin events carry node identity and a live run id.
    assert!(has(&|k| matches!(
        k,
        SchedEventKind::TaskBegin { span } if span.node != 0 && span.run != 0
    )));
    assert!(has(
        &|k| matches!(k, SchedEventKind::TopologyDispatch { tasks, .. } if *tasks == 32 * 51)
    ));
    assert!(has(&|k| matches!(
        k,
        SchedEventKind::TopologyFinalize { .. }
    )));
    assert!(has(&|k| matches!(k, SchedEventKind::CacheHit)));
    assert!(has(&|k| matches!(k, SchedEventKind::InjectorPop)));

    let total = ex.stats().total();
    assert_eq!(total.executed, 32 * 51);
    assert!(total.cache_hits > 0, "chains must use the cache slot");
    assert!(total.injector_pops > 0, "sources arrive via the injector");
    assert!(total.parks > 0, "workers idled before dispatch");
    // Dispatch/finalize identities pair up (run id and stable uid alike).
    let dispatched: Vec<rustflow::IterationInfo> = events
        .iter()
        .filter_map(|e| match e.kind {
            SchedEventKind::TopologyDispatch { info, .. } => Some(info),
            _ => None,
        })
        .collect();
    for id in dispatched {
        assert!(has(
            &|k| matches!(k, SchedEventKind::TopologyFinalize { info } if *info == id)
        ));
    }
}

/// A failed exploration is counted and traced once, not once per steal
/// round: an idle worker explores, reports one `StealFail`, parks, and
/// reports nothing more until it is woken. So over an idle stretch the
/// `StealFail` events number at most the parks plus one exploration in
/// progress per lane, where counting every round would write about a
/// hundred per park.
#[test]
fn an_idle_worker_reports_one_steal_fail_per_exploration() {
    let ex = ExecutorBuilder::new().workers(2).build();
    let tracer = Arc::new(Tracer::new(ex.num_lanes()));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let before = ex.stats();
    // Wake the workers under the tracer, then leave them idle.
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..8 {
        tf.emplace(|| {
            std::hint::black_box(0u64);
        });
    }
    tf.run().get().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(60));
    let events = tracer.sched_events();
    let count = |f: &dyn Fn(&SchedEventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    let fails = count(&|k| matches!(k, SchedEventKind::StealFail));
    let parks = count(&|k| matches!(k, SchedEventKind::Park));
    assert!(fails > 0, "the idle workers explored and found nothing");
    assert!(
        fails <= parks + ex.num_lanes(),
        "{fails} StealFail events for {parks} parks"
    );
    let delta = ex.stats().delta(&before).total();
    assert!(
        delta.steal_fails <= delta.parks + ex.num_lanes() as u64,
        "{} steal fails counted for {} parks",
        delta.steal_fails,
        delta.parks
    );
}

// ---------------------------------------------------------------------------
// Guest lanes: a helping caller is a lane like any worker
// ---------------------------------------------------------------------------

/// An observer that records what `on_observe` was told and which lanes
/// executed tasks.
#[derive(Default)]
struct LaneLog {
    observed_lanes: AtomicUsize,
    entered: std::sync::Mutex<Vec<usize>>,
}

impl ExecutorObserver for LaneLog {
    fn on_observe(&self, num_lanes: usize) {
        self.observed_lanes.store(num_lanes, Ordering::SeqCst);
    }
    fn on_entry(&self, lane: usize, _label: &TaskLabel) {
        self.entered.lock().unwrap().push(lane);
    }
}

/// A chain run by the caller of `wait_for_all` shows up under the
/// caller's guest lane everywhere a worker would: the observer hooks get
/// `num_workers + seat`, the Chrome trace has that `tid` (the dispatch
/// lane moves past the seats), and the profile draws its utilization.
#[test]
fn a_guest_lane_reaches_observers_traces_and_profiles() {
    let ex = Executor::new(2);
    let (workers, lanes) = (ex.num_workers(), ex.num_lanes());
    assert!(lanes > workers);
    let log = Arc::new(LaneLog::default());
    let tracer = Arc::new(Tracer::new(lanes));
    ex.observe(Arc::clone(&log) as Arc<dyn ExecutorObserver>);
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    assert_eq!(log.observed_lanes.load(Ordering::SeqCst), lanes);

    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let mut prev = tf.emplace(|| {}).name("link0");
    for i in 1..10 {
        let next = tf
            .emplace(|| std::thread::sleep(std::time::Duration::from_micros(50)))
            .name(format!("link{i}"));
        prev.precede(next);
        prev = next;
    }
    tf.wait_for_all();

    let entered = log.entered.lock().unwrap().clone();
    assert_eq!(entered.len(), 10);
    let guest = entered[0];
    assert!((workers..lanes).contains(&guest), "lane {guest}");
    assert!(entered.iter().all(|&l| l == guest), "{entered:?}");

    let trace = tracer.chrome_trace_json();
    assert_eq!(trace.matches("\"cat\":\"task\",\"ph\":\"X\"").count(), 10);
    assert_eq!(
        trace
            .matches(&format!("\"pid\":0,\"tid\":{guest}}}"))
            .count(),
        10
    );
    let dispatch = format!("\"pid\":0,\"tid\":{lanes},\"args\":{{\"topology\"");
    assert_eq!(trace.matches(&dispatch).count(), 2, "dispatch + finalize");

    // No reusable topology was frozen (`wait_for_all` is one-shot), so the
    // snapshot is empty; the utilization fold needs only the spans.
    let report = rustflow::ProfileReport::build(
        &tf.profile_snapshot(),
        &tracer.sched_events(),
        lanes,
        tracer.dropped(),
    );
    assert_eq!(report.utilization.len(), lanes);
    for timeline in &report.utilization {
        let busy: f64 = timeline.busy.iter().sum();
        assert_eq!(
            busy > 0.0,
            timeline.worker == guest,
            "lane {}",
            timeline.worker
        );
    }
}

// ---------------------------------------------------------------------------
// Prometheus export on a live executor
// ---------------------------------------------------------------------------

#[test]
fn prometheus_text_from_live_executor_parses() {
    let ex = Executor::new(3);
    let before = ex.stats();
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..600 {
        tf.emplace(|| {});
    }
    tf.wait_for_all();
    let after = ex.stats();
    let delta = after.delta(&before);
    assert_eq!(delta.total().executed, 600);
    assert_eq!(after.workers.len(), ex.num_lanes());

    // Every family is a counter with one sample per lane: the three
    // workers, then the guest seats (the caller of `wait_for_all` executed
    // some of the 600 on one), told apart by the `lane` label.
    let exposition = prom::parse(&after.prometheus_text()).expect("strict parse");
    for family in &exposition.families {
        assert_eq!(family.kind, "counter", "{}", family.name);
        assert_eq!(family.samples.len(), ex.num_lanes(), "{}", family.name);
        for (lane, sample) in family.samples.iter().enumerate() {
            assert_eq!(sample.label("worker"), Some(lane.to_string().as_str()));
            let expect_lane = if lane < 3 { "worker" } else { "guest" };
            assert_eq!(sample.label("lane"), Some(expect_lane));
        }
    }
    assert_eq!(exposition.total("rustflow_tasks_executed_total"), 600.0);
    for family in [
        "rustflow_tasks_executed_total",
        "rustflow_cache_hits_total",
        "rustflow_steals_total",
        "rustflow_steal_attempts_total",
        "rustflow_steal_failures_total",
        "rustflow_injector_pops_total",
        "rustflow_parks_total",
        "rustflow_wakes_sent_total",
        "rustflow_tasks_skipped_total",
        "rustflow_task_retries_total",
    ] {
        assert!(exposition.family(family).is_some(), "missing {family}");
    }
}

// ---------------------------------------------------------------------------
// Fault events (schema v3): skip / retry round-trip through the rings
// ---------------------------------------------------------------------------

#[test]
fn retry_events_round_trip_with_one_span_per_task() {
    assert_eq!(rustflow::SCHED_EVENT_SCHEMA_VERSION, 7);
    let ex = Executor::new(2);
    let tracer = Arc::new(Tracer::new(2));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&attempts);
    tf.emplace(move || {
        if a.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("flaky");
        }
    })
    .name("flaky")
    .retry(2);
    assert!(tf.try_wait_for_all().is_ok());
    let events = tracer.sched_events();
    // One retry event per re-execution, with monotonically rising attempt.
    let retry_attempts: Vec<u32> = events
        .iter()
        .filter(|e| e.label == "flaky")
        .filter_map(|e| match e.kind {
            SchedEventKind::TaskRetried { attempt } => Some(attempt),
            _ => None,
        })
        .collect();
    assert_eq!(retry_attempts, vec![1, 2]);
    // The begin/end pair brackets *all* attempts: exactly one span.
    let begins = events
        .iter()
        .filter(|e| e.label == "flaky" && matches!(e.kind, SchedEventKind::TaskBegin { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|e| e.label == "flaky" && matches!(e.kind, SchedEventKind::TaskEnd { .. }))
        .count();
    assert_eq!((begins, ends), (1, 1));
    // And the chrome trace renders the instants.
    let json = tracer.chrome_trace_json();
    assert!(json.contains("task-retried"));
    assert_eq!(ex.stats().total().retries, 2);
}

#[test]
fn skipped_tasks_emit_skip_events_and_no_span() {
    let ex = Executor::new(2);
    let tracer = Arc::new(Tracer::new(2));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let started = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&started);
    let gate = tf
        .emplace(move || {
            s.store(1, Ordering::SeqCst);
            while !rustflow::this_task::is_cancelled() {
                std::thread::yield_now();
            }
        })
        .name("gate");
    for i in 0..64 {
        let t = tf.emplace(|| unreachable!("skipped")).name(format!("s{i}"));
        gate.precede(t);
    }
    let run = tf.run();
    // Cancel only once the gate is live, so exactly its 64 successors
    // (and not the gate itself) take the skip path.
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    run.cancel();
    assert!(run.get().unwrap_err().is_cancelled());
    let events = tracer.sched_events();
    let skipped: Vec<&str> = events
        .iter()
        .filter(|e| matches!(e.kind, SchedEventKind::TaskSkipped))
        .map(|e| e.label.as_str())
        .collect();
    assert_eq!(skipped.len(), 64, "every successor skipped: {skipped:?}");
    // A skipped task produces no begin/end span at all.
    for label in skipped {
        assert!(!events.iter().any(|e| e.label == label
            && matches!(
                e.kind,
                SchedEventKind::TaskBegin { .. } | SchedEventKind::TaskEnd { .. }
            )));
    }
    assert!(tracer.chrome_trace_json().contains("task-skipped"));
    assert_eq!(ex.stats().total().skipped, 64);
}

#[test]
fn stats_delta_isolates_a_run() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..100 {
        tf.emplace(|| {});
    }
    tf.wait_for_all();
    let mid = ex.stats();
    let tf2 = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..40 {
        tf2.emplace(|| {});
    }
    tf2.wait_for_all();
    let end = ex.stats();
    assert_eq!(end.delta(&mid).total().executed, 40);
    assert_eq!(end.delta(&ExecutorStats::default()).total().executed, 140);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON round-trips through a real JSON parser
// ---------------------------------------------------------------------------

#[test]
fn chrome_trace_round_trips_through_json_parser() {
    let ex = Executor::new(4);
    let tracer = Arc::new(Tracer::new(4));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(ex);
    // Hostile names exercise the escaper end to end.
    tf.emplace(|| {}).name("a\"b\n\t\\c");
    tf.emplace(|| {}).name("plain");
    let mut prev = tf.emplace(|| {}).name("chain");
    for _ in 0..20 {
        let next = tf.emplace(|| {});
        prev.precede(next);
        prev = next;
    }
    tf.wait_for_all();

    let text = tracer.chrome_trace_json();
    let parsed = json::parse(&text).expect("exporter must emit valid JSON");
    let events = match parsed {
        json::Value::Arr(items) => items,
        other => panic!("top level must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    let mut saw_nasty = false;
    for e in &events {
        let fields = match e {
            json::Value::Obj(fields) => fields,
            other => panic!("each event must be an object, got {other:?}"),
        };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let ph = match get("ph") {
            Some(json::Value::Str(s)) => s.clone(),
            other => panic!("missing ph: {other:?}"),
        };
        assert!(matches!(ph.as_str(), "X" | "i"), "unknown phase {ph}");
        assert!(matches!(get("ts"), Some(json::Value::Num(_))));
        assert!(matches!(get("pid"), Some(json::Value::Num(_))));
        assert!(matches!(get("tid"), Some(json::Value::Num(_))));
        if let Some(json::Value::Str(name)) = get("name") {
            if name == "a\"b\n\t\\c" {
                saw_nasty = true;
            }
        }
        if ph == "X" {
            assert!(matches!(get("dur"), Some(json::Value::Num(_))));
        }
    }
    assert!(
        saw_nasty,
        "the escaped hostile name must decode back to the original"
    );
}

// ---------------------------------------------------------------------------
// Latency histogram exposition (schema v5): cumulative buckets, +Inf == count,
// label escaping round-trip, and /status percentile JSON
// ---------------------------------------------------------------------------

/// Runs `runs` trivial one-task flows through `tenant` and waits until the
/// executor has *recorded* them (latency shards fold in just before the
/// completion counter bumps, after the promise resolves).
fn run_recorded(ex: &Arc<Executor>, tenant: &Tenant, runs: usize) {
    let before = tenant.stats().completed;
    for i in 0..runs {
        let tf = Taskflow::with_executor(Arc::clone(ex));
        tf.emplace(|| {}).name(format!("lat-{i}"));
        tf.run_on(tenant).expect("admitted").get().unwrap();
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while tenant.stats().completed < before + runs as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "latency records never folded in: {:?}",
            tenant.stats()
        );
        std::thread::yield_now();
    }
}

/// The per-tenant latency family under the strict parser: a well-formed
/// histogram with cumulative buckets, a `+Inf` bucket equal to `_count`,
/// and label escaping that round-trips a hostile tenant name.
#[test]
fn tenant_latency_family_survives_the_strict_parser() {
    const RUNS: usize = 12;
    const PHASES: [&str; 5] = ["admission", "queue", "dispatch", "exec", "e2e"];
    // A tenant name exercising every escape the exporter applies: a quote,
    // a backslash, and a newline.
    let nasty = "q\"uote\\slash\nline";
    let ex = Executor::new(2);
    let handle = ex
        .start_introspection(IntrospectConfig::default())
        .expect("introspection starts");
    let tenant = ex.tenant(nasty);
    run_recorded(&ex, &tenant, RUNS);

    let exposition = prom::parse(&handle.metrics_text()).expect("strict parse of /metrics");
    let family = exposition
        .family("rustflow_tenant_latency_us")
        .expect("latency family present");
    assert_eq!(family.kind, "histogram");
    for phase in PHASES {
        let series = |suffix: &str| -> Vec<&prom::Sample> {
            let name = format!("rustflow_tenant_latency_us{suffix}");
            let of_series = |s: &&prom::Sample| {
                s.name == name
                    && s.label("phase") == Some(phase)
                    && s.label("tenant") == Some(nasty)
            };
            family.samples.iter().filter(of_series).collect()
        };
        let buckets = series("_bucket");
        assert!(
            !buckets.is_empty(),
            "phase {phase} has buckets for the escaped tenant"
        );
        // Cumulative in exposition (= `le`) order.
        assert!(
            buckets.windows(2).all(|w| w[1].value >= w[0].value),
            "phase {phase}: non-monotonic buckets"
        );
        // `le` bounds strictly increase, with `+Inf` last.
        let les: Vec<&str> = buckets.iter().map(|s| s.label("le").unwrap()).collect();
        let (inf, finite) = les.split_last().unwrap();
        assert_eq!(*inf, "+Inf", "phase {phase} ends at +Inf");
        let finite: Vec<u64> = finite.iter().map(|le| le.parse().unwrap()).collect();
        assert!(
            finite.windows(2).all(|w| w[0] < w[1]),
            "phase {phase}: le order"
        );
        // The +Inf bucket equals the series' `_count`, which equals the
        // number of runs pushed through the front door; a `_sum` exists.
        let count = series("_count")[0].value;
        assert_eq!(buckets.last().unwrap().value, count, "phase {phase}");
        assert_eq!(count, RUNS as f64, "phase {phase} recorded every run");
        assert_eq!(series("_sum").len(), 1, "phase {phase} has a _sum");
    }
    drop(handle);
}

#[test]
fn status_reports_interpolated_percentiles_and_slo() {
    const RUNS: usize = 16;
    let ex = Executor::new(2);
    let handle = ex
        .start_introspection(IntrospectConfig::default())
        .expect("introspection starts");
    let tenant = ex.tenant_with(
        "svc",
        TenantQos {
            slo: Some(SloSpec {
                p99_us: 250_000,
                window: std::time::Duration::from_secs(60),
            }),
            ..TenantQos::default()
        },
    );
    run_recorded(&ex, &tenant, RUNS);

    let status = handle.status_json();
    assert!(
        status.contains("\"slo\":{\"p99_us\":250000,\"window_ms\":60000}"),
        "SLO spec surfaced in /status: {status}"
    );
    let doc = json::parse(&status).expect("/status is JSON");
    let tenant = &doc
        .get("tenants")
        .and_then(json::Value::as_arr)
        .expect("tenants")[0];
    let latency = tenant
        .get("latency_us")
        .expect("tenant has a latency_us object");
    for phase in ["admission", "queue", "dispatch", "exec", "e2e"] {
        let field = |key: &str| -> f64 {
            let value = latency.get(phase).and_then(|p| p.get(key));
            let value = value.and_then(json::Value::as_f64);
            value.unwrap_or_else(|| panic!("{phase} {key} missing or not a number"))
        };
        assert_eq!(field("count"), RUNS as f64, "{phase} count");
        let (p50, p90, p99, p999) = (field("p50"), field("p90"), field("p99"), field("p999"));
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= p999,
            "{phase} percentiles out of order: {p50} {p90} {p99} {p999}"
        );
    }
    drop(handle);
}

/// `/status` and `/metrics` are two renderings of one counter table: for
/// every lane counter, every lane's `total` in `/status` carries the key
/// and equals that lane's sample in the `/metrics` family.
#[test]
fn status_totals_equal_the_metrics_samples_for_every_lane_counter() {
    const LANE_COUNTERS: [(&str, &str); 10] = [
        ("executed", "rustflow_tasks_executed_total"),
        ("cache_hits", "rustflow_cache_hits_total"),
        ("steals", "rustflow_steals_total"),
        ("steal_attempts", "rustflow_steal_attempts_total"),
        ("steal_fails", "rustflow_steal_failures_total"),
        ("injector_pops", "rustflow_injector_pops_total"),
        ("parks", "rustflow_parks_total"),
        ("wakes_sent", "rustflow_wakes_sent_total"),
        ("skipped", "rustflow_tasks_skipped_total"),
        ("retries", "rustflow_task_retries_total"),
    ];
    let ex = Executor::new(2);
    let handle = ex
        .start_introspection(IntrospectConfig::default())
        .expect("introspection starts");
    // Some of everything: chains (cache hits), a fan (steals, wakes), runs
    // through the injector, then quiescence: `get` returned and the workers
    // have parked, so no counter moves between the two scrapes.
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..8 {
        let mut prev = tf.emplace(|| {});
        for _ in 0..20 {
            let next = tf.emplace(|| std::hint::black_box(()));
            prev.precede(next);
            prev = next;
        }
    }
    tf.run_n(3).get().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while ex.num_idlers() < ex.num_workers() {
        assert!(std::time::Instant::now() < deadline, "workers never parked");
        std::thread::yield_now();
    }

    let status = json::parse(&handle.status_json()).expect("/status is JSON");
    let exposition = prom::parse(&handle.metrics_text()).expect("strict parse of /metrics");
    let workers = status
        .get("workers")
        .and_then(json::Value::as_arr)
        .expect("workers");
    assert_eq!(workers.len(), ex.num_lanes());
    for (key, family) in LANE_COUNTERS {
        let family = exposition
            .family(family)
            .unwrap_or_else(|| panic!("no {family}"));
        for (lane, worker) in workers.iter().enumerate() {
            for view in ["total", "since_last_scrape"] {
                let has_key = worker.get(view).and_then(|v| v.get(key)).is_some();
                assert!(has_key, "/status lane {lane} {view} lacks {key}");
            }
            let total = worker.get("total").and_then(|t| t.get(key));
            let total = total.and_then(json::Value::as_f64).unwrap();
            assert_eq!(total, family.samples[lane].value, "lane {lane} {key}");
        }
    }
    // Introspection's own per-lane number, listed beside `queue_depth`.
    let ring_dropped = exposition
        .family("rustflow_ring_dropped_events_total")
        .expect("no rustflow_ring_dropped_events_total");
    assert_eq!(ring_dropped.samples.len(), workers.len());
    for (lane, worker) in workers.iter().enumerate() {
        let status = worker.get("ring_dropped").and_then(json::Value::as_f64);
        let metric = ring_dropped.samples[lane].value;
        assert_eq!(status, Some(metric), "lane {lane} ring_dropped");
    }
    assert_eq!(
        exposition.total("rustflow_tasks_executed_total"),
        3.0 * 8.0 * 21.0
    );
    drop(handle);
}
