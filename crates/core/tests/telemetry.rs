//! Integration tests of the scheduler telemetry stack: per-worker event
//! rings under stress, lifecycle observer semantics (subflows, panics,
//! concurrent install/remove), Prometheus export, and Chrome-trace JSON
//! validity.

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

    let text = after.prometheus_text();
    let mut families: Vec<String> = Vec::new();
    let mut executed_sum = 0u64;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
            assert_eq!(kind, "counter");
            families.push(name.to_string());
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        // name{worker="N",lane="worker"|"guest"} value: the three
        // workers, then the guest seats (the caller of `wait_for_all`
        // executed some of the 600 on one).
        let open = line.find('{').expect("labels");
        let close = line.find('}').expect("labels close");
        let name = &line[..open];
        let (worker, lane) = line[open + 1..close].split_once(',').expect("two labels");
        let worker: usize = worker
            .strip_prefix("worker=\"")
            .and_then(|l| l.strip_suffix('"'))
            .expect("worker label")
            .parse()
            .expect("lane id");
        assert!(worker < ex.num_lanes());
        let expect_lane = if worker < 3 { "worker" } else { "guest" };
        assert_eq!(lane, format!("lane=\"{expect_lane}\""));
        let value: u64 = line[close + 1..].trim().parse().expect("sample value");
        if name == "rustflow_tasks_executed_total" {
            executed_sum += value;
        }
    }
    assert_eq!(executed_sum, 600);
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
        assert!(families.iter().any(|f| f == family), "missing {family}");
    }
}

// ---------------------------------------------------------------------------
// Fault events (schema v3): skip / retry round-trip through the rings
// ---------------------------------------------------------------------------

#[test]
fn retry_events_round_trip_with_one_span_per_task() {
    assert_eq!(rustflow::SCHED_EVENT_SCHEMA_VERSION, 5);
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

mod json {
    //! A minimal strict JSON parser — enough to prove the exporter's
    //! output is well-formed without pulling in a dependency.

    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => obj(b, i),
            Some(b'[') => arr(b, i),
            Some(b'"') => Ok(Value::Str(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(_) => num(b, i),
            None => Err("unexpected end".into()),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn num(b: &[u8], i: &mut usize) -> Result<Value, String> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        if b[*i] != b'"' {
            return Err(format!("expected string at {i}"));
        }
        *i += 1;
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(&b[*i + 1..*i + 5])
                                .map_err(|_| "bad \\u".to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u".to_string())?;
                            out.push(char::from_u32(code).ok_or("bad codepoint")?);
                            *i += 4;
                        }
                        _ => return Err(format!("bad escape at {i}")),
                    }
                    *i += 1;
                }
                c if c < 0x20 => return Err(format!("raw control char at {i}")),
                _ => {
                    // Consume one UTF-8 scalar.
                    let s = std::str::from_utf8(&b[*i..]).map_err(|_| "bad utf8".to_string())?;
                    let ch = s.chars().next().ok_or("end")?;
                    out.push(ch);
                    *i += ch.len_utf8();
                }
            }
        }
        Err("unterminated string".into())
    }

    fn arr(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // [
        let mut items = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected , or ] at {i}")),
            }
        }
    }

    fn obj(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // {
        let mut items = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Value::Obj(items));
        }
        loop {
            skip_ws(b, i);
            let key = string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected : at {i}"));
            }
            *i += 1;
            items.push((key, value(b, i)?));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Obj(items));
                }
                _ => return Err(format!("expected , or }} at {i}")),
            }
        }
    }
}

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

/// Splits a Prometheus sample line into `(name, labels, value)`, decoding
/// the label-value escapes (`\\`, `\"`, `\n`) the exporter applies.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (head, value) = line.rsplit_once(' ').expect("sample line without value");
    let value: f64 = value.parse().expect("unparseable sample value");
    let Some((name, rest)) = head.split_once('{') else {
        return (head.to_string(), Vec::new(), value);
    };
    let body: Vec<char> = rest
        .strip_suffix('}')
        .expect("unterminated label set")
        .chars()
        .collect();
    let mut labels = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let mut key = String::new();
        while body[i] != '=' {
            key.push(body[i]);
            i += 1;
        }
        i += 2; // skip `="`
        let mut val = String::new();
        loop {
            match body[i] {
                '\\' => {
                    i += 1;
                    match body[i] {
                        'n' => val.push('\n'),
                        c => val.push(c),
                    }
                }
                '"' => break,
                c => val.push(c),
            }
            i += 1;
        }
        i += 1; // closing quote
        if i < body.len() && body[i] == ',' {
            i += 1;
        }
        labels.push((key, val));
    }
    (name.to_string(), labels, value)
}

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

#[test]
fn tenant_latency_exposition_is_cumulative_and_escaped() {
    const RUNS: usize = 8;
    const PHASES: [&str; 5] = ["admission", "queue", "dispatch", "exec", "e2e"];
    let nasty = "q\"uote\\slash\nline";
    let ex = Executor::new(2);
    let handle = ex
        .start_introspection(IntrospectConfig::default())
        .expect("introspection starts");
    let tenant = ex.tenant(nasty);
    run_recorded(&ex, &tenant, RUNS);

    let metrics = handle.metrics_text();
    // Group the family's bucket samples by (tenant, phase), in exposition
    // order, which is `le` order within one series.
    type SeriesId = (String, String);
    let mut series: Vec<(SeriesId, Vec<(String, f64)>)> = Vec::new();
    let mut counts: Vec<((String, String), f64)> = Vec::new();
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        if !line.starts_with("rustflow_tenant_latency_us") {
            continue;
        }
        let (name, labels, value) = parse_sample(line);
        let get = |k: &str| {
            labels
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing label {k} in {line}"))
        };
        let id = (get("tenant"), get("phase"));
        match name.as_str() {
            "rustflow_tenant_latency_us_bucket" => {
                match series.iter_mut().find(|(sid, _)| *sid == id) {
                    Some((_, buckets)) => buckets.push((get("le"), value)),
                    None => series.push((id, vec![(get("le"), value)])),
                }
            }
            "rustflow_tenant_latency_us_count" => counts.push((id, value)),
            "rustflow_tenant_latency_us_sum" => {}
            other => panic!("unexpected sample {other} in family"),
        }
    }
    assert_eq!(series.len(), PHASES.len(), "one series per phase");
    for ((tenant_label, phase), buckets) in &series {
        // Escaping round-trips: the decoded label is the original name.
        assert_eq!(tenant_label, nasty, "tenant label escape round-trip");
        assert!(PHASES.contains(&phase.as_str()), "unknown phase {phase}");
        // Buckets are cumulative: non-decreasing in `le` order, ending in
        // a `+Inf` bucket that equals the series' `_count`.
        for w in buckets.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "non-monotonic buckets for {phase}: {buckets:?}"
            );
        }
        let (last_le, last) = buckets.last().expect("series has buckets");
        assert_eq!(last_le, "+Inf", "last bucket is +Inf");
        let (_, count) = counts
            .iter()
            .find(|(cid, _)| cid == &(tenant_label.clone(), phase.clone()))
            .expect("every series has a _count");
        assert_eq!(last, count, "+Inf bucket equals _count for {phase}");
        assert_eq!(*count, RUNS as f64, "every run recorded in {phase}");
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
    let latency = status
        .split_once("\"latency_us\":{")
        .expect("tenant has a latency_us object")
        .1;
    for phase in ["admission", "queue", "dispatch", "exec", "e2e"] {
        let obj = latency
            .split_once(&format!("\"{phase}\":{{"))
            .unwrap_or_else(|| panic!("phase {phase} missing: {status}"))
            .1;
        let field = |key: &str| -> f64 {
            obj.split_once(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("{phase} missing {key}"))
                .1
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect::<String>()
                .parse()
                .unwrap_or_else(|_| panic!("{phase} {key} not a number"))
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

#[test]
fn latency_pipeline_can_be_disabled() {
    let ex = ExecutorBuilder::new()
        .workers(2)
        .latency_histograms(false)
        .build();
    let handle = ex
        .start_introspection(IntrospectConfig::default())
        .expect("introspection starts");
    let tenant = ex.tenant("quiet");
    run_recorded(&ex, &tenant, 4);
    let metrics = handle.metrics_text();
    // The family renders (the front door is in use) but records nothing:
    // every series stays at zero.
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        if line.starts_with("rustflow_tenant_latency_us") {
            let (_, _, value) = parse_sample(line);
            assert_eq!(value, 0.0, "disabled pipeline recorded a sample: {line}");
        }
    }
    drop(handle);
}
