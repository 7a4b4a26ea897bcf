//! Live-introspection service tests: the three endpoints over real HTTP
//! against a running executor, concurrent scrapes under chaos, watchdog
//! precision (trips on a planted stall, silent on legitimate work), the
//! flight-recorder window, and per-worker ring-drop accounting.

use rustflow::chaos::{ChaosSpec, Fault};
use rustflow::wire::{json, prom};
use rustflow::{
    this_task, Executor, ExecutorBuilder, IntrospectConfig, SloSpec, Taskflow, TenantQos,
    WatchdogDiagnostic,
};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// --- Both formats through the crate's own strict parsers. ---------------

fn assert_json(s: &str) {
    if let Err(e) = json::parse(s) {
        panic!("invalid JSON ({e}): {}", &s[..s.len().min(400)]);
    }
}

/// Families contiguous, samples inside their family, no duplicates: a torn
/// exposition is an error.
fn check_prometheus(text: &str) {
    if let Err(e) = prom::parse(text) {
        panic!("invalid exposition ({e})");
    }
}

// --- Tiny HTTP client. --------------------------------------------------

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("no header terminator");
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let clen: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().unwrap())
        })
        .expect("content-length");
    assert_eq!(body.len(), clen, "body length vs Content-Length");
    (code, body.to_string())
}

/// Extracts the integer value of `"key":` occurrences in a JSON string
/// (good enough for our own fixed-shape payloads).
fn json_u64s(body: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(pos) = rest.find(&pat) {
        rest = &rest[pos + pat.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() {
            out.push(digits.parse().unwrap());
        }
    }
    out
}

/// A fast introspection config for tests.
fn fast_config() -> IntrospectConfig {
    let mut cfg = IntrospectConfig::default();
    cfg.collect_period = Duration::from_millis(10);
    cfg.stall_threshold = Duration::from_millis(200);
    cfg
}

/// A config whose background collector effectively never runs, so tests
/// drive passes deterministically via `force_collect`.
fn manual_config() -> IntrospectConfig {
    let mut cfg = IntrospectConfig::default();
    cfg.collect_period = Duration::from_secs(3600);
    cfg
}

// --- Endpoint acceptance: observe a workload that is still running. -----

#[test]
fn endpoints_observe_a_running_workload() {
    let ex = Executor::new(4);
    let handle = ex
        .serve_introspection_with("127.0.0.1:0", fast_config())
        .expect("bind");
    let addr = handle.local_addr().expect("ephemeral addr");

    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for i in 0..16 {
        tf.emplace(|| std::thread::sleep(Duration::from_millis(1)))
            .name(format!("live-{i}"));
    }
    let fut = tf.run_n(150);

    // While the batch is in flight, all three endpoints must answer with
    // parseable payloads that show the work happening.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut saw_running, mut saw_trace) = (false, false);
    while Instant::now() < deadline && !(saw_running && saw_trace) {
        let (code, status) = http_get(addr, "/status");
        assert_eq!(code, 200);
        assert_json(&status);
        if status.contains("\"running\":{") && status.contains("\"state\":\"running\"") {
            saw_running = true;
        }
        let (code, metrics) = http_get(addr, "/metrics");
        assert_eq!(code, 200);
        check_prometheus(&metrics);
        let (code, trace) = http_get(addr, "/trace?last_ms=500");
        assert_eq!(code, 200);
        assert_json(&trace);
        if trace.contains("\"name\":\"live-") {
            saw_trace = true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_running, "/status never showed a live worker + topology");
    assert!(saw_trace, "/trace never showed a task from the live batch");

    fut.get().unwrap();

    // Routing edges.
    let (code, _) = http_get(addr, "/nope");
    assert_eq!(code, 404);
    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    for family in [
        "rustflow_tasks_executed_total",
        "rustflow_ring_dropped_events_total",
        "rustflow_queue_depth",
        "rustflow_parked_workers",
        "rustflow_inflight_topologies",
        "rustflow_flight_recorder_events",
        "rustflow_flight_recorder_dropped_total",
        "rustflow_watchdog_stalled_workers_total",
        "rustflow_watchdog_stalled_topologies_total",
        "rustflow_watchdog_ring_saturation_total",
    ] {
        assert!(metrics.contains(family), "missing family {family}");
    }
}

#[test]
fn second_introspection_start_is_rejected() {
    let ex = Executor::new(2);
    let _h = ex.start_introspection(manual_config()).unwrap();
    let err = ex.start_introspection(manual_config()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    let err = ex.serve_introspection("127.0.0.1:0").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
}

// --- Satellite 3: concurrent scrapes while chaos runs. ------------------

#[test]
fn concurrent_scrapes_under_chaos_keep_parsing() {
    let ex = Executor::new(8);
    let handle = ex
        .serve_introspection_with("127.0.0.1:0", fast_config())
        .expect("bind");
    let addr = handle.local_addr().unwrap();

    // A wavefront grid with transient first-attempt panics rescued by
    // per-task retry: every (node, iteration) the chaos stream selects
    // panics exactly once, so the whole batch still succeeds.
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let spec = ChaosSpec::new(0xC0FFEE).panic_permille(120);
    let dim = 6;
    let iters = 60;
    let completed = Arc::new(AtomicUsize::new(0));
    let fired: Arc<Mutex<HashSet<(u64, u64)>>> = Arc::new(Mutex::new(HashSet::new()));
    let mut grid = Vec::new();
    for r in 0..dim {
        let mut row = Vec::new();
        for c in 0..dim {
            let node = (r * dim + c) as u64;
            let completed = Arc::clone(&completed);
            let fired = Arc::clone(&fired);
            let t = tf
                .emplace(move || {
                    let it = this_task::iteration().unwrap_or(0);
                    if matches!(spec.fault(node, it), Fault::Panic)
                        && fired.lock().unwrap().insert((node, it))
                    {
                        panic!("transient chaos");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                })
                .name(format!("w{r}-{c}"))
                .retry(1);
            row.push(t);
        }
        grid.push(row);
    }
    for r in 0..dim {
        for c in 0..dim {
            if c + 1 < dim {
                grid[r][c].precede(grid[r][c + 1]);
            }
            if r + 1 < dim {
                grid[r][c].precede(grid[r + 1][c]);
            }
        }
    }

    let before = ex.stats();
    let done = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..4)
        .map(|k| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                while !done.load(Ordering::Relaxed) {
                    match scrapes % 3 {
                        0 => {
                            let (code, body) = http_get(addr, "/metrics");
                            assert_eq!(code, 200);
                            check_prometheus(&body);
                        }
                        1 => {
                            let (code, body) = http_get(addr, "/status");
                            assert_eq!(code, 200);
                            assert_json(&body);
                        }
                        _ => {
                            let (code, body) =
                                http_get(addr, &format!("/trace?last_ms={}", 100 + k));
                            assert_eq!(code, 200);
                            assert_json(&body);
                        }
                    }
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let fut = tf.run_n(iters);
    fut.get().expect("transient chaos must be rescued by retry");
    done.store(true, Ordering::Relaxed);
    for s in scrapers {
        let scrapes = s.join().expect("scraper panicked (torn response)");
        assert!(scrapes >= 3, "scraper barely ran ({scrapes} scrapes)");
    }

    // The workload itself was unharmed: every task of every iteration
    // completed, and the counter deltas agree with the plan.
    let delta = ex.stats().delta(&before);
    let total_tasks = dim * dim * iters as usize;
    assert_eq!(completed.load(Ordering::Relaxed), total_tasks);
    assert_eq!(delta.total().retries as usize, fired.lock().unwrap().len());
    assert!(delta.total().executed as usize >= total_tasks);
}

// --- Satellite 4: watchdog precision. -----------------------------------

#[test]
fn watchdog_trips_on_blocked_worker_within_two_passes() {
    let ex = Executor::new(2);
    let mut cfg = manual_config();
    cfg.stall_threshold = Duration::from_millis(40);
    let handle = ex.start_introspection(cfg).unwrap();

    let reports: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&reports);
    handle.subscribe_watchdog(move |d| {
        if let WatchdogDiagnostic::StalledWorker { worker, label, .. } = d {
            sink.lock().unwrap().push((*worker, label.clone()));
        }
    });

    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (s, r) = (Arc::clone(&started), Arc::clone(&release));
    tf.emplace(move || {
        s.store(true, Ordering::SeqCst);
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    })
    .name("stuck");
    let fut = tf.run();
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }

    // First pass inside the threshold: nothing fires.
    handle.force_collect();
    assert_eq!(handle.watchdog_counts().stalled_workers, 0);

    // Past the threshold, the second pass must report the stall.
    std::thread::sleep(Duration::from_millis(60));
    handle.force_collect();
    assert_eq!(handle.watchdog_counts().stalled_workers, 1);
    {
        let got = reports.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert!(got[0].0 < 2, "worker index out of range");
        assert_eq!(got[0].1, "stuck");
    }

    // Same stuck invocation: no re-report, however many passes run.
    std::thread::sleep(Duration::from_millis(50));
    handle.force_collect();
    handle.force_collect();
    assert_eq!(handle.watchdog_counts().stalled_workers, 1);

    release.store(true, Ordering::SeqCst);
    fut.get().unwrap();
    handle.force_collect();
    assert_eq!(handle.watchdog_counts().stalled_workers, 1);
}

#[test]
fn watchdog_stays_silent_on_legit_work_and_cancelled_drains() {
    let ex = Executor::new(4);
    let mut cfg = manual_config();
    cfg.stall_threshold = Duration::from_millis(300);
    let handle = ex.start_introspection(cfg).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    handle.subscribe_watchdog(move |_| {
        f.fetch_add(1, Ordering::SeqCst);
    });

    // A long-but-legit under-threshold task must not trip anything.
    {
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        tf.emplace(|| std::thread::sleep(Duration::from_millis(80)))
            .name("slow-but-fine");
        let fut = tf.run();
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(10));
            handle.force_collect();
        }
        fut.get().unwrap();
    }

    // A cancelled topology draining its skipped tasks is not a stall.
    {
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        let started = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&started);
        let gate = tf
            .emplace(move || {
                s.fetch_add(1, Ordering::SeqCst);
                while !this_task::is_cancelled() {
                    std::thread::yield_now();
                }
            })
            .name("gate");
        for i in 0..64 {
            let t = tf.emplace(|| {}).name(format!("queued-{i}"));
            gate.precede(t);
        }
        let run = tf.run();
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        handle.force_collect();
        assert!(run.cancel());
        for _ in 0..5 {
            handle.force_collect();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(run.get().unwrap_err().is_cancelled());
        handle.force_collect();
    }

    // 100 seeded chaos runs (delays perturb scheduling; some seeds panic
    // without retry) with collection passes interleaved: no false alarm.
    for seed in 0..100u64 {
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        let spec = ChaosSpec::new(seed)
            .delay_permille(250, 300)
            .panic_permille(if seed % 4 == 0 { 60 } else { 0 });
        let dim = 4;
        let mut grid = Vec::new();
        for r in 0..dim {
            let mut row = Vec::new();
            for c in 0..dim {
                let node = (r * dim + c) as u64;
                row.push(tf.emplace(spec.wrap(node, || {})));
            }
            grid.push(row);
        }
        for r in 0..dim {
            for c in 0..dim {
                if c + 1 < dim {
                    grid[r][c].precede(grid[r][c + 1]);
                }
                if r + 1 < dim {
                    grid[r][c].precede(grid[r + 1][c]);
                }
            }
        }
        let fut = tf.run_n(3);
        handle.force_collect();
        let _ = fut.get(); // seeds with panics fail the run; that's fine
        handle.force_collect();
    }

    assert_eq!(
        fired.load(Ordering::SeqCst),
        0,
        "watchdog false positive: {:?}",
        handle.watchdog_counts()
    );
    let wd = handle.watchdog_counts();
    assert_eq!((wd.stalled_workers, wd.stalled_topologies), (0, 0));
}

/// The SLO burn signal is a report and nothing else: a tenant whose every
/// run misses a 1 µs target fires one `SloBurn` per episode, and the runs
/// queued behind a held dispatch slot when it fires all dispatch once the
/// slot frees. None is shed: dropping queued runs is the deadline's job.
#[test]
fn slo_burn_reports_once_and_sheds_nothing() {
    let ex = ExecutorBuilder::new().workers(1).max_inflight(1).build();
    let handle = ex.start_introspection(manual_config()).unwrap();
    let burns = Arc::new(AtomicUsize::new(0));
    let b = Arc::clone(&burns);
    handle.subscribe_watchdog(move |d| {
        if let WatchdogDiagnostic::SloBurn { .. } = d {
            b.fetch_add(1, Ordering::SeqCst);
        }
    });
    let tenant = ex.tenant_with(
        "burning",
        TenantQos {
            slo: Some(SloSpec {
                p99_us: 1,
                window: Duration::from_secs(60),
            }),
            ..TenantQos::default()
        },
    );
    // The baseline pass: no run has finished yet.
    handle.force_collect();
    let finished = Taskflow::with_executor(Arc::clone(&ex));
    finished.emplace(|| {});
    for _ in 0..12 {
        finished.run_on(&tenant).unwrap().get().unwrap();
    }

    // One run holds the only dispatch slot; six more wait behind it.
    let (started, release) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let holder = Taskflow::with_executor(Arc::clone(&ex));
    let (s, r) = (Arc::clone(&started), Arc::clone(&release));
    holder.emplace(move || {
        s.store(true, Ordering::SeqCst);
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let held = holder.run_on(&tenant).unwrap();
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let ran = Arc::new(AtomicUsize::new(0));
    let queued: Vec<_> = (0..6)
        .map(|_| {
            let tf = Taskflow::with_executor(Arc::clone(&ex));
            let r = Arc::clone(&ran);
            tf.emplace(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            let run = tf.run_on(&tenant).unwrap();
            (tf, run)
        })
        .collect();
    let queued_before = tenant.stats().queued;
    handle.force_collect();
    let (fired, queued_after) = (burns.load(Ordering::SeqCst), tenant.stats().queued);
    // Still burning: the episode already reported.
    handle.force_collect();
    let fired_again = burns.load(Ordering::SeqCst) - fired;
    // Free the slot before asserting, so a failure cannot wedge the drop.
    release.store(true, Ordering::SeqCst);
    held.get().unwrap();
    let outcomes: Vec<_> = queued.into_iter().map(|(_tf, run)| run.get()).collect();

    assert_eq!(fired, 1, "12 of 12 runs missed 1 µs");
    assert_eq!(fired_again, 0);
    assert_eq!(
        (queued_before, queued_after),
        (6, 6),
        "the burn pass touched the queue"
    );
    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    assert_eq!(ran.load(Ordering::SeqCst), 6);
    assert_eq!(tenant.stats().shed, 0);
    assert_eq!(handle.watchdog_counts().slo_burn, 1);
}

// --- Flight-recorder window scoping. ------------------------------------

#[test]
fn trace_window_is_scoped_to_recent_activity() {
    let ex = Executor::new(2);
    let handle = ex.start_introspection(manual_config()).unwrap();

    let early = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..4 {
        early.emplace(|| {}).name("early-task");
    }
    early.run().get().unwrap();
    handle.force_collect();

    std::thread::sleep(Duration::from_millis(120));

    let late = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..4 {
        late.emplace(|| {}).name("late-task");
    }
    late.run().get().unwrap();

    // A 60 ms window sees only the late batch...
    let now = ex.now_us();
    let recent = handle.trace_json(Duration::from_millis(60));
    assert_json(&recent);
    assert!(recent.contains("late-task"), "missing recent events");
    assert!(
        !recent.contains("early-task"),
        "window leaked events older than requested"
    );
    for ts in json_u64s(&recent, "ts") {
        assert!(
            ts + 70_000 >= now,
            "event at {ts}µs is outside the 60ms window ending at {now}µs"
        );
    }

    // ...while an unbounded query still has both.
    let full = handle.trace_json(Duration::MAX);
    assert_json(&full);
    assert!(full.contains("early-task") && full.contains("late-task"));
}

// --- Satellite 1: per-worker ring-drop accounting. ----------------------

#[test]
fn ring_drops_surface_per_worker_and_in_endpoints() {
    let ex = Executor::new(2);
    let mut cfg = manual_config();
    cfg.ring_capacity = 2; // guarantee overflow between passes
    let handle = ex.start_introspection(cfg).unwrap();

    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..64 {
        tf.emplace(|| {});
    }
    tf.run_n(8).get().unwrap();
    handle.force_collect();

    let total = handle.ring_dropped();
    assert!(total > 0, "tiny rings must have overflowed");
    let per_worker: u64 = ex.stats().workers.iter().map(|w| w.ring_dropped).sum();
    assert!(per_worker > 0, "drops must be attributed to workers");
    assert!(per_worker <= total, "worker drops cannot exceed the total");

    let metrics = handle.metrics_text();
    check_prometheus(&metrics);
    assert!(metrics.contains("rustflow_ring_dropped_events_total{worker=\"0\",lane=\"worker\"}"));
    // Guest seats are lanes too: listed after the workers, told apart.
    assert!(metrics.contains("rustflow_ring_dropped_events_total{worker=\"2\",lane=\"guest\"}"));
    assert!(metrics.contains("rustflow_queue_depth{worker=\"3\",lane=\"guest\"}"));

    let status = handle.status_json();
    assert_json(&status);
    let reported = json_u64s(&status, "ring_dropped_total");
    assert_eq!(reported.len(), 1);
    assert!(reported[0] >= total, "status lags the handle reading");

    // Overflow between passes is exactly what the saturation signal is.
    assert!(handle.watchdog_counts().ring_saturation >= 1);
}

// --- Satellite 2: one clock domain across executors and endpoints. ------

#[test]
fn timestamps_share_one_monotonic_domain() {
    let ex1 = Executor::new(2);
    let ex2 = Executor::new(2);
    let a = ex1.now_us();
    let b = ex2.now_us();
    assert!(b >= a, "different executors must share one clock origin");

    // The bracket must open before the observer is installed (eagerly
    // spawned workers may record steal-fails/parks the moment it is)
    // and close after the trace query (whose own collect pass can pull
    // in events recorded since force_collect).
    let t0 = ex1.now_us();
    let handle = ex1.start_introspection(manual_config()).unwrap();
    let tf = Taskflow::with_executor(Arc::clone(&ex1));
    tf.emplace(|| {}).name("stamp");
    tf.run().get().unwrap();
    handle.force_collect();
    let trace = handle.trace_json(Duration::MAX);
    let t1 = ex1.now_us();

    // Every event the introspection tracer recorded is stamped inside
    // [t0, t1] of the same domain, and /status's now_us agrees.
    let stamps = json_u64s(&trace, "ts");
    assert!(!stamps.is_empty());
    for ts in stamps {
        assert!(ts >= t0 && ts <= t1, "ts {ts} outside [{t0}, {t1}]");
    }
    let now = json_u64s(&handle.status_json(), "now_us");
    assert_eq!(now.len(), 1);
    assert!(now[0] >= t1);
}
