//! Live introspection at its edges: a saturated lane and a slow client.
//! The lossy tracer evicts a full lane's oldest events, so `/trace` keeps
//! the newest ones and the running-task table folded from the drained
//! events still names a task that blocks after the ring overflowed; and a
//! client trickling its request head is cut off at one deadline.
//!
//! These sit in their own test binary rather than in `introspect.rs`:
//! there they shared the box's two CPUs with
//! `concurrent_scrapes_under_chaos_keep_parsing`, whose scrapers must each
//! finish three requests before a chaos run does, and that race then
//! failed in 8 of 133 runs of the binary, against none of 52 without them.

use rustflow::wire::{json, prom};
use rustflow::{Executor, IntrospectConfig, Taskflow, WatchdogDiagnostic};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A config whose background collector effectively never runs, so the
/// tests drive passes through `force_collect` and the endpoints.
fn manual_config() -> IntrospectConfig {
    let mut cfg = IntrospectConfig::default();
    cfg.collect_period = Duration::from_secs(3600);
    cfg
}

/// One `GET` over a fresh connection: the status code and the body.
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
    let code = head.split_whitespace().nth(1).and_then(|c| c.parse().ok());
    (code.expect("status code"), body.to_string())
}

/// A 40 000-task chain on one worker overflows its lane's ring between
/// passes (80 000 task events against 32 768 slots). The lane keeps its
/// newest events, so the trace of the one pass after the run still holds
/// the chain's last task.
#[test]
fn a_saturated_recorder_keeps_the_newest_events() {
    let ex = Executor::new(1);
    let handle = ex.start_introspection(manual_config()).unwrap();
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let chain: Vec<_> = (0..40_000).map(|_| tf.emplace(|| {})).collect();
    for pair in chain.windows(2) {
        pair[0].precede(pair[1]);
    }
    chain[chain.len() - 1].name("the-last-link");
    tf.run().get().unwrap();

    let trace = handle.trace_json(Duration::MAX);
    assert!(
        handle.ring_dropped() > 0,
        "the chain's lane must have overflowed"
    );
    let events = json::parse(&trace).expect("the trace is valid JSON");
    let kept = events
        .as_arr()
        .expect("the trace is an array of events")
        .iter()
        .any(|e| e.get("name").and_then(json::Value::as_str) == Some("the-last-link"));
    assert!(kept, "the saturated lane lost its newest events");
}

/// A stall that follows ring saturation on the same lane is still seen:
/// the lane's last event is the blocked task's begin, which the full ring
/// keeps, so the watchdog names the task and `/status` shows it running.
#[test]
fn a_stall_after_ring_saturation_is_still_reported() {
    let ex = Executor::new(1);
    let mut cfg = manual_config();
    cfg.stall_threshold = Duration::from_millis(40);
    let handle = ex.start_introspection(cfg).unwrap();
    let stalled: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&stalled);
    handle.subscribe_watchdog(move |d| {
        if let WatchdogDiagnostic::StalledWorker { label, .. } = d {
            sink.lock().unwrap().push(label.clone());
        }
    });

    // The chain saturates the one worker's ring (40 000 task events
    // against 32 768 slots); its last link blocks.
    let (started, release) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let mut chain: Vec<_> = (0..20_000).map(|_| tf.emplace(|| {})).collect();
    let (s, r) = (Arc::clone(&started), Arc::clone(&release));
    let blocker = tf.emplace(move || {
        s.store(true, Ordering::SeqCst);
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    chain.push(blocker.name("blocked-after-saturation"));
    for pair in chain.windows(2) {
        pair[0].precede(pair[1]);
    }
    let run = tf.run();
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(60));
    handle.force_collect();
    let dropped = handle.ring_dropped();
    let status = handle.status_json();

    // Free the worker before asserting, so a failure cannot wedge the drop.
    release.store(true, Ordering::SeqCst);
    run.get().unwrap();
    assert!(dropped > 0, "the chain's lane must have overflowed");
    assert_eq!(
        *stalled.lock().unwrap(),
        ["blocked-after-saturation"],
        "one stall, named"
    );
    assert!(json::parse(&status).is_ok(), "invalid JSON: {status}");
    assert!(
        status.contains("\"running\":{\"label\":\"blocked-after-saturation\""),
        "/status does not show the blocked task: {status}"
    );
}

/// The request head has one deadline from accept: a client trickling it a
/// byte at a time gets a `408` and holds the one acceptor thread for no
/// longer, so a scrape queued behind it is answered within 1.5 s.
#[test]
fn a_trickling_client_does_not_hold_the_acceptor() {
    let ex = Executor::new(1);
    let handle = ex
        .serve_introspection_with("127.0.0.1:0", manual_config())
        .expect("bind");
    let addr = handle.local_addr().unwrap();

    // Connected first, so the acceptor takes it before the scrape below.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let trickler = std::thread::spawn(move || {
        // One byte every 150 ms, never the blank line that ends a head,
        // until the server answers or closes.
        stream
            .set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        let mut raw = Vec::new();
        for byte in b"GET /metrics HTTP/1.1\r\nHost: slow-client\r\n" {
            if stream.write_all(&[*byte]).is_err() {
                break;
            }
            let mut chunk = [0u8; 256];
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    raw.extend_from_slice(&chunk[..n]);
                    break;
                }
                Err(_) => {}
            }
        }
        String::from_utf8_lossy(&raw).into_owned()
    });
    let asked = Instant::now();
    let (code, body) = http_get(addr, "/metrics");
    let waited = asked.elapsed();
    let trickled = trickler.join().unwrap();

    assert_eq!(code, 200);
    assert!(prom::parse(&body).is_ok(), "invalid exposition");
    assert!(
        waited < Duration::from_millis(1500),
        "a scrape waited {waited:?} behind a trickling client"
    );
    assert!(
        trickled.starts_with("HTTP/1.1 408 "),
        "the trickling client got: {trickled:?}"
    );
}
