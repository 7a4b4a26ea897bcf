//! Introspection gate — live-observability overhead and endpoint smoke
//! (beyond the paper; CI job `introspect-gate`).
//!
//! Two checks, both against real sockets:
//!
//! 1. **Overhead** — a wavefront workload is timed on a plain executor
//!    and on one with the full introspection service enabled (collector
//!    thread, HTTP endpoint, and a scraper hitting `/metrics` + `/status`
//!    throughout). The enabled/disabled median ratio must stay ≤ 1.05×.
//! 2. **Endpoint smoke** — while a `run_n` batch is in flight, `/metrics`
//!    must pass the strict [`rustflow::wire::prom`] parser with every
//!    expected family present, `/status` must parse as JSON
//!    ([`rustflow::wire::json`]) with a worker entry per lane, and
//!    `/trace?last_ms=500` must be
//!    valid Chrome-trace JSON whose events all sit inside the window.
//!    A tenant with an `SloSpec` then pushes a known run count through
//!    the front door and the `rustflow_tenant_latency_us` family and the
//!    `/status` per-tenant percentile block are validated against it.
//!
//! Results land in `<out>/introspect_report.json` (git-ignored: it holds
//! this run's timings); any gate violation makes the process exit
//! non-zero, failing the CI job.

use rustflow::wire::{json, prom};
use rustflow::{Executor, IntrospectConfig, SloSpec, Taskflow, TenantQos};
use std::sync::Arc;
use std::time::Duration;
use tf_bench::harness::{http_get, median, scrape, time_ms, Cli};
use tf_bench::impls::{Backend, Runtime, CONTENDERS};

/// Enabled-vs-disabled wall-clock ratio the gate allows.
const RATIO_GATE: f64 = 1.05;

/// Families `/metrics` must always expose.
const REQUIRED_FAMILIES: &[&str] = &[
    "rustflow_tasks_executed_total",
    "rustflow_steals_total",
    "rustflow_ring_dropped_events_total",
    "rustflow_queue_depth",
    "rustflow_parked_workers",
    "rustflow_inflight_topologies",
    "rustflow_flight_recorder_events",
    "rustflow_flight_recorder_dropped_total",
    "rustflow_watchdog_stalled_workers_total",
    "rustflow_watchdog_stalled_topologies_total",
    "rustflow_watchdog_ring_saturation_total",
];

struct GateResult {
    threads: usize,
    dim: usize,
    iters: u32,
    reps: usize,
    disabled_ms: f64,
    enabled_ms: f64,
    ratio: f64,
    scrapes: usize,
    smoke: Vec<(String, bool, String)>,
}

fn main() {
    let cli = Cli::parse();
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let threads = cli.thread_count(cores);
    let (dim, iters) = if cli.full { (48, 8192) } else { (32, 8192) };
    let reps = cli.number("--reps", 9).max(9) as usize;

    let mut result = GateResult {
        threads,
        dim,
        iters,
        reps,
        disabled_ms: 0.0,
        enabled_ms: 0.0,
        ratio: 0.0,
        scrapes: 0,
        smoke: Vec::new(),
    };

    if cli.wants_part("overhead") {
        measure_overhead(&mut result);
    }
    if cli.wants_part("smoke") {
        smoke(&mut result);
    }

    let overhead_pass = result.ratio == 0.0 || result.ratio <= RATIO_GATE;
    let smoke_pass = result.smoke.iter().all(|(_, ok, _)| *ok);
    println!(
        "introspect gate: disabled={:.2}ms enabled={:.2}ms ratio={:.3} (gate {RATIO_GATE}) {}",
        result.disabled_ms,
        result.enabled_ms,
        result.ratio,
        if overhead_pass { "ok" } else { "FAIL" },
    );
    for (name, ok, note) in &result.smoke {
        println!("  {} {name} {note}", if *ok { "ok  " } else { "FAIL" });
    }
    let pass = overhead_pass && smoke_pass;
    write_report(&cli, &result, pass);
    if !pass {
        eprintln!("introspect gate: FAILED");
        std::process::exit(1);
    }
    println!("introspect gate: all checks passed");
}

/// Times the wavefront on a bare executor vs one with the service live
/// (collector + HTTP + an active scraper). Disabled/enabled reps are
/// interleaved so machine drift hits both sides equally, and each side
/// takes its median.
fn measure_overhead(result: &mut GateResult) {
    let (threads, dim, iters, reps) = (result.threads, result.dim, result.iters, result.reps);

    let bare = Executor::new(threads);
    let live = Executor::new(threads);
    let handle = live
        .serve_introspection_with("127.0.0.1:0", IntrospectConfig::default())
        .expect("bind introspection endpoint");
    let addr = handle.local_addr().expect("local addr");

    // A scraper polling both text endpoints for the whole measurement,
    // so "enabled" means enabled *and observed*, not merely idling.
    // 250ms is still ~20-60x more aggressive than a production
    // Prometheus scrape interval.
    let scraper = scrape(addr, &["/metrics", "/status"], Duration::from_millis(250));

    // The workload is the rustflow contender's wavefront, as in Figure 7.
    let rustflow = CONTENDERS.iter().find(|c| c.backend == Backend::Executor);
    let wavefront = rustflow.expect("the table has rustflow").wavefront.run;
    let (bare, live) = (Runtime::Executor(bare), Runtime::Executor(live));
    // Warm both executors (threads spawn lazily on first dispatch).
    wavefront(dim, iters, &bare);
    wavefront(dim, iters, &live);

    let mut disabled = Vec::with_capacity(reps);
    let mut enabled = Vec::with_capacity(reps);
    for _ in 0..reps {
        disabled.push(time_ms(|| {
            wavefront(dim, iters, &bare);
        }));
        enabled.push(time_ms(|| {
            wavefront(dim, iters, &live);
        }));
    }
    result.scrapes = scraper.stop().len();
    result.disabled_ms = median(&mut disabled);
    result.enabled_ms = median(&mut enabled);
    result.ratio = result.enabled_ms / result.disabled_ms;
}

/// Hits all three endpoints while a `run_n` batch is in flight and
/// validates every payload strictly.
fn smoke(result: &mut GateResult) {
    let threads = result.threads;
    let ex = Executor::new(threads);
    let mut cfg = IntrospectConfig::default();
    cfg.collect_period = Duration::from_millis(20);
    let handle = ex
        .serve_introspection_with("127.0.0.1:0", cfg)
        .expect("bind introspection endpoint");
    let addr = handle.local_addr().expect("local addr");

    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for i in 0..(threads * 4) {
        tf.emplace(move || {
            std::hint::black_box(tf_workloads::kernels::nominal_work(i as u64 + 1, 50_000));
        })
        .name(format!("smoke-{i}"));
    }
    let fut = tf.run_n(400);
    let mut check = |name: &str, ok: bool, note: String| {
        result.smoke.push((name.to_string(), ok, note));
    };

    // /metrics under the strict parser, all families present.
    let metrics = http_get(addr, "/metrics");
    match prom::parse(&metrics) {
        Ok(exp) => {
            check(
                "metrics_parse",
                true,
                format!("{} families", exp.families.len()),
            );
            for fam in REQUIRED_FAMILIES {
                check(
                    &format!("metrics_family:{fam}"),
                    exp.family(fam).is_some(),
                    String::new(),
                );
            }
            // One sample per lane: the worker threads, then the guest seats,
            // told apart by the `lane` label.
            let executed = exp.family("rustflow_tasks_executed_total");
            let lanes_of = |kind: &str| {
                executed.map_or(0, |f| {
                    let of_kind = |s: &&prom::Sample| s.label("lane") == Some(kind);
                    f.samples.iter().filter(of_kind).count()
                })
            };
            let (workers, guests) = (lanes_of("worker"), lanes_of("guest"));
            check(
                "metrics_per_lane_samples",
                workers == threads && workers + guests == ex.num_lanes(),
                format!(
                    "{workers}/{threads} worker + {guests}/{} guest samples",
                    ex.num_lanes() - threads
                ),
            );
        }
        Err(e) => check("metrics_parse", false, e),
    }

    // /status through the strict JSON parser, one worker entry per lane.
    let status = http_get(addr, "/status");
    let mut status_now_us = 0u64;
    match json::parse(&status) {
        Ok(v) => {
            check("status_parse", true, String::new());
            status_now_us = v.get("now_us").and_then(|n| n.as_u64()).unwrap_or(0);
            check("status_now_us", status_now_us > 0, String::new());
            let len_of = |key: &str| v.get(key).and_then(|a| a.as_arr()).map_or(0, <[_]>::len);
            let workers = len_of("workers");
            check(
                "status_workers",
                workers == ex.num_lanes(),
                format!("{workers}/{} lanes", ex.num_lanes()),
            );
            let topos = len_of("topologies");
            check(
                "status_live_topology",
                topos >= 1,
                format!("{topos} in flight"),
            );
        }
        Err(e) => check("status_parse", false, e),
    }

    // /trace?last_ms=500: valid Chrome-trace JSON, events in-window.
    let trace = http_get(addr, "/trace?last_ms=500");
    match json::parse(&trace) {
        Ok(v) => {
            let events = v.as_arr().map(<[_]>::len).unwrap_or(0);
            check("trace_parse", events > 0, format!("{events} events"));
            // All event timestamps within the requested window (plus the
            // slack of the scrapes above happening before this one).
            let horizon = status_now_us.saturating_sub(500_000);
            let in_window = v.as_arr().is_some_and(|evs| {
                evs.iter().all(|e| {
                    e.get("ts")
                        .and_then(|t| t.as_u64())
                        .is_some_and(|ts| ts >= horizon)
                })
            });
            check("trace_window", in_window, format!("horizon {horizon}µs"));
            let shaped = v.as_arr().is_some_and(|evs| {
                evs.iter().all(|e| {
                    e.get("ph").and_then(|p| p.as_str()).is_some()
                        && e.get("tid").and_then(|t| t.as_u64()).is_some()
                })
            });
            check("trace_event_shape", shaped, String::new());
        }
        Err(e) => check("trace_parse", false, e),
    }

    fut.get().expect("smoke workload failed");

    // Per-tenant latency surfaces: a tenant carrying an `SloSpec` pushes
    // a known run count through the front door, then the histogram family
    // on `/metrics` and the percentile block on `/status` must reflect it.
    const TENANT_RUNS: usize = 24;
    let tenant = ex.tenant_with(
        "svc",
        TenantQos {
            slo: Some(SloSpec {
                p99_us: 250_000,
                window: Duration::from_secs(60),
            }),
            ..TenantQos::default()
        },
    );
    for _ in 0..TENANT_RUNS {
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        tf.emplace(|| {});
        tf.run_on(&tenant)
            .expect("tenant admission")
            .get()
            .expect("tenant run succeeds");
    }
    // Latency records fold in just after each promise resolves; the
    // completion counter bumps after the fold, so wait on it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while tenant.stats().completed < TENANT_RUNS as u64 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }

    let metrics = http_get(addr, "/metrics");
    match prom::parse(&metrics) {
        Ok(exp) => {
            let fam = exp.family("rustflow_tenant_latency_us");
            check(
                "latency_family",
                fam.is_some_and(|f| f.kind == "histogram"),
                String::new(),
            );
            let count = fam
                .and_then(|f| {
                    f.samples.iter().find(|s| {
                        s.name == "rustflow_tenant_latency_us_count"
                            && s.label("tenant") == Some("svc")
                            && s.label("phase") == Some("e2e")
                    })
                })
                .map_or(-1.0, |s| s.value);
            check(
                "latency_e2e_count",
                count == TENANT_RUNS as f64,
                format!("{count} of {TENANT_RUNS} runs"),
            );
        }
        Err(e) => check("latency_family", false, e),
    }

    let status = http_get(addr, "/status");
    match json::parse(&status) {
        Ok(v) => {
            let svc = v.get("tenants").and_then(|t| t.as_arr()).and_then(|arr| {
                arr.iter()
                    .find(|t| t.get("name").and_then(|n| n.as_str()) == Some("svc"))
            });
            let slo = svc.and_then(|t| t.at(&["slo", "p99_us"]));
            let slo_ok = slo.and_then(json::Value::as_u64) == Some(250_000);
            check("status_slo_spec", slo_ok, String::new());
            let e2e = svc.and_then(|t| t.at(&["latency_us", "e2e"]));
            let pct = |k: &str| e2e.and_then(|p| p.get(k)).and_then(json::Value::as_f64);
            let ordered = matches!(
                (pct("p50"), pct("p90"), pct("p99"), pct("p999")),
                (Some(a), Some(b), Some(c), Some(d)) if a <= b && b <= c && c <= d
            );
            check("status_latency_percentiles", ordered, String::new());
            check(
                "status_latency_count",
                e2e.and_then(|p| p.get("count"))
                    .and_then(json::Value::as_u64)
                    == Some(TENANT_RUNS as u64),
                String::new(),
            );
        }
        Err(e) => check("status_latency_percentiles", false, e),
    }
}

fn write_report(cli: &Cli, r: &GateResult, pass: bool) {
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.field("schema", 2);
    w.field("threads", r.threads);
    w.field("dim", r.dim);
    w.field("iters", r.iters);
    w.field("reps", r.reps);
    w.field("disabled_ms", format_args!("{:.3}", r.disabled_ms));
    w.field("enabled_ms", format_args!("{:.3}", r.enabled_ms));
    w.field("ratio", format_args!("{:.4}", r.ratio));
    w.field("ratio_gate", RATIO_GATE);
    w.field("scrapes", r.scrapes);
    w.key("smoke");
    w.begin_array();
    for (name, ok, note) in &r.smoke {
        w.begin_object();
        w.field_str("check", name);
        w.field("pass", ok);
        w.field_str("note", note);
        w.end();
    }
    w.end();
    w.field("pass", pass);
    w.end();
    cli.write_report("introspect_report.json", &w.finish());
}
