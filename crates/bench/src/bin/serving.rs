//! Serving-path benchmark and CI regression gate.
//!
//! Models a task-graph *service*: C client threads each keep a bounded
//! pipeline of small topologies in flight through the multi-tenant
//! front door (`Taskflow::run_on`), one tenant per client, swept over
//! client counts 1–16.
//!
//! Reported per client count (best of `--repeats` runs by throughput):
//!
//! * submission throughput (resolved submissions / second);
//! * submit-to-resolve latency percentiles (p50 / p99 / p999, µs),
//!   measured per submission under the pipelined load.
//!
//! Modes:
//!
//! * default — run and write `<out>/serving_report.json` (git-ignored);
//! * `--check` — the CI gate (the report goes under `target/tf-bench/`):
//!   the executor's own `/metrics` latency histograms must agree with the
//!   client-measured percentiles (see below). Exit non-zero on violation. Absolute speed is the pinned
//!   benchmark's business (`benchmark/`, `serve_closed`/`serve_open`),
//!   not this gate's.
//!
//! Every invocation also closes the observability loop: one extra
//! configuration runs with the introspection server attached and an
//! active scraper, then the per-tenant `rustflow_tenant_latency_us`
//! `e2e` histograms are merged across tenants and their interpolated
//! p50/p99 compared against the exact client-side samples. The two
//! views measure the same interval from opposite ends (client stamps
//! around `run_on` → `get`, server stamps submit → finalize, the latter
//! inside the former), so the medians must land within one log-linear
//! bucket width of each other and the server's p99 may not exceed the
//! client's by more than that.

use rustflow::wire::{json, prom};
use rustflow::{Executor, ExecutorBuilder, Histogram, Taskflow, TenantQos};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_bench::harness::{finish_gate, http_get, scrape, Cli, Client, Served};

/// Per-client pipeline depth: how many submissions a client keeps in
/// flight before waiting out the oldest. Deep enough to keep the
/// injector hot, shallow enough that latency stays submission-bound.
const WINDOW: usize = 16;

/// One measured configuration.
struct Measured {
    clients: usize,
    submissions: usize,
    wall_ms: f64,
    throughput_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

/// A single-task request: every task enters through the injector (a
/// chain's successors would run from worker-local deques and dilute the
/// submission path this bench exists to measure), so dispatch, execution,
/// and finalize all run but the front door stays the bottleneck.
fn request_flow(ex: Arc<Executor>) -> Taskflow {
    let tf = Taskflow::with_executor(ex);
    tf.emplace(|| {});
    tf
}

/// Fans out `clients` client threads (one tenant each) against `ex`, each
/// keeping `window` requests built by `flow` in flight (1 = synchronous);
/// returns the sorted per-submission submit→resolve latencies (µs).
fn client_latencies(
    ex: &Arc<Executor>,
    clients: usize,
    per_client: usize,
    window: usize,
    flow: fn(Arc<Executor>) -> Taskflow,
) -> Vec<f64> {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let ex = Arc::clone(ex);
            let tenant = ex.tenant_with(
                &format!("client-{c}"),
                TenantQos {
                    weight: 1,
                    max_queued: window * 2,
                    ..TenantQos::default()
                },
            );
            std::thread::spawn(move || {
                let mut lat_us = Vec::with_capacity(per_client);
                Client::new(Some(window), None).drive(
                    |offered| offered < per_client,
                    |_| {
                        let tf = flow(ex.clone());
                        let t0 = Instant::now();
                        let handle = tf.run_on(&tenant)?;
                        Ok(((t0, tf), handle))
                    },
                    |served| match served {
                        Served::Resolved((t0, _tf), result) => {
                            result.expect("request must succeed");
                            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        Served::Refused(e) => panic!("executor is not shutting down: {e}"),
                    },
                );
                lat_us
            })
        })
        .collect();
    let mut lat_us = Vec::with_capacity(clients * per_client);
    for h in handles {
        lat_us.extend(h.join().expect("client thread panicked"));
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    lat_us
}

/// Measures one client count: each of `--repeats` runs fans `clients`
/// pipelined client threads out against a fresh executor; the fastest run
/// (by wall time) is kept.
fn measure(clients: usize, workers: usize, per_client: usize, repeats: u64) -> Measured {
    let submissions = clients * per_client;
    let run_once = |_| {
        let ex = ExecutorBuilder::new().workers(workers).build();
        let start = Instant::now();
        let lat_us = client_latencies(&ex, clients, per_client, WINDOW, request_flow);
        (start.elapsed().as_secs_f64() * 1e3, lat_us)
    };
    let (wall_ms, lat) = (0..repeats.max(1))
        .map(run_once)
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one repeat ran");
    Measured {
        clients,
        submissions,
        wall_ms,
        throughput_per_s: submissions as f64 / (wall_ms / 1e3),
        p50_us: rustflow::percentile(&lat, 0.50),
        p99_us: rustflow::percentile(&lat, 0.99),
        p999_us: rustflow::percentile(&lat, 0.999),
    }
}

/// Client count for the server-agreement configuration: contended enough
/// that the histograms see a real latency spread, cheap next to the sweep.
const AGREE_CLIENTS: usize = 4;

/// Merges the `phase="e2e"` series of `rustflow_tenant_latency_us` across
/// all tenants in a scraped exposition into one [`Histogram`]: the bucket
/// layout is identical for every shard, so the merge is a de-cumulate and
/// a per-bucket sum.
fn merged_e2e(text: &str) -> Option<Histogram> {
    let exposition = prom::parse(text).ok()?;
    let family = exposition.family("rustflow_tenant_latency_us")?;
    let mut bounds: Vec<u64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut sum = 0u64;
    let mut tenants = 0usize;
    // Each tenant's bucket samples are contiguous and in `le` order (the
    // exporter renders one series at a time and the strict parser rejects
    // torn expositions), so a running cumulative de-cumulates each series
    // and the shared `idx` folds every tenant onto one bucket layout.
    let (mut prev_cum, mut idx) = (0.0f64, 0usize);
    for sample in &family.samples {
        if sample.label("phase") != Some("e2e") {
            continue;
        }
        match sample.name.as_str() {
            "rustflow_tenant_latency_us_bucket" => {
                let le = sample.label("le").expect("bucket without le");
                if le == "+Inf" {
                    tenants += 1;
                    (prev_cum, idx) = (0.0, 0);
                    continue;
                }
                let bound: u64 = le.parse().expect("finite le is an integer");
                if idx == bounds.len() {
                    bounds.push(bound);
                    counts.push(0);
                }
                assert_eq!(bounds[idx], bound, "tenants share one bucket layout");
                counts[idx] += (sample.value - prev_cum) as u64;
                prev_cum = sample.value;
                idx += 1;
            }
            "rustflow_tenant_latency_us_sum" => sum += sample.value as u64,
            _ => {}
        }
    }
    if tenants == 0 {
        return None;
    }
    // The overflow bucket is empty whenever every observation fit a
    // finite bucket (true for any sane run: the top bound is ~134 s).
    counts.push(0);
    Histogram::from_parts(bounds, counts, sum)
}

/// Width (µs) of the log-linear bucket containing `v` — the agreement
/// tolerance between the bucketed server view and exact client samples.
fn bucket_width_at(bounds: &[u64], v: f64) -> f64 {
    let idx = bounds.partition_point(|&b| (b as f64) < v);
    match idx {
        0 => 1.0,
        i if i >= bounds.len() => (bounds[bounds.len() - 1] - bounds[bounds.len() - 2]) as f64,
        i => (bounds[i] - bounds[i - 1]) as f64,
    }
}

/// The observability loop-closer: runs a serving workload against an
/// executor with its introspection server up and a scraper hammering
/// `/metrics` concurrently, then checks the server's merged e2e
/// histogram percentiles against the exact client-side samples.
///
/// Unlike the throughput sweep this uses *synchronous* clients (no
/// pipeline window): the client stamp then brackets exactly the
/// submit→resolve interval the server decomposes, so the two views must
/// agree to within one log-linear bucket width. Each request carries a
/// ~300 µs *sleep* (not a spin — on a single-core runner a spinning
/// worker would sit on the CPU a freshly-resolved client needs to wake
/// on, poisoning the client-side stamp): execution dominates both views
/// identically and wakeup jitter stays well inside the ≤25%-wide bucket
/// at that scale.
fn server_agreement(workers: usize, per_client: usize) -> Vec<String> {
    let per_client = per_client.min(300);
    let ex = ExecutorBuilder::new().workers(workers).build();
    let handle = ex
        .serve_introspection("127.0.0.1:0")
        .expect("bind introspection listener");
    let addr = handle.local_addr().expect("ephemeral introspection addr");

    // Scrape *during* the run: shard merges must be safe (and cheap)
    // while workers are recording into the same shards.
    let scraper = scrape(addr, &["/metrics"], Duration::from_millis(5));
    let slow_request = |ex: Arc<Executor>| {
        let tf = Taskflow::with_executor(ex);
        tf.emplace(|| std::thread::sleep(Duration::from_micros(300)));
        tf
    };
    let lat = client_latencies(&ex, AGREE_CLIENTS, per_client, 1, slow_request);
    scraper.stop();

    // Latency records fold in *after* each run's promise resolves, so
    // poll the endpoint until every submission is visible server-side.
    let expected = (AGREE_CLIENTS * per_client) as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    let hist = loop {
        let merged = merged_e2e(&http_get(addr, "/metrics"));
        match merged {
            Some(h) if h.count() >= expected => break h,
            _ if Instant::now() > deadline => {
                return vec![format!(
                    "server-side e2e histogram never reached {expected} records (got {})",
                    merged.map_or(0, |h| h.count())
                )];
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    };

    let mut failures = Vec::new();
    if hist.count() != expected {
        failures.push(format!(
            "server-side e2e histogram counted {} runs, clients resolved {expected}",
            hist.count()
        ));
    }
    // The server stamps a run's end before its promise resolves, so its
    // e2e interval lies inside the client's submit→`get` bracket: at p50
    // the two agree within a bucket either way, while the client's tail
    // also carries its own wake-up, so p99 is held from one side only.
    for (q, name, two_sided) in [(0.50, "p50", true), (0.99, "p99", false)] {
        let client = rustflow::percentile(&lat, q);
        let server = hist.percentile(q);
        let tol = bucket_width_at(hist.bounds(), client.max(server)) + 1.0;
        println!(
            "   agreement {name}: client {client:>8.1} us  server {server:>8.1} us  (tolerance {tol:.1} us)"
        );
        if server - client > tol || (two_sided && client - server > tol) {
            failures.push(format!(
                "server-side {name} ({server:.1} us) disagrees with client-measured {name} \
                 ({client:.1} us) beyond one bucket width ({tol:.1} us)"
            ));
        }
    }
    failures
}

fn main() {
    let cli = Cli::parse_with(&["--workers", "--per-client", "--repeats"]);
    let workers = cli.number("--workers", 4) as usize;
    let per_client = cli.number("--per-client", 1500) as usize;
    let client_counts = [1usize, 2, 4, 8, 16];
    let mut measured = Vec::new();
    for &clients in &client_counts {
        let m = measure(clients, workers, per_client, cli.number("--repeats", 3));
        println!(
            "c{:<3}: {:>7} submissions in {:>8.1} ms  ({:>9.0}/s)  p50 {:>7.1} us  p99 {:>8.1} us  p999 {:>8.1} us",
            m.clients, m.submissions, m.wall_ms, m.throughput_per_s, m.p50_us, m.p99_us, m.p999_us
        );
        measured.push(m);
    }

    // --- Server-side histogram agreement. --------------------------------
    println!("server-histogram agreement ({AGREE_CLIENTS} clients, scraper attached):");
    let agreement_failures = server_agreement(workers, per_client);
    if !cli.check {
        // Outside `--check` the disagreements are advisory, not fatal.
        for f in &agreement_failures {
            eprintln!("serving agreement WARN: {f}");
        }
    }

    // --- Report. ---------------------------------------------------------
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.field("schema_version", 1);
    w.field("workers", workers);
    w.field("per_client", per_client);
    w.field("window", WINDOW);
    w.key("configs");
    w.begin_array();
    for m in &measured {
        w.begin_object();
        w.field_str("name", &format!("c{}", m.clients));
        w.field("clients", m.clients);
        w.field("submissions", m.submissions);
        w.field("wall_ms", format_args!("{:.3}", m.wall_ms));
        w.field(
            "throughput_per_s",
            format_args!("{:.1}", m.throughput_per_s),
        );
        w.field("p50_us", format_args!("{:.1}", m.p50_us));
        w.field("p99_us", format_args!("{:.1}", m.p99_us));
        w.field("p999_us", format_args!("{:.1}", m.p999_us));
        w.end();
    }
    w.end();
    w.end();
    cli.write_report("serving_report.json", &w.finish());

    if cli.check {
        let ok = format!("{} configs", measured.len());
        finish_gate("serving", &ok, &agreement_failures);
    }
}
