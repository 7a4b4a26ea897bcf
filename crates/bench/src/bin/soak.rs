//! Sustained-overload soak and CI resilience gate.
//!
//! Drives the executor at ~2x its measured capacity through the tenant
//! front door for tens of seconds, with one *poisoned* tenant whose
//! tasks panic on every dispatch (seeded chaos scoped via
//! `ChaosSpec::for_tenant`). Every overload configuration is measured
//! twice — once with the resilience layer engaged (per-run deadlines,
//! queue-side shedding, a circuit breaker and a retry budget on the
//! poisoned tenant) and once as the *ablation* (plain bounded queues,
//! the seed's only backpressure) — interleaved so container load drift
//! hits both sides equally, keeping the best run per side.
//!
//! The gate (`--check`) verifies, under sustained overload:
//!
//! * the extended admission ledger balances at quiescence for every
//!   tenant: `submitted == dispatched + coalesced + shed + rejected_*`;
//! * goodput (deadline-met completions/s) with shedding engaged is at
//!   least 80% of the no-shedding ablation's, measured in the same
//!   process minutes apart (absolute speed is the pinned benchmark's
//!   business, `benchmark/`);
//! * the circuit breaker isolates the poisoned tenant within a bounded
//!   number of dispatched failures, fast-rejects while open, and the
//!   retry budget demonstrably degrades retries to failures;
//! * the new observability surfaces round-trip: `/metrics` parses under
//!   the strict `rustflow::wire::prom` parser with the shed/budget/breaker
//!   families agreeing with the in-process stats, and `/status` is
//!   well-formed JSON carrying the breaker and shed sections.
//!
//! Modes mirror the serving bench: default writes
//! `<out>/soak_report.json` (git-ignored); `--check` gates, exits
//! non-zero on violation and writes under `target/tf-bench/`.

use rustflow::chaos::ChaosSpec;
use rustflow::wire::{json, prom};
use rustflow::{
    AdmissionError, BreakerSpec, Executor, ExecutorBuilder, RetryBudget, RunError, Taskflow,
    TenantQos, TenantStats,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_bench::harness::{finish_gate, http_get, scrape, Cli, Client, Served};

/// Service time of one healthy request (a sleep, not a spin: workers
/// must oversubscribe cores the same way on every runner).
const TASK_US: u64 = 300;
/// Per-run deadline on the resilient side; admitted work that dispatches
/// at all dispatched before this much queueing.
const DEADLINE_MS: u64 = 25;
/// Slack on the client-side deadline-met judgement: execution time plus
/// the bounded reap lag of the measurement window.
const GRACE_MS: u64 = 10;
/// Pipeline depth of the clients that have one: the calibration's
/// closed loop and the poisoned tenant's.
const WINDOW: usize = 16;
/// Healthy clients, one tenant each; open-loop under overload, so that
/// what bounds a tenant's queue is its `max_queued`, not its client.
const HEALTHY: usize = 8;
/// Consecutive failures that open the poisoned tenant's breaker.
const BREAKER_FAILURES: u32 = 5;
/// Open window of the poisoned tenant's breaker.
const BREAKER_OPEN_MS: u64 = 500;

fn build_executor(workers: usize) -> Arc<Executor> {
    // A bounded dispatch budget is what makes overload land in the
    // tenant queues (where shedding lives) rather than in the injector.
    ExecutorBuilder::new()
        .workers(workers)
        .max_inflight(workers * 2)
        .build()
}

/// What one client saw, stamped client-side: the outcomes the report and
/// the gate read (the executor's own ledger counts the rest).
#[derive(Default)]
struct Tally {
    ok: u64,
    good: u64,
    saturated: u64,
    infeasible: u64,
    breaker_rejected: u64,
    lat_ok_us: Vec<f64>,
}

impl Tally {
    fn fold(&mut self, other: Tally) {
        self.ok += other.ok;
        self.good += other.good;
        self.saturated += other.saturated;
        self.infeasible += other.infeasible;
        self.breaker_rejected += other.breaker_rejected;
        self.lat_ok_us.extend(other.lat_ok_us);
    }
}

/// One client's stream of requests until `end`: each is a fresh flow from
/// `make_flow` handed to `submit`, stamped at submission. A run resolves
/// in per-tenant submission order, which is the order the client reaps
/// in, so the stamp at the outcome tracks the true resolve time to within
/// the reap lag (at most one pacing interval for an open-loop client).
fn drive_client(
    mut client: Client<(Instant, Taskflow)>,
    ex: Arc<Executor>,
    submit: impl Fn(&Taskflow) -> Result<rustflow::RunHandle, AdmissionError>,
    make_flow: impl Fn(Arc<Executor>) -> Taskflow,
    end: Instant,
) -> Tally {
    let mut tally = Tally::default();
    client.drive(
        |_| Instant::now() < end,
        |_| {
            let tf = make_flow(ex.clone());
            let t0 = Instant::now();
            let handle = submit(&tf)?;
            Ok(((t0, tf), handle))
        },
        |served| match served {
            Served::Resolved((t0, _tf), Ok(())) => {
                let us = t0.elapsed().as_secs_f64() * 1e6;
                tally.ok += 1;
                if us <= ((DEADLINE_MS + GRACE_MS) * 1000) as f64 {
                    tally.good += 1;
                }
                tally.lat_ok_us.push(us);
            }
            Served::Resolved(
                _,
                Err(RunError::Shed { .. } | RunError::Cancelled | RunError::Panic(_))
                | Err(RunError::Rejected(_)),
            ) => {}
            Served::Resolved(_, Err(e)) => panic!("unexpected run outcome under soak: {e}"),
            Served::Refused(AdmissionError::Saturated { .. }) => tally.saturated += 1,
            Served::Refused(AdmissionError::DeadlineInfeasible { .. }) => tally.infeasible += 1,
            Served::Refused(AdmissionError::BreakerOpen { .. }) => tally.breaker_rejected += 1,
            Served::Refused(AdmissionError::ShuttingDown) => {}
        },
    );
    tally
}

/// A healthy request: one task of [`TASK_US`] service time.
fn healthy_flow(ex: Arc<Executor>) -> Taskflow {
    let tf = Taskflow::with_executor(ex);
    tf.emplace(|| std::thread::sleep(Duration::from_micros(TASK_US)));
    tf
}

/// Closed-loop throughput probe: how many requests/s the executor
/// completes when clients only wait (for queue space, and for the oldest
/// of their window), never pace. The overload phases offer twice this.
/// Nothing may go wrong here: a refused submission or a failed run would
/// calibrate a broken executor to a low capacity instead of failing.
fn calibrate(workers: usize) -> f64 {
    let ex = build_executor(workers);
    let start = Instant::now();
    let end = start + Duration::from_millis(1000);
    let submitted = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..HEALTHY)
        .map(|c| {
            let (ex, submitted) = (Arc::clone(&ex), Arc::clone(&submitted));
            let tenant = ex.tenant(&format!("cal-{c}"));
            let submit = move |tf: &Taskflow| {
                submitted.fetch_add(1, Ordering::Relaxed);
                Ok(tf.run_on(&tenant).expect("calibration submit"))
            };
            let client = Client::new(Some(WINDOW), None);
            std::thread::spawn(move || drive_client(client, ex, submit, healthy_flow, end))
        })
        .collect();
    let done: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("calibration client").ok)
        .sum();
    assert_eq!(done, submitted.load(Ordering::Relaxed), "calibration run");
    done as f64 / start.elapsed().as_secs_f64()
}

/// Everything one overload phase produced, after quiescence.
struct SideRun {
    healthy: Tally,
    poison: Tally,
    tenants: Vec<TenantStats>,
    wall_s: f64,
}

/// Runs one overload phase (resilient or ablation) against `ex` and
/// waits out quiescence. `capacity` is the calibrated closed-loop
/// completion rate; the offered load is twice it.
fn run_side(
    ex: &Arc<Executor>,
    resilient: bool,
    capacity: f64,
    duration: Duration,
    seed: u64,
) -> SideRun {
    let interval = Duration::from_secs_f64((HEALTHY as f64 / (2.0 * capacity)).max(100e-6));
    let start = Instant::now();
    let end = start + duration;
    let mut clients = Vec::new();
    for c in 0..HEALTHY {
        let ex = Arc::clone(ex);
        let tenant = ex.tenant_with(
            &format!("h{c}"),
            TenantQos {
                max_queued: 256,
                ..TenantQos::default()
            },
        );
        clients.push(std::thread::spawn(move || {
            drive_client(
                Client::new(None, Some(interval)),
                Arc::clone(&ex),
                move |tf| {
                    if resilient {
                        tf.try_run_on_deadline(&tenant, Duration::from_millis(DEADLINE_MS))
                    } else {
                        tf.try_run_on(&tenant)
                    }
                },
                healthy_flow,
                end,
            )
        }));
    }
    // The poisoned tenant: every dispatched task panics (seeded chaos,
    // scoped to this tenant alone), retried once per attempt budgeted.
    let poison_thread = {
        let ex = Arc::clone(ex);
        let tenant = ex.tenant_with(
            "poison",
            TenantQos {
                max_queued: 32,
                breaker: resilient.then(|| BreakerSpec {
                    failures: BREAKER_FAILURES,
                    open_for: Duration::from_millis(BREAKER_OPEN_MS),
                }),
                retry_budget: resilient.then_some(RetryBudget {
                    floor: 2,
                    per_mille: 100,
                }),
                ..TenantQos::default()
            },
        );
        let spec = ChaosSpec::new(seed)
            .panic_permille(1000)
            .for_tenant(&tenant);
        let poison_interval = interval * 8;
        std::thread::spawn(move || {
            drive_client(
                Client::new(Some(WINDOW), Some(poison_interval)),
                Arc::clone(&ex),
                move |tf| tf.try_run_on(&tenant),
                move |ex| {
                    let tf = Taskflow::with_executor(ex);
                    tf.emplace(spec.wrap(0, || {})).retry(2);
                    tf
                },
                end,
            )
        })
    };
    let mut healthy = Tally::default();
    for c in clients {
        healthy.fold(c.join().expect("healthy client panicked"));
    }
    let poison = poison_thread.join().expect("poison client panicked");
    let wall_s = start.elapsed().as_secs_f64();
    // Quiescence: the ledger is only required to balance once nothing is
    // queued or in flight.
    let settle_deadline = Instant::now() + Duration::from_secs(10);
    let tenants = loop {
        let tenants = ex.stats().tenants;
        let busy = tenants.iter().any(|t| t.queued != 0 || t.in_flight != 0);
        if !busy || Instant::now() > settle_deadline {
            break tenants;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    SideRun {
        healthy,
        poison,
        tenants,
        wall_s,
    }
}

/// The extended conservation law, per tenant, at quiescence.
fn ledger_failures(side: &str, tenants: &[TenantStats]) -> Vec<String> {
    tenants
        .iter()
        .filter_map(|s| {
            let accounted = s.dispatched
                + s.coalesced
                + s.shed
                + s.rejected_saturated
                + s.rejected_shutdown
                + s.rejected_infeasible
                + s.rejected_breaker;
            (s.submitted != accounted).then(|| {
                format!(
                    "{side}: tenant {} ledger unbalanced: submitted {} != accounted {} ({s:?})",
                    s.name, s.submitted, accounted
                )
            })
        })
        .collect()
}

/// One kept measurement of a side.
struct Measured {
    name: String,
    goodput_per_s: f64,
    ok_per_s: f64,
    p99_us: f64,
    shed: u64,
    saturated: u64,
    infeasible: u64,
    breaker_rejected: u64,
    retry_budget_exhausted: u64,
    poisoned_dispatched: u64,
    poisoned_submitted: u64,
}

fn summarize(name: &str, run: &SideRun) -> Measured {
    let mut lat = run.healthy.lat_ok_us.clone();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let poisoned = run.tenants.iter().find(|t| t.name == "poison");
    Measured {
        name: name.to_string(),
        goodput_per_s: run.healthy.good as f64 / run.wall_s,
        ok_per_s: run.healthy.ok as f64 / run.wall_s,
        p99_us: rustflow::percentile(&lat, 0.99),
        shed: run.tenants.iter().map(|t| t.shed).sum(),
        saturated: run.healthy.saturated,
        infeasible: run.healthy.infeasible,
        breaker_rejected: run.poison.breaker_rejected,
        retry_budget_exhausted: poisoned.map_or(0, |t| t.retry_budget_exhausted),
        poisoned_dispatched: poisoned.map_or(0, |t| t.dispatched),
        poisoned_submitted: poisoned.map_or(0, |t| t.submitted),
    }
}

/// Sum of a family's sample values, optionally for one tenant label.
fn family_sum(exposition: &prom::Exposition, name: &str, tenant: Option<&str>) -> Option<f64> {
    let family = exposition.family(name)?;
    let mut sum = 0.0;
    let mut seen = false;
    for s in &family.samples {
        if let Some(t) = tenant {
            if s.label("tenant") != Some(t) {
                continue;
            }
        }
        sum += s.value;
        seen = true;
    }
    seen.then_some(sum)
}

/// The observability round-trip: a short resilient overload run with the
/// introspection server attached and a live scraper, then the shed /
/// budget / breaker families must agree with the in-process stats and
/// `/status` must carry the breaker and shed sections as valid JSON.
fn observability(workers: usize, seed: u64, capacity: f64) -> Vec<String> {
    let ex = build_executor(workers);
    let handle = ex
        .serve_introspection("127.0.0.1:0")
        .expect("bind introspection listener");
    let addr = handle.local_addr().expect("ephemeral introspection addr");
    // Both endpoints, *during* the storm.
    let scraper = scrape(addr, &["/metrics", "/status"], Duration::from_millis(5));
    let run = run_side(&ex, true, capacity, Duration::from_millis(1500), seed);
    scraper.stop();

    let mut failures = ledger_failures("observability", &run.tenants);
    let text = http_get(addr, "/metrics");
    let exposition = match prom::parse(&text) {
        Ok(e) => e,
        Err(e) => {
            failures.push(format!("strict parser rejected /metrics: {e}"));
            return failures;
        }
    };
    let total_shed: u64 = run.tenants.iter().map(|t| t.shed).sum();
    match family_sum(&exposition, "rustflow_runs_shed_total", None) {
        Some(v) if v as u64 == total_shed => {}
        Some(v) => failures.push(format!(
            "rustflow_runs_shed_total reports {v}, stats say {total_shed}"
        )),
        None => failures.push("rustflow_runs_shed_total missing from /metrics".into()),
    }
    let poisoned = run.tenants.iter().find(|t| t.name == "poison");
    match family_sum(&exposition, "rustflow_breaker_state", Some("poison")) {
        Some(v) if poisoned.is_some_and(|t| t.breaker_state == v as u64) => {}
        other => failures.push(format!(
            "rustflow_breaker_state disagrees with stats ({:?} vs metric {other:?})",
            poisoned.map(|t| t.breaker_state)
        )),
    }
    // What the storm must have moved at least once, and where it shows.
    for (family, tenant, what) in [
        (
            "rustflow_retry_budget_exhausted_total",
            Some("poison"),
            "the poisoned tenant's retry budget never ran dry",
        ),
        (
            "rustflow_tenant_rejected_breaker_total",
            Some("poison"),
            "the open breaker never fast-rejected",
        ),
        (
            "rustflow_breaker_transitions_total",
            None,
            "the breaker never changed state",
        ),
    ] {
        match family_sum(&exposition, family, tenant) {
            Some(v) if v >= 1.0 => {}
            other => failures.push(format!("{what}: {family} is {other:?} in /metrics")),
        }
    }
    if family_sum(&exposition, "rustflow_watchdog_overload_shed_total", None).is_none() {
        failures.push("rustflow_watchdog_overload_shed_total missing from /metrics".into());
    }

    let status = http_get(addr, "/status");
    if let Err(e) = json::parse(&status) {
        failures.push(format!("/status is not valid JSON: {e}"));
    }
    for key in [
        "\"breaker\"",
        "\"shed\"",
        "\"retry_budget_exhausted\"",
        "\"overload_shed\"",
        "\"breaker_transitions\"",
    ] {
        if !status.contains(key) {
            failures.push(format!("/status is missing the {key} section"));
        }
    }
    failures
}

fn main() {
    let cli = Cli::parse_with(&["--workers", "--duration-ms", "--repeats", "--seed"]);
    let workers = cli.number("--workers", 4) as usize;
    let duration_ms = cli.number("--duration-ms", 7000);
    let seed = cli.number("--seed", 1802);
    let capacity = calibrate(workers);
    println!("calibrated capacity: {capacity:.0} requests/s (offering 2x)");

    let duration = Duration::from_millis(duration_ms);
    let mut ledger_problems = Vec::new();
    // Interleave resilient/ablation repeats; keep the best run per side
    // by goodput so load drift cannot bias the A/B.
    let mut best: [Option<(SideRun, u64)>; 2] = [None, None];
    for _ in 0..cli.number("--repeats", 2).max(1) {
        for (side, resilient) in [(0usize, true), (1usize, false)] {
            let ex = build_executor(workers);
            let run = run_side(&ex, resilient, capacity, duration, seed);
            ledger_problems.extend(ledger_failures(
                if resilient { "resilient" } else { "ablation" },
                &run.tenants,
            ));
            let good = run.healthy.good;
            if best[side].as_ref().is_none_or(|(_, b)| good > *b) {
                best[side] = Some((run, good));
            }
        }
    }
    let [resilient_run, ablation_run] = best.map(|b| b.expect("at least one repeat ran").0);
    let resilient = summarize("resilient", &resilient_run);
    let ablation = summarize("ablation", &ablation_run);
    for m in [&resilient, &ablation] {
        println!(
            "{:>10}: goodput {:>8.0}/s  ok {:>8.0}/s  p99 {:>9.1} us  shed {:>6}  saturated {:>6}  infeasible {:>4}  breaker-rejected {:>5}  poisoned dispatched {}/{}",
            m.name,
            m.goodput_per_s,
            m.ok_per_s,
            m.p99_us,
            m.shed,
            m.saturated,
            m.infeasible,
            m.breaker_rejected,
            m.poisoned_dispatched,
            m.poisoned_submitted,
        );
    }

    println!("observability round-trip (scraper attached):");
    let obs_failures = observability(workers, seed, capacity);
    if !cli.check {
        for f in ledger_problems.iter().chain(&obs_failures) {
            eprintln!("soak WARN: {f}");
        }
    }

    let mut w = json::Writer::pretty();
    w.begin_object();
    w.field("schema_version", 1);
    w.field("workers", workers);
    w.field("duration_ms", duration_ms);
    w.field("seed", seed);
    w.field("capacity_per_s", format_args!("{capacity:.1}"));
    w.key("configs");
    w.begin_array();
    for m in [&resilient, &ablation] {
        w.begin_object();
        w.field_str("name", &m.name);
        w.field("goodput_per_s", format_args!("{:.1}", m.goodput_per_s));
        w.field("ok_per_s", format_args!("{:.1}", m.ok_per_s));
        w.field("p99_us", format_args!("{:.1}", m.p99_us));
        w.field("shed", m.shed);
        w.field("saturated", m.saturated);
        w.field("infeasible", m.infeasible);
        w.field("breaker_rejected", m.breaker_rejected);
        w.field("retry_budget_exhausted", m.retry_budget_exhausted);
        w.field("poisoned_dispatched", m.poisoned_dispatched);
        w.field("poisoned_submitted", m.poisoned_submitted);
        w.end();
    }
    w.end();
    w.end();
    cli.write_report("soak_report.json", &w.finish());

    if cli.check {
        let mut failures = ledger_problems;
        failures.extend(gate(&resilient, &ablation, duration_ms));
        failures.extend(obs_failures);
        finish_gate(
            "soak",
            "ledger, goodput ratio, isolation, observability",
            &failures,
        );
    }
}

/// The resilience gate proper: the live A/B and what the machinery did.
fn gate(resilient: &Measured, ablation: &Measured, duration_ms: u64) -> Vec<String> {
    let mut failures = Vec::new();

    // Shedding must not cost goodput: at 2x load, dropping doomed work
    // early should preserve (in practice: vastly improve) deadline-met
    // throughput relative to letting queues convoy.
    if resilient.goodput_per_s < 0.8 * ablation.goodput_per_s {
        failures.push(format!(
            "goodput under shedding ({:.0}/s) fell below 80% of the no-shedding ablation ({:.0}/s)",
            resilient.goodput_per_s, ablation.goodput_per_s
        ));
    }
    // The overload must actually exercise the machinery, or the A/B is
    // vacuous.
    if resilient.shed == 0 {
        failures.push("sustained 2x overload never shed a single run".into());
    }
    if resilient.breaker_rejected == 0 {
        failures.push("the open breaker never fast-rejected a submission".into());
    }
    if resilient.retry_budget_exhausted == 0 {
        failures.push("the retry budget never degraded a retry to a failure".into());
    }
    // Breaker isolation: once open, only half-open probes reach dispatch
    // (one per open window), so dispatched failures are bounded by the
    // opening threshold plus the probe cadence, with slack for queued
    // stragglers admitted before the breaker opened.
    let breaker_bound = u64::from(BREAKER_FAILURES) + duration_ms / BREAKER_OPEN_MS + 10;
    if resilient.poisoned_dispatched > breaker_bound {
        failures.push(format!(
            "breaker failed to isolate the poisoned tenant: {} dispatched failures, bound {breaker_bound}",
            resilient.poisoned_dispatched
        ));
    }

    failures
}
