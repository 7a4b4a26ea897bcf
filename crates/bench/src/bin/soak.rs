//! Sustained-overload soak and CI resilience gate.
//!
//! Drives the executor at ~2x its measured capacity through the tenant
//! front door for tens of seconds, with one *poisoned* tenant whose
//! tasks panic on every dispatch (seeded chaos scoped via
//! `ChaosSpec::for_tenant`). Every overload configuration is measured
//! twice — once with the resilience layer engaged (per-run deadlines,
//! judged at dispatch, where an expired run is shed, and a circuit
//! breaker on the poisoned tenant) and once as the *ablation* (plain
//! bounded queues, the seed's only backpressure) — interleaved so
//! container load drift hits both sides equally, keeping the best run per
//! side.
//!
//! The gate verifies, under sustained overload:
//!
//! * the extended admission ledger balances at quiescence for every
//!   tenant: `submitted == dispatched + coalesced + shed + rejected_*`;
//! * goodput (deadline-met completions/s) with shedding engaged is at
//!   least 80% of the capacity calibrated in the same process (the
//!   ablation's is reported beside it; absolute speed is the pinned
//!   benchmark's business, `benchmark/`);
//! * the circuit breaker isolates the poisoned tenant within a bounded
//!   number of dispatched failures and fast-rejects while open;
//! * the observability surfaces round-trip: `/metrics` parses under the
//!   strict `rustflow::wire::prom` parser with the shed and breaker
//!   families agreeing with the in-process stats, and `/status` is
//!   well-formed JSON carrying the breaker and shed sections.
//!
//! Every check is reported through `harness::Gate` into
//! `soak_report.json` (git-ignored): in `<out>`, or with `--check` under
//! `target/tf-bench/`, exiting non-zero on a violation.

use rustflow::chaos::ChaosSpec;
use rustflow::wire::{json, prom};
use rustflow::{
    AdmissionError, BreakerSpec, Executor, ExecutorBuilder, RunError, Taskflow, TenantQos,
    TenantStats,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_bench::harness::{http_get, scrape, Cli, Client, Gate, Served};

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

/// What one client saw of its completed runs, stamped client-side (the
/// executor's own ledger counts refusals and the rest).
#[derive(Default)]
struct Tally {
    good: u64,
    lat_ok_us: Vec<f64>,
}

impl Tally {
    fn fold(&mut self, other: Tally) {
        self.good += other.good;
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
            Served::Refused(_) => {}
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
    let clients: Vec<_> = (0..HEALTHY)
        .map(|c| {
            let ex = Arc::clone(&ex);
            let tenant = ex.tenant(&format!("cal-{c}"));
            let submit = move |tf: &Taskflow| Ok(tf.run_on(&tenant).expect("calibration submit"));
            let client = Client::new(Some(WINDOW), None);
            std::thread::spawn(move || drive_client(client, ex, submit, healthy_flow, end))
        })
        .collect();
    let done: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("calibration client").lat_ok_us.len() as u64)
        .sum();
    let submitted: u64 = ex.stats().tenants.iter().map(|t| t.submitted).sum();
    assert_eq!(done, submitted, "calibration run");
    done as f64 / start.elapsed().as_secs_f64()
}

/// Everything one overload phase produced, after quiescence.
struct SideRun {
    healthy: Tally,
    tenants: Vec<TenantStats>,
    wall_s: f64,
}

impl SideRun {
    /// Deadline-met completions of the healthy tenants per second.
    fn goodput_per_s(&self) -> f64 {
        self.healthy.good as f64 / self.wall_s
    }

    /// Runs shed from every tenant's queue.
    fn shed(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// The poisoned tenant's counters.
    fn poisoned(&self) -> TenantStats {
        let poisoned = self.tenants.iter().find(|t| t.name == "poison");
        poisoned.cloned().unwrap_or_default()
    }

    /// A ledger counter summed over the healthy tenants.
    fn healthy_sum(&self, counter: fn(&TenantStats) -> u64) -> u64 {
        let healthy = self.tenants.iter().filter(|t| t.name != "poison");
        healthy.map(counter).sum()
    }

    /// The row of `gate` that shows this side.
    fn record(&self, gate: &mut Gate, name: &str) {
        let mut lat = self.healthy.lat_ok_us.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let poisoned = self.poisoned();
        let ok_per_s = self.healthy.lat_ok_us.len() as f64 / self.wall_s;
        let p99_us = rustflow::percentile(&lat, 0.99);
        gate.row(
            name,
            &[
                (
                    "goodput_per_s",
                    &format_args!("{:.1}", self.goodput_per_s()),
                ),
                ("ok_per_s", &format_args!("{ok_per_s:.1}")),
                ("p99_us", &format_args!("{p99_us:.1}")),
                ("shed", &self.shed()),
                ("saturated", &self.healthy_sum(|t| t.rejected_saturated)),
                ("breaker_rejected", &poisoned.rejected_breaker),
                ("poisoned_dispatched", &poisoned.dispatched),
                ("poisoned_submitted", &poisoned.submitted),
            ],
        );
    }
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
    // scoped to this tenant alone), on each of its three attempts.
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
    poison_thread.join().expect("poison client panicked");
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
        tenants,
        wall_s,
    }
}

/// The extended conservation law, per tenant, at quiescence.
fn check_ledger(gate: &mut Gate, run: &str, tenants: &[TenantStats]) {
    let unbalanced: Vec<String> = tenants
        .iter()
        .filter_map(|s| {
            let accounted = s.dispatched
                + s.coalesced
                + s.shed
                + s.rejected_saturated
                + s.rejected_shutdown
                + s.rejected_breaker;
            (s.submitted != accounted).then(|| {
                format!(
                    "; tenant {}: submitted {} != accounted {} ({s:?})",
                    s.name, s.submitted, accounted
                )
            })
        })
        .collect();
    gate.check(
        &format!("{run}: the ledger balances"),
        unbalanced.is_empty(),
        format_args!("{} tenants{}", tenants.len(), unbalanced.concat()),
    );
}

/// Sum of a family's sample values, optionally for one tenant label;
/// `None` when no sample matches.
fn family_sum(exposition: &prom::Exposition, name: &str, tenant: Option<&str>) -> Option<f64> {
    let samples = exposition.family(name)?.samples.iter();
    let matching = samples.filter(|s| tenant.is_none_or(|t| s.label("tenant") == Some(t)));
    matching.map(|s| s.value).reduce(|a, b| a + b)
}

/// The observability round-trip: a short resilient overload run with the
/// introspection server attached and a live scraper, then the shed and
/// breaker families must agree with the in-process stats and
/// `/status` must carry the breaker and shed sections as valid JSON.
fn observability(gate: &mut Gate, workers: usize, seed: u64, capacity: f64) {
    let ex = build_executor(workers);
    let handle = ex
        .serve_introspection("127.0.0.1:0")
        .expect("bind introspection listener");
    let addr = handle.local_addr().expect("ephemeral introspection addr");
    // Both endpoints, *during* the storm.
    let scraper = scrape(addr, &["/metrics", "/status"], Duration::from_millis(5));
    let run = run_side(&ex, true, capacity, Duration::from_millis(1500), seed);
    scraper.stop();

    check_ledger(gate, "observability run", &run.tenants);
    let exposition = prom::parse(&http_get(addr, "/metrics"));
    let error = exposition.as_ref().err();
    gate.check(
        "/metrics parses strictly",
        error.is_none(),
        error.map_or("", String::as_str),
    );
    let Ok(exposition) = exposition else {
        return;
    };
    let (shed, poisoned) = (run.shed(), run.poisoned());
    for (family, tenant, stats) in [
        ("rustflow_runs_shed_total", None, shed),
        (
            "rustflow_breaker_state",
            Some("poison"),
            poisoned.breaker_state,
        ),
    ] {
        let metric = family_sum(&exposition, family, tenant);
        gate.check(
            &format!("/metrics: {family} equals the stats"),
            metric.map(|v| v as u64) == Some(stats),
            format_args!("metric {metric:?}, stats {stats}"),
        );
    }
    // What the storm must have moved at least once, and where it shows.
    for (family, tenant, what) in [
        (
            "rustflow_tenant_rejected_breaker_total",
            Some("poison"),
            "the open breaker fast-rejected",
        ),
        (
            "rustflow_breaker_transitions_total",
            None,
            "the breaker changed state",
        ),
    ] {
        let metric = family_sum(&exposition, family, tenant);
        gate.check(
            &format!("/metrics: {what}"),
            metric.is_some_and(|v| v >= 1.0),
            format_args!("{family} is {metric:?}"),
        );
    }

    let status = http_get(addr, "/status");
    let error = json::parse(&status).err();
    gate.check(
        "/status parses as JSON",
        error.is_none(),
        error.unwrap_or_default(),
    );
    for key in ["breaker", "shed", "breaker_transitions"] {
        let present = status.contains(&format!("\"{key}\""));
        gate.check(&format!("/status has the {key} section"), present, "");
    }
}

fn main() {
    let cli = Cli::parse_with(&["--workers", "--duration-ms", "--repeats", "--seed"]);
    let workers = cli.number("--workers", 4) as usize;
    let duration_ms = cli.number("--duration-ms", 7000);
    let seed = cli.number("--seed", 1802);
    let capacity = calibrate(workers);
    let mut gate = Gate::new("soak");
    gate.row(
        "calibration",
        &[
            ("workers", &workers),
            ("duration_ms", &duration_ms),
            ("seed", &seed),
            ("capacity_per_s", &format_args!("{capacity:.1}")),
        ],
    );

    let duration = Duration::from_millis(duration_ms);
    // Interleave resilient/ablation repeats; keep the best run per side
    // by goodput so load drift cannot bias the A/B.
    let mut best: [Option<SideRun>; 2] = [None, None];
    for repeat in 1..=cli.number("--repeats", 2).max(1) {
        for (side, name) in [(0, "resilient"), (1, "ablation")] {
            let ex = build_executor(workers);
            let run = run_side(&ex, side == 0, capacity, duration, seed);
            check_ledger(&mut gate, &format!("{name} run {repeat}"), &run.tenants);
            if best[side]
                .as_ref()
                .is_none_or(|b| run.healthy.good > b.healthy.good)
            {
                best[side] = Some(run);
            }
        }
    }
    let [resilient, ablation] = best.map(|b| b.expect("at least one repeat ran"));
    resilient.record(&mut gate, "resilient");
    ablation.record(&mut gate, "ablation");
    check_resilience(&mut gate, &resilient, capacity, duration_ms);
    observability(&mut gate, workers, seed, capacity);
    gate.finish(&cli);
}

/// The resilience gate proper: what the resilient side delivered under
/// the overload and what its machinery did.
fn check_resilience(gate: &mut Gate, run: &SideRun, capacity: f64, duration_ms: u64) {
    // Shedding must defend the capacity: at 2x load, refusing and dropping
    // doomed work early keeps the executor on runs that can still meet
    // their deadline, instead of letting queues convoy.
    let goodput = run.goodput_per_s();
    gate.check(
        "goodput under shedding",
        goodput >= 0.8 * capacity,
        format_args!(
            "{goodput:.0}/s, 80% of the calibrated capacity is {:.0}/s",
            0.8 * capacity
        ),
    );
    // The overload must actually exercise the machinery, or the A/B is
    // vacuous.
    let poisoned = run.poisoned();
    for (what, count) in [
        ("runs shed under sustained 2x overload", run.shed()),
        (
            "submissions fast-rejected by the open breaker",
            poisoned.rejected_breaker,
        ),
    ] {
        gate.check(what, count > 0, format_args!("{count}"));
    }
    // Breaker isolation: once open, only half-open probes reach dispatch
    // (one per open window), so dispatched failures are bounded by the
    // opening threshold plus the probe cadence, with slack for queued
    // stragglers admitted before the breaker opened.
    let bound = u64::from(BREAKER_FAILURES) + duration_ms / BREAKER_OPEN_MS + 10;
    gate.check(
        "the breaker isolates the poisoned tenant",
        poisoned.dispatched <= bound,
        format_args!("{} dispatched failures, bound {bound}", poisoned.dispatched),
    );
}
