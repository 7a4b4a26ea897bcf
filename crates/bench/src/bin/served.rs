//! Allocations per served run, counted exactly: what one trip through the
//! front door costs the heap once everything is warm.
//!
//! Two closed loops on **one worker**, 10 000 single-task runs each:
//!
//! * **tenant** — a window of 16 runs kept in flight over 16 pre-built
//!   flows through one tenant (`Taskflow::run_on`), the regime of the
//!   pinned benchmark's `serve_closed`;
//! * **untenanted** — `Taskflow::run().get()` on one pre-built flow.
//!
//! Allocation counts come from `tf_bench::count_alloc`, installed here,
//! and cover every thread from the first timed submission to the last
//! resolution. Each flow first runs as often as it will when timed and is
//! `gc`'d, and a burst of 64 concurrent runs sizes the executor's registry,
//! so neither a flow's list of futures nor the registry grows while
//! counting: what remains is what a run itself allocates (the
//! promise/future pair), and it repeats exactly.
//!
//! Writes `<out>/served.json`. With `--check` the freshly measured counts
//! are compared against the committed `<out>/served.json`: either loop
//! allocating more often than the committed file says fails the binary,
//! and the run's own report goes under `target/tf-bench/`, never over the
//! committed file. Every run must resolve `Ok` and every body must have
//! run exactly once per run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tf_bench::count_alloc::{self, Counted, CountingAlloc, Stamp};
use tf_bench::harness::{Cli, Client, Served};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RUNS: usize = 10_000;
const WINDOW: usize = 16;

fn flow(executor: &Arc<rustflow::Executor>, served: &Arc<AtomicU64>) -> rustflow::Taskflow {
    let tf = rustflow::Taskflow::with_executor(Arc::clone(executor));
    let served = Arc::clone(served);
    tf.emplace(move || {
        served.fetch_add(1, Ordering::Relaxed);
    });
    tf
}

/// `RUNS` runs through `tenant`, `WINDOW` in flight, flow `i % WINDOW` for
/// run `i` (so a flow is resubmitted only after its last run resolved).
/// `client` is the caller's, its window allocated beforehand, so that it
/// is not counted.
fn tenant_runs(flows: &[rustflow::Taskflow], tenant: &rustflow::Tenant, client: &mut Client<()>) {
    client.drive(
        |offered| offered < RUNS,
        |i| Ok(((), flows[i % WINDOW].run_on(tenant)?)),
        |served| match served {
            Served::Resolved((), result) => result.expect("served run failed"),
            Served::Refused(e) => panic!("not admitted: {e}"),
        },
    );
}

fn untenanted_loop(flow: &rustflow::Taskflow) {
    for _ in 0..RUNS {
        flow.run().get().expect("run failed");
    }
}

fn main() {
    let cli = Cli::parse();
    let executor = rustflow::Executor::new(1);
    let tenant = executor.tenant("served");
    let served = Arc::new(AtomicU64::new(0));
    let mut flows: Vec<rustflow::Taskflow> =
        (0..WINDOW).map(|_| flow(&executor, &served)).collect();
    let mut lone = flow(&executor, &served);
    println!("Served runs: {RUNS} single-task runs per loop, 1 worker, window {WINDOW}");

    // Warm-up: the same loops, then `gc`, which keeps each list's capacity.
    // First a burst of 4 x WINDOW runs in flight at once, which sizes the
    // executor's registry past anything the loops reach (they hold at most
    // WINDOW + 1 registrations: a resolved run keeps its slot until the
    // worker gets round to vacating it).
    let burst: Vec<rustflow::Taskflow> =
        (0..4 * WINDOW).map(|_| flow(&executor, &served)).collect();
    let handles: Vec<_> = burst
        .iter()
        .map(|tf| tf.run_on(&tenant).expect("admitted"))
        .collect();
    for handle in handles {
        handle.get().expect("warm-up run failed");
    }
    drop(burst);
    let warmed = served.load(Ordering::Relaxed);
    let mut client = Client::new(Some(WINDOW), None);
    tenant_runs(&flows, &tenant, &mut client);
    untenanted_loop(&lone);
    for tf in flows.iter_mut().chain(std::iter::once(&mut lone)) {
        tf.gc();
    }

    let t0 = Stamp::now();
    tenant_runs(&flows, &tenant, &mut client);
    let t1 = Stamp::now();
    untenanted_loop(&lone);
    let t2 = Stamp::now();
    assert_eq!(
        served.load(Ordering::Relaxed) - warmed,
        4 * RUNS as u64,
        "every body must run exactly once per run"
    );

    let loops = [
        ("tenant", Counted::all(t0, t1)),
        ("untenanted", Counted::all(t1, t2)),
    ];
    let sizes = [("runs", RUNS), ("window", WINDOW), ("workers", 1)];
    count_alloc::report_and_gate(&cli, "served", &sizes, ("loops", "run", RUNS), &loops);
}
