//! One-shot graph cost, phase by phase: what it takes to build, freeze,
//! run and drop a fresh 10 000-node graph, per node, in allocations, bytes
//! and nanoseconds.
//!
//! The graph is the paper's graph-traversal micro-benchmark (the seeded
//! `randdag`, degrees bounded at 4) on **one worker**, the regime of the
//! pinned benchmark's `traversal_oneshot` workload and of `tf-timer`'s v2
//! engine, where nothing is re-armed and per-task creation cost is the
//! whole story. The four phases:
//!
//! * **build** — `emplace` every task, `precede` every edge;
//! * **freeze** — `Taskflow::dispatch` up to its return: the freeze sweep
//!   (sources, sanitizer verdict), the topology, the first publish;
//! * **run** — from there until the run's future resolves;
//! * **drop** — dropping the taskflow (nodes, closures, chunks).
//!
//! Allocation counts come from `tf_bench::count_alloc`, installed here.
//! Build, freeze and drop happen on the calling thread and are counted
//! there (thread-local counters), so they are exact; run is every thread's
//! allocations from dispatch to resolution less the calling thread's
//! freeze. Times are the median over the repetitions, counts the maximum
//! (they do not vary). The freeze/run time split is only as good as the
//! OS scheduler: in a repetition where the woken worker preempts the
//! caller inside `dispatch`, the whole run is charged to freeze (the first
//! few repetitions after start-up tend to go that way). The median over
//! the default 15 repetitions shrugs those off; the sum of the two phases
//! is steady either way.
//!
//! Checks each phase's allocation count against the committed
//! `<out>/oneshot_report.json` (a phase allocating more often than the
//! committed report says fails) and writes its own report: over the
//! committed one, or with `--check` under `target/tf-bench/`, failing the
//! binary if a check failed. Every repetition asserts exactly-once
//! execution by task count and checksum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tf_bench::count_alloc::{self, Counted, CountingAlloc, Stamp};
use tf_bench::harness::{median, Cli, Gate};
use tf_workloads::kernels::nominal_work;
use tf_workloads::randdag::{generate_edges, RandDagSpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PHASES: [&str; 4] = ["build", "freeze", "run", "drop"];

/// Builds, dispatches, awaits and drops one fresh graph; returns the four
/// phases in [`PHASES`] order.
fn one_shot(
    spec: RandDagSpec,
    edges: &[(u32, u32)],
    executor: &Arc<rustflow::Executor>,
) -> [Counted; 4] {
    // `[count, sum]`.
    let totals = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let t0 = Stamp::now();
    let tf = rustflow::Taskflow::with_executor(Arc::clone(executor));
    {
        let tasks: Vec<rustflow::Task<'_>> = (0..spec.nodes)
            .map(|v| {
                let totals = Arc::clone(&totals);
                // The benchmark's closure shape, two words: a pointer and
                // `v` packed with the kernel's iterations.
                let packed = (v as u64) << 32 | u64::from(spec.work_iters);
                tf.emplace(move || {
                    let (v, work_iters) = (packed >> 32, packed as u32);
                    totals[0].fetch_add(1, Ordering::Relaxed);
                    totals[1].fetch_add(nominal_work(v + 1, work_iters), Ordering::Relaxed);
                })
            })
            .collect();
        for &(u, v) in edges {
            tasks[u as usize].precede(tasks[v as usize]);
        }
    }
    let t1 = Stamp::now();
    let run = tf.dispatch();
    let t2 = Stamp::now();
    run.get().expect("one-shot run failed");
    let t3 = Stamp::now();
    drop(run);
    drop(tf);
    let t4 = Stamp::now();

    let expected = (0..spec.nodes).fold(0u64, |acc, v| {
        acc.wrapping_add(nominal_work(v as u64 + 1, spec.work_iters))
    });
    assert_eq!(
        totals[0].load(Ordering::Relaxed),
        spec.nodes as u64,
        "every task must run exactly once"
    );
    assert_eq!(
        totals[1].load(Ordering::Relaxed),
        expected,
        "checksum mismatch"
    );
    [
        Counted::mine(t0, t1),
        Counted::mine(t1, t2),
        // Everything any thread allocated from dispatch to resolution,
        // less the calling thread's freeze: the worker starts on the first
        // published source, while `dispatch` is still returning.
        Counted {
            allocs: (t3.all_allocs - t1.all_allocs) - (t2.my_allocs - t1.my_allocs),
            bytes: (t3.all_bytes - t1.all_bytes) - (t2.my_bytes - t1.my_bytes),
            ns: (t3.at - t2.at).as_nanos() as f64,
        },
        Counted::mine(t3, t4),
    ]
}

fn main() {
    let cli = Cli::parse();
    let reps = cli.number("--reps", 15).max(1) as usize;
    let spec = RandDagSpec::new(10_000);
    let edges = generate_edges(spec);
    let executor = rustflow::Executor::new(1);
    // Warm-up: fault in the executor, the allocator's bins and the code.
    for _ in 0..3 {
        one_shot(spec, &edges, &executor);
    }
    let runs: Vec<[Counted; 4]> = (0..reps)
        .map(|_| one_shot(spec, &edges, &executor))
        .collect();

    let phases: Vec<(&str, Counted)> = PHASES
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let mut ns: Vec<f64> = runs.iter().map(|r| r[p].ns).collect();
            let phase = Counted {
                allocs: runs.iter().map(|r| r[p].allocs).max().expect("reps > 0"),
                bytes: runs.iter().map(|r| r[p].bytes).max().expect("reps > 0"),
                ns: median(&mut ns),
            };
            (*name, phase)
        })
        .collect();
    let mut gate = Gate::new("oneshot");
    gate.row(
        "graph",
        &[
            ("nodes", &spec.nodes),
            ("edges", &edges.len()),
            ("workers", &1),
            ("repetitions", &reps),
        ],
    );
    count_alloc::allocation_rows(&cli, &mut gate, ("node", spec.nodes), &phases);
    gate.finish(&cli);
}
