//! Observing the scheduler (§III-G spirit): attach a tracer to the
//! executor, run a wavefront, and export a Chrome trace
//! (`chrome://tracing` / https://ui.perfetto.dev) showing which worker
//! ran which task when.
//!
//! ```text
//! cargo run --release --example trace_scheduler [dim] [threads]
//! ```

use rustflow::{Executor, ExecutorObserver, Taskflow, Tracer};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let dim: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let executor = Executor::new(threads);
    let tracer = Arc::new(Tracer::new(executor.num_lanes()));
    executor.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);

    let tf = Taskflow::with_executor(Arc::clone(&executor));
    let tasks: Vec<_> = (0..dim * dim)
        .map(|id| {
            tf.emplace(move || {
                // A small amount of real work so spans are visible.
                let mut x = id as u64 + 1;
                for _ in 0..2_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(x);
            })
            .name(format!("block_{}_{}", id / dim, id % dim))
        })
        .collect();
    for r in 0..dim {
        for c in 0..dim {
            let id = r * dim + c;
            if c + 1 < dim {
                tasks[id].precede(tasks[id + 1]);
            }
            if r + 1 < dim {
                tasks[id].precede(tasks[id + dim]);
            }
        }
    }
    tf.wait_for_all();

    let spans = rustflow::profile::task_spans(&tracer.sched_events());
    println!(
        "traced {} task executions across {} workers",
        spans.len(),
        threads
    );
    // Per-lane load summary: the workers, then the guest seats the caller
    // of `wait_for_all` helped on.
    let mut per_lane = vec![(0usize, 0u64); executor.num_lanes()];
    for s in &spans {
        per_lane[s.worker].0 += 1;
        per_lane[s.worker].1 += s.end_us - s.begin_us;
    }
    for (lane, (count, busy_us)) in per_lane.iter().enumerate() {
        println!("lane {lane}: {count} tasks, {busy_us} us busy");
    }

    // Re-run with the tracer still installed to produce the JSON export.
    let tf2 = Taskflow::with_executor(executor);
    for i in 0..64 {
        let t = tf2.emplace(std::thread::yield_now).name(format!("t{i}"));
        let _ = t;
    }
    tf2.wait_for_all();
    let json = tracer.chrome_trace_json();
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/trace.json", &json).expect("cannot write trace");
    println!(
        "chrome trace with {} events -> results/trace.json (open in ui.perfetto.dev)",
        json.matches("\"ph\":\"X\"").count()
    );
}
