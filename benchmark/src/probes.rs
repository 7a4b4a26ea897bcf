//! Layer probes: short measurements of one mechanism alone, run in the
//! traced pass beside the workloads. Each calls only public functions.

use crate::stats::{percentile, Summary};
use crate::trace::now_ns;
use crate::workloads::Machine;
use rustflow::wsq::{self, Steal};
use rustflow::{
    BusyCounter, Executor, ExecutorBuilder, ExecutorObserver, IntrospectConfig, Taskflow,
};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tf_timer::{CircuitSpec, Engine, Timer};
use tf_workloads::run::ReusableRustflow;
use tf_workloads::{shapes, wavefront, WavefrontSpec};

/// Runs every probe; `budget_ns` is the time each timed loop may take.
pub fn run_all(m: Machine, budget_ns: u64) -> crate::passes::Metrics {
    let mut out = BTreeMap::new();
    out.insert("clock.now_ns", clock_pair_ns());
    let (push_pop, steal, contended) = wsq_probes(budget_ns);
    out.insert("wsq.push_pop_ns", push_pop);
    out.insert("wsq.steal_ns", steal);
    out.insert("wsq.steal_contended_ns", contended);
    out.insert(
        "scheduler.chain_ns_per_task",
        rearmed_ns_per_task(&shapes::chain(100_000), 100_000, budget_ns),
    );
    out.insert(
        "scheduler.fan_ns_per_task",
        rearmed_ns_per_task(&shapes::fan(10_000), 10_001, budget_ns),
    );
    out.insert(
        "scheduler.parallel_efficiency",
        parallel_efficiency(m, budget_ns),
    );
    let (emplace, precede) = build_probes();
    out.insert("taskflow.emplace_ns", emplace);
    out.insert("taskflow.precede_ns", precede);
    out.insert("subflow.spawn_ns_per_child", subflow_spawn_ns(budget_ns));
    out.insert(
        "notifier.idle_roundtrip_us",
        idle_roundtrip_us(m, budget_ns),
    );
    out.insert(
        "frontdoor.untenanted_submit_ns_p50",
        untenanted_submit_ns(m, budget_ns),
    );
    let (observer, introspect) = observability_tax(m, budget_ns);
    out.insert("observer.tax_ratio", observer);
    out.insert("introspect.tax_ratio", introspect);
    let (full_ms, speedup) = timer_full_update(m);
    out.insert("tf-timer.full_update_ms", full_ms);
    out.insert("tf-timer.speedup_vs_seq", speedup);
    out
}

fn median(v: Vec<f64>) -> f64 {
    Summary::of(&v).median
}

/// Cost of one `now_ns()` pair: what every span boundary adds.
fn clock_pair_ns() -> f64 {
    const N: u64 = 200_000;
    let t0 = now_ns();
    let mut acc = 0u64;
    for _ in 0..N {
        let a = now_ns();
        let b = now_ns();
        acc = acc.wrapping_add(b - a);
    }
    black_box(acc);
    (now_ns() - t0) as f64 / N as f64
}

/// Owner push+pop pairs; `steal` alone on a pre-filled deque; `steal`
/// while the owner churns push/pop on the same deque from another thread.
fn wsq_probes(budget_ns: u64) -> (f64, f64, f64) {
    const N: usize = 1 << 16;
    let (owner, stealer) = wsq::deque();
    let mut pairs = Vec::new();
    let mut steals = Vec::new();
    let until = now_ns() + budget_ns;
    while now_ns() < until || pairs.is_empty() {
        let t0 = now_ns();
        for i in 0..N {
            owner.push(i);
            black_box(owner.pop());
        }
        pairs.push((now_ns() - t0) as f64 / N as f64);

        for i in 0..N {
            owner.push(i);
        }
        let t0 = now_ns();
        for _ in 0..N {
            black_box(stealer.steal());
        }
        steals.push((now_ns() - t0) as f64 / N as f64);
        assert!(owner.pop().is_none(), "every item was stolen");
    }

    // Contended: the owner keeps a few items in the deque and churns; the
    // thief (this thread) times its successful steals.
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // Refill when the thief has drained it, else churn; the
                // deque stays below its initial capacity and never grows.
                if owner.len() < 16 {
                    for _ in 0..32 {
                        owner.push(i);
                        i += 1;
                    }
                }
                owner.push(i);
                black_box(owner.pop());
            }
        })
    };
    let mut won = 0u64;
    let t0 = now_ns();
    let until = t0 + budget_ns;
    let mut now = t0;
    while now < until || won == 0 {
        for _ in 0..256 {
            if let Steal::Success(_) = stealer.steal() {
                won += 1;
            }
        }
        now = now_ns();
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread");
    (
        median(pairs),
        median(steals),
        (now - t0) as f64 / won as f64,
    )
}

/// ns per task of a no-op graph re-armed on one worker: a chain runs
/// through the cache slot, a fan through the worker's own deque.
fn rearmed_ns_per_task(dag: &tf_baselines::Dag, tasks: u64, budget_ns: u64) -> f64 {
    let ex = Executor::new(1);
    let flow = ReusableRustflow::new(dag, &ex);
    flow.run_n(1).expect("probe graph runs"); // freeze + warm
    let mut samples = Vec::new();
    let until = now_ns() + budget_ns;
    while now_ns() < until || samples.is_empty() {
        let t0 = now_ns();
        flow.run_n(4).expect("probe graph runs");
        samples.push((now_ns() - t0) as f64 / (4 * tasks) as f64);
    }
    median(samples)
}

/// `run_sequential` time over (`W` x parallel time) on the
/// `wavefront_par` mesh.
fn parallel_efficiency(m: Machine, budget_ns: u64) -> f64 {
    let spec = WavefrontSpec {
        dim: 32,
        work_iters: 256,
    };
    let (dag, _sink) = wavefront::build(spec);
    let ex = ExecutorBuilder::new().workers(m.w).build();
    let flow = ReusableRustflow::new(&dag, &ex);
    flow.run_n(4).expect("mesh runs");
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let until = now_ns() + budget_ns;
    while now_ns() < until || seq.is_empty() {
        let t0 = now_ns();
        dag.run_sequential();
        let t1 = now_ns();
        flow.run_n(4).expect("mesh runs");
        let t2 = now_ns();
        seq.push((t1 - t0) as f64);
        par.push((t2 - t1) as f64 / 4.0);
    }
    median(seq) / (m.w as f64 * median(par))
}

/// `Taskflow::emplace` and `Task::precede` alone, ns per call.
fn build_probes() -> (f64, f64) {
    const N: usize = 20_000;
    let ex = Executor::new(1);
    let (mut emplace, mut precede) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        let t0 = now_ns();
        let tasks: Vec<rustflow::Task<'_>> = (0..N).map(|_| tf.emplace(|| {})).collect();
        let t1 = now_ns();
        for pair in tasks.windows(2) {
            pair[0].precede(pair[1]);
        }
        let t2 = now_ns();
        emplace.push((t1 - t0) as f64 / N as f64);
        precede.push((t2 - t1) as f64 / (N - 1) as f64);
        // Dropped unrun: the present graph is simply discarded.
    }
    (median(emplace), median(precede))
}

/// One subflow task spawning 1 000 joined no-op children, per child.
fn subflow_spawn_ns(budget_ns: u64) -> f64 {
    const CHILDREN: usize = 1_000;
    let ex = Executor::new(1);
    let tf = Taskflow::with_executor(ex);
    tf.emplace_subflow(|sf| {
        for _ in 0..CHILDREN {
            sf.emplace(|| {});
        }
        sf.join();
    });
    tf.run().get().expect("subflow runs");
    let mut samples = Vec::new();
    let until = now_ns() + budget_ns;
    while now_ns() < until || samples.is_empty() {
        let t0 = now_ns();
        tf.run().get().expect("subflow runs");
        samples.push((now_ns() - t0) as f64 / CHILDREN as f64);
    }
    median(samples)
}

/// A window-1 synchronous client against an executor whose workers are
/// all parked: submit → park→unpark → body → finalize → `get()`, p50.
fn idle_roundtrip_us(m: Machine, budget_ns: u64) -> f64 {
    let ex = ExecutorBuilder::new().workers(m.ws).build();
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    tf.emplace(|| {});
    tf.run().get().expect("request runs");
    let mut samples: Vec<u64> = Vec::new();
    let until = now_ns() + budget_ns;
    while now_ns() < until || samples.is_empty() {
        let parked_by = now_ns() + 5_000_000;
        while ex.num_idlers() < ex.num_workers() && now_ns() < parked_by {
            std::hint::spin_loop();
        }
        let t0 = now_ns();
        tf.run().get().expect("request runs");
        samples.push(now_ns() - t0);
    }
    percentile(&mut samples, 0.5) / 1e3
}

/// The closed-loop request through plain `Taskflow::run` (no tenant):
/// p50 duration of the submitting call.
fn untenanted_submit_ns(m: Machine, budget_ns: u64) -> f64 {
    const WINDOW: usize = 16;
    let ex = ExecutorBuilder::new().workers(m.ws).build();
    let mut pool: Vec<Taskflow> = (0..WINDOW)
        .map(|_| {
            let tf = Taskflow::with_executor(Arc::clone(&ex));
            tf.emplace(|| {});
            tf
        })
        .collect();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut samples: Vec<u64> = Vec::new();
    let until = now_ns() + budget_ns;
    for round in 0.. {
        for tf in pool.iter_mut() {
            if inflight.len() == WINDOW {
                let handle: rustflow::RunHandle = inflight.pop_front().expect("full window");
                handle.get().expect("request runs");
            }
            if round % 1024 == 1023 {
                tf.gc();
            }
            let t0 = now_ns();
            let handle = tf.run();
            samples.push(now_ns() - t0);
            inflight.push_back(handle);
        }
        if now_ns() >= until {
            break;
        }
    }
    for handle in inflight {
        handle.get().expect("request runs");
    }
    percentile(&mut samples, 0.5)
}

/// Time ratio with/without a `BusyCounter` observer, and with/without
/// live introspection, on the `wavefront_par` mesh; sides alternate.
fn observability_tax(m: Machine, budget_ns: u64) -> (f64, f64) {
    let spec = WavefrontSpec {
        dim: 32,
        work_iters: 256,
    };
    let (dag, _sink) = wavefront::build(spec);
    let plain_ex = ExecutorBuilder::new().workers(m.w).build();
    let live_ex = ExecutorBuilder::new().workers(m.w).build();
    let plain = ReusableRustflow::new(&dag, &plain_ex);
    let live = ReusableRustflow::new(&dag, &live_ex);
    let _introspection = live_ex
        .start_introspection(IntrospectConfig::default())
        .expect("introspection starts once");
    let time = |flow: &ReusableRustflow| {
        let t0 = now_ns();
        flow.run_n(16).expect("mesh runs");
        (now_ns() - t0) as f64
    };
    time(&plain);
    time(&live);
    let (mut off, mut observed, mut introspected) = (Vec::new(), Vec::new(), Vec::new());
    let until = now_ns() + 3 * budget_ns;
    while now_ns() < until || off.is_empty() {
        off.push(time(&plain));
        plain_ex.observe(Arc::new(BusyCounter::new()) as Arc<dyn ExecutorObserver>);
        observed.push(time(&plain));
        plain_ex.remove_observers();
        introspected.push(time(&live));
    }
    let off = median(off);
    (median(observed) / off, median(introspected) / off)
}

/// Full timing update of the `timer_incr` design on the rustflow engine
/// (ms, median of 5) and its speed-up over the sequential engine.
fn timer_full_update(m: Machine) -> (f64, f64) {
    let circuit = CircuitSpec::vga_lcd().scaled(0.25).generate();
    let ex = ExecutorBuilder::new().workers(m.w).build();
    let timer = Timer::new(circuit);
    timer.full_update(&Engine::V2Rustflow(&ex));
    let time = |engine: &Engine<'_>| {
        let t0 = now_ns();
        timer.full_update(engine);
        (now_ns() - t0) as f64 / 1e6
    };
    let v2 = median((0..5).map(|_| time(&Engine::V2Rustflow(&ex))).collect());
    let seq = median((0..3).map(|_| time(&Engine::Sequential)).collect());
    (v2, seq / v2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_finite_number() {
        let m = Machine {
            nproc: 2,
            w: 2,
            ws: 1,
        };
        let out = run_all(m, 5_000_000);
        assert_eq!(out.len(), 16);
        for (name, v) in out {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
