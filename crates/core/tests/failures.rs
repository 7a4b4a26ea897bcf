//! Failure-injection tests: panics in every flavour of task must be
//! caught, attributed, and must never wedge the executor or leak a
//! topology — plus the fault-tolerance matrix (cooperative cancellation,
//! failure policies, retry, deadlines) under deterministic chaos seeds.

use rustflow::chaos::{ChaosSpec, Fault};
use rustflow::{
    this_task, AdmissionError, BreakerSpec, BreakerState, Executor, ExecutorBuilder, FailurePolicy,
    RunError, Taskflow, Tenant, TenantQos,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{assert_ledger_balances, settled};

/// A closure that spins cooperatively until its run is cancelled.
fn spin_until_cancelled(started: &Arc<AtomicUsize>) -> impl FnMut() + Send + 'static {
    let started = Arc::clone(started);
    move || {
        started.fetch_add(1, Ordering::SeqCst);
        while !this_task::is_cancelled() {
            std::thread::yield_now();
        }
    }
}

#[test]
fn panic_in_dynamic_task_closure() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    tf.emplace_subflow(|_sf| panic!("dynamic boom")).name("dyn");
    let err = tf.try_wait_for_all().expect_err("panic not reported");
    let panic = err.as_panic().expect("panic, not a graph error");
    assert_eq!(panic.task, "dyn");
    assert!(panic.message.contains("dynamic boom"));
    // Executor still fully functional afterwards.
    let counter = Arc::new(AtomicUsize::new(0));
    let tf2 = Taskflow::with_executor(ex);
    let c = Arc::clone(&counter);
    tf2.emplace(move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    tf2.wait_for_all();
    assert_eq!(counter.load(Ordering::SeqCst), 1);
}

#[test]
fn panic_in_subflow_child() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let siblings = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&siblings);
    tf.emplace_subflow(move |sf| {
        sf.emplace(|| panic!("child boom")).name("bad_child");
        let s = Arc::clone(&s);
        sf.emplace(move || {
            s.fetch_add(1, Ordering::SeqCst);
        });
    });
    let err = tf.try_wait_for_all().expect_err("panic not reported");
    assert_eq!(err.as_panic().expect("panic").task, "bad_child");
    // The sibling child still ran; the topology completed.
    assert_eq!(siblings.load(Ordering::SeqCst), 1);
}

#[test]
fn panic_before_spawn_still_spawns_nothing_but_completes() {
    // If the dynamic closure panics before emplacing anything, the node
    // completes as an empty subflow.
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let after = Arc::new(AtomicUsize::new(0));
    let parent = tf.emplace_subflow(|_sf| panic!("early"));
    let a = Arc::clone(&after);
    let next = tf.emplace(move || {
        a.store(1, Ordering::SeqCst);
    });
    parent.precede(next);
    assert!(tf.try_wait_for_all().is_err());
    assert_eq!(after.load(Ordering::SeqCst), 1);
}

#[test]
fn panic_in_partially_built_subflow_runs_built_children() {
    // Children emplaced before the panic are still spawned (the paper's
    // C++ semantics would terminate; we keep the graph live and report).
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    tf.emplace_subflow(move |sf| {
        let r = Arc::clone(&r);
        sf.emplace(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        panic!("mid-build boom");
    });
    assert!(tf.try_wait_for_all().is_err());
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn first_panic_wins_under_many() {
    let ex = Executor::new(1); // deterministic order on one worker
    let tf = Taskflow::with_executor(ex);
    let a = tf.emplace(|| panic!("first")).name("t_first");
    let b = tf.emplace(|| panic!("second")).name("t_second");
    a.precede(b);
    let err = tf.try_wait_for_all().expect_err("no panic reported");
    let panic = err.as_panic().expect("panic, not a graph error");
    assert_eq!(panic.task, "t_first");
    assert!(panic.message.contains("first"));
}

#[test]
fn panics_across_multiple_topologies_are_per_topology() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    tf.emplace(|| panic!("topo1"));
    let f1 = tf.dispatch();
    tf.emplace(|| {});
    let f2 = tf.dispatch();
    assert!(f1.get().is_err());
    assert!(
        f2.get().is_ok(),
        "clean topology polluted by another's panic"
    );
}

#[test]
fn executor_survives_panic_storm() {
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for i in 0..500 {
        if i % 3 == 0 {
            tf.emplace(move || panic!("storm {i}"));
        } else {
            tf.emplace(|| {});
        }
    }
    assert!(tf.try_wait_for_all().is_err());
    // Everything still works.
    let counter = Arc::new(AtomicUsize::new(0));
    let tf2 = Taskflow::with_executor(ex);
    for _ in 0..100 {
        let c = Arc::clone(&counter);
        tf2.emplace(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    tf2.wait_for_all();
    assert_eq!(counter.load(Ordering::SeqCst), 100);
}

#[test]
fn cancel_mid_run_n_drains_current_and_queued_batches() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let started = Arc::new(AtomicUsize::new(0));
    tf.emplace(spin_until_cancelled(&started));
    let batch = tf.run_n(100);
    let queued = tf.run(); // queues behind the 100-iteration batch
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    assert!(batch.cancel(), "a live run must be cancellable");
    assert_eq!(batch.get(), Err(RunError::Cancelled));
    // The batch that never got to run drains with the same error.
    assert_eq!(queued.get(), Err(RunError::Cancelled));
    assert!(batch.get().unwrap_err().is_cancelled());
    // The taskflow stays usable: the next run starts with a clean slate
    // (no stale flag, no stale error).
    let ok = tf.run();
    // The task still spins until cancelled, so cancel again — but this
    // time confirm the *fresh* handle controls the fresh run.
    while started.load(Ordering::SeqCst) < 2 {
        std::thread::yield_now();
    }
    assert!(ok.cancel());
    assert_eq!(ok.get(), Err(RunError::Cancelled));
}

#[test]
fn cancel_skips_queued_tasks_of_large_topology() {
    const FANOUT: usize = 10_000;
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let started = Arc::new(AtomicUsize::new(0));
    let executed = Arc::new(AtomicUsize::new(0));
    let gate = tf.emplace(spin_until_cancelled(&started)).name("gate");
    for _ in 0..FANOUT {
        let e = Arc::clone(&executed);
        let t = tf.emplace(move || {
            e.fetch_add(1, Ordering::SeqCst);
        });
        gate.precede(t);
    }
    let before = ex.stats();
    let run = tf.run();
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    assert!(run.cancel());
    assert_eq!(run.get(), Err(RunError::Cancelled));
    // Every successor became ready only after the gate observed the
    // cancel flag, so all of them were skipped, none executed.
    assert_eq!(executed.load(Ordering::SeqCst), 0);
    let skipped = ex.stats().delta(&before).total().skipped;
    assert!(
        skipped >= FANOUT as u64,
        "queued tasks must be skipped, not run: {skipped}"
    );
}

#[test]
fn cancel_after_finalize_is_a_noop() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    tf.emplace(move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    let run = tf.run();
    assert_eq!(run.get(), Ok(()));
    assert!(!run.cancel(), "cancel after finalize must be a no-op");
    assert_eq!(run.get(), Ok(()), "the resolved outcome must not change");
    // The topology is still reusable after the no-op cancel.
    assert_eq!(tf.run().get(), Ok(()));
    assert_eq!(count.load(Ordering::SeqCst), 2);
}

#[test]
fn fail_fast_cancels_siblings_and_inflight_detached_subflow() {
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    tf.set_failure_policy(FailurePolicy::FailFast);
    let child_started = Arc::new(AtomicUsize::new(0));
    let followers_ran = Arc::new(AtomicUsize::new(0));
    // A detached subflow whose child is in flight when the panic lands;
    // it polls cancellation so FailFast can reel it in.
    let cs = Arc::clone(&child_started);
    tf.emplace_subflow(move |sf| {
        sf.detach();
        sf.emplace(spin_until_cancelled(&cs));
    });
    // The panicking task waits for the child so the subflow is genuinely
    // in flight, then fails; its successors must be skipped, not run.
    let cs = Arc::clone(&child_started);
    let boom = tf
        .emplace(move || {
            while cs.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            panic!("fail fast boom");
        })
        .name("boom");
    for _ in 0..50 {
        let f = Arc::clone(&followers_ran);
        let t = tf.emplace(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        boom.precede(t);
    }
    let before = ex.stats();
    let err = tf.try_wait_for_all().expect_err("panic not reported");
    // The panic wins over the internal cancel (first error is kept).
    let panic = err.as_panic().expect("panic, not Cancelled");
    assert_eq!(panic.task, "boom");
    assert_eq!(followers_ran.load(Ordering::SeqCst), 0);
    assert!(ex.stats().delta(&before).total().skipped >= 50);
}

#[test]
fn continue_all_still_runs_siblings_after_panic() {
    // The historical default is unchanged: a panic is recorded but the
    // rest of the graph executes.
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    assert_eq!(tf.failure_policy(), FailurePolicy::ContinueAll);
    let followers_ran = Arc::new(AtomicUsize::new(0));
    let boom = tf.emplace(|| panic!("recorded boom")).name("boom");
    for _ in 0..50 {
        let f = Arc::clone(&followers_ran);
        let t = tf.emplace(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        boom.precede(t);
    }
    let err = tf.try_wait_for_all().expect_err("panic not reported");
    assert_eq!(err.as_panic().expect("panic").task, "boom");
    assert_eq!(followers_ran.load(Ordering::SeqCst), 50);
}

#[test]
fn retry_rescues_transient_failures() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&attempts);
    tf.emplace(move || {
        if a.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("transient");
        }
    })
    .retry(3);
    let before = ex.stats();
    assert_eq!(tf.run().get(), Ok(()));
    assert_eq!(attempts.load(Ordering::SeqCst), 3, "two retries, then ok");
    assert_eq!(ex.stats().delta(&before).total().retries, 2);
}

#[test]
fn retry_exhaustion_propagates_the_final_panic() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&attempts);
    tf.emplace(move || {
        a.fetch_add(1, Ordering::SeqCst);
        panic!("permanent");
    })
    .name("doomed")
    .retry(2);
    let before = ex.stats();
    let err = tf.run().get().expect_err("exhausted retry must fail");
    let panic = err.as_panic().expect("panic");
    assert_eq!(panic.task, "doomed");
    assert!(panic.message.contains("permanent"));
    assert_eq!(attempts.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
    assert_eq!(ex.stats().delta(&before).total().retries, 2);
}

#[test]
fn deadline_expiry_degrades_to_cancellation() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let started = Arc::new(AtomicUsize::new(0));
    tf.emplace(spin_until_cancelled(&started));
    let t0 = std::time::Instant::now();
    let result = tf.run_timeout(Duration::from_millis(50));
    assert_eq!(result, Err(RunError::Cancelled));
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "deadline must not hang"
    );
}

#[test]
fn deadline_racing_natural_completion_never_hangs() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    // A task whose duration straddles the deadline: either outcome is
    // legal, but the wait must resolve and the loser of the race must
    // not corrupt the next run.
    tf.emplace(|| std::thread::sleep(Duration::from_millis(5)));
    for _ in 0..20 {
        match tf.run().wait_timeout(Duration::from_millis(5)) {
            Ok(()) | Err(RunError::Cancelled) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    // A generous deadline always sees natural completion.
    assert_eq!(tf.run_timeout(Duration::from_secs(60)), Ok(()));
}

// ---- Deterministic chaos matrix -----------------------------------------
//
// Each test pins a seed, *computes* the expected fault plan from the pure
// `ChaosSpec::fault` function, and asserts the executor's behaviour
// matches the plan exactly — same seed, same outcome, every run.

/// Chain of `n` chaos-wrapped tasks `t0 → t1 → …`; returns the counter of
/// closures that ran to completion (fault-free bodies).
fn chaos_chain(tf: &Taskflow, spec: ChaosSpec, n: u64) -> Arc<AtomicUsize> {
    let ran = Arc::new(AtomicUsize::new(0));
    let mut prev = None;
    for node in 0..n {
        let r = Arc::clone(&ran);
        let t = tf
            .emplace(spec.wrap(node, move || {
                r.fetch_add(1, Ordering::SeqCst);
            }))
            .name(format!("t{node}"));
        if let Some(p) = prev {
            let p: rustflow::Task<'_> = p;
            p.precede(t);
        }
        prev = Some(t);
    }
    ran
}

#[test]
fn chaos_fail_fast_stops_at_the_seeded_panic() {
    const SEED: u64 = 1802;
    const N: u64 = 64;
    let spec = ChaosSpec::new(SEED).panic_permille(40);
    // The plan is pure: the first chain position that panics is known
    // before anything runs.
    let first_panic = (0..N)
        .find(|&n| spec.fault(n, 0) == Fault::Panic)
        .expect("seed must inject at least one panic");
    assert!(
        (1..N - 1).contains(&first_panic),
        "pick a seed whose first panic is interior, got {first_panic}"
    );
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    tf.set_failure_policy(FailurePolicy::FailFast);
    let ran = chaos_chain(&tf, spec, N);
    let err = tf
        .try_wait_for_all()
        .expect_err("seeded panic must surface");
    let panic = err.as_panic().expect("panic");
    assert_eq!(panic.task, format!("t{first_panic}"));
    assert!(panic.message.contains("chaos: injected panic"));
    // FailFast: exactly the tasks before the first seeded panic ran.
    assert_eq!(ran.load(Ordering::SeqCst) as u64, first_panic);
}

#[test]
fn chaos_continue_all_runs_everything_but_the_seeded_panics() {
    const SEED: u64 = 1802;
    const N: u64 = 64;
    let spec = ChaosSpec::new(SEED)
        .panic_permille(40)
        .delay_permille(200, 50);
    let panics = (0..N).filter(|&n| spec.fault(n, 0) == Fault::Panic).count() as u64;
    assert!(panics > 0, "seed must inject at least one panic");
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let ran = chaos_chain(&tf, spec, N);
    assert!(tf.try_wait_for_all().is_err());
    // ContinueAll: every fault-free body ran despite the panics.
    assert_eq!(ran.load(Ordering::SeqCst) as u64, N - panics);
}

#[test]
fn chaos_retry_budget_is_charged_per_attempt() {
    // permille 1000: the fault plan panics this node on every attempt
    // (retries re-run the same (node, iteration) point), so a retry
    // budget of 2 yields exactly 3 seeded panics and then the error.
    const SEED: u64 = 7;
    let spec = ChaosSpec::new(SEED).panic_permille(1000);
    assert_eq!(spec.fault(0, 0), Fault::Panic);
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    tf.emplace(spec.wrap(0, || {})).name("chaotic").retry(2);
    let before = ex.stats();
    let err = tf.run().get().expect_err("chaos panics every attempt");
    assert_eq!(err.as_panic().expect("panic").task, "chaotic");
    assert_eq!(ex.stats().delta(&before).total().retries, 2);
}

#[test]
fn chaos_delays_under_a_deadline_resolve_cancelled() {
    // Seeded delays slow the chain; the spinning tail guarantees the
    // deadline fires; outcome is Cancelled for every run of this seed.
    const SEED: u64 = 23;
    let spec = ChaosSpec::new(SEED).delay_permille(1000, 500);
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let started = Arc::new(AtomicUsize::new(0));
    let last = chaos_chain_tail(&tf, spec, 16);
    let tail = tf.emplace(spin_until_cancelled(&started)).name("tail");
    last.map(|l| l.precede(tail));
    assert_eq!(
        tf.run_timeout(Duration::from_millis(30)),
        Err(RunError::Cancelled)
    );
}

/// Like [`chaos_chain`] but returns the last task of the chain so callers
/// can extend it.
fn chaos_chain_tail<'t>(tf: &'t Taskflow, spec: ChaosSpec, n: u64) -> Option<rustflow::Task<'t>> {
    let mut prev: Option<rustflow::Task<'t>> = None;
    for node in 0..n {
        let t = tf.emplace(spec.wrap(node, || {}));
        if let Some(p) = prev {
            p.precede(t);
        }
        prev = Some(t);
    }
    prev
}

// ---- Overload resilience: shedding, deadlines, breakers ------------------
//
// These exercise the graceful-degradation paths of the tenant front door:
// queue-side load shedding of expired deadlines (and its races against
// cancel and against finalize), a doomed deadline admitted and shed, and
// the per-tenant circuit breaker lifecycle.

/// A closure that spins until `gate` is released — parks one dispatch
/// slot so later submissions queue behind it.
fn spin_until_released(gate: &Arc<AtomicBool>) -> impl FnMut() + Send + 'static {
    let gate = Arc::clone(gate);
    move || {
        while !gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
}

/// Spins until `cond` holds or ten seconds pass; returns whether it held.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::yield_now();
    }
    false
}

#[test]
fn expired_deadline_is_shed_not_dispatched() {
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let tenant = ex.tenant("shed");
    let gate = Arc::new(AtomicBool::new(false));
    let gate_tf = Taskflow::with_executor(ex.clone());
    gate_tf.emplace(spin_until_released(&gate));
    let gate_handle = gate_tf.run_on(&tenant).unwrap();
    assert!(eventually(|| tenant.stats().dispatched == 1));
    // Queue a run whose deadline will be long past when the slot frees.
    let ran = Arc::new(AtomicUsize::new(0));
    let tf = Taskflow::with_executor(ex.clone());
    let r = Arc::clone(&ran);
    tf.emplace(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    let h = tf
        .run_on_deadline(&tenant, Duration::from_millis(5))
        .unwrap();
    std::thread::sleep(Duration::from_millis(25));
    gate.store(true, Ordering::Release);
    gate_handle.get().unwrap();
    match h.get() {
        Err(RunError::Shed {
            tenant: t,
            queued_for,
        }) => {
            assert_eq!(t, "shed");
            assert!(
                queued_for >= Duration::from_millis(5),
                "shed must report at least the deadline's worth of queueing, got {queued_for:?}"
            );
        }
        other => panic!("expired deadline must shed, got {other:?}"),
    }
    assert!(h.get().unwrap_err().is_shed());
    assert_eq!(
        ran.load(Ordering::SeqCst),
        0,
        "no task of a shed run executes"
    );
    let s = settled(&tenant);
    assert_eq!(s.shed, 1);
    assert_ledger_balances(&s);
}

#[test]
fn rearm_after_shed_runs_clean() {
    // A shed run never claims its topology, so the same taskflow must
    // re-arm and execute normally on the next submission — including a
    // multi-iteration batch.
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let tenant = ex.tenant("rearm");
    let gate = Arc::new(AtomicBool::new(false));
    let gate_tf = Taskflow::with_executor(ex.clone());
    gate_tf.emplace(spin_until_released(&gate));
    let gate_handle = gate_tf.run_on(&tenant).unwrap();
    assert!(eventually(|| tenant.stats().dispatched == 1));
    let ran = Arc::new(AtomicUsize::new(0));
    let tf = Taskflow::with_executor(ex.clone());
    let r = Arc::clone(&ran);
    tf.emplace(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    let doomed = tf
        .run_on_deadline(&tenant, Duration::from_millis(2))
        .unwrap();
    std::thread::sleep(Duration::from_millis(15));
    gate.store(true, Ordering::Release);
    gate_handle.get().unwrap();
    assert!(doomed.get().unwrap_err().is_shed());
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    // run_n continues on the topology whose previous iteration was shed.
    tf.run_n_on(&tenant, 3).unwrap().get().unwrap();
    assert_eq!(
        ran.load(Ordering::SeqCst),
        3,
        "re-armed batch runs all iterations"
    );
    let s = settled(&tenant);
    assert_eq!(s.shed, 1);
    assert_ledger_balances(&s);
}

#[test]
fn shed_vs_cancel_race_resolves_every_handle() {
    // Cancel a run the dispatcher is concurrently shedding: whichever
    // side wins, the handle resolves exactly once to a definite outcome
    // and the ledger still balances.
    const ROUNDS: usize = 20;
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let blocker = ex.tenant("blocker");
    // A victim per round, so that every round starts from an empty
    // queue: this test is about the dispatch-side race alone.
    let victims: Vec<_> = (0..ROUNDS)
        .map(|i| ex.tenant(&format!("victim-{i}")))
        .collect();
    let mut outcomes = [0usize; 3]; // [ok, cancelled, shed]
    for (i, victim) in victims.iter().enumerate() {
        let gate = Arc::new(AtomicBool::new(false));
        let gate_tf = Taskflow::with_executor(ex.clone());
        gate_tf.emplace(spin_until_released(&gate));
        let gate_handle = gate_tf.run_on(&blocker).unwrap();
        if !eventually(|| blocker.stats().dispatched as usize == i + 1) {
            // Release the gate before panicking: a spinning gate task
            // would otherwise wedge executor teardown and hang the whole
            // test binary instead of reporting a failure.
            gate.store(true, Ordering::Release);
            panic!("round {i}: gate run never dispatched");
        }
        let tf = Taskflow::with_executor(ex.clone());
        tf.emplace(|| {});
        // Scan the race window: deadlines from far-expired to just-ahead
        // of the dispatcher.
        let h = tf
            .run_on_deadline(victim, Duration::from_micros(200 + 150 * i as u64))
            .unwrap();
        std::thread::sleep(Duration::from_millis(1));
        gate.store(true, Ordering::Release); // dispatcher starts popping
        h.cancel(); // ... while we cancel
        gate_handle.get().unwrap();
        match h.get() {
            Ok(()) => outcomes[0] += 1,
            Err(RunError::Cancelled) => outcomes[1] += 1,
            Err(RunError::Shed { .. }) => outcomes[2] += 1,
            other => panic!("round {i}: shed/cancel race produced {other:?}"),
        }
    }
    assert_eq!(outcomes.iter().sum::<usize>(), ROUNDS);
    let stats: Vec<_> = victims.iter().map(settled).collect();
    let shed: u64 = stats.iter().map(|s| s.shed).sum();
    assert_eq!(
        shed as usize, outcomes[2],
        "ledger agrees with observed sheds"
    );
    stats.iter().for_each(assert_ledger_balances);
}

#[test]
fn shed_vs_finalize_straddle_never_hangs() {
    // Deadlines tuned to land right at the moment the dispatch slot
    // frees: either the run dispatches (and completes) or it sheds.
    // Both are legal; a hang or a third outcome is not.
    const ROUNDS: usize = 20;
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let blocker = ex.tenant("blocker");
    // A tenant per round, for the same reason as the cancel race above,
    // and doubly so here: the `i % 5 == 0` rounds submit an
    // already-expired (zero) deadline, which admission refuses behind any
    // queued run.
    let tenants: Vec<_> = (0..ROUNDS)
        .map(|i| ex.tenant(&format!("straddle-{i}")))
        .collect();
    let mut shed = 0u64;
    let mut ok = 0u64;
    for (i, tenant) in tenants.iter().enumerate() {
        let gate = Arc::new(AtomicBool::new(false));
        let gate_tf = Taskflow::with_executor(ex.clone());
        gate_tf.emplace(spin_until_released(&gate));
        let gate_handle = gate_tf.run_on(&blocker).unwrap();
        if !eventually(|| blocker.stats().dispatched as usize == i + 1) {
            // Release the gate before panicking: a spinning gate task
            // would otherwise wedge executor teardown and hang the whole
            // test binary instead of reporting a failure.
            gate.store(true, Ordering::Release);
            panic!("round {i}: gate run never dispatched");
        }
        let tf = Taskflow::with_executor(ex.clone());
        tf.emplace(|| {});
        let h = tf
            .run_on_deadline(tenant, Duration::from_micros(300 * (i as u64 % 5)))
            .unwrap();
        gate.store(true, Ordering::Release);
        gate_handle.get().unwrap();
        match h.get() {
            Ok(()) => ok += 1,
            Err(RunError::Shed { .. }) => shed += 1,
            other => panic!("round {i}: straddle produced {other:?}"),
        }
    }
    assert_eq!(ok + shed, ROUNDS as u64);
    let stats: Vec<_> = tenants.iter().map(settled).collect();
    assert_eq!(stats.iter().map(|s| s.shed).sum::<u64>(), shed);
    stats.iter().for_each(assert_ledger_balances);
}

/// A deadline is judged once, at dispatch: behind a parked slot, a run
/// whose deadline is already shorter than the queue's wait is admitted
/// like any other and shed when the pump reaches it, while a generous one
/// runs.
#[test]
fn infeasible_deadline_is_admitted_and_shed() {
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let tenant = ex.tenant_with(
        "est",
        TenantQos {
            max_queued: 16,
            ..TenantQos::default()
        },
    );
    // Runs that have waited ~15ms, and are still waiting, behind a parked
    // dispatch slot.
    let (gate, runs) = queue_behind_a_parked_slot(&ex, &tenant, 8);
    std::thread::sleep(Duration::from_millis(15));
    let doomed_tf = Taskflow::with_executor(ex.clone());
    doomed_tf.emplace(|| {});
    let doomed = doomed_tf
        .run_on_deadline(&tenant, Duration::from_millis(1))
        .expect("a doomed deadline is admitted");
    let generous_tf = Taskflow::with_executor(ex.clone());
    generous_tf.emplace(|| {});
    let generous = generous_tf
        .run_on_deadline(&tenant, Duration::from_secs(60))
        .expect("a 60s deadline is admitted");
    // The parked slot holds for longer than the doomed deadline.
    std::thread::sleep(Duration::from_millis(5));
    gate.store(true, Ordering::Release);
    for (_, h) in &runs {
        h.get().unwrap();
    }
    match doomed.get() {
        Err(RunError::Shed { tenant: t, .. }) => assert_eq!(t, "est"),
        other => panic!("expected the doomed run shed, got {other:?}"),
    }
    generous.get().unwrap();
    let s = settled(&tenant);
    assert_eq!((s.shed, s.rejected_infeasible), (1, 0));
    assert_ledger_balances(&s);
}

/// Parks `tenant`'s one dispatch slot on a run that spins until the
/// returned flag is set and queues `n` empty runs behind it. Returns the
/// flag and every run with its taskflow (which must outlive the run), the
/// parked one first.
fn queue_behind_a_parked_slot(
    ex: &Arc<Executor>,
    tenant: &Tenant,
    n: usize,
) -> (Arc<AtomicBool>, Vec<(Taskflow, rustflow::RunHandle)>) {
    let gate = Arc::new(AtomicBool::new(false));
    let gate_tf = Taskflow::with_executor(ex.clone());
    gate_tf.emplace(spin_until_released(&gate));
    let gate_handle = gate_tf.run_on(tenant).unwrap();
    let mut runs = vec![(gate_tf, gate_handle)];
    if !eventually(|| tenant.stats().dispatched == 1) {
        gate.store(true, Ordering::Release);
        panic!("the gate run never dispatched");
    }
    for _ in 0..n {
        let tf = Taskflow::with_executor(ex.clone());
        tf.emplace(|| {});
        let h = tf.try_run_on(tenant).expect("queue has space");
        runs.push((tf, h));
    }
    (gate, runs)
}

#[test]
fn run_on_timeout_bounds_the_admission_wait() {
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let tenant = ex.tenant_with(
        "bounded",
        TenantQos {
            max_queued: 1,
            ..TenantQos::default()
        },
    );
    let gate = Arc::new(AtomicBool::new(false));
    let gate_tf = Taskflow::with_executor(ex.clone());
    gate_tf.emplace(spin_until_released(&gate));
    let gate_handle = gate_tf.run_on(&tenant).unwrap();
    assert!(eventually(|| tenant.stats().dispatched == 1));
    let filler_tf = Taskflow::with_executor(ex.clone());
    filler_tf.emplace(|| {});
    let filler = filler_tf.try_run_on(&tenant).expect("queue has space");
    // Queue full, slot parked: the bounded wait must expire, not hang.
    let tf = Taskflow::with_executor(ex.clone());
    tf.emplace(|| {});
    let t0 = std::time::Instant::now();
    match tf.run_on_timeout(&tenant, Duration::from_millis(100)) {
        Err(AdmissionError::Saturated {
            tenant: t,
            capacity,
        }) => {
            assert_eq!(t, "bounded");
            assert_eq!(capacity, 1);
        }
        other => panic!("expected Saturated after timeout, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(50),
        "gave up before the timeout: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(10),
        "timeout must bound the wait"
    );
    assert_eq!(tenant.stats().rejected_saturated, 1);
    gate.store(true, Ordering::Release);
    gate_handle.get().unwrap();
    filler.get().unwrap();
    assert_ledger_balances(&settled(&tenant));
}

/// Submits one always-panicking run through the tenant and asserts the
/// handle reports the panic.
fn panic_run(ex: &Arc<Executor>, tenant: &Tenant) {
    let tf = Taskflow::with_executor(Arc::clone(ex));
    tf.emplace(|| panic!("poisoned"));
    let h = tf.run_on(tenant).unwrap();
    h.get().expect_err("panic must surface");
}

#[test]
fn breaker_opens_after_consecutive_failures_and_fast_rejects() {
    let ex = ExecutorBuilder::new().workers(2).build();
    let tenant = ex.tenant_with(
        "brk",
        TenantQos {
            breaker: Some(BreakerSpec {
                failures: 3,
                open_for: Duration::from_secs(30),
            }),
            ..TenantQos::default()
        },
    );
    assert_eq!(tenant.breaker_state(), BreakerState::Closed);
    for _ in 0..3 {
        panic_run(&ex, &tenant);
    }
    // The third finalize trips the breaker (finalization trails the
    // handle resolving by a beat).
    assert!(eventually(|| tenant.breaker_state() == BreakerState::Open));
    let tf = Taskflow::with_executor(ex.clone());
    tf.emplace(|| {});
    match tf.try_run_on(&tenant) {
        Err(AdmissionError::BreakerOpen {
            tenant: t,
            retry_after,
        }) => {
            assert_eq!(t, "brk");
            assert!(retry_after <= Duration::from_secs(30));
        }
        other => panic!("open breaker must fast-reject, got {other:?}"),
    }
    let s = settled(&tenant);
    assert_eq!(s.rejected_breaker, 1);
    assert_eq!(s.consecutive_failures, 3);
    assert_eq!(s.breaker_state, 1, "stats gauge reports the open word");
    assert_ledger_balances(&s);
}

#[test]
fn breaker_half_open_probe_recovers_the_tenant() {
    let ex = ExecutorBuilder::new().workers(2).build();
    let tenant = ex.tenant_with(
        "probe",
        TenantQos {
            breaker: Some(BreakerSpec {
                failures: 2,
                open_for: Duration::from_millis(40),
            }),
            ..TenantQos::default()
        },
    );
    for _ in 0..2 {
        panic_run(&ex, &tenant);
    }
    assert!(eventually(|| tenant.breaker_state() == BreakerState::Open));
    std::thread::sleep(Duration::from_millis(60));
    // First submission past the open window is admitted as the probe; it
    // parks on a gate so we can observe half-open single-admission.
    let gate = Arc::new(AtomicBool::new(false));
    let probe_tf = Taskflow::with_executor(ex.clone());
    probe_tf.emplace(spin_until_released(&gate));
    let probe = probe_tf.run_on(&tenant).expect("probe admitted");
    assert_eq!(tenant.breaker_state(), BreakerState::HalfOpen);
    // While the probe is in flight, everyone else is still turned away.
    let tf = Taskflow::with_executor(ex.clone());
    tf.emplace(|| {});
    match tf.try_run_on(&tenant) {
        Err(AdmissionError::BreakerOpen { retry_after, .. }) => {
            assert_eq!(retry_after, Duration::from_millis(40));
        }
        other => panic!("half-open must admit exactly one probe, got {other:?}"),
    }
    gate.store(true, Ordering::Release);
    probe.get().unwrap();
    // Probe success closes the breaker; the tenant serves normally again.
    assert!(eventually(|| tenant.breaker_state() == BreakerState::Closed));
    tf.run_on(&tenant).unwrap().get().unwrap();
    let s = settled(&tenant);
    assert_eq!(s.consecutive_failures, 0, "streak reset on success");
    assert_eq!(s.breaker_transitions, 3, "closed, open, half-open, closed");
    assert_ledger_balances(&s);
}

#[test]
fn failed_probe_reopens_the_breaker() {
    let ex = ExecutorBuilder::new().workers(2).build();
    let tenant = ex.tenant_with(
        "relapse",
        TenantQos {
            breaker: Some(BreakerSpec {
                failures: 2,
                open_for: Duration::from_millis(40),
            }),
            ..TenantQos::default()
        },
    );
    for _ in 0..2 {
        panic_run(&ex, &tenant);
    }
    assert!(eventually(|| tenant.breaker_state() == BreakerState::Open));
    std::thread::sleep(Duration::from_millis(60));
    // The probe itself fails: straight back to open, window re-armed.
    panic_run(&ex, &tenant);
    assert!(eventually(|| tenant.breaker_state() == BreakerState::Open));
    let tf = Taskflow::with_executor(ex.clone());
    tf.emplace(|| {});
    match tf.try_run_on(&tenant) {
        Err(AdmissionError::BreakerOpen { .. }) => {}
        other => panic!("re-opened breaker must reject, got {other:?}"),
    }
    let s = settled(&tenant);
    assert_eq!(s.breaker_transitions, 3, "closed, open, half-open, open");
    assert_ledger_balances(&s);
}

#[test]
fn chaos_scoped_to_tenant_spares_others() {
    // `ChaosSpec::for_tenant` gates *injection*, not the plan: the same
    // spec wraps tasks everywhere, but only runs executing under the
    // scoped tenant observe faults.
    const SEED: u64 = 7;
    let ex = ExecutorBuilder::new().workers(2).build();
    let bad = ex.tenant("bad");
    let good = ex.tenant("good");
    let spec = ChaosSpec::new(SEED).panic_permille(1000).for_tenant(&bad);
    assert_eq!(
        spec.fault(0, 0),
        Fault::Panic,
        "the plan itself is unscoped"
    );
    // Scoped tenant: the seeded panic fires.
    let tf = Taskflow::with_executor(ex.clone());
    tf.emplace(spec.wrap(0, || {}));
    let err = tf
        .run_on(&bad)
        .unwrap()
        .get()
        .expect_err("scoped fault fires");
    assert!(format!("{err}").contains("chaos: injected panic"));
    // Other tenant, same wrapped plan: untouched.
    let tf = Taskflow::with_executor(ex.clone());
    tf.emplace(spec.wrap(0, || {}));
    tf.run_on(&good).unwrap().get().unwrap();
    // Untenanted run: also untouched.
    let tf = Taskflow::with_executor(ex.clone());
    tf.emplace(spec.wrap(0, || {}));
    tf.run().get().unwrap();
}
