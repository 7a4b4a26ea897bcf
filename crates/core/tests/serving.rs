//! Multi-tenant serving-path tests: many client threads hammering one
//! executor through the tenant front door (`run_on`/`try_run_on`),
//! weighted-fair dispatch ordering, admission backpressure, and the
//! shutdown race — no submission may ever be silently lost.

use rustflow::{
    AdmissionError, ExecutorBuilder, ExecutorObserver, RunError, SchedEventKind, TaskLabel,
    Taskflow, Tenant, TenantQos,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::{assert_ledger_balances, settled};

/// Builds a taskflow of one of three shapes (chain, diamond, fan-out),
/// each task bumping `done` — mixed-size submissions, as a real serving
/// mix would produce.
fn mixed_flow(
    ex: std::sync::Arc<rustflow::Executor>,
    shape: usize,
    done: &Arc<AtomicUsize>,
) -> (Taskflow, usize) {
    let tf = Taskflow::with_executor(ex);
    let mk = || {
        let d = Arc::clone(done);
        tf.emplace(move || {
            d.fetch_add(1, Ordering::Relaxed);
        })
    };
    let tasks = match shape % 3 {
        0 => {
            // chain a -> b -> c
            let (a, b, c) = (mk(), mk(), mk());
            a.precede(b);
            b.precede(c);
            3
        }
        1 => {
            // diamond a -> {b, c} -> d
            let (a, b, c, d) = (mk(), mk(), mk(), mk());
            a.precede([b, c]);
            b.precede(d);
            c.precede(d);
            4
        }
        _ => {
            // fan-out a -> {b1..b4}
            let a = mk();
            for _ in 0..4 {
                a.precede(mk());
            }
            5
        }
    };
    (tf, tasks)
}

/// N client threads per tenant, each submitting a stream of mixed-size
/// topologies and waiting each one out. Every submission must complete,
/// and every tenant's ledger must balance.
#[test]
fn concurrent_clients_conserve_submissions() {
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 20;
    let ex = ExecutorBuilder::new().workers(4).build();
    let hi = ex.tenant_with(
        "hi",
        TenantQos {
            weight: 4,
            max_queued: 64,
            ..TenantQos::default()
        },
    );
    let lo = ex.tenant("lo");
    let done = Arc::new(AtomicUsize::new(0));
    let mut expected_tasks = 0usize;
    let mut clients = Vec::new();
    for (t, tenant) in [hi.clone(), lo.clone()].into_iter().enumerate() {
        for c in 0..CLIENTS {
            let ex = ex.clone();
            let done = Arc::clone(&done);
            let tenant = tenant.clone();
            clients.push(std::thread::spawn(move || {
                let mut tasks = 0usize;
                for i in 0..PER_CLIENT {
                    let (tf, n) = mixed_flow(ex.clone(), t + c + i, &done);
                    tasks += n;
                    // Alternate blocking and non-blocking admission; a
                    // saturated try_run_on falls back to the blocking
                    // path so nothing is dropped client-side.
                    let handle = if i % 2 == 0 {
                        tf.run_on(&tenant).expect("no shutdown in flight")
                    } else {
                        match tf.try_run_on(&tenant) {
                            Ok(h) => h,
                            Err(AdmissionError::Saturated { .. }) => {
                                tf.run_on(&tenant).expect("no shutdown in flight")
                            }
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    };
                    handle.get().unwrap();
                }
                tasks
            }));
        }
    }
    for c in clients {
        expected_tasks += c.join().unwrap();
    }
    assert_eq!(done.load(Ordering::Relaxed), expected_tasks);
    for tenant in [&hi, &lo] {
        let s = settled(tenant);
        assert_eq!(
            s.submitted,
            (CLIENTS * PER_CLIENT) as u64,
            "tenant {} admission count",
            s.name
        );
        assert_ledger_balances(&s);
    }
    let stats = ex.stats();
    assert_eq!(stats.tenants.len(), 2, "both tenants appear in stats");
}

/// Records the tenant id of every topology dispatch, in order.
#[derive(Default)]
struct DispatchOrder {
    order: Mutex<Vec<u64>>,
}

impl ExecutorObserver for DispatchOrder {
    fn on_event(&self, _lane: usize, _label: &TaskLabel, kind: &SchedEventKind) {
        if let SchedEventKind::TopologyDispatch { info, .. } = kind {
            self.order.lock().unwrap().push(info.tenant);
        }
    }
}

/// Spins until `gate` is released; parks the executor's whole tenant
/// dispatch budget behind it.
fn gate_flow(ex: std::sync::Arc<rustflow::Executor>, gate: &Arc<AtomicBool>) -> Taskflow {
    let tf = Taskflow::with_executor(ex);
    let g = Arc::clone(gate);
    tf.emplace(move || {
        while !g.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
    tf
}

/// Weighted fair queueing: with a 4:1 weight ratio and both backlogs
/// deep, the high-weight tenant must receive the lion's share of the
/// first dispatch slots once the budget frees up. A one-slot in-flight
/// budget serializes dispatch so the WFQ order is observable.
#[test]
fn weighted_fairness_orders_dispatch() {
    const K_HI: usize = 16;
    const K_LO: usize = 2;
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let order = Arc::new(DispatchOrder::default());
    ex.observe(order.clone());
    let hi = ex.tenant_with(
        "hi",
        TenantQos {
            weight: 4,
            max_queued: K_HI,
            ..TenantQos::default()
        },
    );
    let lo = ex.tenant_with(
        "lo",
        TenantQos {
            weight: 1,
            max_queued: K_LO,
            ..TenantQos::default()
        },
    );
    let blocker = ex.tenant("blocker");
    // Occupy the single dispatch slot so every later submission queues.
    let gate = Arc::new(AtomicBool::new(false));
    let gate_tf = gate_flow(ex.clone(), &gate);
    let gate_handle = gate_tf.run_on(&blocker).unwrap();
    while blocker.stats().dispatched == 0 {
        std::thread::yield_now();
    }
    // Queue both backlogs while dispatch is parked: the WFQ decision now
    // sees the full picture and the resulting order is deterministic.
    let noop = Arc::new(AtomicUsize::new(0));
    let mut flows = Vec::new();
    for (tenant, k) in [(&hi, K_HI), (&lo, K_LO)] {
        for i in 0..k {
            let (tf, _) = mixed_flow(ex.clone(), i, &noop);
            let handle = tf.try_run_on(tenant).expect("backlog fits max_queued");
            flows.push((tf, handle));
        }
    }
    assert_eq!(hi.stats().queued as usize, K_HI);
    assert_eq!(lo.stats().queued as usize, K_LO);
    gate.store(true, Ordering::Release);
    gate_handle.get().unwrap();
    for (_, handle) in &flows {
        handle.get().unwrap();
    }
    // First recorded dispatch is the gate; of the next nine, WFQ at 4:1
    // owes hi at least seven (exact order: hi lo hi hi hi hi ... with lo
    // resurfacing once per four hi dispatches).
    let recorded = order.order.lock().unwrap().clone();
    let hi_id = recorded[1..]
        .iter()
        .copied()
        .find(|&t| {
            // hi got the first post-gate slot (lowest virtual time, first
            // in the tenant scan): its id is the first non-gate entry.
            t != recorded[0]
        })
        .expect("post-gate dispatches recorded");
    let first9 = &recorded[1..10];
    let hi_share = first9.iter().filter(|&&t| t == hi_id).count();
    assert!(
        hi_share >= 7,
        "4:1 WFQ must give hi >= 7 of the first 9 slots, got {hi_share}: {recorded:?}"
    );
    assert_eq!(settled(&hi).completed as usize, K_HI);
    assert_eq!(settled(&lo).completed as usize, K_LO);
}

/// Backpressure: a full tenant queue rejects `try_run_on` with
/// `Saturated` (naming the tenant and its capacity) while the blocking
/// path waits for space instead.
#[test]
fn saturation_rejects_nonblocking_submissions() {
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let tenant = ex.tenant_with(
        "narrow",
        TenantQos {
            weight: 1,
            max_queued: 2,
            ..TenantQos::default()
        },
    );
    let gate = Arc::new(AtomicBool::new(false));
    let gate_tf = gate_flow(ex.clone(), &gate);
    let gate_handle = gate_tf.run_on(&tenant).unwrap();
    while tenant.stats().dispatched == 0 {
        std::thread::yield_now();
    }
    // Fill the queue to capacity, then overflow it.
    let noop = Arc::new(AtomicUsize::new(0));
    let mut flows = Vec::new();
    for i in 0..2 {
        let (tf, _) = mixed_flow(ex.clone(), i, &noop);
        let handle = tf.try_run_on(&tenant).expect("queue has space");
        flows.push((tf, handle));
    }
    let (overflow_tf, _) = mixed_flow(ex.clone(), 0, &noop);
    match overflow_tf.try_run_on(&tenant) {
        Err(AdmissionError::Saturated { tenant, capacity }) => {
            assert_eq!(tenant, "narrow");
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Saturated, got {other:?}"),
    }
    assert_eq!(tenant.stats().rejected_saturated, 1);
    gate.store(true, Ordering::Release);
    gate_handle.get().unwrap();
    for (_, handle) in &flows {
        handle.get().unwrap();
    }
}

/// The shutdown race: submissions queued behind a long-running topology
/// when `close()` lands must resolve with a typed rejection — and late
/// submissions after `close()` are refused — while everything already
/// admitted for dispatch still completes. Nothing hangs, nothing is
/// silently dropped.
#[test]
fn close_rejects_queued_and_late_submissions() {
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let tenant = ex.tenant_with(
        "t",
        TenantQos {
            weight: 1,
            max_queued: 16,
            ..TenantQos::default()
        },
    );
    let gate = Arc::new(AtomicBool::new(false));
    let gate_tf = gate_flow(ex.clone(), &gate);
    let gate_handle = gate_tf.run_on(&tenant).unwrap();
    while tenant.stats().dispatched == 0 {
        std::thread::yield_now();
    }
    let noop = Arc::new(AtomicUsize::new(0));
    let mut queued = Vec::new();
    for i in 0..6 {
        let (tf, _) = mixed_flow(ex.clone(), i, &noop);
        let handle = tf.try_run_on(&tenant).expect("queue has space");
        queued.push((tf, handle));
    }
    ex.close();
    gate.store(true, Ordering::Release);
    gate_handle.get().unwrap();
    let mut ok = 0u64;
    let mut rejected = 0u64;
    for (_, handle) in &queued {
        match handle.get() {
            Ok(()) => ok += 1,
            Err(RunError::Rejected(AdmissionError::ShuttingDown)) => rejected += 1,
            Err(e) => panic!("queued run must resolve Ok or ShuttingDown, got {e}"),
        }
    }
    assert_eq!(ok + rejected, 6, "every queued handle resolves");
    // Late tenant submission: typed refusal, not a hang or a drop.
    let (late_tf, _) = mixed_flow(ex.clone(), 0, &noop);
    match late_tf.try_run_on(&tenant) {
        Err(AdmissionError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    // Late direct submission (no tenant): rejected through the handle.
    let (direct_tf, _) = mixed_flow(ex.clone(), 0, &noop);
    let res = direct_tf.run().get();
    match res {
        Err(ref e) if e.as_rejected() == Some(&AdmissionError::ShuttingDown) => {}
        other => panic!("expected rejected run, got {other:?}"),
    }
    assert_ledger_balances(&settled(&tenant));
}

/// A one-task flow whose body bumps `done`.
fn counting_flow(ex: &Arc<rustflow::Executor>, done: &Arc<AtomicUsize>) -> Taskflow {
    let tf = Taskflow::with_executor(Arc::clone(ex));
    let d = Arc::clone(done);
    tf.emplace(move || {
        d.fetch_add(1, Ordering::Relaxed);
    });
    tf
}

/// `handle.get()` with a bound, so a stranded run fails loudly instead of
/// hanging. It ends the process rather than panic: unwinding would drop
/// the run's taskflow, whose destructor waits for the very same run.
fn get_within(handle: &rustflow::RunHandle, what: &str) -> rustflow::RunResult {
    handle
        .future()
        .get_timeout(Duration::from_secs(30))
        .unwrap_or_else(|| {
            eprintln!("FAILED: {what} did not resolve within 30 s");
            std::process::exit(101)
        })
}

/// A handle resolves before the finalizing worker has dropped the stint's
/// keep-alive, so resubmitting at once gives one topology two
/// registrations for a moment. The registry must still count it once,
/// each stint must credit the tenant that dispatched it (alternating, so
/// a finalizer reading the newer stint's slot would credit the wrong one
/// or find the slot vacant), and the registry must end empty.
#[test]
fn resubmission_racing_finalize_keeps_registrations_apart() {
    const ROUNDS: u64 = 400;
    let ex = ExecutorBuilder::new().workers(1).build();
    let tenants = [ex.tenant("even"), ex.tenant("odd")];
    let done = Arc::new(AtomicUsize::new(0));
    let tf = counting_flow(&ex, &done);
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (ex, stop) = (ex.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut most = 0;
            while !stop.load(Ordering::Acquire) {
                most = most.max(ex.num_running_topologies());
                std::thread::yield_now();
            }
            most
        })
    };
    for round in 0..ROUNDS {
        let handle = tf.run_on(&tenants[(round % 2) as usize]).unwrap();
        get_within(&handle, "resubmitted run").unwrap();
    }
    stop.store(true, Ordering::Release);
    let most = sampler.join().unwrap();
    assert!(most <= 1, "one topology was counted {most} times");
    assert_eq!(done.load(Ordering::Relaxed) as u64, ROUNDS);
    for tenant in &tenants {
        let s = settled(tenant);
        assert_eq!(
            (s.dispatched, s.completed, s.coalesced, s.in_flight),
            (ROUNDS / 2, ROUNDS / 2, 0, 0),
            "every stint credits the tenant that dispatched it: {s:?}"
        );
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ex.num_running_topologies() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "registry never emptied"
        );
        std::thread::yield_now();
    }
}

/// An in-flight budget of one, two clients, two tenants: almost every
/// submission arrives at a full budget and is dispatched either by the
/// finalizer that frees the slot or by a submitter that sees it free. A
/// run seen by neither would sit in its queue forever, so every wait
/// here is bounded.
#[test]
fn full_budget_never_strands_a_run() {
    const RUNS_PER_CLIENT: usize = 5_000;
    const WINDOW: usize = 4;
    let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
    let done = Arc::new(AtomicUsize::new(0));
    let tenants = [ex.tenant("a"), ex.tenant("b")];
    let clients: Vec<_> = tenants
        .iter()
        .cloned()
        .map(|tenant| {
            let (ex, done) = (ex.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                let flows: Vec<Taskflow> = (0..WINDOW).map(|_| counting_flow(&ex, &done)).collect();
                let mut window = std::collections::VecDeque::new();
                for i in 0..RUNS_PER_CLIENT {
                    if window.len() == WINDOW {
                        let oldest: rustflow::RunHandle = window.pop_front().unwrap();
                        get_within(&oldest, "served run").unwrap();
                    }
                    // Flow `i % WINDOW` is the one whose run was just
                    // retired, so it is idle and never coalesces.
                    window.push_back(flows[i % WINDOW].run_on(&tenant).unwrap());
                }
                for handle in window {
                    get_within(&handle, "served run").unwrap();
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(done.load(Ordering::Relaxed), 2 * RUNS_PER_CLIENT);
    for tenant in &tenants {
        let s = settled(tenant);
        assert_ledger_balances(&s);
        assert_eq!(
            (s.submitted, s.completed),
            (RUNS_PER_CLIENT as u64, RUNS_PER_CLIENT as u64),
            "every run was served: {s:?}"
        );
    }
}

/// Dropping the executor's last handle while a full window of served runs
/// is still in flight: `Executor::drop` waits out every registration and
/// returns, and every run has resolved `Ok` exactly once (a second
/// resolution panics the finalizing worker, which the count below would
/// miss a run for).
#[test]
fn drop_with_a_full_window_in_flight_terminates() {
    const WINDOW: usize = 16;
    let (finished, done_rx) = std::sync::mpsc::channel();
    let rounds = std::thread::spawn(move || {
        for _ in 0..50 {
            let ex = ExecutorBuilder::new().workers(1).build();
            let tenant = ex.tenant("t");
            let done = Arc::new(AtomicUsize::new(0));
            let flows: Vec<Taskflow> = (0..WINDOW).map(|_| counting_flow(&ex, &done)).collect();
            let handles: Vec<_> = flows.iter().map(|tf| tf.run_on(&tenant).unwrap()).collect();
            // Each taskflow's drop waits for its run's promise, not for
            // the finalizer's bookkeeping behind it; the executor's drop
            // (the last `Arc` goes with `flows`) has to wait for that.
            drop((tenant, ex, flows));
            for handle in &handles {
                assert_eq!(handle.try_get(), Some(Ok(())), "run resolved once, Ok");
            }
            assert_eq!(done.load(Ordering::Relaxed), WINDOW);
        }
        finished.send(()).unwrap();
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("Executor::drop hung with served runs in flight")
        }
        // The rounds panicked before reporting: surface that panic.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
    }
    rounds.join().unwrap();
}

/// Cancel and panic/retry interleavings through the tenant path: every
/// handle resolves to a definite outcome and the per-tenant ledger still
/// balances afterwards.
#[test]
fn cancel_and_chaos_interleavings_conserve() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 12;
    let ex = ExecutorBuilder::new().workers(4).build();
    let tenant = ex.tenant_with(
        "chaos",
        TenantQos {
            weight: 2,
            max_queued: 64,
            ..TenantQos::default()
        },
    );
    let resolved = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ex = ex.clone();
            let tenant = tenant.clone();
            let resolved = Arc::clone(&resolved);
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let tf = Taskflow::with_executor(ex.clone());
                    match (c + i) % 3 {
                        0 => {
                            // Flaky task rescued by one retry.
                            let attempts = Arc::new(AtomicUsize::new(0));
                            let a = Arc::clone(&attempts);
                            tf.emplace(move || {
                                if a.fetch_add(1, Ordering::Relaxed) == 0 {
                                    panic!("flaky once");
                                }
                            })
                            .retry(1);
                            let h = tf.run_on(&tenant).unwrap();
                            h.get().unwrap();
                            assert_eq!(attempts.load(Ordering::Relaxed), 2);
                        }
                        1 => {
                            // Slow chain cancelled mid-flight: Ok (it
                            // outran the cancel) or Cancelled, never a hang.
                            let a = tf.emplace(|| {
                                std::thread::sleep(Duration::from_micros(50));
                            });
                            let b = tf.emplace(|| {});
                            a.precede(b);
                            let h = tf.run_on(&tenant).unwrap();
                            h.cancel();
                            match h.get() {
                                Ok(()) => {}
                                Err(e) if e.is_cancelled() => {}
                                Err(e) => panic!("cancel race must not produce {e}"),
                            }
                        }
                        _ => {
                            // Unrescued panic surfaces as an error.
                            tf.emplace(|| panic!("planned fault"));
                            let h = tf.run_on(&tenant).unwrap();
                            let err = h.get().expect_err("planned fault must surface");
                            assert!(format!("{err}").contains("planned fault"));
                        }
                    }
                    resolved.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(resolved.load(Ordering::Relaxed), CLIENTS * PER_CLIENT);
    let s = settled(&tenant);
    assert_eq!(s.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_ledger_balances(&s);
}

/// Two submissions of one flow while its first run is still executing: the
/// second rides the first's stint. It is one driver claim and one
/// coalesced rider, not two dispatches.
#[test]
fn a_coalesced_run_is_counted_once() {
    let ex = ExecutorBuilder::new().workers(1).build();
    let tenant = ex.tenant("t");
    let gate = Arc::new(AtomicBool::new(false));
    let tf = gate_flow(ex.clone(), &gate);
    let first = tf.run_on(&tenant).unwrap();
    let second = tf.run_on(&tenant).unwrap();
    gate.store(true, Ordering::Release);
    assert_eq!(get_within(&first, "driver run"), Ok(()));
    assert_eq!(get_within(&second, "coalesced run"), Ok(()));
    let s = settled(&tenant);
    assert_ledger_balances(&s);
    assert_eq!(
        (s.submitted, s.dispatched, s.coalesced, s.completed),
        (2, 1, 1, 1),
        "{s:?}"
    );
}

/// A flow with more independent sources than the injector ring has slots
/// (1 024): the dispatch burst overflows into the spill queue, which is
/// what a wide one-shot graph does in production. Every task still runs
/// exactly once, on either path.
#[test]
fn a_dispatch_burst_wider_than_the_ring_spills_and_loses_nothing() {
    const SOURCES: usize = 3_000;
    let ex = ExecutorBuilder::new().workers(2).build();
    let handle = ex
        .start_introspection(rustflow::IntrospectConfig::default())
        .expect("introspection starts once");
    let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..SOURCES).map(|_| AtomicUsize::new(0)).collect());
    let tf = Taskflow::with_executor(ex.clone());
    for i in 0..SOURCES {
        let runs = Arc::clone(&runs);
        tf.emplace(move || {
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(get_within(&tf.run(), "wide flow"), Ok(()));
    let ran_once = runs.iter().all(|r| r.load(Ordering::Relaxed) == 1);
    assert!(ran_once, "a task ran zero or several times");
    let metrics = handle.metrics_text();
    let spills: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("rustflow_injector_spills_total "))
        .expect("spill counter exported")
        .parse()
        .expect("a count");
    assert!(spills > 0, "3 000 sources fit a 1 024-slot ring?");
}

/// Opens a gate when dropped, so a failing assertion cannot leave a gated
/// task spinning under the taskflow destructors that wait for it.
struct OpenOnDrop(Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// What the ledger property expects of one tenant, counted on the client
/// side from what each call returned and each handle resolved to.
#[derive(Debug, Default, PartialEq, Eq)]
struct Expected {
    submitted: u64,
    /// Handles that resolved `Ok` or `Cancelled`: a driver claim or a rider.
    ran: u64,
    shed: u64,
    rejected_saturated: u64,
    rejected_shutdown: u64,
    rejected_infeasible: u64,
}

/// A run of the ledger property: its tenant, whether its flow panics, and
/// its handle.
type Submitted = (usize, bool, rustflow::RunHandle);

/// The quiescent point of the ledger property: with the gate open, every
/// handle resolves (bounded), is folded into its tenant's expectation
/// exactly once, and each tenant's settled ledger balances and agrees with
/// what the client saw. A run of the panicking flow that ran resolves
/// `Err(Panic)`, any other never does, and each failed run is a completed
/// stint of its own or rode one.
fn check_quiescent(
    tenants: &[Tenant; 2],
    expected: &mut [Expected; 2],
    handles: &mut Vec<Submitted>,
    ops: &[(u8, usize, usize)],
) {
    let mut panicked = [0u64; 2];
    for (t, panics, handle) in handles.drain(..) {
        match get_within(&handle, "a run of the ledger property") {
            Ok(()) if !panics => expected[t].ran += 1,
            Err(e) if panics && e.as_panic().is_some() => {
                expected[t].ran += 1;
                panicked[t] += 1;
            }
            Err(e) if e.is_cancelled() => expected[t].ran += 1,
            Err(e) if e.is_shed() => expected[t].shed += 1,
            Err(e) if e.as_rejected() == Some(&AdmissionError::ShuttingDown) => {
                expected[t].rejected_shutdown += 1
            }
            other => panic!("unexpected outcome {other:?} (panics: {panics}) in {ops:?}"),
        }
    }
    for (tenant, want) in tenants.iter().zip(expected.iter()) {
        let s = settled(tenant);
        assert_ledger_balances(&s);
        let got = Expected {
            submitted: s.submitted,
            ran: s.dispatched + s.coalesced,
            shed: s.shed,
            rejected_saturated: s.rejected_saturated,
            rejected_shutdown: s.rejected_shutdown,
            rejected_infeasible: s.rejected_infeasible,
        };
        assert_eq!(&got, want, "tenant {} after {ops:?}: {s:?}", s.name);
    }
    for (tenant, panicked) in tenants.iter().zip(panicked) {
        let s = tenant.stats();
        assert!(
            panicked <= s.completed + s.coalesced,
            "{panicked} runs failed, not all counted, after {ops:?}: {s:?}"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]

    /// Random sequences of submissions (blocking, non-blocking against
    /// two-deep queues, with a zero and with a generous deadline, of a flow
    /// whose task panics, which the breaker's signal reads), cancels,
    /// resubmissions of a flow that is still running, gate flips and a
    /// `close`, over two tenants and an in-flight budget of 1–3: at every
    /// quiescent point each tenant's ledger balances and matches what the
    /// client was told, call by call and handle by handle.
    #[test]
    fn the_ledger_balances_at_every_quiescent_point(
        max_inflight in 1usize..4,
        ops in proptest::collection::vec((0u8..13, 0usize..2, 0usize..3), 1..40),
    ) {
        let ex = ExecutorBuilder::new().workers(2).max_inflight(max_inflight).build();
        let qos = TenantQos { max_queued: 2, ..TenantQos::default() };
        let tenants = [ex.tenant_with("a", qos), ex.tenant_with("b", qos)];
        let gate = Arc::new(AtomicBool::new(false));
        // Three flows shared by both tenants, so a resubmission finds its
        // flow still running (and coalesces) whenever the budget lets it
        // be popped.
        let flows: Vec<Taskflow> = (0..3).map(|_| gate_flow(ex.clone(), &gate)).collect();
        let panicking = Taskflow::with_executor(ex.clone());
        panicking.emplace(|| panic!("a failing run of the ledger property"));
        let _open = OpenOnDrop(Arc::clone(&gate));
        let mut expected = [Expected::default(), Expected::default()];
        let mut handles: Vec<Submitted> = Vec::new();
        for (i, &(op, t, f)) in ops.iter().enumerate() {
            let (tenant, flow) = (&tenants[t], &flows[f]);
            let submission = match op {
                // Blocking: only with the gate open, or a full queue
                // behind a held budget would block this thread for good.
                0 if gate.load(Ordering::Acquire) => Some((false, flow.run_on(tenant))),
                0..=3 => Some((false, flow.try_run_on(tenant))),
                4 | 5 => Some((false, flow.try_run_on_deadline(tenant, Duration::ZERO))),
                6 => Some((false, flow.try_run_on_deadline(tenant, Duration::from_secs(60)))),
                12 => Some((true, panicking.try_run_on(tenant))),
                7 | 8 => {
                    if let Some((_, _, handle)) = handles.get(i % handles.len().max(1)) {
                        handle.cancel();
                    }
                    None
                }
                9 | 10 => {
                    // Flip the gate; opening it is a quiescent point.
                    if gate.fetch_xor(true, Ordering::AcqRel) {
                        None
                    } else {
                        check_quiescent(&tenants, &mut expected, &mut handles, &ops[..=i]);
                        None
                    }
                }
                _ => {
                    // One op in thirteen shuts the door for the rest of
                    // the sequence (idempotent).
                    ex.close();
                    None
                }
            };
            if let Some((panics, result)) = submission {
                expected[t].submitted += 1;
                match result {
                    Ok(handle) => handles.push((t, panics, handle)),
                    Err(AdmissionError::Saturated { .. }) => expected[t].rejected_saturated += 1,
                    Err(AdmissionError::ShuttingDown) => expected[t].rejected_shutdown += 1,
                    Err(AdmissionError::DeadlineInfeasible { .. }) => {
                        expected[t].rejected_infeasible += 1
                    }
                    Err(e) => panic!("unexpected refusal {e} in {:?}", &ops[..=i]),
                }
            }
        }
        gate.store(true, Ordering::Release);
        check_quiescent(&tenants, &mut expected, &mut handles, &ops);
    }
}

/// `Tenant` accessors and find-or-create semantics: asking for the same
/// name returns a handle to the same tenant; QoS on first creation wins.
#[test]
fn tenant_handles_are_stable() {
    let ex = ExecutorBuilder::new().workers(1).build();
    let a = ex.tenant_with(
        "svc",
        TenantQos {
            weight: 3,
            max_queued: 7,
            ..TenantQos::default()
        },
    );
    let b = ex.tenant("svc");
    assert_eq!(a.name(), "svc");
    assert_eq!(b.weight(), 3, "second lookup sees the original QoS");
    assert_eq!(b.max_queued(), 7);
    let other = ex.tenant("other");
    assert_eq!(other.weight(), 1, "default weight");
    assert_eq!(ex.stats().tenants.len(), 2);
}

/// Keeps `Tenant: Send + Clone` and the admission errors exported — the
/// client-facing surface a serving integration depends on.
#[test]
fn serving_surface_is_send() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tenant>();
    assert_send_sync::<AdmissionError>();
}
