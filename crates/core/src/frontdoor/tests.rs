//! Tests that need the front door's private state: holding its locks from
//! outside.

use super::*;
use crate::executor::tests::eventually;
use crate::Taskflow;

/// With nothing queued, the worker that finalizes a served run must not
/// touch `qos` or the tenant's queue lock: the test thread holds both
/// while the run finishes, is credited, returns its slot and the worker
/// goes back to sleep.
#[test]
fn finalize_takes_no_front_door_lock_when_nothing_is_queued() {
    let ex = Executor::new(1);
    let tenant = ex.tenant("t");
    let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
    tf.emplace(move || {
        s.store(true, Ordering::Relaxed);
        while !g.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    });
    let run = tf.run_on(&tenant).expect("admitted");
    assert!(
        eventually(|| started.load(Ordering::Relaxed)),
        "run never started"
    );
    let qos = ex.inner.qos.lock();
    let queue = tenant.state.queue.lock();
    gate.store(true, Ordering::Relaxed);
    let finalized = eventually(|| {
        run.is_ready()
            && tenant.state.completed.load(Ordering::Relaxed) == 1
            && ex.inner.budget.inflight.load(Ordering::Relaxed) == 0
            && ex.num_idlers() == 1
    });
    drop((queue, qos));
    assert!(
        finalized,
        "the finalizing worker waited on a front-door lock"
    );
    assert_eq!(run.get(), Ok(()));
}

/// With nothing queued, a served submission dispatches straight through:
/// the test thread holds `qos` while another thread submits a tenanted
/// run and waits for it.
#[test]
fn a_served_submit_takes_no_qos_lock_when_nothing_is_queued() {
    let ex = Executor::new(1);
    let tenant = ex.tenant("t");
    let served = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let qos = ex.inner.qos.lock();
    let client = {
        let (ex, tenant, served) = (Arc::clone(&ex), tenant.clone(), Arc::clone(&served));
        std::thread::spawn(move || {
            let tf = Taskflow::with_executor(ex);
            tf.emplace(|| {});
            let result = tf.run_on(&tenant).expect("admitted").get();
            served.store(true, Ordering::Relaxed);
            result
        })
    };
    let through = eventually(|| served.load(Ordering::Relaxed));
    drop(qos);
    let result = client.join().expect("client thread");
    assert!(through, "the submitting client waited on the qos lock");
    assert_eq!(result, Ok(()));
    assert_eq!(tenant.stats().dispatched, 1);
}

/// An error-free served run finalizes without its topology's `error`
/// lock: the test thread holds it while the run finishes, is credited,
/// returns its slot and the worker goes back to sleep.
#[test]
fn an_error_free_finalize_takes_no_error_lock() {
    let ex = Executor::new(1);
    let tenant = ex.tenant("t");
    let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
    tf.emplace(move || {
        s.store(true, Ordering::Relaxed);
        while !g.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    });
    let run = tf.run_on(&tenant).expect("admitted");
    assert!(
        eventually(|| started.load(Ordering::Relaxed)),
        "run never started"
    );
    let topo = ex.inner.running.lock().topologies().pop().expect("running");
    let error = topo.error.lock();
    gate.store(true, Ordering::Relaxed);
    let finalized = eventually(|| {
        run.is_ready()
            && tenant.state.completed.load(Ordering::Relaxed) == 1
            && ex.inner.budget.inflight.load(Ordering::Relaxed) == 0
            && ex.num_idlers() == 1
    });
    drop(error);
    assert!(finalized, "the finalizing worker waited on the error lock");
    assert_eq!(run.get(), Ok(()));
}

/// Two clients, one tenant each, over budgets of one and two slots. They
/// alternate, in step, 64 runs kept four deep (which queue behind the
/// budget) with 64 runs one at a time (which mostly find nothing queued
/// and go straight through). Every run is dispatched and executed once,
/// the ledgers are exact, and within a tenant no run leaves the queue lock
/// before one submitted earlier (both stamps are read under it).
#[test]
#[cfg_attr(miri, ignore = "10 000 runs on a worker pool; too slow under miri")]
fn straight_through_and_queued_runs_keep_ledger_and_order() {
    const RUNS: usize = 2_500;
    for max_inflight in [1, 2] {
        let ex = crate::ExecutorBuilder::new()
            .workers(2)
            .max_inflight(max_inflight)
            .build();
        let phase = Arc::new(std::sync::Barrier::new(2));
        let clients: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let (ex, tenant, phase) = (Arc::clone(&ex), ex.tenant(name), Arc::clone(&phase));
                std::thread::spawn(move || client(&ex, &tenant, &phase, RUNS))
            })
            .collect();
        let (mut straight, mut queued) = (0, 0);
        for (client, name) in clients.into_iter().zip(["a", "b"]) {
            let (stamps, executed) = client.join().expect("client thread");
            assert_eq!(
                executed, RUNS,
                "tenant {name}: a run executed zero or twice"
            );
            assert!(
                stamps
                    .windows(2)
                    .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
                "tenant {name}: a run overtook an earlier one ({max_inflight} slots)"
            );
            assert!(stamps.iter().all(|&(submit, admitted)| submit <= admitted));
            // A run admitted at its own submit stamp went straight through
            // (or was pumped within the same microsecond).
            straight += stamps.iter().filter(|(s, a)| s == a).count();
            queued += stamps.iter().filter(|(s, a)| s < a).count();
            let tenant = ex.tenant(name);
            assert!(
                eventually(|| tenant.stats().in_flight == 0),
                "tenant {name} never settled"
            );
            let s = tenant.stats();
            let runs = RUNS as u64;
            assert_eq!(
                (s.submitted, s.dispatched, s.completed, s.queued),
                (runs, runs, runs, 0),
                "tenant {name}: {s:?}"
            );
            assert_eq!(s.coalesced + s.shed, 0, "tenant {name}: {s:?}");
        }
        assert!(
            straight > 0 && queued > 0,
            "{max_inflight} slots: {straight} runs straight through, {queued} queued"
        );
        let budget = &ex.inner.budget;
        assert!(
            eventually(|| budget.inflight.load(Ordering::Relaxed) == 0),
            "a slot was never handed back"
        );
        assert_eq!(budget.backlog.load(Ordering::Relaxed), 0);
    }

    /// One client: `runs` submissions over four single-task topologies,
    /// each resubmitted once its previous run resolved; every 64 runs it
    /// drains, meets the other client at `phase`, and switches between a
    /// window of four and one of one. Returns the (submit, admitted)
    /// stamps of every run in submission order, and how many task
    /// executions there were.
    fn client(
        ex: &Executor,
        tenant: &Tenant,
        phase: &std::sync::Barrier,
        runs: usize,
    ) -> (Vec<(u64, u64)>, usize) {
        const PHASE: usize = 64;
        const DEEP: usize = 4;
        let executed = Arc::new(AtomicUsize::new(0));
        let topos: Vec<Arc<Topology>> = (0..DEEP)
            .map(|_| {
                let mut graph = crate::graph::Graph::new();
                let executed = Arc::clone(&executed);
                graph.emplace(crate::graph::Work::new_static(move || {
                    executed.fetch_add(1, Ordering::Relaxed);
                }));
                Topology::new(graph, crate::FailurePolicy::ContinueAll)
            })
            .collect();
        let mut inflight: VecDeque<(usize, SharedFuture<RunResult>)> = VecDeque::new();
        let mut stamps = Vec::with_capacity(runs);
        let mut retire = |inflight: &mut VecDeque<(usize, SharedFuture<RunResult>)>| {
            let (slot, future) = inflight.pop_front().expect("a run in flight");
            assert_eq!(future.get(), Ok(()));
            // Stable until this client resubmits the topology.
            let s = topos[slot].stamps.snapshot();
            stamps.push((s.submit, s.admitted));
        };
        let mut window = DEEP;
        for i in 0..runs {
            if i % PHASE == 0 {
                while !inflight.is_empty() {
                    retire(&mut inflight);
                }
                phase.wait();
                window = if (i / PHASE).is_multiple_of(2) {
                    DEEP
                } else {
                    1
                };
            } else if inflight.len() == window {
                retire(&mut inflight);
            }
            let slot = i % DEEP;
            let future = ex
                .run_topology_on(
                    tenant,
                    &topos[slot],
                    RunCondition::Count(1),
                    Block::Forever,
                    None,
                )
                .expect("admitted");
            inflight.push_back((slot, future));
        }
        while !inflight.is_empty() {
            retire(&mut inflight);
        }
        (stamps, executed.load(Ordering::Relaxed))
    }
}
