//! Tests that need the executor's private state: holding its front-door
//! locks from outside, or planting registrations by hand.

use super::*;
use crate::graph::Graph;
use crate::introspect::IntrospectConfig;
use crate::Taskflow;

/// Polls `cond` for up to ten seconds.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

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

/// One topology holding two registrations (what a resubmission racing
/// finalize produces for a moment) is one running topology to
/// `num_running_topologies`, `/metrics`, `/status` and the watchdog, which
/// reports its stall once.
#[test]
fn a_topology_registered_twice_is_listed_once() {
    let ex = Executor::new(1);
    let handle = ex
        .start_introspection(IntrospectConfig {
            collect_period: Duration::from_millis(5),
            stall_threshold: Duration::from_millis(20),
            ..IntrospectConfig::default()
        })
        .expect("introspection starts once");
    // A topology frozen mid-iteration: claimed, re-armed, its source never
    // published, so `alive` stays at 1 on an idle executor.
    let mut graph = Graph::new();
    graph.emplace(Work::Empty);
    let topo = Topology::new(graph, FailurePolicy::ContinueAll);
    let (promise, _future) = crate::future::promise_pair();
    let cond = RunCondition::Count(1);
    assert!(topo.enqueue(PendingRun { cond, promise }));
    // SAFETY: `enqueue` returned `true`, so this thread is the driver; the
    // topology is quiescent (it never ran).
    unsafe {
        assert_eq!(topo.advance(false), Advance::RunIteration);
        topo.begin_iteration(|_| {});
    }
    let slots = {
        let mut running = ex.inner.running.lock();
        [running.register(&topo, None), running.register(&topo, None)]
    };
    assert_ne!(slots[0], slots[1]);
    assert_eq!(ex.num_running_topologies(), 1);
    assert!(
        eventually(|| handle.watchdog_counts().stalled_topologies >= 1),
        "watchdog never saw the frozen topology"
    );
    // Give it several more passes to report a second time, if it would.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(handle.watchdog_counts().stalled_topologies, 1);
    let status = handle.status_json();
    assert!(status.contains("\"inflight_topologies\":1,"), "{status}");
    let entry = format!("{{\"topology\":{},", topo.uid());
    assert_eq!(status.matches(&entry).count(), 1, "{status}");
    assert!(
        handle
            .metrics_text()
            .contains("rustflow_inflight_topologies 1\n"),
        "gauge counts the topology once"
    );
    // Vacate by hand what was planted by hand, or `drop` waits forever.
    let mut running = ex.inner.running.lock();
    for slot in slots {
        drop(running.remove(slot));
        assert_eq!(running.is_empty(), slot == slots[1]);
    }
}
