//! Tests that need the executor's private state: planting registrations
//! by hand.

use super::*;
use crate::graph::{Graph, Work};
use crate::introspect::IntrospectConfig;
use crate::FailurePolicy;
use std::time::Duration;

/// Polls `cond` for up to ten seconds.
pub(crate) fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
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
    graph.emplace(Work::empty());
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
