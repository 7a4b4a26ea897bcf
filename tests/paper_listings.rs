//! End-to-end reproductions of the paper's code listings, asserting the
//! dependency semantics each listing demonstrates. Every blocking wait is
//! bounded ([`common::within_30s`]): a wedged listing fails the suite after
//! 30 s and names itself.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::within_30s;
use rustflow::{Executor, Taskflow};
use std::sync::Arc;

use parking_lot::Mutex;

type Log = Arc<Mutex<Vec<&'static str>>>;

fn ordered_log() -> (Log, impl Fn(&'static str) -> Box<dyn FnMut() + Send>) {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let l = Arc::clone(&log);
    let maker = move |name: &'static str| -> Box<dyn FnMut() + Send> {
        let l = Arc::clone(&l);
        Box::new(move || l.lock().push(name))
    };
    (log, maker)
}

/// `tf.wait_for_all()`, bounded; hands the taskflow back.
fn wait_for_all(listing: &str, tf: Taskflow) -> Taskflow {
    within_30s(&format!("rustflow on {listing}"), move || {
        tf.wait_for_all();
        tf
    })
}

fn pos(log: &[&str], name: &str) -> usize {
    log.iter()
        .position(|&x| x == name)
        .unwrap_or_else(|| panic!("{name} did not run"))
}

#[test]
fn listing1_four_task_diamond() {
    let (log, task) = ordered_log();
    let tf = Taskflow::new();
    let (a, b, c, d) = rustflow::emplace!(tf, task("A"), task("B"), task("C"), task("D"));
    a.precede([b, c]); // A runs before B and C
    b.precede(d); // B runs before D
    c.precede(d); // C runs before D
    wait_for_all("Listing 1", tf); // block until finish
    let log = log.lock();
    assert_eq!(log.len(), 4);
    assert!(pos(&log, "A") < pos(&log, "B"));
    assert!(pos(&log, "A") < pos(&log, "C"));
    assert!(pos(&log, "B") < pos(&log, "D"));
    assert!(pos(&log, "C") < pos(&log, "D"));
}

#[test]
fn listing3_figure2_static_graph() {
    let (log, task) = ordered_log();
    let tf = Taskflow::new();
    let (a0, a1, a2, a3, b0, b1, b2) = rustflow::emplace!(
        tf,
        task("a0"),
        task("a1"),
        task("a2"),
        task("a3"),
        task("b0"),
        task("b1"),
        task("b2"),
    );
    a0.precede(a1);
    a1.precede([a2, b2]);
    a2.precede(a3);
    b0.precede(b1);
    b1.precede([a2, b2]);
    b2.precede(a3);
    wait_for_all("Listing 3", tf);
    let log = log.lock();
    assert_eq!(log.len(), 7);
    assert!(pos(&log, "a0") < pos(&log, "a1"));
    assert!(pos(&log, "a1") < pos(&log, "a2") && pos(&log, "b1") < pos(&log, "a2"));
    assert!(pos(&log, "a1") < pos(&log, "b2") && pos(&log, "b1") < pos(&log, "b2"));
    assert!(pos(&log, "a2") < pos(&log, "a3") && pos(&log, "b2") < pos(&log, "a3"));
    assert!(pos(&log, "b0") < pos(&log, "b1"));
}

#[test]
fn listing6_blocking_and_nonblocking_dispatch() {
    let (log, task) = ordered_log();
    let tf = Taskflow::new();
    let (a, b) = rustflow::emplace!(tf, task("A"), task("B"));
    a.precede(b); // task A runs before task B
    let tf = wait_for_all("Listing 6", tf); // block until finish

    let (a2, b2) = rustflow::emplace!(tf, task("newA"), task("newB"));
    b2.precede(a2); // task B runs before task A this time
    let shared_future = tf.dispatch();
    // ... do something to overlap the graph execution ...
    let result = within_30s("rustflow on Listing 6's dispatch", move || {
        shared_future.wait(); // block until finish
        shared_future.get()
    });
    assert!(result.is_ok());

    let log = log.lock();
    assert!(pos(&log, "A") < pos(&log, "B"));
    assert!(pos(&log, "newB") < pos(&log, "newA"));
}

#[test]
fn listing7_figure4_dynamic_graph() {
    let (log, task) = ordered_log();
    let tf = Taskflow::new();
    let (a, c, d) = rustflow::emplace!(tf, task("A"), task("C"), task("D"));
    let log2 = Arc::clone(&log);
    let b = tf.emplace_subflow(move |sf| {
        log2.lock().push("B");
        let l1 = Arc::clone(&log2);
        let l2 = Arc::clone(&log2);
        let l3 = Arc::clone(&log2);
        let b1 = sf.emplace(move || l1.lock().push("B1"));
        let b2 = sf.emplace(move || l2.lock().push("B2"));
        let b3 = sf.emplace(move || l3.lock().push("B3"));
        b1.precede(b3);
        b2.precede(b3);
    });
    a.precede([b, c]);
    b.precede(d);
    c.precede(d);
    wait_for_all("Listing 7", tf);
    let log = log.lock();
    assert_eq!(log.len(), 7);
    assert!(pos(&log, "A") < pos(&log, "B"));
    assert!(pos(&log, "A") < pos(&log, "C"));
    // The joined subflow completes before D.
    assert!(pos(&log, "B1") < pos(&log, "B3"));
    assert!(pos(&log, "B2") < pos(&log, "B3"));
    assert!(pos(&log, "B3") < pos(&log, "D"));
    assert!(pos(&log, "C") < pos(&log, "D"));
}

#[test]
fn figure5_nested_subflow_dump() {
    let tf = Taskflow::new();
    tf.set_name("Fig5");
    tf.emplace_subflow(|sf| {
        let a1 = sf.emplace(|| {}).name("A1");
        let a2 = sf
            .emplace_subflow(|inner| {
                inner.emplace(|| {}).name("A2_1");
                inner.emplace(|| {}).name("A2_2");
            })
            .name("A2");
        a1.precede(a2);
    })
    .name("A");
    let tf = wait_for_all("Figure 5", tf);
    let dot = tf.dump_topologies();
    assert!(dot.contains("Subflow_A"));
    assert!(dot.contains("Subflow_A2"));
    assert!(dot.contains("A2_1"));
    assert!(dot.contains("A2_2"));
    // Two nested clusters, like the paper's Figure 5 visualization.
    assert_eq!(dot.matches("subgraph cluster_").count(), 2);
}

#[test]
fn executor_shared_like_the_animation_use_case() {
    // §III-E: a main taskflow handles renders, others handle resource
    // loading, all on one executor.
    let executor = Executor::new(2);
    let render = Taskflow::with_executor(Arc::clone(&executor));
    let loader = Taskflow::with_executor(Arc::clone(&executor));
    let (log, task) = ordered_log();
    render.emplace(task("frame"));
    loader.emplace(task("texture"));
    let f1 = render.dispatch();
    let f2 = loader.dispatch();
    within_30s("rustflow on the two taskflows of §III-E", move || {
        f1.wait();
        f2.wait();
    });
    let log = log.lock();
    assert_eq!(log.len(), 2);
}
