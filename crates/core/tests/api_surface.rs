//! Small API-surface tests: macro forms, handle introspection, builder
//! defaults, future timeouts — the corners the big integration tests
//! don't touch.

use rustflow::{Executor, ExecutorBuilder, Taskflow};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn emplace_macro_single_and_many() {
    let tf = Taskflow::new();
    let only = rustflow::emplace!(tf, || {});
    only.name("solo");
    let (x, y, z) = rustflow::emplace!(tf, || {}, || {}, || {});
    x.precede([y, z]);
    assert_eq!(tf.num_nodes(), 4);
    tf.wait_for_all();
}

#[test]
fn task_handle_introspection() {
    let tf = Taskflow::new();
    let a = tf.emplace(|| {}).name("alpha");
    let b = tf.emplace(|| {});
    let c = tf.placeholder();
    a.precede([b, c]);
    c.succeed(b);
    assert_eq!(a.name_str(), "alpha");
    assert_eq!(b.name_str(), "");
    assert_eq!(a.num_successors(), 2);
    assert_eq!(a.num_dependents(), 0);
    assert_eq!(c.num_dependents(), 2);
    assert!(c.is_placeholder());
    assert!(!a.is_placeholder());
    let dbg = format!("{a:?}");
    assert!(dbg.contains("alpha"));
    c.work(|| {});
    tf.wait_for_all();
}

#[test]
#[should_panic(expected = "dispatched")]
fn mutating_task_after_dispatch_panics() {
    let ex = Executor::new(1);
    let tf = Taskflow::with_executor(ex);
    let a = tf.emplace(|| {});
    tf.wait_for_all();
    // The handle survives (the topology is retained), but mutation is a
    // caught logic error.
    a.name("too late");
}

#[test]
fn builder_defaults_and_overrides() {
    let default = ExecutorBuilder::new().build();
    assert!(default.num_workers() >= 1);
    let custom = ExecutorBuilder::new().workers(3).build();
    assert_eq!(custom.num_workers(), 3);
    let tf = Taskflow::with_executor(custom);
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..100 {
        let c = Arc::clone(&counter);
        tf.emplace(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    tf.wait_for_all();
    assert_eq!(counter.load(Ordering::SeqCst), 100);
}

#[test]
fn zero_workers_clamps_to_one() {
    let ex = Executor::new(0);
    assert_eq!(ex.num_workers(), 1);
    let ex = ExecutorBuilder::new().workers(0).build();
    assert_eq!(ex.num_workers(), 1);
}

#[test]
fn future_timeout_paths() {
    let ex = Executor::new(1);
    let tf = Taskflow::with_executor(ex);
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    tf.emplace(move || {
        while g.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    });
    let handle = tf.dispatch();
    // Observing through the raw future never cancels: it just times out
    // while the task spins...
    let future = handle.future();
    assert!(future.get_timeout(Duration::from_millis(20)).is_none());
    gate.store(1, Ordering::Release);
    // ...and resolves after release.
    let result = future.get_timeout(Duration::from_secs(5));
    assert!(matches!(result, Some(Ok(()))));
}

#[test]
fn executor_debug_and_idlers() {
    let ex = Executor::new(2);
    // Give workers a moment to park.
    std::thread::sleep(Duration::from_millis(50));
    let s = format!("{ex:?}");
    assert!(s.contains("workers: 2"));
    assert!(ex.num_idlers() <= 2);
    assert_eq!(ex.num_running_topologies(), 0);
}

#[test]
fn taskflow_default_uses_shared_executor() {
    let a = Taskflow::default();
    let b = Taskflow::new();
    assert!(Arc::ptr_eq(&a.executor(), &b.executor()));
}

#[test]
fn subflow_api_surface() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let observed = Arc::new(AtomicUsize::new(0));
    let o = Arc::clone(&observed);
    tf.emplace_subflow(move |sf| {
        assert_eq!(sf.num_tasks(), 0);
        let t = sf.placeholder().name("child");
        assert!(t.is_placeholder());
        let o2 = Arc::clone(&o);
        t.work(move || {
            o2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(sf.num_tasks(), 1);
        assert!(!sf.is_detached());
        sf.detach();
        assert!(sf.is_detached());
        sf.join();
        assert!(!sf.is_detached());
    });
    tf.wait_for_all();
    assert_eq!(observed.load(Ordering::SeqCst), 1);
}
