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
