//! Integration tests of the rustflow executor through the public API:
//! dependency ordering, dynamic tasking semantics, dispatch/future
//! behaviour, panic handling, observers, and executor sharing.

use rustflow::{BusyCounter, Executor, ExecutorBuilder, ExecutorObserver, Taskflow, Tracer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// A shared logical clock for stamping execution order.
fn clock() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}

fn stamp(clock: &Arc<AtomicUsize>, slot: &Arc<AtomicUsize>) -> impl FnMut() + Send + 'static {
    let clock = Arc::clone(clock);
    let slot = Arc::clone(slot);
    move || {
        slot.store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
    }
}

#[test]
fn diamond_ordering() {
    for workers in [1, 2, 4, 8] {
        let ex = Executor::new(workers);
        let tf = Taskflow::with_executor(ex);
        let clk = clock();
        let stamps: Vec<Arc<AtomicUsize>> = (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let a = tf.emplace(stamp(&clk, &stamps[0]));
        let b = tf.emplace(stamp(&clk, &stamps[1]));
        let c = tf.emplace(stamp(&clk, &stamps[2]));
        let d = tf.emplace(stamp(&clk, &stamps[3]));
        a.precede([b, c]);
        d.succeed([b, c]);
        tf.wait_for_all();
        let s: Vec<usize> = stamps.iter().map(|s| s.load(Ordering::SeqCst)).collect();
        assert!(s.iter().all(|&x| x > 0), "not all tasks ran: {s:?}");
        assert!(s[0] < s[1] && s[0] < s[2], "{s:?}");
        assert!(s[3] > s[1] && s[3] > s[2], "{s:?}");
    }
}

#[test]
fn large_random_dag_respects_every_edge() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const N: usize = 5_000;
    let mut rng = StdRng::seed_from_u64(42);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for v in 1..N {
        for _ in 0..rng.gen_range(0..3) {
            edges.push((rng.gen_range(v.saturating_sub(50)..v), v));
        }
    }
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let clk = clock();
    let stamps: Vec<Arc<AtomicUsize>> = (0..N).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let tasks: Vec<_> = (0..N)
        .map(|i| tf.emplace(stamp(&clk, &stamps[i])))
        .collect();
    for &(u, v) in &edges {
        tasks[u].precede(tasks[v]);
    }
    tf.wait_for_all();
    let s: Vec<usize> = stamps.iter().map(|s| s.load(Ordering::SeqCst)).collect();
    assert!(s.iter().all(|&x| x > 0));
    for &(u, v) in &edges {
        assert!(s[u] < s[v], "edge ({u},{v}) violated: {} !< {}", s[u], s[v]);
    }
}

#[test]
fn linear_chain_runs_in_order() {
    // Exercises the cache-slot fast path: a 10k chain on one worker.
    let ex = ExecutorBuilder::new().workers(1).build();
    let tf = Taskflow::with_executor(ex);
    let counter = Arc::new(AtomicUsize::new(0));
    let mut prev: Option<rustflow::Task<'_>> = None;
    for i in 0..10_000 {
        let c = Arc::clone(&counter);
        let t = tf.emplace(move || {
            let seen = c.fetch_add(1, Ordering::SeqCst);
            assert_eq!(seen, i, "chain executed out of order");
        });
        if let Some(p) = prev {
            p.precede(t);
        }
        prev = Some(t);
    }
    tf.wait_for_all();
    assert_eq!(counter.load(Ordering::SeqCst), 10_000);
}

#[test]
fn subflow_join_blocks_successor() {
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let children_done = Arc::new(AtomicUsize::new(0));
    let cd = Arc::clone(&children_done);
    let parent = tf.emplace_subflow(move |sf| {
        for _ in 0..16 {
            let cd = Arc::clone(&cd);
            sf.emplace(move || {
                std::thread::sleep(Duration::from_millis(1));
                cd.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    let cd2 = Arc::clone(&children_done);
    let after = tf.emplace(move || {
        assert_eq!(
            cd2.load(Ordering::SeqCst),
            16,
            "successor ran before the joined subflow finished"
        );
    });
    parent.precede(after);
    tf.wait_for_all();
    assert_eq!(children_done.load(Ordering::SeqCst), 16);
}

#[test]
fn subflow_detach_does_not_block_successor_but_topology_waits() {
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let children_done = Arc::new(AtomicUsize::new(0));
    let cd = Arc::clone(&children_done);
    let parent = tf.emplace_subflow(move |sf| {
        for _ in 0..8 {
            let cd = Arc::clone(&cd);
            sf.emplace(move || {
                std::thread::sleep(Duration::from_millis(2));
                cd.fetch_add(1, Ordering::SeqCst);
            });
        }
        sf.detach();
    });
    let after = tf.emplace(|| {});
    parent.precede(after);
    tf.wait_for_all();
    // wait_for_all covers detached children ("a detached subflow will
    // eventually join the end of the topology").
    assert_eq!(children_done.load(Ordering::SeqCst), 8);
}

#[test]
fn nested_subflows_complete_bottom_up() {
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let total = Arc::new(AtomicUsize::new(0));
    let t0 = Arc::clone(&total);
    tf.emplace_subflow(move |sf| {
        for _ in 0..4 {
            let t1 = Arc::clone(&t0);
            sf.emplace_subflow(move |inner| {
                for _ in 0..4 {
                    let t2 = Arc::clone(&t1);
                    inner.emplace(move || {
                        t2.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    tf.wait_for_all();
    assert_eq!(total.load(Ordering::SeqCst), 16);
}

#[test]
fn deeply_nested_subflows() {
    // Recursion: depth-20 chain of nested subflows.
    fn spawn(sf: &rustflow::Subflow<'_>, depth: usize, counter: Arc<AtomicUsize>) {
        counter.fetch_add(1, Ordering::SeqCst);
        if depth > 0 {
            let c = Arc::clone(&counter);
            sf.emplace_subflow(move |inner| {
                spawn(inner, depth - 1, Arc::clone(&c));
            });
        }
    }
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    tf.emplace_subflow(move |sf| {
        spawn(sf, 20, Arc::clone(&c));
    });
    tf.wait_for_all();
    assert_eq!(counter.load(Ordering::SeqCst), 21);
}

#[test]
fn dispatch_future_and_silent_dispatch() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let flag = Arc::new(AtomicUsize::new(0));
    let f1 = Arc::clone(&flag);
    tf.emplace(move || {
        f1.store(1, Ordering::SeqCst);
    });
    let future = tf.dispatch();
    future.wait();
    assert_eq!(flag.load(Ordering::SeqCst), 1);
    assert!(future.is_ready());
    assert!(future.get().is_ok());

    // After dispatch the present graph is empty; a new graph can be built.
    assert!(tf.is_empty());
    let f2 = Arc::clone(&flag);
    tf.emplace(move || {
        f2.store(2, Ordering::SeqCst);
    });
    tf.silent_dispatch();
    tf.wait_for_all();
    assert_eq!(flag.load(Ordering::SeqCst), 2);
    assert_eq!(tf.num_topologies(), 2);
}

#[test]
fn empty_graph_wait_is_immediate() {
    let tf = Taskflow::new();
    tf.wait_for_all(); // must not hang
    let future = tf.dispatch();
    assert!(future.is_ready());
}

#[test]
fn panic_is_reported_not_hung() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let ran_after = Arc::new(AtomicUsize::new(0));
    let boom = tf.emplace(|| panic!("boom in task")).name("boomer");
    let r = Arc::clone(&ran_after);
    let after = tf.emplace(move || {
        r.store(1, Ordering::SeqCst);
    });
    boom.precede(after);
    let err = tf.try_wait_for_all().expect_err("panic not reported");
    let panic = err.as_panic().expect("panic, not a graph error");
    assert_eq!(panic.task, "boomer");
    assert!(panic.message.contains("boom in task"));
    // The graph keeps running past the panicked task.
    assert_eq!(ran_after.load(Ordering::SeqCst), 1);
}

#[test]
#[should_panic(expected = "boom")]
fn wait_for_all_propagates_panic() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    tf.emplace(|| panic!("boom"));
    tf.wait_for_all();
}

#[test]
fn shared_executor_across_taskflows() {
    // §III-E: "sharing an executor among multiple taskflow objects ...
    // avoiding the problem of thread over-subscription".
    let ex = Executor::new(4);
    let counter = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let ex = Arc::clone(&ex);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let tf = Taskflow::with_executor(ex);
                for _ in 0..500 {
                    let c = Arc::clone(&counter);
                    tf.emplace(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                }
                tf.wait_for_all();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("taskflow thread panicked");
    }
    assert_eq!(counter.load(Ordering::SeqCst), 4_000);
    assert_eq!(ex.num_workers(), 4);
}

#[test]
fn observers_see_every_task() {
    let ex = Executor::new(2);
    let counter = Arc::new(BusyCounter::new());
    ex.observe(Arc::clone(&counter) as Arc<dyn ExecutorObserver>);
    let tracer = Arc::new(Tracer::new(2));
    ex.observe(Arc::clone(&tracer) as Arc<dyn ExecutorObserver>);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for i in 0..50 {
        tf.emplace(|| {}).name(format!("t{i}"));
    }
    tf.wait_for_all();
    assert_eq!(counter.executed(), 50);
    assert_eq!(counter.busy(), 0);
    let spans = rustflow::profile::task_spans(&tracer.sched_events());
    assert_eq!(spans.len(), 50);
    assert!(spans.iter().any(|s| s.label == "t0"));
    ex.remove_observers();
    let tf2 = Taskflow::with_executor(ex);
    tf2.emplace(|| {});
    tf2.wait_for_all();
    assert_eq!(counter.executed(), 50, "observer fired after removal");
}

#[test]
fn worker_stats_accumulate() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(Arc::clone(&ex));
    for _ in 0..200 {
        tf.emplace(|| {});
    }
    tf.wait_for_all();
    // One entry per lane: the two workers, then the guest seats, on one of
    // which the caller of `wait_for_all` executed its share of the 200.
    let stats = ex.worker_stats();
    assert_eq!(stats.len(), ex.num_lanes());
    assert!(stats.iter().map(|s| s.guest).eq([false, false, true, true]));
    let executed: u64 = stats.iter().map(|s| s.executed).sum();
    assert_eq!(executed, 200);
    assert_eq!(ex.stats().total().executed, 200);
}

#[test]
fn gc_reclaims_finished_topologies() {
    let ex = Executor::new(2);
    let mut tf = Taskflow::with_executor(ex);
    for _ in 0..5 {
        tf.emplace(|| {});
        tf.silent_dispatch();
    }
    tf.wait_for_all();
    assert_eq!(tf.num_topologies(), 5);
    assert_eq!(tf.gc(), 5);
    assert_eq!(tf.num_topologies(), 0);
}

#[test]
fn placeholder_work_assigned_late() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let flag = Arc::new(AtomicUsize::new(0));
    let p = tf.placeholder().name("late");
    assert!(p.is_placeholder());
    let before = tf.emplace(|| {});
    before.precede(p);
    let f = Arc::clone(&flag);
    p.work(move || {
        f.store(7, Ordering::SeqCst);
    });
    assert!(!p.is_placeholder());
    tf.wait_for_all();
    assert_eq!(flag.load(Ordering::SeqCst), 7);
}

#[test]
fn empty_placeholder_graphs_complete() {
    let ex = Executor::new(2);
    let tf = Taskflow::with_executor(ex);
    let a = tf.placeholder();
    let b = tf.placeholder();
    let c = tf.placeholder();
    a.precede([b, c]);
    tf.wait_for_all(); // placeholders run as no-ops
}

#[test]
fn million_task_graph() {
    // "The performance scales from a single processor to multiple cores
    // with millions of tasks" — a 1M-task fan ensemble must complete.
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let counter = Arc::new(AtomicUsize::new(0));
    const N: usize = 1_000_000;
    let c0 = Arc::clone(&counter);
    let src = tf.emplace(move || {
        c0.fetch_add(1, Ordering::Relaxed);
    });
    for _ in 0..N {
        let c = Arc::clone(&counter);
        let t = tf.emplace(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        src.precede(t);
    }
    tf.wait_for_all();
    assert_eq!(counter.load(Ordering::Relaxed), N + 1);
}

#[test]
fn many_concurrent_topologies() {
    let ex = Executor::new(4);
    let tf = Taskflow::with_executor(ex);
    let counter = Arc::new(AtomicUsize::new(0));
    let mut futures = Vec::new();
    for _ in 0..50 {
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            tf.emplace(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        futures.push(tf.dispatch());
    }
    for f in futures {
        assert!(f.get().is_ok());
    }
    assert_eq!(counter.load(Ordering::SeqCst), 1_000);
}

// ---------------------------------------------------------------------------
// The caller helps: `wait_for_all` runs the graph it dispatches
// ---------------------------------------------------------------------------

/// Runs `scenario` on a helper thread and fails loudly if it has not
/// returned within 30 s. It ends the process rather than panic: a wedged
/// scenario holds taskflows whose destructors wait for the very runs that
/// wedged.
fn within_30s<T: Send + 'static>(what: &str, scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = done.send(scenario());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => {
            helper.join().unwrap();
            value
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            eprintln!("FAILED: {what} did not finish within 30 s");
            std::process::exit(101)
        }
        // The scenario panicked before reporting: surface that panic.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().unwrap_err())
        }
    }
}

/// Spins until every worker of `ex` is parked, so counter deltas taken
/// afterwards see no start-up parks.
fn wait_until_parked(ex: &Executor) {
    while ex.num_idlers() < ex.num_workers() {
        std::thread::yield_now();
    }
}

/// A chain of `n` tasks in `tf`, each recording the thread it ran on.
fn chain_recording_threads(tf: &Taskflow, n: usize) -> Arc<Mutex<Vec<ThreadId>>> {
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let mut prev: Option<rustflow::Task<'_>> = None;
    for _ in 0..n {
        let ran_on = Arc::clone(&ran_on);
        let task = tf.emplace(move || ran_on.lock().unwrap().push(std::thread::current().id()));
        if let Some(prev) = prev {
            prev.precede(task);
        }
        prev = Some(task);
    }
    ran_on
}

/// A task that calls `wait_for_all` on a second taskflow of the same
/// one-worker executor: the worker runs the nested graph itself instead
/// of parking behind it (which wedged: nobody was left to run it).
#[test]
fn a_task_waits_on_a_second_taskflow_of_a_one_worker_executor() {
    let ex = Executor::new(1);
    let ran = Arc::new(AtomicUsize::new(0));
    let outer = Taskflow::with_executor(Arc::clone(&ex));
    let (nested_ex, nested_ran) = (Arc::clone(&ex), Arc::clone(&ran));
    outer.emplace(move || {
        let nested = Taskflow::with_executor(Arc::clone(&nested_ex));
        for _ in 0..8 {
            let ran = Arc::clone(&nested_ran);
            nested.emplace(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        nested.wait_for_all();
        nested_ran.fetch_add(100, Ordering::SeqCst);
    });
    // `run`, not `wait_for_all`: the outer task must land on the worker.
    let outcome = outer.run().future().get_timeout(Duration::from_secs(30));
    let Some(outcome) = outcome else {
        eprintln!("FAILED: a nested wait_for_all wedged the one-worker executor");
        std::process::exit(101)
    };
    assert_eq!(outcome, Ok(()));
    assert_eq!(ran.load(Ordering::SeqCst), 108);
}

/// A graph one thread can finish is run entirely by the thread that waits
/// on it: no task goes through the injector, nobody is woken, nobody parks.
#[test]
fn a_chain_through_wait_for_all_runs_on_the_caller_and_wakes_nobody() {
    within_30s("a 100-node chain through wait_for_all", || {
        let ex = Executor::new(2);
        wait_until_parked(&ex);
        let before = ex.stats();
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        let ran_on = chain_recording_threads(&tf, 100);
        tf.wait_for_all();
        let me = std::thread::current().id();
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 100);
        assert!(ran_on.iter().all(|&t| t == me), "a body left the caller");
        let delta = ex.stats().delta(&before);
        let total = delta.total();
        assert_eq!(
            (total.wakes_sent, total.parks, total.injector_pops),
            (0, 0, 0),
            "{delta:?}"
        );
        assert_eq!(total.executed, 100);
        // All of it on one guest lane, 99 steps through its cache slot.
        let guests = &delta.workers[ex.num_workers()..];
        assert_eq!(guests.iter().map(|g| g.executed).sum::<u64>(), 100);
        assert_eq!(guests.iter().map(|g| g.cache_hits).sum::<u64>(), 99);
    });
}

/// A wide graph is shared: the caller keeps one source and offers the rest
/// on its seat's deque, where the workers it wakes steal them.
#[test]
fn a_wide_graph_through_wait_for_all_is_run_by_guest_and_workers() {
    within_30s("a 1000-source graph through wait_for_all", || {
        let ex = Executor::new(2);
        let before = ex.stats();
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        for _ in 0..1_000 {
            tf.emplace(|| {
                let start = std::time::Instant::now();
                while start.elapsed() < Duration::from_micros(50) {
                    std::hint::spin_loop();
                }
            });
        }
        tf.wait_for_all();
        let delta = ex.stats().delta(&before);
        let (workers, guests) = delta.workers.split_at(ex.num_workers());
        assert!(workers.iter().all(|w| w.executed > 0), "{delta:?}");
        assert!(guests.iter().any(|g| g.executed > 0), "{delta:?}");
        assert_eq!(delta.total().executed, 1_000);
    });
}

/// A panic inside a helped run is the run's error, not the caller's, and
/// the seat comes back: after more panicking runs than there are seats the
/// caller still helps.
#[test]
fn a_panicking_task_in_a_helped_run_resolves_the_error_and_frees_the_seat() {
    within_30s("helped runs with panicking tasks", || {
        let ex = Executor::new(1);
        for _ in 0..4 {
            let tf = Taskflow::with_executor(Arc::clone(&ex));
            tf.emplace(|| panic!("boom")).name("bomb");
            match tf.try_wait_for_all() {
                Err(rustflow::RunError::Panic(p)) => assert_eq!(p.task, "bomb"),
                other => panic!("expected the task's panic, got {other:?}"),
            }
        }
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        let ran_on = chain_recording_threads(&tf, 5);
        tf.wait_for_all();
        let me = std::thread::current().id();
        assert_eq!(*ran_on.lock().unwrap(), vec![me; 5], "no seat was free");
    });
}

/// Both seats held by one thread through nested waits (a helped task that
/// itself waits, on a task that blocks): a third `wait_for_all` finds no
/// seat, takes the blocking path and is run by the worker.
#[test]
fn wait_for_all_without_a_free_seat_blocks_and_completes() {
    within_30s("wait_for_all with every seat taken", || {
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicBool::new(false));
        let holder = {
            let (ex, gate, entered) = (Arc::clone(&ex), Arc::clone(&gate), Arc::clone(&entered));
            std::thread::spawn(move || {
                let me = std::thread::current().id();
                let outer = Taskflow::with_executor(Arc::clone(&ex));
                outer.emplace(move || {
                    assert_eq!(
                        std::thread::current().id(),
                        me,
                        "outer task left its waiter"
                    );
                    let nested = Taskflow::with_executor(Arc::clone(&ex));
                    let (gate, entered) = (Arc::clone(&gate), Arc::clone(&entered));
                    nested.emplace(move || {
                        assert_eq!(
                            std::thread::current().id(),
                            me,
                            "nested task left its waiter"
                        );
                        entered.store(true, Ordering::SeqCst);
                        while !gate.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    });
                    nested.wait_for_all();
                });
                outer.wait_for_all();
            })
        };
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let tf = Taskflow::with_executor(Arc::clone(&ex));
        let ran_on = chain_recording_threads(&tf, 5);
        tf.wait_for_all();
        let me = std::thread::current().id();
        let ran_on = ran_on.lock().unwrap().clone();
        assert_eq!(ran_on.len(), 5);
        assert!(ran_on.iter().all(|&t| t != me), "helped without a seat");
        gate.store(true, Ordering::SeqCst);
        holder.join().unwrap();
    });
}

/// `close()` racing helped dispatches: every `wait_for_all` returns, with
/// `Ok` or with `Rejected(ShuttingDown)`, and after the close only the
/// latter.
#[test]
fn close_racing_a_helped_dispatch_rejects_and_returns() {
    within_30s("close() racing helped dispatches", || {
        let ex = Executor::new(2);
        let closed = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (ex, closed) = (Arc::clone(&ex), Arc::clone(&closed));
            std::thread::spawn(move || {
                let me = std::thread::current().id();
                let (mut helped, mut rejected) = (0, 0);
                while rejected < 10 {
                    let was_closed = closed.load(Ordering::SeqCst);
                    let tf = Taskflow::with_executor(Arc::clone(&ex));
                    let ran_on = chain_recording_threads(&tf, 3);
                    match tf.try_wait_for_all() {
                        Ok(()) => {
                            assert!(!was_closed, "a run was admitted after close()");
                            let ran_on = ran_on.lock().unwrap();
                            assert_eq!(ran_on.len(), 3);
                            helped += usize::from(ran_on.iter().all(|&t| t == me));
                        }
                        Err(rustflow::RunError::Rejected(
                            rustflow::AdmissionError::ShuttingDown,
                        )) => {
                            assert!(ran_on.lock().unwrap().is_empty());
                            rejected += 1;
                        }
                        Err(other) => panic!("unexpected outcome {other:?}"),
                    }
                }
                helped
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        ex.close();
        closed.store(true, Ordering::SeqCst);
        assert!(
            waiter.join().unwrap() > 0,
            "no run was helped before close()"
        );
    });
}
