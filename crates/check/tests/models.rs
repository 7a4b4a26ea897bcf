//! Model-checked protocol tests for rustflow's lock-free core.
//!
//! Each test explores the schedule space of a small instance of one
//! protocol (the Chase–Lev deque, the Vyukov ring, the notifier's
//! Dekker handshake, the front door's backlog/in-flight pair, a reusable
//! topology's re-arm handoff) under the rustflow-check engine and asserts
//! a protocol invariant in every interleaving.
//!
//! Every model doubles as a *mutation test*: building the workspace with
//! `RUSTFLAGS='--cfg rustflow_weaken="<point>"'` downgrades exactly one
//! memory ordering in the core (see the `const` items next to each
//! protocol), and the matching test here is `should_panic` under that cfg
//! — the checker must find a concrete failing interleaving and print it as
//! a replayable schedule. A model that cannot detect its own weakening
//! would be vacuous.

use rustflow::check_internals::{FrontDoorBudget, Injector, Notifier, RearmHarness, Ring};
use rustflow::wsq::{deque_with_capacity, Steal, Stealer};
use rustflow_check::atomic::{fence, AtomicBool, AtomicUsize};
use rustflow_check::sync::Mutex;
use rustflow_check::{thread, Checker};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The last element of a Chase–Lev deque is raced between the owner's
/// `pop` and a thief's `steal`: the SeqCst fences on both sides form a
/// Dekker pairing, and the `t == b` case is arbitrated by a CAS on `top`.
///
/// Weakened by `rustflow_weaken = "wsq_pop_fence"` (pop's fence drops to
/// AcqRel — every happens-before edge survives, only the SC total order
/// is lost): after a thief drains both items, the owner can still read a
/// stale `top`, conclude two items remain, and take the bottom slot
/// *without* the CAS — the invariant "every item taken exactly once"
/// breaks with a duplicate.
#[test]
#[cfg_attr(
    rustflow_weaken = "wsq_pop_fence",
    should_panic(expected = "failing interleaving")
)]
fn wsq_owner_pop_vs_steal_last_element() {
    Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(60_000)
        .check("wsq_owner_pop_vs_steal_last_element", || {
            let (owner, stealer) = deque_with_capacity(2);
            owner.push(1);
            owner.push(2);
            let thief = thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match stealer.steal() {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => {}
                        Steal::Empty => break,
                    }
                }
                got
            });
            let mut taken = Vec::new();
            taken.extend(owner.pop());
            taken.extend(thief.join().unwrap());
            while let Some(v) = owner.pop() {
                taken.push(v);
            }
            taken.sort_unstable();
            assert_eq!(taken, vec![1, 2], "each item taken exactly once");
        });
}

/// Growing the deque copies the live region into a fresh ring and
/// publishes the new buffer pointer with a Release store, which a
/// concurrent thief acquires before reading slots from it.
///
/// Weakened by `rustflow_weaken = "wsq_grow_swap"` (the publish drops to
/// Relaxed): a thief can observe the new buffer pointer before the copied
/// slot values, steal an uninitialized `0`, and advance `top` past the
/// real item — conjuring a value that was never pushed and losing one
/// that was.
#[test]
#[cfg_attr(
    rustflow_weaken = "wsq_grow_swap",
    should_panic(expected = "failing interleaving")
)]
fn wsq_steal_during_grow() {
    Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(60_000)
        .check("wsq_steal_during_grow", || {
            let (owner, stealer) = deque_with_capacity(2);
            owner.push(1);
            owner.push(2);
            let thief = thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match stealer.steal() {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => {}
                        Steal::Empty => break,
                    }
                }
                got
            });
            // Third push exceeds capacity 2: grow() copies [top, bottom)
            // into a ring of 4 and swaps the buffer pointer while the
            // thief may be mid-steal.
            owner.push(3);
            let mut taken = thief.join().unwrap();
            while let Some(v) = owner.pop() {
                taken.push(v);
            }
            taken.sort_unstable();
            assert_eq!(taken, vec![1, 2, 3], "grow must not lose or invent items");
        });
}

/// The Vyukov ring (`ring::Ring`, under every tracer lane and the
/// injector) hands a slot's payload from producer to consumer via the
/// slot's sequence number: the producer's Release store of
/// `seq = pos + 1` is what makes the plain payload write visible.
///
/// Weakened by `rustflow_weaken = "ring_publish"` (the publish drops to
/// Relaxed): the consumer can observe the new sequence number without the
/// payload write ordered before its read — a data race on the slot's
/// `CheckedCell`, which the engine reports directly.
#[test]
#[cfg_attr(
    rustflow_weaken = "ring_publish",
    should_panic(expected = "failing interleaving")
)]
fn ring_wraparound_under_contention() {
    Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(60_000)
        .check("ring_wraparound_under_contention", || {
            let ring = Arc::new(Ring::new(2));
            let r = Arc::clone(&ring);
            let producer = thread::spawn(move || {
                // Three pushes through a 2-slot ring: the third reuses a
                // slot (wrap-around) iff the consumer freed it in time.
                (1..=3u64).filter(|&v| r.push(v).is_err()).count()
            });
            let mut seen = Vec::new();
            for _ in 0..3 {
                seen.extend(ring.pop());
            }
            let refused = producer.join().unwrap();
            while let Some(v) = ring.pop() {
                seen.push(v);
            }
            // Single producer: FIFO order, no duplication, and full
            // accounting (every item delivered or handed back).
            assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "FIFO violated: {seen:?}"
            );
            assert_eq!(seen.len() + refused, 3, "item lost: {seen:?}");
        });
}

/// The notifier's sleep/wake handshake is a two-party Dekker protocol:
/// the idler increments `num_idlers` (SeqCst) *then* re-scans for work;
/// the submitter publishes work, issues a SeqCst fence, *then* reads
/// `num_idlers`. The SC total order guarantees one side sees the other.
///
/// Weakened by `rustflow_weaken = "notifier_dekker"` (both sides drop to
/// Relaxed): the idler can miss the work *and* the submitter can miss the
/// idler — a lost wakeup. The parked worker never wakes, which the engine
/// reports as a deadlock.
#[test]
#[cfg_attr(
    rustflow_weaken = "notifier_dekker",
    should_panic(expected = "failing interleaving")
)]
fn notifier_no_lost_wakeup() {
    Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(60_000)
        .check("notifier_no_lost_wakeup", || {
            let notifier = Arc::new(Notifier::new(1));
            let work = Arc::new(AtomicBool::new(false));
            let stop = Arc::new(AtomicBool::new(false));
            let (n, w, s) = (Arc::clone(&notifier), Arc::clone(&work), Arc::clone(&stop));
            let idler = thread::spawn(move || {
                // Mirrors the worker loop: park unless the re-scan (run
                // after the idler is counted) already sees the work.
                n.wait(0, || !w.load(Ordering::Relaxed), &s)
            });
            // Mirrors run_topology/schedule: publish work, then the
            // Dekker fence, then wake. In every interleaving either the
            // wake lands or the idler refused to sleep — the test fails
            // only if the idler parks forever (deadlock).
            work.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            notifier.wake_one();
            let _ = idler.join().unwrap();
        });
}

/// The MPMC injector hands a task index from a submitting client to a
/// consuming worker through a slot of its ring: the producer wins the
/// slot with a CAS on `head`, writes the payload, and publishes it by
/// storing `seq = pos + 1` with Release (`SEQ_PUBLISH` in
/// `crates/core/src/ring.rs`), which the consumer's Acquire `seq` load
/// pairs with before its payload read.
///
/// Weakened by `rustflow_weaken = "ring_publish"` (the publish drops to
/// Relaxed): the consumer can observe the occupied sequence number
/// without the payload write ordered before its read — with two clients
/// racing for slots, a worker can pop a stale index (a task that was
/// never submitted) while the real one is lost. The engine reports the
/// slot data race directly.
#[test]
#[cfg_attr(
    rustflow_weaken = "ring_publish",
    should_panic(expected = "failing interleaving")
)]
fn injector_two_producers_one_consumer() {
    // The sound run peaks at 29 steps/exec; the tight step budget only
    // bites under the weakening, where stale slot-sequence reads let a
    // losing producer spin unboundedly and would otherwise drown the
    // DFS in abandoned retry chains before it reaches the racy read.
    let stats = Checker::new()
        .preemption_bound(Some(2))
        .max_steps(120)
        .max_schedules(60_000)
        .check("injector_two_producers_one_consumer", || {
            let inj = Arc::new(Injector::new(2));
            let producers: Vec<_> = [1usize, 2]
                .into_iter()
                .map(|v| {
                    let inj = Arc::clone(&inj);
                    thread::spawn(move || inj.push(v))
                })
                .collect();
            // The consumer races the producers: pop what is visible now,
            // then join and drain the rest — conservation must hold in
            // every interleaving of the two slot claims and publishes.
            let mut got = Vec::new();
            got.extend(inj.pop());
            for p in producers {
                p.join().unwrap();
            }
            while let Some(v) = inj.pop() {
                got.push(v);
            }
            got.sort_unstable();
            assert_eq!(got, vec![1, 2], "each submission consumed exactly once");
            assert!(inj.is_empty());
        });
    assert!(stats.dfs_complete, "schedule space must be fully explored");
}

/// Slot recycling plus the overflow spill: three pushes through a 2-slot
/// ring force a wrap-around (the consumer's Release recycle store must
/// be visible to the producer's Acquire free-check) and — when the
/// consumer lags — a spill into the mutexed side queue, whose SeqCst
/// counter keeps `is_empty` honest for the park-path Dekker handshake.
///
/// Weakened by `rustflow_weaken = "ring_publish"`: same Relaxed publish
/// as above; the single-consumer wrap-around alone is enough for the
/// engine to observe the unsynchronized payload read and report the
/// race.
#[test]
#[cfg_attr(
    rustflow_weaken = "ring_publish",
    should_panic(expected = "failing interleaving")
)]
fn injector_wraparound_and_spill() {
    let stats = Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(60_000)
        .check("injector_wraparound_and_spill", || {
            let inj = Arc::new(Injector::new(2));
            let i = Arc::clone(&inj);
            let producer = thread::spawn(move || i.push_batch([1, 2, 3]));
            let mut got = Vec::new();
            for _ in 0..3 {
                got.extend(inj.pop());
            }
            producer.join().unwrap();
            while let Some(v) = inj.pop() {
                got.push(v);
            }
            got.sort_unstable();
            // Push never fails: whatever overflowed the ring spilled into
            // the side queue, so all three indices come back exactly once.
            assert_eq!(got, vec![1, 2, 3], "spill must not lose or invent tasks");
        });
    assert!(stats.dfs_complete, "schedule space must be fully explored");
}

/// The self re-arm → finalize → re-dispatch handoff of a reusable
/// topology: every node, as it completes, reloads its own join counter
/// from its in-degree strictly *before* its first release (the production
/// `rearm_and_release`), and the sink whose count-down ends iteration *k*
/// takes the driver role, steps the production `Topology::advance` state
/// machine and publishes iteration *k+1*'s sources without touching any
/// node. The harness ([`RearmHarness`]) swaps the work-stealing queues
/// for one blocking queue so any token lost by a mis-ordered reload
/// surfaces as a deadlock the engine reports, and every closure cell is
/// race-checked from one iteration to the next.
///
/// Weakened by `rustflow_weaken = "rearm_publish"` (the reload moved
/// *after* the releases): the sink `C` ends iteration 1 and the driver
/// publishes iteration 2 before `C` reloads; a source of iteration 2
/// counts `C` down first, the late reload undoes it, `C` is never
/// readied and a worker blocks forever. Weakened by
/// `rustflow_weaken = "join_release"` (Relaxed join-counter decrements):
/// when `B` counts `C` down last, nothing carries `A`'s execution to the
/// thread that ends the iteration, so the next run of `A`'s closure races
/// with the last one. Weakened by `rustflow_weaken = "join_last_acquire"`
/// (the last arrival's load Relaxed): `B` reads 1 and readies `C` without
/// Acquiring `A`'s decrement, the same race by the other half of the
/// count-down.
#[test]
#[cfg_attr(
    any(
        rustflow_weaken = "rearm_publish",
        rustflow_weaken = "join_release",
        rustflow_weaken = "join_last_acquire"
    ),
    should_panic(expected = "failing interleaving")
)]
fn rearm_handoff_fan_in() {
    let stats = Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(60_000)
        .check("rearm_handoff_fan_in", || {
            // Two iterations of A → C ← B: 3 tokens per iteration, split
            // 3/3 across two workers so both live through the handoff.
            let harness = RearmHarness::fan_in(2);
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let h = Arc::clone(&harness);
                    thread::spawn(move || {
                        for _ in 0..3 {
                            let token = h.pop();
                            h.execute(token);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(
                harness.executions(),
                vec![2, 2, 2],
                "every node runs exactly once per iteration"
            );
            match harness.result() {
                Some(Ok(())) => {}
                other => panic!("batch must resolve Ok after both iterations: {other:?}"),
            }
        });
    assert!(stats.dfs_complete, "schedule space must be fully explored");
}

/// The cooperative-cancellation handshake: `Topology::cancel` records the
/// `Cancelled` error **before** publishing the cancel flag (Release), and
/// a worker that observes the flag (Acquire) skips its node but still runs
/// the completion bookkeeping. The happens-before chain — record ≺ flag
/// publish ≺ skip ≺ final sink count-down ≺ the driver's error take —
/// guarantees that any run in which at least one node was skipped resolves
/// `Err(Cancelled)`, never `Ok(())`.
///
/// Weakened by `rustflow_weaken = "cancel_publish"` (flag published
/// *before* the error is recorded): a worker can observe the flag, skip
/// the fan-in successor, and complete the iteration while the error is
/// still unrecorded — the driver finds no error and resolves the batch
/// `Ok(())` even though a node never ran. The invariant below fails and
/// the checker prints the interleaving. Weakened by `rustflow_weaken =
/// "join_release"` or `"join_last_acquire"` (a Relaxed link in the
/// count-down chain): the skip's count-down no longer carries the
/// recorded error to the driver, whose lock-free read of the error flag
/// finds it clear — the same lost verdict from the chain's end.
#[test]
#[cfg_attr(
    any(
        rustflow_weaken = "cancel_publish",
        rustflow_weaken = "join_release",
        rustflow_weaken = "join_last_acquire"
    ),
    should_panic(expected = "failing interleaving")
)]
fn cancel_handshake_fan_in() {
    let stats = Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(60_000)
        .check("cancel_handshake_fan_in", || {
            // One iteration of A → C ← B (3 tokens: the skip path still
            // counts down join counters and sinks, so C is published
            // and all 3 pops return in every interleaving) with a
            // concurrent canceller.
            let harness = RearmHarness::fan_in(1);
            let h = Arc::clone(&harness);
            let canceller = thread::spawn(move || h.cancel());
            let workers: Vec<_> = [2usize, 1]
                .into_iter()
                .map(|pops| {
                    let h = Arc::clone(&harness);
                    thread::spawn(move || {
                        for _ in 0..pops {
                            let token = h.pop();
                            h.execute(token);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            let requested = canceller.join().unwrap();
            let executed: usize = harness.executions().iter().sum();
            let skips = harness.skips();
            assert_eq!(executed + skips, 3, "every token executed or skipped");
            let result = harness.result().expect("batch must resolve");
            if skips > 0 {
                assert!(requested, "a skip implies the cancel found a live run");
                match result {
                    Err(e) if e.is_cancelled() => {}
                    other => panic!("skipped run must resolve Cancelled, got {other:?}"),
                }
            }
        });
    assert!(stats.dfs_complete, "schedule space must be fully explored");
}

/// The front door's Dekker pair ([`FrontDoorBudget`], the production
/// words): two submitters arrive at a budget of two, one slot held by the
/// stint about to finalize. Each submits as `run_topology_on` does: under
/// the queue lock it dispatches straight through when the queue is empty,
/// nothing is queued anywhere and a CAS finds a slot; otherwise it queues
/// its run, bumps `backlog` (SeqCst), and pumps, whose charge reads
/// `inflight` in the same total order. The finalizer drops `inflight`
/// (SeqCst), *then* loads `backlog`, and pumps only if it reads non-zero
/// — which is what keeps a finalizing worker off the `qos` and tenant
/// queue locks when nothing is queued. The SC total order guarantees one
/// side sees the other; the queue lock arbitrates when both do. Queue,
/// `qos` lock and pump mirror `run_topology_on` / `next_dispatch` / the
/// finalize path of `advance_topology`. Two runs meet two slots, so in
/// every schedule each run is dispatched exactly once and none is left
/// queued while a slot is free.
///
/// Weakened by `rustflow_weaken = "frontdoor_backlog"` (the pair drops to
/// Relaxed): a submitter can read the budget still full *and* the
/// finalizer can read the backlog still empty — the run stays queued with
/// a free slot and nobody left to pump: stranded.
#[test]
#[cfg_attr(
    rustflow_weaken = "frontdoor_backlog",
    should_panic(expected = "failing interleaving")
)]
fn frontdoor_backlog_no_stranded_run() {
    /// `pump_tenants` for one tenant: under `qos`, if the budget has
    /// room and the queue a run, charge a slot under the queue lock and
    /// pop the run.
    fn pump(
        budget: &FrontDoorBudget,
        qos: &Mutex<()>,
        queue: &Mutex<usize>,
        dispatched: &AtomicUsize,
    ) {
        let _qos = qos.lock();
        if !budget.has_room() {
            return;
        }
        let mut queued = queue.lock();
        if *queued == 0 || !budget.try_charge() {
            return;
        }
        *queued -= 1;
        budget.unqueued(1);
        dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// `run_topology_on` after admission: straight through, or queue and
    /// pump.
    fn submit(
        budget: &FrontDoorBudget,
        qos: &Mutex<()>,
        queue: &Mutex<usize>,
        dispatched: &AtomicUsize,
    ) {
        {
            let mut queued = queue.lock();
            if *queued == 0 && budget.try_straight_through() {
                dispatched.fetch_add(1, Ordering::Relaxed);
                return;
            }
            *queued += 1;
            budget.queued();
        }
        pump(budget, qos, queue, dispatched);
    }

    let stats =
        Checker::new()
            .max_schedules(60_000)
            .check("frontdoor_backlog_no_stranded_run", || {
                // A budget of two, one slot held by the stint about to
                // finalize.
                let budget = Arc::new(FrontDoorBudget::new(2));
                assert!(budget.try_charge());
                let qos = Arc::new(Mutex::new(()));
                let queue = Arc::new(Mutex::new(0usize));
                let dispatched = Arc::new(AtomicUsize::new(0));
                let finalizer = {
                    let (b, q, t, d) = (
                        Arc::clone(&budget),
                        Arc::clone(&qos),
                        Arc::clone(&queue),
                        Arc::clone(&dispatched),
                    );
                    thread::spawn(move || {
                        if b.release() {
                            pump(&b, &q, &t, &d);
                        }
                    })
                };
                let straight = {
                    let (b, q, t, d) = (
                        Arc::clone(&budget),
                        Arc::clone(&qos),
                        Arc::clone(&queue),
                        Arc::clone(&dispatched),
                    );
                    thread::spawn(move || submit(&b, &q, &t, &d))
                };
                submit(&budget, &qos, &queue, &dispatched);
                finalizer.join().unwrap();
                straight.join().unwrap();
                assert_eq!(
                    (
                        dispatched.load(Ordering::Relaxed),
                        *queue.lock(),
                        budget.has_room()
                    ),
                    (2, 0, false),
                    "each run is dispatched exactly once, none stranded beside a free slot"
                );
            });
    assert!(stats.dfs_complete, "schedule space must be fully explored");
}

/// One steal from `victim`, retried while it races (the inner loop of
/// `scheduler::try_steal`, for a single victim).
fn steal(victim: &Stealer) -> usize {
    loop {
        match victim.steal() {
            Steal::Success(task) => return task,
            Steal::Retry => {}
            Steal::Empty => return 0,
        }
    }
}

/// The guest seat (`Inner::seats`, `scheduler::guest_loop`): a thread
/// that waits on a run it dispatches takes a free seat, schedules the
/// run's sources on it (first into the cache slot, the rest onto the
/// seat's deque under the `num_spinning`/`wake_one` rule) and runs
/// Algorithm 1's inner loop there until the run resolves or a steal round
/// finds every queue empty; then it hands the seat back and blocks on the
/// promise. One guest with a two-source run, one worker, and a second
/// waiter that helps only if it finds the seat free, over the production
/// deque, notifier and promise; the loops mirror `scheduler.rs`, the
/// worker's exploration cut to two steal rounds with a yield between
/// them. Checked in every interleaving:
///
/// * no task is lost when the guest leaves (it leaves only with cache and
///   deque empty, asserted: what it pushed it popped again or the worker
///   stole) and none runs twice: every task executes exactly once;
/// * two successive guests of the seat are ordered: the seat's cache slot
///   is a race-checked plain cell, handed over by nothing but the seat
///   mutex;
/// * a guest that blocks never misses the resolve, and the worker never
///   parks on a task the guest pushed and left: either would leave a
///   thread blocked forever, which the engine reports as a deadlock.
#[test]
fn guest_seat_no_lost_task() {
    use rustflow::wsq::Owner;
    use rustflow::{Promise, SharedFuture};
    use rustflow_check::cell::CheckedCell;

    /// A seat's private half: what a guest owns while it holds the seat.
    struct Seat {
        owner: Owner,
        cache: CheckedCell<usize>,
    }

    /// One dispatched run: its live-task count and its promise.
    struct Run {
        alive: AtomicUsize,
        promise: Mutex<Option<Promise<()>>>,
        future: SharedFuture<()>,
    }

    impl Run {
        fn new(tasks: usize) -> Run {
            let (promise, future) = rustflow::check_internals::promise_pair();
            Run {
                alive: AtomicUsize::new(tasks),
                promise: Mutex::new(Some(promise)),
                future,
            }
        }
    }

    struct Sched {
        seats: Mutex<Vec<Seat>>,
        seat_stealer: Stealer,
        /// The worker's deque stays empty (nothing it runs has a
        /// successor); the guest's steal round still scans it.
        worker_stealer: Stealer,
        num_spinning: AtomicUsize,
        notifier: Notifier,
        stop: AtomicBool,
        /// Tasks 1 and 2 are the first waiter's run, task 3 the second's.
        runs: [Run; 2],
        executed: [AtomicUsize; 3],
    }

    impl Sched {
        /// `execute` + `complete` + `finalize`: count the task, and
        /// resolve its run with the last one.
        fn execute(&self, task: usize) {
            self.executed[task - 1].fetch_add(1, Ordering::Relaxed);
            let run = &self.runs[task / 3];
            if run.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
                run.promise.lock().take().expect("resolved once").set(());
            }
        }

        fn all_queues_empty(&self) -> bool {
            self.seat_stealer.is_empty() && self.worker_stealer.is_empty()
        }

        /// `steal_round`: one victim, counted as spinning while it lasts.
        fn steal_round(&self, victim: &Stealer) -> usize {
            self.num_spinning.fetch_add(1, Ordering::SeqCst);
            let stolen = steal(victim);
            self.num_spinning.fetch_sub(1, Ordering::SeqCst);
            stolen
        }

        /// `explore`, cut to two rounds: one spinning bracket, a yield
        /// between the rounds, and the ramp-up wake for a thief that
        /// leaves it holding a task as the last spinner.
        fn explore(&self, victim: &Stealer) -> usize {
            self.num_spinning.fetch_add(1, Ordering::SeqCst);
            let mut stolen = steal(victim);
            if stolen == 0 && !self.stop.load(Ordering::Acquire) {
                thread::yield_now();
                stolen = steal(victim);
            }
            let last = self.num_spinning.fetch_sub(1, Ordering::SeqCst) == 1;
            if stolen != 0 && last {
                self.notifier.wake_one();
            }
            stolen
        }

        /// `schedule` on a seat.
        fn schedule(&self, seat: &Seat, task: usize) {
            // SAFETY: the seat is held by this thread only; the model
            // checks that claim against the previous holder's accesses.
            let cached = unsafe { seat.cache.with(|c| *c) };
            if cached == 0 {
                // SAFETY: as above.
                unsafe { seat.cache.with_mut(|c| *c = task) };
                return;
            }
            seat.owner.push(task);
            fence(Ordering::SeqCst);
            if self.num_spinning.load(Ordering::SeqCst) == 0 {
                self.notifier.wake_one();
            }
        }

        /// `guest_loop`.
        fn guest_loop(&self, seat: &Seat, run: &Run) {
            loop {
                // SAFETY: see `schedule`.
                let mut task = unsafe { seat.cache.with_mut(|c| std::mem::take(&mut *c)) };
                if task == 0 {
                    task = seat.owner.pop().unwrap_or(0);
                }
                if task == 0 {
                    if run.future.is_ready() {
                        return;
                    }
                    task = self.steal_round(&self.worker_stealer);
                }
                if task == 0 {
                    fence(Ordering::SeqCst);
                    if self.all_queues_empty() {
                        return;
                    }
                    continue;
                }
                self.execute(task);
            }
        }

        /// The helped half of `run_topology(.., caller_waits = true)`,
        /// then the wait.
        fn help_and_wait(&self, seat: Seat, tasks: &[usize]) {
            let run = &self.runs[tasks[0] / 3];
            for &task in tasks {
                self.schedule(&seat, task);
            }
            self.guest_loop(&seat, run);
            // SAFETY: see `schedule`.
            let cached = unsafe { seat.cache.with(|c| *c) };
            assert!(
                cached == 0 && seat.owner.is_empty(),
                "a guest left a task behind on its seat"
            );
            self.seats.lock().push(seat);
            run.future.get();
        }

        /// `worker_loop`, without its own pops (its deque stays empty)
        /// and the cache slot.
        fn worker_loop(&self) {
            while !self.stop.load(Ordering::Acquire) {
                let task = self.explore(&self.seat_stealer);
                if task == 0 {
                    self.notifier
                        .wait(0, || self.all_queues_empty(), &self.stop);
                    continue;
                }
                self.execute(task);
            }
        }
    }

    let stats = Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(400_000)
        .check("guest_seat_no_lost_task", || {
            let (seat_owner, seat_stealer) = deque_with_capacity(2);
            let (_worker_owner, worker_stealer) = deque_with_capacity(2);
            let sched = Arc::new(Sched {
                seats: Mutex::new(Vec::new()),
                seat_stealer,
                worker_stealer,
                num_spinning: AtomicUsize::new(0),
                notifier: Notifier::new(1),
                stop: AtomicBool::new(false),
                runs: [Run::new(2), Run::new(1)],
                executed: [
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                ],
            });
            // The first guest holds the seat from the start, so the second
            // waiter can only ever find it handed back: nothing but the
            // seat mutex orders the two guests.
            let seat = Seat {
                owner: seat_owner,
                cache: CheckedCell::new(0),
            };
            let s = Arc::clone(&sched);
            let worker = thread::spawn(move || s.worker_loop());
            let s = Arc::clone(&sched);
            let second = thread::spawn(move || {
                let seat = s.seats.lock().pop();
                match seat {
                    Some(seat) => {
                        s.help_and_wait(seat, &[3]);
                        true
                    }
                    // No free seat: today's blocking path, not modelled.
                    None => false,
                }
            });
            sched.help_and_wait(seat, &[1, 2]);
            let second_helped = second.join().unwrap();
            sched.stop.store(true, Ordering::SeqCst);
            sched.notifier.wake_all();
            worker.join().unwrap();
            let executed: Vec<usize> = sched
                .executed
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect();
            assert_eq!(
                executed,
                vec![1, 1, usize::from(second_helped)],
                "every dispatched task runs exactly once"
            );
        });
    assert!(stats.dfs_complete, "schedule space must be fully explored");
}

/// The ramp-up wake (`scheduler::explore`): a push made while a thief
/// spins skips its wake, so a thief that leaves its exploration holding a
/// task as the last spinner wakes one parked peer. Without that wake the
/// pushes of a burst can all land while one thief spins, and a parked
/// worker then sleeps through work that needs it. Here that need is made
/// absolute: a guest schedules a three-source run whose tasks meet at a
/// three-way barrier, so each can finish only while the other two run.
/// The guest keeps the first task in its cache slot and pushes the other
/// two onto its seat's deque under the `num_spinning`/`wake_one` rule,
/// then runs its own; two workers explore (two rounds, a yield between)
/// and park, over the production deque and notifier. Each worker leaves
/// after the one task it runs, since every task needs a thread of its
/// own. In every interleaving each task runs exactly once; a worker left
/// parked while a task waits on its deque blocks all three threads, which
/// the engine reports as a deadlock.
///
/// Weakened by `rustflow_weaken = "notifier_dekker"`: a wake can read a
/// stale zero idler count and reach nobody, which strands a parked
/// worker the same way.
#[test]
#[cfg_attr(
    rustflow_weaken = "notifier_dekker",
    should_panic(expected = "failing interleaving")
)]
fn explore_ramp_wake_reaches_a_parked_peer() {
    use rustflow::wsq::Owner;
    use rustflow_check::sync::Condvar;

    struct Sched {
        seat_stealer: Stealer,
        num_spinning: AtomicUsize,
        notifier: Notifier,
        /// Never set: every worker leaves after its task.
        stop: AtomicBool,
        /// Tasks that reached the barrier.
        arrived: Mutex<usize>,
        all_arrived: Condvar,
        executed: [AtomicUsize; 3],
    }

    impl Sched {
        /// A task: count it, then wait until all three run at once.
        fn execute(&self, task: usize) {
            self.executed[task - 1].fetch_add(1, Ordering::Relaxed);
            let mut arrived = self.arrived.lock();
            *arrived += 1;
            if *arrived == 3 {
                self.all_arrived.notify_all();
            }
            while *arrived < 3 {
                self.all_arrived.wait(&mut arrived);
            }
        }

        /// `schedule` on the seat, past its first (cached) source.
        fn push(&self, owner: &Owner, task: usize) {
            owner.push(task);
            fence(Ordering::SeqCst);
            if self.num_spinning.load(Ordering::SeqCst) == 0 {
                self.notifier.wake_one();
            }
        }

        /// `explore`, cut to two rounds.
        fn explore(&self) -> usize {
            self.num_spinning.fetch_add(1, Ordering::SeqCst);
            let mut stolen = steal(&self.seat_stealer);
            if stolen == 0 {
                thread::yield_now();
                stolen = steal(&self.seat_stealer);
            }
            let last = self.num_spinning.fetch_sub(1, Ordering::SeqCst) == 1;
            if stolen != 0 && last {
                self.notifier.wake_one();
            }
            stolen
        }

        /// `worker_loop` until its one task: nothing a worker runs has a
        /// successor, so its own deque and cache slot stay empty.
        fn worker_loop(&self, id: usize) {
            loop {
                let task = self.explore();
                if task != 0 {
                    return self.execute(task);
                }
                self.notifier
                    .wait(id, || self.seat_stealer.is_empty(), &self.stop);
            }
        }
    }

    let stats = Checker::new()
        .preemption_bound(Some(2))
        .max_schedules(400_000)
        .check("explore_ramp_wake_reaches_a_parked_peer", || {
            let (owner, seat_stealer) = deque_with_capacity(2);
            let sched = Arc::new(Sched {
                seat_stealer,
                num_spinning: AtomicUsize::new(0),
                notifier: Notifier::new(2),
                stop: AtomicBool::new(false),
                arrived: Mutex::new(0),
                all_arrived: Condvar::new(),
                executed: [
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                ],
            });
            let s = Arc::clone(&sched);
            let worker = thread::spawn(move || s.worker_loop(0));
            let s = Arc::clone(&sched);
            let guest = thread::spawn(move || {
                // Task 1 goes to the guest's cache slot, 2 and 3 onto its
                // deque; then the guest runs task 1.
                s.push(&owner, 2);
                s.push(&owner, 3);
                s.execute(1);
            });
            // The checking thread is the second worker.
            sched.worker_loop(1);
            guest.join().unwrap();
            worker.join().unwrap();
            let executed: Vec<usize> = sched
                .executed
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect();
            assert_eq!(executed, vec![1, 1, 1], "every task runs exactly once");
        });
    assert!(stats.dfs_complete, "schedule space must be fully explored");
}
