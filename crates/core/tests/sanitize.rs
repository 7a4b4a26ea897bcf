//! Whole-executor sanitizer scenarios: the real `Executor` — workers,
//! Chase–Lev deques, notifier, topology state machine — driven under
//! `rustflow-check`'s PCT schedule fuzzer with happens-before race
//! detection and lock-order analysis (see `rustflow_check::Sanitizer`).
//!
//! Expectation protocol (one suite serves both CI jobs):
//!
//! * **Sound build** — every scenario must come back clean; a single race
//!   report, lock cycle, deadlock, or assertion failure fails the test.
//! * **Mutated build** (`--cfg rustflow_weaken="..."`) — only the
//!   scenario targeting that mutation runs, with the *same* must-be-clean
//!   body; catching the seeded bug therefore fails the suite, which is
//!   exactly what CI's mutation loop asserts (a surviving mutant shows up
//!   as a green run). Crash-style detections (e.g. executing a pointer
//!   stolen through a stale ring buffer) fail the suite the same way.
//!
//! Every failure message carries a `RUSTFLOW_SANITIZE_SEED=0x...` replay
//! line; re-running a single test with that env var reproduces the
//! schedule byte-for-byte (pinned by the determinism tests below).
#![cfg(feature = "rustflow_check")]

use rustflow::check_internals::Ring;
use rustflow::{ExecutorBuilder, Taskflow};
use rustflow_check::cell::CheckedCell;
use rustflow_check::Sanitizer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The mutation compiled into this build, if any. Must list every value
/// in the crate's `check-cfg` set.
const ACTIVE_WEAKEN: Option<&str> = {
    if cfg!(rustflow_weaken = "wsq_pop_fence") {
        Some("wsq_pop_fence")
    } else if cfg!(rustflow_weaken = "wsq_grow_swap") {
        Some("wsq_grow_swap")
    } else if cfg!(rustflow_weaken = "ring_publish") {
        Some("ring_publish")
    } else if cfg!(rustflow_weaken = "notifier_dekker") {
        Some("notifier_dekker")
    } else if cfg!(rustflow_weaken = "rearm_publish") {
        Some("rearm_publish")
    } else if cfg!(rustflow_weaken = "cancel_publish") {
        Some("cancel_publish")
    } else if cfg!(rustflow_weaken = "frontdoor_backlog") {
        Some("frontdoor_backlog")
    } else if cfg!(rustflow_weaken = "join_release") {
        Some("join_release")
    } else if cfg!(rustflow_weaken = "join_last_acquire") {
        Some("join_last_acquire")
    } else if cfg!(rustflow_weaken = "seed_plain_race") {
        Some("seed_plain_race")
    } else if cfg!(rustflow_weaken = "seed_lock_cycle") {
        Some("seed_lock_cycle")
    } else {
        None
    }
};

/// Serializes model executions across the test binary: the sanitizer owns
/// the process-global panic hook while exploring, and the replay tests
/// mutate `RUSTFLOW_SANITIZE_SEED`, which every `Sanitizer::run` reads.
/// Poison-tolerant because a caught mutation legitimately panics out of
/// `check()` while the lock is held.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SEQ: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `scenario` under the sanitizer unless a mutation outside `targets`
/// is compiled in (each mutant is exercised only by the scenarios built to
/// corner it, keeping the mutation loop's budget bounded).
fn sanitize(targets: &[&str], san: Sanitizer, scenario: impl Fn() + Send + Sync + 'static) {
    if let Some(active) = ACTIVE_WEAKEN {
        if !targets.contains(&active) {
            eprintln!("skipped: scenario targets {targets:?}, build mutates {active:?}");
            return;
        }
    }
    let _guard = serial();
    san.check(scenario);
}

// ---------------------------------------------------------------------------
// Clean scenarios: the sound executor under schedule fuzzing
// ---------------------------------------------------------------------------

/// A k×k wavefront on a 2-worker executor: the bread-and-butter dependency
/// pattern (steals, cache-slot chains, parking) must be race- and
/// cycle-free under every explored schedule.
#[test]
fn wavefront_is_clean() {
    sanitize(&[], Sanitizer::new("wavefront").iters(12), || {
        let ex = ExecutorBuilder::new().workers(2).build();
        let tf = Taskflow::with_executor(ex);
        let done = Arc::new(AtomicUsize::new(0));
        const K: usize = 3;
        let grid: Vec<_> = (0..K * K)
            .map(|_| {
                let d = Arc::clone(&done);
                tf.emplace(move || {
                    d.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for i in 0..K {
            for j in 0..K {
                if i + 1 < K {
                    grid[i * K + j].precede(grid[(i + 1) * K + j]);
                }
                if j + 1 < K {
                    grid[i * K + j].precede(grid[i * K + j + 1]);
                }
            }
        }
        tf.run().get().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), K * K);
    });
}

/// A timed wait (`run_timeout`) on a healthy graph must complete, never
/// time out: in the model, timeouts fire only at global quiescence, which
/// a sound executor with queued work can never reach.
#[test]
fn deadline_on_healthy_graph_is_clean() {
    sanitize(&[], Sanitizer::new("deadline").iters(8), || {
        let ex = ExecutorBuilder::new().workers(2).build();
        let tf = Taskflow::with_executor(ex);
        let a = tf.emplace(|| {});
        let b = tf.emplace(|| {});
        a.precede(b);
        tf.run_timeout(std::time::Duration::from_secs(3600))
            .expect("sound run under a generous deadline must complete");
    });
}

/// Per-task retry: a task that panics on its first attempt and succeeds on
/// the second must resolve `Ok` — the retry re-arm path (half-built state
/// reset, panic payload routing) is schedule-robust.
#[test]
fn retry_rescue_is_clean() {
    sanitize(&[], Sanitizer::new("retry").iters(8), || {
        let ex = ExecutorBuilder::new().workers(2).build();
        let tf = Taskflow::with_executor(ex);
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&attempts);
        tf.emplace(move || {
            if a.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("flaky once");
            }
        })
        .retry(1);
        tf.run().get().unwrap();
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    });
}

/// Seeded chaos: a planned mid-graph panic under `ContinueAll` must
/// resolve `Err` while the schedule stays race-free — the failure path
/// (record_panic, skip bookkeeping, promise resolution) is in scope too.
#[test]
fn chaos_panic_path_is_clean() {
    sanitize(&[], Sanitizer::new("chaos").iters(8), || {
        let ex = ExecutorBuilder::new().workers(2).build();
        let tf = Taskflow::with_executor(ex);
        let a = tf.emplace(|| {});
        let b = tf.emplace(|| panic!("planned chaos fault"));
        let c = tf.emplace(|| {});
        a.precede([b, c]);
        let res = tf.run().get();
        let err = res.expect_err("planned panic must surface");
        assert!(
            format!("{err}").contains("planned chaos fault"),
            "panic payload must survive: {err}"
        );
    });
}

/// The multi-tenant front door under schedule fuzzing: two clients on
/// separate threads submit through different tenants while a one-slot
/// dispatch budget forces the WFQ pump to interleave admission, dispatch,
/// and completion-driven re-pumping. The whole path — admission lock,
/// qos lock, injector, registry — must be race- and cycle-free and no
/// submission may be lost. The ledger is read at quiescence: `get()`
/// returns once the run's promise resolves, before the finalizing worker
/// credits the completion, so the credits are read only after the last
/// `Arc<Executor>` is gone and its drop has joined every worker.
#[test]
fn tenant_submission_is_clean() {
    use rustflow::TenantQos;
    sanitize(&[], Sanitizer::new("tenants").iters(8), || {
        let ex = ExecutorBuilder::new().workers(2).max_inflight(1).build();
        let hi = ex.tenant_with(
            "hi",
            TenantQos {
                weight: 4,
                max_queued: 4,
                ..TenantQos::default()
            },
        );
        let lo = ex.tenant("lo");
        let done = Arc::new(AtomicUsize::new(0));
        let (ex2, d2, lo2) = (ex.clone(), Arc::clone(&done), lo.clone());
        let client = rustflow_check::thread::spawn(move || {
            let tf = Taskflow::with_executor(ex2);
            tf.emplace(move || {
                d2.fetch_add(1, Ordering::Relaxed);
            });
            tf.run_on(&lo2).unwrap().get().unwrap();
        });
        let tf = Taskflow::with_executor(ex);
        let d = Arc::clone(&done);
        tf.emplace(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        tf.run_on(&hi).unwrap().get().unwrap();
        client.join().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 2);
        // The client's taskflow went with its thread; this one holds the
        // last `Arc<Executor>`.
        drop(tf);
        assert_eq!(hi.stats().completed + lo.stats().completed, 2);
    });
}

/// Guests arriving and leaving under a running `run_n`: while one worker
/// re-arms and re-runs a diamond, two clients call `wait_for_all` (one of
/// them twice), each taking a guest seat if one is free, scheduling its
/// sources there, stealing from and being stolen from by the worker, and
/// handing the seat back. The seat hand-off, the guests' pushes against a
/// parking worker and a guest blocking on its promise must be race- and
/// deadlock-free, and no task may be lost or run twice.
#[test]
fn guests_come_and_go_under_run_n() {
    sanitize(&[], Sanitizer::new("guests").iters(48), || {
        let ex = ExecutorBuilder::new().workers(1).build();
        let done = Arc::new(AtomicUsize::new(0));
        let diamond = Taskflow::with_executor(ex.clone());
        let [a, b, c, d] = [(); 4].map(|()| {
            let d = Arc::clone(&done);
            diamond.emplace(move || {
                d.fetch_add(1, Ordering::Relaxed);
            })
        });
        a.precede([b, c]);
        d.succeed([b, c]);
        let running = diamond.run_n(3);
        let (ex2, done2) = (ex.clone(), Arc::clone(&done));
        let client = rustflow_check::thread::spawn(move || {
            for _ in 0..2 {
                let tf = Taskflow::with_executor(ex2.clone());
                for _ in 0..2 {
                    let d = Arc::clone(&done2);
                    tf.emplace(move || {
                        d.fetch_add(1, Ordering::Relaxed);
                    });
                }
                tf.wait_for_all();
            }
        });
        let fan = Taskflow::with_executor(ex);
        fan_out_flow(&fan, 3, &done);
        fan.wait_for_all();
        client.join().unwrap();
        running.get().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 3 * 4 + 2 * 2 + 3);
    });
}

// ---------------------------------------------------------------------------
// Mutation-targeting scenarios (clean when sound, failing when mutated)
// ---------------------------------------------------------------------------

/// Builds a one-source fan-out: `source → t1..tk` with `k` independent
/// successors, the shape that fills the owner's deque (cache slot takes
/// one successor, the rest are pushed) while thieves attack it.
fn fan_out_flow(tf: &Taskflow, k: usize, done: &Arc<AtomicUsize>) {
    let src = tf.emplace(|| {});
    for _ in 0..k {
        let d = Arc::clone(done);
        let t = tf.emplace(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        src.precede(t);
    }
}

/// Owner-pop vs. steal on the Chase–Lev deque (`wsq_pop_fence`): without
/// the SeqCst bottom-store/top-load protocol the owner and a thief can
/// both take the last task, double-executing a node — visible as a
/// `SyncCell` race on the node's work closure or a join-counter blowup.
#[test]
fn deque_pop_steal_storm() {
    sanitize(
        &["wsq_pop_fence"],
        Sanitizer::new("pop_steal").iters(96),
        || {
            let ex = ExecutorBuilder::new().workers(2).build();
            let tf = Taskflow::with_executor(ex);
            let done = Arc::new(AtomicUsize::new(0));
            fan_out_flow(&tf, 5, &done);
            tf.run().get().unwrap();
            assert_eq!(done.load(Ordering::Relaxed), 5);
        },
    );
}

/// Steal racing a deque grow inside the full executor: a fan wider than
/// the deque's initial capacity (`wsq::INITIAL_CAPACITY`, 64) forces `grow`
/// during the push burst while the other worker is stealing. Sound-only
/// coverage — under the `wsq_grow_swap`
/// mutation a thief can steal a *stale node pointer* and execute garbage,
/// which wedges the whole schedule instead of failing crisply, so the
/// mutation itself is cornered by [`deque_grow_direct`] below on plain
/// integers.
#[test]
fn deque_grow_under_steal() {
    sanitize(&[], Sanitizer::new("grow_steal").iters(24), || {
        let ex = ExecutorBuilder::new().workers(2).build();
        let tf = Taskflow::with_executor(ex);
        let done = Arc::new(AtomicUsize::new(0));
        fan_out_flow(&tf, 80, &done);
        tf.run().get().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 80);
    });
}

/// The deque grow/steal race itself (`wsq_grow_swap`), on plain integers:
/// mirrors the model-checker protocol test but under PCT. The third push
/// exceeds capacity 2, so `grow` copies the live region and swaps the
/// buffer pointer while the thief is mid-steal; relaxing the Release
/// publication lets the thief's Acquire load of the new pointer observe
/// uninitialized or stale slots — a lost or invented item, with no node
/// pointers involved, so the failure is a clean assertion instead of UB.
#[test]
fn deque_grow_direct() {
    use rustflow::wsq::{deque_with_capacity, Steal};
    sanitize(
        &["wsq_grow_swap"],
        Sanitizer::new("grow_direct").iters(96),
        || {
            let (owner, stealer) = deque_with_capacity(2);
            owner.push(1);
            owner.push(2);
            let thief = rustflow_check::thread::spawn(move || {
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
            owner.push(3);
            let mut taken = thief.join().unwrap();
            while let Some(v) = owner.pop() {
                taken.push(v);
            }
            taken.sort_unstable();
            assert_eq!(taken, vec![1, 2, 3], "grow must not lose or invent items");
        },
    );
}

/// Ring publication (`ring_publish`): a producer and a consumer on a
/// 2-slot [`Ring`], the way a tracer lane is written and drained; relaxing
/// the Vyukov `seq` publish store lets the consumer's `assume_init_read`
/// race the producer's payload write.
#[test]
fn ring_producer_consumer() {
    sanitize(
        &["ring_publish"],
        Sanitizer::new("ring_mpmc").iters(64),
        || {
            let ring = Arc::new(Ring::new(2));
            let r = Arc::clone(&ring);
            let producer = rustflow_check::thread::spawn(move || {
                (0..3u64).filter(|&i| r.push(i).is_err()).count()
            });
            let mut got = 0usize;
            for _ in 0..64 {
                if ring.pop().is_some() {
                    got += 1;
                }
                if got == 3 {
                    break;
                }
            }
            let refused = producer.join().unwrap();
            while ring.pop().is_some() {
                got += 1;
            }
            assert_eq!(got + refused, 3, "items lost");
        },
    );
}

/// The same publication (`ring_publish`) on the submission path: two
/// client threads push task indices into a 2-slot [`Injector`] while the
/// main thread consumes, extracted from the executor the way
/// [`ring_producer_consumer`] extracts a tracer lane. Relaxing the ring's
/// `seq` publish store lets the consumer's payload read race the
/// producer's write; the happens-before detector reports the slot race
/// with both access sites.
#[test]
fn injector_handoff() {
    use rustflow::check_internals::Injector;
    sanitize(
        &["ring_publish"],
        Sanitizer::new("injector").iters(96),
        || {
            let inj = Arc::new(Injector::new(2));
            let producers: Vec<_> = [1usize, 2, 3]
                .chunks(2)
                .map(|chunk| {
                    let inj = Arc::clone(&inj);
                    let chunk = chunk.to_vec();
                    rustflow_check::thread::spawn(move || inj.push_batch(chunk))
                })
                .collect();
            let mut got = Vec::new();
            for _ in 0..8 {
                got.extend(inj.pop());
                if got.len() == 3 {
                    break;
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            while let Some(v) = inj.pop() {
                got.push(v);
            }
            got.sort_unstable();
            assert_eq!(got, vec![1, 2, 3], "no submission lost or invented");
        },
    );
}

/// Repeated run→drain→park cycles on a single worker: the park path at
/// whole-executor scope. The dispatcher publishes into the lock-free injector, issues the
/// SeqCst Dekker fence and calls `wake_one`, whose fast path reads the
/// idler count without the idlers mutex; the parking worker counts itself
/// and re-scans the injector. The injector takes no lock on either side,
/// so nothing but the Dekker pair orders the two and `notifier_dekker` is
/// visible here too: a stale zero idler count after the worker parked is a
/// lost wake-up, reported as a deadlock (worker in `cv.wait`, client in
/// `get`) within a handful of schedules. A worker explores for about a
/// hundred steal rounds before it parks, so each dispatch waits for the
/// worker's park count first: dispatched at once, it lands while the
/// worker still spins and the weakened pair is never raced (no finding
/// in 8 192 schedules). [`notifier_lost_wake`] below corners the same
/// protocol with no executor around it.
#[test]
fn park_submit_cycles() {
    sanitize(
        &["notifier_dekker"],
        Sanitizer::new("park_submit").iters(24),
        || {
            let ex = ExecutorBuilder::new().workers(1).build();
            let tf = Taskflow::with_executor(Arc::clone(&ex));
            let done = Arc::new(AtomicUsize::new(0));
            let d = Arc::clone(&done);
            tf.emplace(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
            for round in 1..=3 {
                // The worker parks once at start-up and once after each
                // run; wait until its exploration has run out, so that the
                // dispatch below races the park and not the steal rounds.
                while ex.stats().total().parks < round as u64 {
                    rustflow_check::thread::yield_now();
                }
                tf.run().get().unwrap();
                assert_eq!(done.load(Ordering::Relaxed), round);
            }
        },
    );
}

/// The notifier's Dekker protocol itself (`notifier_dekker`), replaying
/// the executor's submit path with one model atomic standing in for the
/// lock-free injector: the idler registers (`num_idlers.fetch_add`) and
/// re-checks the work word before parking, while the waker publishes
/// work, issues the SeqCst Dekker fence, and calls `wake_one` — whose
/// fast path reads the idler count and skips the (synchronizing) mutex
/// when it sees zero. Relaxing the count ordering lets the waker read a
/// stale zero after the idler has parked: a lost wakeup, reported by the
/// model as a deadlock (idler in `cv.wait`, main in `join`).
#[test]
fn notifier_lost_wake() {
    use rustflow::check_internals::Notifier;
    sanitize(
        &["notifier_dekker"],
        Sanitizer::new("lost_wake").iters(96),
        || {
            let n = Arc::new(Notifier::new(1));
            let stop = Arc::new(rustflow_check::atomic::AtomicBool::new(false));
            // Model atomic, like the queues it stands in for: the store
            // below is a scheduling point (the idler can register and park
            // between the spawn and the publication) and the protocol's
            // Release/Acquire queue traffic is modeled faithfully.
            let work = Arc::new(rustflow_check::atomic::AtomicUsize::new(0));
            let (n2, s2, w2) = (Arc::clone(&n), Arc::clone(&stop), Arc::clone(&work));
            let idler = rustflow_check::thread::spawn(move || {
                n2.wait(0, || w2.load(Ordering::Acquire) == 0, &s2)
            });
            work.store(1, Ordering::Release);
            rustflow_check::atomic::fence(Ordering::SeqCst);
            let _ = n.wake_one();
            // If the idler aborted its park (work already visible), `wait`
            // returned false and the join resolves immediately; if it
            // parked, the wake above must land — a lost wake deadlocks.
            let _ = idler.join().unwrap();
        },
    );
}

/// The front door's backlog/in-flight pair (`frontdoor_backlog`): with an
/// in-flight budget of one, the second submission finds the budget full
/// and stays queued; the worker then finalizes the first run, frees the
/// slot and reads the backlog, pumping only if it is non-zero (which is
/// what keeps it off the `qos` and queue locks otherwise). The first
/// task waits on a Relaxed flag the client raises after its second
/// submit, and the client then blocks on the *second* handle, so nothing
/// but the SeqCst pair orders the client's backlog increment before the
/// finalizer's load. Relaxing the pair lets that load read a stale zero:
/// the run stays queued beside a free slot with nobody left to pump,
/// which the model reports as a deadlock (client in `get`, worker
/// parked).
#[test]
fn frontdoor_full_budget_handoff() {
    sanitize(
        &["frontdoor_backlog"],
        Sanitizer::new("frontdoor").iters(96),
        || {
            let ex = ExecutorBuilder::new().workers(1).max_inflight(1).build();
            let tenant = ex.tenant("t");
            let go = Arc::new(rustflow_check::atomic::AtomicBool::new(false));
            let done = Arc::new(AtomicUsize::new(0));
            let first = Taskflow::with_executor(ex.clone());
            let (g, d) = (Arc::clone(&go), Arc::clone(&done));
            first.emplace(move || {
                while !g.load(Ordering::Relaxed) {
                    rustflow_check::thread::yield_now();
                }
                d.fetch_add(1, Ordering::Relaxed);
            });
            let second = Taskflow::with_executor(ex);
            let d = Arc::clone(&done);
            second.emplace(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
            let first_run = first.run_on(&tenant).unwrap();
            let second_run = second.run_on(&tenant).unwrap();
            go.store(true, Ordering::Relaxed);
            second_run.get().unwrap();
            first_run.get().unwrap();
            assert_eq!(done.load(Ordering::Relaxed), 2);
        },
    );
}

/// Self re-arm on iteration boundaries (`rearm_publish`): `run_n` runs the
/// frozen diamond twice, and every node reloads its own join counter as it
/// completes. A reload that comes after the node's releases can land after
/// the next iteration reached the node already — the sink `d` once its
/// count-down published iteration 2, or `b` once `c` readied `d` — and
/// undo a count-down (a wedged iteration), or leave the 1 its last
/// arrival left for the next iteration's first arrival to read (a node
/// readied early, and a batch resolved before all its runs).
#[test]
fn run_n_rearm_boundary() {
    sanitize(
        &["rearm_publish"],
        Sanitizer::new("rearm").iters(96),
        || {
            let ex = ExecutorBuilder::new().workers(2).build();
            let tf = Taskflow::with_executor(ex);
            let done = Arc::new(AtomicUsize::new(0));
            let mk = || {
                let d = Arc::clone(&done);
                tf.emplace(move || {
                    d.fetch_add(1, Ordering::Relaxed);
                })
            };
            let (a, b, c, d) = (mk(), mk(), mk(), mk());
            a.precede([b, c]);
            b.precede(d);
            c.precede(d);
            tf.run_n(2).get().unwrap();
            assert_eq!(done.load(Ordering::Relaxed), 8);
        },
    );
}

/// A fan-in's writes reach the caller (`join_release`,
/// `join_last_acquire`): `a` and `b` both precede the sink `c`, `a` writes
/// a plain cell, and the caller reads it once `run().get()` returned. Only
/// the sink is counted down by the topology, so when `b` is the one that
/// readies `c`, the join counter is all that carries `a`'s write to the
/// finalizer and on to the caller: with Relaxed decrements `a` Releases
/// nothing, and with a Relaxed last-arrival load `b`, reading 1, Acquires
/// nothing; either way the read races the write.
#[test]
fn fan_in_writes_reach_the_caller() {
    sanitize(
        &["join_release", "join_last_acquire"],
        Sanitizer::new("join").iters(96),
        || {
            let ex = ExecutorBuilder::new().workers(2).build();
            let tf = Taskflow::with_executor(ex);
            let cell = Arc::new(CheckedCell::new(0u64));
            let written = Arc::clone(&cell);
            let a = tf.emplace(move || {
                // SAFETY: `a` is the cell's only writer and runs once; the
                // caller reads it only after the run resolved, which is
                // the ordering under test.
                unsafe { written.with_mut(|p| *p += 1) };
            });
            let b = tf.emplace(|| {});
            let c = tf.emplace(|| {});
            a.precede(c);
            b.precede(c);
            tf.run().get().unwrap();
            // SAFETY: the run resolved, so `a` finished (see above).
            assert_eq!(unsafe { cell.with(|p| *p) }, 1);
        },
    );
}

/// Cancel handshake (`cancel_publish`): a concurrent `cancel` against a
/// running chain. The sound protocol records `RunError::Cancelled`
/// *before* publishing the skip flag, so a cancelled run can only resolve
/// `Ok` if every task actually executed; the mutation inverts the writes
/// and lets a partially-skipped run report success. The chain's head
/// spins until it sees the flag, so the cancel always lands mid-chain and
/// the worker reacts to the flag at once; what is left to the schedule is
/// one priority change between the canceller's two writes, and
/// `avg_steps` is sized to this short scenario so the change points fall
/// where it runs.
#[test]
fn concurrent_cancel_handshake() {
    sanitize(
        &["cancel_publish"],
        Sanitizer::new("cancel").iters(96).avg_steps(200),
        || {
            let ex = ExecutorBuilder::new().workers(2).build();
            let tf = Taskflow::with_executor(ex);
            let ran = Arc::new(AtomicUsize::new(0));
            const CHAIN: usize = 4;
            let mut prev = None;
            for i in 0..CHAIN {
                let r = Arc::clone(&ran);
                let t = tf.emplace(move || {
                    r.fetch_add(1, Ordering::Relaxed);
                    while i == 0 && !rustflow::this_task::is_cancelled() {
                        rustflow_check::thread::yield_now();
                    }
                });
                if let Some(p) = prev {
                    t.succeed(p);
                }
                prev = Some(t);
            }
            let handle = Arc::new(tf.run());
            let h = Arc::clone(&handle);
            let canceller = rustflow_check::thread::spawn(move || h.cancel());
            assert!(canceller.join().unwrap(), "the head keeps the run live");
            let res = handle.get();
            assert!(
                res.is_err() || ran.load(Ordering::Relaxed) == CHAIN,
                "cancelled run resolved Ok with only {}/{CHAIN} tasks executed",
                ran.load(Ordering::Relaxed)
            );
        },
    );
}

/// Seeded plain race (`seed_plain_race`): the mutation adds an
/// unsynchronized scratch-cell write per executed task and a plain read on
/// the worker park path; the happens-before detector must flag the pair
/// with both access sites.
#[test]
fn park_vs_execute_scratch() {
    sanitize(
        &["seed_plain_race"],
        Sanitizer::new("seed_race").iters(96),
        || {
            let ex = ExecutorBuilder::new().workers(2).build();
            let tf = Taskflow::with_executor(ex);
            let done = Arc::new(AtomicUsize::new(0));
            fan_out_flow(&tf, 3, &done);
            tf.run().get().unwrap();
            assert_eq!(done.load(Ordering::Relaxed), 3);
        },
    );
}

/// Seeded lock-order inversion (`seed_lock_cycle`): the mutation takes
/// `Topology::error` before `pending` inside `cancel`, closing a cycle
/// against the crate-wide pending→error order. Lockdep flags the cycle on
/// the first cancel even though no explored schedule deadlocks.
#[test]
fn cancel_lock_order() {
    sanitize(
        &["seed_lock_cycle"],
        Sanitizer::new("lock_cycle").iters(16),
        || {
            let ex = ExecutorBuilder::new().workers(1).build();
            let tf = Taskflow::with_executor(ex);
            tf.emplace(|| {});
            for _ in 0..3 {
                let handle = tf.run();
                let _ = handle.cancel();
                let _ = handle.get();
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Replay determinism: same seed ⇒ byte-identical trace and reports
// ---------------------------------------------------------------------------

/// A deliberately racy pair of model threads on a raw `CheckedCell` — the
/// detector must fire, and fire *identically* on every run.
fn racy_pair() {
    let cell = Arc::new(CheckedCell::new(0u64));
    let c = Arc::clone(&cell);
    let t = rustflow_check::thread::spawn(move || {
        // SAFETY: deliberately WRONG — unordered with the read below; the
        // scenario exists to make the race detector fire.
        unsafe { c.with_mut(|p| *p += 1) };
    });
    // SAFETY: deliberately WRONG — see above.
    let _ = unsafe { cell.with(|p| std::ptr::read(p)) };
    t.join().unwrap();
}

fn tiny_clean_flow() {
    let ex = ExecutorBuilder::new().workers(2).build();
    let tf = Taskflow::with_executor(ex);
    let a = tf.emplace(|| {});
    let b = tf.emplace(|| {});
    a.precede(b);
    tf.run().get().unwrap();
}

/// Three runs with the same seed must produce byte-identical schedule
/// traces and byte-identical race reports (the replay contract the seed
/// printed with every finding relies on) — racy scenario.
#[test]
fn replay_determinism_racy() {
    if ACTIVE_WEAKEN.is_some() {
        eprintln!("skipped under mutation build");
        return;
    }
    let _guard = serial();
    let run = || {
        Sanitizer::new("det_racy")
            .iters(6)
            .seed(0x00c0_ffee_0000_0001)
            .run(racy_pair)
    };
    let first = run();
    assert!(
        !first.reports.is_empty(),
        "the racy scenario must produce a race report"
    );
    let both_sites = first
        .reports
        .iter()
        .any(|r| r.matches("sanitize.rs").count() >= 2);
    assert!(
        both_sites,
        "race report must name both access sites in this file: {:?}",
        first.reports
    );
    for _ in 0..2 {
        let again = run();
        assert_eq!(first.trace, again.trace, "schedule trace must be stable");
        assert_eq!(first.reports, again.reports, "reports must be stable");
        assert_eq!(first.schedules, again.schedules);
    }
}

/// Same determinism contract on a clean full-executor scenario: identical
/// traces, zero reports, across three runs.
#[test]
fn replay_determinism_clean() {
    if ACTIVE_WEAKEN.is_some() {
        eprintln!("skipped under mutation build");
        return;
    }
    let _guard = serial();
    let run = || {
        Sanitizer::new("det_clean")
            .iters(4)
            .seed(0x00c0_ffee_0000_0002)
            .run(tiny_clean_flow)
    };
    let first = run();
    assert!(
        first.failure.is_none(),
        "clean flow failed: {:?}",
        first.failure
    );
    assert!(
        first.reports.is_empty(),
        "clean flow raced: {:?}",
        first.reports
    );
    for _ in 0..2 {
        let again = run();
        assert_eq!(first.trace, again.trace, "schedule trace must be stable");
        assert_eq!(first.schedules, again.schedules);
    }
}

/// The forced-seed replay path: `RUSTFLOW_SANITIZE_SEED` pins a single
/// schedule; two runs with the same forced seed are byte-identical.
#[test]
fn forced_seed_replays_one_schedule() {
    if ACTIVE_WEAKEN.is_some() {
        eprintln!("skipped under mutation build");
        return;
    }
    // The `serial` lock keeps this process-global env mutation from being
    // observed by any other test's Sanitizer::run.
    let _guard = serial();
    std::env::set_var("RUSTFLOW_SANITIZE_SEED", "0xfeed5eed");
    let run = || Sanitizer::new("forced").run(racy_pair);
    let a = run();
    let b = run();
    std::env::remove_var("RUSTFLOW_SANITIZE_SEED");
    assert_eq!(a.schedules, 1, "forced seed must run exactly one schedule");
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.reports, b.reports);
    assert!(
        a.trace.contains("seed=0x00000000feed5eed"),
        "trace must carry the forced seed: {}",
        a.trace
    );
}
