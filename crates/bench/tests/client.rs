//! What `soak`, `serving` and `served` rely on from `harness::Client`.

use rustflow::{Executor, Taskflow};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_bench::harness::{Client, Served};

/// Never more than `window` in flight, every handle resolved exactly once
/// and in submission order, and pacing on an absolute schedule: a client
/// that falls behind catches up instead of thinning what it offers.
#[test]
fn window_bounds_in_flight_and_pacing_never_thins_the_offers() {
    const WINDOW: usize = 4;
    const OFFERS: usize = 150;
    let interval = Duration::from_millis(1);
    let stall = Duration::from_millis(100);

    let executor = Executor::new(2);
    let tenant = executor.tenant("client");
    let ran = Arc::new(AtomicUsize::new(0));
    let (in_flight, most_in_flight) = (Cell::new(0usize), Cell::new(0usize));
    let resolved = RefCell::new(Vec::new());

    let start = Instant::now();
    let mut client = Client::new(Some(WINDOW), Some(interval));
    let offered = client.drive(
        |offered| offered < OFFERS,
        |i| {
            // Offer 5 is late by a hundred intervals.
            if i == 5 {
                std::thread::sleep(stall);
            }
            let tf = Taskflow::with_executor(Arc::clone(&executor));
            let ran = Arc::clone(&ran);
            tf.emplace(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            let handle = tf.run_on(&tenant)?;
            in_flight.set(in_flight.get() + 1);
            most_in_flight.set(most_in_flight.get().max(in_flight.get()));
            Ok(((i, tf), handle))
        },
        |served| match served {
            Served::Resolved((i, _tf), result) => {
                result.expect("run succeeds");
                in_flight.set(in_flight.get() - 1);
                resolved.borrow_mut().push(i);
            }
            Served::Refused(e) => panic!("refused: {e}"),
        },
    );
    let elapsed = start.elapsed();

    assert_eq!(offered, OFFERS);
    assert_eq!(most_in_flight.get(), WINDOW, "the window fills and holds");
    assert_eq!(*resolved.borrow(), (0..OFFERS).collect::<Vec<_>>());
    assert_eq!(ran.load(Ordering::Relaxed), OFFERS);
    // Paced: the last offer is not due before (OFFERS - 1) intervals. Not
    // thinned: the schedule is absolute, so the stall is absorbed by the
    // offers after it going out back to back; a client that slept a full
    // interval after every offer would need the stall on top.
    let schedule = interval * (OFFERS as u32 - 1);
    assert!(elapsed >= schedule, "{elapsed:?} is ahead of the schedule");
    assert!(
        elapsed < schedule + stall / 2,
        "{elapsed:?}: the stall was added to the schedule, not absorbed"
    );
}

/// An open-loop client never waits for a run while it is offering, and
/// still resolves every handle once.
#[test]
fn open_loop_offers_without_waiting_and_resolves_everything() {
    let executor = Executor::new(1);
    let tenant = executor.tenant("open");
    let release = Arc::new(AtomicUsize::new(0));
    let offered_at_first_outcome = Cell::new(None);
    let (offers, outcomes) = (Cell::new(0usize), Cell::new(0usize));
    let started = Instant::now();
    Client::new(None, None).drive(
        |offered| offered < 64,
        |i| {
            offers.set(i + 1);
            // The runs cannot finish before the last offer is made (or ten
            // seconds pass, so that a client that does wait on the first
            // fails below instead of hanging).
            if i == 63 {
                release.store(1, Ordering::Release);
            }
            let tf = Taskflow::with_executor(Arc::clone(&executor));
            let release = Arc::clone(&release);
            tf.emplace(move || {
                while release.load(Ordering::Acquire) == 0 && started.elapsed().as_secs() < 10 {
                    std::thread::yield_now();
                }
            });
            let handle = tf.run_on(&tenant)?;
            Ok((tf, handle))
        },
        |served| match served {
            Served::Resolved(_tf, result) => {
                result.expect("run succeeds");
                offered_at_first_outcome.set(offered_at_first_outcome.get().or(Some(offers.get())));
                outcomes.set(outcomes.get() + 1);
            }
            Served::Refused(e) => panic!("refused: {e}"),
        },
    );
    assert_eq!(outcomes.get(), 64);
    assert_eq!(offered_at_first_outcome.get(), Some(64));
}
