//! The idler list: precise sleeping and waking of worker threads
//! (Algorithm 1, lines 5–13 and 26–28 of the paper).
//!
//! Instead of a thundering-herd condition variable, the executor "maintains
//! a list of idlers for those worker threads preempted. This allows us to
//! precisely wake up a spare worker to run tasks or balance the load
//! through stealing."
//!
//! The correctness of going to sleep hinges on the classic two-party
//! (Dekker-style) protocol, annotated per *Rust Atomics and Locks*:
//!
//! * **Submitter**: push task (the queue's release write) → `SeqCst` fence
//!   → load `num_idlers`. If it reads 0, no one is asleep *yet*.
//! * **Idler**: increment `num_idlers` (`SeqCst`) → re-scan every queue.
//!   If all queues look empty, park.
//!
//! The `SeqCst` total order guarantees that either the submitter observes
//! the idler (and wakes it), or the idler's re-scan observes the pushed
//! task (and refuses to sleep). Both parties cannot miss each other.
//!
//! All condition variables share one mutex (one cv per worker, so a wake
//! targets exactly one thread).

use crate::sync::{AtomicBool, AtomicUsize, Condvar, Mutex};
use std::sync::atomic::Ordering;

/// ORDERING: SeqCst on the Dekker pair — the idler's `num_idlers`
/// increment and the submitter's fast-path load — puts both in the single
/// total order with the submitter's fence, so either the submitter sees
/// the idler or the idler's re-scan sees the task. The `rustflow_weaken`
/// cfg deliberately breaks it so the model checker can demonstrate the
/// lost wakeup it permits (see crates/check).
const DEKKER: Ordering = if cfg!(rustflow_weaken = "notifier_dekker") {
    Ordering::Relaxed
} else {
    Ordering::SeqCst
};

struct Slot {
    cv: Condvar,
    /// `true` while the worker is parked and not yet selected by a waker.
    napping: AtomicBool,
}

/// The executor's idler list (public only for the model-checker tests via
/// `check_internals`; not part of the supported API).
pub struct Notifier {
    /// Stack of parked worker ids (LIFO: recently parked wake first, their
    /// caches are warm).
    idlers: Mutex<Vec<usize>>,
    /// Fast-path count of parked workers, maintained under the Dekker
    /// protocol described at module level.
    num_idlers: AtomicUsize,
    slots: Box<[Slot]>,
}

impl Notifier {
    /// An idler list for `workers` workers, all awake.
    pub fn new(workers: usize) -> Notifier {
        Notifier {
            idlers: Mutex::new(Vec::with_capacity(workers)),
            num_idlers: AtomicUsize::new(0),
            slots: (0..workers)
                .map(|_| Slot {
                    cv: Condvar::new(),
                    napping: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// Parks worker `w` until a waker selects it.
    ///
    /// `all_empty` is evaluated *after* the idler is counted; if it returns
    /// `false` (work appeared concurrently) the registration is rolled back
    /// and the function returns `false` without sleeping. `stop` aborts the
    /// wait.
    pub fn wait(&self, w: usize, all_empty: impl Fn() -> bool, stop: &AtomicBool) -> bool {
        let mut guard = self.idlers.lock();
        // Dekker step 1: become visible as an idler...
        self.num_idlers.fetch_add(1, DEKKER);
        // ...then re-check for work and for shutdown.
        if stop.load(Ordering::Relaxed) || !all_empty() {
            // ORDERING: SeqCst keeps the rollback in the same total order
            // as the registration above, so a submitter never observes a
            // phantom idler left over from an aborted park.
            self.num_idlers.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        guard.push(w);
        self.slots[w].napping.store(true, Ordering::Relaxed);
        while self.slots[w].napping.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
            self.slots[w].cv.wait(&mut guard);
        }
        // On the stop path the waker may not have removed us; `wake_all`
        // clears the whole list, but be robust to racy exits.
        if self.slots[w].napping.swap(false, Ordering::Relaxed) {
            if let Some(pos) = guard.iter().position(|&x| x == w) {
                guard.swap_remove(pos);
                // ORDERING: SeqCst — the count must leave the Dekker
                // total order through the same door it entered (see
                // [`DEKKER`]), or a submitter could see a stale idler.
                self.num_idlers.fetch_sub(1, Ordering::SeqCst);
            }
        }
        true
    }

    /// Wakes one parked worker, if any. Returns the worker id it woke.
    pub fn wake_one(&self) -> Option<usize> {
        // Fast path: no idlers — the common case under load.
        if self.num_idlers.load(DEKKER) == 0 {
            return None;
        }
        let mut guard = self.idlers.lock();
        let w = guard.pop()?;
        // ORDERING: SeqCst decrement stays in the Dekker total order so
        // concurrent submitters don't double-target the same idler.
        self.num_idlers.fetch_sub(1, Ordering::SeqCst);
        self.slots[w].napping.store(false, Ordering::Relaxed);
        self.slots[w].cv.notify_one();
        Some(w)
    }

    /// Wakes every parked worker (used at shutdown).
    pub fn wake_all(&self) {
        let mut guard = self.idlers.lock();
        for &w in guard.iter() {
            self.slots[w].napping.store(false, Ordering::Relaxed);
            self.slots[w].cv.notify_one();
        }
        // ORDERING: SeqCst batch decrement, same Dekker total order as
        // the per-worker registrations it cancels.
        self.num_idlers.fetch_sub(guard.len(), Ordering::SeqCst);
        guard.clear();
    }

    /// Number of currently parked workers (advisory).
    pub fn num_idlers(&self) -> usize {
        self.num_idlers.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn refuses_to_sleep_when_work_appears() {
        let n = Notifier::new(2);
        let stop = AtomicBool::new(false);
        assert!(!n.wait(0, || false, &stop));
        assert_eq!(n.num_idlers(), 0);
    }

    #[test]
    fn refuses_to_sleep_on_stop() {
        let n = Notifier::new(1);
        let stop = AtomicBool::new(true);
        assert!(!n.wait(0, || true, &stop));
        assert_eq!(n.num_idlers(), 0);
    }

    #[test]
    fn wake_one_wakes_exactly_one() {
        let n = Arc::new(Notifier::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let sleepers: Vec<_> = (0..3)
            .map(|w| {
                let n = Arc::clone(&n);
                let stop = Arc::clone(&stop);
                thread::spawn(move || n.wait(w, || true, &stop))
            })
            .collect();
        // Wait until all three are parked.
        while n.num_idlers() < 3 {
            thread::yield_now();
        }
        assert!(n.wake_one().is_some());
        thread::sleep(Duration::from_millis(30));
        assert_eq!(n.num_idlers(), 2);
        // Release the rest.
        stop.store(true, Ordering::SeqCst);
        n.wake_all();
        for s in sleepers {
            assert!(s.join().unwrap());
        }
        assert_eq!(n.num_idlers(), 0);
    }

    #[test]
    fn wake_one_on_empty_list_is_none() {
        let n = Notifier::new(2);
        assert_eq!(n.wake_one(), None);
    }
}
