//! Lock-free MPMC injector: how external work enters the executor.
//!
//! Topology dispatch publishes source-task indices here and the
//! work-stealing loop pops them when a worker's own deque and every
//! victim are empty. It is the crate's one bounded MPMC queue,
//! [`Ring`], carrying task indices, so many client threads submitting at
//! once meet on no lock. Two additions, both driven by the injector's job
//! of *never losing a task*:
//!
//! - **Overflow spills, it does not drop.** A full ring diverts the
//!   push into a mutex-protected side queue. What the ring carries is
//!   the steady traffic: served single-source runs and the few sources
//!   of a re-armed mesh. What spills is a wide graph dispatched in one
//!   burst: the 10 000-node DAG of `traversal_oneshot` has 3 339
//!   sources, and one `dispatch().get()` of it pushes them all against
//!   [`RING_SLOTS`] slots and spills 2 315. The untraced workload runs it
//!   through `wait_for_all` instead, whose caller takes a guest seat and
//!   schedules the sources onto the seat's own deque, so that run spills
//!   nothing; only the traced twin's `dispatch()` reaches the spill.
//!   Consumers drain the ring first (ring items are older than any spill
//!   made while they were queued), then the spill.
//! - **Emptiness participates in the sleep protocol.** A parking worker
//!   decides whether to sleep by checking [`Injector::is_empty`] after
//!   announcing itself in the notifier; a submitter checks for sleepers
//!   after pushing. That Dekker handshake needs the emptiness check and
//!   the slot claim in the single SeqCst total order: the ring's claim
//!   CASes and [`Ring::len`] are SeqCst for this, and so is `spilled`.

use crate::ring::Ring;
use crate::sync::{AtomicU64, AtomicUsize, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

/// Ring slots of an executor's injector. One value serves every workload
/// we run: a served run pushes one source, a 32×32 wavefront one, and a
/// burst past it spills (module docs).
pub(crate) const RING_SLOTS: usize = 1024;

/// A bounded lock-free MPMC queue of task indices with a mutexed
/// overflow spill (push never fails, never blocks on the fast path).
pub struct Injector {
    ring: Ring<usize>,
    /// Items currently parked in `overflow`. Kept as an atomic so
    /// `is_empty`/`len` stay lock-free on the park path.
    spilled: AtomicUsize,
    /// Lifetime count of pushes that overflowed into the side queue.
    spilled_total: AtomicU64,
    overflow: Mutex<VecDeque<usize>>,
}

impl Injector {
    /// An injector with a ring of `capacity` slots (rounded up to a
    /// power of two, minimum 2). The executor always passes
    /// [`RING_SLOTS`]; unit tests and the model checker pass tiny rings to
    /// reach the wrap-around and the spill.
    pub fn new(capacity: usize) -> Injector {
        Injector {
            ring: Ring::new(capacity),
            spilled: AtomicUsize::new(0),
            spilled_total: AtomicU64::new(0),
            overflow: Mutex::new(VecDeque::new()),
        }
    }

    /// Lifetime count of pushes that overflowed into the side queue.
    pub fn spilled_total(&self) -> u64 {
        self.spilled_total.load(Ordering::Relaxed)
    }

    /// Queues `item`. Lock-free unless the ring is full, in which case
    /// the item spills into the mutexed side queue — publication never
    /// drops a task.
    pub fn push(&self, item: usize) {
        if let Err(item) = self.ring.push(item) {
            self.spill(item);
        }
    }

    /// Queues every index in `items` (a dispatch burst of source tasks).
    pub fn push_batch(&self, items: impl IntoIterator<Item = usize>) {
        for item in items {
            self.push(item);
        }
    }

    fn spill(&self, item: usize) {
        let mut overflow = self.overflow.lock();
        // ORDERING: SeqCst places the spill count increment in the
        // single total order before the submitter's SeqCst fence, so a
        // parking worker that the submitter misses is guaranteed to see
        // `spilled != 0` in its `is_empty` re-check (Dekker handshake;
        // see crate::notifier).
        self.spilled.fetch_add(1, Ordering::SeqCst);
        self.spilled_total.fetch_add(1, Ordering::Relaxed);
        overflow.push_back(item);
    }

    /// Pops the oldest available task index, ring first, then the spill.
    pub fn pop(&self) -> Option<usize> {
        if let Some(item) = self.ring.pop() {
            return Some(item);
        }
        // ORDERING: SeqCst keeps the spill probe in the same total order
        // as the park-path `is_empty` check; Relaxed would be enough for
        // correctness here (the lock below is authoritative) but the
        // stronger order costs nothing off the fast path.
        if self.spilled.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut overflow = self.overflow.lock();
        let item = overflow.pop_front();
        if item.is_some() {
            // ORDERING: SeqCst mirrors the increment in `spill`.
            self.spilled.fetch_sub(1, Ordering::SeqCst);
        }
        item
    }

    /// Number of queued task indices (ring fill level plus spill).
    /// Advisory for gauges; the park path uses [`Injector::is_empty`].
    pub fn len(&self) -> usize {
        // ORDERING: SeqCst mirrors `spill`'s increment — the same Dekker
        // total order as the SeqCst loads of `Ring::len`.
        self.ring.len() + self.spilled.load(Ordering::SeqCst)
    }

    /// `true` when no task is queued. Conservative under concurrency: a
    /// slot claimed but not yet published reads as *non*-empty, so a
    /// parking worker re-spins rather than sleeping through a task.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_ring() {
        let inj = Injector::new(8);
        assert!(inj.is_empty());
        for i in 1..=5 {
            inj.push(i);
        }
        assert_eq!(inj.len(), 5);
        for i in 1..=5 {
            assert_eq!(inj.pop(), Some(i));
        }
        assert_eq!(inj.pop(), None);
        assert_eq!(inj.spilled_total(), 0);
    }

    #[test]
    fn overflow_spills_and_drains() {
        let inj = Injector::new(2);
        inj.push_batch([1, 2, 3, 4, 5]);
        assert_eq!(inj.len(), 5);
        assert_eq!(inj.spilled_total(), 3, "three pushes past a 2-slot ring");
        let mut got: Vec<usize> = std::iter::from_fn(|| inj.pop()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5], "spill loses nothing");
        assert!(inj.is_empty());
    }

    #[test]
    fn wraps_many_times() {
        let inj = Injector::new(4);
        for round in 0..100 {
            for i in 0..3 {
                inj.push(round * 10 + i + 1);
            }
            for i in 0..3 {
                assert_eq!(inj.pop(), Some(round * 10 + i + 1));
            }
        }
        assert_eq!(inj.spilled_total(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of thousands of spins; too slow under miri")]
    fn concurrent_producers_and_consumers_conserve_items() {
        use std::collections::HashSet;
        use std::sync::Arc;
        const PRODUCERS: usize = 4;
        const PER: usize = 10_000;
        let inj = Arc::new(Injector::new(64));
        let writers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        inj.push(p * PER + i + 1);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 10_000 {
                        match inj.pop() {
                            Some(v) => {
                                got.push(v);
                                dry = 0;
                            }
                            None => dry += 1,
                        }
                    }
                    got
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let mut all = Vec::new();
        for r in readers {
            all.extend(r.join().unwrap());
        }
        while let Some(v) = inj.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), PRODUCERS * PER, "no task lost");
        let distinct: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "no task duplicated or invented");
    }
}
