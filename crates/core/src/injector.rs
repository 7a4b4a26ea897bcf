//! Lock-free MPMC injector: how external work enters the executor.
//!
//! Topology dispatch publishes source-task indices here and the
//! work-stealing loop pops them when a worker's own deque and every
//! victim are empty. It is Vyukov's bounded MPMC queue (the same slot
//! protocol as [`crate::ring::EventRing`]): producers claim a slot with a
//! CAS on `head` and publish it by storing `seq = pos + 1`; consumers
//! claim with a CAS on `tail` and recycle the slot for the next lap. Many
//! client threads submitting at once therefore meet on no lock.
//!
//! Two departures from the event ring, both driven by the injector's
//! job of *never losing a task*:
//!
//! - **Overflow spills, it does not drop.** A full ring diverts the
//!   push into a mutex-protected side queue. What the ring carries is
//!   the steady traffic: served single-source runs and the few sources
//!   of a re-armed mesh. What spills is a wide one-shot graph: about a
//!   third of `traversal_oneshot`'s 10 000 nodes are sources, pushed in
//!   one burst against [`RING_SLOTS`] slots, so the spill is production
//!   traffic on that workload, not an emergency path. Consumers drain
//!   the ring first (ring items are older than any spill made while
//!   they were queued), then the spill.
//! - **Emptiness participates in the sleep protocol.** A parking worker
//!   decides whether to sleep by checking [`Injector::is_empty`] after
//!   announcing itself in the notifier; a submitter checks for sleepers
//!   after pushing. That Dekker handshake needs the emptiness check and
//!   the slot claim in the single SeqCst total order — see the ORDERING
//!   comments on `head`/`tail`/`spilled`.

use crate::sync::{AtomicU64, AtomicUsize, CheckedCell, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

/// ORDERING: Release on the slot-publish `seq` store orders the payload
/// write before the sequence number a consumer Acquire-loads, so the
/// consumer's plain read of `value` never races the producer's write.
/// The `rustflow_weaken` cfg deliberately breaks it so the model checker
/// and the sanitizer can demonstrate the lost/phantom task it causes
/// (see crates/check).
const INJECTOR_PUBLISH: Ordering = if cfg!(rustflow_weaken = "injector_publish") {
    Ordering::Relaxed
} else {
    Ordering::Release
};

/// Ring slots of an executor's injector. One value serves every workload
/// we run: a served run pushes one source, a 32×32 wavefront one, and a
/// burst past it spills (module docs).
pub(crate) const RING_SLOTS: usize = 1024;

struct Slot {
    /// Vyukov sequence number: `pos` when free, `pos + 1` when occupied.
    seq: AtomicUsize,
    /// The queued task index; validity is mediated by `seq`.
    value: CheckedCell<usize>,
}

/// A bounded lock-free MPMC queue of task indices with a mutexed
/// overflow spill (push never fails, never blocks on the fast path).
pub struct Injector {
    head: AtomicUsize,
    tail: AtomicUsize,
    mask: usize,
    slots: Box<[Slot]>,
    /// Items currently parked in `overflow`. Kept as an atomic so
    /// `is_empty`/`len` stay lock-free on the park path.
    spilled: AtomicUsize,
    /// Lifetime count of pushes that overflowed into the side queue.
    spilled_total: AtomicU64,
    overflow: Mutex<VecDeque<usize>>,
}

// SAFETY: slot access is mediated by the Vyukov sequence protocol; a
// slot's value is only touched by the thread that owns it per `seq`.
unsafe impl Send for Injector {}
unsafe impl Sync for Injector {}

impl Injector {
    /// An injector with a ring of `capacity` slots (rounded up to a
    /// power of two, minimum 2). The executor always passes
    /// [`RING_SLOTS`]; unit tests and the model checker pass tiny rings to
    /// reach the wrap-around and the spill.
    pub fn new(capacity: usize) -> Injector {
        let cap = capacity.max(2).next_power_of_two();
        Injector {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            mask: cap - 1,
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: CheckedCell::new(0),
                })
                .collect(),
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
        if !self.ring_push(item) {
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

    /// Claims a ring slot and publishes `item`; `false` when the ring is
    /// full (caller spills).
    fn ring_push(&self, item: usize) -> bool {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with the consumer's Release `seq`
            // store in `ring_pop`, so a slot seen free is fully drained.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // ORDERING: SeqCst on the successful claim places the
                // head advance in the single total order before the
                // submitter's SeqCst fence; a parking worker whose
                // announcement the submitter misses is guaranteed to see
                // `head != tail` in its `is_empty` re-check.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // ownership of the slot until the seq store below.
                        unsafe { slot.value.with_mut(|p| *p = item) };
                        slot.seq.store(pos.wrapping_add(1), INJECTOR_PUBLISH);
                        return true;
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // Lapped: the ring is full.
                return false;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest available task index, ring first, then the spill.
    pub fn pop(&self) -> Option<usize> {
        if let Some(item) = self.ring_pop() {
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

    fn ring_pop(&self) -> Option<usize> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with [`INJECTOR_PUBLISH`] in
            // `ring_push`, so an occupied slot's payload is visible
            // before it is read.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                // ORDERING: SeqCst on the successful claim keeps the
                // tail advance in the single total order read by
                // `is_empty` on the park path.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // ownership of the occupied slot.
                        let value = unsafe { slot.value.with(|p| *p) };
                        // ORDERING: Release orders the read-out above
                        // before the slot is recycled; the producer's
                        // Acquire `seq` load won't overwrite a payload
                        // still being read out.
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Number of queued task indices (ring fill level plus spill).
    /// Advisory for gauges; the park path uses [`Injector::is_empty`].
    pub fn len(&self) -> usize {
        // ORDERING: SeqCst so the park predicate's emptiness check sits
        // in the same total order as producers' claim CASes (Dekker
        // handshake with the submitter's post-publish fence).
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        let ring = head.wrapping_sub(tail).min(self.slots.len());
        // ORDERING: SeqCst mirrors `spill`'s increment — same Dekker
        // total order as the head/tail loads above.
        ring + self.spilled.load(Ordering::SeqCst)
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
