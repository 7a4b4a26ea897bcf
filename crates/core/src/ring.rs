//! The crate's one bounded lock-free MPMC queue: Vyukov's ring.
//!
//! Two users sit on [`Ring`], each a thin layer:
//!
//! - the [`Tracer`](crate::Tracer) gives every lane its own
//!   `Ring<SchedEvent>`, so recording an event is a write into that lane's
//!   ring only and workers never contend on a shared lock; the rings are
//!   drained off the hot path by whoever exports the trace;
//! - the executor's [`Injector`](crate::injector::Injector) is a
//!   `Ring<usize>` of source-task indices plus a mutexed spill, so many
//!   client threads submitting at once meet on no lock.
//!
//! The slot protocol: producers claim a slot with a CAS on `head` and
//! publish it by storing `seq = pos + 1`; consumers claim with a CAS on
//! `tail`, move the item out and recycle the slot for the next lap by
//! storing `seq = pos + capacity`. A full ring hands the item back
//! ([`Ring::push`] returns `Err`); each user decides what that means (the
//! tracer flushes or counts a drop, the injector spills).
//!
//! The orderings are the injector's, because its emptiness check is part
//! of the notifier's Dekker handshake: the claim CASes and the loads of
//! [`Ring::len`] are SeqCst, publish and recycle are Release. A tracer
//! lane pays nothing for that on x86-64, where a CAS is `lock cmpxchg` at
//! any ordering and a SeqCst load is a plain `mov`.

use crate::sync::{AtomicUsize, CheckedCell};
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;

/// ORDERING: Release on the slot-publish `seq` store orders the payload
/// write before the sequence number a consumer Acquire-loads, so the
/// consumer's read of the payload never races the producer's write. The
/// `rustflow_weaken` cfg deliberately breaks it so the model checker and
/// the sanitizer can demonstrate the payload data race it causes (see
/// crates/check).
const SEQ_PUBLISH: Ordering = if cfg!(rustflow_weaken = "ring_publish") {
    Ordering::Relaxed
} else {
    Ordering::Release
};

struct Slot<T> {
    /// Vyukov sequence number: `pos` when free, `pos + 1` when occupied.
    seq: AtomicUsize,
    /// The queued item; initialized exactly while `seq` says occupied.
    value: CheckedCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer multi-consumer FIFO queue.
pub struct Ring<T> {
    head: AtomicUsize,
    tail: AtomicUsize,
    mask: usize,
    slots: Box<[Slot<T>]>,
}

// SAFETY: slot access is mediated by the Vyukov sequence protocol; a slot's
// value is only touched by the thread that owns it per `seq`, and an item
// moves between threads only by value, so `T: Send` is all it needs.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A ring holding up to `capacity` items (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> Ring<T> {
        let cap = capacity.max(2).next_power_of_two();
        Ring {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            mask: cap - 1,
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: CheckedCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        }
    }

    /// Queues `item`, or hands it back when the ring is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with the consumer's Release `seq`
            // store in `pop`, so a slot seen free is fully drained.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // ORDERING: SeqCst on the successful claim places the
                // head advance in the single total order before the
                // submitter's SeqCst fence; a parking worker whose
                // announcement the submitter misses is guaranteed to see
                // `head != tail` in its `len` re-check.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // ownership of the slot until the seq store below.
                        unsafe { slot.value.with_mut(|p| (*p).write(item)) };
                        slot.seq.store(pos.wrapping_add(1), SEQ_PUBLISH);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // Lapped: the ring is full.
                return Err(item);
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Takes the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with [`SEQ_PUBLISH`] in `push`, so
            // an occupied slot's payload is visible before it is read.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                // ORDERING: SeqCst on the successful claim keeps the tail
                // advance in the single total order read by `len` on the
                // park path.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // ownership of the occupied slot, whose payload
                        // the producer initialized before publishing it;
                        // the recycle store below hands the slot back, so
                        // the item is moved out exactly once.
                        let value = unsafe { slot.value.with(|p| (*p).assume_init_read()) };
                        // ORDERING: Release orders the read-out above
                        // before the slot is recycled; the producer's
                        // Acquire `seq` load won't overwrite a payload
                        // still being moved out.
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

    /// Number of queued items (head minus tail, clamped to the capacity).
    /// Exact when nobody pushes or pops; under concurrency a slot claimed
    /// but not yet published counts as queued, so an emptiness check
    /// errs towards "not empty".
    pub fn len(&self) -> usize {
        // ORDERING: SeqCst so an emptiness check sits in the same total
        // order as producers' claim CASes (the injector's Dekker
        // handshake with the submitter's post-publish fence).
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        head.wrapping_sub(tail).min(self.slots.len())
    }

    /// `true` when [`Ring::len`] reads zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drop the items still queued. A ring of plain values (the
        // injector's indices) has nothing to release.
        if std::mem::needs_drop::<T>() {
            while self.pop().is_some() {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push/pop sequences at capacities 2–16 against a
        /// `VecDeque` bounded at the rounded-up capacity: the same items
        /// come out in the same order, a full ring hands the item back,
        /// and `len` reads the oracle's length after every operation. Up
        /// to 256 operations per case wrap even a 16-slot ring many times.
        #[test]
        fn agrees_with_a_bounded_vecdeque((capacity, push_pct, ops) in (2usize..=16, 20u8..80)
            .prop_flat_map(|(c, p)| (Just(c), Just(p), collection::vec(0u8..100, 0..256))))
        {
            let ring = Ring::new(capacity);
            let bound = capacity.next_power_of_two();
            let mut oracle = VecDeque::new();
            for (item, op) in ops.into_iter().enumerate() {
                if op < push_pct {
                    let pushed = ring.push(item);
                    if oracle.len() == bound {
                        prop_assert_eq!(pushed, Err(item), "a full ring hands the item back");
                    } else {
                        prop_assert_eq!(pushed, Ok(()));
                        oracle.push_back(item);
                    }
                } else {
                    prop_assert_eq!(ring.pop(), oracle.pop_front());
                }
                prop_assert_eq!(ring.len(), oracle.len());
                prop_assert_eq!(ring.is_empty(), oracle.is_empty());
            }
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let r = Ring::new(8);
        for i in 0..8u64 {
            assert_eq!(r.push(i), Ok(()));
        }
        assert_eq!(r.push(99), Err(99), "ninth push must be refused");
        let out: Vec<u64> = std::iter::from_fn(|| r.pop()).collect();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        // Space is reusable after draining.
        assert_eq!(r.push(100), Ok(()));
        assert_eq!(r.pop(), Some(100));
        assert!(r.pop().is_none());
    }

    #[test]
    fn len_tracks_fill_level() {
        let r = Ring::new(8);
        assert!(r.is_empty());
        for i in 0..5u64 {
            assert!(r.push(i).is_ok());
        }
        assert_eq!(r.len(), 5);
        r.pop();
        assert_eq!(r.len(), 4);
        while r.pop().is_some() {}
        assert!(r.is_empty());
    }

    #[test]
    fn wraps_many_times() {
        let r = Ring::new(8);
        for round in 0..100u64 {
            for i in 0..5 {
                assert_eq!(r.push(round * 10 + i), Ok(()));
            }
            let out: Vec<u64> = std::iter::from_fn(|| r.pop()).collect();
            assert_eq!(out.len(), 5);
        }
    }

    /// Counts its own drops.
    struct Counted<'a>(&'a Cell<usize>);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn a_dropped_ring_drops_its_items_exactly_once() {
        let drops = Cell::new(0);
        let ring = Ring::new(4);
        for _ in 0..4 {
            assert!(ring.push(Counted(&drops)).is_ok());
        }
        // A refused item comes back to the caller, who drops it.
        drop(ring.push(Counted(&drops)).expect_err("the ring is full"));
        assert_eq!(drops.get(), 1);
        drop(ring.pop());
        drop(ring.pop());
        assert_eq!(drops.get(), 3);
        // One more, into a recycled slot: three items left, across the wrap.
        assert!(ring.push(Counted(&drops)).is_ok());
        drop(ring);
        assert_eq!(drops.get(), 6, "every item dropped once, none twice");
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of thousands of spins; too slow under miri")]
    fn concurrent_producers_never_lose_accounting() {
        use std::sync::Arc;
        let r = Arc::new(Ring::new(64));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || (0..10_000u64).filter(|&i| r.push(i).is_err()).count())
            })
            .collect();
        let reader = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..200_000 {
                    if r.pop().is_some() {
                        seen += 1;
                    }
                }
                seen
            })
        };
        let dropped: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let mut seen = reader.join().unwrap();
        while r.pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen + dropped, 40_000, "every item taken or refused");
    }
}
