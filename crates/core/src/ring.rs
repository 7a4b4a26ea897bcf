//! Fixed-capacity event rings for scheduler telemetry.
//!
//! Each worker gets its own [`EventRing`]; recording an event is a write
//! into that worker's ring only, so workers never contend on a shared lock
//! (the seed's tracer funnelled every worker through one global
//! `Mutex<Vec>`, perturbing the very schedule it measured). Rings are
//! drained off-path by whoever exports the trace.
//!
//! The slot protocol is Vyukov's bounded MPMC queue: producers claim a slot
//! with a CAS on `head` and publish it by storing `seq = pos + 1`. In the
//! intended single-producer-per-ring use the CAS is uncontended and costs
//! one atomic RMW, but the structure stays safe even if a user calls the
//! public observer hooks from arbitrary threads — misuse degrades
//! throughput, never soundness.
//!
//! When a ring is full the event is counted in `dropped` and discarded;
//! recording never blocks and never reallocates.

use crate::observer::SchedEvent;
use crate::sync::{AtomicU64, AtomicUsize, CheckedCell};
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;

/// ORDERING: Release on the slot-publish `seq` store orders the payload
/// write before the sequence number a consumer Acquire-loads, so
/// `assume_init_read` never races the producer's write. The
/// `rustflow_weaken` cfg deliberately breaks it so the model checker can
/// demonstrate the payload data race it causes (see crates/check).
const SEQ_PUBLISH: Ordering = if cfg!(rustflow_weaken = "ring_publish") {
    Ordering::Relaxed
} else {
    Ordering::Release
};

struct Slot {
    /// Vyukov sequence number: `pos` when free, `pos + 1` when occupied.
    seq: AtomicUsize,
    value: CheckedCell<MaybeUninit<SchedEvent>>,
}

/// A bounded lock-free ring of [`SchedEvent`]s.
pub struct EventRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
    mask: usize,
    slots: Box<[Slot]>,
}

// SAFETY: slot access is mediated by the Vyukov sequence protocol; a slot's
// value is only touched by the thread that owns it per `seq`.
unsafe impl Send for EventRing {}
unsafe impl Sync for EventRing {}

impl EventRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(2).next_power_of_two();
        EventRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            mask: cap - 1,
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: CheckedCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        }
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Approximate number of events currently queued (head minus tail,
    /// clamped to the capacity). Advisory: producers and consumers race
    /// this read, so it is a fill-level gauge, not an exact count.
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        head.wrapping_sub(tail).min(self.slots.len())
    }

    /// `true` when [`EventRing::len`] observes an empty ring (advisory).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records `event`; returns `false` (and counts the drop) when full.
    ///
    /// The tracer records through [`EventRing::try_push`] +
    /// [`EventRing::note_drop`] so it can drain and retry in between; this
    /// single-call form serves the model-checker harness and tests.
    #[cfg_attr(not(feature = "rustflow_check"), allow(dead_code))]
    pub fn push(&self, event: SchedEvent) -> bool {
        match self.try_push(event) {
            Ok(()) => true,
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Records `event`; on a full ring returns it to the caller without
    /// counting a drop, so the caller can drain and retry (the tracer's
    /// overflow-flush path) before deciding the event is truly lost
    /// ([`EventRing::note_drop`]).
    pub fn try_push(&self, event: SchedEvent) -> Result<(), SchedEvent> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with the consumer's Release `seq`
            // store in `pop`, so a slot seen free is fully drained.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Slot free at our position: claim it.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // ownership of the slot until the seq store below.
                        unsafe { slot.value.with_mut(|p| (*p).write(event)) };
                        slot.seq.store(pos.wrapping_add(1), SEQ_PUBLISH);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // Lapped: the ring is full.
                return Err(event);
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Counts one discarded event (used after a failed retry of
    /// [`EventRing::try_push`]).
    pub fn note_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops the oldest event, if any.
    pub fn pop(&self) -> Option<SchedEvent> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with [`SEQ_PUBLISH`] in `try_push`,
            // so an occupied slot's payload is visible before it is read.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // ownership of the occupied slot.
                        let value = unsafe { slot.value.with_mut(|p| (*p).assume_init_read()) };
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

    /// Drains every currently queued event into `out`.
    pub fn drain_into(&self, out: &mut Vec<SchedEvent>) {
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
    }
}

impl Drop for EventRing {
    fn drop(&mut self) {
        // Release any still-queued labels.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TaskLabel;
    use crate::observer::SchedEventKind;

    fn ev(ts: u64) -> SchedEvent {
        SchedEvent {
            worker: 0,
            ts_us: ts,
            label: TaskLabel::new("e"),
            kind: SchedEventKind::TaskBegin {
                span: Default::default(),
            },
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let r = EventRing::new(8);
        for i in 0..8 {
            assert!(r.push(ev(i)));
        }
        assert!(!r.push(ev(99)), "ninth push must be dropped");
        assert_eq!(r.dropped(), 1);
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert_eq!(out.len(), 8);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.ts_us, i as u64);
        }
        // Space is reusable after draining.
        assert!(r.push(ev(100)));
        assert_eq!(r.pop().unwrap().ts_us, 100);
        assert!(r.pop().is_none());
    }

    #[test]
    fn len_tracks_fill_level() {
        let r = EventRing::new(8);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 5);
        r.pop();
        assert_eq!(r.len(), 4);
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert!(r.is_empty());
    }

    #[test]
    fn wraps_many_times() {
        let r = EventRing::new(8);
        for round in 0..100u64 {
            for i in 0..5 {
                assert!(r.push(ev(round * 10 + i)));
            }
            let mut out = Vec::new();
            r.drain_into(&mut out);
            assert_eq!(out.len(), 5);
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of thousands of spins; too slow under miri")]
    fn concurrent_producers_never_lose_accounting() {
        use std::sync::Arc;
        let r = Arc::new(EventRing::new(64));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        r.push(ev(i));
                    }
                })
            })
            .collect();
        let reader = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                for _ in 0..200_000 {
                    if r.pop().is_some() {
                        seen += 1;
                    }
                }
                seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let mut seen = reader.join().unwrap();
        while r.pop().is_some() {
            seen += 1;
        }
        assert_eq!(
            seen + r.dropped(),
            40_000,
            "every event recorded or counted"
        );
    }
}
