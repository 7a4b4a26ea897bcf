//! A counting global allocator for the traced pass.
//!
//! `cargo run` builds one binary, so the wrapper is installed in both
//! passes; while counting is off (the whole untraced pass) it is the
//! system allocator behind one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting was switched on
/// (negative when memory allocated earlier is freed).
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            on_free(layout.size());
        }
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            on_free(layout.size());
            on_alloc(new_size);
        }
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(size: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

/// Switches counting on (zeroing the live/peak gauges) or off.
pub fn set_counting(on: bool) {
    if on {
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
    }
    COUNTING.store(on, Ordering::SeqCst);
}

/// The counters right now. `allocs`, `frees` and `bytes` only grow, so
/// the activity of an interval is the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub frees: u64,
    pub bytes: u64,
    pub live: i64,
    pub peak_live: i64,
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak_live: PEAK.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit-test binary installs the same wrapper (see `main.rs`).
    /// Other tests allocate concurrently, so the assertions are on what
    /// this thread provably added, as lower bounds and exact balances of
    /// its own blocks.
    #[test]
    fn counting_allocator_balances_alloc_and_free() {
        set_counting(true);
        let before = snapshot();
        let block = vec![0u8; 1 << 20];
        let mid = snapshot();
        assert!(mid.allocs > before.allocs);
        assert!(mid.bytes - before.bytes >= 1 << 20);
        assert!(mid.peak_live >= 1 << 20);
        drop(block);
        let boxes: Vec<Box<u64>> = (0..1000).map(Box::new).collect();
        drop(boxes);
        let after = snapshot();
        set_counting(false);
        // 1 MiB block + 1000 boxes + their Vec: all allocated and freed.
        assert!(after.allocs - before.allocs >= 1002);
        assert!(after.frees - before.frees >= 1002);
        assert!(after.bytes - before.bytes >= (1 << 20) + 8 * 1000);
        // Counting off: nothing moves.
        let off = snapshot();
        drop(vec![1u8; 4096]);
        let still = snapshot();
        assert_eq!(off.allocs, still.allocs);
        assert_eq!(off.frees, still.frees);
    }
}
