//! A counting global allocator for the allocation-gate binaries
//! (`oneshot`, `served`), which install it themselves:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: tf_bench::count_alloc::CountingAlloc = tf_bench::count_alloc::CountingAlloc;
//! ```
//!
//! Every request is forwarded to [`System`] unchanged and counted twice:
//! process-wide, and for the requesting thread, so a phase that runs on
//! the calling thread is counted exactly whatever the workers do
//! meanwhile. [`Stamp`] reads all counters at one instant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocations and bytes requested by every thread.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations and bytes requested by this thread. `const`-initialized
    /// `Cell`s of `u64` need no lazy set-up and no destructor, so touching
    /// them from inside the allocator cannot recurse into it.
    static MY_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static MY_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator: [`System`] plus the counters [`Stamp`] reads.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    // `try_with`: a thread that is being torn down still allocates.
    let _ = MY_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = MY_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// atomics and destructor-free thread-local cells and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// When the stamp was taken.
    pub at: Instant,
    /// Allocations requested so far by the calling thread.
    pub my_allocs: u64,
    /// Bytes requested so far by the calling thread.
    pub my_bytes: u64,
    /// Allocations requested so far by every thread.
    pub all_allocs: u64,
    /// Bytes requested so far by every thread.
    pub all_bytes: u64,
}

impl Stamp {
    /// Reads the clock and every counter.
    pub fn now() -> Stamp {
        Stamp {
            at: Instant::now(),
            my_allocs: MY_ALLOCS.with(Cell::get),
            my_bytes: MY_BYTES.with(Cell::get),
            all_allocs: ALL_ALLOCS.load(Ordering::Relaxed),
            all_bytes: ALL_BYTES.load(Ordering::Relaxed),
        }
    }
}

/// The `--check` half of an allocation gate: compares each freshly
/// measured `(name, allocations)` with `<section>.<name>.allocs` in the
/// committed report at `path`. Prints one line per count that exceeds its
/// committed value and ends the process with status 1 if any did.
pub fn check_against_committed(
    gate: &str,
    path: &std::path::Path,
    section: &str,
    measured: &[(&str, u64)],
) {
    let file = path.display();
    let committed =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check needs {file}: {e}"));
    let committed = crate::json::parse(&committed)
        .unwrap_or_else(|e| panic!("committed {file} is not JSON: {e}"));
    let mut failed = false;
    for (name, allocs) in measured {
        let limit = committed
            .get(section)
            .and_then(|s| s.get(name))
            .and_then(|s| s.get("allocs"))
            .and_then(crate::json::Value::as_u64)
            .unwrap_or_else(|| panic!("committed {file} has no {section}.{name}.allocs"));
        if *allocs > limit {
            eprintln!("{gate} gate: {name} allocates {allocs} times, committed {limit}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
