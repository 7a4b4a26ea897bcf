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

/// What happened between two [`Stamp`]s: allocations, bytes, wall time.
#[derive(Debug, Clone, Copy)]
pub struct Counted {
    /// Allocations requested.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Nanoseconds elapsed.
    pub ns: f64,
}

impl Counted {
    /// What the calling thread did between two of its stamps.
    pub fn mine(from: Stamp, to: Stamp) -> Counted {
        Counted {
            allocs: to.my_allocs - from.my_allocs,
            bytes: to.my_bytes - from.my_bytes,
            ns: (to.at - from.at).as_nanos() as f64,
        }
    }

    /// What every thread did between two stamps.
    pub fn all(from: Stamp, to: Stamp) -> Counted {
        Counted {
            allocs: to.all_allocs - from.all_allocs,
            bytes: to.all_bytes - from.all_bytes,
            ns: (to.at - from.at).as_nanos() as f64,
        }
    }
}

/// An allocation gate from its measurements to its exit: prints each
/// `(name, counted)` row of `rows` per `unit` (there are `units` of them
/// in a row), renders the report
/// `{"benchmark", <sizes>, <section>: {<name>: {"allocs", ..}}}`, and with
/// `--check` first compares each row with `<section>.<name>.allocs` in the
/// committed `<out>/<benchmark>.json`: a row that allocates more often
/// than the committed file says is printed and the process ends with
/// status 1. The report is then written where [`crate::harness::Cli::write_report`] puts
/// it: a `--check` run never touches the committed file.
pub fn report_and_gate(
    cli: &crate::harness::Cli,
    benchmark: &str,
    sizes: &[(&str, usize)],
    (section, unit, units): (&str, &str, usize),
    rows: &[(&str, Counted)],
) {
    use rustflow::wire::json;
    let per_unit = |x: f64| x / units as f64;
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.field_str("benchmark", benchmark);
    for (key, size) in sizes {
        w.field(key, size);
    }
    w.key(section);
    w.begin_object();
    for (name, c) in rows {
        println!(
            "  {name:<10} {:>8.4} allocs/{unit}  {:>8.1} bytes/{unit}  {:>7.1} ns/{unit}",
            per_unit(c.allocs as f64),
            per_unit(c.bytes as f64),
            per_unit(c.ns)
        );
        w.key(name);
        w.begin_object();
        w.field("allocs", c.allocs);
        w.field(
            &format!("allocs_per_{unit}"),
            format_args!("{:.4}", per_unit(c.allocs as f64)),
        );
        w.field(
            &format!("bytes_per_{unit}"),
            format_args!("{:.1}", per_unit(c.bytes as f64)),
        );
        w.field(
            &format!("ns_per_{unit}"),
            format_args!("{:.1}", per_unit(c.ns)),
        );
        w.end();
    }
    w.end();
    w.end();

    let file = format!("{benchmark}.json");
    if cli.check {
        let committed = json::parse(&cli.committed(&file))
            .unwrap_or_else(|e| panic!("committed {file} is not JSON: {e}"));
        let failures: Vec<String> = rows
            .iter()
            .filter_map(|(name, c)| {
                let limit = committed.at(&[section, name, "allocs"]);
                let limit = limit
                    .and_then(json::Value::as_u64)
                    .unwrap_or_else(|| panic!("committed {file} has no {section}.{name}.allocs"));
                let allocs = c.allocs;
                (allocs > limit)
                    .then(|| format!("{name} allocates {allocs} times, committed {limit}"))
            })
            .collect();
        let ok = format!("no row of {section} allocates more than the committed file");
        crate::harness::finish_gate(benchmark, &ok, &failures);
    }
    cli.write_report(&file, &w.finish());
}
