//! The task-closure storage rule, counted under the counting allocator: a
//! closure of at most two words whose alignment is at most a word's is
//! written into its node, so emplacing it allocates nothing; any other
//! closure costs exactly one allocation, its box. Both hold for static and
//! for dynamic (subflow) tasks, and every stored closure still runs once.

use rustflow::{Subflow, Taskflow};
use std::mem::size_of_val;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tf_bench::count_alloc::{Counted, CountingAlloc, Stamp};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Sixteen bytes aligned to sixteen: two words, but over-aligned.
#[derive(Clone, Copy)]
#[repr(align(16))]
struct Aligned16(&'static AtomicU64);

impl Aligned16 {
    /// Takes `&self`, so a closure calling it captures all sixteen bytes.
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations the calling thread makes in `emplace`, called on a
/// taskflow whose arena already has a free slot; then runs the graph.
fn allocations(emplace: impl FnOnce(&Taskflow)) -> u64 {
    let tf = Taskflow::new();
    tf.placeholder(); // allocates the arena's first chunk
    let from = Stamp::now();
    emplace(&tf);
    let allocs = Counted::mine(from, Stamp::now()).allocs;
    tf.wait_for_all();
    allocs
}

/// `(allocations to emplace f as a static task, its size)`.
fn static_task<F: FnMut() + Send + 'static>(f: F) -> (u64, usize) {
    let size = size_of_val(&f);
    (allocations(|tf| _ = tf.emplace(f)), size)
}

/// `(allocations to emplace f as a dynamic task, its size)`.
fn dynamic_task<F: FnMut(&mut Subflow<'_>) + Send + 'static>(f: F) -> (u64, usize) {
    let size = size_of_val(&f);
    (allocations(|tf| _ = tf.emplace_subflow(f)), size)
}

#[test]
fn closures_of_two_words_are_stored_in_the_node() {
    static ZST_RUNS: AtomicU64 = AtomicU64::new(0);
    let runs = Arc::new(AtomicU64::new(0));
    let (r8, r16) = (Arc::clone(&runs), Arc::clone(&runs));
    let word = 7u64;
    assert_eq!(
        static_task(|| {
            ZST_RUNS.fetch_add(1, Ordering::Relaxed);
        }),
        (0, 0)
    );
    assert_eq!(
        static_task(move || {
            r8.fetch_add(1, Ordering::Relaxed);
        }),
        (0, 8)
    );
    assert_eq!(
        static_task(move || {
            r16.fetch_add(word, Ordering::Relaxed);
        }),
        (0, 16)
    );
    let (d8, d16) = (Arc::clone(&runs), Arc::clone(&runs));
    assert_eq!(
        dynamic_task(|_| {
            ZST_RUNS.fetch_add(1, Ordering::Relaxed);
        }),
        (0, 0)
    );
    assert_eq!(
        dynamic_task(move |_| {
            d8.fetch_add(1, Ordering::Relaxed);
        }),
        (0, 8)
    );
    assert_eq!(
        dynamic_task(move |_| {
            d16.fetch_add(word, Ordering::Relaxed);
        }),
        (0, 16)
    );
    assert_eq!(ZST_RUNS.load(Ordering::Relaxed), 2);
    assert_eq!(runs.load(Ordering::Relaxed), 2 * (1 + word));
}

#[test]
fn bigger_or_over_aligned_closures_cost_one_box() {
    static ALIGNED_RUNS: AtomicU64 = AtomicU64::new(0);
    let runs = Arc::new(AtomicU64::new(0));
    let pad = [1u64; 2];
    let aligned = Aligned16(&ALIGNED_RUNS);
    let (s24, d24) = (Arc::clone(&runs), Arc::clone(&runs));
    assert_eq!(
        static_task(move || {
            s24.fetch_add(pad[0] + pad[1], Ordering::Relaxed);
        }),
        (1, 24)
    );
    assert_eq!(
        dynamic_task(move |_| {
            d24.fetch_add(pad[0] + pad[1], Ordering::Relaxed);
        }),
        (1, 24)
    );
    assert_eq!(static_task(move || aligned.bump()), (1, 16));
    assert_eq!(dynamic_task(move |_| aligned.bump()), (1, 16));
    assert_eq!(runs.load(Ordering::Relaxed), 4);
    assert_eq!(ALIGNED_RUNS.load(Ordering::Relaxed), 2);
}
