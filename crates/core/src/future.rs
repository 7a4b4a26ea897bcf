//! A minimal promise / shared-future pair.
//!
//! Cpp-Taskflow communicates topology completion through a
//! `std::promise` / `std::shared_future` pair (§III-C of the paper). Rust's
//! standard library has no blocking future primitive, so we implement the
//! equivalent on top of a mutex and a condition variable, exactly the
//! construction *Rust Atomics and Locks* chapter 1/9 walks through.
//!
//! [`SharedFuture`] is cloneable; every clone observes the same value. The
//! producing side is a single-use [`Promise`].

use crate::sync::{AtomicBool, Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct Shared<T> {
    /// `true` once `value` is set: lets pollers and late waiters skip the
    /// mutex the fulfilling thread is still inside.
    ready: AtomicBool,
    value: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Shared<T> {
    fn new(value: Option<T>) -> Arc<Shared<T>> {
        Arc::new(Shared {
            ready: AtomicBool::new(value.is_some()),
            value: Mutex::new(value),
            cv: Condvar::new(),
        })
    }
}

/// The producing half: fulfil it once with [`Promise::set`].
#[derive(Debug)]
pub struct Promise<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half: blocks on [`SharedFuture::wait`] / clones freely.
#[derive(Debug)]
pub struct SharedFuture<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        SharedFuture {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Creates a connected promise / shared-future pair.
pub fn promise_pair<T>() -> (Promise<T>, SharedFuture<T>) {
    let shared = Shared::new(None);
    (
        Promise {
            shared: Arc::clone(&shared),
        },
        SharedFuture { shared },
    )
}

impl<T> Promise<T> {
    /// Fulfils the promise, waking every waiter.
    ///
    /// Panics if the promise was already fulfilled: a topology completes
    /// exactly once, and fulfilling twice would indicate a scheduler bug.
    pub fn set(self, value: T) {
        let mut guard = self.shared.value.lock();
        assert!(guard.is_none(), "promise fulfilled twice");
        *guard = Some(value);
        // ORDERING: Release pairs with `is_ready`'s Acquire load — a poller
        // that reads `true` sees the value and everything the run wrote
        // before resolving, without touching the mutex. Stored before the
        // unlock so nobody can hold the value and still read `false`.
        self.shared.ready.store(true, Ordering::Release);
        drop(guard);
        self.shared.cv.notify_all();
    }
}

impl<T: Clone> SharedFuture<T> {
    /// Blocks until the value is available and returns a clone of it.
    pub fn get(&self) -> T {
        let mut guard = self.shared.value.lock();
        while guard.is_none() {
            self.shared.cv.wait(&mut guard);
        }
        guard.as_ref().expect("checked above").clone()
    }

    /// Returns the value if already available, without blocking.
    pub fn try_get(&self) -> Option<T> {
        self.shared.value.lock().clone()
    }

    /// Blocks until the value is available or `timeout` elapses.
    pub fn get_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.shared.value.lock();
        while guard.is_none() {
            if self.shared.cv.wait_until(&mut guard, deadline).timed_out() {
                return guard.clone();
            }
        }
        guard.clone()
    }
}

impl<T> SharedFuture<T> {
    /// Creates a future that is already fulfilled with `value`.
    ///
    /// Used by the run/dispatch paths for outcomes decided without touching
    /// the executor: empty graphs, zero-iteration batches, and graphs whose
    /// cached sanitizer verdict is fatal.
    pub fn ready(value: T) -> SharedFuture<T> {
        SharedFuture {
            shared: Shared::new(Some(value)),
        }
    }

    /// Blocks until the value is available, discarding it.
    pub fn wait(&self) {
        if self.is_ready() {
            return;
        }
        let mut guard = self.shared.value.lock();
        while guard.is_none() {
            self.shared.cv.wait(&mut guard);
        }
    }

    /// `true` once the promise has been fulfilled.
    pub fn is_ready(&self) -> bool {
        // ORDERING: Acquire pairs with `Promise::set`'s Release store.
        self.shared.ready.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_then_get() {
        let (p, f) = promise_pair();
        assert!(!f.is_ready());
        p.set(123);
        assert!(f.is_ready());
        assert_eq!(f.get(), 123);
        assert_eq!(f.try_get(), Some(123));
    }

    #[test]
    fn blocking_get_across_threads() {
        let (p, f) = promise_pair::<String>();
        let f2 = f.clone();
        let waiter = thread::spawn(move || f2.get());
        thread::sleep(Duration::from_millis(20));
        p.set("done".to_string());
        assert_eq!(waiter.join().unwrap(), "done");
        assert_eq!(f.get(), "done");
    }

    #[test]
    fn many_clones_observe_same_value() {
        let (p, f) = promise_pair::<u64>();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let f = f.clone();
                thread::spawn(move || f.get())
            })
            .collect();
        p.set(7);
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
    }

    #[test]
    fn ready_future_is_immediately_resolved() {
        let f = SharedFuture::ready(42u32);
        assert!(f.is_ready());
        assert_eq!(f.get(), 42);
    }

    #[test]
    fn try_get_before_set_is_none() {
        let (_p, f) = promise_pair::<u32>();
        assert_eq!(f.try_get(), None);
    }

    #[test]
    fn get_timeout_times_out() {
        let (_p, f) = promise_pair::<u32>();
        assert_eq!(f.get_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn get_timeout_returns_value() {
        let (p, f) = promise_pair::<u32>();
        p.set(5);
        assert_eq!(f.get_timeout(Duration::from_millis(10)), Some(5));
    }

    #[test]
    #[should_panic(expected = "promise fulfilled twice")]
    fn double_set_panics() {
        let p = Promise {
            shared: Shared::new(Some(1)),
        };
        p.set(2);
    }
}
