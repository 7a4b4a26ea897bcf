//! The sync facade: one import path for every synchronization primitive
//! the lock-free core uses.
//!
//! In normal builds this module re-exports `std::sync::atomic` types,
//! `parking_lot`'s `Mutex`/`Condvar`/`RwLock`, and a zero-cost
//! `CheckedCell` wrapper over `UnsafeCell` — the compiled code is
//! identical to using those types directly, so release throughput is
//! untouched.
//!
//! With the `rustflow_check` cargo feature, the same names resolve to
//! `rustflow-check`'s model-aware shims instead: every operation becomes
//! a scheduling point of the deterministic interleaving checker (or, via
//! `rustflow_check::Sanitizer`, of the PCT schedule fuzzer), loads
//! explore the C11-style set of visible stores, plain `CheckedCell`
//! accesses are race-checked against the happens-before relation, and
//! mutex acquisitions feed the lock-order graph. Outside an active model
//! execution the shims fall back to the real primitives, so merely
//! *enabling* the feature (e.g. through workspace feature unification)
//! changes nothing.
//!
//! Every crate-internal user of blocking or atomic synchronization must
//! import through this facade — an unshimmed primitive inside a model
//! execution blocks a model thread for real and stalls the scheduler.
//! The one deliberate exception is `introspect/`, whose collector and
//! watchdog run on auxiliary *real* threads with their own lifecycle
//! (sanitizer scenarios run with introspection off); it keeps using
//! `parking_lot`/`std` directly and is documented as out of the model's
//! scope.

// Misspelled `rustflow_weaken` values must not silently compile to the
// sound build: CI's mutation loop would then "test" a no-op and count it
// as caught. Enforcement is split by how the flag can be malformed:
//
// * `--cfg rustflow_weaken="no_such_mutation"` — rejected by `build.rs`,
//   which inspects the rustflags (rustc's check-cfg machinery validates
//   only source usage sites, never the command-line value itself); the
//   error names every known mutation.
// * `--cfg rustflow_weaken` with no value — selects nothing, which is
//   always a harness bug; `cfg(rustflow_weaken)` alone is true only in
//   that value-less form (a `--cfg key="value"` does *not* set the bare
//   key), so this guard trips exactly then.
#[cfg(rustflow_weaken)]
compile_error!(
    "rustflow_weaken needs a value; known mutations: wsq_pop_fence, wsq_grow_swap, \
     ring_publish, injector_publish, notifier_dekker, rearm_publish, cancel_publish, \
     frontdoor_backlog, seed_plain_race, seed_lock_cycle"
);

#[cfg(feature = "rustflow_check")]
pub(crate) use rustflow_check::{
    atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize},
    cell::CheckedCell,
    sync::{Condvar, Mutex, MutexGuard, RwLock},
};

#[cfg(not(feature = "rustflow_check"))]
pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
#[cfg(not(feature = "rustflow_check"))]
pub(crate) use std::sync::atomic::{
    fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize,
};

/// Model-aware thread spawn/join, used for the executor's worker pool so
/// the sanitizer schedules workers deterministically. Plain builds
/// delegate to `std::thread` with the requested thread name.
pub(crate) mod thread {
    #[cfg(feature = "rustflow_check")]
    pub(crate) use rustflow_check::thread::JoinHandle;

    #[cfg(not(feature = "rustflow_check"))]
    pub(crate) use std::thread::JoinHandle;

    /// Spawns a named thread. Under the model checker the thread becomes
    /// a model thread (the name is advisory); otherwise a real named
    /// `std` thread.
    pub(crate) fn spawn_named<F, T>(name: String, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        #[cfg(feature = "rustflow_check")]
        {
            rustflow_check::thread::spawn_named(Some(name), f)
        }
        #[cfg(not(feature = "rustflow_check"))]
        {
            std::thread::Builder::new()
                .name(name)
                .spawn(f)
                .expect("spawn thread")
        }
    }
}

/// True when multi-thread shutdown protocols must be skipped because the
/// current model execution is being torn down (schedule aborted, or the
/// caller is unwinding through destructors). Always `false` in plain
/// builds and outside model executions.
#[inline]
pub(crate) fn model_teardown() -> bool {
    #[cfg(feature = "rustflow_check")]
    {
        rustflow_check::model_teardown()
    }
    #[cfg(not(feature = "rustflow_check"))]
    {
        false
    }
}

/// Whether a caught panic payload is the model engine's internal unwind
/// (which must be rethrown, never handled as a task failure). Always
/// `false` in plain builds.
#[inline]
#[allow(unused_variables)]
pub(crate) fn is_model_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    #[cfg(feature = "rustflow_check")]
    {
        rustflow_check::is_model_abort(payload)
    }
    #[cfg(not(feature = "rustflow_check"))]
    {
        false
    }
}

#[cfg(not(feature = "rustflow_check"))]
mod plain_cell {
    use std::cell::UnsafeCell;

    /// Zero-cost stand-in for `rustflow_check::cell::CheckedCell`: the
    /// same `with`/`with_mut` API over a plain `UnsafeCell`, with no
    /// bookkeeping to inline away.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub(crate) struct CheckedCell<T>(UnsafeCell<T>);

    // SAFETY: all access goes through the `unsafe` `with`/`with_mut` API,
    // whose contract makes the caller responsible for cross-thread
    // exclusion (same stance as `SyncCell`, which wraps this type).
    unsafe impl<T: Send> Send for CheckedCell<T> {}
    unsafe impl<T: Send> Sync for CheckedCell<T> {}

    impl<T> CheckedCell<T> {
        /// Creates a cell holding `value`.
        pub(crate) const fn new(value: T) -> CheckedCell<T> {
            CheckedCell(UnsafeCell::new(value))
        }

        /// Runs `f` with a shared raw pointer to the contents.
        ///
        /// # Safety
        /// The caller must guarantee no concurrent mutation for the
        /// duration of `f`.
        #[inline]
        pub(crate) unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Runs `f` with an exclusive raw pointer to the contents.
        ///
        /// # Safety
        /// The caller must guarantee exclusive access for the duration of
        /// `f`.
        #[inline]
        pub(crate) unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        /// Consumes the cell and returns the value.
        #[allow(dead_code)]
        pub(crate) fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }
}

#[cfg(not(feature = "rustflow_check"))]
pub(crate) use plain_cell::CheckedCell;
