//! Race-checked plain-memory cell (the model's `UnsafeCell`).
//!
//! Atomics alone cannot catch a publication bug whose *symptom* is a plain
//! data race — e.g. downgrading the ring's `seq.store(.., Release)` to
//! `Relaxed` still produces the right sequence numbers, but the payload
//! write is then unordered with the consumer's read.
//! [`CheckedCell`] closes that gap: every access is reported to the
//! engine, which checks it (via vector clocks) against all prior accesses
//! and fails the execution when a write is concurrent with any other
//! access, loom-style.
//!
//! Outside a model execution the cell is a zero-bookkeeping `UnsafeCell`
//! wrapper; the core's facade supplies an identical plain type in normal
//! builds, so call sites are written once against the `with`/`with_mut`
//! API.

use crate::engine;
use std::cell::UnsafeCell;

/// An `UnsafeCell` whose accesses are race-checked inside model runs.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct CheckedCell<T>(UnsafeCell<T>);

// SAFETY: all access goes through the `unsafe` `with`/`with_mut` API,
// whose contract makes the *caller* responsible for cross-thread
// exclusion (and the model verifies that claim at runtime). This mirrors
// the stance of the core's `SyncCell`.
unsafe impl<T: Send> Send for CheckedCell<T> {}
unsafe impl<T: Send> Sync for CheckedCell<T> {}

impl<T> CheckedCell<T> {
    /// Creates a cell holding `value`.
    pub const fn new(value: T) -> CheckedCell<T> {
        CheckedCell(UnsafeCell::new(value))
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Runs `f` with a shared raw pointer to the contents, recording a
    /// plain **read** of the cell.
    ///
    /// # Safety
    /// The caller asserts no concurrent mutation: in a model run a
    /// violation is *detected* and fails the execution; outside one it is
    /// undefined behaviour, exactly as with a raw `UnsafeCell`.
    #[track_caller]
    pub unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        if let Some((rt, me)) = engine::current() {
            engine::cell_read(&rt, me, self.addr(), std::panic::Location::caller());
        }
        f(self.0.get())
    }

    /// Runs `f` with an exclusive raw pointer to the contents, recording a
    /// plain **write** of the cell.
    ///
    /// # Safety
    /// The caller asserts exclusive access for the duration of `f`; see
    /// [`CheckedCell::with`].
    #[track_caller]
    pub unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        if let Some((rt, me)) = engine::current() {
            engine::cell_write(&rt, me, self.addr(), std::panic::Location::caller());
        }
        f(self.0.get())
    }

    /// Consumes the cell and returns the value (safe: requires ownership).
    pub fn into_inner(self) -> T {
        if let Some((rt, _)) = engine::current() {
            engine::cell_retire(&rt, self.addr());
        }
        let this = std::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped (ManuallyDrop), so the value is
        // read out exactly once.
        unsafe { std::ptr::read(this.0.get()) }
    }
}

impl<T> Drop for CheckedCell<T> {
    fn drop(&mut self) {
        if let Some((rt, _)) = engine::current() {
            engine::cell_retire(&rt, self.addr());
        }
    }
}
