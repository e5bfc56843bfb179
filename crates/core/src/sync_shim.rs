//! Primitive selection for model checking: [`crate::barrier`] and
//! [`crate::team`] import their atomics, locks, spin hint and join handle
//! from here ([`crate::sharedgrid`] picks its cell type the same way), so
//! that compiling the crate with `RUSTFLAGS="--cfg loom"` swaps in the loom
//! model checker's doubles while ordinary builds get the real `std` types
//! with zero indirection.
//!
//! Run the exhaustive interleaving tests with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lbm-ib --test loom --release
//! ```

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(loom)]
pub use loom::thread::JoinHandle;
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::thread::JoinHandle;

use std::sync::PoisonError;

/// One spin-loop iteration (`std::hint::spin_loop`, or loom's modeled park
/// that keeps busy-wait loops finite for the explorer).
#[inline]
pub fn spin_wait() {
    #[cfg(loom)]
    loom::hint::spin_loop();
    #[cfg(not(loom))]
    std::hint::spin_loop();
}

/// Yields the time slice (`std::thread::yield_now`, or loom's modeled
/// park).
#[inline]
pub fn yield_wait() {
    #[cfg(loom)]
    loom::thread::yield_now();
    #[cfg(not(loom))]
    std::thread::yield_now();
}

/// Locks `m`, ignoring poisoning: every lock in this crate guards state
/// that a panic cannot leave torn (single assignments and `Option::take`s),
/// and the failure channels are the barrier's poison flag and the team's
/// panic slot, not the lock's.
#[inline]
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cv`, releasing `guard` while parked, and relocks (ignoring
/// poisoning, as [`lock`] does).
#[inline]
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
