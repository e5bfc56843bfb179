//! Primitive selection for model checking: [`crate::barrier`] imports its
//! atomics and spin hints from here ([`crate::sharedgrid`] picks its cell
//! type the same way), so that compiling the crate with
//! `RUSTFLAGS="--cfg loom"` swaps in the loom model checker's doubles while
//! ordinary builds get the real `std` types with zero indirection.
//!
//! Run the exhaustive interleaving tests with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p lbm-ib --test loom --release
//! ```

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicUsize, Ordering};

/// One spin-loop iteration (`std::hint::spin_loop`, or loom's modeled park
/// that keeps busy-wait loops finite for the explorer).
#[inline]
pub fn spin_wait() {
    #[cfg(loom)]
    loom::hint::spin_loop();
    #[cfg(not(loom))]
    std::hint::spin_loop();
}

/// Yield the time slice (`std::thread::yield_now`, or loom's modeled park).
#[inline]
pub fn yield_wait() {
    #[cfg(loom)]
    loom::thread::yield_now();
    #[cfg(not(loom))]
    std::thread::yield_now();
}
