//! Atomic `f64` accumulation: the OpenMP-style solver's tasks add their
//! busy seconds into one shared slot per worker thread.
//!
//! Rust (like C++) has no native atomic f64 add; the standard technique is
//! a compare-exchange loop over the bit pattern in an `AtomicU64`
//! (see *Rust Atomics and Locks*, ch. 2–3).

use crate::sync_shim::{AtomicU64, Ordering};

/// An `f64` supporting lock-free atomic addition.
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a new atomic with the given value.
    pub fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Atomically adds `v` via a CAS loop. Relaxed ordering is sufficient:
    /// a region only needs atomicity per slot; cross-region visibility is
    /// established by the join that ends the region.
    #[inline]
    pub fn fetch_add(&self, v: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_load_store_add() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.0);
        assert_eq!(a.load(), -2.0);
        let prev = a.fetch_add(0.5);
        assert_eq!(prev, -2.0);
        assert_eq!(a.load(), -1.5);
    }

    #[test]
    fn handles_special_values() {
        let a = AtomicF64::new(0.0);
        a.fetch_add(f64::INFINITY);
        assert_eq!(a.load(), f64::INFINITY);
        let b = AtomicF64::new(-0.0);
        assert_eq!(b.load(), 0.0);
    }

    #[test]
    fn concurrent_adds_lose_nothing() {
        use std::sync::Arc;
        let a = Arc::new(AtomicF64::new(0.0));
        let threads = 8;
        let adds_per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..adds_per_thread {
                        a.fetch_add(1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(), (threads * adds_per_thread) as f64);
    }
}
