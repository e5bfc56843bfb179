//! # cachesim — cache-hierarchy simulator substrate
//!
//! The paper measures L1/L2 data-cache miss rates with PAPI hardware
//! counters on a 64-core AMD machine (Table II). Hardware counters are not
//! available in this reproduction environment, so this crate provides the
//! closest synthetic equivalent: a set-associative LRU L1→L2 hierarchy
//! ([`hierarchy::Hierarchy`], configured with the `thog` machine's
//! geometry) driven by address traces that replay the real kernels' access
//! patterns on both storage layouts ([`trace`]).
//!
//! The quantity the paper argues about — the OpenMP layout's slab working
//! set blowing out the shared L2 while the cube layout keeps a small
//! per-cube working set — is a property of the access pattern, which this
//! simulator reproduces mechanically.
//!
//! ```
//! use cachesim::trace::simulate_flat;
//! use lbm::grid::Dims;
//!
//! let report = simulate_flat(Dims::new(8, 8, 8), 0..8, 1, 1);
//! assert!(report.accesses > 0);
//! assert!(report.l1_miss_percent <= 100.0);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod trace;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::Hierarchy;
pub use trace::{
    simulate_cube, simulate_cube_marked, simulate_flat, simulate_flat_fused, MissReport,
};
