//! # lbm — D3Q19 lattice Boltzmann substrate
//!
//! The fluid half of the LBM-IB method (Nagar, Song, Zhu, Lin — ICPP 2015):
//! a from-scratch D3Q19 lattice Boltzmann solver with BGK collision, Guo
//! forcing (so the immersed boundary's elastic force enters consistently),
//! half-way bounce-back walls, and two storage layouts —
//!
//! * [`grid::FluidGrid`]: flat structure-of-arrays over the whole grid, the
//!   layout of the paper's sequential and OpenMP implementations;
//! * [`cube_grid::CubeFluidGrid`]: the cube-blocked layout of the paper's
//!   Section V, where each `k³` block of nodes is contiguous in memory.
//!
//! The crate also hosts the paper's data-distribution functions
//! ([`distribution::CubeDistribution`] implements `cube2thread`,
//! [`distribution::FiberDistribution`] implements `fiber2thread`), analytic
//! Navier–Stokes solutions for validation, and a plain sequential stepper.
//!
//! ## Quick example
//!
//! ```
//! use lbm::{
//!     boundary::BoundaryConfig, collision::Relaxation, grid::Dims, stepper::PlainLbm,
//! };
//!
//! let mut solver = PlainLbm::new(Dims::new(16, 8, 8), Relaxation::new(0.8), BoundaryConfig::tunnel());
//! solver.body_force = [1e-5, 0.0, 0.0]; // drive a channel flow
//! solver.run(10);
//! assert!(solver.grid.ux.iter().sum::<f64>() > 0.0);
//! ```

pub mod analytic;
pub mod boundary;
pub mod collision;
pub mod cube_grid;
pub mod distribution;
pub mod equilibrium;
pub mod fused;
pub mod grid;
pub mod lattice;
pub mod macroscopic;
pub mod stepper;

pub use boundary::BoundaryConfig;
pub use collision::Relaxation;
pub use cube_grid::{CubeDims, CubeFluidGrid};
pub use distribution::{CubeDistribution, FiberDistribution, Policy, ThreadMesh};
pub use grid::{Dims, FluidGrid};
pub use lattice::Q;
