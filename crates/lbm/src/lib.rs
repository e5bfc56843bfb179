//! # lbm — D3Q19 lattice Boltzmann substrate
//!
//! The fluid half of the LBM-IB method (Nagar, Song, Zhu, Lin — ICPP 2015):
//! a from-scratch D3Q19 lattice Boltzmann kernel set with BGK collision,
//! velocity-shift forcing (kernel 7 folds the immersed boundary's elastic
//! force into the velocity the next collision relaxes toward), half-way
//! bounce-back walls, and two storage layouts —
//!
//! * [`grid::FluidGrid`]: flat structure-of-arrays over the whole grid, the
//!   layout of the paper's sequential and OpenMP implementations;
//! * [`cube_grid::CubeFluidGrid`]: the cube-blocked layout of the paper's
//!   Section V, where each `k³` block of nodes is contiguous in memory.
//!
//! The crate also hosts the paper's data-distribution functions
//! ([`distribution::CubeDistribution`] implements `cube2thread`,
//! [`distribution::FiberDistribution`] implements `fiber2thread`) and
//! analytic Navier–Stokes solutions for validation. The time loop lives
//! in the solvers of the `lbm-ib` crate, which call these kernels.
//!
//! ## Quick example
//!
//! One fluid step of a force-driven periodic box, kernel by kernel:
//!
//! ```
//! use lbm::boundary::{add_uniform_body_force, BoundaryConfig};
//! use lbm::fused::fused_collide_stream_grid;
//! use lbm::grid::{Dims, FluidGrid};
//! use lbm::macroscopic::{initialize_equilibrium, update_velocity_shifted};
//!
//! let tau = 0.8;
//! let mut grid = FluidGrid::new(Dims::new(8, 4, 4));
//! initialize_equilibrium(&mut grid, |_, _, _| 1.0, |_, _, _| [0.0; 3]);
//! for _ in 0..10 {
//!     grid.clear_force();
//!     add_uniform_body_force(&mut grid, [1e-5, 0.0, 0.0]);
//!     fused_collide_stream_grid(&mut grid, &BoundaryConfig::periodic(), tau); // kernels 5+6
//!     update_velocity_shifted(&mut grid, tau); // kernel 7
//!     grid.swap_distributions(); // kernel 9
//! }
//! assert!(grid.u.iter().all(|u| u[0] > 0.0));
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

pub use boundary::BoundaryConfig;
pub use cube_grid::{CubeDims, CubeFluidGrid};
pub use distribution::{CubeDistribution, FiberDistribution, Policy, ThreadMesh};
pub use grid::{Dims, FluidGrid};
pub use lattice::Q;
