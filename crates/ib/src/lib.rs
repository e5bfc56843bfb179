//! # ib — immersed boundary structure substrate
//!
//! The structure half of the LBM-IB method: flexible fiber sheets
//! ([`sheet::FiberSheet`], Figure 4 of the paper), their elastic forces
//! (kernels 1–3: [`forces`]), and the Dirac-delta coupling to the fluid —
//! force spreading (kernel 4: [`spread`]) and velocity interpolation /
//! fiber motion (kernel 8: [`interp`]). Both read one stored stencil per
//! fiber node ([`delta::CubeStencil`], built by [`delta::CubeIndexer`]), so
//! the delta kernel is evaluated once per node and step. Tether springs
//! ([`tether`]) reproduce the "fastened plate" of the paper's Figure 1.
//!
//! ## Quick example
//!
//! ```
//! use ib::delta::{CubeIndexer, CubeStencil, DeltaKind};
//! use ib::{forces, interp, sheet::FiberSheet, spread};
//! use lbm::{boundary::BoundaryConfig, grid::{Dims, FluidGrid}};
//!
//! let mut sheet = FiberSheet::paper_sheet(8, 4.0, [12.0, 12.0, 12.0], 1e-3, 0.1);
//! sheet.pos[30][0] += 0.3; // deform it
//! forces::compute_bending_force(&mut sheet);
//! forces::compute_stretching_force(&mut sheet);
//! forces::compute_elastic_force(&mut sheet);
//!
//! // One stencil per fiber node, in the flat grid's plane bricks.
//! let dims = Dims::new(24, 24, 24);
//! let bc = BoundaryConfig::periodic();
//! let mut stencils = vec![CubeStencil::default(); sheet.n()];
//! CubeIndexer::planes(dims).build(&sheet.pos, DeltaKind::Peskin4, &bc, &mut stencils);
//!
//! // Kernel 4 into the whole grid, then kernel 8 through the same stencils.
//! let mut fluid = FluidGrid::new(dims);
//! spread::spread_into_grid(&stencils, &sheet, &mut fluid);
//! interp::move_through(&mut sheet.pos, &stencils, &fluid, 1.0);
//! ```

pub mod delta;
pub mod forces;
pub mod interp;
pub mod sheet;
pub mod spread;
pub mod tether;

pub use delta::DeltaKind;
pub use sheet::FiberSheet;
pub use tether::TetherSet;
