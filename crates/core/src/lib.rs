//! # lbm-ib — the coupled LBM-IB fluid–structure interaction library
//!
//! Rust reproduction of *"LBM-IB: A Parallel Library to Solve 3D
//! Fluid-Structure Interaction Problems on Manycore Systems"* (Nagar, Song,
//! Zhu, Lin — ICPP 2015). Three solvers share one configuration and one
//! physics:
//!
//! * [`sequential::SequentialSolver`] — Algorithm 1, the nine kernels.
//! * [`openmp::OpenMpSolver`] — Section IV's loop-parallel design (one
//!   [`team::Team`] run per parallel region standing in for OpenMP, static
//!   x-slab schedule).
//! * [`cube::CubeSolver`] — Section V's cube-centric data-centric design:
//!   a kept worker team, cube-blocked storage, `cube2thread`
//!   distribution, lock-free spreading (each cube owner applies every
//!   fiber node's stencil to its own cubes) and three barriers per step
//!   (Algorithm 4).
//!
//! Supporting machinery: per-thread telemetry (the gprof/OmpP replacement
//! behind Tables I–II), cross-solver verification, diagnostics, and
//! CSV/VTK output.
//!
//! ## Quick example
//!
//! All four drivers implement the [`solver::Solver`] trait, so generic
//! code holds a `Box<dyn Solver>` and never matches on the kind:
//!
//! ```
//! use lbm_ib::solver::build_solver;
//! use lbm_ib::{SimState, SimulationConfig};
//!
//! let config = SimulationConfig::quick_test();
//! let mut solver = build_solver("seq", SimState::new(config), 1)?;
//! solver.set_telemetry(true);
//! let report = solver.run(5)?;
//! assert_eq!(report.steps, 5);
//! assert!(!solver.to_state().has_nan());
//! let telemetry = report.telemetry.expect("telemetry is on");
//! println!("{}", telemetry.table()); // the Table I layout
//!
//! // A loop that looks at the state at every chunk boundary gathers into
//! // one caller-owned state, which keeps its buffers across calls.
//! let mut state = SimState::empty();
//! for _ in 0..3 {
//!     solver.run(2)?;
//!     solver.to_state_into(&mut state);
//! }
//! assert_eq!(state.step, 11);
//! # Ok::<(), lbm_ib::solver::SolverError>(())
//! ```
//!
//! [`solver::Backend`] is the typed `seq|omp|cube|dist` name
//! (`"cube".parse::<Backend>()?.build(state, threads)` is what
//! `build_solver` does). [`solver::run_chunks`] is the one chunk driver:
//! it advances a solver to every absolute multiple of its cadences and
//! to the end of the call, running a hook at each stop. The in-solver
//! watchdog, the CLI's progress lines and periodic checkpoints all run
//! through it. A stop that needs the flat state gathers it with
//! [`solver::Solver::to_state_into`] into a state the caller keeps (the
//! watchdog keeps one per `run` call, the supervisor its rollback anchor,
//! the CLI one per run), so a boundary costs a copy, not a fresh
//! allocation.

pub mod barrier;
pub mod checkpoint;
pub mod config;
pub mod cube;
pub mod diagnostics;
pub mod distributed;
pub mod faultinject;
pub mod kernels;
pub mod openmp;
pub mod output;
pub mod profiling;
#[cfg(feature = "racecheck")]
pub mod racecheck;
pub mod sequential;
pub mod sharedgrid;
pub mod solver;
pub mod state;
pub mod supervisor;
pub mod sync_shim;
pub mod team;
pub mod telemetry;
pub mod tuning;
pub mod verify;

pub use checkpoint::{CheckpointError, ResumeSource};
pub use config::{
    ConfigError, KernelPlan, RecoveryPolicy, SheetConfig, SimulationConfig, TetherConfig,
    WatchdogConfig,
};
pub use cube::CubeSolver;
pub use distributed::DistributedSolver;
pub use openmp::OpenMpSolver;
pub use output::OutputError;
pub use sequential::SequentialSolver;
pub use solver::{build_solver, run_chunks, Backend, RunReport, Solver, SolverError};
pub use state::SimState;
pub use supervisor::{metrics_document, RecoveryAction, RecoveryEvent, RecoveryReport, Supervisor};
pub use telemetry::{RunTelemetry, ThreadTelemetry, Watchdog};
