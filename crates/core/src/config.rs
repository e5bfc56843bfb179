//! Simulation configuration: the "create the input" step of Section III-A,
//! with validation and the paper's benchmark presets.

use ib::delta::DeltaKind;
use ib::sheet::FiberSheet;
use ib::tether::TetherSet;
use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm::grid::Dims;

/// How (and whether) the sheet is anchored.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TetherConfig {
    /// Free sheet (the moving sheet of Figures 7/8).
    None,
    /// Pinned in the middle region (the fastened plate of Figure 1).
    CenterRegion { radius: f64, stiffness: f64 },
    /// Pinned along the leading edge (flag-like).
    LeadingEdge { stiffness: f64 },
}

/// Geometry and material of the immersed fiber sheet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SheetConfig {
    /// Number of fibers (and, for the paper's square sheets, nodes per
    /// fiber; the struct allows rectangles).
    pub num_fibers: usize,
    pub nodes_per_fiber: usize,
    /// Physical side lengths in lattice units (across fibers × along fibers).
    pub width: f64,
    pub height: f64,
    /// Centre of the sheet in the fluid box.
    pub center: [f64; 3],
    pub k_bend: f64,
    pub k_stretch: f64,
    pub tether: TetherConfig,
}

impl SheetConfig {
    /// The paper's square sheet: `n × n` fiber nodes over `extent × extent`.
    pub fn square(n: usize, extent: f64, center: [f64; 3]) -> Self {
        Self {
            num_fibers: n,
            nodes_per_fiber: n,
            width: extent,
            height: extent,
            center,
            k_bend: 1e-3,
            k_stretch: 3e-2,
            tether: TetherConfig::None,
        }
    }

    /// Builds the sheet and its tethers.
    pub fn build(&self) -> (FiberSheet, TetherSet) {
        let ds_node = self.height / (self.nodes_per_fiber.max(2) - 1) as f64;
        let ds_fiber = self.width / (self.num_fibers.max(2) - 1) as f64;
        let origin = [
            self.center[0],
            self.center[1] - self.height / 2.0,
            self.center[2] - self.width / 2.0,
        ];
        let sheet = FiberSheet::flat(
            self.num_fibers,
            self.nodes_per_fiber,
            origin,
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            ds_node,
            ds_fiber,
            self.k_bend,
            self.k_stretch,
        );
        let tethers = match self.tether {
            TetherConfig::None => TetherSet::none(),
            TetherConfig::CenterRegion { radius, stiffness } => {
                TetherSet::center_region(&sheet, radius, stiffness)
            }
            TetherConfig::LeadingEdge { stiffness } => TetherSet::leading_edge(&sheet, stiffness),
        };
        (sheet, tethers)
    }
}

/// Full configuration of a coupled LBM-IB simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimulationConfig {
    /// Fluid grid dimensions.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// BGK relaxation time.
    pub tau: f64,
    /// Uniform driving force (the tunnel's pressure-gradient surrogate).
    pub body_force: [f64; 3],
    /// Boundary configuration.
    pub bc: BoundaryConfig,
    /// Delta kernel for the fluid–structure coupling.
    pub delta: DeltaKind,
    /// The immersed structure.
    pub sheet: SheetConfig,
    /// Cube edge for the cube-centric solver (must divide nx, ny, nz).
    pub cube_k: usize,
    /// Which collide/stream schedule the solvers execute.
    pub plan: KernelPlan,
    /// In-solver run-health watchdog; `None` (the default) disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// Upper bound on any single blocking receive in the distributed
    /// prototype (halo exchange and velocity reduction). `None` (the
    /// default) blocks forever; with a timeout, a silent peer surfaces as
    /// [`crate::solver::SolverError::HaloTimeout`] instead of a hang.
    /// Runtime-only: not part of the checkpointed physics state.
    pub halo_timeout: Option<std::time::Duration>,
}

/// Configuration of the in-solver run-health watchdog. When enabled on a
/// [`SimulationConfig`], every [`crate::solver::Solver::run`] call checks
/// the stability invariants (NaN, mass drift, runaway velocity — the
/// shared limits in [`crate::diagnostics`]) every `check_every` steps and
/// returns [`crate::solver::SolverError::Unstable`] at the first
/// violation instead of silently producing garbage fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Check cadence in time steps (0 disables the watchdog).
    pub check_every: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { check_every: 64 }
    }
}

/// Policy driving the self-healing [`crate::supervisor::Supervisor`]:
/// how many times to retry a failing backend/mesh rung, how long to back
/// off between attempts, and whether to degrade (shrink the thread mesh,
/// fall back across backends) when the same rung keeps failing. Not part
/// of [`SimulationConfig`]: recovery is a runtime choice, like the
/// watchdog cadence, and never enters the checkpointed physics state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Failures tolerated on one rung (a fixed backend + thread mesh)
    /// before the ladder escalates — or, with [`RecoveryPolicy::degrade`]
    /// off or the ladder exhausted, before the supervisor gives up. The
    /// total attempt budget is therefore bounded by
    /// `retry_limit × number_of_rungs`.
    pub retry_limit: u32,
    /// Base delay before the first retry; doubles on every consecutive
    /// failure (jitter-free, so healed runs stay reproducible). Zero
    /// disables backoff entirely.
    pub backoff: std::time::Duration,
    /// Cap on the exponential backoff delay.
    pub max_backoff: std::time::Duration,
    /// Walk the degradation ladder (quarantine-shrink the cube mesh, then
    /// cube → omp → seq across backends) when a rung's retry budget is
    /// exhausted. Off, the supervisor retries in place and then gives up.
    pub degrade: bool,
    /// Disk anchor for rollback. When set, the supervisor saves a
    /// crash-consistent checkpoint (CRC + `.prev` rotation, see
    /// [`crate::checkpoint::save`]) after every committed chunk and rolls
    /// back through [`crate::checkpoint::resume`]; when `None`, rollback
    /// uses the in-memory last-good snapshot only.
    pub checkpoint: Option<std::path::PathBuf>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            retry_limit: 3,
            backoff: std::time::Duration::from_millis(100),
            max_backoff: std::time::Duration::from_secs(5),
            degrade: true,
            checkpoint: None,
        }
    }
}

/// Execution schedule for kernels 5 and 6. `Split` runs collision and
/// streaming as two full-grid passes (the paper's Algorithm 1, kept for
/// the Table I/II reproduction); `Fused`, the default, collides in
/// registers and pushes straight into `f_new` in one sweep (see
/// `lbm::fused`). Both produce bit-identical physics; `Fused` halves the
/// distribution-array traffic. The sequential and OpenMP solvers follow
/// the plan; [`crate::cube::CubeSolver`] and
/// [`crate::distributed::DistributedSolver`] ignore it and always run
/// fused (their `PLAN` constants).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPlan {
    /// Separate collision and streaming passes (kernels 5 then 6).
    Split,
    /// Single fused collide–stream sweep.
    #[default]
    Fused,
}

/// A configuration problem found by [`SimulationConfig::validate`] (or,
/// for the cube edge, by the cube solver's builder).
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `tau` must exceed 0.5 for a positive viscosity.
    InvalidTau { tau: f64 },
    /// One of the grid extents is zero.
    ZeroExtent { nx: usize, ny: usize, nz: usize },
    /// The cube edge is zero or does not divide every grid extent. Only
    /// the cube solver needs cubes, so [`crate::cube::CubeSolver`]'s
    /// builder reports it, not [`SimulationConfig::validate`].
    DimNotDivisibleByCube {
        cube_k: usize,
        nx: usize,
        ny: usize,
        nz: usize,
    },
    /// The sheet has fewer than 2×2 fiber nodes.
    EmptySheet {
        num_fibers: usize,
        nodes_per_fiber: usize,
    },
    /// The sheet (plus delta support) reaches into a wall.
    SheetNearWall {
        axis: usize,
        lo: f64,
        hi: f64,
        margin: f64,
    },
    /// The sheet centre is nowhere near the fluid box.
    SheetOutsideBox { axis: usize },
    /// The driving force implies an unstable channel velocity.
    UnstableBodyForce { g: f64, umax: f64 },
    /// Several independent problems; `validate` reports all of them.
    Multiple(Vec<ConfigError>),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidTau { tau } => {
                write!(f, "invalid configuration: tau = {tau} must exceed 0.5")
            }
            ConfigError::ZeroExtent { nx, ny, nz } => write!(
                f,
                "invalid configuration: grid extents {nx}x{ny}x{nz} must be positive"
            ),
            ConfigError::DimNotDivisibleByCube {
                cube_k,
                nx,
                ny,
                nz,
            } => write!(
                f,
                "invalid configuration: cube edge {cube_k} must divide grid {nx}x{ny}x{nz}"
            ),
            ConfigError::EmptySheet {
                num_fibers,
                nodes_per_fiber,
            } => write!(
                f,
                "invalid configuration: sheet is {num_fibers}x{nodes_per_fiber}, needs at least 2x2 fiber nodes"
            ),
            ConfigError::SheetNearWall {
                axis,
                lo,
                hi,
                margin,
            } => write!(
                f,
                "invalid configuration: sheet spans [{lo}, {hi}] on axis {axis}, too close to the walls (margin {margin})"
            ),
            ConfigError::SheetOutsideBox { axis } => write!(
                f,
                "invalid configuration: sheet wildly outside the box on axis {axis}"
            ),
            ConfigError::UnstableBodyForce { g, umax } => write!(
                f,
                "invalid configuration: body force {g} implies steady channel velocity {umax:.3} — unstable (reduce g or grid)"
            ),
            ConfigError::Multiple(errors) => {
                write!(f, "invalid configuration: {} problems: ", errors.len())?;
                for (k, e) in errors.iter().enumerate() {
                    if k > 0 {
                        write!(f, "; ")?;
                    }
                    // Strip the common prefix for readability.
                    let s = e.to_string();
                    write!(
                        f,
                        "{}",
                        s.strip_prefix("invalid configuration: ").unwrap_or(&s)
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl SimulationConfig {
    /// Grid dimensions as a [`Dims`].
    pub fn dims(&self) -> Dims {
        Dims::new(self.nx, self.ny, self.nz)
    }

    /// Checks physical and geometric sanity. Returns the single problem
    /// found, or [`ConfigError::Multiple`] listing every problem.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut problems = Vec::new();
        if self.tau <= 0.5 {
            problems.push(ConfigError::InvalidTau { tau: self.tau });
        }
        if self.nx == 0 || self.ny == 0 || self.nz == 0 {
            problems.push(ConfigError::ZeroExtent {
                nx: self.nx,
                ny: self.ny,
                nz: self.nz,
            });
        }
        if self.sheet.num_fibers < 2 || self.sheet.nodes_per_fiber < 2 {
            problems.push(ConfigError::EmptySheet {
                num_fibers: self.sheet.num_fibers,
                nodes_per_fiber: self.sheet.nodes_per_fiber,
            });
        }
        // The sheet (plus the delta support) must fit inside the box; on
        // wall axes force would otherwise leak through the clipping.
        let margin = self.delta.half_support();
        let half = [0.0, self.sheet.height / 2.0, self.sheet.width / 2.0];
        let ext = [self.nx as f64, self.ny as f64, self.nz as f64];
        let walls = [
            !matches!(self.bc.x, AxisBoundary::Periodic),
            !matches!(self.bc.y, AxisBoundary::Periodic),
            !matches!(self.bc.z, AxisBoundary::Periodic),
        ];
        for a in 0..3 {
            let lo = self.sheet.center[a] - half[a];
            let hi = self.sheet.center[a] + half[a];
            if walls[a] && (lo < margin || hi > ext[a] - 1.0 - margin) {
                problems.push(ConfigError::SheetNearWall {
                    axis: a,
                    lo,
                    hi,
                    margin,
                });
            }
            if lo < -ext[a] || hi > 2.0 * ext[a] {
                problems.push(ConfigError::SheetOutsideBox { axis: a });
            }
        }
        // Crude velocity-scale check: a steady channel driven by g reaches
        // u_max = g ny² / (8 ν); keep it below ~0.1 c_s for stability.
        // Meaningless when tau is already invalid (ν ≤ 0).
        if self.tau > 0.5 {
            let nu = (self.tau - 0.5) / 3.0;
            let g = self.body_force.iter().map(|c| c.abs()).fold(0.0, f64::max);
            let umax = g * (self.ny as f64) * (self.ny as f64) / (8.0 * nu);
            if umax > 0.17 {
                problems.push(ConfigError::UnstableBodyForce { g, umax });
            }
        }
        if problems.len() > 1 {
            return Err(ConfigError::Multiple(problems));
        }
        problems.pop().map_or(Ok(()), Err)
    }

    /// Starts a [`ConfigBuilder`] seeded with the
    /// [`SimulationConfig::quick_test`] defaults; `build()` validates.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            config: Self::quick_test(),
        }
    }

    /// A small, fast configuration for unit and integration tests.
    pub fn quick_test() -> Self {
        Self {
            nx: 24,
            ny: 16,
            nz: 16,
            tau: 0.8,
            body_force: [1e-6, 0.0, 0.0],
            bc: BoundaryConfig::tunnel(),
            delta: DeltaKind::Peskin4,
            sheet: SheetConfig {
                k_bend: 1e-4,
                k_stretch: 1e-2,
                ..SheetConfig::square(8, 4.0, [8.0, 8.0, 8.0])
            },
            cube_k: 4,
            plan: KernelPlan::default(),
            watchdog: None,
            halo_timeout: None,
        }
    }

    /// [`Self::quick_test`] on a 16³ box with a dense sheet: 24×24 fiber
    /// nodes over 8 lattice units in the low x-half, on cubes of edge 2.
    /// All the sheet's cubes lie in one x-half, yet at 2–5 threads the
    /// cube solver's loop-3 owners and the OpenMP solver's spread slabs,
    /// both cut by stencil points, are cut inside its stencils.
    pub fn dense_sheet_test() -> Self {
        let quick = Self::quick_test();
        Self {
            nx: 16,
            ny: 16,
            nz: 16,
            cube_k: 2,
            sheet: SheetConfig {
                k_bend: quick.sheet.k_bend,
                k_stretch: quick.sheet.k_stretch,
                ..SheetConfig::square(24, 8.0, [4.3, 8.2, 7.9])
            },
            ..quick
        }
    }

    /// The Table I / Figure 5 input: 124×64×64 fluid nodes, a 20×20 sheet
    /// of 52×52 fiber nodes. (124 = 4·31, so the default cube edge is 4.)
    pub fn table1() -> Self {
        Self {
            nx: 124,
            ny: 64,
            nz: 64,
            tau: 0.8,
            body_force: [5e-7, 0.0, 0.0],
            bc: BoundaryConfig::tunnel(),
            delta: DeltaKind::Peskin4,
            sheet: SheetConfig {
                tether: TetherConfig::CenterRegion {
                    radius: 5.0,
                    stiffness: 5e-2,
                },
                ..SheetConfig::square(52, 20.0, [30.0, 32.0, 32.0])
            },
            cube_k: 4,
            plan: KernelPlan::Split,
            watchdog: None,
            halo_timeout: None,
        }
    }

    /// The Figure 8 weak-scaling input for a given core count: the
    /// single-core grid is 128³ and doubles with the cores
    /// (x first, then y, then z, as in the paper), sheet fixed at 104×104
    /// fiber nodes.
    pub fn fig8(cores: usize) -> Self {
        assert!(
            cores.is_power_of_two() && cores >= 1,
            "cores must be a power of two"
        );
        let mut dims = [128usize, 128, 128];
        let mut c = cores;
        let mut axis = 0;
        while c > 1 {
            dims[axis] *= 2;
            axis = (axis + 1) % 3;
            c /= 2;
        }
        Self {
            nx: dims[0],
            ny: dims[1],
            nz: dims[2],
            tau: 0.8,
            body_force: [2e-8, 0.0, 0.0],
            bc: BoundaryConfig::tunnel(),
            delta: DeltaKind::Peskin4,
            sheet: SheetConfig::square(
                104,
                40.0,
                [
                    dims[0] as f64 / 4.0,
                    dims[1] as f64 / 2.0,
                    dims[2] as f64 / 2.0,
                ],
            ),
            cube_k: 4,
            plan: KernelPlan::default(),
            watchdog: None,
            halo_timeout: None,
        }
    }

    /// Like [`SimulationConfig::fig8`] but scaled down by `shrink` along
    /// every dimension, for machines where a 128³ × cores run is too slow.
    pub fn fig8_scaled(cores: usize, shrink: usize) -> Self {
        let mut c = Self::fig8(cores);
        c.nx = (c.nx / shrink).max(c.cube_k * 2);
        c.ny = (c.ny / shrink).max(c.cube_k * 2);
        c.nz = (c.nz / shrink).max(c.cube_k * 2);
        let n = (104 / shrink).max(8);
        c.sheet = SheetConfig::square(
            n,
            (40.0 / shrink as f64).max(4.0),
            [c.nx as f64 / 4.0, c.ny as f64 / 2.0, c.nz as f64 / 2.0],
        );
        c
    }
}

/// Fluent construction of a [`SimulationConfig`] that defers every check
/// to [`ConfigBuilder::build`], so callers get a `Result` instead of the
/// panics the raw struct mutation style can run into later.
///
/// ```
/// use lbm_ib::config::{KernelPlan, SimulationConfig};
/// let config = SimulationConfig::builder()
///     .dims(32, 16, 16)
///     .tau(0.9)
///     .plan(KernelPlan::Fused)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.nx, 32);
/// ```
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    config: SimulationConfig,
}

impl ConfigBuilder {
    /// Sets all three grid extents.
    pub fn dims(mut self, nx: usize, ny: usize, nz: usize) -> Self {
        self.config.nx = nx;
        self.config.ny = ny;
        self.config.nz = nz;
        self
    }

    /// Sets the BGK relaxation time.
    pub fn tau(mut self, tau: f64) -> Self {
        self.config.tau = tau;
        self
    }

    /// Sets the uniform driving force.
    pub fn body_force(mut self, g: [f64; 3]) -> Self {
        self.config.body_force = g;
        self
    }

    /// Sets the boundary configuration.
    pub fn bc(mut self, bc: BoundaryConfig) -> Self {
        self.config.bc = bc;
        self
    }

    /// Sets the delta kernel for the fluid–structure coupling.
    pub fn delta(mut self, delta: DeltaKind) -> Self {
        self.config.delta = delta;
        self
    }

    /// Sets the immersed sheet.
    pub fn sheet(mut self, sheet: SheetConfig) -> Self {
        self.config.sheet = sheet;
        self
    }

    /// Sets the cube edge for the cube-centric solver.
    pub fn cube_k(mut self, k: usize) -> Self {
        self.config.cube_k = k;
        self
    }

    /// Sets the collide/stream schedule.
    pub fn plan(mut self, plan: KernelPlan) -> Self {
        self.config.plan = plan;
        self
    }

    /// Enables (or disables, with `None`) the in-solver health watchdog.
    pub fn watchdog(mut self, watchdog: Option<WatchdogConfig>) -> Self {
        self.config.watchdog = watchdog;
        self
    }

    /// Sets the distributed halo-exchange receive timeout (`None` waits
    /// forever, the historical behaviour).
    pub fn halo_timeout(mut self, halo_timeout: Option<std::time::Duration>) -> Self {
        self.config.halo_timeout = halo_timeout;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SimulationConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimulationConfig::quick_test().validate().unwrap();
        SimulationConfig::table1().validate().unwrap();
        for cores in [1, 2, 4, 8, 16, 32, 64] {
            SimulationConfig::fig8(cores).validate().unwrap();
            SimulationConfig::fig8_scaled(cores, 8).validate().unwrap();
        }
    }

    #[test]
    fn table1_matches_paper_input() {
        let c = SimulationConfig::table1();
        assert_eq!((c.nx, c.ny, c.nz), (124, 64, 64));
        assert_eq!(c.sheet.num_fibers, 52);
        assert_eq!(c.sheet.nodes_per_fiber, 52);
        assert!((c.sheet.width - 20.0).abs() < 1e-12);
        let (sheet, tethers) = c.sheet.build();
        assert_eq!(sheet.n(), 52 * 52);
        assert!(
            !tethers.is_empty(),
            "Table I plate is fastened in the middle"
        );
    }

    #[test]
    fn fig8_doubles_grid_with_cores() {
        let c1 = SimulationConfig::fig8(1);
        assert_eq!((c1.nx, c1.ny, c1.nz), (128, 128, 128));
        let c2 = SimulationConfig::fig8(2);
        assert_eq!((c2.nx, c2.ny, c2.nz), (256, 128, 128));
        let c4 = SimulationConfig::fig8(4);
        assert_eq!((c4.nx, c4.ny, c4.nz), (256, 256, 128));
        let c8 = SimulationConfig::fig8(8);
        assert_eq!((c8.nx, c8.ny, c8.nz), (256, 256, 256));
        let c64 = SimulationConfig::fig8(64);
        assert_eq!(
            c64.nx * c64.ny * c64.nz,
            64 * 128 * 128 * 128,
            "total nodes scale with cores"
        );
        // Fixed sheet size across the sweep.
        assert_eq!(c64.sheet.num_fibers, 104);
    }

    #[test]
    fn bad_tau_rejected() {
        let mut c = SimulationConfig::quick_test();
        c.tau = 0.5;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::InvalidTau { tau: 0.5 });
        assert!(err.to_string().contains("tau"), "{err}");
    }

    /// The cube solver's builder on `c`, with the error it returns.
    fn cube_build_error(c: SimulationConfig) -> crate::solver::SolverError {
        let state = crate::state::SimState::new(c);
        match crate::cube::CubeSolver::try_from_state(state, 2) {
            Ok(_) => panic!("the cube builder accepted {c:?}"),
            Err(e) => e,
        }
    }

    /// Only the cube solver needs cubes: `validate` accepts a cube edge
    /// that does not divide the grid, and the cube builder rejects it.
    #[test]
    fn indivisible_cube_rejected() {
        let mut c = SimulationConfig::quick_test();
        c.cube_k = 5;
        c.validate().unwrap();
        cube_build_error(c);
    }

    #[test]
    fn sheet_near_wall_rejected() {
        let mut c = SimulationConfig::quick_test();
        c.sheet.center[1] = 1.0; // sheet half-height 2 + delta support 2 > 1
        assert!(c.validate().is_err());
    }

    #[test]
    fn excessive_body_force_rejected() {
        let mut c = SimulationConfig::quick_test();
        c.body_force = [1e-2, 0.0, 0.0];
        let err = c.validate().unwrap_err();
        assert!(
            matches!(err, ConfigError::UnstableBodyForce { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("unstable"), "{err}");
    }

    #[test]
    fn indivisible_cube_is_typed() {
        for k in [0, 5] {
            let mut c = SimulationConfig::quick_test();
            c.cube_k = k;
            let err = cube_build_error(c);
            assert!(
                matches!(
                    err,
                    crate::solver::SolverError::Config(ConfigError::DimNotDivisibleByCube {
                        cube_k,
                        nx: 24,
                        ny: 16,
                        nz: 16,
                    }) if cube_k == k
                ),
                "{err:?}"
            );
            let msg = format!("cube edge {k} must divide grid 24x16x16");
            assert!(err.to_string().contains(&msg), "{err}");
        }
    }

    #[test]
    fn multiple_problems_reported_together() {
        let mut c = SimulationConfig::quick_test();
        c.tau = 0.4;
        c.sheet.num_fibers = 1;
        let err = c.validate().unwrap_err();
        let ConfigError::Multiple(list) = &err else {
            panic!("expected Multiple, got {err:?}");
        };
        assert_eq!(list.len(), 2);
        let msg = err.to_string();
        assert!(msg.contains("tau") && msg.contains("sheet is 1x"), "{msg}");
    }

    #[test]
    fn builder_validates_at_build() {
        let config = SimulationConfig::builder()
            .dims(32, 16, 16)
            .tau(0.9)
            .plan(KernelPlan::Fused)
            .build()
            .unwrap();
        assert_eq!((config.nx, config.ny, config.nz), (32, 16, 16));
        assert_eq!(config.plan, KernelPlan::Fused);

        let err = SimulationConfig::builder().tau(0.3).build().unwrap_err();
        assert_eq!(err, ConfigError::InvalidTau { tau: 0.3 });
    }

    #[test]
    fn plan_defaults_to_fused_except_for_table1() {
        assert_eq!(KernelPlan::default(), KernelPlan::Fused);
        assert_eq!(SimulationConfig::quick_test().plan, KernelPlan::Fused);
        assert_eq!(SimulationConfig::fig8(1).plan, KernelPlan::Fused);
        assert_eq!(SimulationConfig::table1().plan, KernelPlan::Split);
    }

    #[test]
    fn watchdog_defaults_off_and_builds_on() {
        assert_eq!(SimulationConfig::quick_test().watchdog, None);
        assert_eq!(WatchdogConfig::default().check_every, 64);
        let c = SimulationConfig::builder()
            .watchdog(Some(WatchdogConfig { check_every: 10 }))
            .build()
            .unwrap();
        assert_eq!(c.watchdog, Some(WatchdogConfig { check_every: 10 }));
    }

    #[test]
    fn sheet_config_build_geometry() {
        let sc = SheetConfig::square(5, 8.0, [10.0, 12.0, 14.0]);
        let (sheet, _) = sc.build();
        let (lo, hi) = sheet.bounding_box();
        assert!((lo[1] - 8.0).abs() < 1e-12 && (hi[1] - 16.0).abs() < 1e-12);
        assert!((lo[2] - 10.0).abs() < 1e-12 && (hi[2] - 18.0).abs() < 1e-12);
        assert!((lo[0] - 10.0).abs() < 1e-12 && (hi[0] - 10.0).abs() < 1e-12);
        assert!((sheet.ds_node - 2.0).abs() < 1e-12);
    }

    #[test]
    fn config_is_copy_and_debug() {
        // The config stays a cheap Copy value that workers can capture by
        // value without reference counting.
        fn assert_copy<T: Copy + Send + Sync + 'static>() {}
        assert_copy::<SimulationConfig>();
        let c = SimulationConfig::table1();
        let c2 = c;
        assert_eq!(format!("{c:?}"), format!("{c2:?}"));
    }
}
