//! The complete state of a coupled LBM-IB simulation: the Eulerian fluid
//! grid plus the Lagrangian structure, as created by the paper's
//! `create_fluid_grid()` and `create_fiber_shape()`.

use ib::sheet::FiberSheet;
use ib::tether::TetherSet;
use lbm::grid::FluidGrid;
use lbm::macroscopic::initialize_equilibrium;

use crate::config::{ConfigError, SimulationConfig};

/// Coupled simulation state in the flat (node-major) layout used by the
/// sequential and OpenMP-style solvers. The cube solver converts to/from
/// cube-blocked storage at its boundary.
///
/// `clone_from` copies into the target's existing buffers, which is how
/// the flat solvers implement [`crate::solver::Solver::to_state_into`].
#[derive(Debug)]
pub struct SimState {
    pub config: SimulationConfig,
    pub fluid: FluidGrid,
    pub sheet: FiberSheet,
    pub tethers: TetherSet,
    /// Completed time steps.
    pub step: u64,
}

impl Clone for SimState {
    fn clone(&self) -> Self {
        let mut out = Self::empty();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        self.config = src.config;
        self.fluid.clone_from(&src.fluid);
        self.sheet.clone_from(&src.sheet);
        self.tethers.clone_from(&src.tethers);
        self.step = src.step;
    }
}

impl SimState {
    /// A state with no fluid nodes and no structure, allocating nothing:
    /// the target a first [`crate::solver::Solver::to_state_into`] fills.
    /// Its config is a placeholder (`quick_test`) until then.
    pub fn empty() -> Self {
        Self {
            config: SimulationConfig::quick_test(),
            fluid: FluidGrid::empty(),
            sheet: FiberSheet::default(),
            tethers: TetherSet::none(),
            step: 0,
        }
    }

    /// Builds the initial state: fluid at rest at unit density, sheet flat
    /// at its configured position. Panics on an invalid configuration —
    /// use [`SimState::try_new`] to get the validation problem as a value.
    pub fn new(config: SimulationConfig) -> Self {
        Self::try_new(config).expect("invalid simulation configuration")
    }

    /// Like [`SimState::new`] but returns the validation problem instead
    /// of panicking. Every library and CLI construction path routes
    /// through here; only `new` converts the error into a panic.
    pub fn try_new(config: SimulationConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut fluid = FluidGrid::new(config.dims());
        initialize_equilibrium(&mut fluid, |_, _, _| 1.0, |_, _, _| [0.0; 3]);
        let (sheet, tethers) = config.sheet.build();
        Ok(Self {
            config,
            fluid,
            sheet,
            tethers,
            step: 0,
        })
    }

    /// True if any fluid or structure value has gone non-finite.
    pub fn has_nan(&self) -> bool {
        self.sheet.has_nan()
            || self.fluid.rho.iter().any(|v| !v.is_finite())
            || self.fluid.u.as_flattened().iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
impl SimState {
    /// Every field of the state as exact bits (the small parts as their
    /// `Debug` text, which round-trips `f64`), for bitwise comparisons.
    pub(crate) fn fingerprint(&self) -> (String, Vec<Vec<u64>>) {
        let (g, sh) = (&self.fluid, &self.sheet);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut arrays: Vec<Vec<u64>> = [&g.f, &g.f_new, &g.rho].map(|v| bits(v)).into();
        arrays.extend(
            [
                &g.u,
                &g.ueq,
                &g.force,
                &sh.pos,
                &sh.bending,
                &sh.stretching,
                &sh.elastic,
            ]
            .into_iter()
            .map(|v| bits(v.as_flattened())),
        );
        let header = format!(
            "{:?} {:?} step {} sheet {}x{} {:?} {:?}",
            self.config,
            g.dims,
            self.step,
            sh.num_fibers,
            sh.nodes_per_fiber,
            [sh.ds_node, sh.ds_fiber, sh.k_bend, sh.k_stretch],
            self.tethers
        );
        (header, arrays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_state_is_quiescent_and_consistent() {
        let s = SimState::new(SimulationConfig::quick_test());
        assert_eq!(s.step, 0);
        assert!(!s.has_nan());
        assert!(s.fluid.u.iter().all(|&v| v == [0.0; 3]));
        let n = s.fluid.n() as f64;
        assert!((s.fluid.total_mass() - n).abs() / n < 1e-11);
        assert_eq!(s.sheet.n(), 8 * 8);
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration")]
    fn invalid_config_panics() {
        let mut c = SimulationConfig::quick_test();
        c.tau = 0.1;
        SimState::new(c);
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        let mut c = SimulationConfig::quick_test();
        c.tau = 0.2;
        assert!(matches!(
            SimState::try_new(c),
            Err(ConfigError::InvalidTau { .. })
        ));
        assert!(SimState::try_new(SimulationConfig::quick_test()).is_ok());
    }

    #[test]
    fn nan_detection_covers_fluid() {
        let mut s = SimState::new(SimulationConfig::quick_test());
        s.fluid.rho[5] = f64::NAN;
        assert!(s.has_nan());
    }

    #[test]
    fn nan_detection_covers_all_velocity_components() {
        // uy/uz used to be skipped, so a NaN confined to them went unseen.
        for field in 0..3 {
            let mut s = SimState::new(SimulationConfig::quick_test());
            s.fluid.u[2][field] = [f64::NAN, f64::NAN, f64::INFINITY][field];
            assert!(s.has_nan(), "component {field} not detected");
        }
    }
}
