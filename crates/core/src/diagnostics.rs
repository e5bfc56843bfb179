//! Physical diagnostics of a coupled simulation: conserved quantities,
//! energy, structure geometry. Used by the examples for progress reporting
//! and by the integration tests as invariants.

use lbm::lattice::{EF, Q};

use crate::state::SimState;

/// Largest velocity magnitude considered stable. The lattice sound speed
/// is c_s = 1/√3 ≈ 0.577; beyond ~0.4 the low-Mach expansion behind BGK
/// collision is invalid and the run is already garbage. Shared with the
/// in-solver watchdog ([`crate::telemetry::Watchdog`]) so the CLI and
/// in-run checks cannot diverge.
pub const MAX_VELOCITY_LIMIT: f64 = 0.4;

/// Largest tolerated relative mass drift `|m − m₀| / m₀`. Streaming and
/// bounce-back conserve mass exactly; anything above round-off accumulation
/// means a kernel bug or blow-up. Shared with the watchdog.
pub const MASS_DRIFT_LIMIT: f64 = 1e-9;

/// A snapshot of the physically meaningful summary quantities.
#[derive(Clone, Copy, Debug)]
pub struct Diagnostics {
    pub step: u64,
    /// Total fluid mass `Σ f`.
    pub mass: f64,
    /// Total fluid momentum (from the present distributions).
    pub momentum: [f64; 3],
    /// Total kinetic energy `½ Σ ρ |u|²`.
    pub kinetic_energy: f64,
    /// Largest velocity magnitude on the grid (stability monitor; should
    /// stay well below c_s ≈ 0.577).
    pub max_velocity: f64,
    /// Fiber sheet centroid.
    pub sheet_centroid: [f64; 3],
    /// Fiber sheet bounding-box extents.
    pub sheet_extent: [f64; 3],
    /// Total elastic force currently on the structure.
    pub elastic_force: [f64; 3],
    /// True if any field contains a non-finite value.
    pub nan_detected: bool,
}

/// Computes all diagnostics for a state in one sweep over the fluid
/// nodes. The mass and momentum accumulators add the same terms in the
/// same order as [`FluidGrid::total_mass`] and
/// [`FluidGrid::total_momentum`], so they are bitwise equal to them; four
/// independent sums in one pass hide the add latency that two separate
/// sweeps over `f` each pay in full.
///
/// [`FluidGrid::total_mass`]: lbm::grid::FluidGrid::total_mass
/// [`FluidGrid::total_momentum`]: lbm::grid::FluidGrid::total_momentum
pub fn diagnostics(state: &SimState) -> Diagnostics {
    let g = &state.fluid;
    // `Sum` for f64 starts from -0.0; `total_momentum` from 0.0.
    let mut mass = -0.0;
    let mut momentum = [0.0; 3];
    let mut ke = 0.0;
    let mut max_v2 = 0.0f64;
    let mut finite = true;
    for (i, fs) in g.f.chunks_exact(Q).enumerate() {
        for (&fi, e) in fs.iter().zip(&EF) {
            mass += fi;
            momentum[0] += fi * e[0];
            momentum[1] += fi * e[1];
            momentum[2] += fi * e[2];
        }
        let (rho, [ux, uy, uz]) = (g.rho[i], g.u[i]);
        let v2 = ux * ux + uy * uy + uz * uz;
        ke += 0.5 * rho * v2;
        max_v2 = max_v2.max(v2);
        finite &= rho.is_finite() & ux.is_finite() & uy.is_finite() & uz.is_finite();
    }
    let (lo, hi) = state.sheet.bounding_box();
    Diagnostics {
        step: state.step,
        mass,
        momentum,
        kinetic_energy: ke,
        max_velocity: max_v2.sqrt(),
        sheet_centroid: state.sheet.centroid(),
        sheet_extent: [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]],
        elastic_force: state.sheet.total_elastic_force(),
        nan_detected: !finite || state.sheet.has_nan(),
    }
}

impl Diagnostics {
    /// One-line human-readable summary for progress logs.
    pub fn summary(&self) -> String {
        format!(
            "step {:>6}  mass {:.6e}  KE {:.6e}  max|u| {:.4}  sheet x {:.3} extent ({:.2},{:.2},{:.2}){}",
            self.step,
            self.mass,
            self.kinetic_energy,
            self.max_velocity,
            self.sheet_centroid[0],
            self.sheet_extent[0],
            self.sheet_extent[1],
            self.sheet_extent[2],
            if self.nan_detected { "  [NaN!]" } else { "" }
        )
    }

    /// Checks the stability invariants, returning a description of the
    /// first violation.
    pub fn check_stability(&self, initial_mass: f64) -> Result<(), String> {
        if self.nan_detected {
            return Err(format!("NaN detected at step {}", self.step));
        }
        if self.max_velocity > MAX_VELOCITY_LIMIT {
            return Err(format!(
                "max velocity {} approaches lattice sound speed at step {}",
                self.max_velocity, self.step
            ));
        }
        // A zero/negative/non-finite reference mass would make the drift
        // ratio below NaN or ±inf, silently passing (NaN comparisons are
        // false) or spuriously failing — reject it outright.
        if !initial_mass.is_finite() || initial_mass <= 0.0 {
            return Err(format!(
                "reference mass {initial_mass} is not a positive finite value (step {})",
                self.step
            ));
        }
        let drift = (self.mass - initial_mass).abs() / initial_mass;
        if !drift.is_finite() || drift > MASS_DRIFT_LIMIT {
            return Err(format!("mass drifted by {drift:.3e} at step {}", self.step));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;
    use crate::sequential::SequentialSolver;

    #[test]
    fn quiescent_state_diagnostics() {
        let s = crate::state::SimState::new(SimulationConfig::quick_test());
        let d = diagnostics(&s);
        assert_eq!(d.step, 0);
        assert_eq!(d.kinetic_energy, 0.0);
        assert_eq!(d.max_velocity, 0.0);
        assert!(!d.nan_detected);
        let n = s.fluid.n() as f64;
        assert!((d.mass - n).abs() / n < 1e-11);
        d.check_stability(d.mass).unwrap();
    }

    #[test]
    fn diagnostics_track_simulation() {
        let mut solver = SequentialSolver::new(SimulationConfig::quick_test());
        let m0 = diagnostics(&solver.state).mass;
        solver.run(20);
        let d = diagnostics(&solver.state);
        assert_eq!(d.step, 20);
        assert!(d.kinetic_energy > 0.0, "flow started");
        assert!(d.max_velocity > 0.0 && d.max_velocity < 0.1);
        d.check_stability(m0).unwrap();
        assert!(d.summary().contains("step"));
    }

    /// The one-pass sums are bitwise those of `total_mass` and
    /// `total_momentum`, on a driven run whose momentum is non-zero.
    #[test]
    fn one_pass_sums_match_the_grid_totals_bitwise() {
        let mut config = SimulationConfig::quick_test();
        config.body_force = [2e-5, -1e-5, 5e-6];
        config.sheet.center[0] += 0.37;
        config.sheet.center[1] -= 0.21;
        let mut solver = SequentialSolver::new(config);
        solver.run(20);
        let d = diagnostics(&solver.state);
        let p = solver.state.fluid.total_momentum();
        assert!(p.iter().all(|&c| c != 0.0), "momentum {p:?}");
        assert_eq!(d.mass.to_bits(), solver.state.fluid.total_mass().to_bits());
        for c in 0..3 {
            assert_eq!(d.momentum[c].to_bits(), p[c].to_bits(), "component {c}");
        }
        assert!(!d.nan_detected);
    }

    #[test]
    fn stability_check_flags_nan() {
        let mut s = crate::state::SimState::new(SimulationConfig::quick_test());
        s.fluid.u[0][0] = f64::NAN;
        let d = diagnostics(&s);
        assert!(d.nan_detected);
        assert!(d.check_stability(d.mass.max(1.0)).is_err());
    }

    #[test]
    fn stability_check_rejects_degenerate_reference_mass() {
        let s = crate::state::SimState::new(SimulationConfig::quick_test());
        let d = diagnostics(&s);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = d.check_stability(bad).unwrap_err();
            assert!(err.contains("reference mass"), "mass {bad}: {err}");
        }
        // A sane reference still passes.
        d.check_stability(d.mass).unwrap();
    }

    #[test]
    fn stability_limits_are_named_constants() {
        assert_eq!(MAX_VELOCITY_LIMIT, 0.4);
        assert_eq!(MASS_DRIFT_LIMIT, 1e-9);
    }

    #[test]
    fn stability_check_flags_runaway_velocity() {
        let mut s = crate::state::SimState::new(SimulationConfig::quick_test());
        s.fluid.u[0][0] = 0.5;
        let d = diagnostics(&s);
        let err = d.check_stability(d.mass).unwrap_err();
        assert!(err.contains("sound speed"), "{err}");
    }
}
