//! Integration tests for multi-structure composition: the hand-rolled
//! kernel loop (as used by `examples/two_sheets.rs`) must match the
//! high-level `SequentialSolver` exactly in the single-structure case, and
//! multiple structures must interact with the fluid conservatively.

use ib::delta::DeltaKind;
use ib::forces;
use ib::interp;
use ib::sheet::FiberSheet;
use ib::spread;
use ib::tether::TetherSet;
use lbm::boundary::{add_uniform_body_force, stream_push_bounded, BoundaryConfig};
use lbm::collision::collide_shifted_slab;
use lbm::grid::{Dims, FluidGrid};
use lbm::macroscopic::{initialize_equilibrium, update_velocity_shifted};
use lbm_ib::{SequentialSolver, SimulationConfig};

struct HandRolled {
    fluid: FluidGrid,
    bodies: Vec<(FiberSheet, TetherSet)>,
    bc: BoundaryConfig,
    delta: DeltaKind,
    tau: f64,
    body_force: [f64; 3],
}

impl HandRolled {
    fn new(dims: Dims, bodies: Vec<(FiberSheet, TetherSet)>, tau: f64, g: [f64; 3]) -> Self {
        let mut fluid = FluidGrid::new(dims);
        initialize_equilibrium(&mut fluid, |_, _, _| 1.0, |_, _, _| [0.0; 3]);
        Self {
            fluid,
            bodies,
            bc: BoundaryConfig::tunnel(),
            delta: DeltaKind::Peskin4,
            tau,
            body_force: g,
        }
    }

    fn step(&mut self) {
        for (sheet, tethers) in self.bodies.iter_mut() {
            forces::compute_bending_force(sheet);
            forces::compute_stretching_force(sheet);
            forces::compute_elastic_force(sheet);
            tethers.apply(sheet);
        }
        self.fluid.clear_force();
        add_uniform_body_force(&mut self.fluid, self.body_force);
        let dims = self.fluid.dims;
        for (sheet, _) in &self.bodies {
            spread::spread_forces(sheet, self.delta, dims, &self.bc, &mut self.fluid);
        }
        collide_shifted_slab(&mut self.fluid.slab_mut(), self.tau);
        stream_push_bounded(&mut self.fluid, &self.bc);
        update_velocity_shifted(&mut self.fluid, self.tau);
        for (sheet, _) in self.bodies.iter_mut() {
            interp::move_fibers(sheet, self.delta, dims, &self.bc, &self.fluid, 1.0);
        }
        self.fluid.copy_distributions();
    }
}

#[test]
fn hand_rolled_loop_matches_sequential_solver() {
    // One structure: the composition used by the two_sheets example must be
    // *exactly* the SequentialSolver's step.
    let config = SimulationConfig::quick_test();
    let mut solver = SequentialSolver::new(config);
    let (sheet, tethers) = config.sheet.build();
    let mut hand = HandRolled::new(
        config.dims(),
        vec![(sheet, tethers)],
        config.tau,
        config.body_force,
    );

    for _ in 0..12 {
        solver.step();
        hand.step();
    }
    let max_f = solver
        .state
        .fluid
        .f
        .iter()
        .zip(&hand.fluid.f)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_f < 1e-14,
        "hand-rolled loop diverged from the solver: {max_f}"
    );
    for (a, b) in solver.state.sheet.pos.iter().zip(&hand.bodies[0].0.pos) {
        for c in 0..3 {
            assert!((a[c] - b[c]).abs() < 1e-14);
        }
    }
}

#[test]
fn two_structures_conserve_mass_and_stay_finite() {
    let dims = Dims::new(32, 16, 16);
    let a = FiberSheet::paper_sheet(8, 4.0, [10.0, 8.0, 8.0], 2e-4, 3e-2);
    let ta = TetherSet::center_region(&a, 1.5, 0.1);
    let b = FiberSheet::paper_sheet(6, 3.0, [20.0, 8.0, 8.0], 3e-4, 3e-2);
    let mut sim = HandRolled::new(
        dims,
        vec![(a, ta), (b, TetherSet::none())],
        0.8,
        [5e-6, 0.0, 0.0],
    );
    let m0 = sim.fluid.total_mass();
    for _ in 0..80 {
        sim.step();
    }
    let m1 = sim.fluid.total_mass();
    let drift = ((m1 - m0) / m0).abs();
    assert!(drift < 1e-11, "mass drift with two bodies: {drift:.3e}");
    assert!(!sim.bodies.iter().any(|(s, _)| s.has_nan()));
    // The free downstream body must advect; the tethered one must not.
    assert!(sim.bodies[1].0.centroid()[0] > 20.0);
    assert!((sim.bodies[0].0.centroid()[0] - 10.0).abs() < 0.3);
}

#[test]
fn upstream_body_shadows_downstream_body() {
    // Physical coupling across structures: with a large stiff plate held
    // upstream, the downstream sheet sees a slower flow and advects less
    // than it would alone.
    let dims = Dims::new(40, 16, 16);
    let g = [6e-6, 0.0, 0.0];
    let free = || FiberSheet::paper_sheet(8, 4.0, [24.0, 8.0, 8.0], 3e-4, 3e-2);

    let mut alone = HandRolled::new(dims, vec![(free(), TetherSet::none())], 0.8, g);
    for _ in 0..150 {
        alone.step();
    }
    let drift_alone = alone.bodies[0].0.centroid()[0] - 24.0;

    let plate = FiberSheet::paper_sheet(12, 9.0, [10.0, 8.0, 8.0], 1e-3, 5e-2);
    let tp = TetherSet::center_region(&plate, 100.0, 0.3); // rigidly held
    let mut shadowed =
        HandRolled::new(dims, vec![(plate, tp), (free(), TetherSet::none())], 0.8, g);
    for _ in 0..150 {
        shadowed.step();
    }
    let drift_shadowed = shadowed.bodies[1].0.centroid()[0] - 24.0;

    assert!(drift_alone > 0.0);
    assert!(
        drift_shadowed < drift_alone,
        "plate should slow the downstream sheet: alone {drift_alone}, shadowed {drift_shadowed}"
    );
}
