//! Integration tests: reproducibility guarantees and failure-path
//! behaviour (invalid configurations, NaN injection, instability
//! detection).

use lbm_ib::diagnostics::diagnostics;
use lbm_ib::verify::compare_states;
use lbm_ib::{
    CubeSolver, OpenMpSolver, SequentialSolver, SheetConfig, SimState, SimulationConfig, Solver,
    SolverError, TetherConfig,
};

fn cfg() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.body_force = [4e-6, 0.0, 0.0];
    c
}

#[test]
fn sequential_solver_is_bitwise_deterministic() {
    let mut a = SequentialSolver::new(cfg());
    let mut b = SequentialSolver::new(cfg());
    a.run(30);
    b.run(30);
    assert_eq!(a.state.fluid.f, b.state.fluid.f);
    assert_eq!(a.state.sheet.pos, b.state.sheet.pos);
}

#[test]
fn openmp_solver_reproducible_to_rounding() {
    // Reruns are bitwise equal (each slab spreads in global fiber order);
    // this test asks only for rounding-level agreement.
    let mut a = OpenMpSolver::new(cfg(), 4);
    let mut b = OpenMpSolver::new(cfg(), 4);
    a.run(20);
    b.run(20);
    let d = compare_states(&a.state, &b.state);
    assert!(d.within(1e-11), "{d:?}");
}

#[test]
fn cube_solver_reproducible_to_rounding() {
    let mut a = CubeSolver::new(cfg(), 4);
    let mut b = CubeSolver::new(cfg(), 4);
    a.try_run(20).unwrap();
    b.try_run(20).unwrap();
    let d = compare_states(&a.to_state(), &b.to_state());
    assert!(d.within(1e-11), "{d:?}");
}

#[test]
fn solver_state_survives_team_relaunch() {
    // run(n) spawns and joins the worker team; calling it repeatedly must
    // continue the same trajectory.
    let mut once = CubeSolver::new(cfg(), 3);
    once.try_run(12).unwrap();
    let mut resumed = CubeSolver::new(cfg(), 3);
    for _ in 0..4 {
        resumed.try_run(3).unwrap();
    }
    let d = compare_states(&once.to_state(), &resumed.to_state());
    assert!(d.within(1e-11), "{d:?}");
}

#[test]
fn invalid_configs_are_rejected_with_reasons() {
    use lbm_ib::ConfigError;

    let mut c = cfg();
    c.tau = 0.3;
    let e = c.validate().unwrap_err();
    assert!(matches!(e, ConfigError::InvalidTau { .. }), "{e}");
    assert!(e.to_string().contains("tau"));

    // Only the cube solver needs cubes: its builder, not `validate`,
    // rejects a cube edge that does not divide the grid.
    let mut c = cfg();
    c.cube_k = 7;
    c.validate().unwrap();
    let Err(e) = CubeSolver::try_from_state(SimState::new(c), 2) else {
        panic!("the cube builder accepted cube_k 7");
    };
    assert!(
        matches!(
            e,
            SolverError::Config(ConfigError::DimNotDivisibleByCube { cube_k: 7, .. })
        ),
        "{e}"
    );
    assert!(e.to_string().contains("divide"));

    let mut c = cfg();
    c.sheet.center = [8.0, 1.0, 8.0];
    let e = c.validate().unwrap_err();
    assert!(matches!(e, ConfigError::SheetNearWall { .. }), "{e}");
    assert!(e.to_string().contains("wall"));

    let mut c = cfg();
    c.body_force = [1.0, 0.0, 0.0];
    let e = c.validate().unwrap_err();
    assert!(matches!(e, ConfigError::UnstableBodyForce { .. }), "{e}");
    assert!(e.to_string().contains("unstable"));

    let mut c = cfg();
    c.sheet.num_fibers = 1;
    assert!(c.validate().is_err());
}

#[test]
fn nan_injection_is_detected_by_diagnostics() {
    let mut s = SequentialSolver::new(cfg());
    s.run(5);
    s.state.fluid.f[123] = f64::NAN;
    // One more step propagates the NaN into macroscopic fields.
    s.run(1);
    let d = diagnostics(&s.state);
    assert!(d.nan_detected);
    assert!(d.check_stability(1.0).is_err());
}

#[test]
fn runaway_stiffness_is_flagged_not_silent() {
    // Absurd stiffness with a large time step destabilises the structure;
    // the stability check must catch it (velocity blow-up or NaN) within a
    // bounded number of steps rather than silently producing garbage.
    let mut c = cfg();
    c.body_force = [1e-5, 0.0, 0.0];
    c.sheet = SheetConfig {
        k_bend: 50.0,
        k_stretch: 500.0,
        tether: TetherConfig::None,
        ..SheetConfig::square(8, 4.0, [8.0, 8.0, 8.0])
    };
    // Deliberately skip validate(): we are testing runtime detection.
    let mut s = SequentialSolver::new(c);
    let m0 = s.state.fluid.total_mass();
    let mut caught = false;
    for _ in 0..200 {
        s.step();
        if diagnostics(&s.state).check_stability(m0).is_err() {
            caught = true;
            break;
        }
    }
    assert!(caught, "instability was never detected");
}

#[test]
fn zero_body_force_stays_exactly_quiescent() {
    let mut c = cfg();
    c.body_force = [0.0; 3];
    let mut s = SequentialSolver::new(c);
    s.run(20);
    // Flat sheet at rest exerts no force; no driving force → no motion.
    assert!(s.state.fluid.u.iter().all(|v| v[0].abs() < 1e-15));
    assert_eq!(s.state.sheet.pos, lbm_ib::SimState::new(c).sheet.pos);
}
