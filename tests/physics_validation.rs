//! Integration tests: the coupled LBM-IB solvers against physics —
//! conservation laws, analytic flows (the decaying Taylor–Green vortex and
//! Poiseuille channel flow, run through `SequentialSolver` with an inert
//! sheet), and the qualitative behaviour of the immersed structure.

use lbm::analytic::{kinetic_energy, velocity_l2_error, Poiseuille, TaylorGreen};
use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm::macroscopic::initialize_equilibrium;
use lbm_ib::diagnostics::diagnostics;
use lbm_ib::{SequentialSolver, SheetConfig, SimulationConfig, TetherConfig};

/// A 2×2 sheet with zero stiffness centred at `center`: its forces are
/// exactly zero, so spreading adds nothing and the solver runs the plain
/// fluid kernels.
fn inert_sheet(center: [f64; 3]) -> SheetConfig {
    SheetConfig {
        k_bend: 0.0,
        k_stretch: 0.0,
        ..SheetConfig::square(2, 1.0, center)
    }
}

/// Kinematic viscosity `ν = (τ − ½)/3` of a configuration.
fn viscosity(cfg: &SimulationConfig) -> f64 {
    (cfg.tau - 0.5) / 3.0
}

/// `SequentialSolver` on a periodic `n × n × 1` box at τ = 0.8 with no
/// body force, started at equilibrium on the Taylor–Green field of peak
/// velocity `u0` at t = 0.
fn taylor_green(n: usize, u0: f64) -> (SequentialSolver, TaylorGreen) {
    let cfg = SimulationConfig {
        nx: n,
        ny: n,
        nz: 1,
        tau: 0.8,
        body_force: [0.0; 3],
        bc: BoundaryConfig::periodic(),
        sheet: inert_sheet([n as f64 / 2.0, n as f64 / 2.0, 0.0]),
        ..SimulationConfig::quick_test()
    };
    let tg = TaylorGreen {
        dims: cfg.dims(),
        u0,
        nu: viscosity(&cfg),
    };
    let mut s = SequentialSolver::new(cfg);
    initialize_equilibrium(
        &mut s.state.fluid,
        |_, _, _| 1.0,
        |x, y, z| tg.velocity(x, y, z, 0.0),
    );
    (s, tg)
}

/// Runs `steps` steps and checks the sheet stayed inert: no force at all
/// reached the fluid.
fn run_inert(s: &mut SequentialSolver, steps: u64) {
    s.run(steps);
    let f = &s.state.fluid;
    assert!(
        f.force.iter().all(|&v| v == [0.0; 3]),
        "the inert sheet spread a force"
    );
}

#[test]
fn taylor_green_decay_rate_matches_analytic() {
    // 2D Taylor–Green in a 16x16x1 periodic box: the kinetic-energy decay
    // rate must match exp(-2 nu k^2 t) within 2%. Measure it between two
    // simulated times, skipping the initialisation transient; at 16² the
    // lattice dispersion error on the rate is below 1%.
    let (mut s, tg) = taylor_green(16, 0.02);
    run_inert(&mut s, 50);
    let e_a = kinetic_energy(&s.state.fluid);
    run_inert(&mut s, 200);
    let e_b = kinetic_energy(&s.state.fluid);
    let measured_rate = (e_a / e_b).ln() / 200.0;
    let (kx, ky) = tg.wavenumbers();
    let analytic_rate = 2.0 * tg.nu * (kx * kx + ky * ky);
    assert!(
        (measured_rate / analytic_rate - 1.0).abs() < 0.02,
        "decay rate {measured_rate} vs analytic {analytic_rate}"
    );
}

#[test]
fn taylor_green_pointwise_error_small() {
    let (mut s, tg) = taylor_green(16, 0.02);
    let steps = 100u64;
    run_inert(&mut s, steps);
    // The dominant error at 16² is the ~1% lattice correction to the decay
    // rate, so allow 0.5% of the initial amplitude.
    let err = velocity_l2_error(&s.state.fluid, |x, y, z| tg.velocity(x, y, z, steps as f64));
    assert!(err < 5e-3 * 0.02, "L2 error {err}");
}

#[test]
fn taylor_green_second_order_convergence() {
    // Doubling resolution (same physical setup) must cut the relative
    // error by roughly 4x. Diffusive scaling: u0 halves and the steps
    // quadruple when n doubles, so the physical time and Mach regime match.
    let err_at = |n: usize, steps: u64| -> f64 {
        let (mut s, tg) = taylor_green(n, 0.04 * 8.0 / n as f64);
        run_inert(&mut s, steps);
        let t = steps as f64;
        velocity_l2_error(&s.state.fluid, |x, y, z| tg.velocity(x, y, z, t)) / tg.u0
    };
    let e8 = err_at(8, 32);
    let e16 = err_at(16, 128);
    let order = (e8 / e16).log2();
    assert!(order > 1.5, "observed order {order} (e8={e8}, e16={e16})");
}

#[test]
fn poiseuille_profile_reached() {
    // Channel: periodic x/z, walls in y. Run to steady state and compare
    // with the parabolic profile within 2% of its peak.
    let g = 1e-5;
    let cfg = SimulationConfig {
        nx: 4,
        ny: 9,
        nz: 4,
        tau: 0.9,
        body_force: [g, 0.0, 0.0],
        bc: BoundaryConfig {
            x: AxisBoundary::Periodic,
            y: AxisBoundary::no_slip(),
            z: AxisBoundary::Periodic,
        },
        sheet: inert_sheet([2.0, 4.0, 2.0]),
        ..SimulationConfig::quick_test()
    };
    let mut s = SequentialSolver::new(cfg);
    s.run(4000);
    let profile = Poiseuille {
        ny: cfg.ny,
        g,
        nu: viscosity(&cfg),
    };
    let dims = cfg.dims();
    for y in 0..cfg.ny {
        let got = s.state.fluid.u[dims.idx(2, y, 2)][0];
        let want = profile.ux(y);
        assert!(
            (got - want).abs() < 0.02 * profile.u_max(),
            "row {y}: measured {got} vs analytic {want}"
        );
    }
}

#[test]
fn mass_conserved_over_long_coupled_run() {
    let mut cfg = SimulationConfig::quick_test();
    cfg.body_force = [4e-6, 0.0, 0.0];
    let mut s = SequentialSolver::new(cfg);
    let m0 = s.state.fluid.total_mass();
    s.run(150);
    let m1 = s.state.fluid.total_mass();
    assert!(((m1 - m0) / m0).abs() < 1e-12, "mass drift {m0} -> {m1}");
    assert!(!s.state.has_nan());
}

#[test]
fn momentum_grows_by_body_force_between_walls_and_saturates() {
    // In the tunnel, the x momentum added by the body force drains into
    // the walls as the channel approaches steady state: kinetic energy
    // must rise and then flatten, never explode.
    let mut cfg = SimulationConfig::quick_test();
    cfg.body_force = [5e-6, 0.0, 0.0];
    let mut s = SequentialSolver::new(cfg);
    let mut ke_prev = 0.0;
    let mut increments = Vec::new();
    for _ in 0..6 {
        s.run(40);
        let ke = diagnostics(&s.state).kinetic_energy;
        increments.push(ke - ke_prev);
        ke_prev = ke;
    }
    assert!(increments[0] > 0.0, "flow must start");
    let last = *increments.last().unwrap();
    assert!(
        last < increments[1],
        "energy growth should decelerate toward steady state: {increments:?}"
    );
    assert!(diagnostics(&s.state).max_velocity < 0.1);
}

#[test]
fn coupled_solver_reaches_poiseuille_without_structure_influence() {
    // A sheet with zero stiffness exerts no force: the coupled solver must
    // reproduce plain Poiseuille channel flow between the y walls.
    let g = 1e-6;
    let mut cfg = SimulationConfig::quick_test();
    cfg.nx = 16;
    cfg.ny = 12;
    cfg.nz = 12;
    cfg.tau = 0.9;
    cfg.body_force = [g, 0.0, 0.0];
    cfg.sheet = SheetConfig {
        k_bend: 0.0,
        k_stretch: 0.0,
        ..SheetConfig::square(4, 2.0, [6.0, 6.0, 6.0])
    };
    let mut s = SequentialSolver::new(cfg);
    s.run(4000);
    // The z walls also drag, so compare only the mid-z column profile
    // against the y-parabola with a loose tolerance (the exact solution in
    // a square duct is a double series; the parabola bounds the shape).
    let profile = Poiseuille {
        ny: cfg.ny,
        g,
        nu: viscosity(&cfg),
    };
    let dims = cfg.dims();
    let mid_z = cfg.nz / 2;
    let mid_y = cfg.ny / 2;
    let center = s.state.fluid.u[dims.idx(8, mid_y, mid_z)][0];
    assert!(
        center > 0.5 * profile.u_max(),
        "duct centre too slow: {center}"
    );
    // Monotone decrease from the centre row toward the wall.
    let mut prev = center;
    for y in (0..mid_y).rev() {
        let v = s.state.fluid.u[dims.idx(8, y, mid_z)][0];
        assert!(v <= prev + 1e-12, "profile not monotone at y={y}");
        prev = v;
    }
    // No-slip wall rows are much slower than the centre.
    let wall = s.state.fluid.u[dims.idx(8, 0, mid_z)][0];
    assert!(wall < 0.35 * center, "wall row {wall} vs centre {center}");
}

#[test]
fn stiff_sheet_obstructs_the_flow() {
    // Compared to a no-structure channel, a stiff tethered sheet blocking
    // the cross-section must reduce the developed flow rate.
    let mut base = SimulationConfig::quick_test();
    base.body_force = [5e-6, 0.0, 0.0];
    base.sheet = SheetConfig {
        k_bend: 0.0,
        k_stretch: 0.0,
        ..SheetConfig::square(8, 4.0, [8.0, 8.0, 8.0])
    };
    let mut free = SequentialSolver::new(base);
    free.run(250);

    let mut blocked_cfg = base;
    blocked_cfg.sheet = SheetConfig {
        k_bend: 1e-3,
        k_stretch: 5e-2,
        // Hold the sheet in place so it acts as an obstacle.
        tether: TetherConfig::CenterRegion {
            radius: 100.0,
            stiffness: 0.3,
        },
        ..SheetConfig::square(12, 10.0, [8.0, 8.0, 8.0])
    };
    let mut blocked = SequentialSolver::new(blocked_cfg);
    blocked.run(250);

    let flux = |s: &SequentialSolver| -> f64 { s.state.fluid.u.iter().map(|u| u[0]).sum() };
    let f_free = flux(&free);
    let f_blocked = flux(&blocked);
    assert!(
        f_blocked < 0.9 * f_free,
        "obstacle should reduce flow: blocked {f_blocked} vs free {f_free}"
    );
}

#[test]
fn sheet_is_carried_and_deformed_by_the_flow() {
    let mut cfg = SimulationConfig::quick_test();
    cfg.nx = 32;
    cfg.body_force = [6e-6, 0.0, 0.0];
    cfg.sheet = SheetConfig {
        k_bend: 2e-4,
        k_stretch: 2e-2,
        ..SheetConfig::square(10, 5.0, [10.0, 8.0, 8.0])
    };
    let mut s = SequentialSolver::new(cfg);
    let x0 = s.state.sheet.centroid()[0];
    s.run(200);
    let x1 = s.state.sheet.centroid()[0];
    assert!(x1 > x0 + 0.01, "sheet advected: {x0} -> {x1}");
    // The channel profile is faster in the middle: the sheet must bow.
    let (lo, hi) = s.state.sheet.bounding_box();
    assert!(hi[0] - lo[0] > 1e-3, "sheet should bow in the shear flow");
    assert!(!s.state.has_nan());
}

#[test]
fn structure_force_on_fluid_balances_total_elastic_force() {
    // After kernel 4 the Eulerian force (minus the body force) must equal
    // the Lagrangian elastic force times the area element: the coupling is
    // conservative.
    let mut cfg = SimulationConfig::quick_test();
    cfg.body_force = [0.0; 3];
    let mut s = SequentialSolver::new(cfg);
    s.run(5);
    // Deform the sheet, recompute forces and spread them.
    for (i, p) in s.state.sheet.pos.iter_mut().enumerate() {
        p[0] += 0.02 * ((i % 7) as f64 - 3.0);
    }
    lbm_ib::kernels::compute_bending_force_in_fibers(&mut s.state);
    lbm_ib::kernels::compute_stretching_force_in_fibers(&mut s.state);
    lbm_ib::kernels::compute_elastic_force_in_fibers(&mut s.state);
    lbm_ib::kernels::spread_force_from_fibers_to_fluid(&mut s.state);
    let lag = s.state.sheet.total_elastic_force();
    let area = s.state.sheet.area_element();
    let eul = ib::spread::total_grid_force(&s.state.fluid);
    for a in 0..3 {
        assert!(
            (eul[a] - lag[a] * area).abs() < 1e-10,
            "axis {a}: grid {} vs structure {}",
            eul[a],
            lag[a] * area
        );
    }
}

#[test]
fn table1_scale_config_runs_stably() {
    // A scaled-down version of the paper's Table I input runs without NaN
    // and with bounded velocity.
    let mut cfg = SimulationConfig::table1();
    cfg.nx = 32;
    cfg.ny = 16;
    cfg.nz = 16;
    cfg.sheet = SheetConfig {
        tether: TetherConfig::CenterRegion {
            radius: 2.0,
            stiffness: 5e-2,
        },
        ..SheetConfig::square(13, 5.0, [8.0, 8.0, 8.0])
    };
    cfg.validate().unwrap();
    let mut s = SequentialSolver::new(cfg);
    let m0 = s.state.fluid.total_mass();
    s.run(100);
    let d = diagnostics(&s.state);
    d.check_stability(m0).unwrap();
}
