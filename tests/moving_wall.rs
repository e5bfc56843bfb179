//! Integration tests with a moving-lid (Couette) boundary: the coupled
//! solvers must agree and the fluid must develop the analytic linear
//! profile — exactly with an inert sheet, and with a live sheet dragged
//! along by the shear.

use lbm::analytic::Couette;
use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm_ib::verify::verify_all_solvers;
use lbm_ib::{SequentialSolver, SheetConfig, SimulationConfig};

fn couette_config(u_lid: f64) -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.body_force = [0.0; 3];
    c.bc = BoundaryConfig {
        x: AxisBoundary::Periodic,
        y: AxisBoundary::Walls {
            lo: [0.0; 3],
            hi: [u_lid, 0.0, 0.0],
        },
        z: AxisBoundary::Periodic,
    };
    // A soft small sheet near the lower wall.
    c.sheet = SheetConfig {
        k_bend: 1e-4,
        k_stretch: 5e-3,
        ..SheetConfig::square(5, 2.0, [8.0, 6.0, 8.0])
    };
    c
}

#[test]
fn couette_profile_reached() {
    // A 4x8x4 channel with an inert sheet (zero stiffness, so no force
    // reaches the fluid) must settle on the Couette line within 2% of the
    // lid speed.
    let u_lid = 0.02;
    let cfg = SimulationConfig {
        nx: 4,
        ny: 8,
        nz: 4,
        sheet: SheetConfig {
            k_bend: 0.0,
            k_stretch: 0.0,
            ..SheetConfig::square(2, 1.0, [2.0, 3.5, 2.0])
        },
        ..couette_config(u_lid)
    };
    let mut s = SequentialSolver::new(cfg);
    s.run(3000);
    let dims = cfg.dims();
    let couette = Couette { ny: cfg.ny, u_lid };
    for y in 0..cfg.ny {
        let got = s.state.fluid.u[dims.idx(1, y, 1)][0];
        let want = couette.ux(y);
        assert!(
            (got - want).abs() < 0.02 * u_lid,
            "row {y}: measured {got} vs analytic {want}"
        );
    }
}

#[test]
fn solvers_agree_under_moving_lid() {
    let (omp, cube) = verify_all_solvers(couette_config(0.02), 10, 4).unwrap();
    assert!(omp.within(1e-11), "OpenMP: {omp:?}");
    assert!(cube.within(1e-11), "cube: {cube:?}");
}

#[test]
fn lid_drives_linear_profile_and_drags_sheet() {
    let u_lid = 0.02;
    let cfg = couette_config(u_lid);
    let mut s = SequentialSolver::new(cfg);
    let x0 = s.state.sheet.centroid()[0];
    s.run(2500);
    // Interior profile approaches the Couette line (compare away from the
    // sheet's wake, at a different x).
    let dims = cfg.dims();
    let couette = Couette { ny: cfg.ny, u_lid };
    for y in [2, 8, 13] {
        let node = dims.idx(20, y, 2);
        let want = couette.ux(y);
        let got = s.state.fluid.u[node][0];
        assert!(
            (got - want).abs() < 0.15 * u_lid,
            "row {y}: {got} vs analytic {want}"
        );
    }
    // The sheet sits in moving fluid, so it must drift downstream.
    let x1 = s.state.sheet.centroid()[0];
    assert!(x1 > x0 + 0.05, "sheet not dragged: {x0} -> {x1}");
    assert!(!s.state.has_nan());
}

#[test]
fn reversing_the_lid_reverses_the_drift() {
    let forward = {
        let mut s = SequentialSolver::new(couette_config(0.02));
        s.run(400);
        s.state.sheet.centroid()[0]
    };
    let backward = {
        let mut s = SequentialSolver::new(couette_config(-0.02));
        s.run(400);
        s.state.sheet.centroid()[0]
    };
    let start = 8.0;
    assert!(forward > start, "forward drift failed: {forward}");
    assert!(backward < start, "backward drift failed: {backward}");
    assert!(
        (forward - start + (backward - start)).abs() < 1e-6,
        "drifts should mirror: {forward} vs {backward}"
    );
}
