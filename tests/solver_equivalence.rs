//! Integration tests: the three solvers must produce the same physics for
//! the same configuration — the verification the paper performed for every
//! parallel result ("all the numerical results have been verified to be
//! correct by comparing the new result to that of the sequential
//! implementation").

use lbm_ib::verify::{compare_states, verify_all_solvers};
use lbm_ib::{
    CubeSolver, OpenMpSolver, SequentialSolver, SheetConfig, SimulationConfig, Solver, TetherConfig,
};

fn base_config() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.body_force = [3e-6, 0.0, 0.0];
    c
}

#[test]
fn all_solvers_agree_on_quick_config() {
    let (omp, cube) = verify_all_solvers(base_config(), 10, 4).unwrap();
    assert!(omp.within(1e-11), "OpenMP: {omp:?}");
    assert!(cube.within(1e-11), "cube: {cube:?}");
}

#[test]
fn agreement_across_thread_counts() {
    let cfg = base_config();
    let mut seq = SequentialSolver::new(cfg);
    seq.run(8);
    for threads in [1, 2, 3, 5, 8] {
        let mut omp = OpenMpSolver::new(cfg, threads);
        omp.run(8);
        let d = compare_states(&seq.state, &omp.state);
        assert!(d.within(1e-11), "OpenMP {threads} threads: {d:?}");

        let mut cube = CubeSolver::new(cfg, threads);
        cube.try_run(8).unwrap();
        let d = compare_states(&seq.state, &cube.to_state());
        assert!(d.within(1e-11), "cube {threads} threads: {d:?}");
    }
}

#[test]
fn agreement_across_cube_edges() {
    let mut cfg = base_config();
    let mut seq = SequentialSolver::new(cfg);
    seq.run(8);
    for k in [2, 4, 8] {
        cfg.cube_k = k;
        let mut cube = CubeSolver::new(cfg, 4);
        cube.try_run(8).unwrap();
        let d = compare_states(&seq.state, &cube.to_state());
        assert!(d.within(1e-11), "cube edge {k}: {d:?}");
    }
}

#[test]
fn agreement_with_tethered_sheet() {
    let mut cfg = base_config();
    cfg.sheet.tether = TetherConfig::CenterRegion {
        radius: 2.5,
        stiffness: 0.1,
    };
    let (omp, cube) = verify_all_solvers(cfg, 12, 3).unwrap();
    assert!(omp.within(1e-11), "OpenMP: {omp:?}");
    assert!(cube.within(1e-11), "cube: {cube:?}");
}

#[test]
fn agreement_with_leading_edge_tether() {
    let mut cfg = base_config();
    cfg.sheet.tether = TetherConfig::LeadingEdge { stiffness: 0.2 };
    let (omp, cube) = verify_all_solvers(cfg, 10, 2).unwrap();
    assert!(omp.within(1e-11), "OpenMP: {omp:?}");
    assert!(cube.within(1e-11), "cube: {cube:?}");
}

#[test]
fn agreement_across_delta_kernels() {
    for delta in [
        ib::DeltaKind::Hat2,
        ib::DeltaKind::Roma3,
        ib::DeltaKind::Peskin4,
        ib::DeltaKind::Peskin4Poly,
    ] {
        let mut cfg = base_config();
        cfg.delta = delta;
        let (omp, cube) = verify_all_solvers(cfg, 6, 3).unwrap();
        assert!(omp.within(1e-11), "{delta:?} OpenMP: {omp:?}");
        assert!(cube.within(1e-11), "{delta:?} cube: {cube:?}");
    }
}

#[test]
fn agreement_on_rectangular_grid_and_sheet() {
    let mut cfg = base_config();
    cfg.nx = 40;
    cfg.ny = 12;
    cfg.nz = 20;
    cfg.sheet = SheetConfig {
        num_fibers: 6,
        nodes_per_fiber: 11,
        width: 3.0,
        height: 4.0,
        center: [12.0, 6.0, 10.0],
        k_bend: 1e-4,
        k_stretch: 1e-2,
        tether: TetherConfig::None,
    };
    let (omp, cube) = verify_all_solvers(cfg, 8, 4).unwrap();
    assert!(omp.within(1e-11), "OpenMP: {omp:?}");
    assert!(cube.within(1e-11), "cube: {cube:?}");
}

#[test]
fn agreement_over_longer_horizon() {
    // Longer runs accumulate rounding differences from the parallel
    // scatter; they must stay at rounding level, not grow systematically.
    let (omp, cube) = verify_all_solvers(base_config(), 60, 4).unwrap();
    assert!(omp.within(1e-9), "OpenMP after 60 steps: {omp:?}");
    assert!(cube.within(1e-9), "cube after 60 steps: {cube:?}");
}

#[test]
fn cube_policy_variants_agree() {
    let cfg = base_config();
    let mut seq = SequentialSolver::new(cfg);
    seq.run(8);
    for policy in [
        lbm::Policy::Block,
        lbm::Policy::Cyclic,
        lbm::Policy::BlockCyclic { block: 2 },
    ] {
        let mut cube = CubeSolver::new(cfg, 4);
        cube.policy = policy;
        cube.try_run(8).unwrap();
        let d = compare_states(&seq.state, &cube.to_state());
        assert!(d.within(1e-11), "{policy:?}: {d:?}");
    }
}

#[test]
fn distributed_prototype_agrees_with_all_solvers() {
    // The distributed-memory prototype (paper future work) must agree with
    // the shared-memory solvers across rank counts.
    let cfg = base_config();
    let mut seq = SequentialSolver::new(cfg);
    seq.run(10);
    for ranks in [1, 2, 4, 6] {
        let mut dist = lbm_ib::DistributedSolver::new(cfg, ranks);
        dist.try_run(10).unwrap();
        let d = compare_states(&seq.state, &dist.to_state());
        assert!(d.within(1e-11), "{ranks} ranks: {d:?}");
    }
}

#[test]
fn distributed_agrees_with_tethered_sheet_under_moving_structure() {
    let mut cfg = base_config();
    cfg.sheet.tether = TetherConfig::LeadingEdge { stiffness: 0.15 };
    cfg.body_force = [5e-6, 0.0, 0.0];
    let mut seq = SequentialSolver::new(cfg);
    seq.run(30);
    let mut dist = lbm_ib::DistributedSolver::new(cfg, 4);
    dist.try_run(30).unwrap();
    let d = compare_states(&seq.state, &dist.to_state());
    assert!(d.within(1e-10), "{d:?}");
}

#[test]
fn more_threads_than_cubes_still_correct() {
    let mut cfg = base_config();
    cfg.nx = 8;
    cfg.ny = 8;
    cfg.nz = 8;
    cfg.cube_k = 4; // 8 cubes
    cfg.sheet = SheetConfig::square(4, 2.0, [4.0, 4.0, 4.0]);
    let mut seq = SequentialSolver::new(cfg);
    seq.run(5);
    let mut cube = CubeSolver::new(cfg, 16); // idle threads exist
    cube.try_run(5).unwrap();
    let d = compare_states(&seq.state, &cube.to_state());
    assert!(d.within(1e-11), "{d:?}");
}
