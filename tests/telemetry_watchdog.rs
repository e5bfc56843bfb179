//! Integration tests for the metrics subsystem and the run-health
//! watchdog: telemetry must account for the run without perturbing it,
//! and the watchdog must turn silent numerical blow-ups into typed
//! errors through the `Solver` trait.

use lbm_ib::config::KernelPlan;
use lbm_ib::profiling::KernelId;
use lbm_ib::solver::build_solver;
use lbm_ib::verify::compare_states;
use lbm_ib::{
    CubeSolver, DistributedSolver, SequentialSolver, SheetConfig, SimState, SimulationConfig,
    Solver, SolverError, TetherConfig, WatchdogConfig,
};

fn cfg() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.body_force = [4e-6, 0.0, 0.0];
    c
}

#[test]
fn seq_kernel_totals_account_for_the_wall_time() {
    let mut s = SequentialSolver::new(SimulationConfig {
        plan: KernelPlan::Split,
        ..cfg()
    });
    s.telemetry_enabled = true;
    let report = s.run(20);
    let t = report.telemetry.expect("telemetry enabled");
    let busy: f64 = t.kernel_totals().iter().sum();
    let wall = report.wall.as_secs_f64();
    let share = busy / wall;
    // The nine kernels are the whole step loop; everything outside them
    // (loop control, step counter) is noise.
    assert!(
        share > 0.4 && share < 1.05,
        "kernel totals {busy:.6}s vs wall {wall:.6}s (share {share:.3})"
    );
    // Split plan: the fused slot must stay empty.
    assert_eq!(t.kernel_seconds(KernelId::FusedCollideStream), 0.0);
    assert!(t.kernel_seconds(KernelId::Collision) > 0.0);
}

#[test]
fn telemetry_does_not_perturb_physics() {
    // Sequential: bit-exact with telemetry on vs off.
    let mut off = SequentialSolver::new(cfg());
    off.run(15);
    let mut on = SequentialSolver::new(cfg());
    on.telemetry_enabled = true;
    on.run(15);
    assert_eq!(off.state.fluid.f, on.state.fluid.f);
    assert_eq!(off.state.sheet.pos, on.state.sheet.pos);

    // Cube: the atomic scatter reorders float sums between runs, so the
    // cross-run guarantee is rounding-level with or without telemetry.
    let mut off = CubeSolver::new(cfg(), 4);
    off.try_run(15).unwrap();
    let mut on = CubeSolver::new(cfg(), 4);
    on.telemetry_enabled = true;
    on.try_run(15).unwrap();
    let d = compare_states(&off.to_state(), &on.to_state());
    assert!(d.within(1e-11), "{d:?}");
}

#[test]
fn cube_telemetry_counts_three_barriers_per_step() {
    let threads = 4;
    let steps = 12;
    let mut s = CubeSolver::new(cfg(), threads);
    s.telemetry_enabled = true;
    let t = s
        .try_run(steps)
        .unwrap()
        .telemetry
        .expect("telemetry enabled");
    assert_eq!(t.n_threads(), threads);
    // Algorithm 4: exactly three barrier crossings per thread per step.
    for (tid, th) in t.per_thread.iter().enumerate() {
        assert_eq!(th.barrier_waits, 3 * steps, "thread {tid}");
    }
    assert_eq!(t.barrier_waits(), 3 * steps * threads as u64);
    assert!(t.barrier_wait_share() >= 0.0 && t.barrier_wait_share() < 1.0);
    assert!(t.imbalance_ratio() >= 1.0);
}

#[test]
fn cube_ownership_covers_the_whole_problem() {
    let c = cfg();
    let mut s = CubeSolver::new(c, 3);
    s.telemetry_enabled = true;
    let t = s.try_run(2).unwrap().telemetry.expect("telemetry enabled");
    let k = c.cube_k;
    let total_cubes = (c.nx / k) * (c.ny / k) * (c.nz / k);
    let owned: u64 = t.per_thread.iter().map(|th| th.cubes_owned).sum();
    assert_eq!(owned as usize, total_cubes);
    let fibers: u64 = t.per_thread.iter().map(|th| th.fibers_owned).sum();
    assert_eq!(fibers as usize, c.sheet.num_fibers);
}

#[test]
fn dist_telemetry_covers_every_rank_and_plane() {
    let c = cfg();
    let mut s = DistributedSolver::new(c, 3);
    s.telemetry_enabled = true;
    let t = s.try_run(4).unwrap().telemetry.expect("telemetry enabled");
    assert_eq!(t.n_threads(), 3);
    // Rank "cubes" are owned x-planes; together they tile the axis.
    let planes: u64 = t.per_thread.iter().map(|th| th.cubes_owned).sum();
    assert_eq!(planes as usize, c.nx);
    // The sheet is replicated: every rank owns every fiber.
    for th in &t.per_thread {
        assert_eq!(th.fibers_owned as usize, c.sheet.num_fibers);
    }
    assert!(t.busy_seconds() > 0.0);
}

#[test]
fn telemetry_merges_across_cli_style_chunks() {
    // The CLI accumulates chunked reports with RunReport::merge; the
    // merged telemetry must cover the full run.
    let threads = 2;
    let mut solver = build_solver("cube", SimState::new(cfg()), threads).unwrap();
    solver.set_telemetry(true);
    let mut report = lbm_ib::RunReport::default();
    for _ in 0..3 {
        report.merge(solver.run(5).unwrap());
    }
    assert_eq!(report.steps, 15);
    let t = report.telemetry.expect("merged telemetry");
    assert_eq!(t.steps, 15);
    assert_eq!(t.n_threads(), threads);
    assert_eq!(t.barrier_waits(), 3 * 15 * threads as u64);
    assert!(t.busy_seconds() > 0.0);
}

#[test]
fn telemetry_json_is_complete_and_balanced() {
    let mut s = CubeSolver::new(cfg(), 2);
    s.telemetry_enabled = true;
    let t = s.try_run(3).unwrap().telemetry.expect("telemetry enabled");
    let json = t.to_json();
    assert_eq!(json.matches("\"kernel\":").count(), KernelId::COUNT);
    for key in [
        "\"solver\": \"cube\"",
        "\"imbalance_ratio\":",
        "\"barrier_wait_share\":",
        "\"threads\":",
        "\"cubes_owned\":",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    let open = json.matches('{').count();
    let close = json.matches('}').count();
    assert_eq!(open, close, "unbalanced braces");
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
}

#[test]
fn watchdog_reports_stiff_blowup_as_typed_error() {
    // Near the tau -> 0.5+ viscosity limit with absurd stiffness the
    // structure feedback loop diverges within a few hundred steps. The
    // watchdog must surface that as SolverError::Unstable — pre-watchdog
    // the same run silently filled the state with NaNs.
    let mut c = SimulationConfig::quick_test();
    c.tau = 0.51;
    c.body_force = [1e-5, 0.0, 0.0];
    c.sheet = SheetConfig {
        k_bend: 50.0,
        k_stretch: 500.0,
        tether: TetherConfig::None,
        ..SheetConfig::square(8, 4.0, [8.0, 8.0, 8.0])
    };
    c.watchdog = Some(WatchdogConfig { check_every: 8 });
    let mut solver = build_solver("seq", SimState::new(c), 1).unwrap();
    let mut seen = 0u64;
    let err = loop {
        match solver.run(100) {
            Ok(r) => {
                seen += r.steps;
                assert!(seen < 1000, "blow-up never detected");
            }
            Err(e) => break e,
        }
    };
    match err {
        SolverError::Unstable { step, ref reason } => {
            assert!(step > 0 && step <= 1000 + 100, "step {step}");
            assert!(!reason.is_empty());
        }
        other => panic!("expected Unstable, got {other:?}"),
    }
    // And the same config without a watchdog really does go non-finite —
    // the failure the watchdog exists to catch.
    let mut c2 = c;
    c2.watchdog = None;
    let mut raw = SequentialSolver::new(c2);
    raw.run(1000);
    assert!(raw.state.has_nan(), "control run should blow up");
}

#[test]
fn watchdog_is_transparent_on_healthy_runs() {
    let mut watched_cfg = cfg();
    watched_cfg.watchdog = Some(WatchdogConfig { check_every: 4 });
    let mut watched = build_solver("seq", SimState::new(watched_cfg), 1).unwrap();
    watched.run(13).unwrap();
    let mut plain = SequentialSolver::new(cfg());
    plain.run(13);
    // The chunked re-entry the watchdog induces is bit-exact.
    assert_eq!(
        compare_states(&watched.to_state(), &plain.state).worst(),
        0.0
    );
}
