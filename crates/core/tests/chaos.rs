//! Chaos tests: deterministic fault injection against the recovery paths.
//!
//! Compiled (and run in CI's `chaos-smoke` job) only with
//! `--features faultinject`; the hooks these tests arm are inlined away
//! in default builds. Each test arms one [`FaultPlan`], drives a solver
//! into the failure, and asserts the typed error the runtime must
//! surface — a hang or a poisoned-lock cascade is the regression.

#![cfg(feature = "faultinject")]

use std::time::Duration;

use lbm_ib::checkpoint::{self, ResumeSource};
use lbm_ib::faultinject::{arm, CheckpointFault, FaultPlan, HaloFault, PanicAt};
use lbm_ib::{
    build_solver, CheckpointError, CubeSolver, DistributedSolver, SimState, SimulationConfig,
    Solver, SolverError, WatchdogConfig,
};

fn cfg() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.body_force = [4e-6, 0.0, 0.0];
    c
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lbmib_chaos_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Holds every injected panic back for `by` before it unwinds — so before
/// the worker's wrapper poisons the barrier — with the hook that was
/// installed before. Other panics pass straight through.
fn hold_injected_panics(by: Duration) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>();
        if msg.is_some_and(|m| m.starts_with("fault injected")) {
            std::thread::sleep(by);
        }
        previous(info);
    }));
}

/// A worker panic mid-step must poison the barriers and surface as a
/// typed error instead of leaving the surviving workers waiting forever.
/// The panic is held back for 200 ms, far past the barrier's spin budget,
/// so the siblings waiting for the dead worker at barrier 2 have parked
/// by the time the poison arrives: the poison must wake parked waiters.
#[test]
fn cube_worker_panic_surfaces_typed_error_not_hang() {
    hold_injected_panics(Duration::from_millis(200));
    let armed = arm(FaultPlan {
        panic_at: Some(PanicAt {
            thread: 1,
            step: 2,
            phase: "velocity-update",
        }),
        ..Default::default()
    });
    let mut solver = CubeSolver::new(cfg(), 4);

    // Run on a watcher thread so a teardown hang fails the test in
    // bounded time instead of wedging the whole suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let r = solver.try_run(5);
        tx.send((r, solver)).ok();
    });
    let (res, solver) = rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("cube teardown hung after a worker panic"));

    assert_eq!(
        res.unwrap_err(),
        SolverError::WorkerPanicked {
            thread: 1,
            phase: "velocity-update",
        }
    );
    let state = solver.to_state();
    assert_eq!(state.step, 0, "a failed run must not claim progress");
    // The arrays `try_run` moved out to the team came back on the
    // failure path: every fluid and sheet array is full-size again.
    let n = cfg().dims().n();
    let fluid = &state.fluid;
    assert_eq!(fluid.f.len(), n * lbm::Q, "f");
    assert_eq!(fluid.f_new.len(), n * lbm::Q, "f_new");
    assert_eq!(fluid.rho.len(), n, "rho");
    for (name, a) in [
        ("u", &fluid.u),
        ("ueq", &fluid.ueq),
        ("force", &fluid.force),
    ] {
        assert_eq!(a.len(), n, "{name}");
    }
    let nodes = state.sheet.num_fibers * state.sheet.nodes_per_fiber;
    assert_eq!(state.sheet.pos.len(), nodes, "sheet pos");
    assert_eq!(state.sheet.elastic.len(), nodes, "sheet forces");

    // Disarmed, the same solver recovers: its team survived the panic,
    // try_run builds a fresh phase barrier, and the state was restored on
    // the failure path.
    drop(armed);
    let mut solver = solver;
    let report = solver.try_run(3).expect("solver recovers once disarmed");
    assert_eq!(report.steps, 3);
    assert!(!solver.to_state().has_nan());
}

/// A save torn after its fsync (the temp file is damaged before the
/// renames) must leave the rotated previous snapshot loadable.
#[test]
fn torn_checkpoint_write_falls_back_to_previous_snapshot() {
    let dir = scratch_dir("torn");
    let path = dir.join("run.ckpt");
    let mut solver = build_solver("seq", SimState::new(cfg()), 1).unwrap();
    solver.run(3).unwrap();
    checkpoint::save(&solver.to_state(), &path).unwrap();
    solver.run(3).unwrap();

    let armed = arm(FaultPlan {
        checkpoint: Some(CheckpointFault::TruncateTail(64)),
        ..Default::default()
    });
    checkpoint::save(&solver.to_state(), &path).unwrap();
    drop(armed);

    assert!(
        matches!(checkpoint::load(&path), Err(CheckpointError::Io(_))),
        "the torn primary must be rejected"
    );
    let (state, source) = checkpoint::resume(&path).unwrap();
    assert_eq!(source, ResumeSource::Fallback);
    assert_eq!(state.step, 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// A payload bit flip decodes fine and passes the length guard — only the
/// CRC trailer can catch it, and it must.
#[test]
fn bit_flipped_checkpoint_is_caught_by_crc() {
    let dir = scratch_dir("flip");
    let path = dir.join("run.ckpt");
    let mut solver = build_solver("seq", SimState::new(cfg()), 1).unwrap();
    solver.run(2).unwrap();

    let armed = arm(FaultPlan {
        checkpoint: Some(CheckpointFault::FlipBit {
            offset_from_end: 1000,
            mask: 0x10,
        }),
        ..Default::default()
    });
    checkpoint::save(&solver.to_state(), &path).unwrap();
    drop(armed);

    match checkpoint::load(&path) {
        Err(CheckpointError::Crc { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected a CRC failure, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A rank silently dropping its halo sends must trip the configured
/// receive timeout on its neighbours, not hang the exchange.
#[test]
fn dropped_halo_sends_surface_as_timeout_or_disconnect() {
    let _armed = arm(FaultPlan {
        halo: Some(HaloFault::DropSend { from: 0 }),
        ..Default::default()
    });
    let mut c = cfg();
    c.halo_timeout = Some(Duration::from_millis(200));
    let mut dist = DistributedSolver::new(c, 2);
    let err = dist.try_run(3).unwrap_err();
    // The faulted rank's early exit also closes its channels, so peers
    // may observe the disconnect before their timeout fires.
    assert!(
        matches!(
            err,
            SolverError::HaloTimeout { .. } | SolverError::RankDisconnected { .. }
        ),
        "got {err:?}"
    );
    assert_eq!(
        dist.to_state().step,
        0,
        "a failed run must not claim progress"
    );
}

/// Delayed (but delivered) halo sends stay within a generous timeout: the
/// run completes, no spurious fault.
#[test]
fn delayed_halo_sends_within_timeout_still_complete() {
    let _armed = arm(FaultPlan {
        halo: Some(HaloFault::DelaySend {
            from: 0,
            delay: Duration::from_millis(20),
        }),
        ..Default::default()
    });
    let mut c = cfg();
    c.halo_timeout = Some(Duration::from_secs(30));
    let mut dist = DistributedSolver::new(c, 2);
    let report = dist
        .try_run(3)
        .expect("delays below the timeout are not faults");
    assert_eq!(report.steps, 3);
    assert!(!dist.to_state().has_nan());
}

/// An injected NaN must be caught by the in-solver watchdog as a typed
/// `Unstable` error at its next check, not propagate silently.
#[test]
fn injected_nan_trips_the_watchdog() {
    let _armed = arm(FaultPlan {
        nan_at_step: Some(5),
        ..Default::default()
    });
    let mut c = cfg();
    c.watchdog = Some(WatchdogConfig { check_every: 2 });
    let mut solver = build_solver("seq", SimState::new(c), 1).unwrap();
    let err = solver.run(20).unwrap_err();
    assert!(matches!(err, SolverError::Unstable { .. }), "got {err:?}");
}
