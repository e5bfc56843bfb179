//! Recovery tests: armed failpoints under the self-healing supervisor.
//!
//! Compiled (and run in CI's `recovery-smoke` job) only with
//! `--features faultinject`. Where chaos.rs proves each fault surfaces as
//! a *typed error*, these tests prove the [`lbm_ib::Supervisor`] turns
//! that error back into a *completed run*: rollback-and-retry for
//! transient faults (one-shot failpoints), mesh quarantine and backend
//! fallback for persistent ones (sticky failpoints) — with healed physics
//! checked against an uninterrupted run.
//!
//! Determinism assertions: when the mesh and backend never change, the
//! healed state must be **bit-identical** to the fault-free run. After a
//! remap or backend switch the supervisor replays from the rollback
//! anchor (step 0 here — single-chunk runs), so the healed state is
//! bit-identical to a fault-free run *on the final rung*.

#![cfg(feature = "faultinject")]

use std::time::Duration;

use lbm_ib::faultinject::{arm, FaultPlan, HaloFault, PanicAt};
use lbm_ib::supervisor::RecoveryAction;
use lbm_ib::verify::compare_states;
use lbm_ib::{
    build_solver, Backend, RecoveryPolicy, SimState, SimulationConfig, Solver, SolverError,
    Supervisor, WatchdogConfig,
};

/// Serializes the whole test body, not just the armed section: the
/// fault-free baselines must never observe a plan armed by a concurrently
/// running test (the global `ARM_LOCK` inside `faultinject` only covers
/// the span between `arm()` and the guard's drop).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.body_force = [4e-6, 0.0, 0.0];
    c
}

/// Zero-backoff policy so tests run at full speed; the schedule itself is
/// unit-tested in the supervisor module.
fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        backoff: Duration::ZERO,
        ..Default::default()
    }
}

fn fault_free(kind: &str, config: SimulationConfig, threads: usize, steps: u64) -> SimState {
    let mut solver = build_solver(kind, SimState::new(config), threads).unwrap();
    solver.run(steps).unwrap();
    solver.to_state()
}

/// A transient worker panic (one-shot failpoint) heals by rollback and
/// retry on the same mesh — the acceptance case: final state bit-identical
/// to the fault-free run.
#[test]
fn one_shot_worker_panic_heals_bitwise_on_cube() {
    let _serial = serial();
    let baseline = fault_free("cube", cfg(), 4, 30);
    let _armed = arm(FaultPlan {
        panic_at: Some(PanicAt {
            thread: 1,
            step: 12,
            phase: "collide-stream",
        }),
        ..Default::default()
    });
    let mut sup = Supervisor::new("cube", SimState::new(cfg()), 4, policy()).unwrap();
    let report = sup.run_supervised(30).expect("supervisor heals the panic");
    assert_eq!(report.steps, 30);
    let rec = report.recovery.unwrap();
    assert_eq!(rec.attempts, 1);
    assert_eq!(rec.events[0].action, RecoveryAction::Retry);
    assert_eq!(rec.events[0].error_kind, "worker_panicked");
    assert_eq!(rec.final_backend, Backend::Cube);
    assert_eq!(rec.final_threads, 4);
    assert_eq!(
        compare_states(&baseline, &sup.to_state()).worst(),
        0.0,
        "healed run must match the fault-free run bit for bit"
    );
}

/// A *sticky* panic pinned to a non-zero worker defeats plain retry; the
/// ladder quarantines the worker by shrinking the cube mesh, and the run
/// finishes on the remapped mesh.
#[test]
fn sticky_panic_quarantines_worker_via_mesh_remap() {
    let _serial = serial();
    let baseline = fault_free("cube", cfg(), 3, 30);
    let _armed = arm(FaultPlan {
        panic_at: Some(PanicAt {
            thread: 3,
            step: 12,
            phase: "velocity-update",
        }),
        sticky: true,
        ..Default::default()
    });
    let mut sup = Supervisor::new(
        "cube",
        SimState::new(cfg()),
        4,
        RecoveryPolicy {
            retry_limit: 1,
            backoff: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let report = sup
        .run_supervised(30)
        .expect("mesh remap escapes the fault");
    let rec = report.recovery.unwrap();
    assert!(
        rec.events
            .iter()
            .any(|e| e.action == RecoveryAction::RemapMesh { from: 4, to: 3 }),
        "expected a 4 → 3 quarantine remap, got {:?}",
        rec.events
    );
    assert_eq!(rec.final_backend, Backend::Cube);
    assert_eq!(rec.final_threads, 3);
    // Thread 3 never spawns on the shrunk mesh, so the replay from the
    // step-0 anchor is exactly a fault-free 3-thread run.
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
}

/// The quarantine remap on a dense sheet whose stencils loop 3's owners
/// cut: the 4-thread team panics in loop 3 (velocity-update) on thread 3,
/// the 3-thread replay cuts loop 3 anew, and the healed state equals the
/// sequential solver's bit for bit.
#[test]
fn quarantine_remap_on_a_dense_sheet_matches_sequential() {
    let _serial = serial();
    let dense = SimulationConfig::dense_sheet_test();
    let baseline = fault_free("seq", dense, 1, 12);
    let _armed = arm(FaultPlan {
        panic_at: Some(PanicAt {
            thread: 3,
            step: 5,
            phase: "velocity-update",
        }),
        sticky: true,
        ..Default::default()
    });
    let policy = RecoveryPolicy {
        retry_limit: 1,
        ..policy()
    };
    let mut sup = Supervisor::new("cube", SimState::new(dense), 4, policy).unwrap();
    let report = sup
        .run_supervised(12)
        .expect("mesh remap escapes the fault");
    let rec = report.recovery.unwrap();
    assert!(
        rec.events
            .iter()
            .any(|e| e.action == RecoveryAction::RemapMesh { from: 4, to: 3 }),
        "{:?}",
        rec.events
    );
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
}

/// A sticky panic on thread 0 cannot be quarantined away (the mesh
/// bottoms out at one thread, which is thread 0) — the ladder must fall
/// back to the OpenMP-style backend, whose workers carry no panic hooks.
#[test]
fn sticky_panic_on_thread_zero_falls_back_to_openmp() {
    let _serial = serial();
    let baseline = fault_free("omp", cfg(), 1, 20);
    let _armed = arm(FaultPlan {
        panic_at: Some(PanicAt {
            thread: 0,
            step: 5,
            phase: "fiber-forces",
        }),
        sticky: true,
        ..Default::default()
    });
    let mut sup = Supervisor::new(
        "cube",
        SimState::new(cfg()),
        2,
        RecoveryPolicy {
            retry_limit: 0,
            backoff: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let report = sup.run_supervised(20).expect("backend fallback escapes");
    let rec = report.recovery.unwrap();
    assert!(rec
        .events
        .iter()
        .any(|e| e.action == RecoveryAction::RemapMesh { from: 2, to: 1 }));
    assert!(rec.events.iter().any(|e| e.action
        == RecoveryAction::SwitchBackend {
            from: Backend::Cube,
            to: Backend::Omp,
        }));
    assert_eq!(rec.final_backend, Backend::Omp);
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
}

/// A transient NaN injection caught by the in-solver watchdog rolls back
/// and replays cleanly on the sequential backend.
#[test]
fn one_shot_nan_injection_heals_on_sequential() {
    let _serial = serial();
    let mut config = cfg();
    config.watchdog = Some(WatchdogConfig { check_every: 1 });
    let baseline = fault_free("seq", config, 1, 20);
    let _armed = arm(FaultPlan {
        nan_at_step: Some(7),
        ..Default::default()
    });
    let mut sup = Supervisor::new("seq", SimState::new(config), 1, policy()).unwrap();
    let report = sup.run_supervised(20).expect("supervisor heals the NaN");
    let rec = report.recovery.unwrap();
    assert_eq!(rec.attempts, 1);
    assert_eq!(rec.events[0].error_kind, "unstable");
    assert_eq!(rec.events[0].action, RecoveryAction::Retry);
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
}

/// A transiently dropped halo send times out, is rolled back, and the
/// retried exchange goes through — the distributed prototype's "retry
/// before declaring the peer dead" rung.
#[test]
fn one_shot_halo_drop_heals_distributed() {
    let _serial = serial();
    let mut config = cfg();
    config.halo_timeout = Some(Duration::from_millis(250));
    let baseline = fault_free("dist", config, 2, 10);
    // Drop from rank 0: rank 0 then waits for rank 1's partial velocities
    // while rank 1 waits for the dropped halo, and the exchange times out
    // (a drop from rank 1 breaks the message order instead; see
    // `halo_drop_from_a_nonzero_rank_is_an_out_of_sequence_fault`).
    let _armed = arm(FaultPlan {
        halo: Some(HaloFault::DropSend { from: 0 }),
        ..Default::default()
    });
    let mut sup = Supervisor::new("dist", SimState::new(config), 2, policy()).unwrap();
    let report = sup.run_supervised(10).expect("halo retry heals");
    let rec = report.recovery.unwrap();
    assert_eq!(rec.attempts, 1);
    assert!(
        matches!(
            rec.events[0].error_kind,
            "halo_timeout" | "rank_disconnected"
        ),
        "{:?}",
        rec.events[0]
    );
    assert_eq!(rec.final_backend, Backend::Dist);
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
}

/// A send dropped by rank 1 reaches rank 0 as rank 1's partial velocities
/// where its halo was due: a typed out-of-sequence fault naming rank 1,
/// rolled back and retried to the fault-free run's bytes.
#[test]
fn halo_drop_from_a_nonzero_rank_is_an_out_of_sequence_fault() {
    let _serial = serial();
    let mut config = cfg();
    config.halo_timeout = Some(Duration::from_millis(250));
    let baseline = fault_free("dist", config, 2, 10);
    let _armed = arm(FaultPlan {
        halo: Some(HaloFault::DropSend { from: 1 }),
        ..Default::default()
    });
    let mut sup = Supervisor::new("dist", SimState::new(config), 2, policy()).unwrap();
    let report = sup
        .run_supervised(10)
        .expect("retry heals the dropped send");
    let rec = report.recovery.unwrap();
    assert_eq!(rec.attempts, 1);
    let event = &rec.events[0];
    assert_eq!(event.error_kind, "out_of_sequence", "{event:?}");
    assert!(
        event.error.contains("from rank 1"),
        "the error names the peer that skipped its send: {}",
        event.error
    );
    assert_eq!(event.action, RecoveryAction::Retry);
    assert_eq!(rec.final_backend, Backend::Dist);
    let bytes = |s: &SimState| {
        let mut out = Vec::new();
        lbm_ib::checkpoint::write_checkpoint(s, &mut out).unwrap();
        out
    };
    assert!(
        bytes(&baseline) == bytes(&sup.to_state()),
        "healed run differs"
    );
}

/// A rank that *keeps* dropping its sends is eventually declared dead:
/// the ladder abandons the distributed prototype for the cube solver.
#[test]
fn sticky_halo_drop_declares_peer_dead_and_degrades() {
    let _serial = serial();
    let baseline = fault_free("cube", cfg(), 2, 10);
    let _armed = arm(FaultPlan {
        halo: Some(HaloFault::DropSend { from: 0 }),
        sticky: true,
        ..Default::default()
    });
    let mut config = cfg();
    config.halo_timeout = Some(Duration::from_millis(250));
    let mut sup = Supervisor::new(
        "dist",
        SimState::new(config),
        2,
        RecoveryPolicy {
            retry_limit: 0,
            backoff: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let report = sup.run_supervised(10).expect("backend fallback escapes");
    let rec = report.recovery.unwrap();
    assert!(rec.events.iter().any(|e| e.action
        == RecoveryAction::SwitchBackend {
            from: Backend::Dist,
            to: Backend::Cube,
        }));
    assert_eq!(rec.final_backend, Backend::Cube);
    // The cube replay runs with the dist config (halo_timeout is inert
    // there); physics must match the plain cube run bit for bit.
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
}

/// On a grid the cube edge does not divide, the `cube` rung cannot be
/// built: a sticky `dist` fault degrades past it to `omp`, and the healed
/// run equals the plain `omp` run bit for bit.
#[test]
fn sticky_halo_drop_skips_an_unbuildable_cube_rung() {
    let _serial = serial();
    let mut config = cfg();
    config.nx = 22;
    assert!(lbm_ib::CubeSolver::try_from_state(SimState::new(config), 2).is_err());
    let baseline = fault_free("omp", config, 2, 10);
    let _armed = arm(FaultPlan {
        halo: Some(HaloFault::DropSend { from: 0 }),
        sticky: true,
        ..Default::default()
    });
    config.halo_timeout = Some(Duration::from_millis(250));
    let mut sup = Supervisor::new(
        "dist",
        SimState::new(config),
        2,
        RecoveryPolicy {
            retry_limit: 0,
            backoff: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let report = sup.run_supervised(10).expect("backend fallback escapes");
    let rec = report.recovery.unwrap();
    let switches: Vec<_> = rec
        .events
        .iter()
        .filter(|e| matches!(e.action, RecoveryAction::SwitchBackend { .. }))
        .map(|e| e.action.clone())
        .collect();
    assert_eq!(
        switches,
        [RecoveryAction::SwitchBackend {
            from: Backend::Dist,
            to: Backend::Omp,
        }]
    );
    assert_eq!(rec.final_backend, Backend::Omp);
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
}

/// With degradation off, a sticky fault exhausts the retry budget and the
/// typed error reaches the caller; the give-up is on the record.
#[test]
fn sticky_fault_with_degrade_off_gives_up_with_typed_error() {
    let _serial = serial();
    let mut config = cfg();
    config.watchdog = Some(WatchdogConfig { check_every: 1 });
    let _armed = arm(FaultPlan {
        nan_at_step: Some(3),
        sticky: true,
        ..Default::default()
    });
    let mut sup = Supervisor::new(
        "seq",
        SimState::new(config),
        1,
        RecoveryPolicy {
            retry_limit: 2,
            degrade: false,
            backoff: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let err = sup.run_supervised(20).unwrap_err();
    assert!(matches!(err, SolverError::Unstable { .. }), "{err}");
    let rec = sup.recovery_report();
    assert!(rec.gave_up);
    assert_eq!(rec.attempts, 3);
    assert_eq!(rec.events.last().unwrap().action, RecoveryAction::GiveUp);
}

/// With a checkpoint path configured, rollback after a real injected
/// fault goes through the on-disk machinery (CRC check, `.prev`
/// rotation) and still heals bit-identically.
#[test]
fn disk_rollback_after_injected_panic_heals_bitwise() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("lbmib_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sup.ckpt");
    let baseline = fault_free("cube", cfg(), 4, 30);
    let _armed = arm(FaultPlan {
        panic_at: Some(PanicAt {
            thread: 2,
            step: 9,
            phase: "move-fibers",
        }),
        ..Default::default()
    });
    let mut sup = Supervisor::new(
        "cube",
        SimState::new(cfg()),
        4,
        RecoveryPolicy {
            backoff: Duration::ZERO,
            checkpoint: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let report = sup.run_supervised(30).expect("disk rollback heals");
    let rec = report.recovery.unwrap();
    assert_eq!(rec.attempts, 1);
    assert_eq!(rec.events[0].rollback_source, "disk");
    assert_eq!(rec.events[0].rollback_step, 0);
    assert_eq!(compare_states(&baseline, &sup.to_state()).worst(), 0.0);
    std::fs::remove_dir_all(&dir).ok();
}
