//! Integration tests for the phase-ownership race auditor.
//!
//! Run with:
//!
//! ```text
//! cargo test -p lbm-ib --features racecheck --test racecheck --release
//! ```
#![cfg(feature = "racecheck")]

use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm_ib::config::{KernelPlan, SimulationConfig};
use lbm_ib::cube::CubeSolver;
use lbm_ib::openmp::OpenMpSolver;
use lbm_ib::racecheck;
use lbm_ib::sharedgrid::SharedSlice;
use std::sync::Mutex;

/// The shadow log is process-global; begin/audit pairs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The real solver, multi-threaded, must satisfy its own discipline: every
/// access of a full Algorithm-4 time step is recorded and audited. This is
/// the load-bearing positive test — it checks the streaming injectivity
/// argument, the split spread (fiber owners write stencils, cube owners
/// apply them), and the per-cube ownership of every kernel at once. Moving
/// walls on two axes send the face nodes through all three push paths:
/// the offset table, the periodic wrap and the bounce-back correction.
#[test]
fn cube_solver_run_is_discipline_clean() {
    let _g = serial();
    let cfg = SimulationConfig {
        bc: BoundaryConfig {
            x: AxisBoundary::Periodic,
            y: AxisBoundary::Walls {
                lo: [0.0; 3],
                hi: [0.02, 0.0, 0.0],
            },
            z: AxisBoundary::Walls {
                lo: [0.0, -0.01, 0.0],
                hi: [0.0; 3],
            },
        },
        ..SimulationConfig::quick_test()
    };
    let mut solver = CubeSolver::new(cfg, 3);
    racecheck::begin();
    solver.try_run(2).unwrap();
    let report = racecheck::audit();
    assert!(
        report.dropped == 0,
        "log overflow: {} dropped",
        report.dropped
    );
    assert!(
        report.records > 100_000,
        "suspiciously few records: {}",
        report.records
    );
    report.assert_clean();
}

/// Loop 3 with owners cut by stencil points: a dense sheet in thread 0's
/// `cube2thread` cubes is spread by all three threads, each into a run of
/// cubes that starts or ends inside the sheet, while loop 2 keeps
/// `cube2thread`. The marks, the force and u change owner between the two
/// loops; the barriers must order every such hand-over.
#[test]
fn balanced_loop_3_is_discipline_clean() {
    let _g = serial();
    let mut solver = CubeSolver::new(SimulationConfig::dense_sheet_test(), 3);
    // A first call, so the audited one starts from marks a loop 3 set.
    solver.try_run(1).unwrap();
    racecheck::begin();
    solver.try_run(2).unwrap();
    let report = racecheck::audit();
    assert!(
        report.dropped == 0,
        "log overflow: {} dropped",
        report.dropped
    );
    assert!(
        report.records > 100_000,
        "suspiciously few records: {}",
        report.records
    );
    report.assert_clean();
}

/// One audit over two calls of one solver: the same kept team runs both,
/// its helpers parked between them. Phases are numbered from the absolute
/// step, so the two calls' phases stay distinct even though loop 3's
/// owner cut (counted on the dense sheet as it moved) can differ between
/// them, and each access is checked against the others of its phase.
#[test]
fn cube_team_reused_across_two_calls_is_discipline_clean() {
    let _g = serial();
    let mut solver = CubeSolver::new(SimulationConfig::dense_sheet_test(), 3);
    racecheck::begin();
    solver.try_run(2).unwrap();
    solver.try_run(2).unwrap();
    let report = racecheck::audit();
    assert!(
        report.dropped == 0,
        "log overflow: {} dropped",
        report.dropped
    );
    assert!(
        report.records > 200_000,
        "suspiciously few records: {}",
        report.records
    );
    report.assert_clean();
}

/// The cube solver's collide–push pass is one lock-free per-cube sweep
/// whose cross-face pushes rely on push-streaming injectivity — each
/// `(destination node, direction)` slot of `f_new` has exactly one writer.
/// The auditor must find that discipline intact over a full
/// multi-threaded run with the fused plan configured (the solver runs the
/// same pass whatever the plan).
#[test]
fn fused_cube_solver_run_is_discipline_clean() {
    let _g = serial();
    let mut cfg = SimulationConfig::quick_test();
    cfg.plan = KernelPlan::Fused;
    let mut solver = CubeSolver::new(cfg, 3);
    racecheck::begin();
    solver.try_run(2).unwrap();
    let report = racecheck::audit();
    assert!(
        report.dropped == 0,
        "log overflow: {} dropped",
        report.dropped
    );
    assert!(
        report.records > 100_000,
        "suspiciously few records: {}",
        report.records
    );
    report.assert_clean();
}

/// The OpenMP solver's kernel 6 under both plans: each slab runs the
/// shared push over its own x-planes (after collision, or fused with it)
/// and writes `f_new` through a `SharedSlice` without locks, relying on
/// the same push injectivity as the cube solver. Moving walls on two axes
/// send the slab faces through the offset pushes, the periodic wrap
/// across slabs and the bounce-back correction.
#[test]
fn omp_fused_run_is_discipline_clean() {
    let _g = serial();
    for plan in [KernelPlan::Split, KernelPlan::Fused] {
        let cfg = SimulationConfig {
            bc: BoundaryConfig {
                x: AxisBoundary::Periodic,
                y: AxisBoundary::Walls {
                    lo: [0.0; 3],
                    hi: [0.02, 0.0, 0.0],
                },
                z: AxisBoundary::Walls {
                    lo: [0.0, -0.01, 0.0],
                    hi: [0.0; 3],
                },
            },
            plan,
            ..SimulationConfig::quick_test()
        };
        let mut solver = OpenMpSolver::new(cfg, 3);
        racecheck::begin();
        // Two calls on one team: the regions of both are audited.
        solver.run(1);
        solver.run(1);
        let report = racecheck::audit();
        assert!(
            report.dropped == 0,
            "{plan:?}: log overflow: {} dropped",
            report.dropped
        );
        assert!(
            report.records > 100_000,
            "{plan:?}: suspiciously few records: {}",
            report.records
        );
        report.assert_clean();
    }
}

/// Deliberately-seeded violation: two tracked threads write the same slot
/// in the same phase with no lock. The auditor must fire.
#[test]
fn seeded_unlocked_double_write_is_reported() {
    let _g = serial();
    let s = SharedSlice::from_vec(vec![0.0f64; 4]);
    s.name_for_racecheck("seeded");
    racecheck::begin();
    std::thread::scope(|scope| {
        for t in 0..2 {
            let s = &s;
            scope.spawn(move || {
                racecheck::set_thread(t);
                racecheck::set_phase(0);
                // SAFETY: deliberately violated — the auditor must fire.
                unsafe { s.set(1, t as f64) };
            });
        }
    });
    let report = racecheck::audit();
    assert_eq!(report.violations.len(), 1, "expected exactly one violation");
    let v = &report.violations[0];
    assert_eq!(v.array, "seeded");
    assert_eq!(v.index, 1);
    assert_eq!(v.phase, 0);
    assert!(
        v.detail.contains("without the owner lock"),
        "detail: {}",
        v.detail
    );
}

/// The same double write with both writers holding the owner lock is
/// serialised by the lock and must be accepted (the auditor's lock rule;
/// the cube solver itself takes no locks).
#[test]
fn locked_double_write_is_clean() {
    let _g = serial();
    let s = SharedSlice::from_vec(vec![[0.0f64; 3]; 4]);
    let lock = Mutex::new(());
    racecheck::begin();
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (s, lock) = (&s, &lock);
            scope.spawn(move || {
                racecheck::set_thread(t);
                racecheck::set_phase(0);
                let _guard = lock.lock().unwrap();
                let _rc = racecheck::lock_scope();
                // SAFETY: serialised by the lock.
                unsafe { s.add(2, [1.0, 0.0, 0.0]) };
            });
        }
    });
    racecheck::audit().assert_clean();
}

/// A cross-thread read/write pair in one phase is a violation even with a
/// single writer: the reader has no happens-before edge to the write.
#[test]
fn seeded_read_write_overlap_is_reported() {
    let _g = serial();
    let s = SharedSlice::from_vec(vec![0.0f64; 4]);
    racecheck::begin();
    std::thread::scope(|scope| {
        let s0 = &s;
        scope.spawn(move || {
            racecheck::set_thread(0);
            racecheck::set_phase(7);
            // SAFETY: deliberately violated — the auditor must fire.
            unsafe { s0.set(3, 1.0) };
        });
        let s1 = &s;
        scope.spawn(move || {
            racecheck::set_thread(1);
            racecheck::set_phase(7);
            // SAFETY: deliberately violated — the auditor must fire.
            let _ = unsafe { s1.get(3) };
        });
    });
    let report = racecheck::audit();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].phase, 7);
    assert_eq!(report.violations[0].index, 3);
}

/// The same accesses in *different* phases are separated by a barrier and
/// must be accepted — the auditor is phase-local by design.
#[test]
fn cross_phase_accesses_are_clean() {
    let _g = serial();
    let s = SharedSlice::from_vec(vec![0.0f64; 4]);
    racecheck::begin();
    std::thread::scope(|scope| {
        let s0 = &s;
        scope.spawn(move || {
            racecheck::set_thread(0);
            racecheck::set_phase(0);
            // SAFETY: sole writer in phase 0.
            unsafe { s0.set(3, 1.0) };
        });
        let s1 = &s;
        scope.spawn(move || {
            racecheck::set_thread(1);
            racecheck::set_phase(1);
            // SAFETY: phase 1 reads are separated from the phase-0 write by
            // the barrier that advanced the phase.
            let _ = unsafe { s1.get(3) };
        });
    });
    racecheck::audit().assert_clean();
}

/// Untracked threads (setup and teardown on the main thread) are ignored.
#[test]
fn untracked_threads_are_not_recorded() {
    let _g = serial();
    let s = SharedSlice::from_vec(vec![0.0f64; 4]);
    racecheck::begin();
    // SAFETY: single-threaded access.
    unsafe {
        s.set(0, 1.0);
        let _ = s.get(0);
    }
    let report = racecheck::audit();
    assert_eq!(report.records, 0);
    report.assert_clean();
}
