//! Quickstart: the smallest end-to-end LBM-IB simulation, driven through
//! the unified [`Solver`] trait.
//!
//! A flexible 8×8-node sheet is placed in a small periodic-x tunnel, the
//! flow is driven by a uniform body force, and all four solvers advance
//! the same configuration behind `Box<dyn Solver>`. The example prints
//! diagnostics as the sheet is carried downstream and verifies every
//! parallel solver against the sequential one — the same check the paper
//! performed for every result — plus the fused-vs-split kernel-plan
//! cross-check.
//!
//! Run with: `cargo run --release --example quickstart`

use lbm_ib::diagnostics::diagnostics;
use lbm_ib::verify::{compare_states, cross_check};
use lbm_ib::{build_solver, SimState, SimulationConfig, Solver};

fn main() {
    // 1. Configure: a 24x16x16 tunnel with a small driving force and an
    //    8x8 fiber sheet. The builder validates at `build()`; any field
    //    can be overridden first.
    let config = SimulationConfig::builder()
        .body_force([4e-6, 0.0, 0.0])
        .build()
        .expect("configuration is sane");

    println!("LBM-IB quickstart");
    println!(
        "fluid {}x{}x{}, sheet {}x{} nodes, tau = {}",
        config.nx,
        config.ny,
        config.nz,
        config.sheet.num_fibers,
        config.sheet.nodes_per_fiber,
        config.tau
    );

    // 2. Simulate with the sequential solver behind the trait, printing
    //    diagnostics. `run` reports steps and wall time, and with
    //    telemetry on, the time spent in each kernel.
    let mut seq: Box<dyn Solver> =
        build_solver("seq", SimState::new(config), 1).expect("sequential solver");
    seq.set_telemetry(true);
    let steps = 60;
    let mut report = lbm_ib::RunReport::default();
    for _ in 0..6 {
        report.merge(seq.run(steps / 6).expect("run"));
        println!("{}", diagnostics(&seq.to_state()).summary());
    }
    println!(
        "{} steps in {:.1} ms",
        report.steps,
        report.wall.as_secs_f64() * 1e3
    );

    // 3. The run's telemetry reproduces the paper's Table I layout.
    println!("\nper-kernel profile (Table I layout):");
    print!("{}", report.telemetry.expect("telemetry is on").table());

    // 4. Run the parallel solvers on the same configuration — same trait,
    //    different name — and verify they produce the same physics.
    let reference = seq.to_state();
    println!("\nverification against the sequential solver after {steps} steps:");
    for kind in ["omp", "cube", "dist"] {
        let mut solver = build_solver(kind, SimState::new(config), 4).expect("solver");
        solver.run(steps).expect("run");
        let diff = compare_states(&reference, &solver.to_state());
        println!("  {:<4} (4 threads): max |Δ| = {:.3e}", kind, diff.worst());
        assert!(diff.within(1e-10), "{kind} solver diverged");
    }

    // 5. The fused collide–stream plan must match the split plan on every
    //    solver — it performs the same arithmetic in one sweep.
    for (backend, diff) in cross_check(config, 10, 4).expect("cross-check") {
        assert!(
            diff.within(1e-12),
            "{}: fused plan diverged",
            backend.name()
        );
    }
    println!("all solvers agree, split and fused ✓");
}
