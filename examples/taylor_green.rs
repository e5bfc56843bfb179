//! Physics validation example: the decaying Taylor–Green vortex, the
//! classic analytic benchmark for the fluid kernels. Runs it through
//! `SequentialSolver` with an inert sheet (zero stiffness, so no force
//! reaches the fluid) and prints measured vs analytic kinetic-energy decay
//! plus the L2 velocity error at several resolutions, exhibiting the
//! method's second-order convergence.
//!
//! Run with: `cargo run --release --example taylor_green`

use lbm::analytic::{kinetic_energy, velocity_l2_error, TaylorGreen};
use lbm::boundary::BoundaryConfig;
use lbm::macroscopic::initialize_equilibrium;
use lbm_ib::{SequentialSolver, SheetConfig, SimulationConfig};

fn run_resolution(n: usize, steps: u64) -> (f64, f64, f64) {
    let config = SimulationConfig {
        nx: n,
        ny: n,
        nz: 1,
        tau: 0.8,
        body_force: [0.0; 3],
        bc: BoundaryConfig::periodic(),
        sheet: SheetConfig {
            k_bend: 0.0,
            k_stretch: 0.0,
            ..SheetConfig::square(2, 1.0, [n as f64 / 2.0, n as f64 / 2.0, 0.0])
        },
        ..SimulationConfig::quick_test()
    };
    // Diffusive scaling: velocity shrinks with resolution so the Mach
    // regime matches across runs.
    let tg = TaylorGreen {
        dims: config.dims(),
        u0: 0.04 * 8.0 / n as f64,
        nu: (config.tau - 0.5) / 3.0,
    };
    let mut solver = SequentialSolver::new(config);
    initialize_equilibrium(
        &mut solver.state.fluid,
        |_, _, _| 1.0,
        |x, y, z| tg.velocity(x, y, z, 0.0),
    );
    let e0 = kinetic_energy(&solver.state.fluid);
    solver.run(steps);
    let e1 = kinetic_energy(&solver.state.fluid);
    let t = steps as f64;
    let err = velocity_l2_error(&solver.state.fluid, |x, y, z| tg.velocity(x, y, z, t)) / tg.u0;
    (e1 / e0, tg.energy_ratio(t), err)
}

fn main() {
    println!("Taylor–Green vortex validation (periodic 2D vortex embedded in 3D)");
    println!();
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>12}",
        "N", "steps", "E(t)/E(0)", "analytic", "rel L2 err"
    );
    println!("{}", "-".repeat(58));

    let mut errors = Vec::new();
    for (n, steps) in [(8usize, 32u64), (16, 128), (32, 512)] {
        let (measured, analytic, err) = run_resolution(n, steps);
        println!("{n:>6} {steps:>8} {measured:>14.6} {analytic:>14.6} {err:>12.3e}");
        errors.push(err);
    }

    println!();
    let order1 = (errors[0] / errors[1]).log2();
    let order2 = (errors[1] / errors[2]).log2();
    println!("observed convergence order: {order1:.2} (8→16), {order2:.2} (16→32)");
    println!("(the lattice Boltzmann method is second-order accurate in space)");
    assert!(order1 > 1.5 && order2 > 1.5, "convergence order regressed");
}
