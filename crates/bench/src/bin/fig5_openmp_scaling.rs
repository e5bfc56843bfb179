//! Reproduces **Figure 5**: strong scaling of the OpenMP-style
//! implementation, 1–32 cores, on the Table I input (200 steps in the
//! paper).
//!
//! On a machine with fewer cores than the sweep, the extra threads are
//! oversubscribed: raw timings then mostly measure scheduling overhead, so
//! the harness also prints a work/span projection — per-thread busy time
//! (work), its maximum (span) plus measured synchronisation — which is the
//! quantity the paper's efficiency figure reflects. Both are reported.
//!
//! Usage: `fig5_openmp_scaling [--steps N] [--shrink S] [--threads 1,2,4,...] [--full]`

use lbm_ib::OpenMpSolver;
use lbm_ib_bench::{
    efficiency, span_and_imbalance, table1_input, timed, Args, PAPER_FIG5_EFFICIENCY,
};

fn main() {
    let args = Args::parse();
    let full = args.flag("full");
    let shrink: usize = args.get_or("shrink", if full { 1 } else { 2 });
    let steps: u64 = if full { 200 } else { args.get_or("steps", 10) };
    let threads = args.get_list("threads", &[1, 2, 4, 8, 16, 32]);

    let config = table1_input(shrink);

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Figure 5 reproduction: OpenMP strong scaling");
    println!(
        "input: {}x{}x{} fluid, {}x{} fibers, {steps} steps; hardware cores: {hw}",
        config.nx, config.ny, config.nz, config.sheet.num_fibers, config.sheet.nodes_per_fiber
    );
    println!();
    println!(
        "{:>7} {:>10} {:>9} {:>8} {:>11} {:>10} {:>12}",
        "threads", "wall s", "speedup", "eff %", "busy-max s", "imbal %", "paper eff %"
    );
    println!("{}", lbm_ib_bench::rule(74));

    let mut t1_wall = None;
    for &n in &threads {
        let mut solver = OpenMpSolver::new(config, n);
        solver.telemetry_enabled = true;
        let (report, wall) = timed(|| solver.run(steps));
        let (span, imbal) = span_and_imbalance(&report.telemetry.unwrap());
        if n == 1 {
            t1_wall = Some(wall);
        }
        let (speed, eff) = match t1_wall {
            Some(t1) => efficiency(t1, wall, n),
            None => (f64::NAN, f64::NAN),
        };
        let paper = PAPER_FIG5_EFFICIENCY
            .iter()
            .find(|(c, _)| *c == n)
            .map(|(_, e)| format!("{e:.0}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{n:>7} {wall:>10.3} {speed:>9.2} {eff:>8.1} {span:>11.3} {imbal:>10.2} {paper:>12}"
        );
    }
    println!();
    println!("paper narrative: efficiency ~75% at 8 cores, 56% at 16, 38% at 32.");
    if threads.iter().any(|&n| n > hw) {
        println!(
            "note: thread counts above {hw} are oversubscribed on this machine; wall-clock\n\
             speedup cannot exceed the hardware parallelism. The busy-max (span) column\n\
             and the load-imbalance column are the hardware-independent quantities."
        );
    }
}
