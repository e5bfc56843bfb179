//! Reproduces **Table II**: L1/L2 data-cache miss rates and load imbalance
//! of the OpenMP implementation versus core count.
//!
//! The paper measured miss rates with PAPI hardware counters. This harness
//! substitutes the `cachesim` crate: a set-associative LRU L1→L2 hierarchy
//! with the `thog` machine's geometry (16 KB L1/core, 2 MB L2 per two
//! cores, stream prefetcher), replaying the address trace of one thread's
//! slab for one time step. The L1 rate is calibrated with a dynamic-access
//! multiplier (PAPI counts every load/store the compiled code issues; the
//! trace counts each scalar once — see `MissReport::with_access_multiplier`).
//! Load imbalance is *measured directly* from the real OpenMP solver's
//! telemetry: the share of thread time spent waiting at region joins.
//!
//! Usage: `table2_locality [--steps N] [--shrink S] [--cores 1,2,...] [--multiplier R]`

use cachesim::trace::simulate_flat;
use lbm_ib::OpenMpSolver;
use lbm_ib_bench::{span_and_imbalance, table1_input, Args, PAPER_TABLE2};

fn main() {
    let args = Args::parse();
    let shrink: usize = args.get_or("shrink", if args.flag("full") { 1 } else { 2 });
    let steps: u64 = args.get_or("steps", 5);
    let cores = args.get_list("cores", &[1, 2, 4, 8, 16, 32]);
    let multiplier: f64 = args.get_or("multiplier", 14.0);

    let config = table1_input(shrink);
    let dims = config.dims();

    println!("Table II reproduction: OpenMP locality and load balance");
    println!(
        "input: {}x{}x{} fluid (per-thread slab of the x axis), access multiplier {multiplier}",
        dims.nx, dims.ny, dims.nz
    );
    println!();
    println!(
        "{:>6} {:>9} {:>9} {:>11} | {:>9} {:>9} {:>11}",
        "cores", "L1 miss%", "L2 miss%", "imbalance%", "paper L1", "paper L2", "paper imbal"
    );
    println!("{}", lbm_ib_bench::rule(76));

    for &n in &cores {
        // Cache model: thread 0's slab; L2 shared by two cores when more
        // than one core is active on the socket.
        let planes = lbm_ib::openmp::balanced_ranges(dims.nx, n)[0].clone();
        let sharers = if n > 1 { 2 } else { 1 };
        let report = simulate_flat(dims, planes, sharers, 2).with_access_multiplier(multiplier);

        // Load imbalance: measured from the real solver.
        let mut solver = OpenMpSolver::new(config, n);
        solver.telemetry_enabled = true;
        let (_, imbal) = span_and_imbalance(&solver.run(steps).telemetry.unwrap());

        let paper = PAPER_TABLE2.iter().find(|r| r.0 == n);
        let (p1, p2, pi) = paper
            .map(|r| (r.1, r.2, r.3))
            .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        println!(
            "{n:>6} {:>9.2} {:>9.2} {:>11.2} | {p1:>9.2} {p2:>9.2} {pi:>11.1}",
            report.l1_miss_percent, report.l2_miss_percent, imbal
        );
    }

    println!();
    println!("shape checks (paper narrative):");
    println!("  - L1 miss rate is small and insensitive to core count");
    println!("  - L2 miss rate is an order of magnitude larger (poor locality)");
    println!("  - load imbalance grows with the core count");
}
