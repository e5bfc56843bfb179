//! Reproduces **Figure 8**: weak scaling of the OpenMP-style versus the
//! cube-based implementation, 1–64 cores. Per core the fluid grid is fixed
//! (128³ in the paper; scaled down by `--shrink`, default 8); the sheet is
//! fixed at 104×104 fiber nodes (scaled likewise). Ideal weak scaling is a
//! flat execution-time curve; the paper reports the OpenMP curve growing
//! much faster than the cube curve, with the cube version up to 53% better
//! at 64 cores.
//!
//! With fewer hardware cores than the sweep the wall-clock numbers measure
//! oversubscription; the harness therefore also reports per-thread busy
//! time (work/cores — the hardware-independent weak-scaling quantity) and
//! the synchronisation + imbalance overhead each design pays, which is
//! where the paper's gap comes from.
//!
//! Usage: `fig8_weak_scaling [--steps N] [--shrink S] [--cores 1,2,...] [--full]`

use cachesim::trace::{simulate_cube_marked, simulate_flat_fused};
use ib::delta::CubeIndexer;
use lbm::cube_grid::CubeDims;
use lbm::distribution::CubeDistribution;
use lbm_ib::{CubeSolver, OpenMpSolver, SimState, SimulationConfig};
use lbm_ib_bench::{span_and_imbalance, timed, Args, PAPER_FIG8_FINAL_GAP_PERCENT};

fn main() {
    let args = Args::parse();
    let full = args.flag("full");
    let shrink: usize = if full { 1 } else { args.get_or("shrink", 8) };
    let steps: u64 = args.get_or("steps", if full { 200 } else { 5 });
    let cores = args.get_list("cores", &[1, 2, 4, 8, 16, 32, 64]);

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Figure 8 reproduction: weak scaling, OpenMP vs cube-based");
    println!(
        "per-core grid: {}^3 / shrink {shrink}; {steps} steps; hardware cores: {hw}",
        128
    );
    println!(
        "plans: omp {:?} (from the config), cube {:?} (always)",
        SimulationConfig::fig8_scaled(1, shrink).plan,
        CubeSolver::PLAN
    );
    println!();
    println!(
        "{:>6} {:>16} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8} | {:>7}",
        "cores",
        "grid",
        "omp wall",
        "omp busy",
        "omp im%",
        "cube wall",
        "cube busy",
        "cube im%",
        "gap %"
    );
    println!("{}", lbm_ib_bench::rule(104));

    let mut rows = Vec::new();
    for &n in &cores {
        if !n.is_power_of_two() {
            eprintln!("skipping non-power-of-two core count {n}");
            continue;
        }
        let config = SimulationConfig::fig8_scaled(n, shrink);
        config.validate().expect("config");
        let label = format!("{}x{}x{}", config.nx, config.ny, config.nz);

        // One solver's team at a time: the omp team is joined before the
        // cube team starts, so at most `n` workers are alive at once.
        let (report, omp_wall) = {
            let mut omp = OpenMpSolver::new(config, n);
            omp.telemetry_enabled = true;
            timed(|| omp.run(steps))
        };
        let (omp_busy, omp_im) = span_and_imbalance(&report.telemetry.unwrap());

        let mut cube = CubeSolver::new(config, n);
        cube.telemetry_enabled = true;
        let (report, cube_wall) = timed(|| cube.try_run(steps).unwrap());
        let (cube_busy, cube_im) = span_and_imbalance(&report.telemetry.unwrap());

        // The paper's metric: how much slower OpenMP is than cube-based.
        let gap = 100.0 * (omp_wall - cube_wall) / cube_wall;
        println!(
            "{n:>6} {label:>16} | {omp_wall:>10.3} {omp_busy:>10.3} {omp_im:>8.2} | {cube_wall:>10.3} {cube_busy:>10.3} {cube_im:>8.2} | {gap:>7.1}"
        );
        rows.push((n, omp_wall, cube_wall));
    }

    println!();
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let omp_growth = 100.0 * (last.1 / first.1 - 1.0);
        let cube_growth = 100.0 * (last.2 / first.2 - 1.0);
        println!(
            "execution-time growth {}→{} cores: OpenMP +{omp_growth:.0}%, cube +{cube_growth:.0}%",
            first.0, last.0
        );
        println!(
            "final gap: {:.1}% (paper: up to {PAPER_FIG8_FINAL_GAP_PERCENT:.0}% at 64 cores)",
            100.0 * (last.1 - last.2) / last.2
        );
    }
    if cores.iter().any(|&n| n > hw) {
        println!(
            "note: counts above {hw} are oversubscribed here; on such points the wall\n\
             numbers include scheduler noise — the paper's curve shape should be judged\n\
             from the busy columns and the imbalance/synchronisation overheads."
        );
    }

    if args.flag("cachesim") {
        // The paper attributes the cube version's win to locality: a
        // smaller working set easing the memory-bandwidth bottleneck.
        // Replay one thread's per-step access trace of each layout through
        // the simulated thog cache hierarchy at each weak-scaling point.
        // Both traces are the fused schedules the solvers run: the flat
        // sweep plus kernels 7 and 9 over the slab, and the cube pass plus
        // kernel 7 on the cubes the start sheet's stencils reach.
        println!();
        println!(
            "locality mechanism (cache simulator, one thread's work, L2 shared when cores > 1):"
        );
        println!("DRAM B/node = bytes fetched from memory per owned fluid node per step —");
        println!("the bandwidth-bottleneck quantity the paper's argument rests on.");
        println!(
            "{:>6} {:>16} | {:>9} {:>9} {:>11} | {:>9} {:>9} {:>11}",
            "cores",
            "grid",
            "flat L1%",
            "flat L2%",
            "flat DRAM/n",
            "cube L1%",
            "cube L2%",
            "cube DRAM/n"
        );
        println!("{}", lbm_ib_bench::rule(96));
        for &n in &cores {
            if !n.is_power_of_two() {
                continue;
            }
            let config = SimulationConfig::fig8_scaled(n, shrink);
            let dims = config.dims();
            let sharers = if n > 1 { 2 } else { 1 };
            let slab = lbm_ib::openmp::balanced_ranges(dims.nx, n)[0].clone();
            let flat = simulate_flat_fused(dims, slab, sharers, 1);
            let cdims = CubeDims::new(dims, config.cube_k);
            let dist = CubeDistribution::block(n);
            let owner = dist.ownership_table(&cdims);
            let my_cubes: Vec<usize> = (0..cdims.num_cubes()).filter(|&c| owner[c] == 0).collect();
            let marked = stencil_cubes(config, cdims);
            let cube = simulate_cube_marked(cdims, &my_cubes, &marked, sharers, 1);
            let flat_nodes = (dims.n() / n).max(1) as f64;
            let cube_nodes = (my_cubes.len() * cdims.nodes_per_cube()).max(1) as f64;
            println!(
                "{n:>6} {:>16} | {:>9.2} {:>9.2} {:>11.1} | {:>9.2} {:>9.2} {:>11.1}",
                format!("{}x{}x{}", dims.nx, dims.ny, dims.nz),
                flat.l1_miss_percent,
                flat.l2_miss_percent,
                flat.dram_bytes as f64 / flat_nodes,
                cube.l1_miss_percent,
                cube.l2_miss_percent,
                cube.dram_bytes as f64 / cube_nodes,
            );
        }
    }
}

/// Per cube, whether a delta stencil of `config`'s start sheet reaches it:
/// the cubes where the cube solver runs kernel 7 and loop 2 reads the
/// force.
fn stencil_cubes(config: SimulationConfig, cdims: CubeDims) -> Vec<bool> {
    let mut marked = vec![false; cdims.num_cubes()];
    let indexer = CubeIndexer::new(cdims.dims, [cdims.k; 3]);
    for &p in &SimState::new(config).sheet.pos {
        indexer
            .stencil(p, config.delta, &config.bc)
            .for_each_block(|cube, _| marked[cube] = true);
    }
    marked
}
