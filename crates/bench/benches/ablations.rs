//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! copy-vs-swap (kernel 9), cube distribution policy, delta-kernel support width, cube edge length, and cache-layout effects
//! via the cachesim substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cachesim::trace::{simulate_cube, simulate_flat};
use ib::delta::DeltaKind;
use lbm::cube_grid::CubeDims;
use lbm::distribution::Policy;
use lbm::grid::Dims;
use lbm_ib::openmp::Schedule;
use lbm_ib::{CubeSolver, OpenMpSolver, SimulationConfig};

fn config_with_k(k: usize) -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.nx = 32;
    c.ny = 32;
    c.nz = 32;
    c.cube_k = k;
    c.sheet = lbm_ib::SheetConfig::square(16, 8.0, [12.0, 16.0, 16.0]);
    c
}

fn cube_edge_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube_edge_k");
    group.sample_size(10);
    for k in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut solver = CubeSolver::new(config_with_k(k), 2);
            solver.try_run(1).unwrap();
            b.iter(|| solver.try_run(2).unwrap());
        });
    }
    group.finish();
}

fn distribution_policy_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube_policy");
    group.sample_size(10);
    for (name, policy) in [
        ("block", Policy::Block),
        ("cyclic", Policy::Cyclic),
        ("block_cyclic_2", Policy::BlockCyclic { block: 2 }),
    ] {
        group.bench_function(name, |b| {
            let mut solver = CubeSolver::new(config_with_k(4), 4);
            solver.policy = policy;
            solver.try_run(1).unwrap();
            b.iter(|| solver.try_run(2).unwrap());
        });
    }
    group.finish();
}

fn delta_support_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_kind_step");
    group.sample_size(10);
    for (name, kind) in [
        ("hat2", DeltaKind::Hat2),
        ("roma3", DeltaKind::Roma3),
        ("peskin4", DeltaKind::Peskin4),
        ("peskin4poly", DeltaKind::Peskin4Poly),
    ] {
        group.bench_function(name, |b| {
            let mut cfg = config_with_k(4);
            cfg.delta = kind;
            let mut solver = lbm_ib::SequentialSolver::new(cfg);
            solver.run(2);
            b.iter(|| solver.step());
        });
    }
    group.finish();
}

fn schedule_ablation(c: &mut Criterion) {
    // The paper tried static vs dynamic OpenMP scheduling and saw no
    // difference on balanced inputs; verify that here.
    let mut group = c.benchmark_group("openmp_schedule");
    group.sample_size(10);
    for (name, schedule) in [
        ("static", Schedule::Static),
        ("dynamic_x4", Schedule::Dynamic { factor: 4 }),
    ] {
        group.bench_function(name, |b| {
            let mut solver = OpenMpSolver::new(config_with_k(4), 2);
            solver.schedule = schedule;
            solver.run(2);
            b.iter(|| solver.step());
        });
    }
    group.finish();
}

fn layout_cache_ablation(c: &mut Criterion) {
    // Not a timing ablation: replays the cache simulator for both layouts
    // and benches the simulator itself (trace replay throughput).
    let mut group = c.benchmark_group("cachesim_replay");
    group.sample_size(10);
    let dims = Dims::new(32, 32, 32);
    group.bench_function("flat_layout", |b| {
        b.iter(|| simulate_flat(dims, 0..32, 2, 1));
    });
    group.bench_function("cube_layout", |b| {
        let cdims = CubeDims::new(dims, 4);
        let cubes: Vec<usize> = (0..cdims.num_cubes()).collect();
        b.iter(|| simulate_cube(cdims, &cubes, 2, 1));
    });
    group.finish();
}

criterion_group!(
    benches,
    cube_edge_ablation,
    distribution_policy_ablation,
    delta_support_ablation,
    schedule_ablation,
    layout_cache_ablation
);
criterion_main!(benches);
