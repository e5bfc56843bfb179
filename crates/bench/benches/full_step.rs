//! Criterion benchmarks of the full coupled time step for all three
//! solvers — the per-step cost behind Figures 5 and 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lbm_ib::{CubeSolver, OpenMpSolver, SequentialSolver, SimulationConfig};

fn config() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.nx = 32;
    c.ny = 32;
    c.nz = 32;
    c.sheet = lbm_ib::SheetConfig::square(16, 8.0, [12.0, 16.0, 16.0]);
    c
}

fn sequential_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_step");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        let mut solver = SequentialSolver::new(config());
        solver.run(2); // warm
        b.iter(|| solver.step());
    });
    group.finish();
}

fn openmp_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_step_openmp");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            let mut solver = OpenMpSolver::new(config(), n);
            solver.run(2);
            b.iter(|| solver.step());
        });
    }
    group.finish();
}

fn cube_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_step_cube");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            let mut solver = CubeSolver::new(config(), n);
            solver.try_run(2).unwrap();
            // One run() call per iteration batch: the cube solver's unit of
            // work is a worker-team launch, so measure runs of 4 steps.
            b.iter(|| solver.try_run(4).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, sequential_step, openmp_step, cube_step);
criterion_main!(benches);
