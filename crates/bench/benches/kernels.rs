//! Criterion microbenchmarks of the nine LBM-IB kernels (Table I's rows as
//! individually measurable units) plus the coupling primitives.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use ib::delta::{CubeIndexer, DeltaKind};
use ib::forces;
use ib::sheet::FiberSheet;
use lbm::boundary::{stream_push_bounded, BoundaryConfig};
use lbm::collision::{bgk_collide_shifted, collide_shifted_slab};
use lbm::grid::{Dims, FluidGrid};
use lbm::lattice::Q;
use lbm::macroscopic::{initialize_equilibrium, update_velocity_shifted};
use lbm_ib::kernels;
use lbm_ib::{SimState, SimulationConfig};

fn bench_config() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.nx = 32;
    c.ny = 32;
    c.nz = 32;
    c.sheet = lbm_ib::SheetConfig::square(16, 8.0, [12.0, 16.0, 16.0]);
    c
}

fn warmed_state() -> SimState {
    let mut s = lbm_ib::SequentialSolver::new(bench_config());
    s.run(3);
    s.state
}

fn grid_32() -> FluidGrid {
    let mut g = FluidGrid::new(Dims::new(32, 32, 32));
    initialize_equilibrium(
        &mut g,
        |_, _, _| 1.0,
        |x, y, _| {
            [
                0.01 * (x as f64 * 0.2).sin(),
                0.01 * (y as f64 * 0.3).cos(),
                0.0,
            ]
        },
    );
    g
}

fn node_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("node");
    group.sample_size(20);
    let mut f = [0.0f64; Q];
    for (i, v) in f.iter_mut().enumerate() {
        *v = lbm::lattice::W[i];
    }
    group.bench_function("bgk_collide_shifted", |b| {
        b.iter(|| {
            let mut fl = f;
            bgk_collide_shifted(black_box(&mut fl), 1.0, [0.01, 0.02, 0.0], 0.8);
            fl
        })
    });
    group.bench_function("delta_peskin4_eval3", |b| {
        b.iter(|| DeltaKind::Peskin4.eval3(black_box(0.3), black_box(-0.7), black_box(1.2)))
    });
    group.finish();
}

fn fluid_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_32cubed");
    group.sample_size(10);
    group.bench_function("k5_collision", |b| {
        b.iter_batched(
            grid_32,
            |mut g| {
                collide_shifted_slab(&mut g.slab_mut(), 0.8);
                g
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("k6_stream", |b| {
        b.iter_batched(
            grid_32,
            |mut g| {
                stream_push_bounded(&mut g, &BoundaryConfig::tunnel());
                g
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("k7_update_velocity", |b| {
        b.iter_batched(
            grid_32,
            |mut g| {
                update_velocity_shifted(&mut g, 0.8);
                g
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("k9_copy", |b| {
        b.iter_batched(
            grid_32,
            |mut g| {
                g.copy_distributions();
                g
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("k9_swap_alternative", |b| {
        b.iter_batched(
            grid_32,
            |mut g| {
                g.swap_distributions();
                g
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn fiber_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fiber_52x52");
    group.sample_size(20);
    let make_sheet = || {
        let mut s = FiberSheet::paper_sheet(52, 20.0, [30.0, 32.0, 32.0], 1e-3, 3e-2);
        for (i, p) in s.pos.iter_mut().enumerate() {
            p[0] += 0.01 * ((i % 17) as f64 - 8.0);
        }
        s
    };
    group.bench_function("k1_bending", |b| {
        b.iter_batched(
            make_sheet,
            |mut s| {
                forces::compute_bending_force(&mut s);
                s
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("k2_stretching", |b| {
        b.iter_batched(
            make_sheet,
            |mut s| {
                forces::compute_stretching_force(&mut s);
                s
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("k3_elastic", |b| {
        b.iter_batched(
            make_sheet,
            |mut s| {
                forces::compute_elastic_force(&mut s);
                s
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn coupling_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupling");
    group.sample_size(10);
    group.bench_function("k4_spread", |b| {
        b.iter_batched(
            warmed_state,
            |mut s| {
                kernels::spread_force_from_fibers_to_fluid(&mut s);
                s
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("k8_move_fibers", |b| {
        b.iter_batched(
            warmed_state,
            |mut s| {
                kernels::move_fibers(&mut s);
                s
            },
            BatchSize::LargeInput,
        )
    });
    let bc = BoundaryConfig::periodic();
    let g = grid_32();
    let dims = Dims::new(32, 32, 32);
    let indexer = CubeIndexer::planes(dims);
    group.bench_function("interp_one_node", |b| {
        b.iter(|| {
            let stencil = indexer.stencil(black_box([12.3, 15.7, 16.1]), DeltaKind::Peskin4, &bc);
            ib::interp::interp(&stencil, |_| true, |node| g.u[node])
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    node_kernels,
    fluid_kernels,
    fiber_kernels,
    coupling_kernels
);
criterion_main!(benches);
