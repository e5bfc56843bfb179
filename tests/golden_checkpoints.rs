//! Integration tests: golden checkpoints.
//!
//! Each case below was run once by the sequential solver and its final
//! state saved under `tests/fixtures/golden_*.ckpt`. The test runs every
//! case fresh on `seq` (both kernel plans), `omp` at 3 threads and `cube`
//! at 2 threads, and requires the saved bytes to equal the fixture's. The
//! backends are bitwise equal to each other, so this pins their numerics
//! from one commit to the next: a change that moves any bit of the fluid,
//! the force field or the sheet fails here. A change that alters the
//! numerics on purpose regenerates the fixtures and says so in CHANGES.md.
//!
//! Those runs end at a step boundary, so they save the compact fluid
//! section. `golden_fresh_full.ckpt` pins the full section instead: a
//! fresh state with a distinct value in every component of u, u_eq and
//! the force, which must save to the fixture's bytes and load back to
//! the same state.

use ib::delta::DeltaKind;
use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm_ib::checkpoint::{read_checkpoint, write_checkpoint};
use lbm_ib::{build_solver, KernelPlan, SheetConfig, SimState, SimulationConfig, TetherConfig};
use std::path::PathBuf;

/// One golden run: a configuration, whether the sheet starts displaced off
/// its plane, and the number of steps before the save.
struct Case {
    fixture: &'static str,
    config: SimulationConfig,
    displaced: bool,
    steps: u64,
}

/// A small sheet with the `quick_test` stiffnesses.
fn sheet(center: [f64; 3]) -> SheetConfig {
    SheetConfig {
        k_bend: 1e-4,
        k_stretch: 1e-2,
        ..SheetConfig::square(4, 2.0, center)
    }
}

fn cases() -> [Case; 4] {
    let base = SimulationConfig {
        cube_k: 2,
        ..SimulationConfig::quick_test()
    };
    [
        // Periodic on every axis, driven along x and y, with the sheet at
        // x ≈ 0.4: its stencils wrap across the periodic x faces.
        Case {
            fixture: "golden_periodic_fused.ckpt",
            config: SimulationConfig {
                nx: 8,
                ny: 6,
                nz: 8,
                body_force: [1e-4, 2e-5, 0.0],
                bc: BoundaryConfig::periodic(),
                plan: KernelPlan::Fused,
                sheet: sheet([0.4, 3.0, 4.0]),
                ..base
            },
            displaced: true,
            steps: 30,
        },
        // The paper's tunnel (periodic x, walls in y and z) with the
        // 2-point hat kernel, under the split plan.
        Case {
            fixture: "golden_tunnel_split_hat2.ckpt",
            config: SimulationConfig {
                nx: 8,
                ny: 8,
                nz: 6,
                body_force: [1e-4, 0.0, 0.0],
                bc: BoundaryConfig::tunnel(),
                delta: DeltaKind::Hat2,
                plan: KernelPlan::Split,
                sheet: sheet([3.3, 4.0, 3.0]),
                ..base
            },
            displaced: false,
            steps: 30,
        },
        // A tunnel with the sheet's middle tethered to its start position.
        Case {
            fixture: "golden_tethered.ckpt",
            config: SimulationConfig {
                nx: 6,
                ny: 8,
                nz: 8,
                body_force: [1e-4, 0.0, 0.0],
                bc: BoundaryConfig::tunnel(),
                plan: KernelPlan::Fused,
                sheet: SheetConfig {
                    tether: TetherConfig::CenterRegion {
                        radius: 1.0,
                        stiffness: 0.05,
                    },
                    ..sheet([2.7, 4.0, 4.0])
                },
                ..base
            },
            displaced: false,
            steps: 30,
        },
        // A Couette channel: the y = ny − ½ wall moves along x and drags
        // the fluid, with no body force, past a displaced sheet.
        Case {
            fixture: "golden_moving_lid.ckpt",
            config: SimulationConfig {
                nx: 8,
                ny: 8,
                nz: 6,
                body_force: [0.0; 3],
                bc: BoundaryConfig {
                    x: AxisBoundary::Periodic,
                    y: AxisBoundary::Walls {
                        lo: [0.0; 3],
                        hi: [0.04, 0.0, 0.0],
                    },
                    z: AxisBoundary::Periodic,
                },
                plan: KernelPlan::Fused,
                sheet: sheet([3.6, 3.5, 3.0]),
                ..base
            },
            displaced: true,
            steps: 30,
        },
    ]
}

/// The start state of `case`: the configuration's fresh state, with the
/// sheet's nodes pushed off its plane if the case asks for it.
fn start_state(case: &Case) -> SimState {
    let mut state = SimState::try_new(case.config).unwrap();
    if case.displaced {
        for (i, p) in state.sheet.pos.iter_mut().enumerate() {
            p[0] += 0.01 * ((i * 7 % 11) as f64 - 5.0);
        }
    }
    state
}

/// The checkpoint bytes of `case` run on `backend` with `threads` workers
/// under `plan`.
fn saved_bytes(case: &Case, backend: &str, plan: KernelPlan, threads: usize) -> Vec<u8> {
    let mut state = start_state(case);
    state.config.plan = plan;
    let mut solver = build_solver(backend, state, threads).unwrap();
    solver.run(case.steps).unwrap();
    let mut bytes = Vec::new();
    write_checkpoint(&solver.to_state(), &mut bytes).unwrap();
    bytes
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn fresh_runs_save_the_golden_bytes() {
    for case in cases() {
        let want = fixture(case.fixture);
        assert_eq!(
            u64::from_le_bytes(want[8..16].try_into().unwrap()),
            3,
            "{} is not v3",
            case.fixture
        );
        let c = case.config;
        let mut runs = vec![
            ("seq", KernelPlan::Split, 1),
            ("seq", KernelPlan::Fused, 1),
            ("omp", c.plan, 3),
        ];
        if [c.nx, c.ny, c.nz].iter().all(|n| n % c.cube_k == 0) {
            runs.push(("cube", c.plan, 2));
        }
        for (backend, plan, threads) in runs {
            let got = saved_bytes(&case, backend, plan, threads);
            let what = format!("{}: {backend} {plan:?} {threads} thread(s)", case.fixture);
            assert_eq!(got.len(), want.len(), "{what}: length");
            if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                panic!("{what}: byte {i} of {} differs", got.len());
            }
        }
    }
}

/// The full-section fixture's configuration: a channel whose `y = ny − ½`
/// wall moves along x, with a tethered sheet.
fn fresh_full_config() -> SimulationConfig {
    SimulationConfig {
        nx: 4,
        ny: 8,
        nz: 4,
        cube_k: 2,
        body_force: [1e-5, 0.0, 0.0],
        bc: BoundaryConfig {
            x: AxisBoundary::Periodic,
            y: AxisBoundary::Walls {
                lo: [0.0; 3],
                hi: [0.03, 0.0, 0.0],
            },
            z: AxisBoundary::Periodic,
        },
        sheet: SheetConfig {
            tether: TetherConfig::CenterRegion {
                radius: 1.0,
                stiffness: 0.05,
            },
            ..SheetConfig::square(2, 1.0, [2.0, 4.0, 2.0])
        },
        ..SimulationConfig::quick_test()
    }
}

/// The fresh state of [`fresh_full_config`] with a distinct value in every
/// component of u, u_eq and the force at every node. A fresh state holds
/// zeros there, which would leave nine of the full section's twelve arrays
/// interchangeable.
fn fresh_full_state() -> SimState {
    let mut state = SimState::try_new(fresh_full_config()).unwrap();
    let g = &mut state.fluid;
    let mark = |k: usize, c: usize, i: usize| 1e-3 * (1 + 3 * k + c) as f64 + 1e-7 * i as f64;
    for (k, v) in [&mut g.u, &mut g.ueq, &mut g.force].into_iter().enumerate() {
        for (i, x) in v.iter_mut().enumerate() {
            *x = std::array::from_fn(|c| mark(k, c, i));
        }
    }
    state
}

/// Every field of `s` as exact bits (config, tethers and step as their
/// `Debug` text, which round-trips `f64`).
fn state_bits(s: &SimState) -> (String, Vec<Vec<u64>>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (g, sh) = (&s.fluid, &s.sheet);
    let fluid = [&g.f, &g.f_new, &g.rho]
        .map(|v| bits(v))
        .into_iter()
        .chain([&g.u, &g.ueq, &g.force].map(|v| bits(v.as_flattened())));
    let sheet = [&sh.pos, &sh.bending, &sh.stretching, &sh.elastic].map(|v| bits(v.as_flattened()));
    let scalars = [sh.ds_node, sh.ds_fiber, sh.k_bend, sh.k_stretch];
    let header = format!(
        "{:?} {:?} step {} {:?}",
        s.config,
        s.tethers,
        s.step,
        bits(&scalars)
    );
    (header, fluid.chain(sheet).collect())
}

/// The full fluid section, its twelve arrays in the file's order: the
/// marked fresh state saves exactly the fixture's bytes, and the fixture
/// loads back as that state on every field.
#[test]
fn fresh_state_saves_and_loads_the_full_section_fixture() {
    let want = fixture("golden_fresh_full.ckpt");
    let state = fresh_full_state();
    assert!(!state.tethers.tethers.is_empty(), "no tethers");
    let mut got = Vec::new();
    write_checkpoint(&state, &mut got).unwrap();
    assert_eq!(got.len(), want.len(), "length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!("byte {i} of {} differs", got.len());
    }
    let back = read_checkpoint(&want[..]).unwrap();
    assert_eq!(state_bits(&back), state_bits(&state));
}
