//! Integration tests: crash-consistent checkpoint/restart.
//!
//! The contract under test is the one the paper's long-running inputs
//! need in practice: a run resumed from a checkpoint reproduces the
//! uninterrupted run **bit for bit** (for every solver, now that all
//! parallel scatters are deterministic), and no corrupted or truncated
//! checkpoint ever loads silently — corruption is a typed
//! [`lbm_ib::CheckpointError`], never garbage physics.

use ib::delta::DeltaKind;
use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm_ib::checkpoint::{self, read_checkpoint, write_checkpoint};
use lbm_ib::{
    build_solver, run_chunks, ResumeSource, SheetConfig, SimState, SimulationConfig, SolverError,
    TetherConfig,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn cfg() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    c.body_force = [4e-6, 0.0, 0.0];
    c
}

/// Unique scratch directory per test so parallel tests don't collide.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbmib_crash_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn resume_is_bit_exact_for_every_solver() {
    for (name, threads) in [("seq", 1), ("omp", 4), ("cube", 4), ("dist", 4)] {
        let mut full = build_solver(name, SimState::new(cfg()), threads).unwrap();
        full.run(10).unwrap();

        let mut first = build_solver(name, SimState::new(cfg()), threads).unwrap();
        first.run(4).unwrap();
        let mut buf = Vec::new();
        write_checkpoint(&first.to_state(), &mut buf).unwrap();
        let loaded = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(loaded.step, 4, "{name}");
        let mut resumed = build_solver(name, loaded, threads).unwrap();
        resumed.run(6).unwrap();

        let (a, b) = (full.to_state(), resumed.to_state());
        assert_eq!(a.step, b.step, "{name}");
        assert_eq!(a.fluid.f, b.fluid.f, "{name}: f must resume bit-exactly");
        assert_eq!(a.fluid.u, b.fluid.u, "{name}: u must resume bit-exactly");
        assert_eq!(
            a.sheet.pos, b.sheet.pos,
            "{name}: sheet must resume bit-exactly"
        );
    }
}

#[test]
fn torn_primary_falls_back_to_rotated_snapshot() {
    let dir = scratch_dir("fallback");
    let path = dir.join("run.ckpt");
    let mut s = build_solver("seq", SimState::new(cfg()), 1).unwrap();
    s.run(3).unwrap();
    checkpoint::save(&s.to_state(), &path).unwrap();
    s.run(3).unwrap();
    checkpoint::save(&s.to_state(), &path).unwrap(); // rotates step 3 to .prev

    // Tear the primary as a crash mid-write would.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let (state, source) = checkpoint::resume(&path).unwrap();
    assert_eq!(source, ResumeSource::Fallback);
    assert_eq!(state.step, 3, "fallback must hold the previous good save");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chunked_checkpoints_are_bit_exact_for_cube() {
    let dir = scratch_dir("rwc_cube");
    let path = dir.join("cube.ckpt");
    let mut plain = build_solver("cube", SimState::new(cfg()), 3).unwrap();
    plain.run(10).unwrap();

    // Save after every 3-step chunk and at the end, as `lbmib
    // --checkpoint-every 3` does.
    let mut chunked = build_solver("cube", SimState::new(cfg()), 3).unwrap();
    let report = run_chunks(
        chunked.as_mut(),
        10,
        &[3],
        |s, n| s.run(n),
        |s| {
            checkpoint::save(&s.to_state(), &path).map_err(|e| SolverError::Checkpoint {
                detail: e.to_string(),
            })
        },
    )
    .unwrap();
    assert_eq!(report.steps, 10);

    let (saved, source) = checkpoint::resume(&path).unwrap();
    assert_eq!(source, ResumeSource::Primary);
    assert_eq!(saved.step, 10);
    assert_eq!(saved.fluid.f, plain.to_state().fluid.f);
    std::fs::remove_dir_all(&dir).ok();
}

fn saved_bytes(state: &SimState) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_checkpoint(state, &mut bytes).unwrap();
    bytes
}

/// The cube solver on the dense sheet, whose stencils loop 3's owners
/// cut, saves the sequential bytes at 2–5 threads over several calls, and
/// across a save and a resume on another thread count (which cuts loop 3
/// anew).
#[test]
fn dense_sheet_resume_across_loop3_cuts_is_bit_exact_for_cube() {
    let dense = SimState::new(SimulationConfig::dense_sheet_test());
    let mut seq = build_solver("seq", dense.clone(), 1).unwrap();
    seq.run(7).unwrap();
    let want = saved_bytes(&seq.to_state());
    for threads in 2..=5 {
        let mut first = build_solver("cube", dense.clone(), threads).unwrap();
        first.run(2).unwrap();
        first.run(1).unwrap();
        let file = saved_bytes(&first.to_state());
        let resumed = read_checkpoint(&file[..]).unwrap();
        let other = threads % 4 + 2;
        let mut second = build_solver("cube", resumed, other).unwrap();
        second.run(4).unwrap();
        assert!(
            saved_bytes(&second.to_state()) == want,
            "{threads} threads, resumed on {other}"
        );
    }
}

/// A small evolved state for the corruption properties; dims are drawn per
/// case so layout-dependent bugs can't hide behind one fixed file size.
fn small_state(nx: usize, ny: usize, nz: usize, steps: u64) -> SimState {
    let mut c = SimulationConfig::quick_test();
    c.nx = nx;
    c.ny = ny;
    c.nz = nz;
    c.cube_k = 1;
    // Extent 2.0 keeps the sheet (plus delta support) clear of the walls
    // for every sampled grid, so validation passes.
    c.sheet = SheetConfig::square(4, 2.0, [nx as f64 / 2.0, ny as f64 / 2.0, nz as f64 / 2.0]);
    let mut s = build_solver("seq", SimState::new(c), 1).unwrap();
    s.run(steps).unwrap();
    s.to_state()
}

proptest! {
    #[test]
    fn round_trip_is_bit_exact_on_any_grid(
        nx in 8usize..20,
        ny in 8usize..16,
        nz in 8usize..16,
        steps in 0u64..3,
    ) {
        let state = small_state(nx, ny, nz, steps);
        let mut buf = Vec::new();
        write_checkpoint(&state, &mut buf).unwrap();
        let loaded = read_checkpoint(&buf[..]).unwrap();
        prop_assert_eq!(loaded.step, state.step);
        prop_assert_eq!(&loaded.fluid.f, &state.fluid.f);
        prop_assert_eq!(&loaded.fluid.u, &state.fluid.u);
        prop_assert_eq!(&loaded.sheet.pos, &state.sheet.pos);
        prop_assert_eq!(loaded.config.nx, nx);
    }

    #[test]
    fn any_single_byte_corruption_is_a_typed_error(
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255u8,
    ) {
        let state = small_state(8, 8, 8, 1);
        let mut buf = Vec::new();
        write_checkpoint(&state, &mut buf).unwrap();
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= mask;
        // Every single-byte flip must surface as a typed CheckpointError
        // (Format for header/guard damage, Crc for payload bit rot) —
        // never a silent load, never a panic or runaway allocation.
        match read_checkpoint(&buf[..]) {
            Err(
                lbm_ib::CheckpointError::Format(_)
                | lbm_ib::CheckpointError::Crc { .. }
                | lbm_ib::CheckpointError::Io(_),
            ) => {}
            Ok(_) => return Err(format!(
                "flip of byte {pos}/{} (mask {mask:#04x}) loaded silently",
                buf.len()
            )),
        }
    }

    #[test]
    fn any_truncation_is_a_typed_error(keep_frac in 0.0f64..1.0) {
        let state = small_state(8, 8, 8, 0);
        let mut buf = Vec::new();
        write_checkpoint(&state, &mut buf).unwrap();
        let keep = ((buf.len() - 1) as f64 * keep_frac) as usize;
        buf.truncate(keep);
        prop_assert!(
            read_checkpoint(&buf[..]).is_err(),
            "truncation to {keep} bytes must not load"
        );
    }
}

/// The config of the version-2 fixtures under `tests/fixtures/`: a 4³ grid
/// (cube edge 2), periodic in x and z, a resting wall and a lid moving at
/// 0.02 in x on y, the 2-node `Hat2` stencil, and a 2×2 sheet of extent 1
/// whose four nodes are all tethered.
fn fixture_config() -> SimulationConfig {
    let mut c = SimulationConfig::quick_test();
    (c.nx, c.ny, c.nz, c.cube_k) = (4, 4, 4, 2);
    c.body_force = [1e-5, 0.0, 0.0];
    c.delta = DeltaKind::Hat2;
    c.bc = BoundaryConfig {
        x: AxisBoundary::Periodic,
        y: AxisBoundary::Walls {
            lo: [0.0; 3],
            hi: [0.02, 0.0, 0.0],
        },
        z: AxisBoundary::Periodic,
    };
    c.sheet = SheetConfig {
        k_bend: 1e-4,
        k_stretch: 5e-3,
        tether: TetherConfig::CenterRegion {
            radius: 1.0,
            stiffness: 0.05,
        },
        ..SheetConfig::square(2, 1.0, [2.0, 1.5, 2.0])
    };
    c
}

/// Loads a fixture written by the version-2 writer (the format before the
/// compact fluid section).
fn load_fixture(name: &str) -> SimState {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        2,
        "{name} is not v2"
    );
    read_checkpoint(&bytes[..]).unwrap()
}

/// Asserts `a` and `b` agree bit for bit on every field of the state.
fn assert_same_state(a: &SimState, b: &SimState, what: &str) {
    assert_eq!(
        format!("{:?}", a.config),
        format!("{:?}", b.config),
        "{what}: config"
    );
    assert_eq!(a.step, b.step, "{what}: step");
    assert_eq!(
        format!("{:?}", a.tethers),
        format!("{:?}", b.tethers),
        "{what}: tethers"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let fluid = |g: &lbm::grid::FluidGrid| {
        [&g.f, &g.f_new, &g.rho]
            .map(|v| bits(v))
            .into_iter()
            .chain([&g.u, &g.ueq, &g.force].map(|v| bits(v.as_flattened())))
            .collect::<Vec<_>>()
    };
    assert_eq!(fluid(&a.fluid), fluid(&b.fluid), "{what}: fluid arrays");
    let sheet = |s: &ib::sheet::FiberSheet| {
        let scalars = [s.ds_node, s.ds_fiber, s.k_bend, s.k_stretch];
        let arrays =
            [&s.pos, &s.bending, &s.stretching, &s.elastic].map(|v| bits(v.as_flattened()));
        (s.num_fibers, s.nodes_per_fiber, bits(&scalars), arrays)
    };
    assert_eq!(sheet(&a.sheet), sheet(&b.sheet), "{what}: sheet");
}

#[test]
fn version_2_files_load_and_resume_bit_exactly() {
    let config = fixture_config();
    let fresh = SimState::try_new(config).unwrap();
    assert!(!fresh.tethers.tethers.is_empty());
    assert_same_state(&load_fixture("v2_step0.ckpt"), &fresh, "step-0 fixture");

    let run = |steps| {
        let mut s = build_solver("seq", SimState::new(config), 1).unwrap();
        s.run(steps).unwrap();
        s.to_state()
    };
    let step3 = load_fixture("v2_step3.ckpt");
    assert_same_state(&step3, &run(3), "step-3 fixture");

    let mut resumed = build_solver("seq", step3, 1).unwrap();
    resumed.run(5).unwrap();
    let encode = |state: &SimState| {
        let mut buf = Vec::new();
        write_checkpoint(state, &mut buf).unwrap();
        buf
    };
    assert!(
        encode(&resumed.to_state()) == encode(&run(8)),
        "a resumed v2 file must save the uninterrupted run's bytes"
    );
}
