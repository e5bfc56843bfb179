//! The benchmark's workloads: how a seed becomes a configuration, how a
//! solver is set up from it, and what one closed-loop chunk does.

use std::path::{Path, PathBuf};

use lbm_ib::diagnostics::diagnostics;
use lbm_ib::solver::build_solver;
use lbm_ib::{
    checkpoint, RecoveryPolicy, RunTelemetry, SheetConfig, SimState, SimulationConfig, Solver,
    Supervisor, Watchdog,
};

use crate::trace::Tracer;

/// Worker threads of every cube run (the machine's two vCPUs).
pub const THREADS: usize = 2;

/// File name of the checkpoint `chunked_supervised` resumes from.
const START_CHECKPOINT: &str = "start.ckpt";
/// File name of the checkpoint `chunked_supervised` saves as it runs.
const RUN_CHECKPOINT: &str = "run.ckpt";
/// `chunked_supervised` saves a checkpoint every this many chunks (every
/// 16 steps). A 12.6 MB crash-consistent save costs several 4-step
/// chunks, so saving at every chunk would hide the per-call costs the
/// workload exists to show; this way the median chunk carries the
/// per-call work and the slowest quarter carries the save.
const SAVE_EVERY_CHUNKS: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 8 input at the 2-core point, at a quarter of its
    /// size: fluid kernels dominate. (At half size its 200 MB working set
    /// made the run-to-run spread of `step_ms_p50` exceed its bound.)
    Fig8Cube,
    /// A dense sheet inside thread 0's half of a 32³ box: fiber kernels
    /// and barrier wait dominate.
    SheetSkewed,
    /// A resumed 32³ run driven in short supervised chunks with a
    /// watchdog check and a progress read at every boundary and a
    /// checkpoint at every fourth: per-call cost dominates.
    ChunkedSupervised,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig8Cube,
        Workload::SheetSkewed,
        Workload::ChunkedSupervised,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Cube => "fig8_cube",
            Workload::SheetSkewed => "sheet_skewed",
            Workload::ChunkedSupervised => "chunked_supervised",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps per `Solver::run` call.
    pub fn chunk_steps(self) -> u64 {
        match self {
            Workload::Fig8Cube => 8,
            Workload::SheetSkewed => 10,
            Workload::ChunkedSupervised => 4,
        }
    }

    /// Untimed chunks run before the timed phase.
    pub fn warmup_chunks(self) -> usize {
        match self {
            Workload::Fig8Cube => 3,
            Workload::SheetSkewed => 3,
            Workload::ChunkedSupervised => 20,
        }
    }

    /// The configuration for `seed`: the preset physics with the sheet
    /// centre moved by a sub-lattice offset in [-0.5, 0.5) on each axis.
    pub fn config(self, seed: u64) -> SimulationConfig {
        let offset = sheet_offset(seed);
        let mut c = match self {
            Workload::Fig8Cube => SimulationConfig::fig8_scaled(2, 4),
            Workload::SheetSkewed => {
                let mut c = SimulationConfig::fig8_scaled(1, 4);
                c.sheet = SheetConfig::square(96, 24.0, [8.0, 16.0, 16.0]);
                c
            }
            Workload::ChunkedSupervised => {
                let mut c = SimulationConfig::fig8_scaled(1, 4);
                c.sheet = SheetConfig::square(16, 8.0, c.sheet.center);
                c
            }
        };
        for (centre, d) in c.sheet.center.iter_mut().zip(offset) {
            *centre += d;
        }
        c
    }
}

/// Three offsets in [-0.5, 0.5), a pure function of `seed` (splitmix64).
pub fn sheet_offset(seed: u64) -> [f64; 3] {
    let mut x = seed;
    [0; 3].map(|_| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

/// Writes what a workload needs on disk before anything is timed: the
/// checkpoint `chunked_supervised` resumes from, four steps into the run.
pub fn prepare(w: Workload, config: SimulationConfig, dir: &Path) -> Result<(), String> {
    if w != Workload::ChunkedSupervised {
        return Ok(());
    }
    let state = SimState::try_new(config).map_err(|e| e.to_string())?;
    let mut seq = build_solver("seq", state, 1).map_err(|e| e.to_string())?;
    seq.run(4).map_err(|e| e.to_string())?;
    checkpoint::save(&seq.to_state(), &dir.join(START_CHECKPOINT)).map_err(|e| e.to_string())
}

/// The state a workload starts from: fresh from the configuration, or
/// resumed from the prepared checkpoint.
pub fn start_state(w: Workload, config: SimulationConfig, dir: &Path) -> Result<SimState, String> {
    match w {
        Workload::ChunkedSupervised => checkpoint::resume(&dir.join(START_CHECKPOINT))
            .map(|(state, _)| state)
            .map_err(|e| e.to_string()),
        _ => SimState::try_new(config).map_err(|e| e.to_string()),
    }
}

/// A solver ready to run one workload's chunks.
pub struct Run {
    pub workload: Workload,
    pub solver: Box<dyn Solver>,
    watchdog: Watchdog,
    checkpoint: PathBuf,
    /// Telemetry merged over every chunk since the last `take_telemetry`.
    telemetry: Option<RunTelemetry>,
    /// Chunks completed.
    chunks: u64,
}

/// Everything `setup_s` covers: building or resuming the state, building
/// the solver or supervisor (which reorders into the cube layout) and
/// arming the watchdog.
pub fn setup(
    w: Workload,
    config: SimulationConfig,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Run, String> {
    let state = tracer.span("state", |_| start_state(w, config, dir))?;
    let mut watchdog = Watchdog::new();
    let solver: Box<dyn Solver> = match w {
        Workload::ChunkedSupervised => {
            let sup = tracer
                .span("build", |_| {
                    Supervisor::new("cube", state, THREADS, RecoveryPolicy::default())
                })
                .map_err(|e| e.to_string())?;
            tracer
                .span("observe", |_| watchdog.observe(&sup.to_state()))
                .map_err(|e| e.to_string())?;
            Box::new(sup)
        }
        _ => tracer
            .span("build", |_| build_solver("cube", state, THREADS))
            .map_err(|e| e.to_string())?,
    };
    Ok(Run {
        workload: w,
        solver,
        watchdog,
        checkpoint: dir.join(RUN_CHECKPOINT),
        telemetry: None,
        chunks: 0,
    })
}

impl Run {
    /// One closed-loop chunk: a `run` call and the boundary work after it.
    /// A failed call, a supervisor intervention or a tripped watchdog is
    /// a failed chunk.
    pub fn chunk(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let n = self.workload.chunk_steps();
        let solver = &mut self.solver;
        let report = tracer
            .span("run", |_| solver.run(n))
            .map_err(|e| e.to_string())?;
        if report.steps != n {
            return Err(format!("run({n}) advanced {} steps", report.steps));
        }
        if let Some(rec) = report.recovery.as_ref().filter(|r| !r.events.is_empty()) {
            return Err(format!(
                "supervisor intervened {} time(s)",
                rec.events.len()
            ));
        }
        if let Some(t) = report.telemetry {
            match &mut self.telemetry {
                Some(mine) => mine.merge(&t),
                None => self.telemetry = Some(t),
            }
        }
        self.chunks += 1;
        if self.workload == Workload::ChunkedSupervised {
            let state = tracer.span("to_state", |_| solver.to_state());
            let watchdog = &mut self.watchdog;
            tracer
                .span("observe", |_| watchdog.observe(&state))
                .map_err(|e| e.to_string())?;
            if self.chunks.is_multiple_of(SAVE_EVERY_CHUNKS) {
                let path = &self.checkpoint;
                tracer
                    .span("save", |_| checkpoint::save(&state, path))
                    .map_err(|e| e.to_string())?;
            }
            let d = tracer.span("diagnostics", |_| diagnostics(&state));
            std::hint::black_box(d);
        }
        Ok(())
    }

    /// The telemetry gathered since the last call, if it was switched on.
    pub fn take_telemetry(&mut self) -> Option<RunTelemetry> {
        self.telemetry.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm::cube_grid::CubeDims;
    use lbm::distribution::CubeDistribution;

    #[test]
    fn seed_mapping_is_deterministic_and_sub_lattice() {
        for seed in 0..1000 {
            let o = sheet_offset(seed);
            assert_eq!(o, sheet_offset(seed));
            assert!(o.iter().all(|d| (-0.5..0.5).contains(d)), "{seed}: {o:?}");
        }
        assert_ne!(sheet_offset(1), sheet_offset(2));
        for w in Workload::ALL {
            let (a, b) = (w.config(7), w.config(7));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn every_seed_gives_a_valid_config() {
        for w in Workload::ALL {
            for seed in (0..200).chain([u64::MAX, u64::MAX / 3]) {
                let c = w.config(seed);
                c.validate()
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            }
        }
    }

    #[test]
    fn workload_grids_match_their_descriptions() {
        let c = Workload::Fig8Cube.config(0);
        assert_eq!((c.nx, c.ny, c.nz, c.sheet.num_fibers), (64, 32, 32, 26));
        let c = Workload::SheetSkewed.config(0);
        assert_eq!((c.nx, c.ny, c.nz, c.sheet.num_fibers), (32, 32, 32, 96));
        let c = Workload::ChunkedSupervised.config(0);
        assert_eq!((c.nx, c.ny, c.nz, c.sheet.num_fibers), (32, 32, 32, 16));
        for w in Workload::ALL {
            let c = w.config(0);
            let fig8 = SimulationConfig::fig8(1);
            assert_eq!(c.tau, fig8.tau);
            assert_eq!(c.cube_k, 4);
            assert_eq!(c.plan, fig8.plan);
            assert_eq!(c.delta, fig8.delta);
            assert_eq!(format!("{:?}", c.bc), format!("{:?}", fig8.bc));
        }
    }

    #[test]
    fn skewed_sheet_support_stays_in_thread_zero_half() {
        let dist = CubeDistribution::block(THREADS);
        for seed in 0..500 {
            let c = Workload::SheetSkewed.config(seed);
            let cdims = CubeDims::new(c.dims(), c.cube_k);
            let h = c.delta.half_support();
            let lo = (c.sheet.center[0] - h).floor() as usize;
            let hi = (c.sheet.center[0] + h).ceil() as usize;
            for x in lo..=hi {
                let (cube, _) = cdims.split(x, 0, 0);
                assert_eq!(dist.owner_of(&cdims, cube), 0, "seed {seed}, x {x}");
            }
        }
    }
}
