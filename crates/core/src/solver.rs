//! The unified [`Solver`] interface over the four drivers.
//!
//! Every solver — sequential (Algorithm 1), OpenMP-style slab-parallel,
//! cube-centric (Algorithm 4) and the distributed prototype — advances the
//! same physics; this module gives them one API so the binary, the
//! examples and the verification harness can drive any of them through a
//! `Box<dyn Solver>` instead of duplicated match arms.

use std::time::{Duration, Instant};

use crate::config::{ConfigError, WatchdogConfig};
use crate::cube::CubeSolver;
use crate::distributed::DistributedSolver;
use crate::openmp::OpenMpSolver;
use crate::sequential::SequentialSolver;
use crate::state::SimState;
use crate::telemetry::{RunTelemetry, Watchdog};

/// What a completed [`Solver::run`] did: how many steps, how long the
/// whole run took on the wall clock (including barriers and the team's
/// wake-up for the parallel solvers), and — when enabled via
/// [`Solver::set_telemetry`] — the per-thread kernel/barrier breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Time steps executed by this call.
    pub steps: u64,
    /// Wall-clock time of the whole call.
    pub wall: Duration,
    /// Per-thread telemetry, present when collection was enabled.
    pub telemetry: Option<RunTelemetry>,
    /// Recovery events, present when the run went through a
    /// [`crate::supervisor::Supervisor`] (empty-event reports mean the
    /// supervisor was on but never had to intervene).
    pub recovery: Option<crate::supervisor::RecoveryReport>,
}

impl RunReport {
    /// Steps per wall-clock second (0 for an empty or instantaneous run).
    pub fn steps_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }

    /// Merges a subsequent report into this one (telemetry and recovery
    /// events included).
    pub fn merge(&mut self, other: RunReport) {
        self.steps += other.steps;
        self.wall += other.wall;
        match (&mut self.telemetry, other.telemetry) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine @ None, theirs @ Some(_)) => *mine = theirs,
            _ => {}
        }
        match (&mut self.recovery, other.recovery) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs @ Some(_)) => *mine = theirs,
            _ => {}
        }
    }
}

/// Why a solver could not be built or run.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// The simulation configuration failed validation.
    Config(ConfigError),
    /// A parallel solver was asked for zero threads/ranks.
    ZeroThreads,
    /// The distributed solver needs the x axis periodic to slice it.
    NonPeriodicX,
    /// More ranks than x planes to distribute.
    TooManyRanks { ranks: usize, nx: usize },
    /// The solver name is not one of `seq|omp|cube|dist`.
    UnknownSolver(String),
    /// The in-run watchdog found the simulation blowing up (NaN fields,
    /// runaway velocity or mass drift) at `step`.
    Unstable { step: u64, reason: String },
    /// A cube-solver worker thread panicked. The barrier was poisoned so
    /// every sibling unwound instead of hanging; the step counter was not
    /// advanced.
    WorkerPanicked {
        /// Worker thread index.
        thread: usize,
        /// The phase the worker died in (one of
        /// [`crate::cube::WORKER_PHASES`]).
        phase: &'static str,
    },
    /// A distributed rank waited longer than the configured
    /// [`crate::config::SimulationConfig::halo_timeout`] for a message.
    HaloTimeout { rank: usize, peer: usize },
    /// A distributed rank's channel to a peer disconnected (peer gone).
    RankDisconnected { rank: usize, peer: usize },
    /// A distributed rank received a message from `peer` other than the
    /// `expected` one: the peer skipped a step of the exchange protocol.
    OutOfSequence {
        rank: usize,
        peer: usize,
        expected: &'static str,
    },
    /// A periodic checkpoint save failed (the run stops rather than keep
    /// computing steps that could never be recovered).
    Checkpoint { detail: String },
    /// The OS refused a worker thread while a parallel solver started its
    /// team of `threads` workers.
    TeamStart { threads: usize, detail: String },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Config(e) => write!(f, "{e}"),
            SolverError::ZeroThreads => write!(f, "need at least one thread"),
            SolverError::NonPeriodicX => write!(
                f,
                "the distributed decomposition slices the periodic x axis"
            ),
            SolverError::TooManyRanks { ranks, nx } => {
                write!(f, "{ranks} ranks but only {nx} x planes to distribute")
            }
            SolverError::UnknownSolver(name) => {
                write!(f, "unknown solver '{name}' (expected seq|omp|cube|dist)")
            }
            SolverError::Unstable { step, reason } => {
                write!(f, "simulation unstable at step {step}: {reason}")
            }
            SolverError::WorkerPanicked { thread, phase } => {
                write!(f, "worker thread {thread} panicked in phase {phase}")
            }
            SolverError::HaloTimeout { rank, peer } => {
                write!(
                    f,
                    "rank {rank} timed out waiting for a message from rank {peer}"
                )
            }
            SolverError::RankDisconnected { rank, peer } => {
                write!(f, "rank {rank} lost its channel to rank {peer}")
            }
            SolverError::OutOfSequence {
                rank,
                peer,
                expected,
            } => write!(
                f,
                "rank {rank} expected a {expected} message from rank {peer} and got another"
            ),
            SolverError::Checkpoint { detail } => {
                write!(f, "checkpoint save failed: {detail}")
            }
            SolverError::TeamStart { threads, detail } => {
                write!(
                    f,
                    "cannot start a team of {threads} worker threads: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SolverError {
    fn from(e: ConfigError) -> Self {
        SolverError::Config(e)
    }
}

/// The four backends, as named by the `--solver` flag. Parsed once at
/// the edge ([`build_solver`], [`crate::supervisor::Supervisor::new`], the
/// CLI) and carried typed from there on. Declared in `seq|omp|cube|dist`
/// order, which [`Backend::ALL`], the name table and the ladder follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// [`SequentialSolver`] (Algorithm 1).
    Seq,
    /// [`OpenMpSolver`] (slab-parallel kernels).
    Omp,
    /// [`CubeSolver`] (Algorithm 4).
    Cube,
    /// [`DistributedSolver`] (rank slabs with halo exchange).
    Dist,
}

impl Backend {
    /// Every backend, in `seq|omp|cube|dist` order.
    pub const ALL: [Backend; 4] = [Backend::Seq, Backend::Omp, Backend::Cube, Backend::Dist];

    /// The `--solver` name (also what JSON output prints).
    pub fn name(self) -> &'static str {
        ["seq", "omp", "cube", "dist"][self as usize]
    }

    /// The next rung of the supervisor's degradation ladder (the previous
    /// entry of [`Backend::ALL`]): `dist → cube → omp → seq`, then `None`.
    pub fn fallback(self) -> Option<Backend> {
        (self as usize).checked_sub(1).map(|i| Backend::ALL[i])
    }

    /// Builds this backend over `state`, with `threads` workers/ranks for
    /// the parallel drivers. A bad thread count or a decomposition the
    /// state cannot support comes back as [`SolverError`], not a panic.
    pub fn build(self, state: SimState, threads: usize) -> Result<Box<dyn Solver>, SolverError> {
        Ok(match self {
            Backend::Seq => Box::new(SequentialSolver::from_state(state)),
            Backend::Omp => Box::new(OpenMpSolver::try_from_state(state, threads)?),
            Backend::Cube => Box::new(CubeSolver::try_from_state(state, threads)?),
            Backend::Dist => Box::new(DistributedSolver::try_from_state(state, threads)?),
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = SolverError;

    fn from_str(name: &str) -> Result<Self, SolverError> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| SolverError::UnknownSolver(name.to_string()))
    }
}

/// A coupled LBM-IB time-stepping driver. All four implementations advance
/// identical physics (`verify::cross_check` holds them to ≤1e-12 of each
/// other under both kernel plans); they differ only in how the work is
/// scheduled over threads.
pub trait Solver {
    /// The absolute time step the solver stands at (no gather).
    fn current_step(&self) -> u64;

    /// Advances `n` time steps, reporting steps and wall time. With
    /// `config.watchdog` set, the state is checked at every multiple of
    /// its cadence and at the last step, so an `Ok` run ends on a state
    /// that passed the watchdog.
    fn run(&mut self, n: u64) -> Result<RunReport, SolverError>;

    /// Writes the current state into `out` in the flat layout (a copy for
    /// the flat solvers, a gather for the cube/distributed layouts). It
    /// reuses `out`'s buffers whatever `out` held before, so a caller that
    /// gathers at every chunk boundary keeps one state and pays no page
    /// faults after the first call.
    fn to_state_into(&self, out: &mut SimState);

    /// A fresh flat-layout snapshot: [`Solver::to_state_into`] into an
    /// empty state, so it equals what `to_state_into` writes bit for bit.
    fn to_state(&self) -> SimState {
        let mut out = SimState::empty();
        self.to_state_into(&mut out);
        out
    }

    /// Turns per-thread telemetry on or off. When on, every subsequent
    /// [`Solver::run`] attaches a [`RunTelemetry`] to its report (Table I
    /// is [`RunTelemetry::table`]), and the cube solver also times its
    /// barrier waits.
    fn set_telemetry(&mut self, enabled: bool);
}

/// The one chunk driver: advances `solver` by `n` steps, stopping at every
/// absolute step that is a multiple of a non-zero entry of `cadences` and
/// at the end of the call. Each stop calls `advance` for the steps up to
/// it, merges its report, then runs `at_boundary`. Chunked re-entry is
/// bit-exact for every solver, so where the stops fall never changes the
/// physics. `n = 0` neither advances nor calls `at_boundary`.
pub fn run_chunks<S: Solver + ?Sized>(
    solver: &mut S,
    n: u64,
    cadences: &[u64],
    mut advance: impl FnMut(&mut S, u64) -> Result<RunReport, SolverError>,
    mut at_boundary: impl FnMut(&mut S) -> Result<(), SolverError>,
) -> Result<RunReport, SolverError> {
    let mut at = solver.current_step();
    let end = at + n;
    let mut report = RunReport::default();
    while at < end {
        let next = cadences
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| (at / c + 1) * c)
            .fold(end, u64::min);
        report.merge(advance(solver, next - at)?);
        at = next;
        at_boundary(solver)?;
    }
    Ok(report)
}

/// `Solver::run` for the four backends: one `advance` call without a
/// watchdog; with one, [`run_chunks`] at its cadence, observing the start
/// state (which arms the reference mass) and every stop. `view` gives the
/// flat state to observe: the solver's own for `seq`/`omp`, or a gather
/// into the one scratch state this call keeps for every stop.
fn run_guarded<S: Solver>(
    solver: &mut S,
    n: u64,
    watchdog: Option<WatchdogConfig>,
    mut advance: impl FnMut(&mut S, u64) -> Result<RunReport, SolverError>,
    view: impl for<'a> Fn(&'a S, &'a mut SimState) -> &'a SimState,
) -> Result<RunReport, SolverError> {
    let Some(cfg) = watchdog.filter(|c| c.check_every > 0) else {
        return advance(solver, n);
    };
    let mut dog = Watchdog::new();
    let mut scratch = SimState::empty();
    dog.observe(view(solver, &mut scratch))?;
    run_chunks(solver, n, &[cfg.check_every], advance, |s| {
        dog.observe(view(s, &mut scratch)).map(drop)
    })
}

/// The [`run_guarded`] view of a blocked layout: gathers into `out`.
fn gathered<'a, S: Solver>(solver: &'a S, out: &'a mut SimState) -> &'a SimState {
    solver.to_state_into(out);
    out
}

impl Solver for SequentialSolver {
    fn current_step(&self) -> u64 {
        self.state.step
    }
    fn run(&mut self, n: u64) -> Result<RunReport, SolverError> {
        let watchdog = self.state.config.watchdog;
        run_guarded(
            self,
            n,
            watchdog,
            |s, len| Ok(SequentialSolver::run(s, len)),
            |s, _| &s.state,
        )
    }
    fn to_state_into(&self, out: &mut SimState) {
        out.clone_from(&self.state);
    }
    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry_enabled = enabled;
    }
}

impl Solver for OpenMpSolver {
    fn current_step(&self) -> u64 {
        self.state.step
    }
    fn run(&mut self, n: u64) -> Result<RunReport, SolverError> {
        let watchdog = self.state.config.watchdog;
        run_guarded(
            self,
            n,
            watchdog,
            |s, len| Ok(OpenMpSolver::run(s, len)),
            |s, _| &s.state,
        )
    }
    fn to_state_into(&self, out: &mut SimState) {
        out.clone_from(&self.state);
    }
    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry_enabled = enabled;
    }
}

impl Solver for CubeSolver {
    fn current_step(&self) -> u64 {
        self.step
    }
    fn run(&mut self, n: u64) -> Result<RunReport, SolverError> {
        let watchdog = self.config.watchdog;
        run_guarded(self, n, watchdog, CubeSolver::try_run, gathered)
    }
    fn to_state_into(&self, out: &mut SimState) {
        CubeSolver::to_state_into(self, out)
    }
    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry_enabled = enabled;
    }
}

impl Solver for DistributedSolver {
    fn current_step(&self) -> u64 {
        self.step
    }
    fn run(&mut self, n: u64) -> Result<RunReport, SolverError> {
        let watchdog = self.config.watchdog;
        run_guarded(self, n, watchdog, DistributedSolver::try_run, gathered)
    }
    fn to_state_into(&self, out: &mut SimState) {
        DistributedSolver::to_state_into(self, out)
    }
    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry_enabled = enabled;
    }
}

/// Builds the solver named by `kind` (`seq|omp|cube|dist`) over `state`:
/// [`Backend`]'s parse, then [`Backend::build`]. All failure modes — bad
/// name, bad thread count, a decomposition the state cannot support —
/// come back as [`SolverError`] instead of a panic.
pub fn build_solver(
    kind: &str,
    state: SimState,
    threads: usize,
) -> Result<Box<dyn Solver>, SolverError> {
    kind.parse::<Backend>()?.build(state, threads)
}

/// Times `n` steps of any closure-driven stepper — shared by the inherent
/// `run` implementations that loop over `step`.
pub(crate) fn timed_steps(n: u64, mut step: impl FnMut()) -> RunReport {
    let t0 = Instant::now();
    for _ in 0..n {
        step();
    }
    RunReport {
        steps: n,
        wall: t0.elapsed(),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelPlan, SheetConfig, SimulationConfig};
    use crate::verify::compare_states;

    #[test]
    fn build_solver_covers_all_four() {
        let config = SimulationConfig::quick_test();
        for backend in Backend::ALL {
            let state = SimState::new(config);
            let mut s = build_solver(backend.name(), state, 2).unwrap();
            s.set_telemetry(true);
            let report = s.run(2).unwrap();
            assert_eq!(report.steps, 2);
            assert_eq!(s.to_state().step, 2);
            // Every backend, the distributed one included, times its
            // kernels.
            let t = report.telemetry.expect("telemetry on");
            assert_eq!(t.solver, backend);
            assert!(
                t.kernel_totals().iter().any(|&s| s > 0.0),
                "{}: no kernel time",
                backend.name()
            );
        }
    }

    /// `to_state_into` writes exactly what `to_state` returns into an
    /// empty state, into a stale state of another config (other dims, a
    /// larger tethered sheet), and into the same target again after more
    /// steps, where it keeps the target's `f` buffer. A `seq` run in
    /// lockstep checks the target independently of the gather: bitwise
    /// for `seq`, within the cross-solver bound for the others.
    #[test]
    fn to_state_into_is_bitwise_to_state_into_any_target() {
        use crate::config::TetherConfig;
        let mut config = SimulationConfig::quick_test();
        config.body_force = [2e-5, 1e-6, 0.0];
        config.sheet.center[1] += 0.3;
        config.sheet.tether = TetherConfig::LeadingEdge { stiffness: 0.1 };
        let mut stale_config = SimulationConfig::quick_test();
        (stale_config.nx, stale_config.ny) = (32, 20);
        stale_config.sheet = SheetConfig {
            tether: TetherConfig::CenterRegion {
                radius: 3.0,
                stiffness: 0.05,
            },
            ..SheetConfig::square(10, 5.0, [9.0, 9.0, 8.0])
        };
        let mut stale = SequentialSolver::new(stale_config);
        stale.run(2);
        for backend in Backend::ALL {
            for threads in [1, 3] {
                let what = format!("{} x{threads}", backend.name());
                let check = |target: &SimState, s: &dyn Solver, reference: &SimState| {
                    assert_eq!(target.fingerprint(), s.to_state().fingerprint(), "{what}");
                    let statics = |s: &SimState| format!("{:?} {:?}", s.config, s.tethers);
                    assert_eq!(statics(target), statics(reference), "{what}");
                    if backend == Backend::Seq {
                        assert_eq!(target.fingerprint(), reference.fingerprint(), "{what}");
                    }
                    let diff = compare_states(target, reference);
                    assert!(diff.within(1e-10), "{what}: {diff:?}");
                };
                let mut reference = SequentialSolver::new(config);
                let mut s = backend.build(SimState::new(config), threads).unwrap();
                reference.run(3);
                s.run(3).unwrap();
                let mut empty = SimState::empty();
                s.to_state_into(&mut empty);
                check(&empty, s.as_ref(), &reference.state);

                let mut target = stale.state.clone();
                s.to_state_into(&mut target);
                check(&target, s.as_ref(), &reference.state);
                let buffer = (target.fluid.f.as_ptr(), target.fluid.f.capacity());
                for _ in 0..2 {
                    reference.run(2);
                    s.run(2).unwrap();
                    s.to_state_into(&mut target);
                    check(&target, s.as_ref(), &reference.state);
                    let now = (target.fluid.f.as_ptr(), target.fluid.f.capacity());
                    assert_eq!(now, buffer, "{what}: f reallocated");
                }
                assert_eq!(target.step, 7, "{what}");
            }
        }
    }

    #[test]
    fn unknown_solver_is_an_error_not_a_panic() {
        let state = SimState::new(SimulationConfig::quick_test());
        let err = build_solver("mpi", state, 2).err().expect("must fail");
        assert_eq!(err, SolverError::UnknownSolver("mpi".into()));
        assert!(err.to_string().contains("mpi"));
    }

    #[test]
    fn zero_threads_is_an_error_not_a_panic() {
        for kind in ["omp", "cube", "dist"] {
            let state = SimState::new(SimulationConfig::quick_test());
            assert_eq!(
                build_solver(kind, state, 0).err().expect("must fail"),
                SolverError::ZeroThreads,
                "{kind}"
            );
        }
    }

    #[test]
    fn distributed_preconditions_are_typed() {
        let mut c = SimulationConfig::quick_test();
        c.bc = lbm::boundary::BoundaryConfig {
            x: lbm::boundary::AxisBoundary::no_slip(),
            ..c.bc
        };
        // A non-periodic x axis combined with the quick_test sheet stays
        // valid (the sheet has zero x extent well inside the box).
        let state = SimState::new(c);
        assert_eq!(
            DistributedSolver::try_from_state(state, 2)
                .err()
                .expect("must fail"),
            SolverError::NonPeriodicX
        );

        let state = SimState::new(SimulationConfig::quick_test());
        let nx = state.config.nx;
        assert_eq!(
            DistributedSolver::try_from_state(state, nx + 1)
                .err()
                .expect("must fail"),
            SolverError::TooManyRanks { ranks: nx + 1, nx }
        );
    }

    #[test]
    fn backend_names_round_trip_and_ladder_ends_on_seq() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>(), Ok(b));
        }
        assert_eq!(
            "mpi".parse::<Backend>(),
            Err(SolverError::UnknownSolver("mpi".into()))
        );
        let mut ladder = vec![Backend::Dist];
        while let Some(next) = ladder.last().unwrap().fallback() {
            ladder.push(next);
        }
        assert_eq!(
            ladder,
            [Backend::Dist, Backend::Cube, Backend::Omp, Backend::Seq]
        );
    }

    #[test]
    fn run_chunks_stops_on_absolute_multiples() {
        let config = SimulationConfig::quick_test();
        let mut s = SequentialSolver::new(config);
        s.run(4);
        let mut stops = Vec::new();
        let report = run_chunks(
            &mut s,
            50,
            &[10, 25],
            |s, len| Ok(SequentialSolver::run(s, len)),
            |s| {
                stops.push(s.current_step());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(stops, [10, 20, 25, 30, 40, 50, 54]);
        assert_eq!(report.steps, 50);
        // Where the stops fall never changes the physics.
        let mut once = SequentialSolver::new(config);
        once.run(54);
        assert_eq!(compare_states(&s.state, &once.state).worst(), 0.0);
    }

    #[test]
    fn run_chunks_of_zero_steps_does_nothing() {
        let mut s = SequentialSolver::new(SimulationConfig::quick_test());
        let report = run_chunks(
            &mut s,
            0,
            &[1],
            |_, _| panic!("advanced on n = 0"),
            |_| panic!("stopped on n = 0"),
        )
        .unwrap();
        assert_eq!(report, RunReport::default());
        assert_eq!(s.current_step(), 0);
    }

    /// An `Ok` from `Solver::run` means the last step passed the watchdog
    /// even when it is no multiple of the cadence, so the supervisor never
    /// commits an unchecked state.
    #[test]
    fn ok_run_has_passed_the_watchdog_at_its_final_step() {
        use crate::config::{SheetConfig, TetherConfig};
        // Absurd stiffness blows the sheet up within a few dozen steps.
        let mut config = SimulationConfig::quick_test();
        config.body_force = [1e-5, 0.0, 0.0];
        config.sheet = SheetConfig {
            k_bend: 50.0,
            k_stretch: 500.0,
            tether: TetherConfig::None,
            ..SheetConfig::square(8, 4.0, [8.0, 8.0, 8.0])
        };
        let mut probe = SequentialSolver::new(config);
        let mut dog = Watchdog::new();
        dog.observe(&probe.state).unwrap();
        let blowup = (1..=200)
            .find(|_| {
                probe.run(1);
                dog.observe(&probe.state).is_err()
            })
            .expect("the stiff sheet blows up");

        config.watchdog = Some(WatchdogConfig { check_every: 1000 });
        let mut healthy = build_solver("seq", SimState::new(config), 1).unwrap();
        assert_eq!(healthy.run(blowup - 1).unwrap().steps, blowup - 1);
        let mut s = build_solver("seq", SimState::new(config), 1).unwrap();
        match s.run(blowup) {
            Err(SolverError::Unstable { step, .. }) => assert_eq!(step, blowup),
            other => panic!("expected Unstable at step {blowup}, got {other:?}"),
        }
    }

    #[test]
    fn run_report_arithmetic() {
        let mut r = RunReport {
            steps: 10,
            wall: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(r.steps_per_second(), 5.0);
        r.merge(RunReport {
            steps: 5,
            wall: Duration::from_secs(1),
            ..Default::default()
        });
        assert_eq!(r.steps, 15);
        assert_eq!(r.wall, Duration::from_secs(3));
        assert_eq!(RunReport::default().steps_per_second(), 0.0);
    }

    #[test]
    fn watchdog_catches_instability_through_the_trait() {
        use crate::config::WatchdogConfig;
        // Seed an already-poisoned state; with check_every = 1 the first
        // post-chunk check must trip, typed, on every solver.
        for kind in ["seq", "omp", "cube", "dist"] {
            let mut config = SimulationConfig::quick_test();
            config.watchdog = Some(WatchdogConfig { check_every: 1 });
            let mut state = SimState::new(config);
            state.fluid.u[3][0] = 0.9; // far beyond the velocity limit
            let mut s = build_solver(kind, state, 2).unwrap();
            match s.run(10) {
                Err(SolverError::Unstable { reason, .. }) => {
                    assert!(reason.contains("velocity"), "{kind}: {reason}")
                }
                other => panic!("{kind}: expected Unstable, got {other:?}"),
            }
        }
    }

    #[test]
    fn watchdog_passes_healthy_runs_unchanged() {
        use crate::config::WatchdogConfig;
        use crate::verify::compare_states;
        let mut config = SimulationConfig::quick_test();
        let mut plain = build_solver("seq", SimState::new(config), 1).unwrap();
        let plain_report = plain.run(10).unwrap();
        config.watchdog = Some(WatchdogConfig { check_every: 3 });
        let mut watched = build_solver("seq", SimState::new(config), 1).unwrap();
        let report = watched.run(10).unwrap();
        assert_eq!(report.steps, 10);
        assert_eq!(plain_report.steps, 10);
        // Chunked re-entry is bit-exact: watched physics == unwatched.
        assert_eq!(
            compare_states(&plain.to_state(), &watched.to_state()).worst(),
            0.0
        );
    }

    #[test]
    fn chunked_checkpoints_save_and_match_plain_run() {
        let dir = std::env::temp_dir().join(format!("lbmib_rwc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let config = SimulationConfig::quick_test();

        let mut plain = build_solver("seq", SimState::new(config), 1).unwrap();
        plain.run(9).unwrap();

        let mut ckpt = build_solver("seq", SimState::new(config), 1).unwrap();
        let report = run_chunks(
            ckpt.as_mut(),
            9,
            &[4],
            |s, len| s.run(len),
            |s| {
                crate::checkpoint::save(&s.to_state(), &path).map_err(|e| SolverError::Checkpoint {
                    detail: e.to_string(),
                })
            },
        )
        .unwrap();
        assert_eq!(report.steps, 9);

        // The final checkpoint holds step 9 and bit-identical state; the
        // rotation left the step-8 save in `.prev`.
        let (resumed, source) = crate::checkpoint::resume(&path).unwrap();
        assert_eq!(source, crate::checkpoint::ResumeSource::Primary);
        assert_eq!(resumed.step, 9);
        assert_eq!(resumed.fluid.f, plain.to_state().fluid.f);
        let prev = crate::checkpoint::load(&crate::checkpoint::prev_path(&path)).unwrap();
        assert_eq!(prev.step, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fused_plan_runs_through_the_trait() {
        let config = SimulationConfig::builder()
            .plan(KernelPlan::Fused)
            .build()
            .unwrap();
        let mut s = build_solver("seq", SimState::new(config), 1).unwrap();
        let report = s.run(3).unwrap();
        assert_eq!(report.steps, 3);
        assert!(!s.to_state().has_nan());
    }
}
