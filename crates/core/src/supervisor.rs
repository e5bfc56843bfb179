//! Self-healing supervision: rollback-and-retry recovery with backoff
//! and graceful degradation.
//!
//! PR 3's watchdog *detects* a blown-up run and PR 4's typed failures
//! (`Unstable`, `WorkerPanicked`, `HaloTimeout`, `RankDisconnected`,
//! `OutOfSequence`) stop
//! it cleanly — but every one of those errors still killed the run. The
//! [`Supervisor`] composes the existing pieces into a runtime that heals
//! instead of dying: it wraps any [`Solver`] and, on a typed error,
//!
//! 1. **rolls back** to the last good state — the crash-consistent
//!    on-disk checkpoint (CRC + `.prev` rotation, see
//!    [`crate::checkpoint`]) when [`RecoveryPolicy::checkpoint`] is set,
//!    the in-memory last-good snapshot otherwise;
//! 2. **retries** under a bounded per-rung budget
//!    ([`RecoveryPolicy::retry_limit`]) with jitter-free exponential
//!    backoff ([`backoff_delay`]) — deterministic delays keep healed runs
//!    reproducible;
//! 3. **degrades** when the same rung keeps failing, walking a ladder:
//!    a repeatedly-panicking cube worker is quarantined by shrinking the
//!    thread mesh (`cube2thread`/`fiber2thread` remap to `threads − 1`,
//!    same 3-barrier Algorithm-4 structure), then the backend falls back
//!    across `dist → cube → omp → seq`. For the distributed prototype
//!    this means timed-out halo exchanges are retried with backoff first,
//!    and only a persistently silent peer is declared dead (the run
//!    continues on a shared-memory backend).
//!
//! Every intervention is recorded in a typed [`RecoveryReport`], surfaced
//! through [`RunReport::recovery`] and the CLI's `--metrics` JSON.
//!
//! Determinism: all four backends are bit-deterministic for a fixed
//! thread count, and rollback restores a committed boundary state, so a
//! healed run whose mesh and backend never changed is **bit-identical**
//! to a fault-free run. After a mesh remap or backend switch the physics
//! agrees to the usual cross-solver tolerance (≤1e-12 per step,
//! `verify::cross_check`).

use std::time::Duration;

use crate::config::RecoveryPolicy;
use crate::solver::{Backend, RunReport, Solver, SolverError};
use crate::state::SimState;
use crate::telemetry::RunTelemetry;

/// What the degradation ladder did after one failed attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Rolled back and retried on the same backend and thread mesh.
    Retry,
    /// Quarantined a repeatedly-panicking cube worker by remapping
    /// `cube2thread`/`fiber2thread` onto a shrunk thread mesh.
    RemapMesh { from: usize, to: usize },
    /// Fell back to the next backend down the ladder.
    SwitchBackend { from: Backend, to: Backend },
    /// Retry budget and ladder exhausted; the error was returned to the
    /// caller.
    GiveUp,
}

/// One recovery intervention: the error that triggered it, where the run
/// was rolled back to, the backoff served, and what the ladder did.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// 1-based failed-attempt number within this report.
    pub attempt: u32,
    /// Stable slug of the error variant (e.g. `worker_panicked`).
    pub error_kind: &'static str,
    /// Display form of the triggering error.
    pub error: String,
    /// Step of the restored snapshot.
    pub rollback_step: u64,
    /// Where the snapshot came from: `memory`, `disk`, or `disk-prev`
    /// (the rotated fallback after a torn primary).
    pub rollback_source: &'static str,
    /// Deterministic delay served before this retry.
    pub backoff: Duration,
    /// What the ladder did next.
    pub action: RecoveryAction,
}

/// Everything the supervisor did across a run: attempts, the full event
/// log, the backoff total, and where the ladder ended up.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Failed attempts observed (equals `events.len()`).
    pub attempts: u32,
    /// True when the retry budget and ladder were exhausted and the last
    /// error was returned to the caller.
    pub gave_up: bool,
    /// Backend the run finished (or gave up) on.
    pub final_backend: Backend,
    /// Thread/rank count the run finished (or gave up) on.
    pub final_threads: usize,
    /// Sum of all backoff delays served.
    pub total_backoff: Duration,
    /// One entry per failed attempt, in order.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryReport {
    /// An empty report for a run on `backend` with `threads` workers.
    pub fn new(backend: Backend, threads: usize) -> Self {
        Self {
            attempts: 0,
            gave_up: false,
            final_backend: backend,
            final_threads: threads,
            total_backoff: Duration::ZERO,
            events: Vec::new(),
        }
    }

    /// Merges a subsequent run's report into this one (events appended;
    /// the final backend/mesh is the later run's).
    pub fn merge(&mut self, other: RecoveryReport) {
        self.attempts += other.attempts;
        self.gave_up |= other.gave_up;
        self.total_backoff += other.total_backoff;
        self.events.extend(other.events);
        self.final_backend = other.final_backend;
        self.final_threads = other.final_threads;
    }

    /// Serialises the report as a JSON value (two-space-indented to sit
    /// under a `"recovery"` key at the top level of the `--metrics`
    /// document; see [`metrics_document`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("    \"attempts\": {},\n", self.attempts));
        out.push_str(&format!("    \"gave_up\": {},\n", self.gave_up));
        out.push_str(&format!(
            "    \"final_backend\": \"{}\",\n",
            self.final_backend.name()
        ));
        out.push_str(&format!("    \"final_threads\": {},\n", self.final_threads));
        out.push_str(&format!(
            "    \"total_backoff_ms\": {},\n",
            self.total_backoff.as_millis()
        ));
        out.push_str("    \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let action = match &e.action {
                RecoveryAction::Retry => "\"action\": \"retry\"".to_string(),
                RecoveryAction::RemapMesh { from, to } => format!(
                    "\"action\": \"remap-mesh\", \"from_threads\": {from}, \"to_threads\": {to}"
                ),
                RecoveryAction::SwitchBackend { from, to } => format!(
                    "\"action\": \"switch-backend\", \"from_backend\": \"{}\", \"to_backend\": \"{}\"",
                    from.name(),
                    to.name()
                ),
                RecoveryAction::GiveUp => "\"action\": \"give-up\"".to_string(),
            };
            out.push_str(&format!(
                "      {{\"attempt\": {}, \"error_kind\": \"{}\", \"error\": \"{}\", \"rollback_step\": {}, \"rollback_source\": \"{}\", \"backoff_ms\": {}, {}}}{}\n",
                e.attempt,
                e.error_kind,
                json_escape(&e.error),
                e.rollback_step,
                e.rollback_source,
                e.backoff.as_millis(),
                action,
                if i + 1 < self.events.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }");
        out
    }
}

/// Minimal JSON string escaping for error messages.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Stable slug for a [`SolverError`] variant, used in the recovery JSON
/// so downstream tooling can match on kinds without parsing messages.
pub fn error_kind(e: &SolverError) -> &'static str {
    match e {
        SolverError::Config(_) => "config",
        SolverError::ZeroThreads => "zero_threads",
        SolverError::NonPeriodicX => "non_periodic_x",
        SolverError::TooManyRanks { .. } => "too_many_ranks",
        SolverError::UnknownSolver(_) => "unknown_solver",
        SolverError::Unstable { .. } => "unstable",
        SolverError::WorkerPanicked { .. } => "worker_panicked",
        SolverError::HaloTimeout { .. } => "halo_timeout",
        SolverError::RankDisconnected { .. } => "rank_disconnected",
        SolverError::OutOfSequence { .. } => "out_of_sequence",
        SolverError::Checkpoint { .. } => "checkpoint",
        SolverError::TeamStart { .. } => "team_start",
    }
}

/// The jitter-free exponential backoff schedule: `backoff × 2^(k−1)` for
/// the `k`-th consecutive failure, capped at
/// [`RecoveryPolicy::max_backoff`]. Deterministic by design — recovery
/// must never introduce a source of run-to-run variation.
pub fn backoff_delay(policy: &RecoveryPolicy, consecutive_failures: u32) -> Duration {
    if consecutive_failures == 0 || policy.backoff.is_zero() {
        return Duration::ZERO;
    }
    let exp = consecutive_failures.saturating_sub(1).min(20);
    policy
        .backoff
        .saturating_mul(1u32 << exp)
        .min(policy.max_backoff)
}

/// Composes the CLI's `--metrics` JSON document from the telemetry
/// snapshot and the recovery report, either of which may be absent.
pub fn metrics_document(
    telemetry: Option<&RunTelemetry>,
    recovery: Option<&RecoveryReport>,
) -> String {
    match (telemetry, recovery) {
        (Some(t), Some(r)) => t.to_json_with_sections(&[("recovery", r.to_json())]),
        (Some(t), None) => t.to_json(),
        (None, Some(r)) => format!("{{\n  \"recovery\": {}\n}}\n", r.to_json()),
        (None, None) => "{}\n".to_string(),
    }
}

/// Wraps any solver in the automatic recovery loop described in the
/// module docs. Implements [`Solver`] itself, so callers drive it exactly
/// like the solver it supervises.
pub struct Supervisor {
    policy: RecoveryPolicy,
    /// Current rung: backend …
    backend: Backend,
    /// … and thread/rank count.
    threads: usize,
    solver: Box<dyn Solver>,
    /// State at the last committed chunk boundary — the in-memory
    /// rollback anchor (mirrored to disk when the policy has a
    /// checkpoint path).
    last_good: SimState,
    telemetry: bool,
    /// Cumulative report across all `run` calls.
    total: RecoveryReport,
}

impl Supervisor {
    /// Builds a supervisor over the backend named by `kind` (same names
    /// as [`crate::solver::build_solver`]); see
    /// [`Supervisor::with_backend`].
    pub fn new(
        kind: &str,
        state: SimState,
        threads: usize,
        policy: RecoveryPolicy,
    ) -> Result<Self, SolverError> {
        Self::with_backend(kind.parse()?, state, threads, policy)
    }

    /// Builds a supervisor over `backend`. When the policy carries a
    /// checkpoint path, the initial state is saved immediately so a
    /// failure in the very first chunk can roll back through the on-disk
    /// machinery.
    pub fn with_backend(
        backend: Backend,
        state: SimState,
        threads: usize,
        policy: RecoveryPolicy,
    ) -> Result<Self, SolverError> {
        let last_good = state.clone();
        let solver = backend.build(state, threads)?;
        if let Some(path) = &policy.checkpoint {
            crate::checkpoint::save(&last_good, path).map_err(|e| SolverError::Checkpoint {
                detail: e.to_string(),
            })?;
        }
        Ok(Self {
            policy,
            backend,
            threads,
            solver,
            last_good,
            telemetry: false,
            total: RecoveryReport::new(backend, threads),
        })
    }

    /// The cumulative recovery record across every `run` call — also
    /// available after a give-up, when the per-run report inside
    /// [`RunReport::recovery`] was lost with the error.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.total
    }

    /// Commits the current solver state as the rollback anchor, gathered
    /// into the anchor's existing buffers.
    fn commit(&mut self) -> Result<(), SolverError> {
        self.solver.to_state_into(&mut self.last_good);
        if let Some(path) = &self.policy.checkpoint {
            crate::checkpoint::save(&self.last_good, path).map_err(|e| {
                SolverError::Checkpoint {
                    detail: e.to_string(),
                }
            })?;
        }
        Ok(())
    }

    /// Restores the last good state: from disk (exercising the CRC check
    /// and `.prev` rotation fallback) when configured and readable, from
    /// the in-memory snapshot otherwise.
    fn rollback(&self) -> (SimState, &'static str) {
        if let Some(path) = &self.policy.checkpoint {
            match crate::checkpoint::resume_with_runtime(path, &self.last_good.config) {
                Ok((state, crate::checkpoint::ResumeSource::Primary)) => return (state, "disk"),
                Ok((state, crate::checkpoint::ResumeSource::Fallback)) => {
                    return (state, "disk-prev")
                }
                Err(_) => {} // both snapshots unreadable; memory still holds
            }
        }
        (self.last_good.clone(), "memory")
    }

    /// Rebuilds the solver for the current rung over `state`.
    fn rebuild(&mut self, state: SimState) -> Result<(), SolverError> {
        self.solver = self.backend.build(state, self.threads)?;
        self.solver.set_telemetry(self.telemetry);
        Ok(())
    }

    /// Walks one step down the degradation ladder and rebuilds there:
    /// quarantine-shrink the cube mesh after a worker panic, otherwise
    /// fall back `dist → cube → omp → seq` (skipping rungs the state
    /// cannot build on). `None` means the ladder is exhausted.
    fn degrade_and_rebuild(
        &mut self,
        err: &SolverError,
        state: &SimState,
    ) -> Option<RecoveryAction> {
        if matches!(err, SolverError::WorkerPanicked { .. })
            && self.backend == Backend::Cube
            && self.threads > 1
        {
            let from = self.threads;
            self.threads -= 1;
            if self.rebuild(state.clone()).is_ok() {
                return Some(RecoveryAction::RemapMesh {
                    from,
                    to: self.threads,
                });
            }
        }
        let from = self.backend;
        while let Some(next) = self.backend.fallback() {
            self.backend = next;
            if self.rebuild(state.clone()).is_ok() {
                return Some(RecoveryAction::SwitchBackend { from, to: next });
            }
        }
        None
    }

    /// Advances `n` steps under supervision. On success the report's
    /// [`RunReport::recovery`] holds this call's interventions (possibly
    /// none). On give-up the last error is returned and the interventions
    /// remain readable through [`Supervisor::recovery_report`].
    pub fn run_supervised(&mut self, n: u64) -> Result<RunReport, SolverError> {
        let mut delta = RecoveryReport::new(self.backend, self.threads);
        let result = self.attempts(n, &mut delta);
        delta.final_backend = self.backend;
        delta.final_threads = self.threads;
        self.total.merge(delta.clone());
        let mut report = result?;
        report.recovery = Some(delta);
        Ok(report)
    }

    /// The retry/degrade loop of [`Supervisor::run_supervised`]: runs the
    /// remaining steps, commits on success, and on a typed error rolls
    /// back, backs off and walks the ladder, logging into `delta`.
    fn attempts(&mut self, n: u64, delta: &mut RecoveryReport) -> Result<RunReport, SolverError> {
        let start = self.last_good.step;
        let mut report = RunReport::default();
        // Failures since the last committed progress (drives backoff) and
        // since the last rung change (drives the ladder).
        let mut consecutive = 0u32;
        let mut rung_fails = 0u32;
        while self.last_good.step - start < n {
            let remaining = n - (self.last_good.step - start);
            let e = match self.solver.run(remaining) {
                Ok(chunk) => {
                    // A failed disk commit stops the run: never compute
                    // steps that could not be recovered.
                    self.commit()?;
                    report.merge(chunk);
                    consecutive = 0;
                    rung_fails = 0;
                    continue;
                }
                Err(e) => e,
            };
            consecutive += 1;
            rung_fails += 1;
            delta.attempts += 1;
            let backoff = backoff_delay(&self.policy, consecutive);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            delta.total_backoff += backoff;
            let (state, rollback_source) = self.rollback();
            let rollback_step = state.step;
            let action =
                if rung_fails <= self.policy.retry_limit && self.rebuild(state.clone()).is_ok() {
                    Some(RecoveryAction::Retry)
                } else if self.policy.degrade {
                    let a = self.degrade_and_rebuild(&e, &state);
                    if a.is_some() {
                        rung_fails = 0;
                    }
                    a
                } else {
                    None
                };
            let action = action.unwrap_or(RecoveryAction::GiveUp);
            let gave_up = action == RecoveryAction::GiveUp;
            delta.events.push(RecoveryEvent {
                attempt: delta.attempts,
                error_kind: error_kind(&e),
                error: e.to_string(),
                rollback_step,
                rollback_source,
                backoff,
                action,
            });
            if gave_up {
                delta.gave_up = true;
                return Err(e);
            }
        }
        Ok(report)
    }
}

impl Solver for Supervisor {
    fn current_step(&self) -> u64 {
        self.solver.current_step()
    }
    fn run(&mut self, n: u64) -> Result<RunReport, SolverError> {
        self.run_supervised(n)
    }
    fn to_state_into(&self, out: &mut SimState) {
        self.solver.to_state_into(out)
    }
    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled;
        self.solver.set_telemetry(enabled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimulationConfig, WatchdogConfig};
    use crate::solver::build_solver;
    use crate::verify::compare_states;

    fn cfg() -> SimulationConfig {
        let mut c = SimulationConfig::quick_test();
        c.body_force = [3e-6, 0.0, 0.0];
        c
    }

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            backoff: Duration::ZERO,
            ..Default::default()
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lbmib_sup_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Supervision must be free on healthy runs: bit-identical physics on
    /// every backend, and an empty (but present) recovery record.
    #[test]
    fn fault_free_supervised_run_is_bit_identical_on_every_backend() {
        for kind in ["seq", "omp", "cube", "dist"] {
            let mut plain = build_solver(kind, SimState::new(cfg()), 2).unwrap();
            plain.run(6).unwrap();

            let mut sup = Supervisor::new(kind, SimState::new(cfg()), 2, policy()).unwrap();
            let report = sup.run_supervised(6).unwrap();
            assert_eq!(report.steps, 6, "{kind}");
            let rec = report.recovery.expect("supervised reports carry recovery");
            assert_eq!(rec.attempts, 0, "{kind}");
            assert!(rec.events.is_empty(), "{kind}");
            assert_eq!(rec.final_backend.name(), kind);
            assert_eq!(
                compare_states(&plain.to_state(), &sup.to_state()).worst(),
                0.0,
                "{kind}: supervision changed the physics"
            );
        }
    }

    /// Each commit gathers the anchor in place: after every chunk it is
    /// bitwise the solver's state, in the same `f` buffer.
    #[test]
    fn commit_gathers_into_the_same_anchor() {
        for backend in Backend::ALL {
            let mut sup =
                Supervisor::with_backend(backend, SimState::new(cfg()), 2, policy()).unwrap();
            let buffer = sup.last_good.fluid.f.as_ptr();
            for _ in 0..3 {
                sup.run(2).unwrap();
                assert_eq!(
                    sup.last_good.fingerprint(),
                    sup.solver.to_state().fingerprint(),
                    "{}",
                    backend.name()
                );
                assert_eq!(sup.last_good.fluid.f.as_ptr(), buffer, "{}", backend.name());
            }
        }
    }

    /// The backoff schedule is a pure function: doubling, capped, zero
    /// when disabled.
    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let p = RecoveryPolicy {
            backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(500),
            ..Default::default()
        };
        assert_eq!(backoff_delay(&p, 0), Duration::ZERO);
        assert_eq!(backoff_delay(&p, 1), Duration::from_millis(100));
        assert_eq!(backoff_delay(&p, 2), Duration::from_millis(200));
        assert_eq!(backoff_delay(&p, 3), Duration::from_millis(400));
        assert_eq!(backoff_delay(&p, 4), Duration::from_millis(500)); // capped
        assert_eq!(backoff_delay(&p, 32), Duration::from_millis(500));
        let off = RecoveryPolicy {
            backoff: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(backoff_delay(&off, 7), Duration::ZERO);
    }

    /// With degradation off, a persistent failure exhausts the retry
    /// budget and surfaces the typed error; the give-up is recorded.
    #[test]
    fn gives_up_with_typed_error_when_unrecoverable() {
        let mut config = cfg();
        config.watchdog = Some(WatchdogConfig { check_every: 1 });
        let mut state = SimState::new(config);
        state.fluid.u[3][0] = 0.9; // permanently unstable: every replay trips
        let mut sup = Supervisor::new(
            "seq",
            state,
            1,
            RecoveryPolicy {
                retry_limit: 2,
                degrade: false,
                backoff: Duration::ZERO,
                ..Default::default()
            },
        )
        .unwrap();
        let err = sup.run_supervised(10).unwrap_err();
        assert!(matches!(err, SolverError::Unstable { .. }), "{err}");
        let rec = sup.recovery_report();
        assert!(rec.gave_up);
        assert_eq!(rec.attempts, 3); // 2 retries + the give-up attempt
        assert_eq!(rec.events.last().unwrap().action, RecoveryAction::GiveUp);
        assert!(rec.events[..2]
            .iter()
            .all(|e| e.action == RecoveryAction::Retry));
    }

    /// With degradation on, an error no backend can outrun walks the full
    /// ladder before giving up — proving the backend-fallback rung.
    #[test]
    fn ladder_walks_backends_before_giving_up() {
        let mut config = cfg();
        config.watchdog = Some(WatchdogConfig { check_every: 1 });
        let mut state = SimState::new(config);
        state.fluid.u[3][0] = 0.9;
        let mut sup = Supervisor::new(
            "omp",
            state,
            2,
            RecoveryPolicy {
                retry_limit: 1,
                backoff: Duration::ZERO,
                ..Default::default()
            },
        )
        .unwrap();
        let err = sup.run_supervised(10).unwrap_err();
        assert!(matches!(err, SolverError::Unstable { .. }), "{err}");
        let rec = sup.recovery_report();
        assert!(rec.gave_up);
        assert_eq!(rec.final_backend, Backend::Seq, "ladder must end on seq");
        assert!(
            rec.events.iter().any(|e| e.action
                == RecoveryAction::SwitchBackend {
                    from: Backend::Omp,
                    to: Backend::Seq,
                }),
            "expected an omp → seq fallback, got {:?}",
            rec.events
        );
    }

    /// With a checkpoint path configured, rollback goes through the
    /// on-disk machinery (and records that it did).
    #[test]
    fn rollback_uses_disk_checkpoint_when_configured() {
        let dir = scratch("disk");
        let path = dir.join("sup.ckpt");
        let mut config = cfg();
        config.watchdog = Some(WatchdogConfig { check_every: 1 });
        let mut state = SimState::new(config);
        state.fluid.u[3][0] = 0.9;
        let mut sup = Supervisor::new(
            "seq",
            state,
            1,
            RecoveryPolicy {
                retry_limit: 1,
                degrade: false,
                backoff: Duration::ZERO,
                checkpoint: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(path.exists(), "the initial anchor must be saved eagerly");
        let _ = sup.run_supervised(10).unwrap_err();
        let rec = sup.recovery_report();
        assert!(rec
            .events
            .iter()
            .all(|e| e.rollback_source == "disk" && e.rollback_step == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_report_merge_accumulates() {
        let mut a = RecoveryReport {
            attempts: 1,
            total_backoff: Duration::from_millis(5),
            ..RecoveryReport::new(Backend::Cube, 4)
        };
        a.merge(RecoveryReport {
            attempts: 2,
            total_backoff: Duration::from_millis(7),
            ..RecoveryReport::new(Backend::Omp, 3)
        });
        assert_eq!(a.attempts, 3);
        assert_eq!(a.final_backend, Backend::Omp);
        assert_eq!(a.final_threads, 3);
        assert_eq!(a.total_backoff, Duration::from_millis(12));
    }

    /// The composed metrics document is well-formed in all four shapes.
    #[test]
    fn metrics_document_composes_all_shapes() {
        let rec = RecoveryReport {
            attempts: 1,
            events: vec![RecoveryEvent {
                attempt: 1,
                error_kind: "worker_panicked",
                error: "worker thread 1 panicked in phase \"x\"".into(),
                rollback_step: 0,
                rollback_source: "memory",
                backoff: Duration::from_millis(1),
                action: RecoveryAction::RemapMesh { from: 4, to: 3 },
            }],
            ..RecoveryReport::new(Backend::Cube, 4)
        };
        let doc = metrics_document(None, Some(&rec));
        assert!(doc.starts_with("{\n  \"recovery\": {"));
        assert!(doc.contains("\"remap-mesh\""));
        assert!(doc.contains("\\\"x\\\""), "quotes must be escaped: {doc}");
        assert_eq!(metrics_document(None, None), "{}\n");

        // Telemetry + recovery: the section lands before the closing
        // brace of the telemetry document.
        let mut sup = Supervisor::new("cube", SimState::new(cfg()), 2, policy()).unwrap();
        sup.set_telemetry(true);
        let report = sup.run_supervised(2).unwrap();
        let doc = metrics_document(report.telemetry.as_ref(), report.recovery.as_ref());
        assert!(doc.contains("\"threads\": ["));
        assert!(doc.contains("\"recovery\": {"));
        assert!(doc.trim_end().ends_with('}'));
    }

    /// Re-entry across supervised `run` calls stays bit-exact, like every
    /// other solver.
    #[test]
    fn split_supervised_runs_continue_exactly() {
        let mut once = Supervisor::new("cube", SimState::new(cfg()), 2, policy()).unwrap();
        once.run_supervised(6).unwrap();
        let mut twice = Supervisor::new("cube", SimState::new(cfg()), 2, policy()).unwrap();
        twice.run_supervised(3).unwrap();
        twice.run_supervised(3).unwrap();
        assert_eq!(
            compare_states(&once.to_state(), &twice.to_state()).worst(),
            0.0
        );
    }
}
