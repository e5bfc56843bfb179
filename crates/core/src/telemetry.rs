//! Per-thread run telemetry and the in-solver run-health watchdog.
//!
//! The paper's whole evaluation (Table I, Figures 8–11) rests on
//! per-kernel time breakdowns, barrier overhead and thread-load balance.
//! This module is the library's one record of them:
//!
//! * [`ThreadTelemetry`] — one worker's busy seconds per kernel, its
//!   barrier-wait time and count, and its `cube2thread`/`fiber2thread`
//!   ownership. Each solver accumulates these as plain values on the
//!   thread doing the work (the sequential loop, the OpenMP region helper,
//!   each cube worker or distributed rank) and hands them back through the
//!   join it already performs, so no cross-thread counters are needed.
//! * [`RunTelemetry`] — the merged view attached to
//!   [`crate::solver::RunReport`]: per-kernel totals over all nine
//!   Algorithm-1 kernels (plus the fused sweep), barrier-wait share and the
//!   load-imbalance ratio. Table I is [`RunTelemetry::table`]; Table II's
//!   imbalance is `100 ×` [`RunTelemetry::barrier_wait_share`]. It
//!   serialises itself to JSON (hand-rolled; the workspace has no serde)
//!   for `lbmib --metrics <path>` and the bench harness.
//! * [`Watchdog`] — an in-solver health check driven by
//!   [`crate::config::WatchdogConfig`]: every `check_every` steps the
//!   solver's state is inspected for NaN, mass drift and runaway velocity
//!   (the exact limits of [`crate::diagnostics`], shared constants so the
//!   CLI and in-run checks cannot diverge), turning silent garbage into a
//!   typed [`SolverError::Unstable`].

use crate::diagnostics::{diagnostics, Diagnostics};
use crate::profiling::KernelId;
use crate::solver::{Backend, SolverError};
use crate::state::SimState;

/// One thread's telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadTelemetry {
    /// Busy seconds per kernel, [`KernelId::ALL`] order.
    pub kernel_seconds: [f64; KernelId::COUNT],
    /// Seconds spent waiting at barriers (cube solver: the three
    /// `PhaseBarrier::wait_timed_checked` crossings per step; omp: the
    /// implicit region joins; dist: blocking halo/reduce receives).
    pub barrier_wait_seconds: f64,
    /// How many such waits were performed.
    pub barrier_waits: u64,
    /// Cubes owned (`cube2thread`, the cubes of loop 2; the cube solver's
    /// loop-3 runs are cut by stencil points and not counted here;
    /// x-planes for dist, 0 for seq/omp).
    pub cubes_owned: u64,
    /// Fibers owned (`fiber2thread`).
    pub fibers_owned: u64,
}

impl ThreadTelemetry {
    /// Total busy seconds across all kernels.
    pub fn busy_seconds(&self) -> f64 {
        self.kernel_seconds.iter().sum()
    }

    fn merge(&mut self, other: &ThreadTelemetry) {
        for (a, b) in self.kernel_seconds.iter_mut().zip(&other.kernel_seconds) {
            *a += b;
        }
        self.barrier_wait_seconds += other.barrier_wait_seconds;
        self.barrier_waits += other.barrier_waits;
        // Ownership is a static property of the run, not a sum.
        self.cubes_owned = self.cubes_owned.max(other.cubes_owned);
        self.fibers_owned = self.fibers_owned.max(other.fibers_owned);
    }
}

/// Merged telemetry of one [`crate::solver::Solver::run`] call, carried in
/// [`crate::solver::RunReport::telemetry`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunTelemetry {
    /// The backend that ran.
    pub solver: Backend,
    /// Steps covered by this snapshot.
    pub steps: u64,
    /// Wall-clock seconds of the covered run.
    pub wall_seconds: f64,
    /// One entry per worker thread / rank.
    pub per_thread: Vec<ThreadTelemetry>,
}

impl RunTelemetry {
    /// Number of threads covered.
    pub fn n_threads(&self) -> usize {
        self.per_thread.len()
    }

    /// CPU seconds spent in one kernel, summed over threads.
    pub fn kernel_seconds(&self, kernel: KernelId) -> f64 {
        self.per_thread
            .iter()
            .map(|t| t.kernel_seconds[kernel.index()])
            .sum()
    }

    /// Per-kernel CPU-second totals in [`KernelId::ALL`] order.
    pub fn kernel_totals(&self) -> [f64; KernelId::COUNT] {
        let mut out = [0.0; KernelId::COUNT];
        for t in &self.per_thread {
            for (o, v) in out.iter_mut().zip(&t.kernel_seconds) {
                *o += v;
            }
        }
        out
    }

    /// Total busy CPU seconds over all threads and kernels.
    pub fn busy_seconds(&self) -> f64 {
        self.per_thread
            .iter()
            .map(ThreadTelemetry::busy_seconds)
            .sum()
    }

    /// Total barrier-wait seconds over all threads.
    pub fn barrier_wait_seconds(&self) -> f64 {
        self.per_thread.iter().map(|t| t.barrier_wait_seconds).sum()
    }

    /// Total number of barrier waits over all threads.
    pub fn barrier_waits(&self) -> u64 {
        self.per_thread.iter().map(|t| t.barrier_waits).sum()
    }

    /// Barrier-wait share of the total accounted thread time:
    /// `wait / (busy + wait)`, in `[0, 1]` (0 for a wait-free run).
    pub fn barrier_wait_share(&self) -> f64 {
        let wait = self.barrier_wait_seconds();
        let denom = self.busy_seconds() + wait;
        if denom > 0.0 {
            wait / denom
        } else {
            0.0
        }
    }

    /// Load-imbalance ratio: max per-thread busy time over the mean
    /// (1.0 = perfectly balanced; the paper's Table II pathology shows up
    /// as ratios well above 1).
    pub fn imbalance_ratio(&self) -> f64 {
        let busy: Vec<f64> = self
            .per_thread
            .iter()
            .map(ThreadTelemetry::busy_seconds)
            .collect();
        let max = busy.iter().copied().fold(0.0, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Kernels by descending share of the busy time, with their
    /// percentage — the rows of Table I.
    pub fn ranked(&self) -> Vec<(KernelId, f64)> {
        let totals = self.kernel_totals();
        let total = totals.iter().sum::<f64>().max(1e-12);
        let mut rows: Vec<_> = KernelId::ALL
            .iter()
            .map(|&k| (k, 100.0 * totals[k.index()] / total))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Renders the Table I layout: [`RunTelemetry::ranked`], then the
    /// run's wall-clock time.
    pub fn table(&self) -> String {
        let mut out = String::from("Kernel | Kernel Name                          | % of Total\n");
        out.push_str("-------+--------------------------------------+-----------\n");
        for (k, pct) in self.ranked() {
            out.push_str(&format!(
                "{:>5}) | {:<36} | {:>8.2}%\n",
                k.paper_number(),
                k.paper_name(),
                pct
            ));
        }
        out.push_str(&format!(
            "total execution time = {:.3} s\n",
            self.wall_seconds
        ));
        out
    }

    /// Merges a subsequent run's telemetry into this one (per-thread sums;
    /// the thread lists are padded to the longer of the two).
    pub fn merge(&mut self, other: &RunTelemetry) {
        if other.per_thread.len() > self.per_thread.len() {
            self.per_thread
                .resize(other.per_thread.len(), ThreadTelemetry::default());
        }
        for (a, b) in self.per_thread.iter_mut().zip(&other.per_thread) {
            a.merge(b);
        }
        self.steps += other.steps;
        self.wall_seconds += other.wall_seconds;
    }

    /// One-line human summary for progress logs.
    pub fn summary(&self) -> String {
        format!(
            "telemetry: {} threads, busy {:.3}s, barrier wait {:.3}s ({:.1}% share, {} waits), imbalance ratio {:.3}",
            self.n_threads(),
            self.busy_seconds(),
            self.barrier_wait_seconds(),
            100.0 * self.barrier_wait_share(),
            self.barrier_waits(),
            self.imbalance_ratio()
        )
    }

    /// Serialises the snapshot as a self-contained JSON document (no serde
    /// in the workspace; numbers use Rust's shortest-round-trip `Debug`
    /// float form, which is valid JSON; non-finite values become `null`).
    pub fn to_json(&self) -> String {
        self.to_json_with_sections(&[])
    }

    /// [`RunTelemetry::to_json`] with extra top-level `"name": <value>`
    /// sections appended before the closing brace. Each value must already
    /// be serialised JSON — this is how the CLI composes the `--metrics`
    /// document out of the telemetry snapshot and the supervisor's
    /// recovery block without a serde dependency.
    pub fn to_json_with_sections(&self, sections: &[(&str, String)]) -> String {
        let totals = self.kernel_totals();
        let total_busy: f64 = totals.iter().sum();
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"solver\": \"{}\",\n", self.solver.name()));
        out.push_str(&format!("  \"steps\": {},\n", self.steps));
        out.push_str(&format!("  \"wall_seconds\": {},\n", jf(self.wall_seconds)));
        out.push_str(&format!("  \"n_threads\": {},\n", self.n_threads()));
        out.push_str(&format!(
            "  \"imbalance_ratio\": {},\n",
            jf(self.imbalance_ratio())
        ));
        out.push_str(&format!(
            "  \"barrier_wait_seconds\": {},\n",
            jf(self.barrier_wait_seconds())
        ));
        out.push_str(&format!(
            "  \"barrier_wait_share\": {},\n",
            jf(self.barrier_wait_share())
        ));
        out.push_str(&format!(
            "  \"total_barrier_waits\": {},\n",
            self.barrier_waits()
        ));
        out.push_str("  \"kernels\": [\n");
        for (i, k) in KernelId::ALL.iter().enumerate() {
            let share = if total_busy > 0.0 {
                totals[k.index()] / total_busy
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {{\"kernel\": {}, \"name\": \"{}\", \"seconds\": {}, \"share\": {}}}{}\n",
                k.paper_number(),
                k.paper_name(),
                jf(totals[k.index()]),
                jf(share),
                if i + 1 < KernelId::COUNT { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"threads\": [\n");
        for (t, tt) in self.per_thread.iter().enumerate() {
            let kernels: Vec<String> = tt.kernel_seconds.iter().map(|&s| jf(s)).collect();
            out.push_str(&format!(
                "    {{\"thread\": {}, \"busy_seconds\": {}, \"barrier_wait_seconds\": {}, \"barrier_waits\": {}, \"cubes_owned\": {}, \"fibers_owned\": {}, \"kernel_seconds\": [{}]}}{}\n",
                t,
                jf(tt.busy_seconds()),
                jf(tt.barrier_wait_seconds),
                tt.barrier_waits,
                tt.cubes_owned,
                tt.fibers_owned,
                kernels.join(", "),
                if t + 1 < self.per_thread.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
        for (name, value) in sections {
            out.push_str(&format!(",\n  \"{name}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }
}

/// JSON float formatting: shortest round-trip form, `null` for non-finite.
fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// In-solver run-health checks, configured by
/// [`crate::config::WatchdogConfig`]. The first [`Watchdog::observe`] call
/// arms the reference mass; every later call re-checks the stability
/// invariants and converts the first violation into
/// [`SolverError::Unstable`].
#[derive(Debug, Default)]
pub struct Watchdog {
    initial_mass: Option<f64>,
}

impl Watchdog {
    /// Fresh, unarmed watchdog.
    pub fn new() -> Self {
        Self { initial_mass: None }
    }

    /// Checks `state` against the stability invariants (NaN, max
    /// velocity, mass drift — the shared limits in [`crate::diagnostics`])
    /// and returns the [`Diagnostics`] it computed for them. The first call
    /// records the reference mass.
    pub fn observe(&mut self, state: &SimState) -> Result<Diagnostics, SolverError> {
        let d = diagnostics(state);
        let initial = *self.initial_mass.get_or_insert(d.mass);
        d.check_stability(initial)
            .map_err(|reason| SolverError::Unstable {
                step: d.step,
                reason,
            })?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cube threads over `steps` steps in `wall` seconds.
    fn filled(steps: u64, wall: f64) -> RunTelemetry {
        let thread = |kernel_seconds, barrier_wait_seconds, cubes_owned| ThreadTelemetry {
            kernel_seconds,
            barrier_wait_seconds,
            barrier_waits: 30,
            cubes_owned,
            fibers_owned: 4,
        };
        RunTelemetry {
            solver: Backend::Cube,
            steps,
            wall_seconds: wall,
            per_thread: vec![
                thread([1.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.5, 6),
                thread([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0], 1.5, 2),
            ],
        }
    }

    #[test]
    fn totals_and_ratios_sum_over_threads() {
        let t = filled(10, 4.5);
        assert_eq!(t.n_threads(), 2);
        assert_eq!(t.steps, 10);
        assert_eq!(t.kernel_seconds(KernelId::Collision), 4.0);
        assert_eq!(t.kernel_seconds(KernelId::BendingForce), 1.0);
        assert_eq!(t.busy_seconds(), 6.0);
        assert_eq!(t.barrier_wait_seconds(), 2.0);
        assert_eq!(t.barrier_waits(), 60);
        // wait / (busy + wait) = 2 / 8.
        assert!((t.barrier_wait_share() - 0.25).abs() < 1e-12);
        // busy: [4, 2] → max 4, mean 3 → ratio 4/3.
        assert!((t.imbalance_ratio() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.per_thread[0].cubes_owned, 6);
        assert_eq!(t.per_thread[1].fibers_owned, 4);
    }

    #[test]
    fn table_ranks_kernels_by_share() {
        let mut t = filled(1, 1.5);
        // Table I's top four kernels (ms): collision 730, update 126,
        // copy 59, stream 54.
        t.per_thread[0].kernel_seconds = [0.0; KernelId::COUNT];
        t.per_thread[1].kernel_seconds = [0.0, 0.0, 0.0, 0.0, 0.73, 0.054, 0.126, 0.0, 0.059, 0.0];
        let rows = t.ranked();
        assert_eq!(rows.len(), KernelId::COUNT);
        assert_eq!(rows[0].0, KernelId::Collision);
        assert!(rows[0].1 > 70.0, "collision share {}", rows[0].1);
        assert_eq!(rows[1].0, KernelId::UpdateVelocity);
        assert_eq!(rows[2].0, KernelId::CopyDistributions);
        assert!((rows.iter().map(|r| r.1).sum::<f64>() - 100.0).abs() < 1e-9);
        let table = t.table();
        assert!(table.starts_with("Kernel | Kernel Name"));
        let first = table.lines().nth(2).unwrap();
        assert!(first.contains("5) | compute_fluid_collision"), "{first}");
        assert!(table.contains("total execution time = 1.500 s"), "{table}");
    }

    #[test]
    fn merge_accumulates_chunks() {
        let mut a = filled(10, 4.5);
        a.merge(&filled(5, 1.5));
        assert_eq!(a.steps, 15);
        assert_eq!(a.wall_seconds, 6.0);
        assert_eq!(a.busy_seconds(), 12.0);
        assert_eq!(a.barrier_waits(), 120);
        // Ownership is static, not summed.
        assert_eq!(a.per_thread[0].cubes_owned, 6);
    }

    #[test]
    fn degenerate_telemetry_has_safe_ratios() {
        let t = RunTelemetry {
            per_thread: vec![ThreadTelemetry::default(); 3],
            ..filled(0, 0.0)
        };
        assert_eq!(t.barrier_wait_share(), 0.0);
        assert_eq!(t.imbalance_ratio(), 1.0);
    }

    #[test]
    fn json_has_all_kernels_and_threads() {
        let json = filled(10, 4.5).to_json();
        assert!(json.contains("\"solver\": \"cube\""));
        assert!(json.contains("\"barrier_wait_share\""));
        assert!(json.contains("\"imbalance_ratio\""));
        assert!(json.contains("compute_fluid_collision"));
        assert!(json.contains("fused_collide_stream"));
        assert_eq!(json.matches("\"kernel\":").count(), KernelId::COUNT);
        assert_eq!(json.matches("\"thread\":").count(), 2);
        // Structural sanity: balanced braces/brackets, even quote count.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_floats_are_finite_or_null() {
        assert_eq!(jf(1.5), "1.5");
        assert_eq!(jf(1e-7), "1e-7");
        assert_eq!(jf(f64::NAN), "null");
        assert_eq!(jf(f64::INFINITY), "null");
    }

    #[test]
    fn watchdog_arms_then_flags_nan() {
        use crate::config::SimulationConfig;
        let state = SimState::new(SimulationConfig::quick_test());
        let mut dog = Watchdog::new();
        dog.observe(&state).unwrap();
        let mut bad = state.clone();
        bad.fluid.u[7][0] = f64::NAN;
        match dog.observe(&bad) {
            Err(SolverError::Unstable { reason, .. }) => {
                assert!(reason.contains("NaN"), "{reason}")
            }
            other => panic!("expected Unstable, got {other:?}"),
        }
        // The original state still passes.
        dog.observe(&state).unwrap();
    }
}
