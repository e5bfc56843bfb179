//! Shared helpers for the reproduction harnesses: a tiny flag parser and
//! table-printing utilities. One binary per paper table/figure lives in
//! `src/bin/`; criterion microbenchmarks live in `benches/`.

use std::time::Instant;

use lbm_ib::{RunTelemetry, SheetConfig, SimulationConfig};

/// Minimal `--flag value` parser over `std::env::args`.
///
/// Every harness accepts `--steps N` (time steps per measurement),
/// `--shrink N` (divide the paper's problem size by N per axis) and
/// `--full` (run the paper's exact sizes and step counts; slow).
#[derive(Clone, Debug)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// For tests: build from a list.
    pub fn from_list(list: &[&str]) -> Self {
        Self {
            raw: list.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// True if `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == &format!("--{name}"))
    }

    /// Value of `--name <v>`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// `--name` with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).unwrap_or(default)
    }

    /// Comma-separated list value, e.g. `--threads 1,2,4,8`.
    pub fn get_list(&self, name: &str, default: &[usize]) -> Vec<usize> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .unwrap_or_else(|| default.to_vec())
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Formats a speedup/efficiency row.
pub fn efficiency(t1: f64, tn: f64, n: usize) -> (f64, f64) {
    let speedup = t1 / tn;
    (speedup, 100.0 * speedup / n as f64)
}

/// The Table I input (124×64×64 fluid, 52×52 fiber nodes) with each axis
/// divided by `shrink`, validated.
pub fn table1_input(shrink: usize) -> SimulationConfig {
    let mut config = SimulationConfig::table1();
    if shrink > 1 {
        config.nx = (config.nx / shrink / 4).max(2) * 4;
        config.ny = (config.ny / shrink / 4).max(2) * 4;
        config.nz = (config.nz / shrink / 4).max(2) * 4;
        let n = (52 / shrink).max(4);
        let center = [
            config.nx as f64 / 4.0,
            config.ny as f64 / 2.0,
            config.nz as f64 / 2.0,
        ];
        config.sheet = SheetConfig::square(n, (20.0 / shrink as f64).max(2.0), center);
    }
    config.validate().expect("config");
    config
}

/// The OpenMP harnesses' views of a run's telemetry: the critical-path
/// seconds `(busy + wait) / threads` and the Table II load imbalance,
/// `100 × barrier_wait_share` (percent).
pub fn span_and_imbalance(t: &RunTelemetry) -> (f64, f64) {
    let span = (t.busy_seconds() + t.barrier_wait_seconds()) / t.n_threads() as f64;
    (span, 100.0 * t.barrier_wait_share())
}

/// The paper's Table I percentages, for side-by-side printing.
pub const PAPER_TABLE1: [(usize, &str, f64); 9] = [
    (5, "compute_fluid_collision", 73.2),
    (7, "update_fluid_velocity", 12.6),
    (9, "copy_fluid_velocity_distribution", 5.9),
    (6, "stream_fluid_velocity_distribution", 5.4),
    (4, "spread_force_from_fibers_to_fluid", 1.4),
    (8, "move_fibers", 0.7),
    (1, "compute_bending_force_in_fibers", 0.03),
    (2, "compute_stretching_force_in_fibers", 0.02),
    (3, "compute_elastic_force_in_fibers", 0.00),
];

/// The paper's Table II rows: (cores, L1 miss %, L2 miss %, imbalance %).
pub const PAPER_TABLE2: [(usize, f64, f64, f64); 6] = [
    (1, 1.76, 26.1, 0.0),
    (2, 1.75, 26.1, 1.8),
    (4, 1.75, 26.1, 1.4),
    (8, 1.75, 26.2, 5.1),
    (16, 1.74, 27.1, 11.0),
    (32, 1.76, 27.6, 13.0),
];

/// The paper's Figure 5 parallel efficiencies (strong scaling, OpenMP).
pub const PAPER_FIG5_EFFICIENCY: [(usize, f64); 4] =
    [(1, 100.0), (8, 75.0), (16, 56.0), (32, 38.0)];

/// The paper's Figure 8 narrative: per-doubling execution-time growth of
/// each implementation (percent increase when cores double), and the final
/// gap. OpenMP: +25% (2→4), +36% (4→8), ~+22% (8→32 per doubling), +42%
/// (32→64). Cube: +3% (1→2), ~+13% (2→32 per doubling), +18% (32→64);
/// cube beats OpenMP by up to 53% at 64 cores.
pub const PAPER_FIG8_FINAL_GAP_PERCENT: f64 = 53.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_values() {
        let a = Args::from_list(&["--steps", "20", "--full", "--threads", "1,2,4"]);
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
        assert_eq!(a.get::<u64>("steps"), Some(20));
        assert_eq!(a.get_or::<u64>("missing", 7), 7);
        assert_eq!(a.get_list("threads", &[9]), vec![1, 2, 4]);
        assert_eq!(a.get_list("other", &[9]), vec![9]);
    }

    #[test]
    fn efficiency_math() {
        let (s, e) = efficiency(8.0, 2.0, 8);
        assert_eq!(s, 4.0);
        assert_eq!(e, 50.0);
    }

    #[test]
    fn paper_constants_are_consistent() {
        let total: f64 = PAPER_TABLE1.iter().map(|r| r.2).sum();
        assert!(
            total > 99.0 && total <= 100.5,
            "Table I sums to ~100%: {total}"
        );
        assert_eq!(PAPER_TABLE2.len(), 6);
    }
}
