//! Auto-tuning, the paper's stated future work ("performing auto-tuning
//! and code optimizations on individual computational kernels"): pick the
//! cube edge `k` — the knob that trades per-cube working-set size against
//! cube-boundary overhead — by timing short probe runs of the real solver.

use std::time::Instant;

use crate::config::SimulationConfig;
use crate::cube::CubeSolver;
use crate::solver::SolverError;

/// Result of one probe in the tuning sweep.
#[derive(Clone, Copy, Debug)]
pub struct ProbeResult {
    pub cube_k: usize,
    pub seconds_per_step: f64,
}

/// Report of an auto-tuning sweep: every candidate probed, best first.
#[derive(Clone, Debug)]
pub struct TuneReport {
    pub probes: Vec<ProbeResult>,
}

/// Why an auto-tuning sweep could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum TuneError {
    /// No cube edge ≥ 2 divides every grid extent (or none of the caller's
    /// candidates does), so there is nothing to probe.
    NoLegalCubeEdge { nx: usize, ny: usize, nz: usize },
    /// A probe run failed (e.g. a worker panicked).
    Probe { cube_k: usize, error: SolverError },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NoLegalCubeEdge { nx, ny, nz } => {
                write!(f, "no legal cube edge for grid {nx}x{ny}x{nz}")
            }
            TuneError::Probe { cube_k, error } => {
                write!(f, "probe at cube_k = {cube_k} failed: {error}")
            }
        }
    }
}

impl std::error::Error for TuneError {}

impl TuneReport {
    /// The winning cube edge, or `None` for an empty sweep (a report from
    /// [`autotune_cube_k`] always has at least one probe).
    pub fn best_k(&self) -> Option<usize> {
        self.probes.first().map(|p| p.cube_k)
    }

    /// Human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::from("cube_k | s/step\n-------+---------\n");
        for p in &self.probes {
            out.push_str(&format!("{:>6} | {:.5}\n", p.cube_k, p.seconds_per_step));
        }
        out
    }
}

/// Cube edges that evenly divide all three grid extents (the legal values
/// of `cube_k`), smallest to largest, excluding 1 (degenerate) and edges
/// larger than the smallest extent.
pub fn legal_cube_edges(config: &SimulationConfig) -> Vec<usize> {
    let min_ext = config.nx.min(config.ny).min(config.nz);
    (2..=min_ext)
        .filter(|k| config.nx % k == 0 && config.ny % k == 0 && config.nz % k == 0)
        .collect()
}

/// Times `probe_steps` of the cube solver for each legal cube edge (or the
/// given candidates) and returns the sweep sorted by speed. The probes run
/// the real solver on the real input, so the choice reflects the machine
/// it runs on — the point of auto-tuning. An empty candidate set (a prime
/// grid, or caller candidates that all fail to divide it) and a failed
/// probe run are a [`TuneError`], not a panic.
pub fn autotune_cube_k(
    config: SimulationConfig,
    n_threads: usize,
    candidates: Option<&[usize]>,
    probe_steps: u64,
) -> Result<TuneReport, TuneError> {
    let legal = legal_cube_edges(&config);
    let ks: Vec<usize> = match candidates {
        Some(c) => c.iter().copied().filter(|k| legal.contains(k)).collect(),
        None => legal,
    };
    if ks.is_empty() {
        return Err(TuneError::NoLegalCubeEdge {
            nx: config.nx,
            ny: config.ny,
            nz: config.nz,
        });
    }
    let mut probes = Vec::with_capacity(ks.len());
    for k in ks {
        let mut cfg = config;
        cfg.cube_k = k;
        let mut solver = CubeSolver::new(cfg, n_threads);
        let probe = |error| TuneError::Probe { cube_k: k, error };
        // Warm the worker paths and page in the grid.
        solver.try_run(1).map_err(probe)?;
        let t0 = Instant::now();
        solver.try_run(probe_steps).map_err(probe)?;
        probes.push(ProbeResult {
            cube_k: k,
            seconds_per_step: t0.elapsed().as_secs_f64() / probe_steps as f64,
        });
    }
    probes.sort_by(|a, b| a.seconds_per_step.total_cmp(&b.seconds_per_step));
    Ok(TuneReport { probes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_edges_divide_all_extents() {
        let mut cfg = SimulationConfig::quick_test(); // 24x16x16
        cfg.cube_k = 4;
        let ks = legal_cube_edges(&cfg);
        assert_eq!(ks, vec![2, 4, 8]);
        for k in ks {
            assert_eq!(cfg.nx % k, 0);
            assert_eq!(cfg.ny % k, 0);
            assert_eq!(cfg.nz % k, 0);
        }
    }

    #[test]
    fn autotune_probes_all_candidates_and_picks_fastest() {
        let cfg = SimulationConfig::quick_test();
        let report = autotune_cube_k(cfg, 2, Some(&[2, 4, 8]), 2).unwrap();
        assert_eq!(report.probes.len(), 3);
        // Sorted ascending by time; the best is first.
        for w in report.probes.windows(2) {
            assert!(w[0].seconds_per_step <= w[1].seconds_per_step);
        }
        assert_eq!(report.best_k(), Some(report.probes[0].cube_k));
        assert!(report.table().contains("cube_k"));
    }

    #[test]
    fn illegal_candidates_are_filtered() {
        let cfg = SimulationConfig::quick_test(); // 24x16x16: 5 never divides
        let report = autotune_cube_k(cfg, 1, Some(&[4, 5]), 1).unwrap();
        assert_eq!(report.probes.len(), 1);
        assert_eq!(report.best_k(), Some(4));
    }

    #[test]
    fn empty_candidate_set_is_an_error_not_a_panic() {
        let cfg = SimulationConfig::quick_test();
        let err = autotune_cube_k(cfg, 1, Some(&[5, 7]), 1).unwrap_err();
        assert_eq!(
            err,
            TuneError::NoLegalCubeEdge {
                nx: 24,
                ny: 16,
                nz: 16
            }
        );
        assert!(err.to_string().contains("no legal cube edge"), "{err}");
    }

    #[test]
    fn empty_report_has_no_best_k() {
        let report = TuneReport { probes: Vec::new() };
        assert_eq!(report.best_k(), None); // used to index probes[0] and panic
        assert!(report.table().contains("cube_k"));
    }
}
