//! Cross-version verification, the paper's "all the numerical results have
//! been verified to be correct by comparing the new result to that of the
//! sequential implementation".

use crate::config::{KernelPlan, SimulationConfig};
use crate::solver::{Backend, Solver, SolverError};
use crate::state::SimState;

/// Error norms between two simulation states.
#[derive(Clone, Copy, Debug, Default)]
pub struct StateDiff {
    /// Max absolute difference over the present distribution buffers.
    pub f_linf: f64,
    /// Max absolute difference over the macroscopic velocity fields.
    pub u_linf: f64,
    /// RMS difference over the velocity fields.
    pub u_l2: f64,
    /// Max absolute difference over the densities.
    pub rho_linf: f64,
    /// Max absolute difference over the force fields (the force the last
    /// step's moments used).
    pub force_linf: f64,
    /// Max absolute difference over the equilibrium-shift velocities.
    pub ueq_linf: f64,
    /// Max absolute difference over the fiber node positions.
    pub pos_linf: f64,
}

impl StateDiff {
    /// The largest of all tracked norms.
    pub fn worst(&self) -> f64 {
        self.f_linf
            .max(self.u_linf)
            .max(self.rho_linf)
            .max(self.force_linf)
            .max(self.ueq_linf)
            .max(self.pos_linf)
    }

    /// True if every norm is below `tol`.
    pub fn within(&self, tol: f64) -> bool {
        self.worst() <= tol
    }
}

/// Computes norms of the difference between two states. Panics if the
/// states have different shapes.
pub fn compare_states(a: &SimState, b: &SimState) -> StateDiff {
    assert_eq!(a.fluid.dims, b.fluid.dims, "grid shape mismatch");
    assert_eq!(a.sheet.n(), b.sheet.n(), "sheet shape mismatch");
    let linf = |x: &[f64], y: &[f64]| -> f64 {
        x.iter()
            .zip(y)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    };
    let linf3 = |x: [&[f64]; 3], y: [&[f64]; 3]| -> f64 {
        (0..3).map(|a| linf(x[a], y[a])).fold(0.0, f64::max)
    };
    let (fa, fb) = (&a.fluid, &b.fluid);
    let mut u_l2 = 0.0;
    let n = a.fluid.n();
    for i in 0..n {
        let dx = a.fluid.ux[i] - b.fluid.ux[i];
        let dy = a.fluid.uy[i] - b.fluid.uy[i];
        let dz = a.fluid.uz[i] - b.fluid.uz[i];
        u_l2 += dx * dx + dy * dy + dz * dz;
    }
    let pos_linf = a
        .sheet
        .pos
        .iter()
        .zip(&b.sheet.pos)
        .flat_map(|(p, q)| (0..3).map(move |i| (p[i] - q[i]).abs()))
        .fold(0.0f64, f64::max);
    StateDiff {
        f_linf: linf(&a.fluid.f, &b.fluid.f),
        u_linf: linf3([&fa.ux, &fa.uy, &fa.uz], [&fb.ux, &fb.uy, &fb.uz]),
        u_l2: (u_l2 / n as f64).sqrt(),
        rho_linf: linf(&fa.rho, &fb.rho),
        force_linf: linf3([&fa.fx, &fa.fy, &fa.fz], [&fb.fx, &fb.fy, &fb.fz]),
        ueq_linf: linf3(
            [&fa.ueqx, &fa.ueqy, &fa.ueqz],
            [&fb.ueqx, &fb.ueqy, &fb.ueqz],
        ),
        pos_linf,
    }
}

/// Runs all three solvers for `steps` on `config` with `threads` workers
/// and returns (seq-vs-omp, seq-vs-cube) diffs — the library's end-to-end
/// self-check. A failed cube run is the typed error, not a panic.
pub fn verify_all_solvers(
    config: SimulationConfig,
    steps: u64,
    threads: usize,
) -> Result<(StateDiff, StateDiff), SolverError> {
    let mut seq = crate::sequential::SequentialSolver::new(config);
    seq.run(steps);
    let mut omp = crate::openmp::OpenMpSolver::new(config, threads);
    omp.run(steps);
    let mut cube = crate::cube::CubeSolver::new(config, threads);
    cube.try_run(steps)?;
    Ok((
        compare_states(&seq.state, &omp.state),
        compare_states(&seq.state, &cube.to_state()),
    ))
}

/// Runs every solver under the split *and* the fused kernel plan and
/// returns `(backend, split-vs-fused diff)` per backend. The fused sweep
/// performs the same f64 arithmetic as split collision + streaming, so
/// every diff should be identically zero; `verify` asserts ≤ 1e-12 to
/// leave headroom for future reassociating optimisations. A backend that
/// cannot be built or run is the typed error, not a panic.
pub fn cross_check(
    config: SimulationConfig,
    steps: u64,
    threads: usize,
) -> Result<Vec<(Backend, StateDiff)>, SolverError> {
    let mut out = Vec::new();
    for backend in Backend::ALL {
        let mut states = Vec::with_capacity(2);
        for plan in [KernelPlan::Split, KernelPlan::Fused] {
            let mut solver =
                backend.build(SimState::new(SimulationConfig { plan, ..config }), threads)?;
            solver.run(steps)?;
            states.push(solver.to_state());
        }
        out.push((backend, compare_states(&states[0], &states[1])));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_states_have_zero_diff() {
        let s = SimState::new(SimulationConfig::quick_test());
        let d = compare_states(&s, &s.clone());
        assert_eq!(d.worst(), 0.0);
        assert!(d.within(0.0));
    }

    #[test]
    fn perturbation_is_detected_in_each_field() {
        let base = SimState::new(SimulationConfig::quick_test());

        let mut s = base.clone();
        s.fluid.f[3] += 1e-6;
        assert!(compare_states(&base, &s).f_linf > 0.0);

        let mut s = base.clone();
        s.fluid.ux[3] += 1e-6;
        let d = compare_states(&base, &s);
        assert!(d.u_linf > 0.0 && d.u_l2 > 0.0);

        let mut s = base.clone();
        s.fluid.rho[3] += 1e-6;
        assert!(compare_states(&base, &s).rho_linf > 0.0);

        for (i, field) in ["fx", "fy", "fz", "ueqx", "ueqy", "ueqz"]
            .iter()
            .enumerate()
        {
            let mut s = base.clone();
            let g = &mut s.fluid;
            [
                &mut g.fx,
                &mut g.fy,
                &mut g.fz,
                &mut g.ueqx,
                &mut g.ueqy,
                &mut g.ueqz,
            ][i][3] += 1e-6;
            let d = compare_states(&base, &s);
            let got = if i < 3 { d.force_linf } else { d.ueq_linf };
            assert!((got - 1e-6).abs() < 1e-12, "{field}: {got}");
            assert_eq!(d.worst(), got, "{field} must feed worst()");
        }

        let mut s = base.clone();
        s.sheet.pos[3][1] += 1e-6;
        let got = compare_states(&base, &s).pos_linf;
        assert!((got - 1e-6).abs() < 1e-12, "{got}");
    }

    #[test]
    fn end_to_end_three_solver_verification() {
        let (omp_diff, cube_diff) =
            verify_all_solvers(SimulationConfig::quick_test(), 5, 3).unwrap();
        assert!(omp_diff.within(1e-12), "openmp diverged: {omp_diff:?}");
        assert!(cube_diff.within(1e-12), "cube diverged: {cube_diff:?}");
    }

    #[test]
    fn fused_plan_matches_split_on_every_solver() {
        let diffs = cross_check(SimulationConfig::quick_test(), 5, 3).unwrap();
        assert_eq!(diffs.len(), Backend::ALL.len());
        for (backend, diff) in diffs {
            assert!(
                diff.within(1e-12),
                "{}: fused diverged from split: {diff:?}",
                backend.name()
            );
        }
    }

    #[test]
    fn cross_check_returns_unbuildable_backends_as_errors() {
        assert_eq!(
            cross_check(SimulationConfig::quick_test(), 1, 0).err(),
            Some(SolverError::ZeroThreads)
        );
    }

    #[test]
    #[should_panic(expected = "grid shape mismatch")]
    fn shape_mismatch_panics() {
        let a = SimState::new(SimulationConfig::quick_test());
        let mut cfg = SimulationConfig::quick_test();
        cfg.nx = 16;
        cfg.sheet.center = [8.0, 8.0, 8.0];
        let b = SimState::new(cfg);
        compare_states(&a, &b);
    }
}
