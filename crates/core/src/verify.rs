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
    /// Max absolute difference over the sheet's bending, stretching and
    /// elastic force arrays (kernels 1–3 and the tethers): a divergence
    /// there shows here at once rather than as a position error one step
    /// later.
    pub fiber_force_linf: f64,
    /// Max absolute difference over the tether anchors and stiffnesses;
    /// infinite when the two states tether different nodes.
    pub tether_linf: f64,
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
            .max(self.fiber_force_linf)
            .max(self.tether_linf)
    }

    /// True if every norm is below `tol`.
    pub fn within(&self, tol: f64) -> bool {
        self.worst() <= tol
    }
}

/// Computes norms of the difference between two states. States of
/// different grid or sheet shapes differ by an infinite amount in every
/// norm, so [`StateDiff::worst`] is infinite and [`StateDiff::within`]
/// fails for any tolerance.
pub fn compare_states(a: &SimState, b: &SimState) -> StateDiff {
    if a.fluid.dims != b.fluid.dims || a.sheet.n() != b.sheet.n() {
        let inf = f64::INFINITY;
        return StateDiff {
            f_linf: inf,
            u_linf: inf,
            u_l2: inf,
            rho_linf: inf,
            force_linf: inf,
            ueq_linf: inf,
            pos_linf: inf,
            fiber_force_linf: inf,
            tether_linf: inf,
        };
    }
    let linf = |x: &[f64], y: &[f64]| -> f64 {
        x.iter()
            .zip(y)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    };
    let linf_vec3 = |x: &[[f64; 3]], y: &[[f64; 3]]| linf(x.as_flattened(), y.as_flattened());
    let (fa, fb) = (&a.fluid, &b.fluid);
    let mut u_l2 = 0.0;
    for (p, q) in fa.u.iter().zip(&fb.u) {
        let (dx, dy, dz) = (p[0] - q[0], p[1] - q[1], p[2] - q[2]);
        u_l2 += dx * dx + dy * dy + dz * dz;
    }
    let (sa, sb) = (&a.sheet, &b.sheet);
    let fiber_force_linf = linf_vec3(&sa.bending, &sb.bending)
        .max(linf_vec3(&sa.stretching, &sb.stretching))
        .max(linf_vec3(&sa.elastic, &sb.elastic));
    let (ta, tb) = (&a.tethers.tethers, &b.tethers.tethers);
    let tether_linf = if ta.len() == tb.len() && ta.iter().zip(tb).all(|(p, q)| p.node == q.node) {
        ta.iter()
            .zip(tb)
            .map(|(p, q)| linf(&p.anchor, &q.anchor).max((p.stiffness - q.stiffness).abs()))
            .fold(0.0, f64::max)
    } else {
        f64::INFINITY
    };
    StateDiff {
        f_linf: linf(&a.fluid.f, &b.fluid.f),
        u_linf: linf_vec3(&fa.u, &fb.u),
        u_l2: (u_l2 / fa.n() as f64).sqrt(),
        rho_linf: linf(&fa.rho, &fb.rho),
        force_linf: linf_vec3(&fa.force, &fb.force),
        ueq_linf: linf_vec3(&fa.ueq, &fb.ueq),
        pos_linf: linf_vec3(&sa.pos, &sb.pos),
        fiber_force_linf,
        tether_linf,
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
pub(crate) mod tests {
    use super::*;

    /// Every field of the two states, tethers and step included, bit for
    /// bit: their checkpoint encodings must be the same bytes.
    pub(crate) fn assert_bitwise(want: &SimState, got: &SimState, what: &str) {
        let bytes = |s: &SimState| {
            let mut out = Vec::new();
            crate::checkpoint::write_checkpoint(s, &mut out).unwrap();
            out
        };
        assert!(
            bytes(want) == bytes(got),
            "{what}: {:?}",
            compare_states(want, got)
        );
    }

    /// `quick_test` cut to four x-planes, with the sheet in the middle and
    /// a lid on the high y wall moving along x: split into more pieces than
    /// planes, some slabs are empty or one plane wide, so every node pushes
    /// across slab faces and bounced diagonals carry the moving-wall
    /// correction across them.
    pub(crate) fn narrow_config() -> SimulationConfig {
        use lbm::boundary::{AxisBoundary, BoundaryConfig};
        let quick = SimulationConfig::quick_test();
        SimulationConfig {
            nx: 4,
            bc: BoundaryConfig {
                y: AxisBoundary::Walls {
                    lo: [0.0; 3],
                    hi: [0.01, 0.0, 0.0],
                },
                ..quick.bc
            },
            sheet: crate::config::SheetConfig {
                center: [2.0, 8.0, 8.0],
                ..quick.sheet
            },
            ..quick
        }
    }

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
        s.fluid.u[3][0] += 1e-6;
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
            [&mut g.force, &mut g.ueq][i / 3][3][i % 3] += 1e-6;
            let d = compare_states(&base, &s);
            let got = if i < 3 { d.force_linf } else { d.ueq_linf };
            assert!((got - 1e-6).abs() < 1e-12, "{field}: {got}");
            assert_eq!(d.worst(), got, "{field} must feed worst()");
        }

        let mut s = base.clone();
        s.sheet.pos[3][1] += 1e-6;
        let got = compare_states(&base, &s).pos_linf;
        assert!((got - 1e-6).abs() < 1e-12, "{got}");

        for i in 0..3 {
            let mut s = base.clone();
            let sh = &mut s.sheet;
            [&mut sh.bending, &mut sh.stretching, &mut sh.elastic][i][3][2] += 1e-6;
            let d = compare_states(&base, &s);
            assert!(
                (d.fiber_force_linf - 1e-6).abs() < 1e-12,
                "array {i}: {d:?}"
            );
            assert_eq!(d.worst(), d.fiber_force_linf, "array {i} must feed worst()");
        }
    }

    #[test]
    fn tether_differences_are_detected() {
        let mut c = SimulationConfig::quick_test();
        c.sheet.tether = crate::config::TetherConfig::LeadingEdge { stiffness: 0.5 };
        let base = SimState::new(c);

        let mut s = base.clone();
        s.tethers.tethers[2].anchor[0] += 1e-6;
        let d = compare_states(&base, &s);
        assert!((d.tether_linf - 1e-6).abs() < 1e-12, "{d:?}");
        assert_eq!(d.worst(), d.tether_linf);

        let mut s = base.clone();
        s.tethers.tethers[2].stiffness += 1e-3;
        assert!((compare_states(&base, &s).tether_linf - 1e-3).abs() < 1e-12);

        let mut s = base.clone();
        s.tethers.tethers[2].node += 1;
        assert_eq!(compare_states(&base, &s).worst(), f64::INFINITY);
        s.tethers.tethers.pop();
        assert_eq!(compare_states(&base, &s).tether_linf, f64::INFINITY);
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

    /// States of different shapes do not panic: they differ by an
    /// infinite amount, in either order, so no tolerance accepts them.
    #[test]
    fn shape_mismatch_is_an_infinite_diff() {
        let a = SimState::new(SimulationConfig::quick_test());
        let mut grid = SimulationConfig::quick_test();
        grid.nx = 16;
        let mut sheet = SimulationConfig::quick_test();
        sheet.sheet.num_fibers = 6;
        for cfg in [grid, sheet] {
            let b = SimState::new(cfg);
            for d in [compare_states(&a, &b), compare_states(&b, &a)] {
                assert_eq!(d.worst(), f64::INFINITY, "{d:?}");
                assert!(!d.within(f64::MAX), "{d:?}");
                assert_eq!(d.u_l2, f64::INFINITY, "{d:?}");
            }
        }
    }
}
