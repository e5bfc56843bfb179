//! Collision operators: BGK single-relaxation-time with Guo forcing (the
//! operator used by the LBM-IB method) and a two-relaxation-time (TRT)
//! variant kept as an ablation.
//!
//! This is kernel 5 of the paper (`compute_fluid_collision`), the kernel
//! Table I charges 73.2% of the sequential run time to.

use crate::equilibrium::feq_all;
use crate::grid::{FluidGrid, Slab};
use crate::lattice::{EF, OPPOSITE, Q, W};

/// Relaxation parameters of the collision operator.
#[derive(Clone, Copy, Debug)]
pub struct Relaxation {
    /// BGK relaxation time τ (in units of the time step). Must exceed 0.5
    /// for positive viscosity.
    pub tau: f64,
}

impl Relaxation {
    /// Creates a relaxation setting, validating τ > 0.5.
    pub fn new(tau: f64) -> Self {
        assert!(
            tau > 0.5,
            "tau must exceed 0.5 for positive viscosity, got {tau}"
        );
        Self { tau }
    }

    /// Kinematic viscosity implied by τ: `ν = c_s² (τ − ½) = (τ − ½)/3`.
    pub fn viscosity(&self) -> f64 {
        (self.tau - 0.5) / 3.0
    }

    /// Relaxation time for a target viscosity.
    pub fn from_viscosity(nu: f64) -> Self {
        assert!(nu > 0.0, "viscosity must be positive, got {nu}");
        Self::new(3.0 * nu + 0.5)
    }
}

/// Guo et al. discrete forcing term for direction `i`:
///
/// `S_i = (1 − 1/2τ) w_i [3 (e_i − u) + 9 (e_i·u) e_i] · F`
///
/// Its zeroth moment vanishes (mass is untouched) and its first moment is
/// `(1 − 1/2τ) F`, which combined with the `F/2` shift in the velocity
/// definition makes the scheme second-order accurate in the presence of the
/// spread elastic force.
#[inline]
pub fn guo_source(i: usize, u: [f64; 3], force: [f64; 3], tau: f64) -> f64 {
    let eu = EF[i][0] * u[0] + EF[i][1] * u[1] + EF[i][2] * u[2];
    let ef = EF[i][0] * force[0] + EF[i][1] * force[1] + EF[i][2] * force[2];
    let uf = u[0] * force[0] + u[1] * force[1] + u[2] * force[2];
    (1.0 - 0.5 / tau) * W[i] * (3.0 * (ef - uf) + 9.0 * eu * ef)
}

/// Applies the BGK collision with Guo forcing to one node's distributions,
/// in place. `f` must have length [`Q`].
#[inline]
pub fn bgk_collide_node(f: &mut [f64], rho: f64, u: [f64; 3], force: [f64; 3], tau: f64) {
    debug_assert_eq!(f.len(), Q);
    let mut eq = [0.0; Q];
    feq_all(rho, u, &mut eq);
    let omega = 1.0 / tau;
    let pref = 1.0 - 0.5 * omega;
    let uf = u[0] * force[0] + u[1] * force[1] + u[2] * force[2];
    for i in 0..Q {
        let eu = EF[i][0] * u[0] + EF[i][1] * u[1] + EF[i][2] * u[2];
        let ef = EF[i][0] * force[0] + EF[i][1] * force[1] + EF[i][2] * force[2];
        let src = pref * W[i] * (3.0 * (ef - uf) + 9.0 * eu * ef);
        f[i] += omega * (eq[i] - f[i]) + src;
    }
}

/// The collision of the velocity-shift forcing: BGK relaxation toward
/// `feq(rho, u)` with no source term, in place. `u` is the stored u_eq,
/// which already carries the force, so the Guo term of
/// [`bgk_collide_node`] is zero. `f` must have length [`Q`].
///
/// Bitwise equal to `bgk_collide_node(f, rho, u, [0.0; 3], tau)` for every
/// population other than −0.0. `e·u` is formed as signed sums of the
/// velocity components: the generic loop's `0 · u` terms only add ±0.0,
/// which can change the sign of a zero `e·u` but not the equilibrium it
/// feeds (`base` is never −0.0). The dropped source term is ±0.0, and
/// adding it changes a population only when that population is −0.0.
#[inline(always)]
pub fn bgk_collide_shifted(f: &mut [f64], rho: f64, u: [f64; 3], tau: f64) {
    let f = &mut f[..Q];
    let [ux, uy, uz] = u;
    // Per direction in `E`'s order: +x, −x, +y, −y, +z, −z, then the xy,
    // xz and yz diagonals.
    let eu: [f64; Q] = [
        0.0,
        ux,
        -ux,
        uy,
        -uy,
        uz,
        -uz,
        ux + uy,
        -ux - uy,
        ux - uy,
        -ux + uy,
        ux + uz,
        -ux - uz,
        ux - uz,
        -ux + uz,
        uy + uz,
        -uy - uz,
        uy - uz,
        -uy + uz,
    ];
    let base = 1.0 - 1.5 * (ux * ux + uy * uy + uz * uz);
    let omega = 1.0 / tau;
    for i in 0..Q {
        let eq = W[i] * rho * (base + 3.0 * eu[i] + 4.5 * eu[i] * eu[i]);
        f[i] += omega * (eq - f[i]);
    }
}

/// Kernel 5 of the coupled solvers over one slab of the grid: relaxes
/// every node's populations in `f` toward the equilibrium at the stored
/// `rho` and shift velocity ([`bgk_collide_shifted`]). The whole grid is
/// `grid.slab_mut()`; slabs of one grid can collide in parallel.
pub fn collide_shifted_slab(s: &mut Slab, tau: f64) {
    for i in 0..s.rho.len() {
        let ueq = [s.ueqx[i], s.ueqy[i], s.ueqz[i]];
        bgk_collide_shifted(&mut s.f[i * Q..i * Q + Q], s.rho[i], ueq, tau);
    }
}

/// Two-relaxation-time collision with Guo forcing, used only by the
/// ablation benchmarks. The symmetric part relaxes with `1/τ` (fixing the
/// viscosity), the antisymmetric part with a rate chosen by the "magic"
/// parameter `Λ = 3/16`, which places half-way bounce-back walls exactly on
/// the wall plane.
#[inline]
pub fn trt_collide_node(f: &mut [f64], rho: f64, u: [f64; 3], force: [f64; 3], tau: f64) {
    debug_assert_eq!(f.len(), Q);
    const LAMBDA: f64 = 3.0 / 16.0;
    let mut eq = [0.0; Q];
    feq_all(rho, u, &mut eq);
    let omega_plus = 1.0 / tau;
    let tau_minus = 0.5 + LAMBDA / (tau - 0.5);
    let omega_minus = 1.0 / tau_minus;
    let pref = 1.0 - 0.5 * omega_plus;
    let uf = u[0] * force[0] + u[1] * force[1] + u[2] * force[2];

    let mut post = [0.0; Q];
    for i in 0..Q {
        let o = OPPOSITE[i];
        let f_plus = 0.5 * (f[i] + f[o]);
        let f_minus = 0.5 * (f[i] - f[o]);
        let eq_plus = 0.5 * (eq[i] + eq[o]);
        let eq_minus = 0.5 * (eq[i] - eq[o]);
        let eu = EF[i][0] * u[0] + EF[i][1] * u[1] + EF[i][2] * u[2];
        let ef = EF[i][0] * force[0] + EF[i][1] * force[1] + EF[i][2] * force[2];
        let src = pref * W[i] * (3.0 * (ef - uf) + 9.0 * eu * ef);
        post[i] = f[i] - omega_plus * (f_plus - eq_plus) - omega_minus * (f_minus - eq_minus) + src;
    }
    f.copy_from_slice(&post);
}

/// Sequential whole-grid collision (kernel 5): applies [`bgk_collide_node`]
/// to every node using the macroscopic fields stored in the grid (computed
/// by kernel 7 of the previous step) and the current body force.
pub fn collide_grid(grid: &mut FluidGrid, relax: Relaxation) {
    let n = grid.n();
    for node in 0..n {
        let rho = grid.rho[node];
        let u = [grid.ux[node], grid.uy[node], grid.uz[node]];
        let force = [grid.fx[node], grid.fy[node], grid.fz[node]];
        bgk_collide_node(
            &mut grid.f[node * Q..node * Q + Q],
            rho,
            u,
            force,
            relax.tau,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::feq;
    use crate::grid::Dims;
    use proptest::prelude::*;

    fn node_at_equilibrium(rho: f64, u: [f64; 3]) -> [f64; Q] {
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, rho, u);
        }
        f
    }

    #[test]
    fn relaxation_viscosity_round_trip() {
        let r = Relaxation::from_viscosity(0.1);
        assert!((r.viscosity() - 0.1).abs() < 1e-15);
        assert!((Relaxation::new(1.0).viscosity() - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "tau must exceed 0.5")]
    fn tau_below_half_rejected() {
        Relaxation::new(0.5);
    }

    #[test]
    fn equilibrium_is_fixed_point_without_force() {
        let u = [0.02, -0.04, 0.01];
        let mut f = node_at_equilibrium(1.1, u);
        let want = f;
        bgk_collide_node(&mut f, 1.1, u, [0.0; 3], 0.8);
        for i in 0..Q {
            assert!((f[i] - want[i]).abs() < 1e-14, "dir {i}");
        }
    }

    #[test]
    fn guo_source_zeroth_moment_vanishes() {
        let u = [0.03, 0.05, -0.02];
        let force = [1e-4, -2e-4, 5e-5];
        let s: f64 = (0..Q).map(|i| guo_source(i, u, force, 0.7)).sum();
        assert!(s.abs() < 1e-18, "mass injected by source: {s}");
    }

    #[test]
    fn guo_source_first_moment_is_scaled_force() {
        let u = [0.03, 0.05, -0.02];
        let force = [1e-4, -2e-4, 5e-5];
        let tau = 0.9;
        for a in 0..3 {
            let m: f64 = (0..Q)
                .map(|i| guo_source(i, u, force, tau) * EF[i][a])
                .sum();
            let want = (1.0 - 0.5 / tau) * force[a];
            assert!((m - want).abs() < 1e-16, "axis {a}: {m} vs {want}");
        }
    }

    #[test]
    fn bgk_conserves_mass_exactly() {
        let u = [0.05, 0.01, -0.03];
        let mut f = node_at_equilibrium(1.0, u);
        // Perturb away from equilibrium, keeping a record of the mass.
        f[3] += 0.01;
        f[11] -= 0.004;
        let mass_before: f64 = f.iter().sum();
        bgk_collide_node(&mut f, mass_before, u, [1e-4, 0.0, -1e-4], 0.8);
        let mass_after: f64 = f.iter().sum();
        assert!((mass_after - mass_before).abs() < 1e-15);
    }

    #[test]
    fn tau_one_lands_on_equilibrium_plus_source() {
        let rho = 1.02;
        let u = [0.01, 0.02, 0.03];
        let force = [2e-4, 0.0, -1e-4];
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, rho, u) + 0.001 * (i as f64 - 9.0);
        }
        bgk_collide_node(&mut f, rho, u, force, 1.0);
        for i in 0..Q {
            let want = feq(i, rho, u) + guo_source(i, u, force, 1.0);
            assert!((f[i] - want).abs() < 1e-14, "dir {i}");
        }
    }

    #[test]
    fn trt_matches_bgk_viscous_moments_at_equilibrium() {
        // At equilibrium both operators are the identity (plus source).
        let rho = 1.0;
        let u = [0.04, -0.01, 0.02];
        let mut f_bgk = node_at_equilibrium(rho, u);
        let mut f_trt = f_bgk;
        bgk_collide_node(&mut f_bgk, rho, u, [0.0; 3], 0.75);
        trt_collide_node(&mut f_trt, rho, u, [0.0; 3], 0.75);
        for i in 0..Q {
            assert!((f_bgk[i] - f_trt[i]).abs() < 1e-14, "dir {i}");
        }
    }

    #[test]
    fn trt_conserves_mass_and_momentum_at_consistent_moments() {
        // Collision operators conserve mass/momentum only when fed the
        // moments of the actual state, so compute (rho, u) from f itself.
        let mut f = node_at_equilibrium(1.0, [0.02, 0.00, -0.01]);
        f[7] += 0.003;
        f[8] += 0.001;
        let rho: f64 = f.iter().sum();
        let mom = |f: &[f64; Q], a: usize| -> f64 { (0..Q).map(|i| f[i] * EF[i][a]).sum() };
        let u = [mom(&f, 0) / rho, mom(&f, 1) / rho, mom(&f, 2) / rho];
        let p_before = [mom(&f, 0), mom(&f, 1), mom(&f, 2)];
        let mut f_trt = f;
        trt_collide_node(&mut f_trt, rho, u, [0.0; 3], 0.8);
        let mass_after: f64 = f_trt.iter().sum();
        assert!((mass_after - rho).abs() < 1e-15);
        for a in 0..3 {
            assert!((mom(&f_trt, a) - p_before[a]).abs() < 1e-15, "axis {a}");
        }
        // BGK at the same consistent moments also conserves both.
        let mut f_bgk = f;
        bgk_collide_node(&mut f_bgk, rho, u, [0.0; 3], 0.8);
        let mass_bgk: f64 = f_bgk.iter().sum();
        assert!((mass_bgk - rho).abs() < 1e-15);
        for a in 0..3 {
            assert!((mom(&f_bgk, a) - p_before[a]).abs() < 1e-15, "axis {a}");
        }
    }

    #[test]
    fn collide_grid_touches_every_node() {
        let mut g = FluidGrid::new(Dims::new(3, 3, 3));
        for node in 0..g.n() {
            let f = node_at_equilibrium(1.0, [0.0; 3]);
            g.node_f_mut(node).copy_from_slice(&f);
            g.fx[node] = 1e-3; // uniform force: every node must change
        }
        let before = g.f.clone();
        collide_grid(&mut g, Relaxation::new(0.8));
        let mut changed_nodes = 0;
        for node in 0..g.n() {
            if g.node_f(node) != &before[node * Q..node * Q + Q] {
                changed_nodes += 1;
            }
        }
        assert_eq!(changed_nodes, g.n());
    }

    proptest! {
        /// Mass conservation of BGK+Guo for arbitrary perturbed states.
        #[test]
        fn prop_bgk_mass_conservation(
            seed in 0u64..1000,
            tau in 0.55f64..2.0,
        ) {
            // Deterministic pseudo-perturbation from the seed.
            let mut f = node_at_equilibrium(1.0, [0.01, -0.02, 0.03]);
            let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for v in f.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v += ((s >> 33) as f64 / 2f64.powi(31) - 1.0) * 1e-3;
            }
            let before: f64 = f.iter().sum();
            bgk_collide_node(&mut f, before, [0.01, -0.02, 0.03], [1e-4, -1e-4, 2e-4], tau);
            let after: f64 = f.iter().sum();
            prop_assert!((after - before).abs() < 1e-14);
        }
    }

    proptest! {
        /// The velocity-shift collision equals the generic BGK + Guo
        /// collision with a zero force bit for bit, at the moments of the
        /// populations (as the solvers call it) and at unrelated ones.
        #[test]
        fn prop_shifted_collision_equals_zero_force_bgk(
            seed in 0u64..4000,
            tau in 0.55f64..2.0,
            ux in -0.1f64..0.1,
            uz in -0.1f64..0.1,
        ) {
            // Finite populations of either sign with +0.0 mixed in; see
            // `random_populations` for why −0.0 is excluded.
            let f = crate::macroscopic::tests::random_populations(seed);
            let (rho, _, ueq) =
                crate::macroscopic::node_moments_shifted(&f, [1e-4, 0.0, -2e-5], tau);
            for (rho, u) in [(rho, ueq), (1.02, [ux, 0.0, uz]), (0.97, [0.0; 3])] {
                let mut got = f;
                bgk_collide_shifted(&mut got, rho, u, tau);
                let mut want = f;
                bgk_collide_node(&mut want, rho, u, [0.0; 3], tau);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "seed {} rho {} u {:?}", seed, rho, u
                );
            }
        }
    }
}
