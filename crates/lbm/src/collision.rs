//! The collision operator: BGK single-relaxation-time relaxation toward
//! the equilibrium at the velocity-shift forcing's `u_eq` (see
//! [`crate::macroscopic::node_moments_shifted`]), which already carries
//! the force, so the collision itself never reads it.
//!
//! This is kernel 5 of the paper (`compute_fluid_collision`), the kernel
//! Table I charges 73.2% of the sequential run time to.

use crate::grid::Slab;
use crate::lattice::{Q, W};

/// BGK relaxation toward `feq(rho, u)`, in place. `u` is the stored
/// u_eq of the velocity-shift forcing, which already carries the force.
/// `f` must have length [`Q`].
///
/// `e·u` is formed as signed sums of the velocity components. That is
/// bitwise the generic `Σ_a e_ia u_a` loop of
/// [`crate::equilibrium::feq_all`]: the generic loop's `0 · u` terms only
/// add ±0.0, which can change the sign of a zero `e·u` but not the
/// equilibrium it feeds (`base` is never −0.0).
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
        bgk_collide_shifted(&mut s.f[i * Q..i * Q + Q], s.rho[i], s.ueq[i], tau);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::equilibrium::{feq, feq_all};
    use crate::grid::{Dims, FluidGrid};
    use crate::lattice::EF;
    use proptest::prelude::*;

    /// The generic BGK loop `bgk_collide_shifted` replaced: the equilibrium
    /// from [`feq_all`], then `f_i += (f^eq_i − f_i)/τ`.
    pub(crate) fn bgk_collide_reference(f: &mut [f64], rho: f64, u: [f64; 3], tau: f64) {
        let mut eq = [0.0; Q];
        feq_all(rho, u, &mut eq);
        let omega = 1.0 / tau;
        for i in 0..Q {
            f[i] += omega * (eq[i] - f[i]);
        }
    }

    fn node_at_equilibrium(rho: f64, u: [f64; 3]) -> [f64; Q] {
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, rho, u);
        }
        f
    }

    #[test]
    fn equilibrium_is_fixed_point() {
        let u = [0.02, -0.04, 0.01];
        let mut f = node_at_equilibrium(1.1, u);
        let want = f;
        bgk_collide_shifted(&mut f, 1.1, u, 0.8);
        for i in 0..Q {
            assert!((f[i] - want[i]).abs() < 1e-14, "dir {i}");
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
        bgk_collide_shifted(&mut f, mass_before, u, 0.8);
        let mass_after: f64 = f.iter().sum();
        assert!((mass_after - mass_before).abs() < 1e-15);
    }

    #[test]
    fn tau_one_lands_on_equilibrium() {
        let rho = 1.02;
        let u = [0.01, 0.02, 0.03];
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, rho, u) + 0.001 * (i as f64 - 9.0);
        }
        bgk_collide_shifted(&mut f, rho, u, 1.0);
        for i in 0..Q {
            assert!((f[i] - feq(i, rho, u)).abs() < 1e-14, "dir {i}");
        }
    }

    #[test]
    fn bgk_conserves_mass_and_momentum_at_consistent_moments() {
        // The collision conserves mass and momentum only when fed the
        // moments of the actual state, so compute (rho, u) from f itself.
        let mut f = node_at_equilibrium(1.0, [0.02, 0.00, -0.01]);
        f[7] += 0.003;
        f[8] += 0.001;
        let rho: f64 = f.iter().sum();
        let mom = |f: &[f64; Q], a: usize| -> f64 { (0..Q).map(|i| f[i] * EF[i][a]).sum() };
        let u = [mom(&f, 0) / rho, mom(&f, 1) / rho, mom(&f, 2) / rho];
        let p_before = [mom(&f, 0), mom(&f, 1), mom(&f, 2)];
        bgk_collide_shifted(&mut f, rho, u, 0.8);
        let mass_after: f64 = f.iter().sum();
        assert!((mass_after - rho).abs() < 1e-15);
        for a in 0..3 {
            assert!((mom(&f, a) - p_before[a]).abs() < 1e-15, "axis {a}");
        }
    }

    #[test]
    fn collide_shifted_slab_touches_every_node() {
        let mut g = FluidGrid::new(Dims::new(3, 3, 3));
        for node in 0..g.n() {
            let f = node_at_equilibrium(1.0, [0.0; 3]);
            g.node_f_mut(node).copy_from_slice(&f);
            g.rho[node] = 1.0;
            g.ueq[node][0] = 1e-3; // uniform shift: every node must change
        }
        let before = g.f.clone();
        collide_shifted_slab(&mut g.slab_mut(), 0.8);
        let mut changed_nodes = 0;
        for node in 0..g.n() {
            if g.node_f(node) != &before[node * Q..node * Q + Q] {
                changed_nodes += 1;
            }
        }
        assert_eq!(changed_nodes, g.n());
    }

    proptest! {
        /// Mass conservation of the collision for arbitrary perturbed states.
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
            bgk_collide_shifted(&mut f, before, [0.01, -0.02, 0.03], tau);
            let after: f64 = f.iter().sum();
            prop_assert!((after - before).abs() < 1e-14);
        }
    }

    proptest! {
        /// The signed-sum collision equals the generic BGK loop bit for
        /// bit, at the moments of the populations (as the solvers call it)
        /// and at unrelated ones.
        #[test]
        fn prop_shifted_collision_equals_generic_bgk(
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
                bgk_collide_reference(&mut want, rho, u, tau);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "seed {} rho {} u {:?}", seed, rho, u
                );
            }
        }
    }
}
