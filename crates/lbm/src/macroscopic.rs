//! Macroscopic field update (kernel 7, `update_fluid_velocity`): recover the
//! density and velocity of every fluid node from the freshly streamed
//! distributions and the elastic force spread by the fibers.
//!
//! The forcing is the velocity shift: `ρ = Σ_i f_i`, the physical
//! velocity is `ρ u = Σ_i f_i e_i + F/2`, and the next collision relaxes
//! toward the equilibrium at `ρ u_eq = Σ_i f_i e_i + τF`.

use crate::grid::{FluidGrid, Slab};
use crate::lattice::Q;

/// Moments for the velocity-shift (Shan–Chen style) forcing used by the
/// coupled LBM-IB solvers: returns `(ρ, u_phys, u_eq)` where
/// `u_phys = (Σ f e + F/2)/ρ` is the physical velocity reported to the
/// structure and the diagnostics, and `u_eq = (Σ f e + τF)/ρ` is the
/// velocity the next collision's equilibrium is built around (so the
/// collision itself never reads the force — the property Algorithm 4's
/// three-barrier schedule depends on). Relaxing toward `feq(ρ, u_eq)` adds
/// exactly `F` of momentum per step.
///
/// Each momentum component sums only the ten directions with a nonzero
/// component along its axis, adding or subtracting `f_i` in lattice order.
/// That is bitwise the generic `Σ f_i e_ia` loop whenever no population is
/// −0.0: the dropped `f_i · 0` terms add ±0.0, which changes no running
/// sum that is not itself ±0.0, and a sum that starts at +0.0 or at a
/// population other than −0.0 never becomes −0.0.
#[inline]
pub fn node_moments_shifted(f: &[f64], force: [f64; 3], tau: f64) -> (f64, [f64; 3], [f64; 3]) {
    let f = &f[..Q];
    let rho = f[1..].iter().fold(f[0], |s, &v| s + v);
    let m = [
        f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] - f[12] + f[13] - f[14],
        f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] - f[16] + f[17] - f[18],
        f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] - f[16] - f[17] + f[18],
    ];
    let inv = 1.0 / rho;
    let u_phys = [
        (m[0] + 0.5 * force[0]) * inv,
        (m[1] + 0.5 * force[1]) * inv,
        (m[2] + 0.5 * force[2]) * inv,
    ];
    let u_eq = [
        (m[0] + tau * force[0]) * inv,
        (m[1] + tau * force[1]) * inv,
        (m[2] + tau * force[2]) * inv,
    ];
    (rho, u_phys, u_eq)
}

/// Kernel 7 for the coupled solvers: whole-grid shifted macroscopic update
/// from the new (post-streaming) buffer. Fills `rho`, the physical
/// velocity `u` and the equilibrium-shift velocity `ueq`.
pub fn update_velocity_shifted(grid: &mut FluidGrid, tau: f64) {
    update_velocity_shifted_slab(&mut grid.slab_mut(), tau);
}

/// [`update_velocity_shifted`] over one slab of the grid: reads only the
/// slab's `f_new` and force, writes only its moments, so slabs of one
/// grid can be updated in parallel.
pub fn update_velocity_shifted_slab(s: &mut Slab, tau: f64) {
    for i in 0..s.rho.len() {
        let (rho, u, ueq) = node_moments_shifted(&s.f_new[i * Q..i * Q + Q], s.force[i], tau);
        s.rho[i] = rho;
        s.u[i] = u;
        s.ueq[i] = ueq;
    }
}

/// Initialises a grid to equilibrium at the given density and velocity
/// fields (functions of the node coordinate), storing matching macroscopic
/// values. This stands in for the paper's `create_fluid_grid()`.
pub fn initialize_equilibrium<Frho, Fu>(grid: &mut FluidGrid, rho_of: Frho, u_of: Fu)
where
    Frho: Fn(usize, usize, usize) -> f64,
    Fu: Fn(usize, usize, usize) -> [f64; 3],
{
    use crate::equilibrium::feq_all;
    let dims = grid.dims;
    for (x, y, z) in dims.iter_coords() {
        let node = dims.idx(x, y, z);
        let rho = rho_of(x, y, z);
        let u = u_of(x, y, z);
        let mut eq = [0.0; Q];
        feq_all(rho, u, &mut eq);
        grid.f[node * Q..node * Q + Q].copy_from_slice(&eq);
        grid.f_new[node * Q..node * Q + Q].copy_from_slice(&eq);
        grid.rho[node] = rho;
        grid.u[node] = u;
        grid.ueq[node] = u;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::equilibrium::feq;
    use crate::grid::Dims;
    use crate::lattice::EF;
    use proptest::prelude::*;

    /// The generic moment loop: `ρ` and the momentum `Σ f_i e_i`, every
    /// direction times every component of `e_i`, zeros included.
    fn plain_moments(f: &[f64]) -> (f64, [f64; 3]) {
        let mut rho = 0.0;
        let mut m = [0.0; 3];
        for i in 0..Q {
            let fi = f[i];
            rho += fi;
            m[0] += fi * EF[i][0];
            m[1] += fi * EF[i][1];
            m[2] += fi * EF[i][2];
        }
        (rho, m)
    }

    /// The generic loop `node_moments_shifted` replaced.
    fn node_moments_shifted_reference(
        f: &[f64],
        force: [f64; 3],
        tau: f64,
    ) -> (f64, [f64; 3], [f64; 3]) {
        let (rho, m) = plain_moments(f);
        let inv = 1.0 / rho;
        let u_phys: [f64; 3] = std::array::from_fn(|a| (m[a] + 0.5 * force[a]) * inv);
        let u_eq: [f64; 3] = std::array::from_fn(|a| (m[a] + tau * force[a]) * inv);
        (rho, u_phys, u_eq)
    }

    /// Random finite populations from `seed`: mostly O(1) values of either
    /// sign, about one in eight exactly +0.0. −0.0 is never drawn: summing
    /// from +0.0, as the generic loop does, turns a leading −0.0 into +0.0,
    /// and no solver arithmetic produces −0.0 populations.
    pub(crate) fn random_populations(seed: u64) -> [f64; Q] {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        std::array::from_fn(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 8 == 0 {
                0.0
            } else {
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.3) * 2.0
            }
        })
    }

    fn bits(v: (f64, [f64; 3], [f64; 3])) -> [u64; 7] {
        let (rho, u, ueq) = v;
        [rho, u[0], u[1], u[2], ueq[0], ueq[1], ueq[2]].map(f64::to_bits)
    }

    #[test]
    fn moments_of_equilibrium_recover_inputs() {
        let rho_in = 1.07;
        let u_in = [0.03, -0.02, 0.05];
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, rho_in, u_in);
        }
        let (rho, u, ueq) = node_moments_shifted(&f, [0.0; 3], 0.8);
        assert!((rho - rho_in).abs() < 1e-13);
        for a in 0..3 {
            assert!((u[a] - u_in[a]).abs() < 1e-13, "axis {a}");
            assert_eq!(u[a], ueq[a], "axis {a}: no force, no shift");
        }
    }

    #[test]
    fn half_force_correction_applied() {
        let rho_in = 1.0;
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, rho_in, [0.0; 3]);
        }
        let force = [2e-3, -4e-3, 6e-3];
        let (_, u, _) = node_moments_shifted(&f, force, 0.8);
        for a in 0..3 {
            assert!((u[a] - 0.5 * force[a]).abs() < 1e-15, "axis {a}");
        }
    }

    #[test]
    fn update_velocity_reads_new_buffer() {
        let dims = Dims::new(2, 2, 2);
        let mut g = FluidGrid::new(dims);
        // Put junk in the present buffer and equilibrium in the new buffer:
        // kernel 7 must look at the new buffer only.
        g.f.fill(99.0);
        let u_in = [0.01, 0.02, 0.03];
        for node in 0..g.n() {
            for i in 0..Q {
                g.f_new[node * Q + i] = feq(i, 1.0, u_in);
            }
        }
        update_velocity_shifted(&mut g, 0.8);
        for node in 0..g.n() {
            assert!((g.rho[node] - 1.0).abs() < 1e-13);
            for a in 0..3 {
                assert!((g.u[node][a] - u_in[a]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn shifted_moments_relations() {
        let tau = 0.85;
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, 1.2, [0.01, -0.02, 0.03]);
        }
        let force = [4e-3, 0.0, -2e-3];
        let (rho, u, ueq) = node_moments_shifted(&f, force, tau);
        let (rho_plain, m) = plain_moments(&f);
        assert_eq!(rho, rho_plain);
        for a in 0..3 {
            // u_phys carries half the force.
            assert!(
                (u[a] - (m[a] + 0.5 * force[a]) / rho).abs() < 1e-15,
                "axis {a}"
            );
            // u_eq differs from the bare velocity by τF/ρ.
            assert!(
                (ueq[a] - (m[a] / rho + tau * force[a] / rho)).abs() < 1e-15,
                "axis {a}"
            );
        }
    }

    #[test]
    fn shifted_collision_adds_exactly_f_momentum() {
        // Relaxing toward feq(rho, u_eq) must inject exactly F per step.
        use crate::collision::bgk_collide_shifted;
        let tau = 0.7;
        let force = [3e-4, -1e-4, 2e-4];
        let mut f = [0.0; Q];
        for i in 0..Q {
            f[i] = feq(i, 1.0, [0.02, 0.01, -0.01]);
        }
        let mom = |f: &[f64; Q], a: usize| -> f64 { (0..Q).map(|i| f[i] * EF[i][a]).sum() };
        let p_before = [mom(&f, 0), mom(&f, 1), mom(&f, 2)];
        let (rho, _, ueq) = node_moments_shifted(&f, force, tau);
        bgk_collide_shifted(&mut f, rho, ueq, tau);
        for a in 0..3 {
            let dp = mom(&f, a) - p_before[a];
            assert!(
                (dp - force[a]).abs() < 1e-15,
                "axis {a}: dp {dp} vs F {}",
                force[a]
            );
        }
    }

    #[test]
    fn update_velocity_shifted_fills_all_fields() {
        let dims = Dims::new(2, 2, 2);
        let mut g = FluidGrid::new(dims);
        for node in 0..g.n() {
            for i in 0..Q {
                g.f_new[node * Q + i] = feq(i, 1.0, [0.0; 3]);
            }
            g.force[node][0] = 1e-3;
        }
        update_velocity_shifted(&mut g, 0.9);
        for node in 0..g.n() {
            assert!((g.u[node][0] - 0.5e-3).abs() < 1e-15);
            assert!((g.ueq[node][0] - 0.9e-3).abs() < 1e-15);
            assert_eq!(g.u[node][1], 0.0);
            assert_eq!(g.ueq[node][2], 0.0);
        }
    }

    #[test]
    fn initialize_equilibrium_sets_consistent_state() {
        let dims = Dims::new(3, 2, 2);
        let mut g = FluidGrid::new(dims);
        initialize_equilibrium(
            &mut g,
            |x, _, _| 1.0 + 0.01 * x as f64,
            |_, y, _| [0.01 * y as f64, 0.0, 0.0],
        );
        for (x, y, z) in dims.iter_coords() {
            let node = dims.idx(x, y, z);
            assert!((g.rho[node] - (1.0 + 0.01 * x as f64)).abs() < 1e-15);
            assert!((g.u[node][0] - 0.01 * y as f64).abs() < 1e-15);
            // Present and new buffers start identical.
            assert_eq!(g.node_f(node), g.node_f_new(node));
            // Moments of the stored distributions agree with the fields.
            let (rho, m) = plain_moments(g.node_f(node));
            assert!((rho - g.rho[node]).abs() < 1e-13);
            assert!((m[0] / rho - g.u[node][0]).abs() < 1e-13);
            let _ = z;
        }
    }

    proptest! {
        /// The zero-dropping moment sums equal the generic loop bit for
        /// bit, forces of either sign and zero included.
        #[test]
        fn prop_shifted_moments_equal_the_generic_loop(
            seed in 0u64..4000,
            fx in -1e-3f64..1e-3,
            fz in -1e-3f64..1e-3,
            tau in 0.55f64..2.0,
        ) {
            let f = random_populations(seed);
            for force in [[fx, 0.0, fz], [0.0; 3], [fz, fx, 1e-6]] {
                prop_assert_eq!(
                    bits(node_moments_shifted(&f, force, tau)),
                    bits(node_moments_shifted_reference(&f, force, tau)),
                    "seed {} force {:?}", seed, force
                );
            }
        }
    }
}
