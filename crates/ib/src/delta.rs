//! Smoothed approximations of the Dirac delta function — the mathematical
//! heart of the immersed boundary method (Section II-A of the paper). The
//! default is Peskin's 4-point cosine kernel, whose 3D tensor product covers
//! exactly the 4×4×4 "influential domain" of Section III-B. A 2-point hat
//! and the 3-point Roma kernel are provided for the support-width ablation.

use lbm::boundary::{AxisBoundary, BoundaryConfig};
use lbm::grid::Dims;

/// Choice of 1D delta kernel (the 3D kernel is the tensor product).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeltaKind {
    /// Peskin's cosine kernel, support `|r| < 2`:
    /// `δ(r) = ¼ (1 + cos(πr/2))` — the kernel of the LBM-IB paper's
    /// lineage (Zhu et al. 2011). Partition of unity is exact; the first
    /// moment vanishes only approximately (|Σ (r−j) δ| ≲ 0.0065).
    #[default]
    Peskin4,
    /// Peskin's piecewise-polynomial 4-point kernel, support `|r| < 2`,
    /// constructed to satisfy the even/odd sum *and* the exact first-moment
    /// condition, so it reproduces linear fields exactly.
    Peskin4Poly,
    /// Piecewise-linear hat, support `|r| < 1`: `δ(r) = 1 − |r|`.
    Hat2,
    /// Roma–Peskin 3-point kernel, support `|r| < 1.5`.
    Roma3,
}

impl DeltaKind {
    /// Support half-width in lattice cells: the kernel vanishes for
    /// `|r| >= half_support`.
    pub fn half_support(self) -> f64 {
        match self {
            DeltaKind::Peskin4 | DeltaKind::Peskin4Poly => 2.0,
            DeltaKind::Hat2 => 1.0,
            DeltaKind::Roma3 => 1.5,
        }
    }

    /// Number of lattice nodes the kernel touches along one axis.
    pub fn stencil_width(self) -> usize {
        match self {
            DeltaKind::Peskin4 | DeltaKind::Peskin4Poly => 4,
            DeltaKind::Hat2 => 2,
            DeltaKind::Roma3 => 3,
        }
    }

    /// 1D kernel value at signed distance `r` (lattice units, h = 1).
    #[inline]
    pub fn eval(self, r: f64) -> f64 {
        let a = r.abs();
        match self {
            DeltaKind::Peskin4 => {
                if a < 2.0 {
                    0.25 * (1.0 + (std::f64::consts::FRAC_PI_2 * r).cos())
                } else {
                    0.0
                }
            }
            DeltaKind::Peskin4Poly => {
                if a < 1.0 {
                    0.125 * (3.0 - 2.0 * a + (1.0 + 4.0 * a - 4.0 * a * a).sqrt())
                } else if a < 2.0 {
                    0.125 * (5.0 - 2.0 * a - (-7.0 + 12.0 * a - 4.0 * a * a).max(0.0).sqrt())
                } else {
                    0.0
                }
            }
            DeltaKind::Hat2 => {
                if a < 1.0 {
                    1.0 - a
                } else {
                    0.0
                }
            }
            DeltaKind::Roma3 => {
                if a <= 0.5 {
                    (1.0 + (1.0 - 3.0 * r * r).sqrt()) / 3.0
                } else if a < 1.5 {
                    (5.0 - 3.0 * a - (1.0 - 3.0 * (1.0 - a) * (1.0 - a)).max(0.0).sqrt()) / 6.0
                } else {
                    0.0
                }
            }
        }
    }

    /// 3D tensor-product kernel `δ(dx) δ(dy) δ(dz)`.
    #[inline]
    pub fn eval3(self, dx: f64, dy: f64, dz: f64) -> f64 {
        self.eval(dx) * self.eval(dy) * self.eval(dz)
    }
}

/// One lattice node inside a fiber node's influential domain, with its
/// kernel weight.
#[derive(Clone, Copy, Debug)]
pub struct Influence {
    pub x: usize,
    pub y: usize,
    pub z: usize,
    pub weight: f64,
}

/// The influential domain of a Lagrangian point, factored per axis: the
/// lattice coordinates inside the kernel support and their 1D weights.
///
/// Building a stencil is the only place the kernel is evaluated; walking
/// it ([`Stencil::for_each`]) only multiplies weights, so a solver can
/// build it once per step and reuse it for spreading and interpolation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stencil {
    coord: [[usize; Stencil::MAX_WIDTH]; 3],
    weight: [[f64; Stencil::MAX_WIDTH]; 3],
    len: [usize; 3],
}

impl Stencil {
    /// Upper bound of [`DeltaKind::stencil_width`] over all kernels: the
    /// most nodes with non-zero weight along one axis.
    pub const MAX_WIDTH: usize = 4;

    /// Builds the stencil of `pos`.
    ///
    /// Axes marked periodic in `bc` wrap; on wall axes, nodes beyond the
    /// grid are skipped (the structure is expected to stay at least the
    /// kernel half-support away from walls, as in the paper's tunnel
    /// setup). Nodes where the kernel vanishes are left out.
    pub fn new(pos: [f64; 3], kind: DeltaKind, dims: Dims, bc: &BoundaryConfig) -> Self {
        let hs = kind.half_support();
        let ext = [dims.nx, dims.ny, dims.nz];
        let periodic = [
            matches!(bc.x, AxisBoundary::Periodic),
            matches!(bc.y, AxisBoundary::Periodic),
            matches!(bc.z, AxisBoundary::Periodic),
        ];

        // Candidate integer coordinates per axis: ceil(p - hs) ..= floor(p + hs),
        // trimmed to open support.
        let mut s = Self::default();
        for a in 0..3 {
            let p = pos[a];
            let lo = (p - hs).ceil() as i64;
            let hi = (p + hs).floor() as i64;
            for j in lo..=hi {
                let w = kind.eval(p - j as f64);
                if w == 0.0 {
                    continue;
                }
                let idx = if periodic[a] {
                    (j.rem_euclid(ext[a] as i64)) as usize
                } else if j < 0 || j >= ext[a] as i64 {
                    continue;
                } else {
                    j as usize
                };
                let n = s.len[a];
                debug_assert!(n < Self::MAX_WIDTH, "kernel support wider than expected");
                s.coord[a][n] = idx;
                s.weight[a][n] = w;
                s.len[a] = n + 1;
            }
        }
        s
    }

    /// The lattice coordinates and 1D weights along axis `a`.
    #[inline]
    pub fn axis(&self, a: usize) -> (&[usize], &[f64]) {
        let n = self.len[a];
        (&self.coord[a][..n], &self.weight[a][..n])
    }

    /// Calls `f` for every node of the tensor-product domain, x slowest and
    /// z fastest, with weight `(wx * wy) * wz`.
    #[inline]
    pub fn for_each<F>(&self, mut f: F)
    where
        F: FnMut(Influence),
    {
        let (xs, wxs) = self.axis(0);
        let (ys, wys) = self.axis(1);
        let (zs, wzs) = self.axis(2);
        for (&x, &wx) in xs.iter().zip(wxs) {
            for (&y, &wy) in ys.iter().zip(wys) {
                let wxy = wx * wy;
                for (&z, &wz) in zs.iter().zip(wzs) {
                    f(Influence {
                        x,
                        y,
                        z,
                        weight: wxy * wz,
                    });
                }
            }
        }
    }
}

/// Enumerates the influential domain of a Lagrangian point `pos`: every
/// lattice node within the kernel support, with the tensor-product weight
/// (see [`Stencil`] for the boundary rules).
///
/// Weights over a full (unclipped) domain sum to exactly 1 for every
/// kernel — the discrete partition-of-unity property that makes force
/// spreading conservative.
pub fn for_each_influence<F>(pos: [f64; 3], kind: DeltaKind, dims: Dims, bc: &BoundaryConfig, f: F)
where
    F: FnMut(Influence),
{
    Stencil::new(pos, kind, dims, bc).for_each(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [DeltaKind; 4] = [
        DeltaKind::Peskin4,
        DeltaKind::Peskin4Poly,
        DeltaKind::Hat2,
        DeltaKind::Roma3,
    ];

    #[test]
    fn kernels_are_even_and_supported() {
        for kind in KINDS {
            for r in [0.0, 0.25, 0.5, 0.9, 1.3, 1.9] {
                assert!(
                    (kind.eval(r) - kind.eval(-r)).abs() < 1e-15,
                    "{kind:?} at {r}"
                );
            }
            assert_eq!(
                kind.eval(kind.half_support()),
                0.0,
                "{kind:?} at support edge"
            );
            assert_eq!(kind.eval(kind.half_support() + 0.5), 0.0);
            assert!(kind.eval(0.0) > 0.0);
        }
    }

    #[test]
    fn peskin4_peak_value() {
        assert!((DeltaKind::Peskin4.eval(0.0) - 0.5).abs() < 1e-15);
        assert!((DeltaKind::Peskin4.eval(1.0) - 0.25).abs() < 1e-15);
    }

    fn lattice_sum(kind: DeltaKind, frac: f64) -> f64 {
        // Σ_j δ(frac - j) over all integers in support.
        (-4i32..=4).map(|j| kind.eval(frac - j as f64)).sum()
    }

    #[test]
    fn partition_of_unity_at_sample_offsets() {
        for kind in KINDS {
            for frac in [0.0, 0.1, 0.25, 0.5, 0.73, 0.99] {
                let s = lattice_sum(kind, frac);
                assert!((s - 1.0).abs() < 1e-12, "{kind:?} at offset {frac}: {s}");
            }
        }
    }

    #[test]
    fn peskin4_even_odd_sum_identity() {
        // Peskin's construction also balances mass between even and odd
        // lattice points: each sums to 1/2.
        let frac = 0.37;
        let even: f64 = (-4i32..=4)
            .filter(|j| j % 2 == 0)
            .map(|j| DeltaKind::Peskin4.eval(frac - j as f64))
            .sum();
        assert!((even - 0.5).abs() < 1e-12, "even sum {even}");
    }

    #[test]
    fn stencil_width_matches_observed_support() {
        for kind in KINDS {
            // Generic (non-degenerate) offset touches exactly stencil_width nodes.
            let n = (-4i32..=4)
                .filter(|&j| kind.eval(0.3 - j as f64) != 0.0)
                .count();
            assert_eq!(n, kind.stencil_width(), "{kind:?}");
        }
    }

    #[test]
    fn influential_domain_is_4x4x4_for_peskin() {
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::periodic();
        let mut count = 0;
        let mut total = 0.0;
        for_each_influence([8.3, 7.6, 9.1], DeltaKind::Peskin4, dims, &bc, |inf| {
            count += 1;
            total += inf.weight;
        });
        assert_eq!(count, 64, "paper's 4x4x4 influential domain");
        assert!(
            (total - 1.0).abs() < 1e-12,
            "3D partition of unity: {total}"
        );
    }

    #[test]
    fn influence_wraps_on_periodic_axes() {
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let mut xs = std::collections::BTreeSet::new();
        for_each_influence([0.2, 4.0, 4.0], DeltaKind::Peskin4, dims, &bc, |inf| {
            xs.insert(inf.x);
        });
        // Support covers x in {-1, 0, 1, 2} → wraps to {7, 0, 1, 2}.
        assert!(xs.contains(&7), "x = -1 must wrap to 7: {xs:?}");
        assert!(xs.contains(&0) && xs.contains(&1) && xs.contains(&2));
    }

    #[test]
    fn influence_clips_at_walls() {
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::tunnel(); // y and z walls
        let mut count = 0;
        for_each_influence([4.3, 0.2, 4.6], DeltaKind::Peskin4, dims, &bc, |inf| {
            assert!(inf.y < 8);
            count += 1;
        });
        // y support {-1,0,1,2} clips to {0,1,2}: 4 * 3 * 4 nodes.
        assert_eq!(count, 48);
    }

    #[test]
    fn on_lattice_point_degenerates_peskin_stencil() {
        // Exactly on a lattice plane the |r| = 2 end points carry zero
        // weight, so the axis stencil shrinks from 4 to 3 nodes.
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let mut count = 0;
        for_each_influence([4.0, 4.0, 4.0], DeltaKind::Peskin4, dims, &bc, |_| {
            count += 1
        });
        assert_eq!(count, 27);
    }

    #[test]
    fn node_exactly_on_lattice_point() {
        // When the fiber node coincides with a lattice node the hat kernel
        // degenerates to a single point with weight 1.
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let mut hits = Vec::new();
        for_each_influence([3.0, 3.0, 3.0], DeltaKind::Hat2, dims, &bc, |inf| {
            hits.push(((inf.x, inf.y, inf.z), inf.weight));
        });
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, (3, 3, 3));
        assert!((hits[0].1 - 1.0).abs() < 1e-15);
    }

    /// `for_each_influence` as it was before [`Stencil`] existed: the
    /// reference the stencil must reproduce bit for bit.
    fn reference_influences(
        pos: [f64; 3],
        kind: DeltaKind,
        dims: Dims,
        bc: &BoundaryConfig,
    ) -> Vec<(usize, usize, usize, u64)> {
        let hs = kind.half_support();
        let ext = [dims.nx, dims.ny, dims.nz];
        let periodic = [
            matches!(bc.x, AxisBoundary::Periodic),
            matches!(bc.y, AxisBoundary::Periodic),
            matches!(bc.z, AxisBoundary::Periodic),
        ];
        let mut coords: [[Option<(usize, f64)>; 5]; 3] = [[None; 5]; 3];
        let mut counts = [0usize; 3];
        for a in 0..3 {
            let p = pos[a];
            let lo = (p - hs).ceil() as i64;
            let hi = (p + hs).floor() as i64;
            for j in lo..=hi {
                let w = kind.eval(p - j as f64);
                if w == 0.0 {
                    continue;
                }
                let idx = if periodic[a] {
                    (j.rem_euclid(ext[a] as i64)) as usize
                } else if j < 0 || j >= ext[a] as i64 {
                    continue;
                } else {
                    j as usize
                };
                coords[a][counts[a]] = Some((idx, w));
                counts[a] += 1;
            }
        }
        let mut out = Vec::new();
        for ix in 0..counts[0] {
            let (x, wx) = coords[0][ix].unwrap();
            for iy in 0..counts[1] {
                let (y, wy) = coords[1][iy].unwrap();
                let wxy = wx * wy;
                for iz in 0..counts[2] {
                    let (z, wz) = coords[2][iz].unwrap();
                    out.push((x, y, z, (wxy * wz).to_bits()));
                }
            }
        }
        out
    }

    /// Requires `Stencil::new(..).for_each` to yield exactly the reference
    /// sequence for every kernel, under a periodic and a walled (tunnel)
    /// boundary configuration.
    fn check_stencil_against_reference(pos: [f64; 3]) -> Result<(), String> {
        let dims = Dims::new(12, 10, 14);
        for (bc, periodic) in [
            (BoundaryConfig::periodic(), true),
            (BoundaryConfig::tunnel(), false),
        ] {
            for kind in KINDS {
                let mut got = Vec::new();
                Stencil::new(pos, kind, dims, &bc).for_each(|inf| {
                    got.push((inf.x, inf.y, inf.z, inf.weight.to_bits()));
                });
                let want = reference_influences(pos, kind, dims, &bc);
                // Only walls can clip a domain away entirely.
                prop_assert!(
                    !periodic || !want.is_empty(),
                    "{:?} at {:?}: empty domain",
                    kind,
                    pos
                );
                prop_assert_eq!(got, want, "{:?} at {:?} under {:?}", kind, pos, bc);
            }
        }
        Ok(())
    }

    #[test]
    fn stencil_exposes_axis_coordinates_and_weights() {
        let dims = Dims::new(8, 8, 8);
        let s = Stencil::new(
            [0.5, 4.0, 7.25],
            DeltaKind::Hat2,
            dims,
            &BoundaryConfig::periodic(),
        );
        assert_eq!(s.axis(0), (&[0, 1][..], &[0.5, 0.5][..]));
        assert_eq!(s.axis(1), (&[4][..], &[1.0][..]));
        assert_eq!(s.axis(2), (&[7, 0][..], &[0.75, 0.25][..]));
    }

    proptest! {
        /// The stencil reproduces the reference at interior positions.
        #[test]
        fn prop_stencil_matches_reference_in_interior(
            px in 3.0f64..9.0,
            py in 3.0f64..7.0,
            pz in 3.0f64..11.0,
        ) {
            check_stencil_against_reference([px, py, pz])?;
        }

        /// ... on lattice points, where the support end points carry zero
        /// weight and drop out.
        #[test]
        fn prop_stencil_matches_reference_on_lattice_points(
            x in 0i64..12,
            y in 0i64..10,
            z in 0i64..14,
        ) {
            check_stencil_against_reference([x as f64, y as f64, z as f64])?;
        }

        /// ... within one support of the low and high faces, where a
        /// periodic axis wraps.
        #[test]
        fn prop_stencil_matches_reference_across_periodic_wrap(
            px in -2.0f64..2.0,
            py in 8.0f64..12.0,
            pz in -2.0f64..2.0,
        ) {
            check_stencil_against_reference([px, py, pz])?;
        }

        /// ... next to the walls of the tunnel's y and z axes, where the
        /// domain is clipped.
        #[test]
        fn prop_stencil_matches_reference_next_to_walls(
            px in 0.0f64..12.0,
            py in 0.0f64..2.0,
            pz in 12.0f64..14.0,
        ) {
            check_stencil_against_reference([px, py, pz])?;
        }

        /// Partition of unity at arbitrary offsets, all kernels.
        #[test]
        fn prop_partition_of_unity(frac in 0.0f64..1.0) {
            for kind in KINDS {
                let s = lattice_sum(kind, frac);
                prop_assert!((s - 1.0).abs() < 1e-12, "{:?}: {}", kind, s);
            }
        }

        /// 3D weights over an unclipped domain sum to 1 at arbitrary positions.
        #[test]
        fn prop_3d_weights_sum_to_one(
            px in 4.0f64..12.0,
            py in 4.0f64..12.0,
            pz in 4.0f64..12.0,
        ) {
            let dims = Dims::new(16, 16, 16);
            let bc = BoundaryConfig::periodic();
            for kind in KINDS {
                let mut total = 0.0;
                for_each_influence([px, py, pz], kind, dims, &bc, |inf| total += inf.weight);
                prop_assert!((total - 1.0).abs() < 1e-12, "{:?}: {}", kind, total);
            }
        }

        /// The discrete first moment vanishes exactly for the polynomial
        /// 4-point kernel (it reproduces linear fields exactly), and is
        /// small but non-zero for the cosine kernel.
        #[test]
        fn prop_first_moment(frac in 0.0f64..1.0) {
            let m = |kind: DeltaKind| -> f64 {
                (-4i32..=4).map(|j| (frac - j as f64) * kind.eval(frac - j as f64)).sum()
            };
            prop_assert!(m(DeltaKind::Peskin4Poly).abs() < 1e-12,
                "poly first moment {}", m(DeltaKind::Peskin4Poly));
            prop_assert!(m(DeltaKind::Hat2).abs() < 1e-12,
                "hat first moment {}", m(DeltaKind::Hat2));
            prop_assert!(m(DeltaKind::Peskin4).abs() < 0.022,
                "cosine first moment {}", m(DeltaKind::Peskin4));
        }

        /// All kernel values are non-negative (needed for stability).
        #[test]
        fn prop_nonnegative(r in -3.0f64..3.0) {
            for kind in KINDS {
                prop_assert!(kind.eval(r) >= 0.0, "{:?} at {}", kind, r);
            }
        }
    }
}
