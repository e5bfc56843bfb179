//! Smoothed approximations of the Dirac delta function — the mathematical
//! heart of the immersed boundary method (Section II-A of the paper). The
//! default is Peskin's 4-point cosine kernel, whose 3D tensor product covers
//! exactly the 4×4×4 "influential domain" of Section III-B. A 2-point hat
//! and the 3-point Roma kernel are provided for the support-width ablation.

use std::ops::{Range, RangeInclusive};

use lbm::boundary::BoundaryConfig;
use lbm::grid::Dims;

/// Choice of 1D delta kernel (the 3D kernel is the tensor product).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeltaKind {
    /// Peskin's cosine kernel, support `|r| < 2`:
    /// `δ(r) = ¼ (1 + cos(πr/2))` — the kernel of the LBM-IB paper's
    /// lineage (Zhu et al. 2011). Partition of unity is exact; the first
    /// moment vanishes only approximately (|Σ (r−j) δ| ≲ 0.0065).
    ///
    /// The weights are computed in closed form, one `sin`/`cos` pair per
    /// position and axis instead of one `cos` per node: with
    /// `j0 = floor(p) − 1` and `θ = π/2 · (p − floor(p))`, the nodes
    /// `j0 ..= j0 + 3` weigh ¼(1 − sin θ), ¼(1 + cos θ), ¼(1 + sin θ) and
    /// ¼(1 − cos θ). These are `δ(p − j)` rewritten with
    /// `cos(x ± π/2) = ∓ sin x` and `cos(x − π) = − cos x`, so they differ
    /// from `¼ (1 + cos(π(p − j)/2))` evaluated term by term only by
    /// rounding (at most 2⁻⁵² absolute), and they sum to 1 within 2⁻⁵¹.
    /// [`DeltaKind::eval`] and the stored stencils ([`CubeIndexer::stencil`])
    /// share the one routine, so `eval(p − j)` equals the stored weight of
    /// node `j` bit for bit wherever `p − j` is exact.
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
                    // Node 0 seen from position `r`: entry `0 − j0`.
                    let (j0, w) = cosine_weights(r);
                    w[(-j0) as usize]
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

/// The [`DeltaKind::Peskin4`] weights of position `p` on one axis:
/// `(j0, w)`, where `w[i]` is the weight of node `j0 + i` and
/// `j0 = floor(p) − 1`. Every other node weighs 0.
#[inline]
fn cosine_weights(p: f64) -> (i64, [f64; 4]) {
    let floor = p.floor();
    let (s, c) = (std::f64::consts::FRAC_PI_2 * (p - floor)).sin_cos();
    (
        (floor as i64).saturating_sub(1),
        [
            0.25 * (1.0 - s),
            0.25 * (1.0 + c),
            0.25 * (1.0 + s),
            0.25 * (1.0 - c),
        ],
    )
}

/// Coordinate→index tables for a grid stored in bricks of `edge[a]` nodes
/// along axis `a`, bricks and the nodes inside a brick both in x-major
/// order (as [`Dims::idx`] orders nodes).
///
/// Both the brick index and the flat index of a node are sums of one term
/// per axis: `brick_part[0][x] + brick_part[1][y] + brick_part[2][z]` is
/// the brick holding `(x, y, z)`, and likewise `flat_part` gives its flat
/// index, with no division in the hot loops. Two layouts use it:
///
/// * the cube solver's `k × k × k` cubes ([`lbm::cube_grid::CubeDims`]);
/// * the flat [`lbm::grid::FluidGrid`] as plane bricks `(1, ny, nz)`
///   ([`CubeIndexer::planes`]): brick `x` is plane `x`, and the flat index
///   is [`Dims::idx`].
#[derive(Clone, Debug)]
pub struct CubeIndexer {
    brick_part: [Vec<usize>; 3],
    flat_part: [Vec<usize>; 3],
}

impl CubeIndexer {
    /// The tables for bricks of `edge` nodes per axis. Each edge must
    /// divide its axis's length.
    pub fn new(dims: Dims, edge: [usize; 3]) -> Self {
        let ext = [dims.nx, dims.ny, dims.nz];
        debug_assert!((0..3).all(|a| edge[a] > 0 && ext[a] % edge[a] == 0));
        let bricks = [0, 1, 2].map(|a| ext[a] / edge[a]);
        let brick_stride = [bricks[1] * bricks[2], bricks[2], 1];
        let local_stride = [edge[1] * edge[2], edge[2], 1];
        let nodes_per_brick = edge[0] * edge[1] * edge[2];
        let mut brick_part: [Vec<usize>; 3] = Default::default();
        let mut flat_part: [Vec<usize>; 3] = Default::default();
        for a in 0..3 {
            (brick_part[a], flat_part[a]) = (0..ext[a])
                .map(|v| {
                    let brick = v / edge[a] * brick_stride[a];
                    (
                        brick,
                        brick * nodes_per_brick + v % edge[a] * local_stride[a],
                    )
                })
                .unzip();
        }
        Self {
            brick_part,
            flat_part,
        }
    }

    /// The flat layout's plane bricks: brick `x` is plane `x`.
    pub fn planes(dims: Dims) -> Self {
        Self::new(dims, [1, dims.ny, dims.nz])
    }

    /// The flat index of node `(x, y, z)`.
    #[inline]
    pub fn flat(&self, x: usize, y: usize, z: usize) -> usize {
        self.flat_part[0][x] + self.flat_part[1][y] + self.flat_part[2][z]
    }

    /// The delta stencil of `pos` in this layout: the step's only
    /// evaluation of the kernel for that point.
    ///
    /// Per axis, the candidates are the integer coordinates within the
    /// kernel's half support `hs`, `ceil(p − hs) ..= floor(p + hs)`;
    /// those where the kernel vanishes are left out. (For
    /// [`DeltaKind::Peskin4`] only `floor(p) − 1 ..= floor(p) + 2` are
    /// walked: the others always weigh 0.) Axes marked periodic in `bc`
    /// wrap; on wall axes, nodes beyond the grid are skipped (the
    /// structure is expected to stay at least the kernel half-support away
    /// from walls, as in the paper's tunnel setup). A stencil with no
    /// point on some axis is empty ([`CubeStencil::default`]).
    pub fn stencil(&self, pos: [f64; 3], kind: DeltaKind, bc: &BoundaryConfig) -> CubeStencil {
        let periodic = [bc.x.is_periodic(), bc.y.is_periodic(), bc.z.is_periodic()];
        let mut s = CubeStencil::default();
        // Sums of the axes' smallest and largest brick terms.
        let mut span = [0; 2];
        for a in 0..3 {
            // The axis's coordinates and weights first, then their terms:
            // two tight loops run faster than one.
            let p = pos[a];
            let mut coord = [0; CubeStencil::MAX_WIDTH];
            let mut n = 0;
            let mut keep = |j: i64, w: f64| {
                if w == 0.0 {
                    return;
                }
                if let Some(v) = self.coordinate(a, j, periodic[a]) {
                    coord[n] = v;
                    s.weight[a][n] = w;
                    n += 1;
                }
            };
            if kind == DeltaKind::Peskin4 {
                let (j0, w) = cosine_weights(p);
                (0..)
                    .zip(w)
                    .for_each(|(i, w)| keep(j0.saturating_add(i), w));
            } else {
                for j in Self::candidates(p, kind) {
                    keep(j, kind.eval(p - j as f64));
                }
            }
            if n == 0 {
                // No point on this axis, so none at all.
                return CubeStencil::default();
            }
            s.len[a] = n;
            let mut run = 0;
            let (mut lo, mut hi) = (usize::MAX, 0);
            for (j, &v) in coord[..n].iter().enumerate() {
                let brick = self.brick_part[a][v];
                s.brick[a][j] = brick;
                s.flat[a][j] = self.flat_part[a][v];
                (lo, hi) = (lo.min(brick), hi.max(brick));
                // A run ends where the brick changes, or before a node it
                // already holds (a wrap onto a short periodic axis).
                if j == 0 || brick != s.brick[a][j - 1] || coord[run..j].contains(&v) {
                    s.runs[a] |= 1 << j;
                    run = j;
                }
            }
            span[0] += lo;
            span[1] += hi;
        }
        s.span = [span[0], span[1] + 1];
        s
    }

    /// Builds the stencil of every position in `pos` into the matching
    /// entry of `out`.
    pub fn build(
        &self,
        pos: &[[f64; 3]],
        kind: DeltaKind,
        bc: &BoundaryConfig,
        out: &mut [CubeStencil],
    ) {
        debug_assert_eq!(pos.len(), out.len());
        for (s, &p) in out.iter_mut().zip(pos) {
            *s = self.stencil(p, kind, bc);
        }
    }

    /// Like [`CubeIndexer::build`], but builds only the stencils whose
    /// x-support reaches the planes `xs`; every other entry of `out` is
    /// left empty ([`CubeStencil::default`]). An empty stencil has no
    /// block, so [`crate::spread::spread`] adds nothing for it and
    /// [`crate::interp::interp`] returns +0.0, just as for a built one
    /// whose blocks all lie off `xs`. A distributed rank builds only what
    /// its spread and its partial interpolation read.
    ///
    /// The test is the stencil's candidate x coordinates, wrapped on a
    /// periodic x axis, before the weights are evaluated.
    pub fn build_reaching(
        &self,
        pos: &[[f64; 3]],
        kind: DeltaKind,
        bc: &BoundaryConfig,
        xs: Range<usize>,
        out: &mut [CubeStencil],
    ) {
        debug_assert_eq!(pos.len(), out.len());
        let periodic = bc.x.is_periodic();
        for (s, &p) in out.iter_mut().zip(pos) {
            let reaches = Self::candidates(p[0], kind).any(|j| {
                self.coordinate(0, j, periodic)
                    .is_some_and(|x| xs.contains(&x))
            });
            *s = if reaches {
                self.stencil(p, kind, bc)
            } else {
                CubeStencil::default()
            };
        }
    }

    /// The candidate nodes of position `p` on one axis: every integer `j`
    /// within the kernel's half support `hs`, `ceil(p − hs) ..= floor(p +
    /// hs)`. For [`DeltaKind::Peskin4`] the walk is `j0 ..= j0 + 3` with
    /// `j0 = floor(p) − 1`, the nodes its closed-form weights cover: the
    /// wider range adds only the two end points of a position on a lattice
    /// plane (`|p − j| = 2`), whose weight is 0, so both give one point set.
    #[inline]
    fn candidates(p: f64, kind: DeltaKind) -> RangeInclusive<i64> {
        if kind == DeltaKind::Peskin4 {
            let j0 = (p.floor() as i64).saturating_sub(1);
            j0..=j0.saturating_add(3)
        } else {
            let hs = kind.half_support();
            (p - hs).ceil() as i64..=(p + hs).floor() as i64
        }
    }

    /// The grid coordinate of candidate `j` on axis `a`: `j` itself on the
    /// grid, wrapped onto it on a periodic axis, `None` beyond a wall.
    #[inline]
    fn coordinate(&self, a: usize, j: i64, periodic: bool) -> Option<usize> {
        let ext = self.brick_part[a].len() as i64;
        // Most candidates lie on the grid: no division for them.
        if (0..ext).contains(&j) {
            Some(j as usize)
        } else {
            periodic.then(|| j.rem_euclid(ext) as usize)
        }
    }

    /// Counts, per brick, the candidate nodes of every position in `pos`
    /// into `counts` (one entry per brick, overwritten): the work a spread
    /// of their stencils does in each brick, estimated from the
    /// candidates [`CubeIndexer::stencil`] walks, without evaluating the
    /// kernel. It counts a stencil's points exactly, but for the
    /// candidates of zero weight (the end points of a position on a
    /// lattice plane).
    pub fn count_points(
        &self,
        pos: &[[f64; 3]],
        kind: DeltaKind,
        bc: &BoundaryConfig,
        counts: &mut [u64],
    ) {
        let periodic = [bc.x.is_periodic(), bc.y.is_periodic(), bc.z.is_periodic()];
        counts.fill(0);
        for p in pos {
            // Per axis, the candidates' brick terms with their multiplicity
            // (at most one more candidate than a stencil holds).
            let mut terms = [[(0usize, 0u64); CubeStencil::MAX_WIDTH + 1]; 3];
            let mut len = [0; 3];
            for a in 0..3 {
                for j in Self::candidates(p[a], kind) {
                    let Some(v) = self.coordinate(a, j, periodic[a]) else {
                        continue;
                    };
                    let t = self.brick_part[a][v];
                    match terms[a][..len[a]].last_mut() {
                        Some((last, n)) if *last == t => *n += 1,
                        _ => {
                            terms[a][len[a]] = (t, 1);
                            len[a] += 1;
                        }
                    }
                }
            }
            for &(bx, nx) in &terms[0][..len[0]] {
                for &(by, ny) in &terms[1][..len[1]] {
                    for &(bz, nz) in &terms[2][..len[2]] {
                        counts[bx + by + bz] += nx * ny * nz;
                    }
                }
            }
        }
    }
}

/// One fiber node's delta stencil in a brick layout ([`CubeIndexer`]), the
/// form every solver stores: built once per node and step, then read by
/// the spread (kernel 4, [`crate::spread::spread`]) and the interpolation
/// (kernel 8, [`crate::interp::interp`]).
///
/// Per axis and entry it holds the entry's term of the brick index, its
/// term of the flat index and its 1D weight. Per axis, bit `j` of `runs`
/// is set if entry `j` starts a run, a stretch of consecutive entries with
/// one brick term and no coordinate twice. One run per axis makes a block,
/// which lies in a single brick and holds each of its nodes once. `span`
/// is [`CubeStencil::brick_span`], summed up while the terms are stored.
#[derive(Clone, Copy, Debug, Default)]
pub struct CubeStencil {
    brick: [[usize; CubeStencil::MAX_WIDTH]; 3],
    flat: [[usize; CubeStencil::MAX_WIDTH]; 3],
    weight: [[f64; CubeStencil::MAX_WIDTH]; 3],
    len: [usize; 3],
    runs: [u8; 3],
    span: [usize; 2],
}

impl CubeStencil {
    /// Upper bound of [`DeltaKind::stencil_width`] over all kernels: the
    /// most nodes with non-zero weight along one axis.
    pub(crate) const MAX_WIDTH: usize = 4;

    /// The bricks the stencil's blocks can lie in, as one range: from the
    /// sum over axes of the smallest brick term to the sum of the largest.
    /// A brick index is a sum of one term per axis, so every block's brick
    /// lies in the range; an owner of a brick range the span misses can
    /// skip the stencil without walking its blocks. Empty for a stencil
    /// with no point.
    #[inline]
    pub fn brick_span(&self) -> Range<usize> {
        self.span[0]..self.span[1]
    }

    /// Calls `f(brick, flat, weight)` for every node of the tensor-product
    /// domain, x slowest and z fastest, with weight `(wx * wy) * wz`.
    #[inline(always)]
    pub fn for_each(&self, mut f: impl FnMut(usize, usize, f64)) {
        for ix in 0..self.len[0] {
            let (bx, fx, wx) = (self.brick[0][ix], self.flat[0][ix], self.weight[0][ix]);
            for iy in 0..self.len[1] {
                let (bxy, fxy) = (bx + self.brick[1][iy], fx + self.flat[1][iy]);
                let wxy = wx * self.weight[1][iy];
                for iz in 0..self.len[2] {
                    f(
                        bxy + self.brick[2][iz],
                        fxy + self.flat[2][iz],
                        wxy * self.weight[2][iz],
                    );
                }
            }
        }
    }

    /// Calls `f(flat, weight)` for the nodes of `block` (a range of
    /// entries per axis), in [`Self::for_each`]'s order and weight
    /// association.
    #[inline(always)]
    pub(crate) fn for_each_in(&self, block: &[Range<usize>; 3], mut f: impl FnMut(usize, f64)) {
        for ix in block[0].clone() {
            let (fx, wx) = (self.flat[0][ix], self.weight[0][ix]);
            for iy in block[1].clone() {
                let fxy = fx + self.flat[1][iy];
                let wxy = wx * self.weight[1][iy];
                for iz in block[2].clone() {
                    f(fxy + self.flat[2][iz], wxy * self.weight[2][iz]);
                }
            }
        }
    }

    /// Calls `f(brick, block)` for every block of the stencil, x runs
    /// outermost: once per brick the stencil reaches, not once per point
    /// (a brick comes up twice only where a periodic axis wraps the
    /// stencil back into it).
    ///
    /// Each node gets the same products as in [`Self::for_each`], in the
    /// same order. A block holds a node at most once, and the blocks come
    /// in the order of their runs, which are ascending ranges of entries;
    /// so a node the stencil reaches more than once (it wraps a periodic
    /// axis shorter than itself) receives its products in `for_each`'s
    /// order. With plane bricks x has one run per entry, and y and z, if
    /// no shorter than the stencil, one run each, so the blocks walk the
    /// points in exactly `for_each`'s order.
    #[inline(always)]
    pub fn for_each_block(&self, mut f: impl FnMut(usize, &[Range<usize>; 3])) {
        let runs = |a: usize| {
            let mut bits = u32::from(self.runs[a]);
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let start = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let end = if bits == 0 {
                    self.len[a]
                } else {
                    bits.trailing_zeros() as usize
                };
                Some((self.brick[a][start], start..end))
            })
        };
        for (bx, rx) in runs(0) {
            for (by, ry) in runs(1) {
                for (bz, rz) in runs(2) {
                    f(bx + by + bz, &[rx.clone(), ry.clone(), rz]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm::boundary::AxisBoundary;
    use proptest::prelude::*;

    const KINDS: [DeltaKind; 4] = [
        DeltaKind::Peskin4,
        DeltaKind::Peskin4Poly,
        DeltaKind::Hat2,
        DeltaKind::Roma3,
    ];

    /// The nodes of `pos`'s stored stencil in the flat layout, as
    /// `(x, y, z, weight)` in [`CubeStencil::for_each`]'s order.
    fn influences(
        pos: [f64; 3],
        kind: DeltaKind,
        dims: Dims,
        bc: &BoundaryConfig,
    ) -> Vec<(usize, usize, usize, f64)> {
        let mut out = Vec::new();
        CubeIndexer::planes(dims)
            .stencil(pos, kind, bc)
            .for_each(|brick, flat, w| {
                let (x, y, z) = dims.coords(flat);
                assert_eq!(brick, x, "plane bricks");
                out.push((x, y, z, w));
            });
        out
    }

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
        let nodes = influences([8.3, 7.6, 9.1], DeltaKind::Peskin4, dims, &bc);
        let total: f64 = nodes.iter().map(|n| n.3).sum();
        assert_eq!(nodes.len(), 64, "paper's 4x4x4 influential domain");
        assert!(
            (total - 1.0).abs() < 1e-12,
            "3D partition of unity: {total}"
        );
    }

    #[test]
    fn influence_wraps_on_periodic_axes() {
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let xs: std::collections::BTreeSet<usize> =
            influences([0.2, 4.0, 4.0], DeltaKind::Peskin4, dims, &bc)
                .iter()
                .map(|n| n.0)
                .collect();
        // Support covers x in {-1, 0, 1, 2} → wraps to {7, 0, 1, 2}.
        assert!(xs.contains(&7), "x = -1 must wrap to 7: {xs:?}");
        assert!(xs.contains(&0) && xs.contains(&1) && xs.contains(&2));
    }

    #[test]
    fn influence_clips_at_walls() {
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::tunnel(); // y and z walls
        let nodes = influences([4.3, 0.2, 4.6], DeltaKind::Peskin4, dims, &bc);
        assert!(nodes.iter().all(|n| n.1 < 3));
        // y support {-1,0,1,2} clips to {0,1,2}: 4 * 3 * 4 nodes.
        assert_eq!(nodes.len(), 48);
    }

    #[test]
    fn on_lattice_point_degenerates_peskin_stencil() {
        // Exactly on a lattice plane the |r| = 2 end points carry zero
        // weight, so the axis stencil shrinks from 4 to 3 nodes.
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let nodes = influences([4.0, 4.0, 4.0], DeltaKind::Peskin4, dims, &bc);
        assert_eq!(nodes.len(), 27);
    }

    #[test]
    fn node_exactly_on_lattice_point() {
        // When the fiber node coincides with a lattice node the hat kernel
        // degenerates to a single point with weight 1.
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let hits = influences([3.0, 3.0, 3.0], DeltaKind::Hat2, dims, &bc);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].0, hits[0].1, hits[0].2), (3, 3, 3));
        assert!((hits[0].3 - 1.0).abs() < 1e-15);
    }

    /// An independent enumeration of the influential domain: the
    /// reference the stored stencil must reproduce bit for bit. Its
    /// candidates are every integer within the half support, its order
    /// and products are written out here; only the [`DeltaKind::Peskin4`]
    /// weights of one axis are read off the closed form of `p`, as the
    /// builder reads them. `eval(p − j)` would round `p − j` first where
    /// it is inexact (`p = 0.3`, `j = −1`), and its last bit can then
    /// differ; `closed_form_cosine_weights_match_the_term_by_term_kernel`
    /// checks the closed form against the kernel.
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
                let w = if kind == DeltaKind::Peskin4 {
                    let (j0, w) = cosine_weights(p);
                    usize::try_from(j - j0)
                        .ok()
                        .and_then(|i| w.get(i).copied())
                        .unwrap_or(0.0)
                } else {
                    kind.eval(p - j as f64)
                };
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

    /// Requires the stored stencil's walk to yield exactly the reference
    /// sequence for every kernel, under a periodic and a walled (tunnel)
    /// boundary configuration.
    fn check_stencil_against_reference(pos: [f64; 3]) -> Result<(), String> {
        let dims = Dims::new(12, 10, 14);
        for (bc, periodic) in [
            (BoundaryConfig::periodic(), true),
            (BoundaryConfig::tunnel(), false),
        ] {
            for kind in KINDS {
                let got: Vec<_> = influences(pos, kind, dims, &bc)
                    .into_iter()
                    .map(|(x, y, z, w)| (x, y, z, w.to_bits()))
                    .collect();
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
    fn stencil_holds_the_axis_coordinates_and_weights() {
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        // x: {0, 1} at ½ each; y: {4} at 1; z: {7, 0} at ¾ and ¼.
        let got = influences([0.5, 4.0, 7.25], DeltaKind::Hat2, dims, &bc);
        let want = [
            (0, 4, 7, 0.375),
            (0, 4, 0, 0.125),
            (1, 4, 7, 0.375),
            (1, 4, 0, 0.125),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn indexer_matches_the_cube_and_flat_layouts() {
        use lbm::cube_grid::CubeDims;
        let dims = Dims::new(8, 12, 4);
        for k in [1, 2, 4] {
            let cdims = CubeDims::new(dims, k);
            let indexer = CubeIndexer::new(dims, [k; 3]);
            for (x, y, z) in dims.iter_coords() {
                assert_eq!(indexer.flat(x, y, z), cdims.flat_of_global(x, y, z));
            }
        }
        let planes = CubeIndexer::planes(dims);
        for (x, y, z) in dims.iter_coords() {
            assert_eq!(planes.flat(x, y, z), dims.idx(x, y, z));
        }
    }

    /// The points of `s`'s blocks, block by block, as `(brick, flat,
    /// weight bits)`.
    fn block_points(s: &CubeStencil) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        s.for_each_block(|brick, block| {
            s.for_each_in(block, |flat, w| out.push((brick, flat, w.to_bits())));
        });
        out
    }

    fn walk_points(s: &CubeStencil) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        s.for_each(|brick, flat, w| out.push((brick, flat, w.to_bits())));
        out
    }

    /// Cube blocks hold every point of the stencil once, each in the cube
    /// the layout puts it in, also where the stencil wraps a periodic face.
    #[test]
    fn cube_blocks_cover_the_stencil_once_in_its_cubes() {
        use lbm::cube_grid::CubeDims;
        let dims = Dims::new(12, 12, 12);
        let bc = BoundaryConfig::periodic();
        for k in [1, 2, 3, 4] {
            let cdims = CubeDims::new(dims, k);
            let indexer = CubeIndexer::new(dims, [k; 3]);
            for pos in [[5.3, 6.6, 7.1], [0.4, 11.7, 6.0], [4.0, 4.0, 4.0]] {
                for kind in KINDS {
                    let s = indexer.stencil(pos, kind, &bc);
                    let mut blocks = block_points(&s);
                    for &(brick, flat, _) in &blocks {
                        let cube = flat / cdims.nodes_per_cube();
                        assert_eq!(brick, cube, "k = {k}, {pos:?}, {kind:?}");
                    }
                    let mut walk = walk_points(&s);
                    blocks.sort_unstable();
                    walk.sort_unstable();
                    assert_eq!(blocks, walk, "k = {k}, {pos:?}, {kind:?}");
                }
            }
        }
    }

    /// On periodic axes shorter than the stencil, where it reaches a node
    /// more than once, every node gets its products from the blocks in
    /// [`CubeStencil::for_each`]'s order, for plane bricks and for cubes.
    #[test]
    fn blocks_keep_each_nodes_products_in_for_each_order() {
        let bc = BoundaryConfig::periodic();
        let per_node = |points: Vec<(usize, usize, u64)>| {
            let mut by_node = std::collections::BTreeMap::new();
            for (_, flat, w) in points {
                by_node.entry(flat).or_insert_with(Vec::new).push(w);
            }
            by_node
        };
        for (nx, ny, nz) in [
            (1, 2, 8),
            (1, 3, 8),
            (2, 1, 8),
            (3, 2, 1),
            (1, 1, 1),
            (2, 3, 2),
        ] {
            let dims = Dims::new(nx, ny, nz);
            let mut layouts = vec![CubeIndexer::planes(dims), CubeIndexer::new(dims, [1; 3])];
            if nx == ny && ny == nz {
                layouts.push(CubeIndexer::new(dims, [nx; 3]));
            }
            for indexer in &layouts {
                for pos in [[0.3, 0.6, 0.2], [0.5, 1.5, 0.75]] {
                    for kind in KINDS {
                        let s = indexer.stencil(pos, kind, &bc);
                        let tag = format!("{dims:?}, {pos:?}, {kind:?}");
                        assert_eq!(
                            per_node(block_points(&s)),
                            per_node(walk_points(&s)),
                            "{tag}"
                        );
                    }
                }
            }
        }
    }

    /// With plane bricks the blocks walk the points in exactly
    /// [`CubeStencil::for_each`]'s order, on x axes shorter than the
    /// stencil too, where it wraps onto a plane more than once.
    #[test]
    fn plane_blocks_walk_in_for_each_order() {
        let bc = BoundaryConfig::periodic();
        for nx in [1, 2, 3, 5, 9] {
            let dims = Dims::new(nx, 6, 7);
            let indexer = CubeIndexer::planes(dims);
            for pos in [
                [0.3, 2.6, 3.1],
                [nx as f64 - 0.2, 5.7, 0.5],
                [1.0, 3.0, 3.0],
            ] {
                for kind in KINDS {
                    let s = indexer.stencil(pos, kind, &bc);
                    assert_eq!(
                        block_points(&s),
                        walk_points(&s),
                        "nx {nx}, {pos:?}, {kind:?}"
                    );
                }
            }
        }
    }

    /// Positions on one axis: a spread of interior values, lattice planes,
    /// values within 1e-12 of a plane on either side, and negative
    /// coordinates a periodic axis wraps.
    fn axis_positions() -> Vec<f64> {
        let mut out = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let plane = (i % 40) as f64 - 8.0;
            out.push(match i % 5 {
                0 => plane,
                1 => plane + 1e-12 * u,
                2 => plane - 1e-12 * u,
                3 => -3.0 * u,
                _ => 40.0 * u - 8.0,
            });
        }
        out
    }

    /// The cosine kernel as it was evaluated term by term.
    fn cosine_term(r: f64) -> f64 {
        if r.abs() < 2.0 {
            0.25 * (1.0 + (std::f64::consts::FRAC_PI_2 * r).cos())
        } else {
            0.0
        }
    }

    #[test]
    fn closed_form_cosine_weights_match_the_term_by_term_kernel() {
        for p in axis_positions() {
            let (j0, w) = cosine_weights(p);
            assert_eq!(j0, p.floor() as i64 - 1, "{p}");
            for (i, &wi) in w.iter().enumerate() {
                let old = cosine_term(p - (j0 + i as i64) as f64);
                assert!(
                    (wi - old).abs() <= f64::EPSILON,
                    "{p}, node {i}: {wi} vs {old}"
                );
            }
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() <= 2.0 * f64::EPSILON, "{p}: sum {sum}");
        }
    }

    /// The stored weights and `eval` come from one routine: `eval(p − j)`
    /// is the stored weight of node `j` bit for bit (`p − j` is exact for
    /// these positions), and a stencil keeps the nodes the term-by-term
    /// candidate rule keeps, on lattice planes too.
    #[test]
    fn cosine_stencil_matches_eval_and_the_old_point_set() {
        let dims = Dims::new(40, 6, 6);
        let bc = BoundaryConfig::periodic();
        let indexer = CubeIndexer::planes(dims);
        for (i, p) in axis_positions().into_iter().enumerate().step_by(7) {
            // A dyadic copy of `p`, so `p − j` is exact.
            let q = (p * 1048576.0).round() / 1048576.0;
            for x in [p, q] {
                let s = indexer.stencil([x, 2.5, 3.0], DeltaKind::Peskin4, &bc);
                let got: Vec<(usize, u64)> = (0..s.len[0])
                    .map(|e| (s.flat[0][e] / 36, s.weight[0][e].to_bits()))
                    .collect();
                let hs = 2.0;
                let old: Vec<usize> = ((x - hs).ceil() as i64..=(x + hs).floor() as i64)
                    .filter(|&j| cosine_term(x - j as f64) != 0.0)
                    .map(|j| j.rem_euclid(40) as usize)
                    .collect();
                let coords: Vec<usize> = got.iter().map(|g| g.0).collect();
                assert_eq!(coords, old, "{x}");
                if x == q {
                    let floor = x.floor() as i64;
                    let want: Vec<u64> = (floor - 1..=floor + 2)
                        .map(|j| DeltaKind::Peskin4.eval(x - j as f64))
                        .filter(|&w| w != 0.0)
                        .map(f64::to_bits)
                        .collect();
                    let weights: Vec<u64> = got.iter().map(|g| g.1).collect();
                    assert_eq!(weights, want, "{x} (sample {i})");
                }
            }
        }
    }

    /// The reference at positions with every mantissa bit in use, around
    /// the periodic wrap and next to walls too: there `p − j` rounds, so
    /// only the closed form of `p` gives the stored bits.
    #[test]
    fn stencil_matches_reference_at_full_precision_positions() {
        let axis = axis_positions();
        for i in (0..axis.len() - 2).step_by(37) {
            let pos = [axis[i], axis[i + 1] * 0.3 + 1.0, axis[i + 2] * 0.35 + 1.0];
            check_stencil_against_reference(pos).unwrap();
        }
    }

    /// Blown-up positions (a diverged run) build stencils and counts
    /// without an arithmetic overflow.
    #[test]
    fn extreme_positions_do_not_overflow() {
        let dims = Dims::new(8, 8, 8);
        for indexer in [CubeIndexer::new(dims, [4; 3]), CubeIndexer::planes(dims)] {
            for bc in [BoundaryConfig::periodic(), BoundaryConfig::tunnel()] {
                for x in [f64::NAN, 1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY] {
                    for kind in KINDS {
                        let s = indexer.stencil([x, 4.5, x], kind, &bc);
                        s.for_each(|_, _, _| ());
                        let _ = s.brick_span();
                        let mut counts = vec![0; 8];
                        indexer.count_points(&[[x, 4.5, x]], kind, &bc, &mut counts);
                    }
                }
            }
        }
    }

    /// The span holds every block's brick and is tight: its ends are
    /// the sums of the axes' smallest and largest brick terms.
    #[test]
    fn brick_span_holds_every_block() {
        let bc = BoundaryConfig::periodic();
        for (dims, k) in [
            (Dims::new(12, 12, 12), 2),
            (Dims::new(8, 4, 12), 4),
            (Dims::new(3, 2, 1), 1),
        ] {
            for indexer in [CubeIndexer::new(dims, [k; 3]), CubeIndexer::planes(dims)] {
                for pos in [
                    [5.3, 6.6, 7.1],
                    [0.4, 11.7, 6.0],
                    [4.0, 4.0, 4.0],
                    [-0.5, 0.2, 0.9],
                ] {
                    for kind in KINDS {
                        let s = indexer.stencil(pos, kind, &bc);
                        let span = s.brick_span();
                        let mut bricks = Vec::new();
                        s.for_each_block(|brick, _| bricks.push(brick));
                        let tag = format!("{dims:?}, k {k}, {pos:?}, {kind:?}");
                        assert!(bricks.iter().all(|b| span.contains(b)), "{tag}");
                        let sum = |pick: fn(&[usize]) -> usize| -> usize {
                            (0..3).map(|a| pick(&s.brick[a][..s.len[a]])).sum()
                        };
                        let lo = sum(|t| t.iter().copied().min().unwrap());
                        let hi = sum(|t| t.iter().copied().max().unwrap());
                        assert_eq!(span, lo..hi + 1, "{tag}");
                    }
                }
            }
        }
        assert!(CubeStencil::default().brick_span().is_empty());
    }

    /// `count_points` counts each stencil's points in their bricks; off
    /// the lattice planes exactly, on them it adds only the zero-weight
    /// end points.
    #[test]
    fn count_points_matches_the_built_stencils() {
        let dims = Dims::new(12, 8, 8);
        for bc in [BoundaryConfig::periodic(), BoundaryConfig::tunnel()] {
            for indexer in [CubeIndexer::new(dims, [4; 3]), CubeIndexer::planes(dims)] {
                let n_bricks = indexer.brick_part[0][11]
                    + indexer.brick_part[1][7]
                    + indexer.brick_part[2][7]
                    + 1;
                for kind in KINDS {
                    let interior = [[5.3, 3.6, 4.1], [0.4, 6.7, 3.2], [11.2, 1.6, 2.9]];
                    let planes = [[5.0, 3.0, 4.0], [0.0, 6.0, 2.0]];
                    for (pos, exact) in [(&interior[..], true), (&planes[..], false)] {
                        let mut counts = vec![7; n_bricks];
                        indexer.count_points(pos, kind, &bc, &mut counts);
                        let mut want = vec![0; n_bricks];
                        for &p in pos {
                            indexer
                                .stencil(p, kind, &bc)
                                .for_each(|b, _, _| want[b] += 1);
                        }
                        let tag = format!("{kind:?}, {pos:?}, {bc:?}");
                        if exact {
                            assert_eq!(counts, want, "{tag}");
                        } else {
                            assert!(counts.iter().zip(&want).all(|(c, w)| c >= w), "{tag}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// `build_reaching` builds a stencil exactly as `build` does, or
        /// leaves it empty only where none of its points lies on `xs`: an
        /// owner of `xs` sees the same points either way.
        #[test]
        fn build_reaching_keeps_every_point_on_its_planes(
            nx in 1usize..10,
            lo in 0usize..10,
            len in 0usize..10,
            px in -1.0f64..11.0,
            periodic_x in 0u8..2,
        ) {
            let dims = Dims::new(nx, 6, 7);
            let xs = lo.min(nx)..(lo + len).min(nx);
            let mut bc = BoundaryConfig::periodic();
            if periodic_x == 0 {
                bc.x = AxisBoundary::Walls { lo: [0.0; 3], hi: [0.0; 3] };
            }
            let indexer = CubeIndexer::planes(dims);
            let pos: Vec<[f64; 3]> = [px, px.floor(), px + 0.5, nx as f64 - px]
                .into_iter()
                .map(|x| [x, 2.6, 3.1])
                .collect();
            for kind in KINDS {
                let mut all = vec![CubeStencil::default(); pos.len()];
                let mut reaching = vec![indexer.stencil([0.5; 3], kind, &bc); pos.len()];
                indexer.build(&pos, kind, &bc, &mut all);
                indexer.build_reaching(&pos, kind, &bc, xs.clone(), &mut reaching);
                for (a, r) in all.iter().zip(&reaching) {
                    let (a, r) = (walk_points(a), walk_points(r));
                    if r.is_empty() {
                        prop_assert!(a.iter().all(|&(x, ..)| !xs.contains(&x)), "{kind:?}");
                    } else {
                        prop_assert_eq!(r, a);
                    }
                }
            }
        }

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
                let total: f64 = influences([px, py, pz], kind, dims, &bc)
                    .iter()
                    .map(|n| n.3)
                    .sum();
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
