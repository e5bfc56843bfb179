//! Flat structure-of-arrays storage for the Eulerian fluid grid.
//!
//! This is the layout used by the sequential and OpenMP-style solvers in the
//! paper: one contiguous allocation per field over the whole
//! `Nx × Ny × Nz` grid, with the 19 distribution values of a node stored
//! next to each other (node-major interleaving) so the collision kernel —
//! 73% of the sequential run time in Table I — touches one small contiguous
//! span per node.

use std::ops::Range;

use crate::lattice::Q;

/// Dimensions of a 3D fluid grid and its index algebra.
///
/// A coordinate `(x, y, z)` maps to the flat node index
/// `(x * ny + y) * nz + z`, i.e. z is the fastest-varying axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Dims {
    /// Creates grid dimensions. Panics if any extent is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid extents must be positive: {nx}x{ny}x{nz}"
        );
        Self { nx, ny, nz }
    }

    /// Total number of fluid nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat index of node `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (x * self.ny + y) * self.nz + z
    }

    /// Inverse of [`Dims::idx`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.n());
        let z = idx % self.nz;
        let y = (idx / self.nz) % self.ny;
        let x = idx / (self.nz * self.ny);
        (x, y, z)
    }

    /// Adds an integer offset to a coordinate with periodic wrap-around.
    #[inline]
    pub fn wrap(
        &self,
        x: usize,
        y: usize,
        z: usize,
        dx: i32,
        dy: i32,
        dz: i32,
    ) -> (usize, usize, usize) {
        (
            wrap_axis(x, dx, self.nx),
            wrap_axis(y, dy, self.ny),
            wrap_axis(z, dz, self.nz),
        )
    }

    /// Iterates all coordinates in index order (x outermost, z innermost).
    pub fn iter_coords(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..nx).flat_map(move |x| (0..ny).flat_map(move |y| (0..nz).map(move |z| (x, y, z))))
    }
}

/// Adds a signed offset to `v` modulo `n`, assuming `|d| <= n`.
#[inline]
pub fn wrap_axis(v: usize, d: i32, n: usize) -> usize {
    debug_assert!(d.unsigned_abs() as usize <= n);
    let s = v as i64 + d as i64;
    let n = n as i64;
    (((s % n) + n) % n) as usize
}

/// Structure-of-arrays fluid state over a [`Dims`] grid.
///
/// `f` is the *present* distribution buffer and `f_new` the buffer streamed
/// into; kernel 9 of the paper (`copy_fluid_velocity_distribution`) copies
/// `f_new` back into `f` at the end of every step. Both buffers interleave
/// the 19 directions per node: entry `node * Q + dir`.
///
/// `clone_from` copies field by field into the existing buffers, so a
/// grid that is refilled every chunk keeps its allocations.
#[derive(Debug)]
pub struct FluidGrid {
    pub dims: Dims,
    /// Present distribution functions, `n * Q` entries, node-major.
    pub f: Vec<f64>,
    /// New (post-streaming) distribution functions, same layout.
    pub f_new: Vec<f64>,
    /// Macroscopic density per node.
    pub rho: Vec<f64>,
    /// Macroscopic velocity components per node.
    pub ux: Vec<f64>,
    pub uy: Vec<f64>,
    pub uz: Vec<f64>,
    /// Equilibrium-shift velocity (`u + τF/ρ`) used by the coupled solvers'
    /// velocity-shift forcing, where the collision kernel must not read the
    /// force directly (that is what makes the paper's three-barrier
    /// Algorithm 4 race-free).
    pub ueqx: Vec<f64>,
    pub ueqy: Vec<f64>,
    pub ueqz: Vec<f64>,
    /// External/elastic body force per node (what the fibers spread into).
    pub fx: Vec<f64>,
    pub fy: Vec<f64>,
    pub fz: Vec<f64>,
}

impl Clone for FluidGrid {
    fn clone(&self) -> Self {
        let mut out = Self::empty();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        self.dims = src.dims;
        for (dst, src) in self.fields_mut().into_iter().zip(src.fields()) {
            dst.clone_from(src);
        }
    }
}

/// Number of per-node fields of a [`FluidGrid`].
pub const FIELDS: usize = 12;

/// Entries per node of each field, in [`FluidGrid::fields`] order: `Q`
/// for the two distribution buffers, one for every moment and force.
pub const FIELD_WIDTHS: [usize; FIELDS] = [Q, Q, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];

/// A mutable view of every per-node field over a contiguous range of
/// x-planes of a [`FluidGrid`] (see [`FluidGrid::slabs_mut`]). The fields
/// are indexed from the slab's first node: local node `i` is grid node
/// `nodes.start + i`, and its populations are `f[i * Q..i * Q + Q]`.
pub struct Slab<'a> {
    /// The slab's nodes as indices into the whole grid.
    pub nodes: Range<usize>,
    pub f: &'a mut [f64],
    pub f_new: &'a mut [f64],
    pub rho: &'a mut [f64],
    pub ux: &'a mut [f64],
    pub uy: &'a mut [f64],
    pub uz: &'a mut [f64],
    pub ueqx: &'a mut [f64],
    pub ueqy: &'a mut [f64],
    pub ueqz: &'a mut [f64],
    pub fx: &'a mut [f64],
    pub fy: &'a mut [f64],
    pub fz: &'a mut [f64],
}

impl FluidGrid {
    /// Allocates a grid with all distributions zero and unit density.
    pub fn new(dims: Dims) -> Self {
        let n = dims.n();
        let mut grid = Self::from_fields(dims, FIELD_WIDTHS.map(|w| vec![0.0; n * w]));
        grid.rho.fill(1.0);
        grid
    }

    /// A grid with no nodes: all extents zero and every field empty. It
    /// holds no allocation until something is gathered or cloned into it.
    pub fn empty() -> Self {
        let dims = Dims {
            nx: 0,
            ny: 0,
            nz: 0,
        };
        Self::from_fields(dims, Default::default())
    }

    /// Assembles a grid from its fields in [`FluidGrid::fields`] order.
    fn from_fields(dims: Dims, fields: [Vec<f64>; FIELDS]) -> Self {
        let [f, f_new, rho, ux, uy, uz, ueqx, ueqy, ueqz, fx, fy, fz] = fields;
        Self {
            dims,
            f,
            f_new,
            rho,
            ux,
            uy,
            uz,
            ueqx,
            ueqy,
            ueqz,
            fx,
            fy,
            fz,
        }
    }

    /// Every per-node field, in the one order all whole-grid copies use
    /// (clone, checkpoint, plane slicing): `f`, `f_new`, `rho`, `ux..uz`,
    /// `ueqx..ueqz`, `fx..fz`. [`FIELD_WIDTHS`] gives each one's entries
    /// per node.
    pub fn fields(&self) -> [&Vec<f64>; FIELDS] {
        [
            &self.f,
            &self.f_new,
            &self.rho,
            &self.ux,
            &self.uy,
            &self.uz,
            &self.ueqx,
            &self.ueqy,
            &self.ueqz,
            &self.fx,
            &self.fy,
            &self.fz,
        ]
    }

    /// Mutable [`FluidGrid::fields`], in the same order.
    pub fn fields_mut(&mut self) -> [&mut Vec<f64>; FIELDS] {
        [
            &mut self.f,
            &mut self.f_new,
            &mut self.rho,
            &mut self.ux,
            &mut self.uy,
            &mut self.uz,
            &mut self.ueqx,
            &mut self.ueqy,
            &mut self.ueqz,
            &mut self.fx,
            &mut self.fy,
            &mut self.fz,
        ]
    }

    /// One [`Slab`] per x-plane range of `planes`, which must be ascending,
    /// non-overlapping and within the grid; empty ranges give empty slabs.
    /// The slabs borrow disjoint parts of every field, so they can be
    /// handed to different threads.
    pub fn slabs_mut(&mut self, planes: &[Range<usize>]) -> Vec<Slab<'_>> {
        let (nx, plane) = (self.dims.nx, self.dims.ny * self.dims.nz);
        let mut rest = self.fields_mut().map(|v| v.as_mut_slice());
        let mut consumed = 0;
        planes
            .iter()
            .map(|xs| {
                assert!(
                    consumed <= xs.start && xs.start <= xs.end && xs.end <= nx,
                    "plane ranges must ascend within 0..{nx}: {planes:?}"
                );
                let parts: [&mut [f64]; FIELDS] = std::array::from_fn(|k| {
                    let per_plane = plane * FIELD_WIDTHS[k];
                    let (head, tail) =
                        std::mem::take(&mut rest[k]).split_at_mut((xs.end - consumed) * per_plane);
                    rest[k] = tail;
                    &mut head[(xs.start - consumed) * per_plane..]
                });
                consumed = xs.end;
                let [f, f_new, rho, ux, uy, uz, ueqx, ueqy, ueqz, fx, fy, fz] = parts;
                Slab {
                    nodes: xs.start * plane..xs.end * plane,
                    f,
                    f_new,
                    rho,
                    ux,
                    uy,
                    uz,
                    ueqx,
                    ueqy,
                    ueqz,
                    fx,
                    fy,
                    fz,
                }
            })
            .collect()
    }

    /// The whole grid as one [`Slab`].
    pub fn slab_mut(&mut self) -> Slab<'_> {
        let all = 0..self.dims.nx;
        self.slabs_mut(std::slice::from_ref(&all)).swap_remove(0)
    }

    /// A new grid holding copies of the x-planes `xs` of every field.
    pub fn planes(&self, xs: Range<usize>) -> Self {
        let plane = self.dims.ny * self.dims.nz;
        let dims = Dims::new(xs.len(), self.dims.ny, self.dims.nz);
        let fields = self.fields();
        Self::from_fields(
            dims,
            std::array::from_fn(|k| {
                let per_plane = plane * FIELD_WIDTHS[k];
                fields[k][xs.start * per_plane..xs.end * per_plane].to_vec()
            }),
        )
    }

    /// Refills this grid with `parts` stacked along x in order, reusing its
    /// buffers, and settles it: `f_new` is filled from the parts' `f`, the
    /// state a kernel-9 copy leaves, so a part's stale `f_new` (a swapped
    /// buffer) is never read. Every field is written once, in
    /// [`FluidGrid::fields`] order. Over ranges that tile the grid this is
    /// the inverse of [`FluidGrid::planes`] for a grid whose `f_new` equals
    /// `f`. Every part must have the same `ny` and `nz`.
    pub fn concat_planes(&mut self, parts: &[FluidGrid]) {
        let (ny, nz) = parts.first().map_or((0, 0), |p| (p.dims.ny, p.dims.nz));
        assert!(
            parts.iter().all(|p| (p.dims.ny, p.dims.nz) == (ny, nz)),
            "parts must share ny and nz"
        );
        self.dims = Dims {
            nx: parts.iter().map(|p| p.dims.nx).sum(),
            ny,
            nz,
        };
        for (k, dst) in self.fields_mut().into_iter().enumerate() {
            // Field 1 is `f_new`; it takes field 0, `f`.
            let src = if k == 1 { 0 } else { k };
            dst.clear();
            for p in parts {
                dst.extend_from_slice(p.fields()[src]);
            }
        }
    }

    /// Number of fluid nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.dims.n()
    }

    /// Present distributions of one node as a slice of length `Q`.
    #[inline]
    pub fn node_f(&self, node: usize) -> &[f64] {
        &self.f[node * Q..node * Q + Q]
    }

    /// Mutable present distributions of one node.
    #[inline]
    pub fn node_f_mut(&mut self, node: usize) -> &mut [f64] {
        &mut self.f[node * Q..node * Q + Q]
    }

    /// New-buffer distributions of one node.
    #[inline]
    pub fn node_f_new(&self, node: usize) -> &[f64] {
        &self.f_new[node * Q..node * Q + Q]
    }

    /// Velocity vector at a node.
    #[inline]
    pub fn velocity(&self, node: usize) -> [f64; 3] {
        [self.ux[node], self.uy[node], self.uz[node]]
    }

    /// Body-force vector at a node.
    #[inline]
    pub fn force(&self, node: usize) -> [f64; 3] {
        [self.fx[node], self.fy[node], self.fz[node]]
    }

    /// Clears the per-node body force. Run before each spreading pass.
    pub fn clear_force(&mut self) {
        self.fx.fill(0.0);
        self.fy.fill(0.0);
        self.fz.fill(0.0);
    }

    /// Kernel 9 of the paper: copy the new-distribution buffer into the
    /// present buffer so `f_new` can be reused next step.
    pub fn copy_distributions(&mut self) {
        self.f.copy_from_slice(&self.f_new);
    }

    /// The obvious optimisation of kernel 9: swap the buffers instead of
    /// copying. Offered separately because Table I charges 5.9% of run time
    /// to the literal copy and the reproduction harness keeps it.
    pub fn swap_distributions(&mut self) {
        std::mem::swap(&mut self.f, &mut self.f_new);
    }

    /// Total fluid mass, `Σ_nodes Σ_i f_i`.
    pub fn total_mass(&self) -> f64 {
        self.f.iter().sum()
    }

    /// Total fluid momentum from the present distributions (no force
    /// correction), one component per axis.
    pub fn total_momentum(&self) -> [f64; 3] {
        use crate::lattice::EF;
        let mut p = [0.0; 3];
        for node in 0..self.n() {
            let fs = self.node_f(node);
            for (i, &fi) in fs.iter().enumerate() {
                p[0] += fi * EF[i][0];
                p[1] += fi * EF[i][1];
                p[2] += fi * EF[i][2];
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_is_bijective_on_coords() {
        let d = Dims::new(3, 4, 5);
        let mut seen = vec![false; d.n()];
        for (x, y, z) in d.iter_coords() {
            let i = d.idx(x, y, z);
            assert!(!seen[i], "index {i} hit twice");
            seen[i] = true;
            assert_eq!(d.coords(i), (x, y, z));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn z_is_fastest_axis() {
        let d = Dims::new(4, 4, 4);
        assert_eq!(d.idx(0, 0, 1) - d.idx(0, 0, 0), 1);
        assert_eq!(d.idx(0, 1, 0) - d.idx(0, 0, 0), 4);
        assert_eq!(d.idx(1, 0, 0) - d.idx(0, 0, 0), 16);
    }

    #[test]
    fn wrap_axis_behaves_periodically() {
        assert_eq!(wrap_axis(0, -1, 8), 7);
        assert_eq!(wrap_axis(7, 1, 8), 0);
        assert_eq!(wrap_axis(3, 0, 8), 3);
        assert_eq!(wrap_axis(0, -8, 8), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        Dims::new(0, 4, 4);
    }

    #[test]
    fn grid_allocation_sizes() {
        let g = FluidGrid::new(Dims::new(2, 3, 4));
        assert_eq!(g.n(), 24);
        assert_eq!(g.f.len(), 24 * Q);
        assert_eq!(g.f_new.len(), 24 * Q);
        assert_eq!(g.rho.len(), 24);
        assert!(g.rho.iter().all(|&r| r == 1.0));
    }

    #[test]
    fn copy_and_swap_distributions() {
        let mut g = FluidGrid::new(Dims::new(2, 2, 2));
        for (i, v) in g.f_new.iter_mut().enumerate() {
            *v = i as f64;
        }
        let want = g.f_new.clone();
        g.copy_distributions();
        assert_eq!(g.f, want);
        // Swap moves the buffers without copying.
        g.f_new.fill(-1.0);
        g.swap_distributions();
        assert!(g.f.iter().all(|&v| v == -1.0));
        assert_eq!(g.f_new, want);
    }

    #[test]
    fn clear_force_zeroes_all_components() {
        let mut g = FluidGrid::new(Dims::new(2, 2, 2));
        g.fx.fill(1.0);
        g.fy.fill(2.0);
        g.fz.fill(3.0);
        g.clear_force();
        assert!(g.fx.iter().chain(&g.fy).chain(&g.fz).all(|&v| v == 0.0));
    }

    /// A 5×2×3 grid whose every entry is distinct: field `k`'s entry `i`
    /// holds `1000 k + i`.
    fn numbered_grid() -> FluidGrid {
        let mut g = FluidGrid::new(Dims::new(5, 2, 3));
        for (k, v) in g.fields_mut().into_iter().enumerate() {
            for (i, x) in v.iter_mut().enumerate() {
                *x = (1000 * k + i) as f64;
            }
        }
        g
    }

    #[test]
    fn fields_follow_the_declared_order_and_widths() {
        let mut g = numbered_grid();
        assert_eq!(g.fields()[0], &g.f);
        assert_eq!(g.fields()[1], &g.f_new);
        assert_eq!(g.fields()[2], &g.rho);
        assert_eq!(g.fields()[8], &g.ueqz);
        assert_eq!(g.fields()[11], &g.fz);
        for (v, w) in g.fields().into_iter().zip(FIELD_WIDTHS) {
            assert_eq!(v.len(), g.n() * w);
        }
        g.fields_mut()[4][7] = -1.0;
        assert_eq!(g.uy[7], -1.0);
    }

    #[test]
    fn slabs_view_their_planes_of_every_field() {
        let mut g = numbered_grid();
        let want = g.clone();
        let plane = 6;
        let ranges = [0..2, 2..2, 2..3, 4..5];
        let slabs = g.slabs_mut(&ranges);
        assert_eq!(slabs.len(), ranges.len());
        for (s, xs) in slabs.iter().zip(&ranges) {
            assert_eq!(s.nodes, xs.start * plane..xs.end * plane);
            let n = s.nodes.clone();
            assert_eq!(s.f, &want.f[n.start * Q..n.end * Q]);
            assert_eq!(s.f_new, &want.f_new[n.start * Q..n.end * Q]);
            assert_eq!(s.rho, &want.rho[n.clone()]);
            assert_eq!(s.ueqy, &want.ueqy[n.clone()]);
            assert_eq!(s.fz, &want.fz[n]);
        }
        // Writes through a slab land in its planes only.
        for s in g.slabs_mut(&ranges) {
            s.ux.fill(-2.0);
        }
        let written = |i: usize| ranges.iter().any(|xs| xs.contains(&(i / plane)));
        for (i, &u) in g.ux.iter().enumerate() {
            assert_eq!(u == -2.0, written(i), "node {i}");
        }
        let whole = g.slab_mut();
        assert_eq!(whole.nodes, 0..30);
        assert_eq!(whole.f.len(), 30 * Q);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn overlapping_slabs_rejected() {
        numbered_grid().slabs_mut(&[0..3, 2..4]);
    }

    #[test]
    fn planes_and_concat_round_trip() {
        let g = numbered_grid();
        let parts = [g.planes(0..2), g.planes(2..3), g.planes(3..5)];
        assert_eq!(parts[1].dims, Dims::new(1, 2, 3));
        assert_eq!(parts[1].rho, g.rho[12..18]);
        let mut back = FluidGrid::new(Dims::new(1, 1, 1));
        back.concat_planes(&parts);
        assert_eq!(back.dims, g.dims);
        assert_eq!(back.f_new, g.f, "settled: f_new is a copy of f");
        let (got, want) = (back.fields(), g.fields());
        assert_eq!((got[0], &got[2..]), (want[0], &want[2..]));
    }

    #[test]
    fn total_mass_and_momentum_of_rest_populations() {
        use crate::lattice::W;
        let mut g = FluidGrid::new(Dims::new(3, 3, 3));
        for node in 0..g.n() {
            g.node_f_mut(node).copy_from_slice(&W);
        }
        assert!((g.total_mass() - 27.0).abs() < 1e-12);
        let p = g.total_momentum();
        for c in p {
            assert!(c.abs() < 1e-12);
        }
    }
}
