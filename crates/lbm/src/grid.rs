//! Flat storage for the Eulerian fluid grid.
//!
//! This is the layout used by the sequential and OpenMP-style solvers in the
//! paper: one contiguous allocation per field over the whole
//! `Nx × Ny × Nz` grid, with the 19 distribution values of a node stored
//! next to each other (node-major interleaving) so the collision kernel —
//! 73% of the sequential run time in Table I — touches one small contiguous
//! span per node. The velocity, the shift velocity and the force are one
//! `[f64; 3]` per node, as in the cube-blocked grid: the flat grid is that
//! layout's case of one brick per x-plane, for every field.

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

/// Fluid state over a [`Dims`] grid: one contiguous array per field, each
/// holding one entry per node in node order.
///
/// `f` is the *present* distribution buffer and `f_new` the buffer streamed
/// into; kernel 9 of the paper (`copy_fluid_velocity_distribution`) copies
/// `f_new` back into `f` at the end of every step. Both buffers interleave
/// the 19 directions per node: entry `node * Q + dir`. The velocity, the
/// shift velocity and the force are one `[x, y, z]` triple per node, as in
/// [`crate::cube_grid::CubeFluidGrid`], so a stencil point's three
/// components share a cache line.
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
    /// Macroscopic velocity per node.
    pub u: Vec<[f64; 3]>,
    /// Equilibrium-shift velocity (`u + τF/ρ`) used by the coupled solvers'
    /// velocity-shift forcing, where the collision kernel must not read the
    /// force directly (that is what makes the paper's three-barrier
    /// Algorithm 4 race-free).
    pub ueq: Vec<[f64; 3]>,
    /// External/elastic body force per node (what the fibers spread into).
    pub force: Vec<[f64; 3]>,
}

impl Clone for FluidGrid {
    fn clone(&self) -> Self {
        let mut out = Self::empty();
        out.clone_from(self);
        out
    }

    /// Copies every field in declaration order.
    fn clone_from(&mut self, src: &Self) {
        self.dims = src.dims;
        self.f.clone_from(&src.f);
        self.f_new.clone_from(&src.f_new);
        self.rho.clone_from(&src.rho);
        self.u.clone_from(&src.u);
        self.ueq.clone_from(&src.ueq);
        self.force.clone_from(&src.force);
    }
}

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
    pub u: &'a mut [[f64; 3]],
    pub ueq: &'a mut [[f64; 3]],
    pub force: &'a mut [[f64; 3]],
}

/// Splits the next `take` entries after `skip` off the front of `rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], skip: usize, take: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(skip + take);
    *rest = tail;
    &mut head[skip..]
}

impl FluidGrid {
    /// Allocates a grid with all distributions zero and unit density.
    pub fn new(dims: Dims) -> Self {
        let n = dims.n();
        Self {
            dims,
            f: vec![0.0; n * Q],
            f_new: vec![0.0; n * Q],
            rho: vec![1.0; n],
            u: vec![[0.0; 3]; n],
            ueq: vec![[0.0; 3]; n],
            force: vec![[0.0; 3]; n],
        }
    }

    /// A grid with no nodes: all extents zero and every field empty. It
    /// holds no allocation until something is gathered or cloned into it.
    pub fn empty() -> Self {
        Self::new(Dims {
            nx: 0,
            ny: 0,
            nz: 0,
        })
    }

    /// One [`Slab`] per x-plane range of `planes`, which must be ascending,
    /// non-overlapping and within the grid; empty ranges give empty slabs.
    /// The slabs borrow disjoint parts of every field, so they can be
    /// handed to different threads.
    pub fn slabs_mut(&mut self, planes: &[Range<usize>]) -> Vec<Slab<'_>> {
        let (nx, plane) = (self.dims.nx, self.dims.ny * self.dims.nz);
        let Self {
            f,
            f_new,
            rho,
            u,
            ueq,
            force,
            ..
        } = self;
        let (mut f, mut f_new, mut rho) = (&mut f[..], &mut f_new[..], &mut rho[..]);
        let (mut u, mut ueq, mut force) = (&mut u[..], &mut ueq[..], &mut force[..]);
        let mut consumed = 0;
        planes
            .iter()
            .map(|xs| {
                assert!(
                    consumed <= xs.start && xs.start <= xs.end && xs.end <= nx,
                    "plane ranges must ascend within 0..{nx}: {planes:?}"
                );
                let (skip, take) = ((xs.start - consumed) * plane, xs.len() * plane);
                consumed = xs.end;
                Slab {
                    nodes: xs.start * plane..xs.end * plane,
                    f: split_front(&mut f, skip * Q, take * Q),
                    f_new: split_front(&mut f_new, skip * Q, take * Q),
                    rho: split_front(&mut rho, skip, take),
                    u: split_front(&mut u, skip, take),
                    ueq: split_front(&mut ueq, skip, take),
                    force: split_front(&mut force, skip, take),
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
        let nodes = xs.start * plane..xs.end * plane;
        let pops = nodes.start * Q..nodes.end * Q;
        Self {
            dims: Dims::new(xs.len(), self.dims.ny, self.dims.nz),
            f: self.f[pops.clone()].to_vec(),
            f_new: self.f_new[pops].to_vec(),
            rho: self.rho[nodes.clone()].to_vec(),
            u: self.u[nodes.clone()].to_vec(),
            ueq: self.ueq[nodes.clone()].to_vec(),
            force: self.force[nodes].to_vec(),
        }
    }

    /// Refills this grid with `parts` stacked along x in order, reusing its
    /// buffers, and settles it: `f_new` is filled from the parts' `f`, the
    /// state a kernel-9 copy leaves, so a part's stale `f_new` (a swapped
    /// buffer) is never read. Every field is written once, in declaration
    /// order. Over ranges that tile the grid this is the inverse of
    /// [`FluidGrid::planes`] for a grid whose `f_new` equals `f`. Every
    /// part must have the same `ny` and `nz`.
    pub fn concat_planes(&mut self, parts: &[FluidGrid]) {
        fn stack<T: Copy>(dst: &mut Vec<T>, parts: &[FluidGrid], field: fn(&FluidGrid) -> &[T]) {
            dst.clear();
            for p in parts {
                dst.extend_from_slice(field(p));
            }
        }
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
        stack(&mut self.f, parts, |p| &p.f);
        stack(&mut self.f_new, parts, |p| &p.f);
        stack(&mut self.rho, parts, |p| &p.rho);
        stack(&mut self.u, parts, |p| &p.u);
        stack(&mut self.ueq, parts, |p| &p.ueq);
        stack(&mut self.force, parts, |p| &p.force);
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

    /// Clears the per-node body force. Run before each spreading pass.
    pub fn clear_force(&mut self) {
        self.force.fill([0.0; 3]);
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
        g.force.fill([1.0, 2.0, 3.0]);
        g.clear_force();
        assert!(g.force.iter().all(|&v| v == [0.0; 3]));
    }

    /// A 5×2×3 grid whose every entry is distinct: entry `i` of the `k`-th
    /// field (declaration order, triples flattened) holds `1000 k + i`.
    fn numbered_grid() -> FluidGrid {
        let mut g = FluidGrid::new(Dims::new(5, 2, 3));
        let (u, ueq, force) = (&mut g.u, &mut g.ueq, &mut g.force);
        let fields = [&mut g.f, &mut g.f_new, &mut g.rho]
            .map(|v| &mut v[..])
            .into_iter()
            .chain([u, ueq, force].map(|v| v.as_flattened_mut()));
        for (k, v) in fields.enumerate() {
            for (i, x) in v.iter_mut().enumerate() {
                *x = (1000 * k + i) as f64;
            }
        }
        g
    }

    /// Every field's entries as bits, triples flattened.
    fn bits(g: &FluidGrid) -> [Vec<u64>; 6] {
        let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        [
            b(&g.f),
            b(&g.f_new),
            b(&g.rho),
            b(g.u.as_flattened()),
            b(g.ueq.as_flattened()),
            b(g.force.as_flattened()),
        ]
    }

    #[test]
    fn clone_copies_every_field() {
        let g = numbered_grid();
        let mut into = FluidGrid::new(Dims::new(1, 1, 1));
        into.clone_from(&g);
        assert_eq!(into.dims, g.dims);
        assert_eq!(bits(&into), bits(&g));
        assert_eq!(bits(&g.clone()), bits(&g));
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
            assert_eq!(s.u, &want.u[n.clone()]);
            assert_eq!(s.ueq, &want.ueq[n.clone()]);
            assert_eq!(s.force, &want.force[n]);
        }
        // Writes through a slab land in its planes only.
        for s in g.slabs_mut(&ranges) {
            s.u.fill([-2.0; 3]);
        }
        let written = |i: usize| ranges.iter().any(|xs| xs.contains(&(i / plane)));
        for (i, &u) in g.u.iter().enumerate() {
            assert_eq!(u == [-2.0; 3], written(i), "node {i}");
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
        assert_eq!(parts[1].force, g.force[12..18]);
        let mut back = FluidGrid::new(Dims::new(1, 1, 1));
        back.concat_planes(&parts);
        assert_eq!(back.dims, g.dims);
        assert_eq!(back.f_new, g.f, "settled: f_new is a copy of f");
        let (got, want) = (bits(&back), bits(&g));
        assert_eq!((&got[0], &got[2..]), (&want[0], &want[2..]));
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
