//! The cube-blocked fluid layout of Section V: the `Nx × Ny × Nz` grid is
//! divided into `(Nx/k) × (Ny/k) × (Nz/k)` cubes of `k³` nodes each, and
//! every cube is stored in one contiguous memory block. This is the layout
//! the cube-centric solver owns and the working-set argument of the paper
//! rests on. It holds the flat grid's six fields in the same per-node form
//! (populations, ρ, and u, u_eq and the force as triples); the two differ
//! only in node order.

use crate::grid::{Dims, FluidGrid};
use crate::lattice::Q;
use crate::macroscopic::node_moments_shifted;

/// Geometry of a cube-blocked grid: global dimensions plus the cube edge `k`.
///
/// All extents must be divisible by `k` (the paper makes the same
/// assumption); [`CubeDims::new`] enforces it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CubeDims {
    pub dims: Dims,
    /// Cube edge length in nodes.
    pub k: usize,
    /// Number of cubes along each axis.
    pub cx: usize,
    pub cy: usize,
    pub cz: usize,
}

impl CubeDims {
    /// Creates a cube decomposition. Panics unless `k` divides every extent.
    pub fn new(dims: Dims, k: usize) -> Self {
        assert!(k > 0, "cube edge must be positive");
        assert!(
            dims.nx % k == 0 && dims.ny % k == 0 && dims.nz % k == 0,
            "cube edge {k} must divide grid {}x{}x{}",
            dims.nx,
            dims.ny,
            dims.nz
        );
        Self {
            dims,
            k,
            cx: dims.nx / k,
            cy: dims.ny / k,
            cz: dims.nz / k,
        }
    }

    /// Total number of cubes.
    #[inline]
    pub fn num_cubes(&self) -> usize {
        self.cx * self.cy * self.cz
    }

    /// Nodes per cube (`k³`).
    #[inline]
    pub fn nodes_per_cube(&self) -> usize {
        self.k * self.k * self.k
    }

    /// Flat cube index of cube coordinates `(ci, cj, ck)`.
    #[inline]
    pub fn cube_idx(&self, ci: usize, cj: usize, ck: usize) -> usize {
        debug_assert!(ci < self.cx && cj < self.cy && ck < self.cz);
        (ci * self.cy + cj) * self.cz + ck
    }

    /// Inverse of [`CubeDims::cube_idx`].
    #[inline]
    pub fn cube_coords(&self, c: usize) -> (usize, usize, usize) {
        let ck = c % self.cz;
        let cj = (c / self.cz) % self.cy;
        let ci = c / (self.cz * self.cy);
        (ci, cj, ck)
    }

    /// Local node index within a cube for local coordinates `(lx, ly, lz)`.
    #[inline]
    pub fn local_idx(&self, lx: usize, ly: usize, lz: usize) -> usize {
        debug_assert!(lx < self.k && ly < self.k && lz < self.k);
        (lx * self.k + ly) * self.k + lz
    }

    /// Splits a global coordinate into (cube index, local node index).
    #[inline]
    pub fn split(&self, x: usize, y: usize, z: usize) -> (usize, usize) {
        let (ci, lx) = (x / self.k, x % self.k);
        let (cj, ly) = (y / self.k, y % self.k);
        let (ck, lz) = (z / self.k, z % self.k);
        (self.cube_idx(ci, cj, ck), self.local_idx(lx, ly, lz))
    }

    /// Global coordinates of (cube index, local node index).
    #[inline]
    pub fn join(&self, cube: usize, local: usize) -> (usize, usize, usize) {
        let (ci, cj, ck) = self.cube_coords(cube);
        let lz = local % self.k;
        let ly = (local / self.k) % self.k;
        let lx = local / (self.k * self.k);
        (ci * self.k + lx, cj * self.k + ly, ck * self.k + lz)
    }

    /// Flat scalar-field index of (cube, local): cube-major storage.
    #[inline]
    pub fn flat(&self, cube: usize, local: usize) -> usize {
        cube * self.nodes_per_cube() + local
    }

    /// Flat scalar-field index of a global coordinate.
    #[inline]
    pub fn flat_of_global(&self, x: usize, y: usize, z: usize) -> usize {
        let (c, l) = self.split(x, y, z);
        self.flat(c, l)
    }

    /// Calls `visit(node, flat)` with the start of every run of `k` nodes
    /// along z, in node-major order ([`Dims::idx`]) and cube-blocked order
    /// ([`CubeDims::flat`]). Both layouts put z fastest, so each run is
    /// contiguous in both; along a row of fixed `(x, y)` the cube index
    /// grows by one per run.
    fn for_each_z_run(&self, mut visit: impl FnMut(usize, usize)) {
        let (d, k, npc) = (self.dims, self.k, self.nodes_per_cube());
        for x in 0..d.nx {
            for y in 0..d.ny {
                let (node, flat) = (d.idx(x, y, 0), self.flat_of_global(x, y, 0));
                for ck in 0..self.cz {
                    visit(node + ck * k, flat + ck * npc);
                }
            }
        }
    }
}

/// Fluid state stored cube-blocked. Fields and their per-node form match
/// [`FluidGrid`]'s; only the node order differs: node entry
/// `flat(cube, local)`, distribution entry `flat(cube, local) * Q + dir`.
/// All nodes of a cube — and all 19 directions of all its nodes — are
/// contiguous. A flat grid is the case of one brick per x-plane, so
/// [`CubeFluidGrid::from_flat`] and the gathers only reorder z-runs.
#[derive(Clone, Debug)]
pub struct CubeFluidGrid {
    pub cdims: CubeDims,
    pub f: Vec<f64>,
    pub f_new: Vec<f64>,
    pub rho: Vec<f64>,
    /// Velocity per node.
    pub u: Vec<[f64; 3]>,
    /// Equilibrium-shift velocity per node, see [`FluidGrid::ueq`].
    pub ueq: Vec<[f64; 3]>,
    /// Force per node.
    pub force: Vec<[f64; 3]>,
}

impl CubeFluidGrid {
    /// Allocates a cube-blocked grid with zero distributions, unit density.
    pub fn new(cdims: CubeDims) -> Self {
        let n = cdims.dims.n();
        Self {
            cdims,
            f: vec![0.0; n * Q],
            f_new: vec![0.0; n * Q],
            rho: vec![1.0; n],
            u: vec![[0.0; 3]; n],
            ueq: vec![[0.0; 3]; n],
            force: vec![[0.0; 3]; n],
        }
    }

    /// Total number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.cdims.dims.n()
    }

    /// Reorders a node-major [`FluidGrid`] into cube-blocked storage.
    pub fn from_flat(grid: &FluidGrid, k: usize) -> Self {
        /// Copies every z-run of the node-major `src` to its cube-blocked
        /// place in `dst`; both hold `w` entries per node.
        fn runs<T: Copy>(cdims: CubeDims, dst: &mut [T], src: &[T], w: usize) {
            let len = cdims.k * w;
            cdims.for_each_z_run(|node, flat| {
                dst[flat * w..][..len].copy_from_slice(&src[node * w..][..len]);
            });
        }
        let cdims = CubeDims::new(grid.dims, k);
        let mut out = Self::new(cdims);
        runs(cdims, &mut out.f, &grid.f, Q);
        runs(cdims, &mut out.f_new, &grid.f_new, Q);
        runs(cdims, &mut out.rho, &grid.rho, 1);
        runs(cdims, &mut out.u, &grid.u, 1);
        runs(cdims, &mut out.ueq, &grid.ueq, 1);
        runs(cdims, &mut out.force, &grid.force, 1);
        out
    }

    /// Reorders back into a node-major [`FluidGrid`], reusing `out`'s
    /// buffers whatever it held before.
    ///
    /// `f_new` is reported as a copy of `f` — the state a kernel-9 copy
    /// leaves — because the cube solver swaps buffer roles instead of
    /// copying, so its stored `f_new` may hold an older step.
    pub fn to_flat_into(&self, out: &mut FluidGrid) {
        self.gather_into(out, |slot, _| {
            (
                self.rho[slot],
                [self.u[slot], self.ueq[slot], self.force[slot]],
            )
        });
    }

    /// Like [`CubeFluidGrid::to_flat_into`], but derives ρ, u and u_eq
    /// instead of copying them: each node's moments are computed with
    /// [`node_moments_shifted`] from its populations and its force (the
    /// force the moments belong to) while its z-run of `f` is copied, so
    /// the gather stays one pass over the grid. Only `f` and the force
    /// field are read.
    pub fn to_flat_with_moments_into(&self, out: &mut FluidGrid, tau: f64) {
        self.gather_into(out, |slot, f_node| {
            let force = self.force[slot];
            let (rho, u, ueq) = node_moments_shifted(f_node, force, tau);
            (rho, [u, ueq, force])
        });
    }

    /// The one pass behind both gathers. Every field of `out` is cleared
    /// and written once, by index, in a single walk over the cube's z-runs
    /// in node order: each run of `f` goes straight from the cube array
    /// into both `f` and `f_new`, and `node(slot, f_node)` gives ρ and the
    /// triples `[u, ueq, force]` of the node at cube slot `slot` with
    /// populations `f_node`. Nothing is zero-filled first or read back.
    ///
    /// Capacity is reserved in the order `f`, `rho`, `u`, `ueq`, `force`,
    /// `f_new`. A caller that drops a gathered state and gathers a fresh
    /// one each chunk relies on that order staying fixed: the new
    /// allocations then land in the heap holes the old ones left instead
    /// of faulting in fresh pages.
    fn gather_into(
        &self,
        out: &mut FluidGrid,
        mut node: impl FnMut(usize, &[f64]) -> (f64, [[f64; 3]; 3]),
    ) {
        let cdims = self.cdims;
        let (k, n) = (cdims.k, cdims.dims.n());
        out.dims = cdims.dims;
        let FluidGrid {
            f,
            f_new,
            rho,
            u,
            ueq,
            force,
            ..
        } = out;
        let mut triples = [u, ueq, force];
        f.clear();
        f.reserve(n * Q);
        rho.clear();
        rho.reserve(n);
        for v in &mut triples {
            v.clear();
            v.reserve(n);
        }
        f_new.clear();
        f_new.reserve(n * Q);
        {
            let f_dst = &mut f.spare_capacity_mut()[..n * Q];
            let new_dst = &mut f_new.spare_capacity_mut()[..n * Q];
            let rho_dst = &mut rho.spare_capacity_mut()[..n];
            let mut dst = triples.each_mut().map(|v| &mut v.spare_capacity_mut()[..n]);
            cdims.for_each_z_run(|at, flat| {
                let run = &self.f[flat * Q..][..k * Q];
                f_dst[at * Q..][..k * Q].write_copy_of_slice(run);
                new_dst[at * Q..][..k * Q].write_copy_of_slice(run);
                for (j, f_node) in run.chunks_exact(Q).enumerate() {
                    let (r, values) = node(flat + j, f_node);
                    rho_dst[at + j].write(r);
                    for (d, v) in dst.iter_mut().zip(values) {
                        d[at + j].write(v);
                    }
                }
            });
        }
        // SAFETY: each vector was cleared and then reserved for its new
        // length (`n * Q` or `n`) above. The z-runs tile the grid's `n`
        // nodes, and for every run the loop wrote the run's `k * Q` slots
        // of `f` and `f_new` and its `k` slots of every other field; so
        // every slot below each new length is initialised.
        unsafe {
            f.set_len(n * Q);
            f_new.set_len(n * Q);
            rho.set_len(n);
            for v in triples {
                v.set_len(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn divisibility_enforced() {
        let d = Dims::new(8, 8, 8);
        let c = CubeDims::new(d, 4);
        assert_eq!((c.cx, c.cy, c.cz), (2, 2, 2));
        assert_eq!(c.num_cubes(), 8);
        assert_eq!(c.nodes_per_cube(), 64);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_k_rejected() {
        CubeDims::new(Dims::new(9, 8, 8), 4);
    }

    #[test]
    fn split_join_round_trip() {
        let c = CubeDims::new(Dims::new(8, 12, 4), 4);
        for (x, y, z) in c.dims.iter_coords() {
            let (cube, local) = c.split(x, y, z);
            assert_eq!(c.join(cube, local), (x, y, z));
        }
    }

    #[test]
    fn flat_covers_every_scalar_slot_once() {
        let c = CubeDims::new(Dims::new(8, 4, 8), 2);
        let mut seen = vec![false; c.dims.n()];
        for (x, y, z) in c.dims.iter_coords() {
            let i = c.flat_of_global(x, y, z);
            assert!(!seen[i], "slot {i} hit twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cube_nodes_are_contiguous() {
        let c = CubeDims::new(Dims::new(4, 4, 4), 2);
        // All 8 nodes of cube 0 occupy flat slots 0..8.
        for lx in 0..2 {
            for ly in 0..2 {
                for lz in 0..2 {
                    let i = c.flat_of_global(lx, ly, lz);
                    assert!(i < 8, "node ({lx},{ly},{lz}) of cube 0 at slot {i}");
                }
            }
        }
    }

    #[test]
    fn figure6_mapping_example() {
        // The paper's Figure 6: a 4x4x4 grid with k = 2 yields 2x2x2 cubes.
        let c = CubeDims::new(Dims::new(4, 4, 4), 2);
        assert_eq!((c.cx, c.cy, c.cz), (2, 2, 2));
        assert_eq!(c.num_cubes(), 8);
        // Node (3,3,3) lives in the last cube, last local slot.
        let (cube, local) = c.split(3, 3, 3);
        assert_eq!(cube, 7);
        assert_eq!(local, 7);
    }

    #[test]
    fn round_trip_through_flat_grid() {
        let dims = Dims::new(4, 6, 2);
        let mut g = FluidGrid::new(dims);
        for (i, v) in g.f.iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        for (i, v) in g.rho.iter_mut().enumerate() {
            *v = 1.0 + i as f64 * 0.01;
        }
        for (i, v) in g.force.iter_mut().enumerate() {
            v[1] = -(i as f64);
        }
        for (i, v) in g.ueq.iter_mut().enumerate() {
            v[2] = 1e-3 * i as f64;
        }
        let cube = CubeFluidGrid::from_flat(&g, 2);
        let mut back = FluidGrid::empty();
        cube.to_flat_into(&mut back);
        assert_eq!(back.f, g.f);
        assert_eq!(back.f_new, g.f);
        assert_eq!(back.rho, g.rho);
        assert_eq!(back.ueq, g.ueq);
        assert_eq!(back.force, g.force);
    }

    #[test]
    fn gather_with_moments_derives_what_kernel_7_stores() {
        use crate::equilibrium::feq;
        use crate::macroscopic::update_velocity_shifted;
        let dims = Dims::new(4, 6, 2);
        let tau = 0.8;
        let mut g = FluidGrid::new(dims);
        for node in 0..g.n() {
            let u = [0.01 * (node % 3) as f64, -0.02, 0.005 * node as f64];
            for i in 0..Q {
                g.f_new[node * Q + i] = feq(i, 1.0 + 1e-3 * node as f64, u);
            }
            g.force[node] = [1e-5 * node as f64, 0.0, -3e-6];
        }
        update_velocity_shifted(&mut g, tau);
        g.copy_distributions();
        let cube = CubeFluidGrid {
            rho: vec![f64::NAN; g.n()],
            u: vec![[f64::NAN; 3]; g.n()],
            ueq: vec![[f64::NAN; 3]; g.n()],
            ..CubeFluidGrid::from_flat(&g, 2)
        };
        // A reused target with other contents and sizes.
        let mut back = FluidGrid::new(Dims::new(2, 2, 2));
        cube.to_flat_with_moments_into(&mut back, tau);
        assert_eq!(back.dims, g.dims);
        assert_eq!(bits(&back), bits(&g));
    }

    /// The gather as it was written before the one-pass form: append `f`
    /// run by run, push each node's scalars, then copy `f` into `f_new`.
    /// `tau` picks the derived-moments form. The reference the one-pass
    /// gather must reproduce bit for bit.
    fn two_pass_gather(cube: &CubeFluidGrid, out: &mut FluidGrid, tau: Option<f64>) {
        let cdims = cube.cdims;
        let k = cdims.k;
        *out = FluidGrid::empty();
        out.dims = cdims.dims;
        cdims.for_each_z_run(|node, flat| {
            debug_assert_eq!(out.f.len(), node * Q);
            let run = &cube.f[flat * Q..][..k * Q];
            out.f.extend_from_slice(run);
            for (j, f_node) in run.chunks_exact(Q).enumerate() {
                let (slot, force) = (flat + j, cube.force[flat + j]);
                let (rho, u, ueq) = match tau {
                    None => (cube.rho[slot], cube.u[slot], cube.ueq[slot]),
                    Some(tau) => node_moments_shifted(f_node, force, tau),
                };
                out.rho.push(rho);
                out.u.push(u);
                out.ueq.push(ueq);
                out.force.push(force);
            }
        });
        out.f_new.clone_from(&out.f);
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

    proptest! {
        /// The one-pass gather equals the two-pass one bit for bit, in both
        /// forms, into an empty target, a stale target of other dimensions
        /// and a kept target (the same one gathered into again).
        #[test]
        fn one_pass_gather_equals_two_pass_gather(
            cx in 1usize..4,
            cy in 1usize..4,
            cz in 1usize..4,
            k in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let dims = Dims::new(cx * k, cy * k, cz * k);
            let mut rng = proptest::TestRng::new(seed);
            let mut cube = CubeFluidGrid::new(CubeDims::new(dims, k));
            for v in cube.f.iter_mut() {
                *v = 1.0 / 19.0 + 1e-3 * (rng.next_u64() % 1000) as f64;
            }
            let mut draw = || 1e-5 * (rng.next_u64() % 1000) as f64 - 5e-3;
            for x in cube.rho.iter_mut() {
                *x = draw();
            }
            for v in [&mut cube.u, &mut cube.ueq, &mut cube.force] {
                for x in v.iter_mut().flatten() {
                    *x = draw();
                }
            }
            // The stored f_new is stale and must not show up in the output.
            cube.f_new.fill(f64::NAN);
            for tau in [None, Some(0.8)] {
                let gather = |out: &mut FluidGrid| match tau {
                    None => cube.to_flat_into(out),
                    Some(tau) => cube.to_flat_with_moments_into(out, tau),
                };
                let mut want = FluidGrid::empty();
                two_pass_gather(&cube, &mut want, tau);
                prop_assert_eq!(want.dims, dims);

                let mut empty = FluidGrid::empty();
                gather(&mut empty);
                prop_assert_eq!(empty.dims, dims);
                prop_assert_eq!(bits(&empty), bits(&want));

                let mut stale = FluidGrid::new(Dims::new(2, 3, 5));
                stale.f.fill(-7.0);
                gather(&mut stale);
                prop_assert_eq!(stale.dims, dims);
                prop_assert_eq!(bits(&stale), bits(&want));

                // Kept: the target already holds a gather of this grid.
                gather(&mut empty);
                prop_assert_eq!(bits(&empty), bits(&want));
            }
        }
    }

    #[test]
    fn from_flat_places_every_node_at_its_cube_slot() {
        let dims = Dims::new(6, 4, 8);
        let mut g = FluidGrid::new(dims);
        for (i, v) in g.f.iter_mut().enumerate() {
            *v = i as f64;
        }
        for (i, v) in g.u.iter_mut().enumerate() {
            v[0] = i as f64;
        }
        let cube = CubeFluidGrid::from_flat(&g, 2);
        for (x, y, z) in dims.iter_coords() {
            let (node, flat) = (dims.idx(x, y, z), cube.cdims.flat_of_global(x, y, z));
            assert_eq!(cube.u[flat][0], node as f64, "({x},{y},{z})");
            assert_eq!(
                cube.f[flat * Q..][..Q],
                g.f[node * Q..][..Q],
                "({x},{y},{z})"
            );
        }
    }

    proptest! {
        /// split/join bijection for random geometry.
        #[test]
        fn prop_split_join(
            cx in 1usize..4,
            cy in 1usize..4,
            cz in 1usize..4,
            k in 1usize..5,
        ) {
            let c = CubeDims::new(Dims::new(cx * k, cy * k, cz * k), k);
            for cube in 0..c.num_cubes() {
                for local in 0..c.nodes_per_cube() {
                    let (x, y, z) = c.join(cube, local);
                    prop_assert_eq!(c.split(x, y, z), (cube, local));
                }
            }
        }
    }
}
