//! Fused collide–stream sweep (kernels 5+6 in one pass).
//!
//! The split schedule runs collision as a read-modify-write of all 19
//! populations in `f` and then streams with a second full traversal that
//! re-reads `f` and scatters into `f_new`. The fused sweep computes the
//! BGK post-collision populations in registers and pushes them straight
//! into `f_new` — periodic wrap and half-way bounce-back handled in the
//! same inner loop — so the distribution array is touched twice per step
//! (one read of `f`, one write of `f_new`) instead of four times.
//!
//! [`push`] is the one push rule of every shared-memory fused sweep, in
//! either layout: a direction that steps toward none of the node's domain
//! faces lands at a fixed offset from the node's slot; only the directions
//! that cross a face (periodic wrap, bounce-back) go through the routing
//! tables. [`push_planes`] is the one loop that drives it over x-planes of
//! the flat layout: the fused sweep, split kernel 6 and the distributed
//! ranks' halo push differ only in where each node's post-collision block
//! comes from. The cube solver
//! drives [`push`] cube by cube with its own offset table.
//!
//! Because the register pipeline performs *exactly* the same f64
//! arithmetic as [`crate::collision::bgk_collide_shifted`] followed by
//! [`crate::boundary::stream_push_routed_node`], the fused plan is
//! bit-identical to the split plan, not merely close. The only observable
//! difference is that `f` is left holding pre-collision values — which no
//! downstream kernel reads: the macroscopic update (kernel 7) reads
//! `f_new`, and the buffer copy (kernel 9) overwrites `f` wholesale.

use std::ops::Range;

use crate::boundary::{moving_wall_correction, BoundaryConfig, CoordRoute, StreamRouter};
use crate::collision::bgk_collide_shifted;
use crate::grid::{Dims, FluidGrid};
use crate::lattice::{E, Q};

/// Collides one node's populations into a register block without writing
/// them back: copies the node's Q-slice of `f` and applies the
/// velocity-shift collision ([`bgk_collide_shifted`]; `ueq` already
/// carries the force).
#[inline(always)]
pub fn collide_to_registers(f_node: &[f64], rho: f64, ueq: [f64; 3], tau: f64) -> [f64; Q] {
    let mut regs = [0.0; Q];
    regs.copy_from_slice(&f_node[..Q]);
    bgk_collide_shifted(&mut regs, rho, ueq, tau);
    regs
}

/// Per direction, the domain faces it steps toward, as bits of a node's
/// face mask (see [`face_bits`]): bit `2a` for the low face of axis `a`,
/// bit `2a + 1` for the high one. A push from a node whose face mask
/// shares no bit with its direction's entry stays inside the grid.
pub const DIR_FACES: [u8; Q] = {
    let mut m = [0u8; Q];
    let mut i = 0;
    while i < Q {
        let mut a = 0;
        while a < 3 {
            if E[i][a] < 0 {
                m[i] |= 1 << (2 * a);
            } else if E[i][a] > 0 {
                m[i] |= 1 << (2 * a + 1);
            }
            a += 1;
        }
        i += 1;
    }
    m
};

/// Axis `a`'s part of a node's face mask: bit `2a` if coordinate `v` lies
/// on the low domain face of an axis of length `n`, bit `2a + 1` if on the
/// high one (both when `n == 1`). A node's mask is the OR over its three
/// axes; it is `0` exactly for nodes off the domain faces.
#[inline(always)]
pub fn face_bits(v: usize, n: usize, a: usize) -> u8 {
    u8::from(v == 0) << (2 * a) | u8::from(v + 1 == n) << (2 * a + 1)
}

/// Pushes one node's post-collision block `post` from slot `slot` (the
/// node's index in its layout, at coordinates `pos`, with face mask
/// `face`): `write(index, value)` receives each value and its index into
/// the layout's distribution array.
///
/// A direction whose faces do not meet `face` lands at `slot + off[i]`;
/// the others are routed through `router`: a wrapped neighbour's slot
/// comes from `slot_of`, and a bounce-back writes the node's own opposite
/// slot with the moving-wall correction. Every `(destination, direction)`
/// slot of the grid receives exactly one write per sweep over all nodes
/// (push injectivity: for a fixed direction the source → destination map
/// is injective, and a bounce-back targets a `(node, opposite)` slot that
/// no neighbour route reaches), which is what lets parallel callers write
/// without locks.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn push(
    post: &[f64; Q],
    slot: usize,
    face: u8,
    pos: [usize; 3],
    off: &[isize; Q],
    router: &StreamRouter,
    slot_of: impl Fn([usize; 3]) -> usize,
    mut write: impl FnMut(usize, f64),
) {
    write(slot * Q, post[0]);
    // Most nodes lie off the faces; they skip the per-direction test.
    if face == 0 {
        for i in 1..Q {
            write(slot.wrapping_add_signed(off[i]) * Q + i, post[i]);
        }
        return;
    }
    let [x, y, z] = pos;
    for i in 1..Q {
        if DIR_FACES[i] & face == 0 {
            write(slot.wrapping_add_signed(off[i]) * Q + i, post[i]);
            continue;
        }
        match router.route(x, y, z, i) {
            CoordRoute::Neighbor(d) => write(slot_of(d) * Q + i, post[i]),
            CoordRoute::BounceBack {
                opposite,
                wall_velocity,
            } => write(
                slot * Q + opposite,
                post[i] - moving_wall_correction(i, wall_velocity),
            ),
        }
    }
}

/// The flat layout's offset row for [`push`]: the signed node-index step
/// along each direction, the same from every node whose neighbour is
/// inside the grid.
pub fn flat_offsets(dims: Dims) -> [isize; Q] {
    let (ny, nz) = (dims.ny as isize, dims.nz as isize);
    std::array::from_fn(|i| (E[i][0] as isize * ny + E[i][1] as isize) * nz + E[i][2] as isize)
}

/// The one flat plane loop: pushes every node of the x-planes `xs` of a
/// `dims` grid with [`push`], taking each node's post-collision block from
/// `post(node)`. `node` is the node's index in the whole grid, and so is
/// every index `write` receives. The callers differ only in `post`: the
/// fused plan collides in registers ([`collided_block`]), split kernel 6
/// copies the block kernel 5 stored ([`stored_block`]), and a distributed
/// rank reads its own slab. Loops over disjoint plane ranges write
/// disjoint slots (see [`push`]), so slabs can run in parallel on one
/// `f_new`.
pub fn push_planes(
    xs: Range<usize>,
    dims: Dims,
    router: &StreamRouter,
    mut post: impl FnMut(usize) -> [f64; Q],
    mut write: impl FnMut(usize, f64),
) {
    let off = flat_offsets(dims);
    let slot_of = |d: [usize; 3]| (d[0] * dims.ny + d[1]) * dims.nz + d[2];
    for x in xs {
        let fx = face_bits(x, dims.nx, 0);
        for y in 0..dims.ny {
            let fxy = fx | face_bits(y, dims.ny, 1);
            for z in 0..dims.nz {
                let node = (x * dims.ny + y) * dims.nz + z;
                let face = fxy | face_bits(z, dims.nz, 2);
                push(
                    &post(node),
                    node,
                    face,
                    [x, y, z],
                    &off,
                    router,
                    slot_of,
                    &mut write,
                );
            }
        }
    }
}

/// The fused plan's block for [`push_planes`]: node `node` collided in
/// registers from the grid's stored fields (`rho`, `ueq`), exactly as
/// kernel 5 would collide it in place. `grid.f` is only read.
#[inline(always)]
pub fn collided_block(grid: &FluidGrid, node: usize, tau: f64) -> [f64; Q] {
    let f_node = &grid.f[node * Q..node * Q + Q];
    collide_to_registers(f_node, grid.rho[node], grid.ueq[node], tau)
}

/// Split kernel 6's block for [`push_planes`]: node `node`'s populations
/// as kernel 5 left them in the distribution array `f`.
#[inline(always)]
pub fn stored_block(f: &[f64], node: usize) -> [f64; Q] {
    let mut block = [0.0; Q];
    block.copy_from_slice(&f[node * Q..node * Q + Q]);
    block
}

/// Whole-grid fused sweep ([`push_planes`] over every plane with
/// [`collided_block`]). After this call `f_new` equals what
/// `collide`-then-`stream_push_bounded` would have produced, while `f`
/// still holds the pre-collision populations.
pub fn fused_collide_stream_grid(grid: &mut FluidGrid, bc: &BoundaryConfig, tau: f64) {
    let dims = grid.dims;
    let router = StreamRouter::new(dims, bc);
    let mut f_new = std::mem::take(&mut grid.f_new);
    let post = |node| collided_block(grid, node, tau);
    push_planes(0..dims.nx, dims, &router, post, |i, v| f_new[i] = v);
    grid.f_new = f_new;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{stream_push_bounded, stream_push_routed_node, AxisBoundary};
    use crate::collision::tests::bgk_collide_reference;
    use crate::equilibrium::feq;
    use crate::macroscopic::update_velocity_shifted;
    use proptest::prelude::*;

    /// Builds a grid with a perturbed near-equilibrium state and matching
    /// macroscopic fields, the way the solvers leave it before kernel 5.
    fn perturbed_grid(dims: Dims, tau: f64, seed: u64) -> FluidGrid {
        let mut g = FluidGrid::new(dims);
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for node in 0..g.n() {
            for i in 0..Q {
                g.f[node * Q + i] = feq(i, 1.0, [0.02, -0.01, 0.015]) * (1.0 + 0.05 * next());
            }
            g.force[node] = std::array::from_fn(|_| 1e-4 * (next() - 0.5));
        }
        // Derive consistent rho / ueq fields from the perturbed state.
        let f = g.f.clone();
        g.f_new.copy_from_slice(&f);
        update_velocity_shifted(&mut g, tau);
        g
    }

    /// Kernel 6 as the reference routes it: every direction of every node
    /// through the routing tables, no offset row and no face masks.
    fn routed_reference(grid: &mut FluidGrid, bc: &BoundaryConfig) {
        let dims = grid.dims;
        let router = StreamRouter::new(dims, bc);
        for (x, y, z) in dims.iter_coords() {
            let node = dims.idx(x, y, z);
            stream_push_routed_node(dims, &router, &grid.f, &mut grid.f_new, node, x, y, z);
        }
    }

    /// Split reference: kernel 5 (BGK toward feq(rho, ueq)) then the routed
    /// kernel 6, so the fused sweep is not compared with its own push rule.
    fn split_reference(grid: &mut FluidGrid, bc: &BoundaryConfig, tau: f64) {
        for node in 0..grid.n() {
            let (rho, ueq) = (grid.rho[node], grid.ueq[node]);
            let f = &mut grid.f[node * Q..node * Q + Q];
            bgk_collide_reference(f, rho, ueq, tau);
        }
        routed_reference(grid, bc);
    }

    fn boundary_cases() -> Vec<BoundaryConfig> {
        let walls = AxisBoundary::Walls {
            lo: [0.0; 3],
            hi: [0.0; 3],
        };
        let lid = AxisBoundary::Walls {
            lo: [0.0; 3],
            hi: [0.01, 0.0, 0.0],
        };
        vec![
            BoundaryConfig::periodic(),
            BoundaryConfig::tunnel(),
            BoundaryConfig {
                x: walls,
                y: walls,
                z: walls,
            },
            BoundaryConfig {
                x: AxisBoundary::Periodic,
                y: lid,
                z: walls,
            },
        ]
    }

    #[test]
    fn fused_is_bit_identical_to_split_one_sweep() {
        let tau = 0.8;
        for (case, bc) in boundary_cases().into_iter().enumerate() {
            let dims = Dims::new(5, 4, 3);
            let mut split = perturbed_grid(dims, tau, case as u64 + 1);
            let mut fused = split.clone();
            split_reference(&mut split, &bc, tau);
            fused_collide_stream_grid(&mut fused, &bc, tau);
            assert_eq!(
                split.f_new, fused.f_new,
                "case {case}: fused f_new must be bit-identical to split"
            );
        }
    }

    #[test]
    fn fused_leaves_f_untouched() {
        let dims = Dims::new(4, 4, 4);
        let tau = 0.9;
        let g0 = perturbed_grid(dims, tau, 7);
        let mut g = g0.clone();
        fused_collide_stream_grid(&mut g, &BoundaryConfig::tunnel(), tau);
        assert_eq!(g.f, g0.f, "fused sweep must not write the source buffer");
    }

    #[test]
    fn collide_to_registers_matches_in_place_collision() {
        let tau = 0.7;
        let mut f = [0.0; Q];
        for (i, v) in f.iter_mut().enumerate() {
            *v = feq(i, 1.1, [0.01, 0.02, -0.03]) * (1.0 + 0.01 * i as f64);
        }
        let rho = 1.1;
        let ueq = [0.012, 0.018, -0.031];
        let regs = collide_to_registers(&f, rho, ueq, tau);
        let mut reference = f;
        bgk_collide_reference(&mut reference, rho, ueq, tau);
        assert_eq!(regs, reference);
    }

    proptest! {
        /// The plane loop in split mode ([`stream_push_bounded`]) moves
        /// every population exactly where the routed reference does, bit
        /// for bit: wraps, bounce-backs and moving-wall corrections, on
        /// axes of length 1 (whose nodes lie on both faces) to 6.
        #[test]
        fn prop_plane_loop_split_equals_routed_reference(
            nx in 1usize..7,
            ny in 1usize..7,
            nz in 1usize..7,
            case in 0usize..4,
            seed in 0u64..1000,
        ) {
            let bc = boundary_cases()[case];
            let mut plane = perturbed_grid(Dims::new(nx, ny, nz), 0.75, seed);
            plane.f_new.fill(f64::NAN);
            let mut routed = plane.clone();
            stream_push_bounded(&mut plane, &bc);
            routed_reference(&mut routed, &bc);
            let bits = |g: &FluidGrid| g.f_new.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert!(routed.f_new.iter().all(|v| !v.is_nan()));
            prop_assert_eq!(bits(&plane), bits(&routed));
        }

        /// Bit-identical to split over random shapes (axes of length 1,
        /// whose nodes lie on both faces, and 2 included), boundary mixes
        /// and repeated sweeps (with the kernel-7 + kernel-9 glue between
        /// sweeps, like a real multi-step run).
        #[test]
        fn prop_fused_equals_split_multi_sweep(
            nx in 1usize..6,
            ny in 1usize..6,
            nz in 1usize..6,
            case in 0usize..4,
            seed in 0u64..1000,
        ) {
            let dims = Dims::new(nx, ny, nz);
            let tau = 0.75;
            let bc = boundary_cases()[case];
            let mut split = perturbed_grid(dims, tau, seed);
            let mut fused = split.clone();
            for sweep in 0..10 {
                split_reference(&mut split, &bc, tau);
                fused_collide_stream_grid(&mut fused, &bc, tau);
                prop_assert_eq!(
                    &split.f_new, &fused.f_new,
                    "sweep {} diverged", sweep
                );
                for g in [&mut split, &mut fused] {
                    update_velocity_shifted(g, tau);
                    g.copy_distributions();
                }
            }
        }
    }
}
