//! Boundary conditions: periodic axes and half-way bounce-back walls
//! (optionally moving, for Couette-flow validation), plus the uniform body
//! force that drives the paper's tunnel flow (Figure 7).
//!
//! Bounce-back is fused into streaming: a population that would cross a wall
//! is reflected back into its origin node with the opposite direction, which
//! places the no-slip plane half a lattice spacing beyond the last fluid
//! node (second-order accurate).
//!
//! [`StreamRouter`] holds the routing tables that [`crate::fused::push`]
//! consults for the directions that cross a domain face; every solver
//! streams through that push rule, split kernel 6 included
//! ([`stream_push_bounded`]). [`stream_push_routed_node`], which routes
//! every direction, and [`BoundaryConfig::route_coords`], the generic
//! routine, stay as the references the push rule is tested against.

use crate::fused::{push_planes, stored_block};
use crate::grid::{Dims, FluidGrid};
use crate::lattice::{E, EF, OPPOSITE, Q, W};

/// Boundary treatment of one axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AxisBoundary {
    /// Populations wrap around.
    Periodic,
    /// Solid walls just outside both end planes, each with a tangential
    /// velocity (zero for no-slip).
    Walls { lo: [f64; 3], hi: [f64; 3] },
}

impl AxisBoundary {
    /// No-slip walls at both ends.
    pub const fn no_slip() -> Self {
        AxisBoundary::Walls {
            lo: [0.0; 3],
            hi: [0.0; 3],
        }
    }

    /// True if this axis wraps.
    pub fn is_periodic(&self) -> bool {
        matches!(self, AxisBoundary::Periodic)
    }
}

/// Boundary configuration of the whole box. The paper's tunnel is periodic
/// in x with no-slip walls in y and z.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundaryConfig {
    pub x: AxisBoundary,
    pub y: AxisBoundary,
    pub z: AxisBoundary,
}

impl BoundaryConfig {
    /// Fully periodic box (used by the Taylor–Green validation).
    pub const fn periodic() -> Self {
        Self {
            x: AxisBoundary::Periodic,
            y: AxisBoundary::Periodic,
            z: AxisBoundary::Periodic,
        }
    }

    /// The paper's tunnel: periodic in x, no-slip walls in y and z.
    pub const fn tunnel() -> Self {
        Self {
            x: AxisBoundary::Periodic,
            y: AxisBoundary::no_slip(),
            z: AxisBoundary::no_slip(),
        }
    }

    #[inline]
    fn axis(&self, a: usize) -> AxisBoundary {
        match a {
            0 => self.x,
            1 => self.y,
            _ => self.z,
        }
    }

    /// Decides where a population leaving `(x, y, z)` along direction `i`
    /// lands: either a (possibly wrapped) neighbour node, given by its
    /// coordinates, or reflected back off a wall with momentum exchange for
    /// a moving wall. The generic routine; [`StreamRouter`] tabulates it.
    #[inline]
    pub fn route_coords(&self, dims: Dims, x: usize, y: usize, z: usize, i: usize) -> CoordRoute {
        let e = E[i];
        let pos = [x as i64, y as i64, z as i64];
        let ext = [dims.nx as i64, dims.ny as i64, dims.nz as i64];
        let mut dst = [0usize; 3];
        for a in 0..3 {
            let t = pos[a] + e[a] as i64;
            if t < 0 || t >= ext[a] {
                match self.axis(a) {
                    AxisBoundary::Periodic => dst[a] = (t.rem_euclid(ext[a])) as usize,
                    AxisBoundary::Walls { lo, hi } => {
                        let uw = if t < 0 { lo } else { hi };
                        return CoordRoute::BounceBack {
                            opposite: OPPOSITE[i],
                            wall_velocity: uw,
                        };
                    }
                }
            } else {
                dst[a] = t as usize;
            }
        }
        CoordRoute::Neighbor(dst)
    }
}

/// Where a streamed population lands, in coordinates (layout-independent).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoordRoute {
    /// Lands in the node at these coordinates, same direction index.
    Neighbor([usize; 3]),
    /// Reflected off a wall back into the origin node.
    BounceBack {
        opposite: usize,
        wall_velocity: [f64; 3],
    },
}

/// Precomputed routing tables for streaming: per-axis neighbour maps with a
/// wall sentinel, so the hot loop replaces the generic modular arithmetic
/// of [`BoundaryConfig::route_coords`] with three table lookups per
/// direction. Semantically identical to `route_coords` (tested).
pub struct StreamRouter {
    /// `fwd[a][v]` = coordinate of `v + 1` on axis `a`, or `WALL`.
    fwd: [Vec<usize>; 3],
    /// `bwd[a][v]` = coordinate of `v - 1` on axis `a`, or `WALL`.
    bwd: [Vec<usize>; 3],
    /// Wall velocities per axis: [lo, hi].
    wall: [[[f64; 3]; 2]; 3],
}

impl StreamRouter {
    /// Sentinel marking a wall crossing in the neighbour tables.
    const WALL: usize = usize::MAX;

    /// Builds the tables for a grid and boundary configuration.
    pub fn new(dims: Dims, bc: &BoundaryConfig) -> Self {
        let ext = [dims.nx, dims.ny, dims.nz];
        let mut fwd: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut bwd: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut wall = [[[0.0; 3]; 2]; 3];
        for a in 0..3 {
            let n = ext[a];
            let axis = match a {
                0 => bc.x,
                1 => bc.y,
                _ => bc.z,
            };
            let periodic = axis.is_periodic();
            if let AxisBoundary::Walls { lo, hi } = axis {
                wall[a] = [lo, hi];
            }
            fwd[a] = (0..n)
                .map(|v| {
                    if v + 1 < n {
                        v + 1
                    } else if periodic {
                        0
                    } else {
                        Self::WALL
                    }
                })
                .collect();
            bwd[a] = (0..n)
                .map(|v| {
                    if v > 0 {
                        v - 1
                    } else if periodic {
                        n - 1
                    } else {
                        Self::WALL
                    }
                })
                .collect();
        }
        Self { fwd, bwd, wall }
    }

    /// Routes a population leaving `(x, y, z)` along direction `i`.
    /// Matches [`BoundaryConfig::route_coords`] exactly, including which
    /// wall's velocity applies when a diagonal crosses two walls (the
    /// lowest-numbered axis wins, as in the generic routine).
    #[inline]
    pub fn route(&self, x: usize, y: usize, z: usize, i: usize) -> CoordRoute {
        let e = E[i];
        let pos = [x, y, z];
        let mut dst = [0usize; 3];
        for a in 0..3 {
            let t = match e[a] {
                0 => pos[a],
                1 => self.fwd[a][pos[a]],
                _ => self.bwd[a][pos[a]],
            };
            if t == Self::WALL {
                let side = usize::from(e[a] > 0);
                return CoordRoute::BounceBack {
                    opposite: OPPOSITE[i],
                    wall_velocity: self.wall[a][side],
                };
            }
            dst[a] = t;
        }
        CoordRoute::Neighbor(dst)
    }
}

/// Momentum-exchange correction for a population of weight index `i`
/// bouncing off a wall moving with `u_w`:
/// `f'_{opp(i)} = f_i − 6 w_i ρ_w (e_i · u_w)` with `ρ_w ≈ 1`.
#[inline]
pub fn moving_wall_correction(i: usize, wall_velocity: [f64; 3]) -> f64 {
    let eu =
        EF[i][0] * wall_velocity[0] + EF[i][1] * wall_velocity[1] + EF[i][2] * wall_velocity[2];
    6.0 * W[i] * eu
}

/// Kernel 6 over the whole grid honouring the boundary configuration: the
/// flat plane loop ([`push_planes`]) pushing the post-collision blocks of
/// `f` into `f_new`.
pub fn stream_push_bounded(grid: &mut FluidGrid, bc: &BoundaryConfig) {
    let dims = grid.dims;
    let router = StreamRouter::new(dims, bc);
    let (f, f_new) = (&grid.f, &mut grid.f_new);
    push_planes(
        0..dims.nx,
        dims,
        &router,
        |node| stored_block(f, node),
        |i, v| f_new[i] = v,
    );
}

/// Pushes one node's populations by routing every direction through the
/// tables: the reference that the push rule ([`crate::fused::push`]),
/// which routes only the directions that cross a face, is tested against.
#[inline]
pub fn stream_push_routed_node(
    dims: Dims,
    router: &StreamRouter,
    f: &[f64],
    f_new: &mut [f64],
    node: usize,
    x: usize,
    y: usize,
    z: usize,
) {
    f_new[node * Q] = f[node * Q];
    for i in 1..Q {
        let v = f[node * Q + i];
        match router.route(x, y, z, i) {
            CoordRoute::Neighbor(d) => {
                let dst = (d[0] * dims.ny + d[1]) * dims.nz + d[2];
                f_new[dst * Q + i] = v;
            }
            CoordRoute::BounceBack {
                opposite,
                wall_velocity,
            } => {
                f_new[node * Q + opposite] = v - moving_wall_correction(i, wall_velocity);
            }
        }
    }
}

/// Adds a uniform body force (e.g. the pressure-gradient surrogate that
/// drives the tunnel flow) to the grid's force field.
pub fn add_uniform_body_force(grid: &mut FluidGrid, g: [f64; 3]) {
    for v in grid.force.iter_mut() {
        *v = [v[0] + g[0], v[1] + g[1], v[2] + g[2]];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged_grid(dims: Dims) -> FluidGrid {
        // Give every (node, direction) slot a unique value so streaming is a
        // verifiable permutation.
        let mut g = FluidGrid::new(dims);
        for (k, v) in g.f.iter_mut().enumerate() {
            *v = k as f64 + 1.0;
        }
        g
    }

    fn stream_periodic(g: &mut FluidGrid) {
        stream_push_bounded(g, &BoundaryConfig::periodic());
    }

    #[test]
    fn push_moves_single_population_to_neighbor() {
        let dims = Dims::new(4, 4, 4);
        let mut g = FluidGrid::new(dims);
        let src = dims.idx(1, 2, 3);
        g.f[src * Q + 1] = 7.0; // direction +x
        stream_periodic(&mut g);
        let dst = dims.idx(2, 2, 3);
        assert_eq!(g.f_new[dst * Q + 1], 7.0);
        // Nothing else received that population.
        let total: f64 = g.f_new.iter().sum();
        assert_eq!(total, 7.0);
    }

    #[test]
    fn push_wraps_periodically() {
        let dims = Dims::new(3, 3, 3);
        let mut g = FluidGrid::new(dims);
        let src = dims.idx(2, 0, 0);
        g.f[src * Q + 1] = 5.0; // +x from the last plane wraps to x=0
        stream_periodic(&mut g);
        assert_eq!(g.f_new[dims.idx(0, 0, 0) * Q + 1], 5.0);
    }

    #[test]
    fn streaming_is_a_permutation() {
        let dims = Dims::new(4, 3, 2);
        let mut g = tagged_grid(dims);
        stream_periodic(&mut g);
        let mut before: Vec<u64> = g.f.iter().map(|v| v.to_bits()).collect();
        let mut after: Vec<u64> = g.f_new.iter().map(|v| v.to_bits()).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "streaming must permute values bit-exactly");
    }

    #[test]
    fn rest_population_never_moves() {
        let dims = Dims::new(3, 3, 3);
        let mut g = FluidGrid::new(dims);
        for node in 0..g.n() {
            g.f[node * Q] = node as f64 + 1.0;
        }
        stream_periodic(&mut g);
        for node in 0..g.n() {
            assert_eq!(g.f_new[node * Q], node as f64 + 1.0);
        }
    }

    #[test]
    fn streaming_preserves_per_direction_mass() {
        let dims = Dims::new(4, 4, 4);
        let mut g = tagged_grid(dims);
        stream_periodic(&mut g);
        for i in 0..Q {
            let before: f64 = (0..g.n()).map(|n| g.f[n * Q + i]).sum();
            let after: f64 = (0..g.n()).map(|n| g.f_new[n * Q + i]).sum();
            assert!((before - after).abs() < 1e-9, "direction {i}");
        }
    }

    #[test]
    fn opposite_streams_cancel() {
        // Streaming +x then -x returns a population to its origin.
        let dims = Dims::new(5, 2, 2);
        let mut g = FluidGrid::new(dims);
        let start = dims.idx(2, 1, 1);
        g.f[start * Q + 1] = 1.0;
        stream_periodic(&mut g);
        g.copy_distributions();
        // Move the value into the opposite direction slot to send it back.
        let here = dims.idx(3, 1, 1);
        g.f[here * Q + 2] = g.f[here * Q + 1];
        g.f[here * Q + 1] = 0.0;
        g.f_new.fill(0.0);
        stream_periodic(&mut g);
        assert_eq!(g.f_new[start * Q + 2], 1.0);
    }

    #[test]
    fn wall_reflects_population_into_opposite_slot() {
        let dims = Dims::new(4, 4, 4);
        let bc = BoundaryConfig::tunnel();
        let mut g = FluidGrid::new(dims);
        // Direction 3 is +y; from y = ny-1 it must bounce back into slot 4.
        let node = dims.idx(1, 3, 2);
        g.f[node * Q + 3] = 2.5;
        stream_push_bounded(&mut g, &bc);
        assert_eq!(g.f_new[node * Q + 4], 2.5);
        let total: f64 = g.f_new.iter().sum();
        assert_eq!(total, 2.5, "population must not leak through the wall");
    }

    #[test]
    fn periodic_axis_still_wraps_in_tunnel() {
        let dims = Dims::new(4, 4, 4);
        let bc = BoundaryConfig::tunnel();
        let mut g = FluidGrid::new(dims);
        let node = dims.idx(3, 1, 1); // +x from the last x-plane wraps
        g.f[node * Q + 1] = 1.0;
        stream_push_bounded(&mut g, &bc);
        assert_eq!(g.f_new[dims.idx(0, 1, 1) * Q + 1], 1.0);
    }

    #[test]
    fn diagonal_population_bounces_on_wall_crossing() {
        let dims = Dims::new(4, 4, 4);
        let bc = BoundaryConfig::tunnel();
        let mut g = FluidGrid::new(dims);
        // Direction 7 is (+1,+1,0); from (0, ny-1, 0) it crosses the y wall.
        let node = dims.idx(0, 3, 0);
        g.f[node * Q + 7] = 1.5;
        stream_push_bounded(&mut g, &bc);
        assert_eq!(g.f_new[node * Q + OPPOSITE[7]], 1.5);
    }

    #[test]
    fn mass_conserved_with_static_walls() {
        let dims = Dims::new(5, 4, 3);
        let bc = BoundaryConfig::tunnel();
        let mut g = FluidGrid::new(dims);
        for (k, v) in g.f.iter_mut().enumerate() {
            *v = 1.0 + (k % 13) as f64 * 0.1;
        }
        let before: f64 = g.f.iter().sum();
        stream_push_bounded(&mut g, &bc);
        let after: f64 = g.f_new.iter().sum();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn moving_wall_injects_momentum() {
        let uw = [0.05, 0.0, 0.0];
        // Population 3 (+y) hitting a lid moving along +x: the reflected
        // value is reduced by 6 w ρ (e·u_w) — zero here since e_3 ⊥ u_w.
        assert_eq!(moving_wall_correction(3, uw), 0.0);
        // Population 7 (+1,+1,0) has e·u_w = 0.05.
        let c = moving_wall_correction(7, uw);
        assert!((c - 6.0 * W[7] * 0.05).abs() < 1e-15);
    }

    #[test]
    fn route_classifies_interior_and_boundary() {
        let dims = Dims::new(4, 4, 4);
        let bc = BoundaryConfig::tunnel();
        // Interior node: all routes are neighbours.
        for i in 1..Q {
            assert!(
                matches!(bc.route_coords(dims, 1, 1, 1, i), CoordRoute::Neighbor(_)),
                "dir {i}"
            );
        }
        // Node on the y = 0 face: -y populations bounce.
        assert!(matches!(
            bc.route_coords(dims, 1, 0, 1, 4),
            CoordRoute::BounceBack { opposite: 3, .. }
        ));
    }

    #[test]
    fn stream_router_matches_generic_routing() {
        let dims = Dims::new(5, 4, 3);
        for bc in [
            BoundaryConfig::periodic(),
            BoundaryConfig::tunnel(),
            BoundaryConfig {
                x: AxisBoundary::Walls {
                    lo: [0.0; 3],
                    hi: [0.03, 0.0, 0.0],
                },
                y: AxisBoundary::Periodic,
                z: AxisBoundary::no_slip(),
            },
        ] {
            let router = StreamRouter::new(dims, &bc);
            for (x, y, z) in dims.iter_coords() {
                for i in 0..Q {
                    assert_eq!(
                        router.route(x, y, z, i),
                        bc.route_coords(dims, x, y, z, i),
                        "({x},{y},{z}) dir {i} bc {bc:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_uniform_body_force_accumulates() {
        let mut g = FluidGrid::new(Dims::new(2, 2, 2));
        add_uniform_body_force(&mut g, [1e-3, 0.0, -2e-3]);
        add_uniform_body_force(&mut g, [1e-3, 0.0, 0.0]);
        for v in &g.force {
            assert!((v[0] - 2e-3).abs() < 1e-18);
            assert_eq!(v[1], 0.0);
            assert!((v[2] + 2e-3).abs() < 1e-18);
        }
    }
}
