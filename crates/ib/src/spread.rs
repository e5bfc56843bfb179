//! Kernel 4, `spread_force_from_fibers_to_fluid`: each fiber node exerts its
//! elastic force onto the fluid nodes of its 4×4×4 influential domain,
//! weighted by the smoothed delta function and the Lagrangian area element.
//!
//! [`spread_into_planes`] is the one flat spread: it keeps what lands on a
//! range of x-planes. The sequential solver runs it over the whole grid,
//! each OpenMP slab and each distributed rank over its own planes. The
//! cube solver does not use it: each cube owner applies stored
//! [`crate::delta::Stencil`]s to its own cubes.

use std::ops::Range;

use lbm::boundary::BoundaryConfig;
use lbm::grid::{Dims, FluidGrid, Slab};

use crate::delta::{DeltaKind, Stencil};
use crate::sheet::FiberSheet;

/// Destination of spread forces: the force arrays of a run of whole
/// x-planes. [`FluidGrid`] serves a whole grid or a grid holding some
/// planes of a larger one; [`Slab`] serves a slab of a shared grid.
pub trait ForceSink {
    /// Adds `df` to the Eulerian force at `node`, the flat node index
    /// counted from the sink's first node.
    fn add_force(&mut self, node: usize, df: [f64; 3]);
}

impl ForceSink for FluidGrid {
    #[inline]
    fn add_force(&mut self, node: usize, df: [f64; 3]) {
        self.fx[node] += df[0];
        self.fy[node] += df[1];
        self.fz[node] += df[2];
    }
}

impl ForceSink for Slab<'_> {
    #[inline]
    fn add_force(&mut self, node: usize, df: [f64; 3]) {
        self.fx[node] += df[0];
        self.fy[node] += df[1];
        self.fz[node] += df[2];
    }
}

/// Spreads a single Lagrangian force `f_l` (already scaled by the area
/// element) from position `pos` into the stencil nodes on the x-planes
/// `xs`; `sink` holds those planes.
#[inline]
fn spread_point<S: ForceSink>(
    pos: [f64; 3],
    f_l: [f64; 3],
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    xs: &Range<usize>,
    sink: &mut S,
) {
    let first = xs.start * dims.ny * dims.nz;
    Stencil::new(pos, kind, dims, bc).for_each(|inf| {
        if xs.contains(&inf.x) {
            let w = inf.weight;
            let node = dims.idx(inf.x, inf.y, inf.z) - first;
            sink.add_force(node, [f_l[0] * w, f_l[1] * w, f_l[2] * w]);
        }
    });
}

/// Spreads a single Lagrangian force `f_l` (already scaled by the area
/// element) from position `pos` into a sink holding the whole grid.
#[inline]
pub fn spread_node<S: ForceSink>(
    pos: [f64; 3],
    f_l: [f64; 3],
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    sink: &mut S,
) {
    spread_point(pos, f_l, kind, dims, bc, &(0..dims.nx), sink);
}

/// Whether the support of a kernel centred at `px` reaches a plane of `xs`.
/// It walks the candidate planes [`Stencil::new`] walks, so it never says
/// no to a plane the stencil would hold.
#[inline]
fn reaches_planes(px: f64, kind: DeltaKind, nx: usize, periodic: bool, xs: &Range<usize>) -> bool {
    let hs = kind.half_support();
    let planes = xs.start as i64..xs.end as i64;
    ((px - hs).ceil() as i64..=(px + hs).floor() as i64).any(|j| {
        let x = if periodic { j.rem_euclid(nx as i64) } else { j };
        planes.contains(&x)
    })
}

/// Kernel 4 into the x-planes `xs` of the grid: adds every fiber node's
/// force `f_l δ³(x − X_l) Δs₁Δs₂` at the stencil nodes on those planes.
/// `sink` holds exactly the planes `xs`, node 0 being `(xs.start, 0, 0)`.
///
/// The fiber nodes are walked in global order, so each force slot receives
/// the same products in the same order whatever range it is spread in. A
/// node whose support misses `xs` is skipped before its weights are
/// evaluated; stencil nodes outside `xs` are dropped.
pub fn spread_into_planes<S: ForceSink>(
    sheet: &FiberSheet,
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    xs: Range<usize>,
    sink: &mut S,
) {
    let area = sheet.area_element();
    let periodic = bc.x.is_periodic();
    for (pos, f) in sheet.pos.iter().zip(&sheet.elastic) {
        if reaches_planes(pos[0], kind, dims.nx, periodic, &xs) {
            let f_l = [f[0] * area, f[1] * area, f[2] * area];
            spread_point(*pos, f_l, kind, dims, bc, &xs, sink);
        }
    }
}

/// Kernel 4 over the whole structure and the whole grid: spreads every
/// node's elastic force. `F(x) += Σ_l f_l δ³(x − X_l) Δs₁Δs₂`.
pub fn spread_forces<S: ForceSink>(
    sheet: &FiberSheet,
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    sink: &mut S,
) {
    spread_into_planes(sheet, kind, dims, bc, 0..dims.nx, sink);
}

/// Total Eulerian force over the grid (diagnostic: spreading is
/// conservative, so this equals the total Lagrangian force × area element).
pub fn total_grid_force(grid: &FluidGrid) -> [f64; 3] {
    [
        grid.fx.iter().sum(),
        grid.fy.iter().sum(),
        grid.fz.iter().sum(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::{compute_bending_force, compute_elastic_force, compute_stretching_force};

    fn domain() -> (Dims, BoundaryConfig) {
        (Dims::new(24, 24, 24), BoundaryConfig::periodic())
    }

    #[test]
    fn single_node_force_is_conserved() {
        let (dims, bc) = domain();
        let mut grid = FluidGrid::new(dims);
        spread_node(
            [10.3, 11.7, 12.1],
            [1.0, -2.0, 0.5],
            DeltaKind::Peskin4,
            dims,
            &bc,
            &mut grid,
        );
        let t = total_grid_force(&grid);
        assert!((t[0] - 1.0).abs() < 1e-12, "{t:?}");
        assert!((t[1] + 2.0).abs() < 1e-12);
        assert!((t[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spread_is_local_to_influential_domain() {
        let (dims, bc) = domain();
        let mut grid = FluidGrid::new(dims);
        let p = [10.5, 10.5, 10.5];
        spread_node(p, [1.0, 0.0, 0.0], DeltaKind::Peskin4, dims, &bc, &mut grid);
        for (x, y, z) in dims.iter_coords() {
            let node = dims.idx(x, y, z);
            if grid.fx[node] != 0.0 {
                assert!(
                    (x as f64 - p[0]).abs() < 2.0
                        && (y as f64 - p[1]).abs() < 2.0
                        && (z as f64 - p[2]).abs() < 2.0,
                    "force leaked to ({x},{y},{z})"
                );
            }
        }
    }

    #[test]
    fn whole_sheet_spread_conserves_total_force() {
        let (dims, bc) = domain();
        let mut sheet = FiberSheet::paper_sheet(8, 4.0, [12.0, 12.0, 12.0], 1e-3, 0.5);
        // Deform so elastic forces are non-trivial.
        for (i, p) in sheet.pos.iter_mut().enumerate() {
            p[0] += 0.05 * ((i * 37 % 11) as f64 - 5.0) * 0.1;
        }
        compute_bending_force(&mut sheet);
        compute_stretching_force(&mut sheet);
        compute_elastic_force(&mut sheet);
        let mut grid = FluidGrid::new(dims);
        spread_forces(&sheet, DeltaKind::Peskin4, dims, &bc, &mut grid);
        let lag = sheet.total_elastic_force();
        let area = sheet.area_element();
        let eul = total_grid_force(&grid);
        for a in 0..3 {
            assert!(
                (eul[a] - lag[a] * area).abs() < 1e-10,
                "axis {a}: grid {} vs lagrangian {}",
                eul[a],
                lag[a] * area
            );
        }
    }

    /// Spreading into x-plane ranges that tile the grid, one grid of
    /// planes each, gives the whole-grid spread bit for bit: one-plane
    /// ranges, uneven ranges, and ranges cut through the stencils of a
    /// sheet that wraps across the periodic x boundary.
    #[test]
    fn plane_ranges_reassemble_the_whole_grid_spread() {
        let (dims, bc) = domain();
        let mut sheet = FiberSheet::paper_sheet(8, 4.0, [0.6, 12.0, 12.0], 1e-3, 0.5);
        for (i, p) in sheet.pos.iter_mut().enumerate() {
            p[0] += 0.4 * ((i * 37 % 11) as f64 - 5.0) * 0.1;
        }
        compute_bending_force(&mut sheet);
        compute_stretching_force(&mut sheet);
        compute_elastic_force(&mut sheet);
        let mut whole = FluidGrid::new(dims);
        spread_forces(&sheet, DeltaKind::Peskin4, dims, &bc, &mut whole);
        let one_plane_each: Vec<_> = (0..dims.nx).map(|x| x..x + 1).collect();
        let uneven = vec![0..1, 1..2, 2..9, 9..23, 23..24];
        for tiling in [one_plane_each, uneven] {
            let parts: Vec<FluidGrid> = tiling
                .iter()
                .map(|xs| {
                    let mut part = FluidGrid::new(dims).planes(xs.clone());
                    spread_into_planes(
                        &sheet,
                        DeltaKind::Peskin4,
                        dims,
                        &bc,
                        xs.clone(),
                        &mut part,
                    );
                    part
                })
                .collect();
            let mut joined = FluidGrid::empty();
            joined.concat_planes(&parts);
            assert_eq!(joined.fx, whole.fx, "{tiling:?}");
            assert_eq!(joined.fy, whole.fy, "{tiling:?}");
            assert_eq!(joined.fz, whole.fz, "{tiling:?}");
        }
        assert!(whole.fx[dims.idx(dims.nx - 1, 12, 12)] != 0.0, "no wrap");
    }

    #[test]
    fn spreading_accumulates_rather_than_overwrites() {
        let (dims, bc) = domain();
        let mut grid = FluidGrid::new(dims);
        spread_node(
            [10.0, 10.0, 10.0],
            [1.0, 0.0, 0.0],
            DeltaKind::Hat2,
            dims,
            &bc,
            &mut grid,
        );
        spread_node(
            [10.0, 10.0, 10.0],
            [1.0, 0.0, 0.0],
            DeltaKind::Hat2,
            dims,
            &bc,
            &mut grid,
        );
        let node = dims.idx(10, 10, 10);
        assert!((grid.fx[node] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_spread_wraps_across_boundary() {
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let mut grid = FluidGrid::new(dims);
        spread_node(
            [0.1, 4.0, 4.0],
            [1.0, 0.0, 0.0],
            DeltaKind::Peskin4,
            dims,
            &bc,
            &mut grid,
        );
        // Some force must land on the wrapped x = 7 plane.
        let wrapped: f64 = (0..8)
            .flat_map(|y| (0..8).map(move |z| (y, z)))
            .map(|(y, z)| grid.fx[dims.idx(7, y, z)])
            .sum();
        assert!(wrapped > 0.0, "no force wrapped to x = 7");
        let t = total_grid_force(&grid);
        assert!((t[0] - 1.0).abs() < 1e-12, "conservation with wrap: {t:?}");
    }
}
