//! Kernel 4, `spread_force_from_fibers_to_fluid`: each fiber node exerts its
//! elastic force onto the fluid nodes of its 4×4×4 influential domain,
//! weighted by the smoothed delta function and the Lagrangian area element.
//!
//! [`spread`] is the one spread every solver runs. It reads stored
//! stencils ([`CubeStencil`], built once per node and step) and applies
//! only the blocks whose brick lies in the range the caller owns: the
//! sequential solver owns every plane, an OpenMP slab or a distributed
//! rank a run of planes, a cube worker a run of cubes in storage order.
//! Each owner walks the fiber nodes in global order, so each force slot
//! receives the same products in the same order whoever owns it.

use std::ops::Range;

use lbm::boundary::BoundaryConfig;
use lbm::grid::{Dims, FluidGrid};

use crate::delta::{CubeIndexer, CubeStencil, DeltaKind};
use crate::sheet::FiberSheet;

/// Kernel 4 through stored stencils: `F(x) += Σ_l f_l δ³(x − X_l) Δs₁Δs₂`
/// over the bricks in `owned`.
///
/// `stencils[l]` is fiber node `l`'s stencil and `forces[l]` its elastic
/// force; `area` is the Lagrangian area element. For every block of every
/// stencil whose brick lies in `owned`, in global node order,
/// `reached(brick)` is called, also for a node whose force is zero, which
/// adds nothing; and `add(flat, f_l · w)` is called at each of the block's
/// nodes. A stencil whose [`CubeStencil::brick_span`] misses `owned` is
/// skipped in O(1), without walking its blocks.
#[inline]
pub fn spread(
    stencils: &[CubeStencil],
    forces: &[[f64; 3]],
    area: f64,
    owned: Range<usize>,
    mut reached: impl FnMut(usize),
    mut add: impl FnMut(usize, [f64; 3]),
) {
    for (stencil, f) in stencils.iter().zip(forces) {
        let span = stencil.brick_span();
        if span.end <= owned.start || span.start >= owned.end {
            continue;
        }
        let f_l = [f[0] * area, f[1] * area, f[2] * area];
        let zero = f_l == [0.0; 3];
        stencil.for_each_block(|brick, block| {
            if owned.contains(&brick) {
                reached(brick);
                if !zero {
                    stencil.for_each_in(block, |flat, w| {
                        add(flat, [f_l[0] * w, f_l[1] * w, f_l[2] * w]);
                    });
                }
            }
        });
    }
}

/// Kernel 4 over the whole structure and the whole grid, through a store
/// built for this call: spreads every node's elastic force into the force
/// arrays of `grid`.
pub fn spread_forces(
    sheet: &FiberSheet,
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    grid: &mut FluidGrid,
) {
    let mut stencils = vec![CubeStencil::default(); sheet.n()];
    CubeIndexer::planes(dims).build(&sheet.pos, kind, bc, &mut stencils);
    spread_into_grid(&stencils, sheet, grid);
}

/// [`spread`] into every plane of `grid`, whose flat index is the plane
/// bricks' ([`CubeIndexer::planes`]).
pub fn spread_into_grid(stencils: &[CubeStencil], sheet: &FiberSheet, grid: &mut FluidGrid) {
    let area = sheet.area_element();
    let force = &mut grid.force;
    spread(
        stencils,
        &sheet.elastic,
        area,
        0..usize::MAX,
        |_| (),
        |node, df| add_force(&mut force[node], df),
    );
}

/// Adds `df` into the force triple `f`, component by component.
#[inline(always)]
pub fn add_force(f: &mut [f64; 3], df: [f64; 3]) {
    f[0] += df[0];
    f[1] += df[1];
    f[2] += df[2];
}

/// Total Eulerian force over the grid (diagnostic: spreading is
/// conservative, so this equals the total Lagrangian force × area element).
pub fn total_grid_force(grid: &FluidGrid) -> [f64; 3] {
    std::array::from_fn(|c| grid.force.iter().map(|f| f[c]).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::{compute_bending_force, compute_elastic_force, compute_stretching_force};

    fn domain() -> (Dims, BoundaryConfig) {
        (Dims::new(24, 24, 24), BoundaryConfig::periodic())
    }

    /// Spreads a single Lagrangian force `f_l` from `pos` into `grid`.
    fn spread_one(
        pos: [f64; 3],
        f_l: [f64; 3],
        kind: DeltaKind,
        bc: &BoundaryConfig,
        grid: &mut FluidGrid,
    ) {
        let stencil = CubeIndexer::planes(grid.dims).stencil(pos, kind, bc);
        spread(
            &[stencil],
            &[f_l],
            1.0,
            0..usize::MAX,
            |_| (),
            |node, df| add_force(&mut grid.force[node], df),
        );
    }

    #[test]
    fn single_node_force_is_conserved() {
        let (dims, bc) = domain();
        let mut grid = FluidGrid::new(dims);
        spread_one(
            [10.3, 11.7, 12.1],
            [1.0, -2.0, 0.5],
            DeltaKind::Peskin4,
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
        spread_one(p, [1.0, 0.0, 0.0], DeltaKind::Peskin4, &bc, &mut grid);
        for (x, y, z) in dims.iter_coords() {
            let node = dims.idx(x, y, z);
            if grid.force[node][0] != 0.0 {
                assert!(
                    (x as f64 - p[0]).abs() < 2.0
                        && (y as f64 - p[1]).abs() < 2.0
                        && (z as f64 - p[2]).abs() < 2.0,
                    "force leaked to ({x},{y},{z})"
                );
            }
        }
    }

    /// A deformed 8×8 sheet centred at `center`, with its elastic forces.
    fn deformed_sheet(center: [f64; 3], amplitude: f64) -> FiberSheet {
        let mut sheet = FiberSheet::paper_sheet(8, 4.0, center, 1e-3, 0.5);
        for (i, p) in sheet.pos.iter_mut().enumerate() {
            p[0] += amplitude * ((i * 37 % 11) as f64 - 5.0) * 0.1;
        }
        compute_bending_force(&mut sheet);
        compute_stretching_force(&mut sheet);
        compute_elastic_force(&mut sheet);
        sheet
    }

    #[test]
    fn whole_sheet_spread_conserves_total_force() {
        let (dims, bc) = domain();
        let sheet = deformed_sheet([12.0, 12.0, 12.0], 0.05);
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

    /// Owners of x-plane ranges that tile the grid, each spreading the
    /// blocks on its planes into a grid of those planes, give the
    /// whole-grid spread bit for bit: one-plane ranges, uneven ranges, and
    /// ranges cut through the stencils of a sheet that wraps across the
    /// periodic x boundary.
    #[test]
    fn owned_plane_ranges_reassemble_the_whole_grid_spread() {
        let (dims, bc) = domain();
        let sheet = deformed_sheet([0.6, 12.0, 12.0], 0.4);
        let mut stencils = vec![CubeStencil::default(); sheet.n()];
        CubeIndexer::planes(dims).build(&sheet.pos, DeltaKind::Peskin4, &bc, &mut stencils);
        let mut whole = FluidGrid::new(dims);
        spread_into_grid(&stencils, &sheet, &mut whole);
        let one_plane_each: Vec<_> = (0..dims.nx).map(|x| x..x + 1).collect();
        let uneven = vec![0..1, 1..2, 2..9, 9..23, 23..24];
        for tiling in [one_plane_each, uneven] {
            let parts: Vec<FluidGrid> = tiling
                .iter()
                .map(|xs| {
                    let mut part = FluidGrid::new(dims).planes(xs.clone());
                    let first = xs.start * dims.ny * dims.nz;
                    let area = sheet.area_element();
                    spread(
                        &stencils,
                        &sheet.elastic,
                        area,
                        xs.clone(),
                        |_| (),
                        |node, df| add_force(&mut part.force[node - first], df),
                    );
                    part
                })
                .collect();
            let mut joined = FluidGrid::empty();
            joined.concat_planes(&parts);
            assert_eq!(joined.force, whole.force, "{tiling:?}");
        }
        assert!(
            whole.force[dims.idx(dims.nx - 1, 12, 12)][0] != 0.0,
            "no wrap"
        );
    }

    #[test]
    fn spreading_accumulates_rather_than_overwrites() {
        let (dims, bc) = domain();
        let mut grid = FluidGrid::new(dims);
        for _ in 0..2 {
            spread_one(
                [10.0, 10.0, 10.0],
                [1.0, 0.0, 0.0],
                DeltaKind::Hat2,
                &bc,
                &mut grid,
            );
        }
        let node = dims.idx(10, 10, 10);
        assert!((grid.force[node][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_spread_wraps_across_boundary() {
        let dims = Dims::new(8, 8, 8);
        let bc = BoundaryConfig::periodic();
        let mut grid = FluidGrid::new(dims);
        spread_one(
            [0.1, 4.0, 4.0],
            [1.0, 0.0, 0.0],
            DeltaKind::Peskin4,
            &bc,
            &mut grid,
        );
        // Some force must land on the wrapped x = 7 plane.
        let wrapped: f64 = (0..8)
            .flat_map(|y| (0..8).map(move |z| (y, z)))
            .map(|(y, z)| grid.force[dims.idx(7, y, z)][0])
            .sum();
        assert!(wrapped > 0.0, "no force wrapped to x = 7");
        let t = total_grid_force(&grid);
        assert!((t[0] - 1.0).abs() < 1e-12, "conservation with wrap: {t:?}");
    }
}
