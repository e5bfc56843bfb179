//! Kernel 4, `spread_force_from_fibers_to_fluid`: each fiber node exerts its
//! elastic force onto the fluid nodes of its 4×4×4 influential domain,
//! weighted by the smoothed delta function and the Lagrangian area element.

use lbm::boundary::BoundaryConfig;
use lbm::grid::{Dims, FluidGrid};

use crate::delta::{for_each_influence, DeltaKind};
use crate::sheet::FiberSheet;

/// Destination of spread forces. The sequential solver implements it on
/// [`FluidGrid`] directly; the OpenMP-style solver stages contributions in
/// per-slab buckets. The cube solver does not use it: each cube owner
/// applies stored [`crate::delta::Stencil`]s to its own cubes.
pub trait ForceSink {
    /// Adds `df` to the Eulerian force at node `(x, y, z)`.
    fn add_force(&mut self, x: usize, y: usize, z: usize, df: [f64; 3]);
}

impl ForceSink for FluidGrid {
    #[inline]
    fn add_force(&mut self, x: usize, y: usize, z: usize, df: [f64; 3]) {
        let node = self.dims.idx(x, y, z);
        self.fx[node] += df[0];
        self.fy[node] += df[1];
        self.fz[node] += df[2];
    }
}

/// Spreads a single Lagrangian force `f_l` (already scaled by the area
/// element) from position `pos` into the sink. Exposed for the parallel
/// solvers, which iterate fiber nodes themselves.
#[inline]
pub fn spread_node<S: ForceSink>(
    pos: [f64; 3],
    f_l: [f64; 3],
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    sink: &mut S,
) {
    for_each_influence(pos, kind, dims, bc, |inf| {
        sink.add_force(
            inf.x,
            inf.y,
            inf.z,
            [
                f_l[0] * inf.weight,
                f_l[1] * inf.weight,
                f_l[2] * inf.weight,
            ],
        );
    });
}

/// Kernel 4 over the whole structure: spreads every node's elastic force.
/// `F(x) += Σ_l f_l δ³(x − X_l) Δs₁Δs₂`.
pub fn spread_forces<S: ForceSink>(
    sheet: &FiberSheet,
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    sink: &mut S,
) {
    let area = sheet.area_element();
    for (pos, f) in sheet.pos.iter().zip(&sheet.elastic) {
        let f_l = [f[0] * area, f[1] * area, f[2] * area];
        spread_node(*pos, f_l, kind, dims, bc, sink);
    }
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
