//! Kernel 8, `move_fibers`: interpolate the fluid velocity at each fiber
//! node through the same smoothed delta function used for spreading, then
//! advance the node with it (`dX/dt = U(X)`, forward Euler with the LBM
//! time step, dt = 1 in lattice units).
//!
//! [`interp`] is the one interpolation every solver runs. It reads the
//! stencil kernel 4 stored for the node ([`CubeStencil`]), so no solver
//! evaluates the delta kernel in kernel 8. A distributed rank runs it over
//! its own planes only, for its partial sum.

use lbm::boundary::BoundaryConfig;
use lbm::grid::{Dims, FluidGrid};

use crate::delta::{CubeIndexer, CubeStencil, DeltaKind};
use crate::sheet::FiberSheet;

/// Interpolates the fluid velocity through a stored stencil,
/// `U(X) = Σ_x u(x) δ³(x − X)` (h³ = 1), over the nodes whose brick
/// `owns(brick)` accepts. `velocity(flat)` is the velocity at the node
/// with that flat index. The products are summed in
/// [`CubeStencil::for_each`]'s order.
#[inline]
pub fn interp(
    stencil: &CubeStencil,
    mut owns: impl FnMut(usize) -> bool,
    mut velocity: impl FnMut(usize) -> [f64; 3],
) -> [f64; 3] {
    let mut u = [0.0; 3];
    stencil.for_each(|brick, flat, w| {
        if owns(brick) {
            let v = velocity(flat);
            u[0] += v[0] * w;
            u[1] += v[1] * w;
            u[2] += v[2] * w;
        }
    });
    u
}

/// Kernel 8 over a range of fiber nodes: each position in `pos` moves
/// with the velocity of `grid` interpolated through the matching entry of
/// `stencils` (plane bricks, [`CubeIndexer::planes`]), `X ← X + U(X) dt`.
/// Reads only `grid`, so disjoint node ranges can move in parallel.
pub fn move_through(pos: &mut [[f64; 3]], stencils: &[CubeStencil], grid: &FluidGrid, dt: f64) {
    debug_assert_eq!(pos.len(), stencils.len());
    for (p, stencil) in pos.iter_mut().zip(stencils) {
        let u = interp(stencil, |_| true, |node| grid.u[node]);
        p[0] += u[0] * dt;
        p[1] += u[1] * dt;
        p[2] += u[2] * dt;
    }
}

/// Kernel 8 over the whole structure, through a store built for this
/// call: moves every fiber node with the interpolated fluid velocity.
pub fn move_fibers(
    sheet: &mut FiberSheet,
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    grid: &FluidGrid,
    dt: f64,
) {
    let mut stencils = vec![CubeStencil::default(); sheet.n()];
    CubeIndexer::planes(dims).build(&sheet.pos, kind, bc, &mut stencils);
    move_through(&mut sheet.pos, &stencils, grid, dt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The velocity at `pos` of the field `u(x, y, z)`.
    fn interpolate(
        pos: [f64; 3],
        kind: DeltaKind,
        dims: Dims,
        bc: &BoundaryConfig,
        u: impl Fn(usize, usize, usize) -> [f64; 3],
    ) -> [f64; 3] {
        let stencil = CubeIndexer::planes(dims).stencil(pos, kind, bc);
        interp(
            &stencil,
            |_| true,
            |node| {
                let (x, y, z) = dims.coords(node);
                u(x, y, z)
            },
        )
    }

    /// A grid whose every node moves at `u`.
    fn uniform_grid(dims: Dims, u: [f64; 3]) -> FluidGrid {
        let mut grid = FluidGrid::new(dims);
        grid.u.fill(u);
        grid
    }

    fn linear(x: usize, y: usize, z: usize) -> [f64; 3] {
        [x as f64, 2.0 * y as f64, -0.5 * z as f64]
    }

    #[test]
    fn constant_field_interpolated_exactly() {
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::periodic();
        let u = interpolate([7.3, 8.9, 5.1], DeltaKind::Peskin4, dims, &bc, |_, _, _| {
            [0.1, -0.2, 0.3]
        });
        assert!((u[0] - 0.1).abs() < 1e-13);
        assert!((u[1] + 0.2).abs() < 1e-13);
        assert!((u[2] - 0.3).abs() < 1e-13);
    }

    #[test]
    fn linear_field_interpolated_exactly_by_poly_kernel() {
        // The polynomial 4-point kernel's vanishing first moment reproduces
        // linear fields exactly away from wrap-around.
        let dims = Dims::new(32, 32, 32);
        let bc = BoundaryConfig::periodic();
        let p = [10.25, 14.75, 9.5];
        let u = interpolate(p, DeltaKind::Peskin4Poly, dims, &bc, linear);
        assert!((u[0] - p[0]).abs() < 1e-11, "{u:?}");
        assert!((u[1] - 2.0 * p[1]).abs() < 1e-11);
        assert!((u[2] + 0.5 * p[2]).abs() < 1e-11);
        // The cosine kernel of the paper is close but not exact: its first
        // moment error peaks at ~0.021 per unit slope.
        let uc = interpolate(p, DeltaKind::Peskin4, dims, &bc, linear);
        assert!((uc[0] - p[0]).abs() < 0.022, "{uc:?}");
        assert!((uc[1] - 2.0 * p[1]).abs() < 0.044);
    }

    /// Summing the parts of each owner of an x-plane range gives the whole
    /// interpolation up to the order of the final additions.
    #[test]
    fn owned_parts_sum_to_the_whole() {
        let dims = Dims::new(12, 8, 8);
        let bc = BoundaryConfig::periodic();
        let stencil = CubeIndexer::planes(dims).stencil([0.4, 3.3, 6.8], DeltaKind::Peskin4, &bc);
        let velocity = |node| linear(dims.coords(node).0, 1, 2);
        let whole = interp(&stencil, |_| true, velocity);
        let mut sum = [0.0; 3];
        for xs in [0..1, 1..11, 11..12] {
            let part = interp(&stencil, |x| xs.contains(&x), velocity);
            (0..3).for_each(|a| sum[a] += part[a]);
        }
        for a in 0..3 {
            assert!((sum[a] - whole[a]).abs() < 1e-12, "{sum:?} vs {whole:?}");
        }
    }

    #[test]
    fn move_fibers_advects_with_dt() {
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::periodic();
        let mut sheet = FiberSheet::paper_sheet(3, 2.0, [8.0, 8.0, 8.0], 1.0, 1.0);
        let before = sheet.pos.clone();
        let grid = uniform_grid(dims, [0.5, 0.0, -0.25]);
        move_fibers(&mut sheet, DeltaKind::Peskin4, dims, &bc, &grid, 2.0);
        for (p, q) in sheet.pos.iter().zip(&before) {
            assert!((p[0] - (q[0] + 1.0)).abs() < 1e-12);
            assert!((p[1] - q[1]).abs() < 1e-12);
            assert!((p[2] - (q[2] - 0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_velocity_keeps_structure_still() {
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::tunnel();
        let mut sheet = FiberSheet::paper_sheet(4, 3.0, [8.0, 8.0, 8.0], 1.0, 1.0);
        let before = sheet.pos.clone();
        let grid = uniform_grid(dims, [0.0; 3]);
        move_fibers(&mut sheet, DeltaKind::Peskin4, dims, &bc, &grid, 1.0);
        assert_eq!(sheet.pos, before);
    }

    #[test]
    fn spread_then_interpolate_round_trip_is_symmetric() {
        // The spread and interpolation operators are adjoint: interpolating
        // the field produced by spreading a unit force returns
        // Σ w² — and two different Lagrangian points X, Y satisfy
        // interp_X(spread_Y) = interp_Y(spread_X). Verify the symmetry.
        use crate::spread::spread;
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::periodic();
        let indexer = CubeIndexer::planes(dims);
        let stencil = |p| indexer.stencil(p, DeltaKind::Peskin4, &bc);
        let (x_pt, y_pt) = (stencil([7.3, 8.1, 6.9]), stencil([8.2, 7.4, 7.7]));
        // The spread force, read back as a velocity field.
        let field_from = |s: &CubeStencil| {
            let mut field = vec![0.0; dims.n()];
            spread(
                &[*s],
                &[[1.0, 0.0, 0.0]],
                1.0,
                0..usize::MAX,
                |_| (),
                |node, df| {
                    field[node] += df[0];
                },
            );
            field
        };
        let (gx, gy) = (field_from(&x_pt), field_from(&y_pt));
        let a = interp(&x_pt, |_| true, |node| [gy[node], 0.0, 0.0])[0];
        let b = interp(&y_pt, |_| true, |node| [gx[node], 0.0, 0.0])[0];
        assert!((a - b).abs() < 1e-13, "adjointness violated: {a} vs {b}");
        assert!(a > 0.0, "overlapping kernels must couple");
    }

    proptest! {
        /// Constant fields are interpolated exactly at any interior point,
        /// any kernel (partition of unity in action).
        #[test]
        fn prop_constant_reproduction(
            px in 4.0f64..12.0,
            py in 4.0f64..12.0,
            pz in 4.0f64..12.0,
        ) {
            let dims = Dims::new(16, 16, 16);
            let bc = BoundaryConfig::periodic();
            for kind in [DeltaKind::Peskin4, DeltaKind::Peskin4Poly, DeltaKind::Hat2, DeltaKind::Roma3] {
                let u = interpolate([px, py, pz], kind, dims, &bc, |_, _, _| [1.0, 2.0, 3.0]);
                prop_assert!((u[0] - 1.0).abs() < 1e-12, "{:?}", kind);
                prop_assert!((u[1] - 2.0).abs() < 1e-12);
                prop_assert!((u[2] - 3.0).abs() < 1e-12);
            }
        }
    }
}
