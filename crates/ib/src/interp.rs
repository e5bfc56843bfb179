//! Kernel 8, `move_fibers`: interpolate the fluid velocity at each fiber
//! node through the same smoothed delta function used for spreading, then
//! advance the node with it (`dX/dt = U(X)`, forward Euler with the LBM
//! time step, dt = 1 in lattice units).

use lbm::boundary::BoundaryConfig;
use lbm::grid::{Dims, FluidGrid};

use crate::delta::{for_each_influence, DeltaKind};
use crate::sheet::FiberSheet;

/// Source of Eulerian velocities. The sequential solver reads the flat
/// grid; the cube solver reads cube-blocked storage.
pub trait VelocityField {
    /// Velocity at lattice node `(x, y, z)`.
    fn velocity_at(&self, x: usize, y: usize, z: usize) -> [f64; 3];
}

impl VelocityField for FluidGrid {
    #[inline]
    fn velocity_at(&self, x: usize, y: usize, z: usize) -> [f64; 3] {
        let node = self.dims.idx(x, y, z);
        [self.ux[node], self.uy[node], self.uz[node]]
    }
}

/// Interpolates the fluid velocity at a Lagrangian position:
/// `U(X) = Σ_x u(x) δ³(x − X)` (h³ = 1).
#[inline]
pub fn interpolate_velocity<V: VelocityField>(
    pos: [f64; 3],
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    field: &V,
) -> [f64; 3] {
    let mut u = [0.0; 3];
    for_each_influence(pos, kind, dims, bc, |inf| {
        let v = field.velocity_at(inf.x, inf.y, inf.z);
        u[0] += v[0] * inf.weight;
        u[1] += v[1] * inf.weight;
        u[2] += v[2] * inf.weight;
    });
    u
}

/// Kernel 8 over the whole structure: moves every fiber node with the
/// interpolated fluid velocity, `X ← X + U(X) dt`.
pub fn move_fibers<V: VelocityField>(
    sheet: &mut FiberSheet,
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    field: &V,
    dt: f64,
) {
    move_nodes(&mut sheet.pos, kind, dims, bc, field, dt);
}

/// Kernel 8 over a range of fiber nodes: each position in `pos` moves
/// with the velocity interpolated at it. Reads only `field`, so disjoint
/// node ranges can move in parallel.
pub fn move_nodes<V: VelocityField>(
    pos: &mut [[f64; 3]],
    kind: DeltaKind,
    dims: Dims,
    bc: &BoundaryConfig,
    field: &V,
    dt: f64,
) {
    for p in pos {
        let u = interpolate_velocity(*p, kind, dims, bc, field);
        p[0] += u[0] * dt;
        p[1] += u[1] * dt;
        p[2] += u[2] * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    struct Uniform([f64; 3]);
    impl VelocityField for Uniform {
        fn velocity_at(&self, _: usize, _: usize, _: usize) -> [f64; 3] {
            self.0
        }
    }

    struct Linear;
    impl VelocityField for Linear {
        fn velocity_at(&self, x: usize, y: usize, z: usize) -> [f64; 3] {
            [x as f64, 2.0 * y as f64, -0.5 * z as f64]
        }
    }

    #[test]
    fn constant_field_interpolated_exactly() {
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::periodic();
        let u = interpolate_velocity(
            [7.3, 8.9, 5.1],
            DeltaKind::Peskin4,
            dims,
            &bc,
            &Uniform([0.1, -0.2, 0.3]),
        );
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
        let u = interpolate_velocity(p, DeltaKind::Peskin4Poly, dims, &bc, &Linear);
        assert!((u[0] - p[0]).abs() < 1e-11, "{u:?}");
        assert!((u[1] - 2.0 * p[1]).abs() < 1e-11);
        assert!((u[2] + 0.5 * p[2]).abs() < 1e-11);
        // The cosine kernel of the paper is close but not exact: its first
        // moment error peaks at ~0.021 per unit slope.
        let uc = interpolate_velocity(p, DeltaKind::Peskin4, dims, &bc, &Linear);
        assert!((uc[0] - p[0]).abs() < 0.022, "{uc:?}");
        assert!((uc[1] - 2.0 * p[1]).abs() < 0.044);
    }

    #[test]
    fn move_fibers_advects_with_dt() {
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::periodic();
        let mut sheet = FiberSheet::paper_sheet(3, 2.0, [8.0, 8.0, 8.0], 1.0, 1.0);
        let before = sheet.pos.clone();
        move_fibers(
            &mut sheet,
            DeltaKind::Peskin4,
            dims,
            &bc,
            &Uniform([0.5, 0.0, -0.25]),
            2.0,
        );
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
        move_fibers(
            &mut sheet,
            DeltaKind::Peskin4,
            dims,
            &bc,
            &Uniform([0.0; 3]),
            1.0,
        );
        assert_eq!(sheet.pos, before);
    }

    #[test]
    fn spread_then_interpolate_round_trip_is_symmetric() {
        // The spread and interpolation operators are adjoint: interpolating
        // the field produced by spreading a unit force returns
        // Σ w² — and two different Lagrangian points X, Y satisfy
        // interp_X(spread_Y) = interp_Y(spread_X). Verify the symmetry.
        use crate::spread::spread_node;
        use lbm::grid::FluidGrid;
        let dims = Dims::new(16, 16, 16);
        let bc = BoundaryConfig::periodic();
        let x_pt = [7.3, 8.1, 6.9];
        let y_pt = [8.2, 7.4, 7.7];

        let field_from = |p: [f64; 3]| -> FluidGrid {
            let mut g = FluidGrid::new(dims);
            spread_node(p, [1.0, 0.0, 0.0], DeltaKind::Peskin4, dims, &bc, &mut g);
            // Treat the spread force as a velocity field for the adjoint test.
            g.ux.copy_from_slice(&g.fx.clone());
            g
        };
        let gx = field_from(x_pt);
        let gy = field_from(y_pt);
        let a = interpolate_velocity(x_pt, DeltaKind::Peskin4, dims, &bc, &gy)[0];
        let b = interpolate_velocity(y_pt, DeltaKind::Peskin4, dims, &bc, &gx)[0];
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
                let u = interpolate_velocity([px, py, pz], kind, dims, &bc, &Uniform([1.0, 2.0, 3.0]));
                prop_assert!((u[0] - 1.0).abs() < 1e-12, "{:?}", kind);
                prop_assert!((u[1] - 2.0).abs() < 1e-12);
                prop_assert!((u[2] - 3.0).abs() < 1e-12);
            }
        }
    }
}
