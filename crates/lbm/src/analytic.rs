//! Analytic solutions of the incompressible Navier–Stokes equations used to
//! validate the fluid kernels: the decaying Taylor–Green vortex (periodic),
//! body-force-driven Poiseuille channel flow, and lid-driven Couette flow.
//!
//! The paper verifies its parallel results against the sequential program;
//! `tests/physics_validation.rs` and `tests/moving_wall.rs` additionally
//! verify the sequential solver against these solutions, and
//! `examples/taylor_green.rs` measures its convergence order.

use crate::grid::{Dims, FluidGrid};

/// Decaying 2D Taylor–Green vortex embedded in a 3D periodic box:
///
/// `u = U sin(kx·x') cos(ky·y') exp(−ν(kx²+ky²) t)`
/// `v = −U (kx/ky) cos(kx·x') sin(ky·y') exp(−ν(kx²+ky²) t)`
///
/// with `x' = x + ½`, `kx = 2π/Nx`, `ky = 2π/Ny` (the half shift centres the
/// vortex pattern on the half-way lattice, which is immaterial for the decay
/// rate). The z velocity vanishes.
#[derive(Clone, Copy, Debug)]
pub struct TaylorGreen {
    pub dims: Dims,
    /// Peak initial velocity U (keep well below c_s ≈ 0.577).
    pub u0: f64,
    /// Kinematic viscosity ν.
    pub nu: f64,
}

impl TaylorGreen {
    /// Wavenumbers `(kx, ky)`.
    pub fn wavenumbers(&self) -> (f64, f64) {
        let kx = 2.0 * std::f64::consts::PI / self.dims.nx as f64;
        let ky = 2.0 * std::f64::consts::PI / self.dims.ny as f64;
        (kx, ky)
    }

    /// Analytic velocity at node `(x, y, z)` and time `t` (lattice units).
    pub fn velocity(&self, x: usize, y: usize, _z: usize, t: f64) -> [f64; 3] {
        let (kx, ky) = self.wavenumbers();
        let decay = (-self.nu * (kx * kx + ky * ky) * t).exp();
        let xf = x as f64;
        let yf = y as f64;
        [
            self.u0 * (kx * xf).sin() * (ky * yf).cos() * decay,
            -self.u0 * (kx / ky) * (kx * xf).cos() * (ky * yf).sin() * decay,
            0.0,
        ]
    }

    /// Total kinetic energy decays as `E(t) = E(0) exp(−2ν(kx²+ky²) t)`.
    pub fn energy_ratio(&self, t: f64) -> f64 {
        let (kx, ky) = self.wavenumbers();
        (-2.0 * self.nu * (kx * kx + ky * ky) * t).exp()
    }
}

/// Steady Poiseuille flow in a channel of `ny` nodes driven by a uniform
/// body force `g` along x, with half-way bounce-back walls (the physical
/// walls sit at `y = −½` and `y = ny − ½`, so the channel width is `H = ny`):
///
/// `u(y) = g/(2ν) · [ (H/2)² − (y − (ny−1)/2)² ]`
#[derive(Clone, Copy, Debug)]
pub struct Poiseuille {
    pub ny: usize,
    pub g: f64,
    pub nu: f64,
}

impl Poiseuille {
    /// Analytic x velocity at node row `y`.
    pub fn ux(&self, y: usize) -> f64 {
        let h = self.ny as f64;
        let c = (self.ny as f64 - 1.0) / 2.0;
        let d = y as f64 - c;
        self.g / (2.0 * self.nu) * ((h / 2.0) * (h / 2.0) - d * d)
    }

    /// Peak (centre-line) velocity.
    pub fn u_max(&self) -> f64 {
        let h = self.ny as f64;
        self.g * h * h / (8.0 * self.nu)
    }
}

/// Steady Couette flow: lid at `y = ny − ½` moving with `u_lid` along x,
/// fixed wall at `y = −½`. The velocity profile is linear between the
/// half-way wall planes: `u(y) = u_lid (y + ½) / ny`.
#[derive(Clone, Copy, Debug)]
pub struct Couette {
    pub ny: usize,
    pub u_lid: f64,
}

impl Couette {
    /// Analytic x velocity at node row `y`.
    pub fn ux(&self, y: usize) -> f64 {
        self.u_lid * (y as f64 + 0.5) / self.ny as f64
    }
}

/// L2 norm of the difference between the grid's velocity field and an
/// analytic field, normalised by node count.
pub fn velocity_l2_error<F>(grid: &FluidGrid, reference: F) -> f64
where
    F: Fn(usize, usize, usize) -> [f64; 3],
{
    let dims = grid.dims;
    let mut acc = 0.0;
    for (x, y, z) in dims.iter_coords() {
        let node = dims.idx(x, y, z);
        let (u, want) = (grid.u[node], reference(x, y, z));
        let (dx, dy, dz) = (u[0] - want[0], u[1] - want[1], u[2] - want[2]);
        acc += dx * dx + dy * dy + dz * dz;
    }
    (acc / dims.n() as f64).sqrt()
}

/// Total kinetic energy of the grid, `½ Σ ρ |u|²`.
pub fn kinetic_energy(grid: &FluidGrid) -> f64 {
    let mut e = 0.0;
    for (&rho, u) in grid.rho.iter().zip(&grid.u) {
        let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
        e += 0.5 * rho * u2;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_norm_zero_for_exact_field() {
        let dims = Dims::new(3, 3, 3);
        let mut g = FluidGrid::new(dims);
        for (x, y, z) in dims.iter_coords() {
            let node = dims.idx(x, y, z);
            g.u[node] = [x as f64, y as f64, z as f64];
        }
        let l2 = velocity_l2_error(&g, |x, y, z| [x as f64, y as f64, z as f64]);
        assert_eq!(l2, 0.0);
    }

    #[test]
    fn kinetic_energy_of_uniform_flow() {
        let dims = Dims::new(2, 2, 2);
        let mut g = FluidGrid::new(dims);
        g.u.fill([0.1, 0.0, 0.0]);
        let e = kinetic_energy(&g);
        assert!((e - 0.5 * 8.0 * 0.01).abs() < 1e-14);
    }
}
