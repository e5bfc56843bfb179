//! The nine computational kernels of Section III-B as sequential reference
//! implementations over [`SimState`]. Function names follow the paper.
//!
//! Kernel order per time step (Algorithm 1):
//! 1–3 fiber forces, 4 spread, 5 collision, 6 stream, 7 velocity update,
//! 8 move fibers, 9 buffer copy. Collision relaxes toward the equilibrium
//! built on the *shift* velocity stored by kernel 7 of the previous step,
//! so the spread force is read only by kernel 7 — the dependency structure
//! Algorithm 4's three barriers rely on.

use ib::delta::{CubeIndexer, CubeStencil};
use ib::forces;
use ib::interp;
use ib::spread;
use lbm::boundary::{add_uniform_body_force, stream_push_bounded};
use lbm::collision::collide_shifted_slab;
use lbm::macroscopic::update_velocity_shifted;

use crate::state::SimState;

/// Kernel 1: bending force of every fiber node (8-neighbour stencil).
pub fn compute_bending_force_in_fibers(state: &mut SimState) {
    forces::compute_bending_force(&mut state.sheet);
}

/// Kernel 2: stretching force of every fiber node (4 neighbours).
pub fn compute_stretching_force_in_fibers(state: &mut SimState) {
    forces::compute_stretching_force(&mut state.sheet);
}

/// Kernel 3: elastic force = bending + stretching (+ tether anchors).
pub fn compute_elastic_force_in_fibers(state: &mut SimState) {
    forces::compute_elastic_force(&mut state.sheet);
    state.tethers.apply(&mut state.sheet);
}

/// Kernel 4: reset the Eulerian force to the driving body force, then
/// spread every fiber node's elastic force over its 4×4×4 influential
/// domain, through a stencil store built for this call.
pub fn spread_force_from_fibers_to_fluid(state: &mut SimState) {
    spread_force_through(state, &mut Vec::new());
}

/// Kernel 4 through a kept store: builds every fiber node's stencil into
/// `stencils` (one per node, in the flat layout's plane bricks), resets the
/// Eulerian force to the body force and spreads from the stencils.
/// [`move_fibers_through`] reads the same stencils in kernel 8.
pub fn spread_force_through(state: &mut SimState, stencils: &mut Vec<CubeStencil>) {
    let c = &state.config;
    stencils.resize(state.sheet.n(), CubeStencil::default());
    CubeIndexer::planes(c.dims()).build(&state.sheet.pos, c.delta, &c.bc, stencils);
    state.fluid.clear_force();
    if c.body_force != [0.0; 3] {
        add_uniform_body_force(&mut state.fluid, c.body_force);
    }
    spread::spread_into_grid(stencils, &state.sheet, &mut state.fluid);
}

/// Kernel 5: BGK collision at every fluid node in the 19 D3Q19 directions,
/// relaxing toward the equilibrium at the stored shift velocity.
pub fn compute_fluid_collision(state: &mut SimState) {
    collide_shifted_slab(&mut state.fluid.slab_mut(), state.config.tau);
}

/// Kernel 6: stream the post-collision populations to the 18 neighbours
/// (push formulation, with wall bounce-back fused in).
pub fn stream_fluid_velocity_distribution(state: &mut SimState) {
    stream_push_bounded(&mut state.fluid, &state.config.bc);
}

/// Fused kernels 5+6: collide every node in registers and push the
/// post-collision populations straight into `f_new` (periodic wrap and
/// bounce-back in the same inner loop). Bit-identical to running
/// [`compute_fluid_collision`] then [`stream_fluid_velocity_distribution`],
/// except `f` keeps its pre-collision values — which kernels 7 and 9 never
/// read before overwriting.
pub fn fused_collide_stream(state: &mut SimState) {
    lbm::fused::fused_collide_stream_grid(&mut state.fluid, &state.config.bc, state.config.tau);
}

/// Kernel 7: new density and velocity from the streamed populations and the
/// spread elastic force (physical velocity with F/2, shift velocity
/// with τF).
pub fn update_fluid_velocity(state: &mut SimState) {
    update_velocity_shifted(&mut state.fluid, state.config.tau);
}

/// Kernel 8: interpolate fluid velocity at every fiber node and move it,
/// through a stencil store built for this call.
pub fn move_fibers(state: &mut SimState) {
    let dims = state.config.dims();
    // Split-borrow the state so the sheet can move while reading the fluid.
    let SimState {
        fluid,
        sheet,
        config,
        ..
    } = state;
    interp::move_fibers(sheet, config.delta, dims, &config.bc, fluid, 1.0);
}

/// Kernel 8 through the stencils [`spread_force_through`] stored this
/// step: no kernel evaluation.
pub fn move_fibers_through(state: &mut SimState, stencils: &[CubeStencil]) {
    interp::move_through(&mut state.sheet.pos, stencils, &state.fluid, 1.0);
}

/// Kernel 9: copy the new-distribution buffer into the present buffer.
pub fn copy_fluid_velocity_distribution(state: &mut SimState) {
    state.fluid.copy_distributions();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;

    fn state() -> SimState {
        SimState::new(SimulationConfig::quick_test())
    }

    #[test]
    fn kernel4_resets_then_spreads() {
        let mut s = state();
        // Pollute the force field; kernel 4 must reset it to the body force
        // plus the spread contribution (zero here: sheet at rest).
        s.fluid.force.fill([9.0; 3]);
        spread_force_from_fibers_to_fluid(&mut s);
        let g = s.config.body_force;
        assert!(s.fluid.force.iter().all(|&v| v == g));
    }

    #[test]
    fn kernel4_spreads_elastic_force_on_top_of_body_force() {
        let mut s = state();
        s.sheet.elastic[10] = [1.0, 0.0, 0.0];
        spread_force_from_fibers_to_fluid(&mut s);
        let g = s.config.body_force[0];
        let total: f64 = s.fluid.force.iter().map(|f| f[0]).sum();
        let expected = g * s.fluid.n() as f64 + s.sheet.area_element();
        assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
    }

    #[test]
    fn kernel5_preserves_mass() {
        let mut s = state();
        let before = s.fluid.total_mass();
        compute_fluid_collision(&mut s);
        let after = s.fluid.total_mass();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn kernel8_keeps_sheet_still_in_quiescent_fluid() {
        let mut s = state();
        let before = s.sheet.pos.clone();
        move_fibers(&mut s);
        assert_eq!(s.sheet.pos, before);
    }

    #[test]
    fn kernel9_copies_buffers() {
        let mut s = state();
        for (i, v) in s.fluid.f_new.iter_mut().enumerate() {
            *v = i as f64;
        }
        copy_fluid_velocity_distribution(&mut s);
        assert_eq!(s.fluid.f, s.fluid.f_new);
    }

    #[test]
    fn tethers_enter_via_kernel3() {
        use crate::config::TetherConfig;
        let mut c = SimulationConfig::quick_test();
        c.sheet.tether = TetherConfig::CenterRegion {
            radius: 1.0,
            stiffness: 2.0,
        };
        let mut s = SimState::new(c);
        // Displace a tethered node and recompute the elastic force.
        let node = s.tethers.tethers[0].node;
        s.sheet.pos[node][0] += 0.1;
        compute_bending_force_in_fibers(&mut s);
        compute_stretching_force_in_fibers(&mut s);
        compute_elastic_force_in_fibers(&mut s);
        assert!(s.sheet.elastic[node][0] < 0.0, "tether must pull back");
    }
}
