//! Memory-trace generators replaying the access patterns of the four
//! fluid-dominant LBM-IB kernels (collision, streaming, velocity update,
//! buffer copy — 97% of the run time per Table I) on both storage layouts.
//!
//! The trace is what one *thread* touches during one time step: the flat
//! layout walks its x-slab once per kernel (the OpenMP version), the cube
//! layout walks its cubes once with collision and streaming fused per node
//! (loop 2 of Algorithm 4) and runs kernel 7 only on the cubes a delta
//! stencil reaches. Fiber kernels are omitted: they account for ~2% of
//! accesses at the paper's sheet sizes.
//!
//! Address map: the fluid arrays are laid out back to back in one virtual
//! allocation, elements of 8 bytes. The solvers store u, u_eq and the
//! force as one `[x, y, z]` triple per node; this map replays each as
//! three per-component arrays, which keeps the committed Table II and
//! Fig. 8 figures reproducible until the replays are recorded from the
//! engine itself.

use lbm::cube_grid::CubeDims;
use lbm::grid::Dims;
use lbm::lattice::{E, Q};

use crate::hierarchy::Hierarchy;

/// Byte-address map of the fluid arrays for a grid of `n` nodes.
#[derive(Clone, Copy, Debug)]
pub struct MemoryMap {
    n: u64,
    base_f: u64,
    base_f_new: u64,
    base_rho: u64,
    base_u: u64,     // x, y, z components as consecutive arrays
    base_ueq: u64,   // u_eq's x, y, z components
    base_force: u64, // the force's x, y, z components
}

impl MemoryMap {
    /// Builds the map for `n` nodes.
    pub fn new(n: usize) -> Self {
        let n = n as u64;
        let f_bytes = n * Q as u64 * 8;
        let s_bytes = n * 8;
        let base_f = 0;
        let base_f_new = base_f + f_bytes;
        let base_rho = base_f_new + f_bytes;
        let base_u = base_rho + s_bytes;
        let base_ueq = base_u + 3 * s_bytes;
        let base_force = base_ueq + 3 * s_bytes;
        Self {
            n,
            base_f,
            base_f_new,
            base_rho,
            base_u,
            base_ueq,
            base_force,
        }
    }

    /// The same map with `f` and `f_new` trading places: the buffer roles
    /// of a solver that swaps its two distribution arrays every step.
    pub fn swapped(self) -> Self {
        Self {
            base_f: self.base_f_new,
            base_f_new: self.base_f,
            ..self
        }
    }

    #[inline]
    pub fn f(&self, node: usize, dir: usize) -> u64 {
        self.base_f + (node as u64 * Q as u64 + dir as u64) * 8
    }
    #[inline]
    pub fn f_new(&self, node: usize, dir: usize) -> u64 {
        self.base_f_new + (node as u64 * Q as u64 + dir as u64) * 8
    }
    #[inline]
    pub fn rho(&self, node: usize) -> u64 {
        self.base_rho + node as u64 * 8
    }
    #[inline]
    pub fn u(&self, axis: usize, node: usize) -> u64 {
        self.base_u + (axis as u64 * self.n + node as u64) * 8
    }
    #[inline]
    pub fn ueq(&self, axis: usize, node: usize) -> u64 {
        self.base_ueq + (axis as u64 * self.n + node as u64) * 8
    }
    #[inline]
    pub fn force(&self, axis: usize, node: usize) -> u64 {
        self.base_force + (axis as u64 * self.n + node as u64) * 8
    }
}

/// Emits the collision accesses for one node (kernel 5): macroscopic reads,
/// then a read-modify-write of the 19 populations.
#[inline]
fn emit_collision(map: &MemoryMap, node: usize, emit: &mut impl FnMut(u64)) {
    emit(map.rho(node));
    for a in 0..3 {
        emit(map.ueq(a, node));
    }
    for i in 0..Q {
        emit(map.f(node, i));
        emit(map.f(node, i)); // write back
    }
}

/// Emits the push-streaming accesses for one node (kernel 6): read each
/// population, write it into the (periodically wrapped) neighbour's slot.
#[inline]
fn emit_stream(
    map: &MemoryMap,
    dims: Dims,
    node_of: &impl Fn(usize, usize, usize) -> usize,
    x: usize,
    y: usize,
    z: usize,
    node: usize,
    emit: &mut impl FnMut(u64),
) {
    emit(map.f(node, 0));
    emit(map.f_new(node, 0));
    for (i, e) in E.iter().enumerate().skip(1) {
        emit(map.f(node, i));
        let (xn, yn, zn) = dims.wrap(x, y, z, e[0], e[1], e[2]);
        emit(map.f_new(node_of(xn, yn, zn), i));
    }
}

/// Emits the fused collide–stream accesses for one node (kernels 5+6 in a
/// single sweep): macroscopic reads, one read of each population (the BGK
/// relaxation happens in registers), and the streamed write into the
/// neighbour's `f_new` slot. Relative to [`emit_collision`] +
/// [`emit_stream`], the `Q` post-collision write-backs into `f` and the
/// `Q` re-reads of `f` disappear — the distribution arrays are touched
/// twice per node instead of four times.
#[inline]
fn emit_fused(
    map: &MemoryMap,
    dims: Dims,
    node_of: &impl Fn(usize, usize, usize) -> usize,
    x: usize,
    y: usize,
    z: usize,
    node: usize,
    emit: &mut impl FnMut(u64),
) {
    emit(map.rho(node));
    for a in 0..3 {
        emit(map.ueq(a, node));
    }
    emit(map.f(node, 0));
    emit(map.f_new(node, 0));
    for (i, e) in E.iter().enumerate().skip(1) {
        emit(map.f(node, i));
        let (xn, yn, zn) = dims.wrap(x, y, z, e[0], e[1], e[2]);
        emit(map.f_new(node_of(xn, yn, zn), i));
    }
}

/// Emits the velocity-update accesses for one node (kernel 7).
#[inline]
fn emit_update(map: &MemoryMap, node: usize, emit: &mut impl FnMut(u64)) {
    for i in 0..Q {
        emit(map.f_new(node, i));
    }
    for a in 0..3 {
        emit(map.force(a, node));
    }
    emit(map.rho(node));
    for a in 0..3 {
        emit(map.u(a, node));
        emit(map.ueq(a, node));
    }
}

/// Emits the buffer-copy accesses for one node (kernel 9).
#[inline]
fn emit_copy(map: &MemoryMap, node: usize, emit: &mut impl FnMut(u64)) {
    for i in 0..Q {
        emit(map.f_new(node, i));
        emit(map.f(node, i));
    }
}

/// One time step of the OpenMP (flat, node-major) layout for the thread
/// owning the x-planes `x_range`: four separate whole-slab passes.
pub fn flat_step_trace(dims: Dims, x_range: std::ops::Range<usize>, mut emit: impl FnMut(u64)) {
    let map = MemoryMap::new(dims.n());
    let node_of = |x: usize, y: usize, z: usize| dims.idx(x, y, z);
    // Kernel 5.
    for x in x_range.clone() {
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                emit_collision(&map, dims.idx(x, y, z), &mut emit);
            }
        }
    }
    // Kernel 6.
    for x in x_range.clone() {
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                let node = dims.idx(x, y, z);
                emit_stream(&map, dims, &node_of, x, y, z, node, &mut emit);
            }
        }
    }
    // Kernel 7.
    for x in x_range.clone() {
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                emit_update(&map, dims.idx(x, y, z), &mut emit);
            }
        }
    }
    // Kernel 9.
    for x in x_range {
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                emit_copy(&map, dims.idx(x, y, z), &mut emit);
            }
        }
    }
}

/// One time step of the flat layout under the fused kernel plan: kernels
/// 5+6 collapse into one sweep (see `emit_fused`); kernels 7 and 9 are
/// unchanged.
pub fn flat_fused_step_trace(
    dims: Dims,
    x_range: std::ops::Range<usize>,
    mut emit: impl FnMut(u64),
) {
    let map = MemoryMap::new(dims.n());
    let node_of = |x: usize, y: usize, z: usize| dims.idx(x, y, z);
    // Fused kernels 5+6.
    for x in x_range.clone() {
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                let node = dims.idx(x, y, z);
                emit_fused(&map, dims, &node_of, x, y, z, node, &mut emit);
            }
        }
    }
    // Kernel 7.
    for x in x_range.clone() {
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                emit_update(&map, dims.idx(x, y, z), &mut emit);
            }
        }
    }
    // Kernel 9.
    for x in x_range {
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                emit_copy(&map, dims.idx(x, y, z), &mut emit);
            }
        }
    }
}

/// Time step `step` of the cube-centric layout for the thread owning
/// `cubes`, as the cube solver runs it. Loop 2 reads each node's
/// populations from `cur`, reads and reseeds its force on a cube of
/// `marked`, and pushes the collided block into the neighbours' `nxt`
/// slots; ρ and u_eq are derived, not read. Kernel 7 then reads `nxt` and
/// the force and writes u on the marked cubes only. There is no update or
/// copy pass over every cube. `(cur, nxt)` is `(f, f_new)` on even steps
/// and `(f_new, f)` on odd ones, as the solver swaps its buffers.
/// `marked[cube]` says whether some delta stencil reaches `cube`; an empty
/// slice marks none (the fluid alone).
pub fn cube_step_trace(
    cdims: CubeDims,
    cubes: &[usize],
    marked: &[bool],
    step: usize,
    mut emit: impl FnMut(u64),
) {
    let map = MemoryMap::new(cdims.dims.n());
    let map = if step % 2 == 0 { map } else { map.swapped() };
    let dims = cdims.dims;
    let npc = cdims.nodes_per_cube();
    let is_marked = |cube: usize| marked.get(cube) == Some(&true);
    // Loop 2: collide + push per node.
    for &cube in cubes {
        for local in 0..npc {
            let node = cdims.flat(cube, local);
            for i in 0..Q {
                emit(map.f(node, i));
            }
            if is_marked(cube) {
                for a in 0..3 {
                    emit(map.force(a, node));
                    emit(map.force(a, node)); // reseed
                }
            }
            let (x, y, z) = cdims.join(cube, local);
            for (i, e) in E.iter().enumerate() {
                let (xn, yn, zn) = dims.wrap(x, y, z, e[0], e[1], e[2]);
                emit(map.f_new(cdims.flat_of_global(xn, yn, zn), i));
            }
        }
    }
    // Loop 3: kernel 7 on the marked cubes.
    for &cube in cubes.iter().filter(|&&c| is_marked(c)) {
        for local in 0..npc {
            let node = cdims.flat(cube, local);
            for i in 0..Q {
                emit(map.f_new(node, i));
            }
            for a in 0..3 {
                emit(map.force(a, node));
            }
            for a in 0..3 {
                emit(map.u(a, node));
            }
        }
    }
}

/// Result of replaying a trace through the hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct MissReport {
    pub accesses: u64,
    pub l1_miss_percent: f64,
    pub l2_miss_percent: f64,
    /// Absolute L1 miss count (= L2 demand accesses).
    pub l1_misses: u64,
    /// Absolute L2 demand miss count (each a line fetch on the memory
    /// bus).
    pub l2_misses: u64,
    /// Bytes fetched from memory: (L2 demand misses + lines the stream
    /// prefetcher installed) × line size — the DRAM-traffic quantity the
    /// paper's memory-bandwidth argument is about.
    pub dram_bytes: u64,
}

impl MissReport {
    /// The counters of a replayed hierarchy.
    pub fn of(h: &Hierarchy) -> Self {
        MissReport {
            accesses: h.l1.accesses(),
            l1_miss_percent: h.l1_miss_percent(),
            l2_miss_percent: h.l2_miss_percent(),
            l1_misses: h.l1.misses,
            l2_misses: h.l2.misses,
            dram_bytes: h.dram_lines() * h.l2.config().line_bytes as u64,
        }
    }

    /// Rescales the L1 miss rate by a dynamic-access multiplier.
    ///
    /// The trace generator emits each scalar access once, whereas a
    /// hardware counter (the paper used PAPI) counts every dynamic load and
    /// store the compiled code issues — temporaries, spills, address
    /// arithmetic — which all hit L1. Those extra accesses dilute the L1
    /// miss *rate* without changing the number of L1 misses, so L2 traffic
    /// and the L2 miss rate are unaffected. The Table II harness calibrates
    /// `r` so the single-core L1 rate matches the paper's 1.75%.
    pub fn with_access_multiplier(self, r: f64) -> MissReport {
        assert!(r >= 1.0);
        MissReport {
            accesses: (self.accesses as f64 * r) as u64,
            l1_miss_percent: self.l1_miss_percent / r,
            ..self
        }
    }
}

/// Replays `steps` flat-layout time steps (one thread's slab) through a
/// fresh `thog` hierarchy and reports miss rates. `l2_sharers` models how
/// many active cores share the L2 (1 on a single-core run, 2 otherwise).
pub fn simulate_flat(
    dims: Dims,
    x_range: std::ops::Range<usize>,
    l2_sharers: usize,
    steps: usize,
) -> MissReport {
    let mut h = Hierarchy::thog(l2_sharers);
    for _ in 0..steps {
        flat_step_trace(dims, x_range.clone(), |a| h.access(a));
    }
    MissReport::of(&h)
}

/// Replays `steps` fused-plan flat-layout time steps through a fresh
/// `thog` hierarchy and reports miss rates — the counterpart of
/// [`simulate_flat`] for the fused collide–stream sweep.
pub fn simulate_flat_fused(
    dims: Dims,
    x_range: std::ops::Range<usize>,
    l2_sharers: usize,
    steps: usize,
) -> MissReport {
    let mut h = Hierarchy::thog(l2_sharers);
    for _ in 0..steps {
        flat_fused_step_trace(dims, x_range.clone(), |a| h.access(a));
    }
    MissReport::of(&h)
}

/// Replays `steps` cube-layout time steps (one thread's cube set) of the
/// fluid alone through a fresh `thog` hierarchy and reports miss rates:
/// [`simulate_cube_marked`] with no cube marked.
pub fn simulate_cube(
    cdims: CubeDims,
    cubes: &[usize],
    l2_sharers: usize,
    steps: usize,
) -> MissReport {
    simulate_cube_marked(cdims, cubes, &[], l2_sharers, steps)
}

/// Replays `steps` cube-layout time steps ([`cube_step_trace`] with the
/// stencil-reached cubes `marked`) through a fresh `thog` hierarchy and
/// reports miss rates.
pub fn simulate_cube_marked(
    cdims: CubeDims,
    cubes: &[usize],
    marked: &[bool],
    l2_sharers: usize,
    steps: usize,
) -> MissReport {
    let mut h = Hierarchy::thog(l2_sharers);
    for step in 0..steps {
        cube_step_trace(cdims, cubes, marked, step, |a| h.access(a));
    }
    MissReport::of(&h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_map_arrays_are_disjoint() {
        let n = 100;
        let m = MemoryMap::new(n);
        // Last byte of f < first of f_new, etc.
        assert!(m.f(n - 1, Q - 1) + 8 <= m.f_new(0, 0));
        assert!(m.f_new(n - 1, Q - 1) + 8 <= m.rho(0));
        assert!(m.rho(n - 1) + 8 <= m.u(0, 0));
        assert!(m.u(2, n - 1) + 8 <= m.ueq(0, 0));
        assert!(m.ueq(2, n - 1) + 8 <= m.force(0, 0));
    }

    #[test]
    fn access_counts_match_kernel_model() {
        let dims = Dims::new(8, 8, 8);
        let mut count = 0u64;
        flat_step_trace(dims, 0..8, |_| count += 1);
        // Per node: collision 4+38, stream 38, update 29, copy 38 = 147.
        assert_eq!(count, 147 * 512);
    }

    #[test]
    fn fused_trace_drops_the_writeback_and_reread() {
        let dims = Dims::new(8, 8, 8);
        let mut count = 0u64;
        flat_fused_step_trace(dims, 0..8, |_| count += 1);
        // Per node: fused 4+19+19, update 29, copy 38 = 109 — the split
        // schedule's 147 minus the 19 f write-backs and 19 f re-reads.
        assert_eq!(count, 109 * 512);
    }

    #[test]
    fn fused_trace_reduces_distribution_array_traffic() {
        let dims = Dims::new(16, 16, 16);
        let split = simulate_flat(dims, 0..16, 1, 2);
        let fused = simulate_flat_fused(dims, 0..16, 1, 2);
        assert!(fused.accesses < split.accesses);
        assert!(
            fused.l1_misses <= split.l1_misses,
            "fused must not add misses: {} vs {}",
            fused.l1_misses,
            split.l1_misses
        );
    }

    #[test]
    fn cube_trace_runs_kernel_7_only_on_marked_cubes() {
        let dims = Dims::new(8, 8, 8);
        let cdims = CubeDims::new(dims, 4);
        let cubes: Vec<usize> = (0..cdims.num_cubes()).collect();
        let count = |marked: &[bool]| {
            let mut n = 0u64;
            cube_step_trace(cdims, &cubes, marked, 0, |_| n += 1);
            n
        };
        // Per node: 19 reads of `f` and 19 pushes into `f_new`; a marked
        // node adds the force read and reseed (6) and kernel 7's 19 + 3
        // reads and 3 velocity writes (25).
        assert_eq!(count(&[]), 38 * 512);
        let mut marked = vec![false; cdims.num_cubes()];
        marked[3] = true;
        assert_eq!(count(&marked), 38 * 512 + (6 + 25) * 64);
        // Against the flat fused schedule's 109 per node.
        let mut flat = 0u64;
        flat_fused_step_trace(dims, 0..8, |_| flat += 1);
        assert_eq!(flat, 109 * 512);
    }

    #[test]
    fn swapped_map_trades_the_distribution_arrays() {
        let m = MemoryMap::new(10);
        let s = m.swapped();
        assert_eq!((s.f(3, 4), s.f_new(3, 4)), (m.f_new(3, 4), m.f(3, 4)));
        assert_eq!(s.force(1, 2), m.force(1, 2));
    }

    #[test]
    fn cube_layout_beats_flat_at_l1() {
        // Cube-blocked storage keeps the streaming writes inside small
        // contiguous blocks, reusing L1 lines the flat layout scatters.
        // The cube step makes far fewer accesses than either flat
        // schedule, so its miss *rate* says nothing; the miss counts do.
        // Every cube is marked: the most the cube step can touch.
        let dims = Dims::new(16, 16, 16);
        let r = simulate_flat(dims, 0..16, 1, 2);
        let fused = simulate_flat_fused(dims, 0..16, 1, 2);
        let cdims = CubeDims::new(dims, 4);
        let cubes: Vec<usize> = (0..cdims.num_cubes()).collect();
        let all = vec![true; cdims.num_cubes()];
        let rc = simulate_cube_marked(cdims, &cubes, &all, 1, 2);
        assert!(
            rc.l1_misses < fused.l1_misses,
            "cube {} vs flat fused {} L1 misses",
            rc.l1_misses,
            fused.l1_misses
        );
        assert!(r.l1_miss_percent < 35.0, "flat L1 {}", r.l1_miss_percent);
    }

    #[test]
    fn cube_layout_needs_no_more_dram_traffic_at_scale() {
        // A slab too big for L2: the flat version reloads it per kernel
        // pass; the cube version touches each cube once in loop 2 and
        // again only where kernel 7 runs (here: everywhere).
        let dims = Dims::new(32, 48, 48); // ~21 MB of fluid state
        let r_flat = simulate_flat_fused(dims, 0..32, 2, 2);
        let cdims = CubeDims::new(dims, 4);
        let cubes: Vec<usize> = (0..cdims.num_cubes()).collect();
        let all = vec![true; cdims.num_cubes()];
        let r_cube = simulate_cube_marked(cdims, &cubes, &all, 2, 2);
        assert!(
            r_cube.dram_bytes <= r_flat.dram_bytes,
            "cube {} vs flat fused {} DRAM bytes",
            r_cube.dram_bytes,
            r_flat.dram_bytes
        );
        // Fewer marked cubes only remove accesses.
        let bare = simulate_cube(cdims, &cubes, 2, 2);
        assert!(bare.dram_bytes <= r_cube.dram_bytes);
    }

    #[test]
    fn access_multiplier_calibrates_l1_only() {
        let dims = Dims::new(16, 16, 16);
        let r = simulate_flat(dims, 0..16, 1, 2);
        let c = r.with_access_multiplier(14.0);
        assert!((c.l1_miss_percent - r.l1_miss_percent / 14.0).abs() < 1e-12);
        assert_eq!(c.l2_miss_percent, r.l2_miss_percent);
        // In the paper's regime the calibrated L1 rate lands near 1.75%.
        assert!(c.l1_miss_percent < 3.0, "{}", c.l1_miss_percent);
        assert!(c.l1_miss_percent > 0.5, "{}", c.l1_miss_percent);
    }

    #[test]
    fn sharing_l2_does_not_reduce_miss_rate() {
        let dims = Dims::new(16, 32, 32);
        let full = simulate_flat(dims, 0..16, 1, 2);
        let shared = simulate_flat(dims, 0..16, 2, 2);
        assert!(
            shared.l2_miss_percent >= full.l2_miss_percent - 0.5,
            "shared {} vs full {}",
            shared.l2_miss_percent,
            full.l2_miss_percent
        );
    }
}
