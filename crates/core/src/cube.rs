//! The cube-centric parallel LBM-IB solver of Section V (Algorithm 4).
//!
//! The fluid grid is stored cube-blocked ([`lbm::cube_grid::CubeFluidGrid`]),
//! cubes are statically assigned to a 3D thread mesh by `cube2thread`
//! (block distribution by default) and fibers by `fiber2thread`. The
//! solver keeps one worker per thread in a [`Team`] built with it, and a
//! `run()` is one [`Team::run`]: each time step every worker
//! executes the five loops of Algorithm 4 over *its own* cubes and fibers,
//! with exactly three barriers:
//!
//! ```text
//! loop 1  fibers:  kernels 1–3, and each fiber node's delta stencil,
//!                  stored in the cube layout (the step's only kernel
//!                  evaluation; no grid writes)
//! loop 2  cubes:   kernels 5+6 fused: derive ρ and u_eq from `cur` and the
//!                  moment force, a cube at a time (the force is read and
//!                  reseeded with the body force on marked cubes), collide
//!                  each node into a register block and push it
//!                  `cur` → `nxt` (cross-cube writes hit unique (node,
//!                  direction) slots, so they are per-location exclusive
//!                  without locks)
//! ───────────────── barrier 1 (streamed populations in place)
//! loop 3  cubes:   kernel 4 (`ib::spread::spread`: each owner walks
//!                  every stored stencil in global order, marks the cubes
//!                  of its run the stencil reaches and adds the force into
//!                  them) + kernel 7 on marked cubes only (u from `nxt`
//!                  and the force, for kernel 8)
//! ───────────────── barrier 2 (velocities in place)
//! loop 4  fibers:  kernel 8 (`ib::interp::interp` through the stored
//!                  stencils; reads velocities anywhere, writes only its
//!                  own fibers)
//! loop 5  —        no work: buffers swap roles
//! ───────────────── barrier 3 (end of time step)
//! ```
//!
//! Loop 2 is the only fluid sweep, whatever `config.plan` says: the
//! split schedule (kernel 5 writing the collided populations back, then
//! kernel 6 re-reading them) survives only in the flat solvers. Both give
//! the same bits, so the plan cannot change this solver's results.
//!
//! # Loop-3 owners
//!
//! Loops 2 and 3 have different owners. Loop 2 runs on `cube2thread`'s
//! cubes, the paper's distribution, which balances the fluid sweep. Loop
//! 3's work is the spread and kernel 7, which lie only where the stencils
//! reach; under `cube2thread` a sheet in one thread's cubes would leave
//! the others idle. So loop 3 has an owner table of its own: contiguous
//! runs of cubes in storage order, one per thread, each holding an equal
//! share of the stencil points ([`crate::openmp::cost_balanced_ranges`]).
//! The points are counted at the start of every [`CubeSolver::try_run`]
//! from the sheet's positions ([`CubeIndexer::count_points`], the
//! candidates the builder walks, into a buffer the solver keeps); a sheet
//! moves little within a call. A worker skips a stencil whose brick span
//! ([`ib::delta::CubeStencil::brick_span`]) misses its run in O(1).
//! `ThreadTelemetry::cubes_owned` counts loop 2's cubes.
//!
//! A cube's marks, force and u thus change hands between loop 2 and loop
//! 3: loop 2's owner reads the marks and the force and reseeds the force,
//! loop 3's owner rewrites all three. Barrier 1 orders the first against
//! the second, barriers 2 and 3 the second against the next step's loop 2.
//!
//! # Streaming
//!
//! `grid.f` and `grid.f_new` trade roles every step: step `s` of a call
//! reads `cur` and pushes into `nxt`, where `(cur, nxt)` is `(f, f_new)`
//! for even `s` and `(f_new, f)` for odd `s`. Nothing is copied back (the
//! paper's kernel 9); [`CubeSolver::try_run`] swaps the two `Vec`s after
//! an odd-length call, so `grid.f` always holds the current populations.
//!
//! A neighbour inside the grid lies, in the cube layout, at a fixed
//! flat-index offset that depends only on the node's position within its
//! cube and the direction (the `CubeStreamer` table). Every push whose neighbour
//! is inside the grid takes that offset: all 18 of a node off the domain
//! faces, and on a face node every direction that does not step across
//! the face. Only the remaining pushes go through the routing tables
//! (periodic wrap, moving-wall bounce-back). The rule itself is
//! [`lbm::fused::push`], the same push the flat solvers' fused sweeps use;
//! only the offset table and the slot of a routed neighbour are the
//! cube layout's own.
//!
//! # Moment force
//!
//! The collision of step s needs ρ and u_eq of the populations step s − 1
//! streamed, which depend on the force step s − 1 spread: its "moment
//! force". The force field holds exactly that between steps, so loop 2
//! derives ρ and u_eq from `cur` and the force ([`node_moments_shifted`])
//! into a per-cube buffer instead of reading stored arrays, and kernel
//! 7 is no full-grid sweep. Loop 3 spreads into a field that must hold the
//! body force, so loop 2 reseeds each force slot right after reading it.
//!
//! Only cubes some stencil reached in the last loop 3 can hold anything
//! but the body force. Loop 3's owner marks them, once per block of each
//! stencil, also for a node whose force is zero, because kernel 8 reads u
//! through every stencil. Loop 2 reads the force only on a marked cube and
//! takes the body force as a constant elsewhere. Kernel 7 runs only on the
//! marked cubes and writes only u, the one field kernel 8 reads. ρ, u and
//! u_eq are derived again, in the same arithmetic, when the state is
//! gathered.
//!
//! The first step after [`CubeSolver::from_state`] is the exception: it
//! collides at the state's stored ρ and u_eq, and every cube starts
//! marked, so loop 2 reseeds the whole force field. A state whose force
//! field is not the moment force (a checkpoint that stored the reseeded
//! body force) therefore still continues bit-exactly.
//!
//! # Call boundary
//!
//! A call moves the grid, the sheet arrays, the solver's stencil array and
//! its cube marks out of the solver into shared form with
//! `std::mem::take`, so nothing is allocated or filled in their place.
//! When the team has joined, everything moves back, on the failure path
//! too. The stencil array is sized by the first call and keeps its storage
//! from then on; loop 1 rewrites every entry before any thread reads it, so
//! no contents cross a call. The per-cube point counts that cut loop 3
//! are kept the same way: sized once, recounted at the start of each call.
//! The marks do cross calls: the first loop 2 of a call reads the marks
//! the last loop 3 of the previous call set, whoever owned that loop 3.
//! So does the stored-moments flag, which only the first step after
//! `from_state` sees set.
//!
//! # Determinism
//!
//! No phase writes a location that another thread also writes. Spreading
//! is the phase where that could happen (a stencil can reach into several
//! threads' cubes), so it is split: the fiber owner builds each node's
//! stencil in loop 1 ([`ib::delta::CubeIndexer`] with cube bricks), and in
//! loop 3 every owner of a run runs the one spread all solvers run
//! ([`ib::spread::spread`]): it walks all fiber nodes in global order and
//! applies only the points that land in its run. Each force slot
//! therefore has one writer, which receives the same products in the same
//! order as the sequential solver's kernel 4, whatever the thread count,
//! distribution policy, cube edge or loop-3 cut: a stencil adds at most
//! one product per slot, or, where it wraps more than once onto a periodic
//! axis shorter than itself, adds them in the sequential order (see
//! `CubeStencil::for_each_block`). No bit depends on the owner tables.
//! Runs are bit-exactly reproducible, which the checkpoint/resume
//! equivalence guarantee relies on.
//!
//! # Panic safety
//!
//! A panicking worker poisons the call's phase [`Barrier`] before
//! unwinding; siblings spinning or parked at (or arriving at) a barrier
//! bail out instead of waiting forever. [`CubeSolver::try_run`] then restores the
//! solver's arrays — without advancing the step counter — and returns
//! [`SolverError::WorkerPanicked`] naming the thread and phase.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ib::delta::{CubeIndexer, CubeStencil};
use ib::forces::{bending_at, stretching_at, SheetTopology};
use ib::interp::interp;
use ib::sheet::FiberSheet;
use ib::spread::spread;
use ib::tether::{Tether, TetherSet};
use lbm::boundary::{BoundaryConfig, StreamRouter};
use lbm::cube_grid::{CubeDims, CubeFluidGrid};
use lbm::distribution::{CubeDistribution, FiberDistribution, Policy, ThreadMesh};
use lbm::fused::{self, collide_to_registers, face_bits};
use lbm::lattice::{E, Q};
use lbm::macroscopic::node_moments_shifted;

use crate::barrier::{Barrier, BarrierPoisoned};
use crate::config::{ConfigError, KernelPlan, SimulationConfig};
use crate::openmp::cost_balanced_ranges;
use crate::profiling::KernelId;
use crate::sharedgrid::{SharedCubeGrid, SharedSlice};
use crate::solver::{Backend, RunReport, SolverError};
use crate::state::SimState;
use crate::team::{Slots, Team};
use crate::telemetry::{RunTelemetry, ThreadTelemetry};

/// Worker phase names, in loop order, used for panic attribution
/// ([`SolverError::WorkerPanicked`]) and fault-injection targeting.
/// Fault plans address phases by name, so phase 4 (loop 5) keeps the name
/// `copy-reseed` although loop 5 has no work; a fault there fires just
/// before barrier 3.
pub const WORKER_PHASES: [&str; 5] = [
    "fiber-forces",
    "collide-stream",
    "velocity-update",
    "move-fibers",
    "copy-reseed",
];

/// Push streaming in the cube layout.
///
/// `off[local][i]` is the signed flat-index offset from a node with local
/// index `local` to its neighbour along direction `i`. It is the same in
/// every cube, provided the neighbour lies inside the grid; pushes that
/// cross a domain face go through the routing tables instead.
struct CubeStreamer {
    cdims: CubeDims,
    router: StreamRouter,
    indexer: CubeIndexer,
    off: Vec<[isize; Q]>,
}

impl CubeStreamer {
    fn new(cdims: CubeDims, bc: &BoundaryConfig) -> Self {
        Self {
            cdims,
            router: StreamRouter::new(cdims.dims, bc),
            indexer: CubeIndexer::new(cdims.dims, [cdims.k; 3]),
            off: Self::offsets(cdims),
        }
    }

    /// The offset table, derived from the layout arithmetic alone. Along
    /// each axis a step leaves the cube iff the local coordinate wraps past
    /// `0` or `k - 1`; the neighbour then sits in the adjacent cube (cube
    /// strides `cy·cz`, `cz`, `1`) at the opposite local face.
    fn offsets(cdims: CubeDims) -> Vec<[isize; Q]> {
        let k = cdims.k as isize;
        let npc = cdims.nodes_per_cube() as isize;
        let cube_stride = [(cdims.cy * cdims.cz) as isize, cdims.cz as isize, 1];
        let local_of = |l: [isize; 3]| (l[0] * k + l[1]) * k + l[2];
        let mut off = vec![[0isize; Q]; cdims.nodes_per_cube()];
        for (local, row) in off.iter_mut().enumerate() {
            let li = local as isize;
            let l = [li / (k * k), (li / k) % k, li % k];
            for (i, slot) in row.iter_mut().enumerate() {
                let mut dcube = 0;
                let mut dst = l;
                for a in 0..3 {
                    let t = l[a] + E[i][a] as isize;
                    let step = t.div_euclid(k);
                    dcube += step * cube_stride[a];
                    dst[a] = t.rem_euclid(k);
                }
                *slot = dcube * npc + local_of(dst) - local_of(l);
            }
        }
        off
    }

    /// Calls `visit(flat, local, [x, y, z], face)` for every node of
    /// `cube`, in storage order. `face` has bit `2a` set if the node lies
    /// on the low domain face of axis `a` and bit `2a + 1` if on the high
    /// one; it is `0` exactly for nodes off the domain faces.
    #[inline]
    fn for_each_node(&self, cube: usize, mut visit: impl FnMut(usize, usize, [usize; 3], u8)) {
        let k = self.cdims.k;
        let dims = self.cdims.dims;
        let (ci, cj, ck) = self.cdims.cube_coords(cube);
        let mut flat = self.cdims.flat(cube, 0);
        let mut local = 0;
        for x in ci * k..(ci + 1) * k {
            let fx = face_bits(x, dims.nx, 0);
            for y in cj * k..(cj + 1) * k {
                let fxy = fx | face_bits(y, dims.ny, 1);
                for z in ck * k..(ck + 1) * k {
                    visit(flat, local, [x, y, z], fxy | face_bits(z, dims.nz, 2));
                    flat += 1;
                    local += 1;
                }
            }
        }
    }

    /// Pushes one node's post-collision populations `post` into `nxt`
    /// with the shared push rule ([`fused::push`]): this layout's offset
    /// row for `local`, the routing tables for the directions that cross a
    /// face in `face` (the node's mask from [`Self::for_each_node`]).
    ///
    /// # Safety
    /// The caller must be the only writer of every slot this node routes
    /// to, and no thread may read those slots, for the duration of the
    /// phase. Push injectivity gives the first when every node is pushed
    /// by exactly one thread: for a fixed direction the source →
    /// destination map is injective, and a bounce-back targets the origin
    /// node's `(node, opposite)` slot, which no neighbour route reaches.
    #[inline(always)]
    unsafe fn push(
        &self,
        nxt: &SharedSlice<f64>,
        flat: usize,
        local: usize,
        pos: [usize; 3],
        face: u8,
        post: &[f64; Q],
    ) {
        let slot_of = |d: [usize; 3]| self.indexer.flat(d[0], d[1], d[2]);
        // SAFETY: the caller owns the destination slots for the phase (see
        // `# Safety`); every index is in bounds because it names a grid
        // node and a direction.
        let write = |i: usize, v: f64| unsafe { nxt.set(i, v) };
        fused::push(
            post,
            flat,
            face,
            pos,
            &self.off[local],
            &self.router,
            slot_of,
            write,
        );
    }

    /// Loop 2 on one cube: collides each node's `cur` populations in
    /// registers at the ρ and u_eq that `moments(flat, &pre)` returns and
    /// pushes the result into `nxt`.
    ///
    /// The moments of all the cube's nodes go into `moments_of_cube` (one
    /// entry per node) before any node collides. Each node's sums are a
    /// long chain of dependent adds in a fixed order; computed node after
    /// node in a tight loop, the chains of neighbouring nodes overlap,
    /// where interleaved with the collision and the push they would stall
    /// them. The second read of `cur` hits the cache: a cube is a few KB.
    ///
    /// # Safety
    /// As for [`Self::push`], for every node of `cube`; and no thread may
    /// write the cube's `cur` slots for the duration of the phase.
    #[inline(always)]
    unsafe fn collide_push(
        &self,
        cur: &SharedSlice<f64>,
        nxt: &SharedSlice<f64>,
        cube: usize,
        tau: f64,
        moments_of_cube: &mut [(f64, [f64; 3])],
        mut moments: impl FnMut(usize, &[f64; Q]) -> (f64, [f64; 3]),
    ) {
        let first = self.cdims.flat(cube, 0);
        for (local, m) in moments_of_cube.iter_mut().enumerate() {
            let flat = first + local;
            // SAFETY: `cur` is read-only this phase (see `# Safety`).
            let pre: [f64; Q] = std::array::from_fn(|i| unsafe { cur.get(flat * Q + i) });
            *m = moments(flat, &pre);
        }
        self.for_each_node(cube, |flat, local, pos, face| {
            // SAFETY: `cur` is read-only this phase (see `# Safety`).
            let pre: [f64; Q] = std::array::from_fn(|i| unsafe { cur.get(flat * Q + i) });
            let (rho, ueq) = moments_of_cube[local];
            let post = collide_to_registers(&pre, rho, ueq, tau);
            // SAFETY: forwarded from this function's contract.
            unsafe { self.push(nxt, flat, local, pos, face, &post) };
        });
    }
}

/// Per-step work description for one worker thread.
struct WorkerPlan {
    tid: usize,
    /// Loop 2's cubes (`cube2thread`).
    my_cubes: Vec<usize>,
    /// Loop 3's cubes: a run in storage order (see "Loop-3 owners" in the
    /// module docs).
    my_run: Range<usize>,
    my_fibers: Vec<usize>,
    my_tethers: Vec<Tether>,
}

/// The cube-centric solver.
pub struct CubeSolver {
    pub config: SimulationConfig,
    /// The kept workers, one per thread of the mesh.
    team: Team,
    /// Cube distribution policy (block by default, as in the paper).
    pub policy: Policy,
    cdims: CubeDims,
    grid: CubeFluidGrid,
    pub sheet: FiberSheet,
    tethers: TetherSet,
    pub step: u64,
    /// When true, [`CubeSolver::try_run`] collects per-worker telemetry (kernel
    /// busy time, per-barrier wait, cube/fiber ownership) into its report.
    pub telemetry_enabled: bool,
    /// One delta stencil per fiber node, kept between calls (see "Call
    /// boundary" in the module docs).
    stencils: Vec<CubeStencil>,
    /// Per cube: some stencil reached it in the last loop 3, so its force
    /// slots may differ from the body force (see "Moment force" in the
    /// module docs). Kept between calls.
    marks: Vec<bool>,
    /// Per cube: the stencil points counted at the start of the last call,
    /// which cut loop 3's owners. Only the storage is kept between calls.
    costs: Vec<u64>,
    /// True from [`CubeSolver::from_state`] until the first step: that
    /// step collides at the state's stored ρ and u_eq, not at moments
    /// derived from `f` and the force field.
    stored_moments: bool,
}

impl CubeSolver {
    /// The kernel plan this solver runs, whatever `config.plan` says.
    pub const PLAN: KernelPlan = KernelPlan::Fused;

    /// Builds the solver with `n_threads` workers laid out on a near-cubic
    /// thread mesh.
    pub fn new(config: SimulationConfig, n_threads: usize) -> Self {
        Self::from_state(SimState::new(config), n_threads)
    }

    /// Builds the solver from an existing flat state (reordering the fluid
    /// into cube-blocked storage). Panics on a zero thread count or when
    /// the OS refuses a worker thread.
    pub fn from_state(state: SimState, n_threads: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        Self::with_team(state, Team::start(n_threads, "lbmib-cube"))
    }

    fn with_team(state: SimState, team: Team) -> Self {
        let config = state.config;
        let cdims = CubeDims::new(config.dims(), config.cube_k);
        // The state's ρ, u, u_eq and force field stay as they are until the
        // first step: it collides at the stored ρ and u_eq, and with every
        // cube marked its loop 2 reseeds the whole force field with the
        // body force before loop 3 spreads into it.
        let grid = CubeFluidGrid::from_flat(&state.fluid, config.cube_k);
        Self {
            config,
            team,
            policy: Policy::Block,
            cdims,
            grid,
            sheet: state.sheet,
            tethers: state.tethers,
            step: state.step,
            telemetry_enabled: false,
            stencils: Vec::new(),
            marks: vec![true; cdims.num_cubes()],
            costs: Vec::new(),
            stored_moments: true,
        }
    }

    /// Like [`CubeSolver::from_state`] but returns an error instead of
    /// panicking on a zero thread count, a refused thread, an invalid
    /// configuration or a
    /// cube edge that does not divide the grid
    /// ([`ConfigError::DimNotDivisibleByCube`]; the flat solvers build on
    /// any grid, so only this builder checks it).
    pub fn try_from_state(state: SimState, n_threads: usize) -> Result<Self, SolverError> {
        if n_threads == 0 {
            return Err(SolverError::ZeroThreads);
        }
        let c = &state.config;
        c.validate()?;
        if c.cube_k == 0 || [c.nx, c.ny, c.nz].iter().any(|n| n % c.cube_k != 0) {
            return Err(ConfigError::DimNotDivisibleByCube {
                cube_k: c.cube_k,
                nx: c.nx,
                ny: c.ny,
                nz: c.nz,
            }
            .into());
        }
        let team = Team::try_start(n_threads, "lbmib-cube")?;
        Ok(Self::with_team(state, team))
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.team.n_workers()
    }

    /// The thread mesh used by `cube2thread`.
    pub fn thread_mesh(&self) -> ThreadMesh {
        ThreadMesh::for_threads(self.n_threads())
    }

    /// Converts the current cube-blocked state back into a flat
    /// [`SimState`], reusing `out`'s buffers (the gather behind
    /// [`crate::solver::Solver::to_state_into`]).
    ///
    /// `fluid.f_new` equals `fluid.f`, as the flat solvers' kernel-9 copy
    /// leaves it. The force field is the moment force, the force the last
    /// step's moments used: the body force plus the last spread, as the
    /// flat solvers store it. ρ, u and u_eq are derived from `f` and that
    /// force in the same pass that copies `f`, so the gathered state equals
    /// the sequential solver's bit for bit. Before the first step the
    /// state passed to [`CubeSolver::from_state`] comes back unchanged.
    pub fn to_state_into(&self, out: &mut SimState) {
        if self.stored_moments {
            self.grid.to_flat_into(&mut out.fluid);
        } else {
            self.grid
                .to_flat_with_moments_into(&mut out.fluid, self.config.tau);
        }
        out.config = self.config;
        out.sheet.clone_from(&self.sheet);
        out.tethers.clone_from(&self.tethers);
        out.step = self.step;
    }

    /// Runs `n_steps` time steps with the kept worker team (Algorithm 4),
    /// reporting steps and wall time, and surfacing a panicking worker as
    /// [`SolverError::WorkerPanicked`] instead of a panic or a hang: the
    /// panicking thread poisons the phase barrier, the remaining workers
    /// unwind at their next barrier wait, the fluid/sheet buffers are
    /// restored (contents unspecified mid-step), and the step counter is
    /// left where the last *completed* call put it.
    pub fn try_run(&mut self, n_steps: u64) -> Result<RunReport, SolverError> {
        if n_steps == 0 {
            return Ok(RunReport::default());
        }
        let n_threads = self.n_threads();
        let cdims = self.cdims;
        let config = self.config;
        let topo = self.sheet.topology();
        let nn = topo.nodes_per_fiber;
        let step0 = self.step;

        // Static data distribution (the paper's cube2thread / fiber2thread).
        let dist = CubeDistribution {
            mesh: self.thread_mesh(),
            policy: self.policy,
        };
        let owner = dist.ownership_table(&cdims);
        let fdist = FiberDistribution {
            n_threads,
            policy: Policy::Block,
        };
        // Streaming tables (offsets, routing) and the stencil indexer,
        // built once and shared read-only by the workers.
        let streamer = CubeStreamer::new(cdims, &config.bc);
        // Loop 3's owners: runs of cubes holding equal shares of the
        // stencil points of the sheet as it stands now.
        self.costs.resize(cdims.num_cubes(), 0);
        let indexer = &streamer.indexer;
        indexer.count_points(&self.sheet.pos, config.delta, &config.bc, &mut self.costs);
        let runs = cost_balanced_ranges(&self.costs, n_threads);

        let mut plans: Vec<WorkerPlan> = runs
            .into_iter()
            .enumerate()
            .map(|(tid, my_run)| WorkerPlan {
                tid,
                my_cubes: Vec::new(),
                my_run,
                my_fibers: Vec::new(),
                my_tethers: Vec::new(),
            })
            .collect();
        for (cube, &o) in owner.iter().enumerate() {
            plans[o].my_cubes.push(cube);
        }
        for fiber in 0..topo.num_fibers {
            plans[fdist.fiber2thread(fiber, topo.num_fibers)]
                .my_fibers
                .push(fiber);
        }
        for t in &self.tethers.tethers {
            let fiber = t.node / nn;
            plans[fdist.fiber2thread(fiber, topo.num_fibers)]
                .my_tethers
                .push(*t);
        }

        // Move the state into shared form for the worker team, leaving
        // empty `Vec`s behind until the teardown below puts it back.
        let grid = SharedCubeGrid::new(take_grid(&mut self.grid));
        let sheet_pos = SharedSlice::from_vec(std::mem::take(&mut self.sheet.pos));
        let sheet_bend = SharedSlice::from_vec(std::mem::take(&mut self.sheet.bending));
        let sheet_stretch = SharedSlice::from_vec(std::mem::take(&mut self.sheet.stretching));
        let sheet_elastic = SharedSlice::from_vec(std::mem::take(&mut self.sheet.elastic));
        // Written by the fiber owner in loop 1, read by every cube owner in
        // loop 3 and by the fiber owner in loop 4.
        self.stencils
            .resize(sheet_pos.len(), CubeStencil::default());
        let stencils = SharedSlice::from_vec(std::mem::take(&mut self.stencils));
        #[cfg(feature = "racecheck")]
        stencils.name_for_racecheck("stencils");
        // Read and rewritten by each cube's owner only, in loops 2 and 3.
        let marks = SharedSlice::from_vec(std::mem::take(&mut self.marks));
        #[cfg(feature = "racecheck")]
        marks.name_for_racecheck("marks");
        let stored_moments = self.stored_moments;

        let barrier = Barrier::new(n_threads);
        // Panic bookkeeping: each worker publishes its current phase index;
        // a panicking worker's wrapper records (tid, phase) here (first one
        // wins) and poisons the barrier.
        let phase_flags: Vec<AtomicUsize> = (0..n_threads).map(|_| AtomicUsize::new(0)).collect();
        let panic_note: Mutex<Option<(usize, usize)>> = Mutex::new(None);

        // The static data assignment, for the telemetry.
        let owned: Vec<(u64, u64)> = plans
            .iter()
            .map(|p| (p.my_cubes.len() as u64, p.my_fibers.len() as u64))
            .collect();
        let timed = self.telemetry_enabled;

        let plans = Slots::new(plans);
        let done = Slots::empty(n_threads);
        let t0 = Instant::now();
        self.team.run(|tid| {
            let Some(plan) = plans.take(tid) else {
                return;
            };
            let phase_flag = &phase_flags[tid];
            let result = catch_unwind(AssertUnwindSafe(|| {
                worker(
                    plan,
                    n_steps,
                    step0,
                    config,
                    cdims,
                    topo,
                    &grid,
                    &sheet_pos,
                    &sheet_bend,
                    &sheet_stretch,
                    &sheet_elastic,
                    &stencils,
                    &marks,
                    stored_moments,
                    &streamer,
                    &barrier,
                    timed,
                    phase_flag,
                )
            }));
            match result {
                Ok(Ok(telemetry)) => done.put(tid, telemetry),
                // A sibling poisoned the barrier: no record.
                Ok(Err(BarrierPoisoned)) => {}
                Err(_payload) => {
                    // Record which phase this thread died in, then release
                    // every sibling waiting at the barrier.
                    let phase = phase_flag.load(Ordering::Relaxed);
                    panic_note
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .get_or_insert((tid, phase));
                    barrier.poison();
                }
            }
        });
        let mut per_thread: Vec<ThreadTelemetry> = done.into_vec().into_iter().flatten().collect();
        let wall = t0.elapsed();

        // Move everything back — also on the failure path, so the solver
        // again holds full-size (if physically mid-step) arrays rather than
        // the empty `Vec`s left behind above, and the stencil array keeps
        // its storage for the next call.
        self.grid = grid.into_inner();
        self.sheet.pos = sheet_pos.into_vec();
        self.sheet.bending = sheet_bend.into_vec();
        self.sheet.stretching = sheet_stretch.into_vec();
        self.sheet.elastic = sheet_elastic.into_vec();
        self.stencils = stencils.into_vec();
        self.marks = marks.into_vec();

        if let Some((thread, phase)) = panic_note.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(SolverError::WorkerPanicked {
                thread,
                phase: WORKER_PHASES[phase.min(WORKER_PHASES.len() - 1)],
            });
        }
        self.step += n_steps;
        self.stored_moments = false;
        // An odd-length call ended with the current populations in `f_new`.
        if n_steps % 2 == 1 {
            std::mem::swap(&mut self.grid.f, &mut self.grid.f_new);
        }

        for (t, (cubes, fibers)) in per_thread.iter_mut().zip(owned) {
            t.cubes_owned = cubes;
            t.fibers_owned = fibers;
        }
        Ok(RunReport {
            steps: n_steps,
            wall,
            telemetry: self.telemetry_enabled.then_some(RunTelemetry {
                solver: Backend::Cube,
                steps: n_steps,
                wall_seconds: wall.as_secs_f64(),
                per_thread,
            }),
            recovery: None,
        })
    }
}

/// Moves every array out of `grid`, leaving empty `Vec`s (no allocation)
/// with the same geometry in its place.
fn take_grid(grid: &mut CubeFluidGrid) -> CubeFluidGrid {
    CubeFluidGrid {
        cdims: grid.cdims,
        f: std::mem::take(&mut grid.f),
        f_new: std::mem::take(&mut grid.f_new),
        rho: std::mem::take(&mut grid.rho),
        u: std::mem::take(&mut grid.u),
        ueq: std::mem::take(&mut grid.ueq),
        force: std::mem::take(&mut grid.force),
    }
}

/// One barrier wait, timed into the worker's accumulators only when
/// telemetry is on (`timed`), so telemetry-off runs keep the bare wait.
/// `Err` means the barrier is poisoned: a sibling panicked and this worker
/// must unwind.
#[inline]
fn sync_barrier(
    barrier: &Barrier,
    timed: bool,
    wait_s: &mut f64,
    waits: &mut u64,
) -> Result<(), BarrierPoisoned> {
    if timed {
        let (_, waited) = barrier.wait_timed_checked()?;
        *wait_s += waited.as_secs_f64();
        *waits += 1;
    } else {
        barrier.wait_checked()?;
    }
    Ok(())
}

/// One worker's execution of Algorithm 4. Returns its busy seconds per
/// kernel and, when `timed`, its barrier waits; or bails with
/// [`BarrierPoisoned`] when a sibling panicked.
#[allow(clippy::too_many_arguments)]
fn worker(
    plan: WorkerPlan,
    n_steps: u64,
    step0: u64,
    config: SimulationConfig,
    cdims: CubeDims,
    topo: SheetTopology,
    grid: &SharedCubeGrid,
    sheet_pos: &SharedSlice<[f64; 3]>,
    sheet_bend: &SharedSlice<[f64; 3]>,
    sheet_stretch: &SharedSlice<[f64; 3]>,
    sheet_elastic: &SharedSlice<[f64; 3]>,
    stencils: &SharedSlice<CubeStencil>,
    marks: &SharedSlice<bool>,
    stored_moments: bool,
    streamer: &CubeStreamer,
    barrier: &Barrier,
    timed: bool,
    phase_flag: &AtomicUsize,
) -> Result<ThreadTelemetry, BarrierPoisoned> {
    let mut busy = [0.0f64; KernelId::COUNT];
    let mut barrier_wait_s = 0.0f64;
    let mut barrier_waits = 0u64;
    #[cfg(feature = "racecheck")]
    crate::racecheck::set_thread(plan.tid);
    // Three phases per step, numbered from the absolute step, so that one
    // audit can span several calls.
    #[cfg(feature = "racecheck")]
    let mut rc_phase: u64 = 3 * step0;
    #[cfg(feature = "racecheck")]
    crate::racecheck::set_phase(rc_phase);
    let nn = topo.nodes_per_fiber;
    let npc = cdims.nodes_per_cube();
    let bc = config.bc;
    let tau = config.tau;
    let delta = config.delta;
    let area = topo.ds_node * topo.ds_fiber;
    let body = config.body_force;
    // Loop 2's per-cube moments (see `CubeStreamer::collide_push`).
    let mut moments_of_cube = vec![(0.0, [0.0; 3]); npc];

    for local_step in 0..n_steps {
        let abs_step = step0 + local_step;
        // Buffer roles alternate each step instead of copying `nxt` back.
        // This step's `nxt` was the previous step's `cur`, which each owner
        // read for its own cubes in the previous loop 2; barriers 1–3 of
        // that step separate those reads from this step's cross-cube
        // pushes. This step's `cur` was pushed in the previous loop 2 and
        // read in the previous loop 3, both behind the previous barrier 3.
        let (cur, nxt) = if local_step % 2 == 0 {
            (&grid.f, &grid.f_new)
        } else {
            (&grid.f_new, &grid.f)
        };
        // ─── Loop 1: fiber kernels 1–4 on my fibers ───
        phase_flag.store(0, Ordering::Relaxed);
        crate::faultinject::maybe_panic(plan.tid, abs_step, WORKER_PHASES[0]);
        {
            // SAFETY: during loop 1 every thread only *reads* positions
            // (written last in loop 4 of the previous step, published by
            // barrier 3).
            let pos: &[[f64; 3]] = unsafe { sheet_pos.as_slice_unchecked() };

            // Kernel 1: bending.
            let t0 = Instant::now();
            for &fiber in &plan.my_fibers {
                for node in 0..nn {
                    let i = fiber * nn + node;
                    // SAFETY: node i belongs to my fiber; sole writer.
                    unsafe { sheet_bend.set(i, bending_at(&topo, pos, fiber, node)) };
                }
            }
            busy[0] += t0.elapsed().as_secs_f64();

            // Kernel 2: stretching.
            let t0 = Instant::now();
            for &fiber in &plan.my_fibers {
                for node in 0..nn {
                    let i = fiber * nn + node;
                    // SAFETY: sole writer (my fiber).
                    unsafe { sheet_stretch.set(i, stretching_at(&topo, pos, fiber, node)) };
                }
            }
            busy[1] += t0.elapsed().as_secs_f64();

            // Kernel 3: elastic = bending + stretching (+ my tethers).
            let t0 = Instant::now();
            for &fiber in &plan.my_fibers {
                for node in 0..nn {
                    let i = fiber * nn + node;
                    // SAFETY: sole reader/writer of my fiber's force slots
                    // in this phase.
                    unsafe {
                        let b = sheet_bend.get(i);
                        let s = sheet_stretch.get(i);
                        sheet_elastic.set(i, [b[0] + s[0], b[1] + s[1], b[2] + s[2]]);
                    }
                }
            }
            for t in &plan.my_tethers {
                // SAFETY: tether nodes belong to my fibers.
                unsafe {
                    let p = sheet_pos.get(t.node);
                    let mut e = sheet_elastic.get(t.node);
                    for a in 0..3 {
                        e[a] -= t.stiffness * (p[a] - t.anchor[a]);
                    }
                    sheet_elastic.set(t.node, e);
                }
            }
            busy[2] += t0.elapsed().as_secs_f64();

            // Kernel 4 (stencils): evaluate the delta kernel once per node
            // of my fibers and store the stencil in the cube layout. The
            // cube owners spread from it in loop 3, and loop 4
            // interpolates through it.
            let t0 = Instant::now();
            for &fiber in &plan.my_fibers {
                for node in 0..nn {
                    let i = fiber * nn + node;
                    let stencil = streamer.indexer.stencil(pos[i], delta, &bc);
                    // SAFETY: node i belongs to my fiber; sole writer. The
                    // previous step's readers (loops 3 and 4) are separated
                    // from this write by barrier 3.
                    unsafe { stencils.set(i, stencil) };
                }
            }
            busy[3] += t0.elapsed().as_secs_f64();
        }

        // ─── Loop 2: fused kernels 5+6 on my cubes ───
        // Collide each node into a register block and push the block
        // straight into `nxt`; the collided values never land in `cur`.
        // ρ and u_eq come from `cur` and the moment force, a cube at a time;
        // on a marked cube the force is read and reseeded with the body
        // force, on any other it is the body force already.
        phase_flag.store(1, Ordering::Relaxed);
        crate::faultinject::maybe_panic(plan.tid, abs_step, WORKER_PHASES[1]);
        let t0 = Instant::now();
        let from_stored = stored_moments && local_step == 0;
        let shifted = |pre: &[f64; Q], force: [f64; 3]| {
            let (rho, _, ueq) = node_moments_shifted(pre, force, tau);
            (rho, ueq)
        };
        for &cube in &plan.my_cubes {
            // SAFETY: each branch reads my own cube's `cur`, marks, force
            // and (on the first step) stored moments, and writes my own
            // force slots. Their other accesses are my own loop 3, behind
            // barrier 1 of this step and barrier 3 of the previous one.
            // `push` writes `nxt` slots unique to me (see
            // `CubeStreamer::push`), and no thread reads `nxt` before
            // barrier 1. Leaving `cur` pre-collision is invisible: loop 3
            // reads `nxt`, and the next step overwrites `cur` wholesale as
            // its `nxt`.
            unsafe {
                let take_force = |flat: usize| {
                    let force = grid.force.get(flat);
                    grid.force.set(flat, body);
                    force
                };
                if from_stored {
                    // The first step after `from_state`: the state's ρ and
                    // u_eq, and every cube is marked, because the state's
                    // force field may hold anything.
                    streamer.collide_push(cur, nxt, cube, tau, &mut moments_of_cube, |flat, _| {
                        take_force(flat);
                        (grid.rho.get(flat), grid.ueq.get(flat))
                    });
                } else if marks.get(cube) {
                    streamer.collide_push(
                        cur,
                        nxt,
                        cube,
                        tau,
                        &mut moments_of_cube,
                        |flat, pre| shifted(pre, take_force(flat)),
                    );
                } else {
                    streamer.collide_push(cur, nxt, cube, tau, &mut moments_of_cube, |_, pre| {
                        shifted(pre, body)
                    });
                }
            }
        }
        busy[9] += t0.elapsed().as_secs_f64();

        // Barrier 1: all streamed populations in place.
        sync_barrier(barrier, timed, &mut barrier_wait_s, &mut barrier_waits)?;
        #[cfg(feature = "racecheck")]
        {
            rc_phase += 1;
            crate::racecheck::set_phase(rc_phase);
        }

        // ─── Loop 3: spread apply + velocity update on my cubes ───
        phase_flag.store(2, Ordering::Relaxed);
        crate::faultinject::maybe_panic(plan.tid, abs_step, WORKER_PHASES[2]);

        // Kernel 4 (apply): walk every fiber node in global order, mark the
        // cubes of my run its stencil reaches, and add the contributions
        // that land in them. The force slots of my run thus receive the
        // sequential solver's products in its order (see "Determinism" in
        // the module docs).
        let t0 = Instant::now();
        {
            // SAFETY: stencils and elastic forces were written in loop 1,
            // before barrier 1; nobody writes them again before the next
            // step's loop 1, behind barriers 2 and 3.
            let (stencils, elastic) = unsafe {
                (
                    stencils.as_slice_unchecked(),
                    sheet_elastic.as_slice_unchecked(),
                )
            };
            for cube in plan.my_run.clone() {
                // SAFETY: a cube of my run; its loop-2 owner read the mark
                // before barrier 1, and no other thread touches it in loop 3.
                unsafe { marks.set(cube, false) };
            }
            // The mark comes with every block of my run, before `spread`
            // skips a zero force: kernel 8 reads u through every stencil.
            // SAFETY: `spread` passes only cubes of my run, whose marks
            // only I touch in this phase.
            let reached = |cube: usize| unsafe { marks.set(cube, true) };
            spread(
                stencils,
                elastic,
                area,
                plan.my_run.clone(),
                reached,
                |flat, df| {
                    // SAFETY: `flat` lies in a cube of my run, so I am the only
                    // thread touching its force slot in this phase.
                    unsafe { grid.force.add(flat, df) };
                },
            );
        }
        busy[3] += t0.elapsed().as_secs_f64();

        // Kernel 7: the velocity loop 4 interpolates, on the marked cubes
        // of my run only; no stencil reads u anywhere else. The force
        // stays as spread: it is the next step's moment force, which the
        // cube's loop-2 owner reads and reseeds behind barrier 3.
        let t0 = Instant::now();
        for cube in plan.my_run.clone() {
            // SAFETY: a mark of my run, set above by me.
            if !unsafe { marks.get(cube) } {
                continue;
            }
            for local in 0..npc {
                let flat = cdims.flat(cube, local);
                // SAFETY: a cube of my run; `nxt` complete (barrier 1);
                // force complete (applied above by me); sole reader of its
                // force slots and sole writer of its velocities.
                unsafe {
                    let fvals: [f64; Q] = std::array::from_fn(|i| nxt.get(flat * Q + i));
                    let (_, u, _) = node_moments_shifted(&fvals, grid.force.get(flat), tau);
                    grid.u.set(flat, u);
                }
            }
        }
        busy[6] += t0.elapsed().as_secs_f64();

        // Barrier 2: all velocities in place.
        sync_barrier(barrier, timed, &mut barrier_wait_s, &mut barrier_waits)?;
        #[cfg(feature = "racecheck")]
        {
            rc_phase += 1;
            crate::racecheck::set_phase(rc_phase);
        }

        // ─── Loop 4: move my fibers (kernel 8) ───
        phase_flag.store(3, Ordering::Relaxed);
        crate::faultinject::maybe_panic(plan.tid, abs_step, WORKER_PHASES[3]);
        let t0 = Instant::now();
        {
            // SAFETY: the stencils are read-only from barrier 1 until the
            // next step's loop 1, behind barrier 3.
            let stencils = unsafe { stencils.as_slice_unchecked() };
            // SAFETY: velocities are read-only in this phase (written in
            // loop 3, before barrier 2).
            let velocity = |flat| unsafe { grid.u.get(flat) };
            for &fiber in &plan.my_fibers {
                for node in 0..nn {
                    let i = fiber * nn + node;
                    let u = interp(&stencils[i], |_| true, velocity);
                    // SAFETY: my fiber's position; sole reader and writer
                    // in this phase.
                    unsafe {
                        let mut p = sheet_pos.get(i);
                        p[0] += u[0];
                        p[1] += u[1];
                        p[2] += u[2];
                        sheet_pos.set(i, p);
                    }
                }
            }
        }
        busy[7] += t0.elapsed().as_secs_f64();

        // ─── Loop 5: no work; buffers swap roles ───
        // No kernel-9 copy: the next step reads this step's `nxt` as its
        // `cur`, and the next loop 2 reseeds the force field.
        phase_flag.store(4, Ordering::Relaxed);
        crate::faultinject::maybe_panic(plan.tid, abs_step, WORKER_PHASES[4]);

        // Barrier 3: end of time step.
        sync_barrier(barrier, timed, &mut barrier_wait_s, &mut barrier_waits)?;
        #[cfg(feature = "racecheck")]
        {
            rc_phase += 1;
            crate::racecheck::set_phase(rc_phase);
        }
    }

    #[cfg(feature = "racecheck")]
    crate::racecheck::clear_thread();
    Ok(ThreadTelemetry {
        kernel_seconds: busy,
        barrier_wait_seconds: barrier_wait_s,
        barrier_waits,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SheetConfig;
    use crate::sequential::SequentialSolver;
    use crate::solver::Solver;
    use lbm::boundary::{stream_push_routed_node, AxisBoundary, CoordRoute};
    use lbm::grid::Dims;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn single_thread_matches_sequential() {
        let cfg = SimulationConfig::quick_test();
        let mut seq = SequentialSolver::new(cfg);
        let mut cube = CubeSolver::new(cfg, 1);
        seq.run(6);
        cube.try_run(6).unwrap();
        let cube_state = cube.to_state();
        assert_eq!(cube_state.step, 6);
        let err = max_abs_diff(&seq.state.fluid.f, &cube_state.fluid.f);
        assert!(err < 1e-13, "distribution mismatch {err}");
        let pos_err = seq
            .state
            .sheet
            .pos
            .iter()
            .zip(&cube_state.sheet.pos)
            .flat_map(|(a, b)| (0..3).map(move |i| (a[i] - b[i]).abs()))
            .fold(0.0f64, f64::max);
        assert!(pos_err < 1e-13, "sheet mismatch {pos_err}");
    }

    #[test]
    fn multi_thread_matches_sequential() {
        let cfg = SimulationConfig::quick_test();
        let mut seq = SequentialSolver::new(cfg);
        seq.run(6);
        for threads in [2, 4, 8] {
            let mut cube = CubeSolver::new(cfg, threads);
            cube.try_run(6).unwrap();
            let cs = cube.to_state();
            let err = max_abs_diff(seq.state.fluid.u.as_flattened(), cs.fluid.u.as_flattened());
            assert!(err < 1e-12, "{threads} threads: velocity mismatch {err}");
            let pos_err = seq
                .state
                .sheet
                .pos
                .iter()
                .zip(&cs.sheet.pos)
                .flat_map(|(a, b)| (0..3).map(move |i| (a[i] - b[i]).abs()))
                .fold(0.0f64, f64::max);
            assert!(
                pos_err < 1e-12,
                "{threads} threads: sheet mismatch {pos_err}"
            );
        }
    }

    #[test]
    fn split_runs_match_one_run() {
        let cfg = SimulationConfig::quick_test();
        let mut a = CubeSolver::new(cfg, 2);
        let mut b = CubeSolver::new(cfg, 2);
        a.try_run(6).unwrap();
        b.try_run(3).unwrap();
        b.try_run(3).unwrap();
        assert_eq!(a.step, b.step);
        let sa = a.to_state();
        let sb = b.to_state();
        // The spread applies contributions in a fixed order, so
        // restarting the worker team must be *bit-exact* — the property
        // checkpoint/resume equivalence rests on.
        assert_eq!(
            sa.fluid.f, sb.fluid.f,
            "restarting the worker team changed results"
        );
        assert_eq!(sa.sheet.pos, sb.sheet.pos);
    }

    #[test]
    fn reruns_are_bit_identical() {
        // Determinism for a fixed thread count: same input, same thread
        // count, same bits — no dependence on lock timing remains.
        let cfg = SimulationConfig::quick_test();
        let mut a = CubeSolver::new(cfg, 4);
        let mut b = CubeSolver::new(cfg, 4);
        a.try_run(6).unwrap();
        b.try_run(6).unwrap();
        let sa = a.to_state();
        let sb = b.to_state();
        assert_eq!(sa.fluid.f, sb.fluid.f);
        assert_eq!(sa.fluid.u, sb.fluid.u);
        assert_eq!(sa.sheet.pos, sb.sheet.pos);
    }

    #[test]
    fn cyclic_distribution_matches_block() {
        let cfg = SimulationConfig::quick_test();
        let mut a = CubeSolver::new(cfg, 4);
        let mut b = CubeSolver::new(cfg, 4);
        b.policy = Policy::Cyclic;
        a.try_run(5).unwrap();
        b.try_run(5).unwrap();
        let sa = a.to_state();
        let sb = b.to_state();
        let err = max_abs_diff(sa.fluid.u.as_flattened(), sb.fluid.u.as_flattened());
        assert!(err < 1e-12, "distribution policy changed physics: {err}");
    }

    #[test]
    fn profiling_is_populated() {
        let mut cube = CubeSolver::new(SimulationConfig::quick_test(), 2);
        cube.telemetry_enabled = true;
        let report = cube.try_run(3).unwrap();
        assert_eq!(report.steps, 3);
        assert!(report.wall.as_nanos() > 0);
        let t = report.telemetry.expect("telemetry on");
        assert_eq!(t.solver, Backend::Cube);
        // One fused pass per step: the split kernel slots stay empty, and
        // the buffer swap leaves kernel 9 empty too.
        assert!(t.kernel_seconds(KernelId::FusedCollideStream) > 0.0);
        for k in [
            KernelId::Collision,
            KernelId::Stream,
            KernelId::CopyDistributions,
        ] {
            assert_eq!(t.kernel_seconds(k), 0.0, "{k:?}");
        }
        assert!(t.busy_seconds() > 0.0);
        assert_eq!(t.barrier_waits(), 3 * 3 * 2);
        // Telemetry off: no report, and no barrier timing.
        cube.telemetry_enabled = false;
        assert!(cube.try_run(1).unwrap().telemetry.is_none());
    }

    #[test]
    fn configured_plan_does_not_change_results() {
        let split_cfg = SimulationConfig::quick_test();
        let fused_cfg = SimulationConfig {
            plan: KernelPlan::Fused,
            ..split_cfg
        };
        for threads in [1, 4] {
            let mut split = CubeSolver::new(split_cfg, threads);
            let mut fused = CubeSolver::new(fused_cfg, threads);
            split.try_run(6).unwrap();
            fused.try_run(6).unwrap();
            let ss = split.to_state();
            let fs = fused.to_state();
            // The cube solver always runs the fused pass.
            assert_eq!(ss.fluid.f, fs.fluid.f, "{threads} threads");
            assert_eq!(ss.sheet.pos, fs.sheet.pos, "{threads} threads");
        }
    }

    #[test]
    fn zero_steps_is_a_noop() {
        let mut cube = CubeSolver::new(SimulationConfig::quick_test(), 2);
        let before = cube.to_state();
        cube.try_run(0).unwrap();
        let after = cube.to_state();
        assert_eq!(before.fluid.f, after.fluid.f);
        assert_eq!(before.step, after.step);
    }

    /// Every node and direction of a grid, in both layouts. The face masks
    /// must say a push stays inside the grid exactly when the route is
    /// `Neighbor(pos + e_i)` with no wrap, and the shared push — with the
    /// flat offset row, and through the cube streamer with its offset
    /// table — must write exactly the slots and values that the split
    /// reference `stream_push_routed_node` writes, bounce-back corrections
    /// included.
    fn assert_push_matches_routing(dims: Dims, k: usize, bc: BoundaryConfig) {
        let cdims = CubeDims::new(dims, k);
        let streamer = CubeStreamer::new(cdims, &bc);
        let router = &streamer.router;
        let ext = [dims.nx, dims.ny, dims.nz];
        let n = dims.n() * Q;
        // Distinct values, so a population written to a wrong slot shows.
        let f: Vec<f64> = (0..n).map(|s| 1.0 + s as f64 / 64.0).collect();
        let mut want = vec![f64::NAN; n];
        for (x, y, z) in dims.iter_coords() {
            stream_push_routed_node(dims, router, &f, &mut want, dims.idx(x, y, z), x, y, z);
        }
        let flat_off = fused::flat_offsets(dims);
        let mut flat_got = vec![f64::NAN; n];
        let cube_got = SharedSlice::from_vec(vec![f64::NAN; n]);
        let mut nodes = 0;
        for cube in 0..cdims.num_cubes() {
            streamer.for_each_node(cube, |flat, local, pos, face| {
                let [x, y, z] = pos;
                assert_eq!(cdims.flat_of_global(x, y, z), flat);
                let want_face = (0..3).fold(0u8, |m, a| {
                    m | u8::from(pos[a] == 0) << (2 * a)
                        | u8::from(pos[a] == ext[a] - 1) << (2 * a + 1)
                });
                assert_eq!(face, want_face, "{pos:?} in {dims:?}");
                for i in 1..Q {
                    let route = router.route(x, y, z, i);
                    let stepped: [isize; 3] =
                        std::array::from_fn(|a| pos[a] as isize + E[i][a] as isize);
                    let unwrapped = matches!(route, CoordRoute::Neighbor(d)
                        if (0..3).all(|a| d[a] as isize == stepped[a]));
                    assert_eq!(
                        fused::DIR_FACES[i] & face == 0,
                        unwrapped,
                        "{pos:?} dir {i}, k = {k}, {dims:?}: {route:?}"
                    );
                }
                let node = dims.idx(x, y, z);
                let post: [f64; Q] = std::array::from_fn(|i| f[node * Q + i]);
                let slot_of = |d: [usize; 3]| dims.idx(d[0], d[1], d[2]);
                let write = |s: usize, v: f64| flat_got[s] = v;
                fused::push(&post, node, face, pos, &flat_off, router, slot_of, write);
                // SAFETY: single-threaded; nothing else touches `cube_got`.
                unsafe { streamer.push(&cube_got, flat, local, pos, face, &post) };
                nodes += 1;
            });
        }
        assert_eq!(nodes, dims.n());
        let cube_got = cube_got.into_vec();
        // Q writes per node into Q slots per node: with no slot left NaN,
        // every slot was written exactly once.
        for (x, y, z) in dims.iter_coords() {
            let (node, flat) = (dims.idx(x, y, z), cdims.flat_of_global(x, y, z));
            for i in 0..Q {
                let w = want[node * Q + i];
                let tag = || format!("({x},{y},{z}) slot {i}, k = {k}, {dims:?}, {bc:?}");
                assert!(!w.is_nan(), "{}: the reference left it unwritten", tag());
                assert_eq!(flat_got[node * Q + i].to_bits(), w.to_bits(), "{}", tag());
                assert_eq!(cube_got[flat * Q + i].to_bits(), w.to_bits(), "{}", tag());
            }
        }
    }

    #[test]
    fn offset_table_matches_routing_on_every_node() {
        // Per axis: periodic, no-slip walls, or walls moving with their
        // own velocity on each side; all 27 combinations.
        let kinds = |a: usize| {
            let v = |s: f64| std::array::from_fn(|b| if b == a { 0.0 } else { s * (b + 1) as f64 });
            [
                AxisBoundary::Periodic,
                AxisBoundary::no_slip(),
                AxisBoundary::Walls {
                    lo: v(-0.01),
                    hi: v(0.02),
                },
            ]
        };
        for (x, y, z) in Dims::new(3, 3, 3).iter_coords() {
            let bc = BoundaryConfig {
                x: kinds(0)[x],
                y: kinds(1)[y],
                z: kinds(2)[z],
            };
            for k in [2, 4, 8] {
                assert_push_matches_routing(Dims::new(2 * k, 3 * k, 2 * k), k, bc);
            }
            // A single cube along x (4 = k), and along x and z at k = 8.
            assert_push_matches_routing(Dims::new(4, 8, 12), 4, bc);
            assert_push_matches_routing(Dims::new(8, 16, 8), 8, bc);
            // Axes of length 1 (whose nodes carry both face bits) and 2.
            for dims in [(1, 2, 3), (2, 1, 2), (3, 2, 1), (1, 1, 1), (2, 2, 2)] {
                assert_push_matches_routing(Dims::new(dims.0, dims.1, dims.2), 1, bc);
            }
        }
    }

    fn run_in_chunks(cfg: SimulationConfig, threads: usize, chunks: &[u64]) -> CubeSolver {
        let mut cube = CubeSolver::new(cfg, threads);
        for &n in chunks {
            cube.try_run(n).unwrap();
        }
        cube
    }

    #[test]
    fn chunk_parity_does_not_change_results() {
        let cfg = SimulationConfig::quick_test();
        for threads in [1, 3] {
            let whole = run_in_chunks(cfg, threads, &[5]).to_state();
            for chunks in [&[2, 3][..], &[1; 5][..]] {
                let parts = run_in_chunks(cfg, threads, chunks).to_state();
                let tag = format!("{threads} threads, chunks {chunks:?}");
                assert_eq!(whole.step, parts.step, "{tag}");
                assert_eq!(whole.fluid.f, parts.fluid.f, "{tag}");
                assert_eq!(whole.fluid.f_new, parts.fluid.f_new, "{tag}");
                assert_eq!(whole.fluid.u, parts.fluid.u, "{tag}");
                assert_eq!(whole.sheet.pos, parts.sheet.pos, "{tag}");
            }
        }
    }

    #[test]
    fn to_state_reports_f_new_equal_to_f_after_any_step_count() {
        let mut cube = CubeSolver::new(SimulationConfig::quick_test(), 2);
        for steps in [1, 2, 3] {
            cube.try_run(steps).unwrap();
            let state = cube.to_state();
            assert_eq!(
                state.fluid.f_new, state.fluid.f,
                "after {} steps",
                cube.step
            );
        }
    }

    #[test]
    fn checkpoint_bytes_do_not_depend_on_chunking() {
        let dir = std::env::temp_dir().join(format!("lbmib_cube_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SimulationConfig::quick_test();
        let one = dir.join("one.ckpt");
        let two = dir.join("two.ckpt");
        crate::checkpoint::save(&run_in_chunks(cfg, 2, &[5]).to_state(), &one).unwrap();
        crate::checkpoint::save(&run_in_chunks(cfg, 2, &[2, 3]).to_state(), &two).unwrap();
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&two).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The start state of `cfg` with the sheet's nodes displaced off its
    /// plane, so every node carries an elastic force from the first step.
    fn displaced_state(cfg: SimulationConfig) -> SimState {
        let mut state = SimState::new(cfg);
        for (i, p) in state.sheet.pos.iter_mut().enumerate() {
            p[0] += 0.01 * ((i * 7 % 11) as f64 - 5.0);
        }
        state
    }

    /// Runs three steps from [`displaced_state`] and serialises the
    /// gathered state. The cube edge and plan are reset in the copy, so
    /// runs that differ only in those compare byte for byte.
    fn gathered_bytes(cfg: SimulationConfig, threads: usize) -> Vec<u8> {
        let mut cube = CubeSolver::from_state(displaced_state(cfg), threads);
        cube.try_run(3).unwrap();
        let mut gathered = cube.to_state();
        gathered.config.cube_k = 4;
        gathered.config.plan = KernelPlan::Split;
        let mut bytes = Vec::new();
        crate::checkpoint::write_checkpoint(&gathered, &mut bytes).unwrap();
        bytes
    }

    /// Asserts that two states hold the same bits in every fluid field,
    /// every sheet array and the step counter.
    fn assert_bitwise_equal(got: &SimState, want: &SimState, tag: &str) {
        let (g, w) = (&got.fluid, &want.fluid);
        let fields: [(&str, &[f64], &[f64]); 6] = [
            ("f", &g.f, &w.f),
            ("f_new", &g.f_new, &w.f_new),
            ("rho", &g.rho, &w.rho),
            ("u", g.u.as_flattened(), w.u.as_flattened()),
            ("ueq", g.ueq.as_flattened(), w.ueq.as_flattened()),
            ("force", g.force.as_flattened(), w.force.as_flattened()),
        ];
        let (gs, ws) = (&got.sheet, &want.sheet);
        let flat = |v: &[[f64; 3]]| v.iter().flatten().copied().collect::<Vec<f64>>();
        let sheet = [
            ("pos", flat(&gs.pos), flat(&ws.pos)),
            ("bending", flat(&gs.bending), flat(&ws.bending)),
            ("stretching", flat(&gs.stretching), flat(&ws.stretching)),
            ("elastic", flat(&gs.elastic), flat(&ws.elastic)),
        ];
        let all = fields
            .into_iter()
            .chain(sheet.iter().map(|(n, a, b)| (*n, &a[..], &b[..])));
        for (name, a, b) in all {
            assert_eq!(a.len(), b.len(), "{tag}: {name} length");
            if let Some(i) = (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits()) {
                panic!("{tag}: {name}[{i}] is {:e}, want {:e}", a[i], b[i]);
            }
        }
        assert_eq!(got.step, want.step, "{tag}: step");
    }

    /// An 8×8×12 box, periodic along x and y with a moving lid on the high
    /// z wall, and a sheet whose stencils wrap both periodic faces.
    fn wrapping_config() -> SimulationConfig {
        use lbm::boundary::AxisBoundary;
        SimulationConfig {
            nx: 8,
            ny: 8,
            nz: 12,
            body_force: [1e-5, 0.0, 2e-6],
            bc: BoundaryConfig {
                x: AxisBoundary::Periodic,
                y: AxisBoundary::Periodic,
                z: AxisBoundary::Walls {
                    lo: [0.0; 3],
                    hi: [0.02, -0.01, 0.0],
                },
            },
            sheet: SheetConfig {
                k_bend: 1e-4,
                k_stretch: 1e-2,
                ..SheetConfig::square(5, 4.0, [0.3, 7.6, 6.0])
            },
            ..SimulationConfig::quick_test()
        }
    }

    fn run_cube_in_chunks(
        state: SimState,
        cube_k: usize,
        threads: usize,
        chunks: &[u64],
    ) -> SimState {
        let mut cube = CubeSolver::from_state(
            SimState {
                config: SimulationConfig {
                    cube_k,
                    ..state.config
                },
                ..state
            },
            threads,
        );
        for &n in chunks {
            cube.try_run(n).unwrap();
        }
        let mut gathered = cube.to_state();
        gathered.config.cube_k = 4;
        gathered
    }

    #[test]
    fn gathered_state_equals_sequential_on_every_field() {
        // Every field, the force and u_eq included: a cube a stencil
        // reaches but the owner did not mark keeps a stale velocity and an
        // unreseeded force, and the sheet or the force field shows it. The
        // dense sheet's stencils are cut by loop 3's owners.
        for cfg in [wrapping_config(), SimulationConfig::dense_sheet_test()] {
            let start = displaced_state(cfg);
            let mut seq = SequentialSolver::from_state(start.clone());
            seq.run(4);
            for cube_k in [1, 2, 4] {
                for threads in 1..=3 {
                    for chunks in [&[4][..], &[1, 3]] {
                        let got = run_cube_in_chunks(start.clone(), cube_k, threads, chunks);
                        let tag = format!(
                            "{}² sheet, cube_k {cube_k}, {threads} threads, chunks {chunks:?}",
                            cfg.sheet.num_fibers
                        );
                        assert_bitwise_equal(&got, &seq.state, &tag);
                    }
                }
            }
        }
    }

    #[test]
    fn stencils_wrapping_onto_short_periodic_axes_spread_in_sequential_order() {
        // Along a periodic axis of length 1, 2 or 3 a 4-wide stencil
        // reaches some nodes more than once, so the order of its products
        // matters there. With one axis of length 1 and another of 2 or 3,
        // a cube edge of 1 puts a node's products in several blocks.
        for (nx, n, edges) in [
            (2, 2, &[1, 2][..]),
            (3, 3, &[1, 3]),
            (1, 2, &[1]),
            (1, 3, &[1]),
        ] {
            let cfg = SimulationConfig {
                nx,
                ny: n,
                cube_k: 1,
                sheet: SheetConfig {
                    center: [0.3, 1.2, 6.0],
                    ..wrapping_config().sheet
                },
                ..wrapping_config()
            };
            let start = displaced_state(cfg);
            let mut seq = SequentialSolver::from_state(start.clone());
            seq.run(3);
            for &cube_k in edges {
                for threads in 1..=2 {
                    let got = run_cube_in_chunks(start.clone(), cube_k, threads, &[3]);
                    let tag = format!("{nx}x{n}x12, cube_k {cube_k}, {threads} threads");
                    assert_bitwise_equal(&got, &seq.state, &tag);
                }
            }
        }
    }

    #[test]
    fn resumes_a_state_that_stores_the_body_force() {
        // A cube checkpoint written before loop 2 derived the moments
        // stores the body force in F, not the force its ρ, u and u_eq
        // belong to. The first step collides at the stored moments, so the
        // run continues exactly as the sequential solver's.
        let mut seq = SequentialSolver::from_state(displaced_state(wrapping_config()));
        seq.run(3);
        let mut body_force_file = seq.state.clone();
        body_force_file
            .fluid
            .force
            .fill(seq.state.config.body_force);
        assert_ne!(body_force_file.fluid.force, seq.state.fluid.force);
        seq.run(4);
        for threads in 1..=3 {
            for chunks in [&[4][..], &[1, 3]] {
                let got = run_cube_in_chunks(body_force_file.clone(), 2, threads, chunks);
                assert_bitwise_equal(&got, &seq.state, &format!("{threads} threads, {chunks:?}"));
            }
        }
    }

    #[test]
    fn gather_before_any_step_returns_the_loaded_state() {
        let mut seq = SequentialSolver::from_state(displaced_state(wrapping_config()));
        let fresh = seq.state.clone();
        seq.run(3);
        for state in [fresh, seq.state.clone()] {
            for cube_k in [1, 2, 4] {
                let got = run_cube_in_chunks(state.clone(), cube_k, 2, &[]);
                assert_bitwise_equal(
                    &got,
                    &state,
                    &format!("step {}, cube_k {cube_k}", state.step),
                );
            }
        }
    }

    #[test]
    fn results_are_bitwise_independent_of_threads_plan_and_cube_edge() {
        let base = SimulationConfig {
            nx: 16,
            ny: 16,
            nz: 16,
            body_force: [1e-5, 0.0, 0.0],
            ..SimulationConfig::quick_test()
        };
        // Two threads split x at 8; four threads split x and y at 8. At
        // `cube_k` 2 one stencil spans three cubes per axis.
        let sheets = [
            (
                "inside one thread's cubes",
                BoundaryConfig::tunnel(),
                SheetConfig::square(6, 3.0, [3.3, 4.2, 8.0]),
            ),
            (
                "straddling a thread boundary",
                BoundaryConfig::tunnel(),
                SheetConfig::square(6, 6.0, [7.6, 8.1, 8.0]),
            ),
            (
                "straddling the periodic wrap",
                BoundaryConfig::periodic(),
                SheetConfig::square(6, 6.0, [0.4, 15.6, 8.0]),
            ),
        ];
        for (tag, bc, sheet) in sheets {
            let cfg = SimulationConfig {
                bc,
                sheet: SheetConfig {
                    k_bend: 1e-4,
                    k_stretch: 1e-2,
                    ..sheet
                },
                ..base
            };
            let reference = gathered_bytes(cfg, 1);
            for cube_k in [2, 4, 8] {
                for plan in [KernelPlan::Split, KernelPlan::Fused] {
                    for threads in 1..=4 {
                        let cfg = SimulationConfig {
                            cube_k,
                            plan,
                            ..cfg
                        };
                        assert!(
                            gathered_bytes(cfg, threads) == reference,
                            "sheet {tag}: cube_k {cube_k}, {plan:?}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    /// The dense sheet the solver-equivalence and resume tests run: at
    /// 2–5 threads, loop 3's cost cut falls inside its stencils, though at
    /// 2 threads `cube2thread` gives all its cubes to thread 0.
    #[test]
    fn dense_sheet_is_cut_inside_by_loop_3_owners() {
        for threads in 2..=5 {
            let mut cube = CubeSolver::new(SimulationConfig::dense_sheet_test(), threads);
            cube.try_run(1).unwrap();
            let runs = cost_balanced_ranges(&cube.costs, threads);
            let busy = runs
                .iter()
                .filter(|r| cube.costs[(*r).clone()].iter().any(|&c| c > 0))
                .count();
            assert!(busy >= 2, "{threads} threads: {runs:?}");
        }
    }

    #[test]
    fn try_run_is_ok_on_healthy_runs() {
        let mut cube = CubeSolver::new(SimulationConfig::quick_test(), 2);
        let report = cube.try_run(3).unwrap();
        assert_eq!(report.steps, 3);
        assert_eq!(cube.step, 3);
    }
}
