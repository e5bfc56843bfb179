//! The OpenMP-style parallel solver of Section IV, built on the solver's
//! kept worker [`Team`].
//!
//! The kernels are the sequential solver's, cut into pieces the way the
//! paper's OpenMP program cuts its loops. Fluid kernels mirror Algorithm
//! 2: the grid is cut into contiguous x-slabs ([`FluidGrid::slabs_mut`];
//! static schedule, one slab per thread), and each chunk runs the `lbm`
//! slab kernel on its slab. A parallel region is one [`Team::run`]: its
//! workers pull chunk indices from one atomic counter, and the run's
//! closing rendezvous is OpenMP's implicit barrier. Fiber kernels mirror
//! Algorithm 3: each chunk runs the `ib` range kernel on a chunk of fibers. Two kernels
//! have a parallel form of their own. Streaming (kernel 6, alone or fused
//! with 5) pushes across slab faces, so the slabs write one shared `f_new`
//! through [`SharedSlice`]. Force spreading (kernel 4) is two regions. A
//! region over fiber chunks builds each fiber node's delta stencil into a
//! buffer the solver keeps ([`CubeIndexer::planes`]), the step's only
//! kernel evaluation. A region over x-slabs then runs the one spread all
//! solvers run ([`spread`]), on slabs cut by the stencil points per plane
//! ([`cost_balanced_ranges`]) rather than by plane count: each slab owner
//! walks every stored stencil in global order and applies only the blocks
//! on its own planes, so no force slot has two writers and each receives
//! its contributions in the sequential order — bit-exact reruns,
//! independent of thread count and schedule, with no lock, atomic or
//! staging buffer. Kernel 8 interpolates through the same stencils, over
//! fiber chunks.
//!
//! Every region records per-thread busy time and the time each thread then
//! waits at the region's closing join (`max − busy_t`) into the run's
//! [`ThreadTelemetry`]; Table II's load imbalance is the resulting
//! [`RunTelemetry::barrier_wait_share`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ib::delta::{CubeIndexer, CubeStencil};
use ib::forces::{bending_forces, elastic_forces, stretching_forces};
use ib::interp::move_through;
use ib::sheet::FiberSheet;
use ib::spread::{add_force, spread};
use lbm::boundary::StreamRouter;
use lbm::collision::collide_shifted_slab;
use lbm::fused::{collided_block, push_planes, stored_block};
use lbm::grid::{FluidGrid, Slab};
use lbm::lattice::Q;
use lbm::macroscopic::update_velocity_shifted_slab;

use crate::config::KernelPlan;
use crate::profiling::KernelId;
use crate::sharedgrid::SharedSlice;
use crate::solver::{timed_steps, Backend, RunReport, SolverError};
use crate::state::SimState;
use crate::team::{Slots, Team};
use crate::telemetry::{RunTelemetry, ThreadTelemetry};

/// Splits `0..n` into `chunks` balanced contiguous ranges (static schedule).
/// The first `n % chunks` ranges get one extra element; empty ranges are
/// returned when `chunks > n` so thread identity is stable.
pub fn balanced_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    assert!(chunks > 0);
    let base = n / chunks;
    let rem = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for t in 0..chunks {
        let len = base + usize::from(t < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..costs.len()` into `chunks` contiguous ranges of about equal
/// total cost, `costs[i]` being the work of element `i`. Range `t` ends at
/// the first index where the running sum reaches `t + 1` equal shares of
/// the total, so no range exceeds a share by the largest single cost or
/// more. Empty ranges are returned where one element outweighs several
/// shares, so range `t` stays chunk `t`'s. An all-zero cost vector gives
/// [`balanced_ranges`]. The cube solver's loop-3 owners and the OpenMP
/// solver's spread slabs are both cut here.
pub fn cost_balanced_ranges(costs: &[u64], chunks: usize) -> Vec<Range<usize>> {
    assert!(chunks > 0);
    let total: u128 = costs.iter().map(|&c| u128::from(c)).sum();
    if total == 0 {
        return balanced_ranges(costs.len(), chunks);
    }
    let parts = chunks as u128;
    let mut out = Vec::with_capacity(chunks);
    let (mut start, mut end, mut sum) = (0, 0, 0u128);
    for t in 1..chunks as u128 {
        // `t < parts`, so the sum passes the target before `end` runs
        // out: the whole vector sums to `total * parts` shares.
        while sum * parts < total * t {
            sum += u128::from(costs[end]);
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out.push(start..costs.len());
    out
}

/// Splits a mutable slice into the sub-slices described by `ranges`
/// (which must be contiguous, ascending and within bounds).
fn split_by_ranges<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0;
    for r in ranges {
        debug_assert!(r.start == consumed, "ranges must tile the slice");
        let (head, tail) = slice.split_at_mut(r.end - consumed);
        out.push(head);
        slice = tail;
        consumed = r.end;
    }
    out
}

/// Charges one parallel region to the per-thread telemetry: worker `t`'s
/// busy seconds `busy[t]` go to `kernel`, and the time it then waits at
/// the region's closing join, `max − busy[t]`, to its barrier wait.
fn record_region(telemetry: &mut [ThreadTelemetry], kernel: KernelId, busy: &[f64]) {
    let max = busy.iter().copied().fold(0.0, f64::max);
    for (t, b) in telemetry.iter_mut().zip(busy) {
        t.kernel_seconds[kernel.index()] += b;
        t.barrier_wait_seconds += max - b;
        t.barrier_waits += 1;
    }
}

/// Loop scheduling policy, mirroring OpenMP's `schedule` clause. The paper
/// used static scheduling and notes that dynamic scheduling "obtained the
/// same performance"; both are provided.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One contiguous chunk per thread (OpenMP `schedule(static)`).
    #[default]
    Static,
    /// `factor` chunks per thread, each taken by the next idle worker
    /// (OpenMP `schedule(dynamic)` with a coarse chunk size).
    Dynamic { factor: usize },
}

/// The OpenMP-style solver: state + a kept worker team.
pub struct OpenMpSolver {
    pub state: SimState,
    /// Loop scheduling policy (static by default, as in the paper).
    pub schedule: Schedule,
    /// When true, [`OpenMpSolver::run`] attaches per-thread telemetry to
    /// its report.
    pub telemetry_enabled: bool,
    team: Team,
    /// Per-worker busy and region-wait seconds since the start of the
    /// current `run` call.
    telemetry: Vec<ThreadTelemetry>,
    /// One delta stencil per fiber node, built in kernel 4 and read in
    /// kernel 8 of the same step; the buffer is kept between steps.
    stencils: Vec<CubeStencil>,
}

impl OpenMpSolver {
    /// Creates the solver with `n_threads` worker threads.
    pub fn new(config: crate::config::SimulationConfig, n_threads: usize) -> Self {
        Self::from_state(SimState::new(config), n_threads)
    }

    /// Wraps an existing state. Panics on a zero thread count or when the
    /// OS refuses a worker thread.
    pub fn from_state(state: SimState, n_threads: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        Self::with_team(state, Team::start(n_threads, "lbmib-omp"))
    }

    /// Like [`OpenMpSolver::from_state`] but returns an error instead of
    /// panicking on a zero thread count or a refused thread.
    pub fn try_from_state(state: SimState, n_threads: usize) -> Result<Self, SolverError> {
        if n_threads == 0 {
            return Err(SolverError::ZeroThreads);
        }
        Ok(Self::with_team(
            state,
            Team::try_start(n_threads, "lbmib-omp")?,
        ))
    }

    fn with_team(state: SimState, team: Team) -> Self {
        Self {
            state,
            schedule: Schedule::default(),
            telemetry_enabled: false,
            telemetry: vec![ThreadTelemetry::default(); team.n_workers()],
            team,
            stencils: Vec::new(),
        }
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.team.n_workers()
    }

    /// Number of chunks each parallel loop is cut into under the current
    /// scheduling policy.
    fn n_chunks(&self) -> usize {
        match self.schedule {
            Schedule::Static => self.n_threads(),
            Schedule::Dynamic { factor } => self.n_threads() * factor.max(1),
        }
    }

    /// One full time step: Algorithm 1's kernels, each parallelised per
    /// Algorithms 2–3 (kernels 5+6 as one fused region under
    /// [`KernelPlan::Fused`]).
    pub fn step(&mut self) {
        self.fiber_force_kernels();
        self.spread_kernel();
        match self.state.config.plan {
            KernelPlan::Split => {
                self.collision_kernel();
                self.stream_kernel();
            }
            KernelPlan::Fused => self.fused_kernel(),
        }
        self.update_velocity_kernel();
        self.move_fibers_kernel();
        self.copy_kernel();
        self.state.step += 1;
    }

    /// Runs `n` time steps and reports the wall time spent.
    pub fn run(&mut self, n: u64) -> RunReport {
        let fibers = balanced_ranges(self.state.sheet.num_fibers, self.n_threads());
        self.telemetry = fibers
            .iter()
            .map(|r| ThreadTelemetry {
                fibers_owned: r.len() as u64,
                ..Default::default()
            })
            .collect();
        let mut report = timed_steps(n, || self.step());
        report.telemetry = self.telemetry_enabled.then(|| RunTelemetry {
            solver: Backend::Omp,
            steps: n,
            wall_seconds: report.wall.as_secs_f64(),
            per_thread: self.telemetry.clone(),
        });
        report
    }

    /// The x-plane ranges of the fluid slabs, one per chunk.
    fn planes(&self) -> Vec<Range<usize>> {
        balanced_ranges(self.state.config.nx, self.n_chunks())
    }

    /// The fiber ranges of the fiber chunks, and the node range of each.
    fn fiber_chunks(&self) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
        let nn = self.state.sheet.nodes_per_fiber;
        let fibers = balanced_ranges(self.state.sheet.num_fibers, self.n_chunks());
        let nodes = fibers.iter().map(|r| r.start * nn..r.end * nn).collect();
        (fibers, nodes)
    }

    /// Kernels 1–3: one region per kernel, parallel over fiber chunks
    /// (first loop of Algorithm 3); the cross-fiber pass is folded into the
    /// per-node gather. Tethers are applied after kernel 3's region, on the
    /// calling thread.
    fn fiber_force_kernels(&mut self) {
        let (fibers, nodes) = self.fiber_chunks();
        let (team, telemetry) = (&mut self.team, &mut self.telemetry);
        let topo = self.state.sheet.topology();
        let FiberSheet {
            pos,
            bending,
            stretching,
            elastic,
            ..
        } = &mut self.state.sheet;
        let pos = &pos[..];
        let chunks = split_by_ranges(bending, &nodes)
            .into_iter()
            .zip(fibers.clone());
        Self::region(
            &mut *team,
            telemetry,
            KernelId::BendingForce,
            chunks,
            |(out, fs)| bending_forces(&topo, pos, fs, out),
        );
        let chunks = split_by_ranges(stretching, &nodes).into_iter().zip(fibers);
        Self::region(
            &mut *team,
            telemetry,
            KernelId::StretchingForce,
            chunks,
            |(out, fs)| stretching_forces(&topo, pos, fs, out),
        );
        let (bending, stretching) = (&bending[..], &stretching[..]);
        let chunks = split_by_ranges(elastic, &nodes)
            .into_iter()
            .zip(nodes.iter().cloned());
        Self::region(
            &mut *team,
            telemetry,
            KernelId::ElasticForce,
            chunks,
            |(out, r)| elastic_forces(&bending[r.clone()], &stretching[r], out),
        );
        self.state.tethers.apply(&mut self.state.sheet);
    }

    /// Runs `work` over `items` as one parallel region charged to `kernel`
    /// (an associated function, so it can run while `self.state` is
    /// partially borrowed): one [`Team::run`] whose workers take the items
    /// by index from one atomic counter until none is left, each summing
    /// its own busy seconds. One item per worker is the static schedule,
    /// more is the dynamic one; the accounting is the same.
    fn region<I, F>(
        team: &mut Team,
        telemetry: &mut [ThreadTelemetry],
        kernel: KernelId,
        items: impl IntoIterator<Item = I>,
        work: F,
    ) where
        I: Send,
        F: Fn(I) + Sync,
    {
        let items = Slots::new(items);
        let next = AtomicUsize::new(0);
        let busy = Slots::empty(team.n_workers());
        team.run(|t| {
            #[cfg(feature = "racecheck")]
            crate::racecheck::set_thread(t);
            let mut seconds = 0.0;
            while let Some(item) = items.take(next.fetch_add(1, Ordering::Relaxed)) {
                let b0 = Instant::now();
                work(item);
                seconds += b0.elapsed().as_secs_f64();
            }
            busy.put(t, seconds);
            #[cfg(feature = "racecheck")]
            crate::racecheck::clear_thread();
        });
        let busy: Vec<f64> = busy
            .into_vec()
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
        record_region(telemetry, kernel, &busy);
    }

    /// Kernel 4 as two regions. The first, over fiber chunks, builds each
    /// fiber node's stencil into the kept buffer: the step's only delta
    /// evaluation, which kernel 8 reuses. The second, over x-slabs, resets
    /// each slab's force to the body force and applies the stencil blocks
    /// on its own planes ([`spread`]). Its slabs are not [`Self::planes`]
    /// but cut by the stencil points per plane, counted as the cube solver
    /// counts them ([`CubeIndexer::count_points`],
    /// [`cost_balanced_ranges`]), so a sheet that lies in one slab's planes
    /// is still spread by every thread. Every slab walks the fiber nodes in
    /// global order, so each force slot receives the sequential spread's
    /// products in the sequential order: bit-identical for every thread
    /// count, schedule and cut.
    fn spread_kernel(&mut self) {
        let (_, nodes) = self.fiber_chunks();
        let n_chunks = self.n_chunks();
        let c = self.state.config;
        let kernel = KernelId::SpreadForce;
        let indexer = CubeIndexer::planes(c.dims());
        let SimState { fluid, sheet, .. } = &mut self.state;
        let sheet = &*sheet;
        self.stencils.resize(sheet.n(), CubeStencil::default());
        let chunks = split_by_ranges(&mut self.stencils, &nodes)
            .into_iter()
            .zip(nodes.iter().cloned());
        Self::region(
            &mut self.team,
            &mut self.telemetry,
            kernel,
            chunks,
            |(out, r)| indexer.build(&sheet.pos[r], c.delta, &c.bc, out),
        );
        let stencils = &self.stencils[..];
        // Plane bricks: a point's brick is its plane.
        let mut points = vec![0u64; c.nx];
        indexer.count_points(&sheet.pos, c.delta, &c.bc, &mut points);
        let planes = cost_balanced_ranges(&points, n_chunks);
        let area = sheet.area_element();
        let slabs = fluid
            .slabs_mut(&planes)
            .into_iter()
            .zip(planes.iter().cloned());
        Self::region(
            &mut self.team,
            &mut self.telemetry,
            kernel,
            slabs,
            |(s, xs)| {
                let Slab { nodes, force, .. } = s;
                force.fill(c.body_force);
                spread(
                    stencils,
                    &sheet.elastic,
                    area,
                    xs,
                    |_| (),
                    |node, df| add_force(&mut force[node - nodes.start], df),
                );
            },
        );
    }

    /// Kernel 5: collision, parallel over x-slabs (Algorithm 2).
    fn collision_kernel(&mut self) {
        let (planes, tau) = (self.planes(), self.state.config.tau);
        let slabs = self.state.fluid.slabs_mut(&planes);
        Self::region(
            &mut self.team,
            &mut self.telemetry,
            KernelId::Collision,
            slabs,
            |mut s| collide_shifted_slab(&mut s, tau),
        );
    }

    /// Fused kernels 5+6: each slab collides its nodes in registers
    /// ([`collided_block`]) and pushes the results straight into `f_new`,
    /// skipping both the post-collision write-back of `f` and its re-read
    /// by streaming.
    fn fused_kernel(&mut self) {
        let tau = self.state.config.tau;
        self.push_region(KernelId::FusedCollideStream, |grid, node| {
            collided_block(grid, node, tau)
        });
    }

    /// Kernel 6: each slab pushes the post-collision blocks that kernel 5
    /// left in `f` ([`stored_block`]).
    fn stream_kernel(&mut self) {
        self.push_region(KernelId::Stream, |grid, node| stored_block(&grid.f, node));
    }

    /// Runs [`push_planes`] over x-slabs as one parallel region charged to
    /// `kernel`, with `post(grid, node)` supplying each node's block.
    ///
    /// `f_new` moves out of the grid into a [`SharedSlice`] for the region
    /// and back afterwards. The slabs write it without locks: push
    /// streaming writes each `(destination node, direction)` slot of
    /// `f_new` exactly once across the whole grid — interior/periodic
    /// routes keep their direction and map origin nodes injectively, and a
    /// bounce-back writes the origin's own `(node, opposite)` slot, whose
    /// upwind route crossed a wall and therefore never produces a neighbour
    /// write. No thread reads `f_new` during the region, and the team's
    /// closing rendezvous publishes the writes before kernel 7 reads them.
    fn push_region<P>(&mut self, kernel: KernelId, post: P)
    where
        P: Fn(&FluidGrid, usize) -> [f64; Q] + Sync,
    {
        let planes = self.planes();
        let dims = self.state.config.dims();
        let router = StreamRouter::new(dims, &self.state.config.bc);
        #[cfg(feature = "racecheck")]
        let phase = self.state.step;
        let fluid = &mut self.state.fluid;
        let f_new = SharedSlice::from_vec(std::mem::take(&mut fluid.f_new));
        #[cfg(feature = "racecheck")]
        f_new.name_for_racecheck("omp f_new");
        let (grid, router, shared) = (&*fluid, &router, &f_new);
        Self::region(&mut self.team, &mut self.telemetry, kernel, planes, |xs| {
            #[cfg(feature = "racecheck")]
            crate::racecheck::set_phase(phase);
            // SAFETY: every slot this slab writes is written by no
            // other slab (push injectivity, above), and no thread
            // reads `f_new` before the region joins.
            let write = |i, v| unsafe { shared.set(i, v) };
            push_planes(xs, dims, router, |node| post(grid, node), write);
        });
        self.state.fluid.f_new = f_new.into_vec();
    }

    /// Kernel 7: macroscopic update, parallel over x-slabs.
    fn update_velocity_kernel(&mut self) {
        let (planes, tau) = (self.planes(), self.state.config.tau);
        let slabs = self.state.fluid.slabs_mut(&planes);
        let kernel = KernelId::UpdateVelocity;
        Self::region(
            &mut self.team,
            &mut self.telemetry,
            kernel,
            slabs,
            |mut s| update_velocity_shifted_slab(&mut s, tau),
        );
    }

    /// Kernel 8: move fibers, parallel over fiber chunks, through the
    /// stencils kernel 4 stored.
    fn move_fibers_kernel(&mut self) {
        let (_, nodes) = self.fiber_chunks();
        let SimState { fluid, sheet, .. } = &mut self.state;
        let (fluid, stencils) = (&*fluid, &self.stencils);
        let chunks = split_by_ranges(&mut sheet.pos, &nodes)
            .into_iter()
            .zip(nodes.iter().cloned());
        Self::region(
            &mut self.team,
            &mut self.telemetry,
            KernelId::MoveFibers,
            chunks,
            |(pos, r)| move_through(pos, &stencils[r], fluid, 1.0),
        );
    }

    /// Kernel 9: buffer copy, parallel over x-slabs (memory bound).
    fn copy_kernel(&mut self) {
        let planes = self.planes();
        let slabs = self.state.fluid.slabs_mut(&planes);
        let kernel = KernelId::CopyDistributions;
        Self::region(&mut self.team, &mut self.telemetry, kernel, slabs, |s| {
            s.f.copy_from_slice(s.f_new)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;
    use crate::sequential::SequentialSolver;
    use crate::verify::tests::{assert_bitwise, narrow_config};

    #[test]
    fn balanced_ranges_tile_exactly() {
        for (n, c) in [(10, 3), (7, 7), (5, 8), (0, 2), (64, 4)] {
            let rs = balanced_ranges(n, c);
            assert_eq!(rs.len(), c);
            assert_eq!(rs.first().unwrap().start, 0);
            assert_eq!(rs.last().unwrap().end, n);
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let max = rs.iter().map(|r| r.len()).max().unwrap_or(0);
            let min = rs.iter().map(|r| r.len()).min().unwrap_or(0);
            assert!(max - min <= 1, "({n},{c}): {rs:?}");
        }
    }

    /// The cost cut tiles its range in order and keeps every range within
    /// one share of the total plus the largest single cost, on skewed,
    /// spiky and all-zero cost vectors (the last gives the equal cut).
    #[test]
    fn cost_balanced_ranges_tile_and_balance() {
        let skewed: Vec<u64> = (0..64)
            .map(|i| if (20..28).contains(&i) { 100 + i } else { 1 })
            .collect();
        let spike = {
            let mut v = vec![0u64; 10];
            v[3] = 1000;
            v[7] = 1;
            v
        };
        for costs in [skewed, spike, vec![0; 13], vec![5; 7], vec![], vec![3]] {
            for chunks in 1..=6 {
                let rs = cost_balanced_ranges(&costs, chunks);
                assert_eq!(rs.len(), chunks);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs[chunks - 1].end, costs.len());
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{costs:?} / {chunks}");
                }
                let total: u64 = costs.iter().sum();
                if total == 0 {
                    assert_eq!(rs, balanced_ranges(costs.len(), chunks));
                    continue;
                }
                let biggest = costs.iter().copied().max().unwrap_or(0);
                for r in &rs {
                    let sum: u64 = costs[r.clone()].iter().sum();
                    assert!(
                        sum * chunks as u64 <= total + biggest * chunks as u64,
                        "{costs:?} / {chunks}: {rs:?}"
                    );
                }
            }
        }
        // A skewed vector is cut inside its heavy stretch.
        let skewed: Vec<u64> = (0..64)
            .map(|i| if (20..28).contains(&i) { 100 } else { 0 })
            .collect();
        assert_eq!(cost_balanced_ranges(&skewed, 2), vec![0..24, 24..64]);
    }

    /// A dense sheet in one x-half: every spread slab cut (one to five
    /// threads, static and dynamic) gives the sequential bytes, and at two
    /// threads the cut falls inside the sheet's planes.
    #[test]
    fn dense_sheet_spread_slabs_are_cut_by_stencil_points() {
        let cfg = SimulationConfig::dense_sheet_test();
        let mut seq = SequentialSolver::new(cfg);
        seq.run(4);
        for threads in 1..=5 {
            for schedule in [Schedule::Static, Schedule::Dynamic { factor: 2 }] {
                let mut omp = OpenMpSolver::new(cfg, threads);
                omp.schedule = schedule;
                omp.run(4);
                assert_bitwise(
                    &seq.state,
                    &omp.state,
                    &format!("{threads} threads, {schedule:?}"),
                );
            }
        }
        let mut points = vec![0u64; cfg.nx];
        let indexer = CubeIndexer::planes(cfg.dims());
        for p in &seq.state.sheet.pos {
            indexer
                .stencil(*p, cfg.delta, &cfg.bc)
                .for_each(|x, _, _| points[x] += 1);
        }
        let cut = cost_balanced_ranges(&points, 2)[0].end;
        assert!(points[..cut].iter().any(|&p| p > 0) && points[cut..].iter().any(|&p| p > 0));
    }

    /// Checkpoint bytes equal to the sequential solver's — what CI's `cmp`
    /// of the two backends' `--save` files relies on — for both plans,
    /// several thread counts and the dynamic schedule.
    #[test]
    fn bitwise_equal_to_sequential_solver() {
        for cfg in both_plans() {
            let mut seq = SequentialSolver::new(cfg);
            seq.run(8);
            for threads in [1, 2, 3, 5] {
                for schedule in [Schedule::Static, Schedule::Dynamic { factor: 3 }] {
                    let mut omp = OpenMpSolver::new(cfg, threads);
                    omp.schedule = schedule;
                    omp.run(8);
                    let what = format!("{:?}, {threads} threads, {schedule:?}", cfg.plan);
                    assert_bitwise(&seq.state, &omp.state, &what);
                }
            }
        }
    }

    /// Six slabs over four planes: two slabs are empty, and the rest are
    /// one plane wide.
    #[test]
    fn empty_slabs_keep_bitwise_equality() {
        for plan in [KernelPlan::Split, KernelPlan::Fused] {
            let cfg = SimulationConfig {
                plan,
                ..narrow_config()
            };
            let mut seq = SequentialSolver::new(cfg);
            seq.run(8);
            let mut omp = OpenMpSolver::new(cfg, 6);
            omp.run(8);
            assert_bitwise(&seq.state, &omp.state, &format!("{plan:?}"));
        }
    }

    /// `quick_test` under each kernel plan.
    fn both_plans() -> [SimulationConfig; 2] {
        [KernelPlan::Split, KernelPlan::Fused].map(|plan| SimulationConfig {
            plan,
            ..SimulationConfig::quick_test()
        })
    }

    #[test]
    fn thread_count_does_not_change_results() {
        for cfg in both_plans() {
            let mut a = OpenMpSolver::new(cfg, 1);
            let mut b = OpenMpSolver::new(cfg, 4);
            a.run(6);
            b.run(6);
            // Every slab spreads in global fiber order whatever the slab
            // decomposition, and every force and streamed slot has one
            // writer, so the agreement across thread counts is exact, not
            // approximate.
            let plan = cfg.plan;
            assert_eq!(a.state.fluid.f, b.state.fluid.f, "{plan:?}");
            assert_eq!(a.state.fluid.u, b.state.fluid.u, "{plan:?}");
            assert_eq!(a.state.sheet.pos, b.state.sheet.pos, "{plan:?}");
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        for cfg in both_plans() {
            let mut a = OpenMpSolver::new(cfg, 4);
            let mut b = OpenMpSolver::new(cfg, 4);
            a.run(6);
            b.run(6);
            let plan = cfg.plan;
            assert_eq!(a.state.fluid.f, b.state.fluid.f, "{plan:?}");
            assert_eq!(a.state.sheet.pos, b.state.sheet.pos, "{plan:?}");
        }
    }

    #[test]
    fn profiler_and_imbalance_populated() {
        let cfg = SimulationConfig {
            plan: KernelPlan::Split,
            ..SimulationConfig::quick_test()
        };
        let mut omp = OpenMpSolver::new(cfg, 2);
        omp.telemetry_enabled = true;
        let report = omp.run(3);
        assert_eq!(report.steps, 3);
        let t = report.telemetry.expect("telemetry on");
        assert_eq!(t.n_threads(), 2);
        for k in KernelId::ALL {
            let secs = t.kernel_seconds(k);
            if k == KernelId::FusedCollideStream {
                assert_eq!(secs, 0.0);
            } else {
                assert!(secs > 0.0, "{k:?}");
            }
        }
        // Ten regions per split step (kernel 4 has two: the stencil build
        // and the spread), one closing join each per thread.
        for th in &t.per_thread {
            assert_eq!(th.barrier_waits, 10 * 3);
        }
        let share = t.barrier_wait_share();
        assert!((0.0..1.0).contains(&share), "{share}");
        let fibers: u64 = t.per_thread.iter().map(|th| th.fibers_owned).sum();
        assert_eq!(fibers as usize, omp.state.sheet.num_fibers);
    }

    /// Charges `busy` (seconds per thread) to `per_thread` as one region.
    fn charge(per_thread: &mut [ThreadTelemetry], kernel: KernelId, busy: &[f64]) {
        record_region(per_thread, kernel, busy);
    }

    /// The telemetry of a run made of the given regions.
    fn regions(n_threads: usize, rows: &[(KernelId, &[f64])]) -> RunTelemetry {
        let mut per_thread = vec![ThreadTelemetry::default(); n_threads];
        for (k, busy) in rows {
            charge(&mut per_thread, *k, busy);
        }
        RunTelemetry {
            solver: Backend::Omp,
            steps: 1,
            wall_seconds: 1.0,
            per_thread,
        }
    }

    #[test]
    fn skewed_region_measures_wait_share() {
        // Thread 0 busy 2 s, thread 1 busy 1 s: waits are (0, 1), average
        // 0.5 s against a 2 s critical path → 25%.
        let t = regions(2, &[(KernelId::Collision, &[2.0, 1.0])]);
        assert!((t.barrier_wait_share() - 0.25).abs() < 1e-12);
        // Per-thread view: thread 0 never waited, thread 1 waited 1 s.
        assert_eq!(t.per_thread[0].barrier_wait_seconds, 0.0);
        assert_eq!(t.per_thread[1].barrier_wait_seconds, 1.0);
        assert_eq!(
            t.per_thread[0].kernel_seconds[KernelId::Collision.index()],
            2.0
        );
        assert_eq!(t.barrier_waits(), 2);
        // A balanced region adds no wait.
        let even = regions(2, &[(KernelId::Stream, &[3.0, 3.0])]);
        assert_eq!(even.barrier_wait_share(), 0.0);
    }

    #[test]
    fn imbalance_relative_to_whole_program() {
        // 0.5 s average wait against a 2 + 3 s critical path: 10%.
        let t = regions(
            2,
            &[
                (KernelId::Collision, &[2.0, 1.0]),
                (KernelId::Stream, &[3.0, 3.0]),
            ],
        );
        assert!((t.barrier_wait_share() - 0.1).abs() < 1e-12);
        // Critical-path time: (busy + wait) / threads = (9 + 1) / 2.
        let critical = (t.busy_seconds() + t.barrier_wait_seconds()) / t.n_threads() as f64;
        assert!((critical - 5.0).abs() < 1e-12);
    }

    /// The Table II and Fig. 5 harnesses read the imbalance as
    /// `100 × barrier_wait_share` and the critical path as
    /// `(busy + wait) / threads`. Both must equal the per-region
    /// definition — imbalance `Σ_r Σ_t (max_r − busy_rt) / n` over critical
    /// path `Σ_r max_r` — on the same regions.
    #[test]
    fn telemetry_views_match_the_per_region_imbalance_definition() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in 1..=4 {
            let mut t = regions(n, &[]);
            let (mut imbalance, mut critical) = (0.0, 0.0);
            for r in 0..200 {
                let busy: Vec<f64> = (0..n).map(|_| 1e-4 * next()).collect();
                let max = busy.iter().copied().fold(0.0, f64::max);
                imbalance += busy.iter().map(|b| max - b).sum::<f64>() / n as f64;
                critical += max;
                charge(&mut t.per_thread, KernelId::ALL[r % KernelId::COUNT], &busy);
            }
            let pct = 100.0 * imbalance / critical;
            let got = 100.0 * t.barrier_wait_share();
            let span = (t.busy_seconds() + t.barrier_wait_seconds()) / n as f64;
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
            if n == 1 {
                assert_eq!(got, 0.0);
            } else {
                assert!(rel(got, pct) <= 1e-12, "{n} threads: {got} vs {pct}");
            }
            assert!(
                rel(span, critical) <= 1e-12,
                "{n} threads: {span} vs {critical}"
            );
        }
    }

    #[test]
    fn fused_plan_is_bit_identical_to_split() {
        // The fused sweep performs the same f64 arithmetic and stores the
        // same values at the same slots, so the agreement is exact, not
        // approximate.
        let split_cfg = SimulationConfig {
            plan: KernelPlan::Split,
            ..SimulationConfig::quick_test()
        };
        let fused_cfg = SimulationConfig {
            plan: KernelPlan::Fused,
            ..split_cfg
        };
        let mut split = OpenMpSolver::new(split_cfg, 3);
        let mut fused = OpenMpSolver::new(fused_cfg, 3);
        fused.telemetry_enabled = true;
        split.run(8);
        let t = fused.run(8).telemetry.expect("telemetry on");
        assert_eq!(split.state.fluid.f, fused.state.fluid.f);
        assert_eq!(split.state.fluid.u, fused.state.fluid.u);
        assert_eq!(split.state.sheet.pos, fused.state.sheet.pos);
        assert!(t.kernel_seconds(KernelId::FusedCollideStream) > 0.0);
        assert_eq!(t.kernel_seconds(KernelId::Collision), 0.0);
    }

    #[test]
    fn dynamic_schedule_matches_static() {
        let cfg = SimulationConfig::quick_test();
        let mut stat = OpenMpSolver::new(cfg, 3);
        let mut dynamic = OpenMpSolver::new(cfg, 3);
        dynamic.schedule = Schedule::Dynamic { factor: 4 };
        stat.run(8);
        dynamic.run(8);
        // Each slab spreads in global fiber order whichever worker runs
        // it, so even the work-stolen dynamic schedule is bit-exact
        // against static.
        assert_eq!(stat.state.fluid.f, dynamic.state.fluid.f);
        assert_eq!(stat.state.sheet.pos, dynamic.state.sheet.pos);
    }

    /// A region with more chunks than workers (the dynamic schedule) runs
    /// every chunk exactly once, whichever worker takes it, and charges
    /// one closing join to every worker.
    #[test]
    fn region_runs_every_chunk_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let mut team = Team::new(3, "omp-region").unwrap();
        let mut telemetry = vec![ThreadTelemetry::default(); 3];
        let runs: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..5 {
            OpenMpSolver::region(&mut team, &mut telemetry, KernelId::Collision, 0..40, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 5, "chunk {i}");
        }
        for t in &telemetry {
            assert_eq!(t.barrier_waits, 5);
        }
    }

    #[test]
    fn more_threads_than_fibers_is_fine() {
        let mut cfg = SimulationConfig::quick_test();
        cfg.sheet.num_fibers = 3;
        cfg.sheet.nodes_per_fiber = 8;
        let mut omp = OpenMpSolver::new(cfg, 6);
        omp.run(2);
        assert!(!omp.state.has_nan());
    }
}
