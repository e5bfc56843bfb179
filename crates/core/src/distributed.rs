//! Prototype of the paper's first stated future work: extending the
//! LBM-IB solvers "from shared memory manycore systems to extreme-scale
//! distributed memory manycore systems".
//!
//! This solver runs `n_ranks` workers that share **no** fluid state: each
//! rank owns a contiguous slab of x-planes plus two ghost planes of the
//! distribution buffer, and all communication flows through bounded
//! `std::sync::mpsc` messages — the in-process stand-in for MPI:
//!
//! * **halo exchange** — after collision each rank sends its first and
//!   last owned (post-collision) planes to its ring neighbours, so each
//!   rank can pull the populations that stream into it across a rank
//!   boundary;
//! * **structure replication + all-reduce** — every rank holds the whole
//!   (small) fiber sheet and computes its forces redundantly (Table I
//!   shows fiber kernels are ~0.05% of the work); spreading writes only
//!   the rank's own slab, and the velocity interpolation produces partial
//!   sums that are reduced in rank order (deterministically) and broadcast
//!   back, exactly the scheme distributed IB codes use over MPI.
//!
//! The x axis must be periodic (the paper's tunnel is); y/z walls are
//! handled locally by each rank. Kernels 5+6 always run fused
//! ([`DistributedSolver::PLAN`]), whatever `config.plan` says: a
//! rank-local collide–push sweep, then a ghost fix-up after the halo
//! exchange. The split schedule survives only in the sequential and
//! OpenMP solvers.

use ib::delta::for_each_influence;
use ib::forces::{bending_at, stretching_at};
use ib::sheet::FiberSheet;
use ib::tether::TetherSet;
use lbm::boundary::{moving_wall_correction, CoordRoute, StreamRouter};
use lbm::collision::bgk_collide_shifted;
use lbm::grid::wrap_axis;
use lbm::lattice::{OPPOSITE, Q};
use lbm::macroscopic::node_moments_shifted;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender as Sender};
use std::time::Duration;

use crate::config::{KernelPlan, SimulationConfig};
use crate::openmp::balanced_ranges;
use crate::profiling::KernelId;
use crate::solver::{Backend, RunReport, SolverError};
use crate::state::SimState;
use crate::telemetry::{RunTelemetry, ThreadTelemetry};

/// A communication failure observed by one rank mid-step. Converted to a
/// [`SolverError`] (with the observing rank attached) by
/// [`DistributedSolver::try_run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RankFault {
    /// No message from `peer` within the configured `halo_timeout`.
    Timeout { peer: usize },
    /// The channel to/from `peer` is disconnected (peer thread gone).
    PeerGone { peer: usize },
    /// The rank's step loop panicked; caught inside the rank thread so
    /// the slab comes back (contents unspecified mid-step) and the panic
    /// surfaces as [`SolverError::WorkerPanicked`] instead of unwinding
    /// through `join`.
    Panicked,
}

impl RankFault {
    /// Root-cause ordering for multi-rank faults: a panic names the rank
    /// that actually died, a timeout names the rank that first saw the
    /// silence, and disconnects are the cascade everyone else observes.
    fn severity(&self) -> u8 {
        match self {
            RankFault::Panicked => 2,
            RankFault::Timeout { .. } => 1,
            RankFault::PeerGone { .. } => 0,
        }
    }
}

/// Everything one rank owns. `f` carries two ghost planes (local plane 0 =
/// global `x0 − 1`, local plane `w + 1` = global `x1`); all other fields
/// cover only the `w` owned planes.
struct RankData {
    /// Owned global x-planes `x0..x1`.
    x0: usize,
    w: usize,
    /// Distributions with ghosts: `(w + 2) * ny * nz * Q`.
    f: Vec<f64>,
    /// Streamed distributions, owned planes only: `w * ny * nz * Q`.
    f_new: Vec<f64>,
    rho: Vec<f64>,
    ux: Vec<f64>,
    uy: Vec<f64>,
    uz: Vec<f64>,
    ueqx: Vec<f64>,
    ueqy: Vec<f64>,
    ueqz: Vec<f64>,
    fx: Vec<f64>,
    fy: Vec<f64>,
    fz: Vec<f64>,
}

impl RankData {
    /// A structurally valid slab of zeros for `w` planes at `x0` — the
    /// replacement for a slab lost to a panic that escaped the rank
    /// thread's catch. Physically garbage, but it keeps the solver's
    /// "contents unspecified mid-step" failure contract intact.
    fn zeroed(x0: usize, w: usize, plane: usize) -> Self {
        Self {
            x0,
            w,
            f: vec![0.0; (w + 2) * plane * Q],
            f_new: vec![0.0; w * plane * Q],
            rho: vec![0.0; w * plane],
            ux: vec![0.0; w * plane],
            uy: vec![0.0; w * plane],
            uz: vec![0.0; w * plane],
            ueqx: vec![0.0; w * plane],
            ueqy: vec![0.0; w * plane],
            ueqz: vec![0.0; w * plane],
            fx: vec![0.0; w * plane],
            fy: vec![0.0; w * plane],
            fz: vec![0.0; w * plane],
        }
    }
}

/// Messages exchanged between ranks.
enum Msg {
    /// One plane of distributions (`ny * nz * Q` values).
    Halo(Vec<f64>),
    /// Partial interpolated velocities for every fiber node.
    Partial(Vec<[f64; 3]>),
    /// Reduced velocities broadcast back from rank 0.
    Reduced(Vec<[f64; 3]>),
}

/// Channel fabric: `mesh[from][to]`.
struct Fabric {
    tx: Vec<Vec<Sender<Msg>>>,
    rx: Vec<Vec<Receiver<Msg>>>,
}

impl Fabric {
    fn new(n: usize) -> Self {
        let mut tx: Vec<Vec<Sender<Msg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut rx: Vec<Vec<Receiver<Msg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for from in 0..n {
            for _to in 0..n {
                let (s, r) = sync_channel(4);
                tx[from].push(s);
                rx[from].push(r);
            }
        }
        // rx[from][to] currently holds the receiver paired with tx[from][to];
        // re-index so rx[to][from] receives what tx[from][to] sends.
        let mut rx_by_dest: Vec<Vec<Option<Receiver<Msg>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (from, row) in rx.into_iter().enumerate() {
            for (to, r) in row.into_iter().enumerate() {
                rx_by_dest[to][from] = Some(r);
            }
        }
        let rx = rx_by_dest
            .into_iter()
            .map(|row| row.into_iter().map(Option::unwrap).collect())
            .collect();
        Self { tx, rx }
    }
}

/// The distributed-memory prototype solver.
pub struct DistributedSolver {
    pub config: SimulationConfig,
    n_ranks: usize,
    ranks: Vec<RankData>,
    pub sheet: FiberSheet,
    tethers: TetherSet,
    pub step: u64,
    /// When true, [`DistributedSolver::try_run`] attaches per-rank telemetry
    /// (kernel section times plus blocking-receive wait) to its report.
    pub telemetry_enabled: bool,
}

impl DistributedSolver {
    /// The kernel plan this solver runs, whatever `config.plan` says.
    pub const PLAN: KernelPlan = KernelPlan::Fused;

    /// Builds the solver, slicing the initial state into rank slabs.
    /// Panics unless the x axis is periodic and every rank gets at least
    /// one plane.
    pub fn new(config: SimulationConfig, n_ranks: usize) -> Self {
        Self::from_state(SimState::new(config), n_ranks)
    }

    /// Builds from an existing flat state.
    pub fn from_state(state: SimState, n_ranks: usize) -> Self {
        let config = state.config;
        assert!(
            config.bc.x.is_periodic(),
            "the distributed decomposition slices the periodic x axis"
        );
        assert!(n_ranks >= 1 && n_ranks <= config.nx, "need 1..=nx ranks");
        let dims = config.dims();
        let plane = dims.ny * dims.nz;
        let ranges = balanced_ranges(dims.nx, n_ranks);
        assert!(
            ranges.iter().all(|r| !r.is_empty()),
            "every rank needs at least one plane"
        );

        let g = &state.fluid;
        let ranks = ranges
            .iter()
            .map(|r| {
                let w = r.len();
                let mut rank = RankData {
                    x0: r.start,
                    w,
                    f: vec![0.0; (w + 2) * plane * Q],
                    f_new: vec![0.0; w * plane * Q],
                    rho: vec![0.0; w * plane],
                    ux: vec![0.0; w * plane],
                    uy: vec![0.0; w * plane],
                    uz: vec![0.0; w * plane],
                    ueqx: vec![0.0; w * plane],
                    ueqy: vec![0.0; w * plane],
                    ueqz: vec![0.0; w * plane],
                    fx: vec![0.0; w * plane],
                    fy: vec![0.0; w * plane],
                    fz: vec![0.0; w * plane],
                };
                for lx in 0..w {
                    let gx = r.start + lx;
                    for yz in 0..plane {
                        let gnode = gx * plane + yz;
                        let lnode = lx * plane + yz;
                        rank.f[(lx + 1) * plane * Q + yz * Q..(lx + 1) * plane * Q + yz * Q + Q]
                            .copy_from_slice(&g.f[gnode * Q..gnode * Q + Q]);
                        rank.f_new[lnode * Q..lnode * Q + Q]
                            .copy_from_slice(&g.f_new[gnode * Q..gnode * Q + Q]);
                        rank.rho[lnode] = g.rho[gnode];
                        rank.ux[lnode] = g.ux[gnode];
                        rank.uy[lnode] = g.uy[gnode];
                        rank.uz[lnode] = g.uz[gnode];
                        rank.ueqx[lnode] = g.ueqx[gnode];
                        rank.ueqy[lnode] = g.ueqy[gnode];
                        rank.ueqz[lnode] = g.ueqz[gnode];
                    }
                }
                rank
            })
            .collect();

        Self {
            config,
            n_ranks,
            ranks,
            sheet: state.sheet,
            tethers: state.tethers,
            step: state.step,
            telemetry_enabled: false,
        }
    }

    /// Like [`DistributedSolver::from_state`] but returns an error instead
    /// of panicking on a non-periodic x axis or a bad rank count.
    pub fn try_from_state(state: SimState, n_ranks: usize) -> Result<Self, SolverError> {
        if !state.config.bc.x.is_periodic() {
            return Err(SolverError::NonPeriodicX);
        }
        if n_ranks == 0 {
            return Err(SolverError::ZeroThreads);
        }
        if n_ranks > state.config.nx {
            return Err(SolverError::TooManyRanks {
                ranks: n_ranks,
                nx: state.config.nx,
            });
        }
        Ok(Self::from_state(state, n_ranks))
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Reassembles the global flat state into `out` (the gather behind
    /// [`crate::solver::Solver::to_state_into`]), reusing its buffers. The
    /// ranks own consecutive x-slabs and every field is node-major, so each
    /// field is its ranks' owned planes appended in rank order.
    pub fn to_state_into(&self, out: &mut SimState) {
        fn append(dst: &mut Vec<f64>, ranks: &[RankData], part: impl Fn(&RankData) -> &[f64]) {
            dst.clear();
            dst.reserve(ranks.iter().map(|r| part(r).len()).sum());
            for r in ranks {
                dst.extend_from_slice(part(r));
            }
        }
        let dims = self.config.dims();
        let plane = dims.ny * dims.nz;
        let (g, ranks) = (&mut out.fluid, &self.ranks[..]);
        g.dims = dims;
        append(&mut g.f, ranks, |r| &r.f[plane * Q..(r.w + 1) * plane * Q]);
        append(&mut g.f_new, ranks, |r| &r.f_new);
        append(&mut g.rho, ranks, |r| &r.rho);
        append(&mut g.ux, ranks, |r| &r.ux);
        append(&mut g.uy, ranks, |r| &r.uy);
        append(&mut g.uz, ranks, |r| &r.uz);
        append(&mut g.ueqx, ranks, |r| &r.ueqx);
        append(&mut g.ueqy, ranks, |r| &r.ueqy);
        append(&mut g.ueqz, ranks, |r| &r.ueqz);
        append(&mut g.fx, ranks, |r| &r.fx);
        append(&mut g.fy, ranks, |r| &r.fy);
        append(&mut g.fz, ranks, |r| &r.fz);
        out.config = self.config;
        out.sheet.clone_from(&self.sheet);
        out.tethers.clone_from(&self.tethers);
        out.step = self.step;
    }

    /// Runs `n_steps`, surfacing communication faults as typed errors:
    /// with [`SimulationConfig::halo_timeout`] set, a rank that waits
    /// longer than the timeout on a halo plane or on the velocity
    /// reduction returns [`SolverError::HaloTimeout`]; a disconnected peer
    /// returns [`SolverError::RankDisconnected`]; a rank whose step loop
    /// panics returns [`SolverError::WorkerPanicked`]. On a fault every
    /// rank unwinds at its next receive (its peers stop sending, so the
    /// timeout cascades), the slab and sheet buffers are restored
    /// (contents unspecified mid-step), and the step counter is left
    /// where the last *completed* call put it.
    pub fn try_run(&mut self, n_steps: u64) -> Result<RunReport, SolverError> {
        if n_steps == 0 {
            return Ok(RunReport::default());
        }
        let t0 = std::time::Instant::now();
        let n = self.n_ranks;
        let config = self.config;
        let sheet_template = self.sheet.clone();
        let tethers = self.tethers.clone();
        let fabric = Fabric::new(n);

        let ranks = std::mem::take(&mut self.ranks);
        // Slab layouts survive the move so a rank lost to an escaped panic
        // can be rebuilt as a structurally valid (zeroed) slab below.
        let layouts: Vec<(usize, usize)> = ranks.iter().map(|r| (r.x0, r.w)).collect();
        let plane = config.dims().ny * config.dims().nz;
        let Fabric {
            tx: tx_mesh,
            rx: rx_mesh,
        } = fabric;
        let results: Vec<(RankData, FiberSheet, Result<ThreadTelemetry, RankFault>)> =
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(n);
                for ((id, rank), rx) in ranks.into_iter().enumerate().zip(rx_mesh) {
                    let tx: Vec<Sender<Msg>> = tx_mesh[id].clone();
                    let sheet = sheet_template.clone();
                    let tethers = tethers.clone();
                    handles.push(scope.spawn(move || {
                        rank_main(id, n, rank, sheet, tethers, config, n_steps, tx, &rx)
                    }));
                }
                // Drop the original sender mesh so a rank that returns
                // early (fault) disconnects its outgoing channels and its
                // peers observe `PeerGone` instead of waiting out their
                // full timeout.
                drop(tx_mesh);
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(id, h)| match h.join() {
                        Ok(result) => result,
                        // `rank_main` catches unwinds, so a failed join
                        // means the panic escaped the catch (e.g. from a
                        // Drop). The slab is gone; hand back a zeroed one
                        // so the solver stays structurally valid, and
                        // surface the typed fault instead of panicking.
                        Err(_) => (
                            RankData::zeroed(layouts[id].0, layouts[id].1, plane),
                            sheet_template.clone(),
                            Err(RankFault::Panicked),
                        ),
                    })
                    .collect()
            });

        // Restore the state unconditionally — also on the failure path, so
        // the solver keeps structurally valid (if physically mid-step)
        // buffers.
        let mut fault: Option<(usize, RankFault)> = None;
        let mut new_ranks = Vec::with_capacity(n);
        let mut per_thread = Vec::with_capacity(n);
        let mut sheet_out = None;
        for (id, (rank, sheet, res)) in results.into_iter().enumerate() {
            match res {
                // "Cubes" for a rank are its owned x-planes; the sheet is
                // replicated, so every rank owns every fiber.
                Ok(t) => per_thread.push(ThreadTelemetry {
                    cubes_owned: rank.w as u64,
                    fibers_owned: sheet.num_fibers as u64,
                    ..t
                }),
                // Keep the most root-cause fault: a panic over the timeout
                // it causes, a timeout over the disconnects it cascades
                // into (see [`RankFault::severity`]).
                Err(f) => {
                    if fault
                        .as_ref()
                        .is_none_or(|(_, held)| f.severity() > held.severity())
                    {
                        fault = Some((id, f));
                    }
                }
            }
            new_ranks.push(rank);
            // All ranks hold identical replicated sheets; keep rank 0's.
            if sheet_out.is_none() {
                sheet_out = Some(sheet);
            }
        }
        self.ranks = new_ranks;
        // Every rank hands its sheet back even on the failure path; the
        // template only remains if a panic escaped `rank_main`'s catch.
        self.sheet = sheet_out.unwrap_or(sheet_template);

        if let Some((rank, f)) = fault {
            return Err(match f {
                RankFault::Timeout { peer } => SolverError::HaloTimeout { rank, peer },
                RankFault::PeerGone { peer } => SolverError::RankDisconnected { rank, peer },
                RankFault::Panicked => SolverError::WorkerPanicked {
                    thread: rank,
                    phase: "rank-step",
                },
            });
        }
        self.step += n_steps;
        let wall = t0.elapsed();
        Ok(RunReport {
            steps: n_steps,
            wall,
            telemetry: self.telemetry_enabled.then_some(RunTelemetry {
                solver: Backend::Dist,
                steps: n_steps,
                wall_seconds: wall.as_secs_f64(),
                per_thread,
            }),
            recovery: None,
        })
    }
}

/// Receives one message, charging the blocked time to the rank's
/// communication-wait accumulators (the distributed analogue of barrier
/// wait: the rank is stalled on a neighbour or on the reduction root).
/// With a `timeout`, a silent or disconnected peer becomes a typed
/// [`RankFault`] instead of an indefinite block.
fn recv_counted(
    rx: &Receiver<Msg>,
    peer: usize,
    timeout: Option<Duration>,
    wait_s: &mut f64,
    waits: &mut u64,
) -> Result<Msg, RankFault> {
    let t0 = std::time::Instant::now();
    let msg = match timeout {
        None => rx.recv().map_err(|_| RankFault::PeerGone { peer })?,
        Some(d) => rx.recv_timeout(d).map_err(|e| match e {
            RecvTimeoutError::Timeout => RankFault::Timeout { peer },
            RecvTimeoutError::Disconnected => RankFault::PeerGone { peer },
        })?,
    };
    *wait_s += t0.elapsed().as_secs_f64();
    *waits += 1;
    Ok(msg)
}

/// One rank's execution: runs the step loop and hands the slab and sheet
/// back even when the loop bailed on a communication fault, so the solver
/// can restore its buffers.
#[allow(clippy::too_many_arguments)]
fn rank_main(
    id: usize,
    n_ranks: usize,
    mut rank: RankData,
    mut sheet: FiberSheet,
    tethers: TetherSet,
    config: SimulationConfig,
    n_steps: u64,
    tx: Vec<Sender<Msg>>,
    rx: &[Receiver<Msg>],
) -> (RankData, FiberSheet, Result<ThreadTelemetry, RankFault>) {
    // Catch a panicking step loop inside the rank thread: the slab and
    // sheet come back (contents unspecified mid-step, same contract as a
    // communication fault), the panic surfaces as a typed fault, and
    // returning drops `tx` so peers observe the disconnect and unwind
    // instead of waiting out their full timeout.
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rank_steps(
            id, n_ranks, &mut rank, &mut sheet, &tethers, config, n_steps, &tx, rx,
        )
    }))
    .unwrap_or(Err(RankFault::Panicked));
    (rank, sheet, res)
}

/// The rank step loop. Returns the rank's kernel times and blocking-receive
/// waits; `Err` means a receive timed out or a peer vanished and this rank
/// stopped mid-step.
#[allow(clippy::too_many_arguments)]
fn rank_steps(
    id: usize,
    n_ranks: usize,
    rank: &mut RankData,
    sheet: &mut FiberSheet,
    tethers: &TetherSet,
    config: SimulationConfig,
    n_steps: u64,
    tx: &[Sender<Msg>],
    rx: &[Receiver<Msg>],
) -> Result<ThreadTelemetry, RankFault> {
    let dims = config.dims();
    let plane = dims.ny * dims.nz;
    let topo = sheet.topology();
    let nn = topo.nodes_per_fiber;
    let tau = config.tau;
    let bc = config.bc;
    let delta = config.delta;
    let timeout = config.halo_timeout;
    let area = sheet.area_element();
    let router = StreamRouter::new(dims, &bc);
    let left = (id + n_ranks - 1) % n_ranks;
    let right = (id + 1) % n_ranks;
    let x0 = rank.x0;
    let w = rank.w;
    let x1 = x0 + w; // exclusive

    // Local plane index of a global x that this rank can see (owned or
    // ghost), or None.
    let local_plane = |gx: usize| -> Option<usize> {
        if gx >= x0 && gx < x1 {
            Some(gx - x0 + 1)
        } else if gx == wrap_axis(x0, -1, dims.nx) {
            Some(0)
        } else if gx == wrap_axis(x1 - 1, 1, dims.nx) {
            Some(w + 1)
        } else {
            None
        }
    };

    // Per-rank telemetry: kernel section times plus blocking-receive wait.
    let mut busy = [0.0f64; KernelId::COUNT];
    let mut comm_wait_s = 0.0f64;
    let mut comm_waits = 0u64;

    for _step in 0..n_steps {
        // Kernels 1–3 (+ tethers): replicated on every rank.
        let mut mark = std::time::Instant::now();
        for fiber in 0..topo.num_fibers {
            for node in 0..nn {
                let i = fiber * nn + node;
                sheet.bending[i] = bending_at(&topo, &sheet.pos, fiber, node);
            }
        }
        busy[KernelId::BendingForce.index()] += mark.elapsed().as_secs_f64();
        mark = std::time::Instant::now();
        for fiber in 0..topo.num_fibers {
            for node in 0..nn {
                let i = fiber * nn + node;
                sheet.stretching[i] = stretching_at(&topo, &sheet.pos, fiber, node);
            }
        }
        busy[KernelId::StretchingForce.index()] += mark.elapsed().as_secs_f64();
        mark = std::time::Instant::now();
        for i in 0..sheet.n() {
            for a in 0..3 {
                sheet.elastic[i][a] = sheet.bending[i][a] + sheet.stretching[i][a];
            }
        }
        tethers.apply(sheet);
        busy[KernelId::ElasticForce.index()] += mark.elapsed().as_secs_f64();

        // Kernel 4: reset to body force, spread only into owned planes.
        mark = std::time::Instant::now();
        rank.fx.fill(config.body_force[0]);
        rank.fy.fill(config.body_force[1]);
        rank.fz.fill(config.body_force[2]);
        for i in 0..sheet.n() {
            let e = sheet.elastic[i];
            let f_l = [e[0] * area, e[1] * area, e[2] * area];
            if f_l == [0.0, 0.0, 0.0] {
                continue;
            }
            for_each_influence(sheet.pos[i], delta, dims, &bc, |inf| {
                if inf.x >= rank.x0 && inf.x < x1 {
                    let lnode = (inf.x - rank.x0) * plane + inf.y * dims.nz + inf.z;
                    rank.fx[lnode] += f_l[0] * inf.weight;
                    rank.fy[lnode] += f_l[1] * inf.weight;
                    rank.fz[lnode] += f_l[2] * inf.weight;
                }
            });
        }
        busy[KernelId::SpreadForce.index()] += mark.elapsed().as_secs_f64();

        // Fused kernels 5+6, slab-local part: collide every owned node in
        // registers and push the results straight into the owned slots of
        // f_new. Only the two boundary planes write their post-collision
        // values back into rank.f — the halo exchange ships exactly those
        // planes to the neighbours. Populations whose destination plane
        // belongs to another rank are dropped here; the owning rank
        // reconstructs them from its ghost planes after the exchange (see
        // the fix-up pass below).
        mark = std::time::Instant::now();
        for lx in 0..w {
            let gx = rank.x0 + lx;
            let boundary = lx == 0 || lx == w - 1;
            for y in 0..dims.ny {
                for z in 0..dims.nz {
                    let yz = y * dims.nz + z;
                    let fi = ((lx + 1) * plane + yz) * Q;
                    let lnode = lx * plane + yz;
                    let mut regs = [0.0f64; Q];
                    regs.copy_from_slice(&rank.f[fi..fi + Q]);
                    let ueq = [rank.ueqx[lnode], rank.ueqy[lnode], rank.ueqz[lnode]];
                    bgk_collide_shifted(&mut regs, rank.rho[lnode], ueq, tau);
                    if boundary {
                        rank.f[fi..fi + Q].copy_from_slice(&regs);
                    }
                    rank.f_new[lnode * Q] = regs[0];
                    for i in 1..Q {
                        match router.route(gx, y, z, i) {
                            CoordRoute::Neighbor(d) => {
                                if d[0] >= rank.x0 && d[0] < x1 {
                                    let dnode = (d[0] - rank.x0) * plane + d[1] * dims.nz + d[2];
                                    rank.f_new[dnode * Q + i] = regs[i];
                                }
                            }
                            CoordRoute::BounceBack {
                                opposite,
                                wall_velocity,
                            } => {
                                // x is periodic here, so walls are y/z
                                // only: the reflected slot is the origin
                                // node's own — owned.
                                rank.f_new[lnode * Q + opposite] =
                                    regs[i] - moving_wall_correction(i, wall_velocity);
                            }
                        }
                    }
                }
            }
        }
        busy[KernelId::FusedCollideStream.index()] += mark.elapsed().as_secs_f64();

        // Halo exchange: my first owned plane → left neighbour's right
        // ghost; my last owned plane → right neighbour's left ghost.
        let first_plane = rank.f[plane * Q..2 * plane * Q].to_vec();
        let last_plane = rank.f[w * plane * Q..(w + 1) * plane * Q].to_vec();
        if n_ranks == 1 {
            rank.f[(w + 1) * plane * Q..(w + 2) * plane * Q].copy_from_slice(&first_plane);
            rank.f[0..plane * Q].copy_from_slice(&last_plane);
        } else {
            // Chaos-test failpoints (empty unless the `faultinject`
            // feature is on): a delayed or silently dropped halo send.
            if let Some(d) = crate::faultinject::halo_send_delay(id) {
                std::thread::sleep(d);
            }
            if !crate::faultinject::drop_halo_send(id) {
                tx[left]
                    .send(Msg::Halo(first_plane))
                    .map_err(|_| RankFault::PeerGone { peer: left })?;
                tx[right]
                    .send(Msg::Halo(last_plane))
                    .map_err(|_| RankFault::PeerGone { peer: right })?;
            }
            // Receive: from right neighbour their first plane (my right
            // ghost), from left neighbour their last plane (my left ghost).
            match recv_counted(
                &rx[right],
                right,
                timeout,
                &mut comm_wait_s,
                &mut comm_waits,
            )? {
                Msg::Halo(p) => {
                    rank.f[(w + 1) * plane * Q..(w + 2) * plane * Q].copy_from_slice(&p)
                }
                _ => panic!("protocol error: expected halo"),
            }
            match recv_counted(&rx[left], left, timeout, &mut comm_wait_s, &mut comm_waits)? {
                Msg::Halo(p) => rank.f[0..plane * Q].copy_from_slice(&p),
                _ => panic!("protocol error: expected halo"),
            }
        }

        // Fused kernels 5+6, ghost fix-up: populations pushed toward my
        // boundary planes by neighbouring ranks never arrived (the push
        // above is rank-local), but their post-collision sources now sit in
        // my ghost planes. Pull exactly those entries — every other slot of
        // f_new was already written by the push. With one rank the push
        // covered the wrap too, and this pass matches nothing.
        mark = std::time::Instant::now();
        let boundary_planes: &[usize] = if w == 1 { &[0] } else { &[0, w - 1] };
        for &lx in boundary_planes {
            let gx = rank.x0 + lx;
            for y in 0..dims.ny {
                for z in 0..dims.nz {
                    let lnode = lx * plane + y * dims.nz + z;
                    for i in 1..Q {
                        let o = OPPOSITE[i];
                        if let CoordRoute::Neighbor(d) = router.route(gx, y, z, o) {
                            if d[0] < rank.x0 || d[0] >= x1 {
                                let lp = local_plane(d[0]).expect("upwind plane visible");
                                let src = (lp * plane + d[1] * dims.nz + d[2]) * Q + i;
                                rank.f_new[lnode * Q + i] = rank.f[src];
                            }
                        }
                    }
                }
            }
        }
        busy[KernelId::FusedCollideStream.index()] += mark.elapsed().as_secs_f64();

        // Kernel 7: macroscopic update on owned planes.
        mark = std::time::Instant::now();
        for lnode in 0..w * plane {
            let force = [rank.fx[lnode], rank.fy[lnode], rank.fz[lnode]];
            let (rho, u, ueq) =
                node_moments_shifted(&rank.f_new[lnode * Q..lnode * Q + Q], force, tau);
            rank.rho[lnode] = rho;
            rank.ux[lnode] = u[0];
            rank.uy[lnode] = u[1];
            rank.uz[lnode] = u[2];
            rank.ueqx[lnode] = ueq[0];
            rank.ueqy[lnode] = ueq[1];
            rank.ueqz[lnode] = ueq[2];
        }
        busy[KernelId::UpdateVelocity.index()] += mark.elapsed().as_secs_f64();

        // Kernel 8: partial interpolation over owned planes, then a
        // deterministic all-reduce (rank order) through rank 0. The local
        // work is charged to MoveFibers; time blocked in the reduction is
        // communication wait.
        mark = std::time::Instant::now();
        let mut partial = vec![[0.0f64; 3]; sheet.n()];
        for (i, p) in sheet.pos.iter().enumerate() {
            let mut u = [0.0; 3];
            for_each_influence(*p, delta, dims, &bc, |inf| {
                if inf.x >= rank.x0 && inf.x < x1 {
                    let lnode = (inf.x - rank.x0) * plane + inf.y * dims.nz + inf.z;
                    u[0] += rank.ux[lnode] * inf.weight;
                    u[1] += rank.uy[lnode] * inf.weight;
                    u[2] += rank.uz[lnode] * inf.weight;
                }
            });
            partial[i] = u;
        }
        busy[KernelId::MoveFibers.index()] += mark.elapsed().as_secs_f64();
        let reduced = if n_ranks == 1 {
            partial
        } else if id == 0 {
            let mut acc = partial;
            // Sum in rank order for determinism.
            let mut others: Vec<(usize, Vec<[f64; 3]>)> = Vec::with_capacity(n_ranks - 1);
            for r in 1..n_ranks {
                match recv_counted(&rx[r], r, timeout, &mut comm_wait_s, &mut comm_waits)? {
                    Msg::Partial(p) => others.push((r, p)),
                    _ => panic!("protocol error: expected partial"),
                }
            }
            others.sort_by_key(|(r, _)| *r);
            for (_, p) in others {
                for (a, b) in acc.iter_mut().zip(p) {
                    a[0] += b[0];
                    a[1] += b[1];
                    a[2] += b[2];
                }
            }
            for r in 1..n_ranks {
                tx[r]
                    .send(Msg::Reduced(acc.clone()))
                    .map_err(|_| RankFault::PeerGone { peer: r })?;
            }
            acc
        } else {
            tx[0]
                .send(Msg::Partial(partial))
                .map_err(|_| RankFault::PeerGone { peer: 0 })?;
            match recv_counted(&rx[0], 0, timeout, &mut comm_wait_s, &mut comm_waits)? {
                Msg::Reduced(v) => v,
                _ => panic!("protocol error: expected reduced"),
            }
        };
        mark = std::time::Instant::now();
        for (p, u) in sheet.pos.iter_mut().zip(&reduced) {
            p[0] += u[0];
            p[1] += u[1];
            p[2] += u[2];
        }
        busy[KernelId::MoveFibers.index()] += mark.elapsed().as_secs_f64();

        // Kernel 9: copy owned f_new back into the (ghosted) f buffer.
        mark = std::time::Instant::now();
        for lx in 0..w {
            let dst = (lx + 1) * plane * Q;
            let src = lx * plane * Q;
            rank.f[dst..dst + plane * Q].copy_from_slice(&rank.f_new[src..src + plane * Q]);
        }
        busy[KernelId::CopyDistributions.index()] += mark.elapsed().as_secs_f64();
    }

    Ok(ThreadTelemetry {
        kernel_seconds: busy,
        barrier_wait_seconds: comm_wait_s,
        barrier_waits: comm_waits,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialSolver;
    use crate::solver::Solver;
    use crate::verify::compare_states;

    #[test]
    fn distributed_matches_sequential() {
        let cfg = SimulationConfig::quick_test();
        let mut seq = SequentialSolver::new(cfg);
        seq.run(8);
        for ranks in [1, 2, 3, 4] {
            let mut dist = DistributedSolver::new(cfg, ranks);
            dist.try_run(8).unwrap();
            let d = compare_states(&seq.state, &dist.to_state());
            assert!(d.within(1e-11), "{ranks} ranks: {d:?}");
        }
    }

    #[test]
    fn split_runs_continue_exactly() {
        let cfg = SimulationConfig::quick_test();
        let mut once = DistributedSolver::new(cfg, 3);
        once.try_run(6).unwrap();
        let mut twice = DistributedSolver::new(cfg, 3);
        twice.try_run(3).unwrap();
        twice.try_run(3).unwrap();
        let d = compare_states(&once.to_state(), &twice.to_state());
        assert!(d.within(1e-12), "{d:?}");
        assert_eq!(once.step, twice.step);
    }

    #[test]
    fn configured_plan_does_not_change_results() {
        let cfg = SimulationConfig {
            plan: KernelPlan::Split,
            ..SimulationConfig::quick_test()
        };
        let fused_cfg = SimulationConfig {
            plan: KernelPlan::Fused,
            ..cfg
        };
        for ranks in [1, 2, 3, 4] {
            let mut split = DistributedSolver::new(cfg, ranks);
            let split_report = split.try_run(8).unwrap();
            let mut fused = DistributedSolver::new(fused_cfg, ranks);
            let fused_report = fused.try_run(8).unwrap();
            assert_eq!(split_report.steps, 8);
            assert_eq!(fused_report.steps, 8);
            let s = split.to_state();
            let f = fused.to_state();
            assert_eq!(s.fluid.f, f.fluid.f, "{ranks} ranks: f diverged");
            assert_eq!(s.fluid.ux, f.fluid.ux, "{ranks} ranks: ux diverged");
            assert_eq!(s.sheet.pos, f.sheet.pos, "{ranks} ranks: sheet diverged");
        }
    }

    #[test]
    #[should_panic(expected = "periodic x axis")]
    fn non_periodic_x_rejected() {
        let mut cfg = SimulationConfig::quick_test();
        cfg.bc.x = lbm::boundary::AxisBoundary::no_slip();
        cfg.sheet.center[0] = 12.0;
        DistributedSolver::new(cfg, 2);
    }

    #[test]
    fn halo_timeout_does_not_trip_on_healthy_runs() {
        let mut cfg = SimulationConfig::quick_test();
        cfg.halo_timeout = Some(Duration::from_secs(30));
        let mut dist = DistributedSolver::new(cfg, 3);
        let report = dist.try_run(4).expect("healthy run");
        assert_eq!(report.steps, 4);
        assert_eq!(dist.step, 4);
        assert!(!dist.to_state().has_nan());
    }

    #[test]
    fn gather_round_trip_before_any_step() {
        let cfg = SimulationConfig::quick_test();
        let reference = crate::state::SimState::new(cfg);
        let dist = DistributedSolver::new(cfg, 4);
        let gathered = dist.to_state();
        assert_eq!(gathered.fluid.f, reference.fluid.f);
        assert_eq!(gathered.fluid.rho, reference.fluid.rho);
    }
}
