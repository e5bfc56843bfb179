//! Prototype of the paper's first stated future work: extending the
//! LBM-IB solvers "from shared memory manycore systems to extreme-scale
//! distributed memory manycore systems".
//!
//! This solver runs `n_ranks` workers that share **no** fluid state: each
//! rank owns a contiguous slab of x-planes, and all communication flows
//! through bounded `std::sync::mpsc` messages — the in-process stand-in for
//! MPI:
//!
//! * **halo push** — each rank runs the flat plane loop
//!   ([`lbm::fused::push_planes`]) over its owned planes in global
//!   coordinates. A push that lands in the slab goes to the rank's `f_new`;
//!   one that lands on a neighbour's plane goes to that neighbour's outbox
//!   as a `(slot, value)` pair. One message per distinct neighbour and step
//!   carries exactly the populations that cross the face — at most 5 of
//!   the 19 per face node — and the receiver stores them before kernel 7;
//! * **structure replication + all-reduce** — every rank holds the whole
//!   (small) fiber sheet and computes its forces redundantly (Table I
//!   shows fiber kernels are ~0.05% of the work); spreading writes only
//!   the rank's own slab, and the velocity interpolation produces partial
//!   sums that are reduced in rank order (deterministically) and broadcast
//!   back, exactly the scheme distributed IB codes use over MPI.
//!
//! The x axis must be periodic (the paper's tunnel is); y/z walls are
//! handled locally by each rank. Kernels 5+6 always run fused
//! ([`DistributedSolver::PLAN`]), whatever `config.plan` says, and kernel 9
//! swaps `f` and `f_new`, as the cube solver does. The split schedule
//! survives only in the sequential and OpenMP solvers.

use ib::delta::for_each_influence;
use ib::forces::{bending_at, stretching_at};
use ib::sheet::FiberSheet;
use ib::tether::TetherSet;
use lbm::boundary::StreamRouter;
use lbm::fused::{collide_to_registers, push_planes};
use lbm::grid::Dims;
use lbm::lattice::Q;
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

/// Everything one rank owns: every field covers its `w` x-planes from
/// global plane `x0`, node-major as in the flat grid.
struct RankData {
    /// Owned global x-planes `x0..x0 + w`.
    x0: usize,
    w: usize,
    /// Distributions, `w * ny * nz * Q`.
    f: Vec<f64>,
    /// Streamed distributions, the same shape (kernel 9 swaps the two).
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
            f: vec![0.0; w * plane * Q],
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

/// One pushed population: its slot in the global distribution array and
/// its value.
type HaloEntry = (usize, f64);

/// Messages exchanged between ranks.
enum Msg {
    /// The populations a rank pushed onto the receiver's planes.
    Halo(Vec<HaloEntry>),
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
                let slab =
                    |v: &[f64], per: usize| v[r.start * plane * per..r.end * plane * per].to_vec();
                RankData {
                    x0: r.start,
                    w: r.len(),
                    f: slab(&g.f, Q),
                    // Every slot is pushed before it is read.
                    f_new: vec![0.0; r.len() * plane * Q],
                    rho: slab(&g.rho, 1),
                    ux: slab(&g.ux, 1),
                    uy: slab(&g.uy, 1),
                    uz: slab(&g.uz, 1),
                    ueqx: slab(&g.ueqx, 1),
                    ueqy: slab(&g.ueqy, 1),
                    ueqz: slab(&g.ueqz, 1),
                    fx: slab(&g.fx, 1),
                    fy: slab(&g.fy, 1),
                    fz: slab(&g.fz, 1),
                }
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
        let (g, ranks) = (&mut out.fluid, &self.ranks[..]);
        g.dims = self.config.dims();
        append(&mut g.f, ranks, |r| &r.f);
        // At a step boundary `f_new` is what the swap left behind; the
        // state's `f_new` is a copy of `f`, as after a kernel-9 copy.
        g.f_new.clone_from(&g.f);
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
    /// longer than the timeout on a halo message or on the velocity
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
    let halo = Halo::new(id, n_ranks, rank, dims);
    let x0 = rank.x0;
    let x1 = x0 + rank.w; // exclusive

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

        // Fused kernels 5+6: collide every owned node in registers and push
        // it; pushes that leave the slab fill one outbox per neighbour.
        mark = std::time::Instant::now();
        let outboxes = collide_push_slab(rank, dims, &router, tau, &halo);
        busy[KernelId::FusedCollideStream.index()] += mark.elapsed().as_secs_f64();

        // Halo exchange: each outbox to its neighbour, then the entries the
        // neighbours pushed onto this slab into f_new.
        if !halo.peers.is_empty() {
            // Chaos-test failpoints (empty unless the `faultinject`
            // feature is on): a delayed or silently dropped halo send.
            if let Some(d) = crate::faultinject::halo_send_delay(id) {
                std::thread::sleep(d);
            }
            if !crate::faultinject::drop_halo_send(id) {
                for (&peer, entries) in halo.peers.iter().zip(outboxes) {
                    tx[peer]
                        .send(Msg::Halo(entries))
                        .map_err(|_| RankFault::PeerGone { peer })?;
                }
            }
        }
        for &peer in &halo.peers {
            match recv_counted(&rx[peer], peer, timeout, &mut comm_wait_s, &mut comm_waits)? {
                Msg::Halo(entries) => {
                    mark = std::time::Instant::now();
                    for (slot, v) in entries {
                        rank.f_new[slot - halo.lo] = v;
                    }
                    busy[KernelId::FusedCollideStream.index()] += mark.elapsed().as_secs_f64();
                }
                _ => panic!("protocol error: expected halo"),
            }
        }

        // Kernel 7: macroscopic update on owned planes.
        mark = std::time::Instant::now();
        for lnode in 0..rank.w * plane {
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

        // Kernel 9: every slot of f_new was written this step, so the two
        // buffers swap roles.
        std::mem::swap(&mut rank.f, &mut rank.f_new);
    }

    Ok(ThreadTelemetry {
        kernel_seconds: busy,
        barrier_wait_seconds: comm_wait_s,
        barrier_waits: comm_waits,
        ..Default::default()
    })
}

/// A rank's halo layout: where its slab sits in the global distribution
/// array, and which neighbour owns each plane next to it.
struct Halo {
    /// Global slot range of the slab: `x0 * ny * nz * Q..x1 * ny * nz * Q`.
    lo: usize,
    hi: usize,
    /// Global slot range of the plane below the slab (`x0 − 1`, wrapped).
    left_plane: std::ops::Range<usize>,
    /// The distinct neighbour ranks, one outbox and one message each:
    /// none with one rank, one with two (left and right coincide), else
    /// `[left, right]`.
    peers: Vec<usize>,
}

impl Halo {
    fn new(id: usize, n_ranks: usize, rank: &RankData, dims: Dims) -> Self {
        let plane_q = dims.ny * dims.nz * Q;
        let left_x = (rank.x0 + dims.nx - 1) % dims.nx;
        let left = (id + n_ranks - 1) % n_ranks;
        let right = (id + 1) % n_ranks;
        let peers = match n_ranks {
            1 => vec![],
            2 => vec![left],
            _ => vec![left, right],
        };
        Self {
            lo: rank.x0 * plane_q,
            hi: (rank.x0 + rank.w) * plane_q,
            left_plane: left_x * plane_q..(left_x + 1) * plane_q,
            peers,
        }
    }
}

/// Fused kernels 5+6 of one rank: the flat plane loop over the owned
/// planes in global coordinates, colliding each node in registers from the
/// rank's arrays. A push that lands in the slab is stored in `rank.f_new`;
/// one that lands on a neighbour's plane goes to that neighbour's outbox,
/// returned in the order of `halo.peers`.
fn collide_push_slab(
    rank: &mut RankData,
    dims: Dims,
    router: &StreamRouter,
    tau: f64,
    halo: &Halo,
) -> Vec<Vec<HaloEntry>> {
    let RankData {
        x0,
        w,
        f,
        f_new,
        rho,
        ueqx,
        ueqy,
        ueqz,
        ..
    } = rank;
    let base = *x0 * dims.ny * dims.nz;
    let post = |node: usize| {
        let l = node - base;
        let ueq = [ueqx[l], ueqy[l], ueqz[l]];
        collide_to_registers(&f[l * Q..l * Q + Q], rho[l], ueq, tau)
    };
    // A push moves at most one plane, so a slot outside the slab lies on
    // the plane below it (the left neighbour's) or above it (the right's).
    let mut outboxes: Vec<Vec<HaloEntry>> = halo
        .peers
        .iter()
        .map(|_| Vec::with_capacity(5 * dims.ny * dims.nz))
        .collect();
    let right = outboxes.len().saturating_sub(1);
    let write = |slot: usize, v: f64| {
        if (halo.lo..halo.hi).contains(&slot) {
            f_new[slot - halo.lo] = v;
        } else if halo.left_plane.contains(&slot) {
            outboxes[0].push((slot, v));
        } else {
            outboxes[right].push((slot, v));
        }
    };
    push_planes(*x0..*x0 + *w, dims, router, post, write);
    outboxes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SheetConfig, TetherConfig};
    use crate::sequential::SequentialSolver;
    use crate::solver::Solver;
    use crate::verify::compare_states;
    use lbm::boundary::{AxisBoundary, BoundaryConfig, CoordRoute};

    /// Every field of the two states, tethers and step included, bit for
    /// bit: their checkpoint encodings must be the same bytes.
    fn assert_bitwise(want: &SimState, got: &SimState, what: &str) {
        let bytes = |s: &SimState| {
            let mut out = Vec::new();
            crate::checkpoint::write_checkpoint(s, &mut out).unwrap();
            out
        };
        assert!(
            bytes(want) == bytes(got),
            "{what}: {:?}",
            compare_states(want, got)
        );
    }

    #[test]
    fn distributed_is_bitwise_equal_to_sequential() {
        let quick = SimulationConfig::quick_test();
        let tethered = SimulationConfig {
            sheet: SheetConfig {
                tether: TetherConfig::CenterRegion {
                    radius: 2.0,
                    stiffness: 0.1,
                },
                ..quick.sheet
            },
            ..quick
        };
        // Four planes: at 4 ranks every slab is one plane wide, so each
        // node pushes across both of its slab's faces. The lid on the high
        // y wall moves along x, so bounced diagonals carry the moving-wall
        // correction across rank faces too.
        let narrow = SimulationConfig {
            nx: 4,
            bc: BoundaryConfig {
                y: AxisBoundary::Walls {
                    lo: [0.0; 3],
                    hi: [0.01, 0.0, 0.0],
                },
                ..quick.bc
            },
            sheet: SheetConfig {
                center: [2.0, 8.0, 8.0],
                ..quick.sheet
            },
            ..quick
        };
        for (name, cfg) in [("tethered", tethered), ("narrow", narrow)] {
            let mut seq = SequentialSolver::new(cfg);
            seq.run(8);
            for ranks in [1, 2, 3, 4] {
                let mut dist = DistributedSolver::new(cfg, ranks);
                dist.try_run(8).unwrap();
                assert_bitwise(
                    &seq.state,
                    &dist.to_state(),
                    &format!("{name}, {ranks} ranks"),
                );
            }
        }
    }

    /// Each halo message holds exactly the populations whose push leaves
    /// the sending slab (the routing reference decides which): at most 5
    /// per face node, fewer where a diagonal bounces off a y or z wall,
    /// and never a whole plane.
    #[test]
    fn halo_messages_carry_only_the_crossing_populations() {
        let cfg = SimulationConfig::quick_test();
        let dims = cfg.dims();
        let router = StreamRouter::new(dims, &cfg.bc);
        let plane = dims.ny * dims.nz;
        for n_ranks in [2, 3] {
            let mut dist = DistributedSolver::new(cfg, n_ranks);
            for (id, rank) in dist.ranks.iter_mut().enumerate() {
                let halo = Halo::new(id, n_ranks, rank, dims);
                assert_eq!(
                    halo.peers.len(),
                    n_ranks.min(3) - 1,
                    "one message per neighbour"
                );
                let (x0, x1) = (rank.x0, rank.x0 + rank.w);
                let left_x = (x0 + dims.nx - 1) % dims.nx;
                let mut want = vec![Vec::new(); halo.peers.len()];
                let mut leaving_per_node = Vec::new();
                for (x, y, z) in dims.iter_coords().filter(|c| (x0..x1).contains(&c.0)) {
                    let mut leaving = 0;
                    for i in 1..Q {
                        if let CoordRoute::Neighbor(d) = cfg.bc.route_coords(dims, x, y, z, i) {
                            if !(x0..x1).contains(&d[0]) {
                                let side = if d[0] == left_x { 0 } else { want.len() - 1 };
                                want[side].push(dims.idx(d[0], d[1], d[2]) * Q + i);
                                leaving += 1;
                            }
                        }
                    }
                    if x == x0 || x + 1 == x1 {
                        leaving_per_node.push(leaving);
                    } else {
                        assert_eq!(leaving, 0);
                    }
                }
                assert_eq!(leaving_per_node.iter().max(), Some(&5));
                assert!(leaving_per_node.iter().min() < Some(&5), "wall rows bounce");
                let outboxes = collide_push_slab(rank, dims, &router, cfg.tau, &halo);
                for (got, mut want) in outboxes.into_iter().zip(want) {
                    let mut got: Vec<usize> = got.iter().map(|e| e.0).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{n_ranks} ranks, rank {id}");
                    assert!(got.len() < plane * Q, "a whole plane");
                }
            }
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
