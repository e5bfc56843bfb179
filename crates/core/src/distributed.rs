//! Prototype of the paper's first stated future work: extending the
//! LBM-IB solvers "from shared memory manycore systems to extreme-scale
//! distributed memory manycore systems".
//!
//! This solver runs `n_ranks` workers, the members of a [`Team`] built
//! with the solver, that share **no** fluid state: each
//! rank owns a contiguous slab of x-planes as a [`FluidGrid`] of its own,
//! and all communication flows through bounded `std::sync::mpsc` messages
//! — the in-process stand-in for MPI. Each rank runs the sequential
//! solver's kernels on its own sub-domain (kernels 1–3 from `ib::forces`,
//! the spread from `ib::spread`, the interpolation from `ib::interp`, the
//! collision from
//! [`lbm::fused::collided_block`], kernel 7 from
//! [`lbm::macroscopic::update_velocity_shifted`]) and exchanges only
//! boundary data:
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
//!   shows fiber kernels are ~0.05% of the work). Each rank builds, once
//!   per step, the stencil of every fiber node whose support reaches its
//!   planes (the others stay empty); the spread
//!   ([`ib::spread::spread`]) applies the blocks on the rank's own planes,
//!   and the velocity interpolation ([`ib::interp::interp`]) sums over the
//!   same planes. The partial sums are reduced in rank order
//!   (deterministically) and broadcast back, exactly the scheme
//!   distributed IB codes use over MPI.
//!
//! The x axis must be periodic (the paper's tunnel is); y/z walls are
//! handled locally by each rank. Kernels 5+6 always run fused
//! ([`DistributedSolver::PLAN`]), whatever `config.plan` says, and kernel 9
//! swaps `f` and `f_new`, as the cube solver does. The split schedule
//! survives only in the sequential and OpenMP solvers.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender as Sender};
use std::time::{Duration, Instant};

use ib::delta::{CubeIndexer, CubeStencil};
use ib::forces::{compute_bending_force, compute_elastic_force, compute_stretching_force};
use ib::interp::interp;
use ib::sheet::FiberSheet;
use ib::spread::{add_force, spread};
use ib::tether::TetherSet;
use lbm::boundary::StreamRouter;
use lbm::fused::{collided_block, push_planes};
use lbm::grid::{Dims, FluidGrid};
use lbm::lattice::Q;
use lbm::macroscopic::update_velocity_shifted;

use crate::config::{KernelPlan, SimulationConfig};
use crate::openmp::balanced_ranges;
use crate::profiling::KernelId;
use crate::solver::{Backend, RunReport, SolverError};
use crate::state::SimState;
use crate::team::{Slots, Team};
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
    /// `peer` sent a message other than the `expected` one: it skipped a
    /// step of the exchange protocol.
    OutOfSequence { peer: usize, expected: &'static str },
    /// The rank's step loop panicked; the panic surfaces as
    /// [`SolverError::WorkerPanicked`] instead of unwinding the team.
    Panicked,
}

impl RankFault {
    /// Root-cause ordering for multi-rank faults: a panic names the rank
    /// that actually died, an out-of-sequence message names the peer that
    /// skipped a send, a timeout names the rank that first saw the
    /// silence, and disconnects are the cascade everyone else observes.
    fn severity(&self) -> u8 {
        match self {
            RankFault::Panicked => 3,
            RankFault::OutOfSequence { .. } => 2,
            RankFault::Timeout { .. } => 1,
            RankFault::PeerGone { .. } => 0,
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

/// Channel fabric: `tx[from][to]` sends to `rx[to][from]`.
struct Fabric {
    tx: Vec<Vec<Sender<Msg>>>,
    rx: Vec<Vec<Receiver<Msg>>>,
}

impl Fabric {
    fn new(n: usize) -> Self {
        let mut tx = Vec::with_capacity(n);
        let mut rx: Vec<Vec<Receiver<Msg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for _from in 0..n {
            let mut row = Vec::with_capacity(n);
            // `from` is the outer loop, so each `rx[to]` fills in `from`
            // order.
            for rx_to in &mut rx {
                let (s, r) = sync_channel(4);
                row.push(s);
                rx_to.push(r);
            }
            tx.push(row);
        }
        Self { tx, rx }
    }
}

/// The distributed-memory prototype solver.
pub struct DistributedSolver {
    pub config: SimulationConfig,
    /// Rank `r`'s own x-planes, `balanced_ranges(nx, n_ranks)[r]`, as a
    /// grid of their own.
    slabs: Vec<FluidGrid>,
    pub sheet: FiberSheet,
    tethers: TetherSet,
    pub step: u64,
    /// The kept workers, one per rank.
    team: Team,
    /// When true, [`DistributedSolver::try_run`] attaches per-rank telemetry
    /// (kernel section times plus blocking-receive wait) to its report.
    pub telemetry_enabled: bool,
}

impl DistributedSolver {
    /// The kernel plan this solver runs, whatever `config.plan` says.
    pub const PLAN: KernelPlan = KernelPlan::Fused;

    /// Builds the solver, slicing the initial state into rank slabs.
    /// Panics unless the x axis is periodic and every rank gets at least
    /// one plane, or when the OS refuses a worker thread.
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
        Self::with_team(state, Team::start(n_ranks, "lbmib-rank"))
    }

    fn with_team(state: SimState, team: Team) -> Self {
        let config = state.config;
        let slabs = balanced_ranges(config.nx, team.n_workers())
            .into_iter()
            .map(|xs| state.fluid.planes(xs))
            .collect();
        Self {
            config,
            slabs,
            sheet: state.sheet,
            tethers: state.tethers,
            step: state.step,
            team,
            telemetry_enabled: false,
        }
    }

    /// Like [`DistributedSolver::from_state`] but returns an error instead
    /// of panicking on a non-periodic x axis, a bad rank count or a
    /// refused thread.
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
        let team = Team::try_start(n_ranks, "lbmib-rank")?;
        Ok(Self::with_team(state, team))
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.slabs.len()
    }

    /// Reassembles the global flat state into `out` (the gather behind
    /// [`crate::solver::Solver::to_state_into`]), reusing its buffers: the
    /// rank slabs stacked along x. At a step boundary a rank's `f_new` is
    /// what the swap left behind, so the state's `f_new` is filled from
    /// the ranks' `f`, as after a kernel-9 copy, in the same pass.
    pub fn to_state_into(&self, out: &mut SimState) {
        out.fluid.concat_planes(&self.slabs);
        out.config = self.config;
        out.sheet.clone_from(&self.sheet);
        out.tethers.clone_from(&self.tethers);
        out.step = self.step;
    }

    /// Runs `n_steps`, surfacing communication faults as typed errors:
    /// with [`SimulationConfig::halo_timeout`] set, a rank that waits
    /// longer than the timeout on a halo message or on the velocity
    /// reduction returns [`SolverError::HaloTimeout`]; a disconnected peer
    /// returns [`SolverError::RankDisconnected`]; a peer whose message
    /// arrives out of protocol order returns
    /// [`SolverError::OutOfSequence`]; a rank whose step loop panics
    /// returns [`SolverError::WorkerPanicked`]. On a fault every rank
    /// unwinds at its next receive (its peers stop sending, so the
    /// timeout cascades), the slabs and sheet keep their (mid-step)
    /// contents, and the step counter is left where the last *completed*
    /// call put it.
    pub fn try_run(&mut self, n_steps: u64) -> Result<RunReport, SolverError> {
        if n_steps == 0 {
            return Ok(RunReport::default());
        }
        let t0 = Instant::now();
        let n = self.n_ranks();
        let config = self.config;
        let Fabric { tx, rx } = Fabric::new(n);
        // Rank 0 steps the solver's own sheet; the others step replicas.
        let mut replicas: Vec<FiberSheet> = (1..n).map(|_| self.sheet.clone()).collect();
        let sheets = std::iter::once(&mut self.sheet).chain(&mut replicas);
        let tethers = &self.tethers;
        // Each rank takes its own slab, sheet and channel ends by index.
        let ranks = Slots::new(
            balanced_ranges(config.nx, n)
                .into_iter()
                .zip(self.slabs.iter_mut())
                .zip(sheets)
                .zip(tx)
                .zip(rx),
        );
        let results = Slots::empty(n);
        self.team.run(|id| {
            let Some(((((xs, grid), sheet), tx), rx)) = ranks.take(id) else {
                return;
            };
            let inbox = Inbox {
                rx,
                timeout: config.halo_timeout,
                wait_s: 0.0,
                waits: 0,
            };
            let rank = Rank { id, n, xs };
            let result = catch_unwind(AssertUnwindSafe(|| {
                rank_steps(&rank, grid, sheet, tethers, config, n_steps, &tx, inbox)
            }));
            results.put(id, result.unwrap_or(Err(RankFault::Panicked)));
            // The rank's senders drop here, so a rank that returns early
            // (fault) disconnects its outgoing channels and its peers
            // observe `PeerGone` instead of waiting out their full timeout.
        });

        let mut fault: Option<(usize, RankFault)> = None;
        let mut per_thread = Vec::with_capacity(n);
        for (id, res) in results.into_vec().into_iter().flatten().enumerate() {
            match res {
                // "Cubes" for a rank are its owned x-planes; the sheet is
                // replicated, so every rank owns every fiber.
                Ok(t) => per_thread.push(ThreadTelemetry {
                    cubes_owned: self.slabs[id].dims.nx as u64,
                    fibers_owned: self.sheet.num_fibers as u64,
                    ..t
                }),
                // Keep the most root-cause fault (see
                // [`RankFault::severity`]).
                Err(f) => {
                    if fault
                        .as_ref()
                        .is_none_or(|(_, held)| f.severity() > held.severity())
                    {
                        fault = Some((id, f));
                    }
                }
            }
        }
        if let Some((rank, f)) = fault {
            return Err(match f {
                RankFault::Timeout { peer } => SolverError::HaloTimeout { rank, peer },
                RankFault::PeerGone { peer } => SolverError::RankDisconnected { rank, peer },
                RankFault::OutOfSequence { peer, expected } => SolverError::OutOfSequence {
                    rank,
                    peer,
                    expected,
                },
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

/// Where a rank sits: its id among `n` ranks and its owned global
/// x-planes `xs`.
struct Rank {
    id: usize,
    n: usize,
    xs: Range<usize>,
}

/// A rank's receiving end: one channel per peer (`rx[peer]`), the halo
/// timeout, and the time spent blocked — the distributed analogue of
/// barrier wait: the rank is stalled on a neighbour or on the reduction
/// root.
struct Inbox {
    rx: Vec<Receiver<Msg>>,
    timeout: Option<Duration>,
    wait_s: f64,
    waits: u64,
}

impl Inbox {
    /// Receives the next message from `peer`, which the protocol says is
    /// the `expected` kind; `payload` unwraps it. A silent or disconnected
    /// peer, or a message of another kind, is a typed [`RankFault`].
    fn recv<T>(
        &mut self,
        peer: usize,
        expected: &'static str,
        payload: fn(Msg) -> Option<T>,
    ) -> Result<T, RankFault> {
        let t0 = Instant::now();
        let rx = &self.rx[peer];
        let msg = match self.timeout {
            None => rx.recv().map_err(|_| RankFault::PeerGone { peer })?,
            Some(d) => rx.recv_timeout(d).map_err(|e| match e {
                RecvTimeoutError::Timeout => RankFault::Timeout { peer },
                RecvTimeoutError::Disconnected => RankFault::PeerGone { peer },
            })?,
        };
        self.wait_s += t0.elapsed().as_secs_f64();
        self.waits += 1;
        payload(msg).ok_or(RankFault::OutOfSequence { peer, expected })
    }
}

/// Runs `f`, adding its wall time to `busy`'s entry for `kernel`.
fn timed<T>(busy: &mut [f64; KernelId::COUNT], kernel: KernelId, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    busy[kernel.index()] += t0.elapsed().as_secs_f64();
    out
}

/// The rank step loop over the rank's grid and sheet replica. Returns the
/// rank's kernel times and blocking-receive waits; `Err` means a receive
/// timed out, a peer vanished or broke the protocol, and this rank
/// stopped mid-step.
#[allow(clippy::too_many_arguments)]
fn rank_steps(
    rank: &Rank,
    grid: &mut FluidGrid,
    sheet: &mut FiberSheet,
    tethers: &TetherSet,
    config: SimulationConfig,
    n_steps: u64,
    tx: &[Sender<Msg>],
    mut inbox: Inbox,
) -> Result<ThreadTelemetry, RankFault> {
    use KernelId::*;
    let dims = config.dims();
    let (tau, bc, delta, body) = (config.tau, config.bc, config.delta, config.body_force);
    let router = StreamRouter::new(dims, &bc);
    let halo = Halo::new(rank, dims);
    let mut busy = [0.0f64; KernelId::COUNT];
    // The stencils of the rank's sheet replica, built in kernel 4 and read
    // in kernel 8 of the same step.
    let indexer = CubeIndexer::planes(dims);
    let mut stencils = vec![CubeStencil::default(); sheet.n()];
    // Flat index of the rank's first node; `owns` picks its planes.
    let first = rank.xs.start * dims.ny * dims.nz;
    let owns = |x: usize| rank.xs.contains(&x);
    let area = sheet.area_element();

    for _step in 0..n_steps {
        // Kernels 1–3 (+ tethers): replicated on every rank.
        timed(&mut busy, BendingForce, || compute_bending_force(sheet));
        timed(&mut busy, StretchingForce, || {
            compute_stretching_force(sheet)
        });
        timed(&mut busy, ElasticForce, || {
            compute_elastic_force(sheet);
            tethers.apply(sheet);
        });

        // Kernel 4: build the stencils that reach the owned planes (the
        // others stay empty), reset to body force, and spread the blocks
        // on the owned planes.
        timed(&mut busy, SpreadForce, || {
            indexer.build_reaching(&sheet.pos, delta, &bc, rank.xs.clone(), &mut stencils);
            let force = &mut grid.force;
            force.fill(body);
            spread(
                &stencils,
                &sheet.elastic,
                area,
                rank.xs.clone(),
                |_| (),
                |node, df| add_force(&mut force[node - first], df),
            );
        });

        // Fused kernels 5+6: collide every owned node in registers and push
        // it; pushes that leave the slab fill one outbox per neighbour.
        let outboxes = timed(&mut busy, FusedCollideStream, || {
            collide_push_slab(grid, rank, dims, &router, tau, &halo)
        });

        // Halo exchange: each outbox to its neighbour, then the entries the
        // neighbours pushed onto this slab into f_new.
        if !halo.peers.is_empty() {
            // Chaos-test failpoints (empty unless the `faultinject`
            // feature is on): a delayed or silently dropped halo send.
            if let Some(d) = crate::faultinject::halo_send_delay(rank.id) {
                std::thread::sleep(d);
            }
            if !crate::faultinject::drop_halo_send(rank.id) {
                for (&peer, entries) in halo.peers.iter().zip(outboxes) {
                    tx[peer]
                        .send(Msg::Halo(entries))
                        .map_err(|_| RankFault::PeerGone { peer })?;
                }
            }
        }
        for &peer in &halo.peers {
            let entries = inbox.recv(peer, "halo", |m| match m {
                Msg::Halo(e) => Some(e),
                _ => None,
            })?;
            timed(&mut busy, FusedCollideStream, || {
                for (slot, v) in entries {
                    grid.f_new[slot - halo.lo] = v;
                }
            });
        }

        // Kernel 7: macroscopic update on owned planes.
        timed(&mut busy, UpdateVelocity, || {
            update_velocity_shifted(grid, tau)
        });

        // Kernel 8: partial interpolation over owned planes, then a
        // deterministic all-reduce (rank order) through rank 0. The local
        // work is charged to MoveFibers; time blocked in the reduction is
        // communication wait.
        let partial: Vec<[f64; 3]> = timed(&mut busy, MoveFibers, || {
            let grid = &*grid;
            let velocity = |node: usize| grid.u[node - first];
            stencils.iter().map(|s| interp(s, owns, velocity)).collect()
        });
        let reduced = if rank.n == 1 {
            partial
        } else if rank.id == 0 {
            // Sum in rank order for determinism.
            let mut acc = partial;
            for r in 1..rank.n {
                let p = inbox.recv(r, "partial", |m| match m {
                    Msg::Partial(p) => Some(p),
                    _ => None,
                })?;
                for (a, b) in acc.iter_mut().zip(p) {
                    a[0] += b[0];
                    a[1] += b[1];
                    a[2] += b[2];
                }
            }
            for r in 1..rank.n {
                tx[r]
                    .send(Msg::Reduced(acc.clone()))
                    .map_err(|_| RankFault::PeerGone { peer: r })?;
            }
            acc
        } else {
            tx[0]
                .send(Msg::Partial(partial))
                .map_err(|_| RankFault::PeerGone { peer: 0 })?;
            inbox.recv(0, "reduced", |m| match m {
                Msg::Reduced(v) => Some(v),
                _ => None,
            })?
        };
        timed(&mut busy, MoveFibers, || {
            for (p, u) in sheet.pos.iter_mut().zip(&reduced) {
                p[0] += u[0];
                p[1] += u[1];
                p[2] += u[2];
            }
        });

        // Kernel 9: every slot of f_new was written this step, so the two
        // buffers swap roles.
        grid.swap_distributions();
    }

    Ok(ThreadTelemetry {
        kernel_seconds: busy,
        barrier_wait_seconds: inbox.wait_s,
        barrier_waits: inbox.waits,
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
    left_plane: Range<usize>,
    /// The distinct neighbour ranks, one outbox and one message each:
    /// none with one rank, one with two (left and right coincide), else
    /// `[left, right]`.
    peers: Vec<usize>,
}

impl Halo {
    fn new(rank: &Rank, dims: Dims) -> Self {
        let plane_q = dims.ny * dims.nz * Q;
        let left_x = (rank.xs.start + dims.nx - 1) % dims.nx;
        let left = (rank.id + rank.n - 1) % rank.n;
        let right = (rank.id + 1) % rank.n;
        let peers = match rank.n {
            1 => vec![],
            2 => vec![left],
            _ => vec![left, right],
        };
        Self {
            lo: rank.xs.start * plane_q,
            hi: rank.xs.end * plane_q,
            left_plane: left_x * plane_q..(left_x + 1) * plane_q,
            peers,
        }
    }
}

/// Fused kernels 5+6 of one rank: the flat plane loop over the owned
/// planes in global coordinates, colliding each node in registers from the
/// rank's grid ([`collided_block`]). A push that lands in the slab is
/// stored in `grid.f_new`; one that lands on a neighbour's plane goes to
/// that neighbour's outbox, returned in the order of `halo.peers`.
fn collide_push_slab(
    grid: &mut FluidGrid,
    rank: &Rank,
    dims: Dims,
    router: &StreamRouter,
    tau: f64,
    halo: &Halo,
) -> Vec<Vec<HaloEntry>> {
    let base = rank.xs.start * dims.ny * dims.nz;
    let mut f_new = std::mem::take(&mut grid.f_new);
    let own = &*grid;
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
    let post = |node: usize| collided_block(own, node - base, tau);
    push_planes(rank.xs.clone(), dims, router, post, write);
    grid.f_new = f_new;
    outboxes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SheetConfig, TetherConfig};
    use crate::sequential::SequentialSolver;
    use crate::solver::Solver;
    use crate::verify::compare_states;
    use crate::verify::tests::{assert_bitwise, narrow_config};
    use lbm::boundary::CoordRoute;

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
        // At 4 ranks every slab of the narrow grid is one plane wide.
        let narrow = narrow_config();
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
            let planes = balanced_ranges(dims.nx, n_ranks);
            for (id, (grid, xs)) in dist.slabs.iter_mut().zip(planes).enumerate() {
                let rank = Rank { id, n: n_ranks, xs };
                let halo = Halo::new(&rank, dims);
                assert_eq!(
                    halo.peers.len(),
                    n_ranks.min(3) - 1,
                    "one message per neighbour"
                );
                let (x0, x1) = (rank.xs.start, rank.xs.end);
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
                let outboxes = collide_push_slab(grid, &rank, dims, &router, cfg.tau, &halo);
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
            assert_eq!(s.fluid.u, f.fluid.u, "{ranks} ranks: u diverged");
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
