//! Algorithm 1: the sequential LBM-IB solver, timing each kernel (the
//! paper's Table I is this solver's [`RunTelemetry::table`]).

use std::time::Instant;

use ib::delta::CubeStencil;

use crate::config::KernelPlan;
use crate::profiling::KernelId;
use crate::solver::{timed_steps, Backend, RunReport};
use crate::state::SimState;
use crate::telemetry::{RunTelemetry, ThreadTelemetry};

/// Sequential coupled solver.
pub struct SequentialSolver {
    pub state: SimState,
    /// When true, [`SequentialSolver::run`] attaches single-thread
    /// telemetry to its report.
    pub telemetry_enabled: bool,
    /// Busy seconds per kernel since the start of the current `run` call.
    kernel_seconds: [f64; KernelId::COUNT],
    /// One delta stencil per fiber node, built by kernel 4 and read by
    /// kernel 8 of the same step; the buffer is kept between steps.
    stencils: Vec<CubeStencil>,
}

impl SequentialSolver {
    /// Creates the solver with a fresh state from the configuration.
    pub fn new(config: crate::config::SimulationConfig) -> Self {
        Self::from_state(SimState::new(config))
    }

    /// Wraps an existing state.
    pub fn from_state(state: SimState) -> Self {
        Self {
            state,
            telemetry_enabled: false,
            kernel_seconds: [0.0; KernelId::COUNT],
            stencils: Vec::new(),
        }
    }

    /// Executes one full time step: the nine kernels in Algorithm 1 order
    /// (with kernels 5+6 replaced by one fused sweep under
    /// [`KernelPlan::Fused`]). Kernel 4 evaluates each fiber node's delta
    /// stencil once and stores it; kernel 8 reads it.
    pub fn step(&mut self) {
        use crate::kernels::*;
        use KernelId::*;
        let plan = self.state.config.plan;
        let s = &mut self.state;
        let secs = &mut self.kernel_seconds;
        let stencils = &mut self.stencils;
        let mut time = |k: KernelId, kernel: &mut dyn FnMut(&mut SimState)| {
            let t0 = Instant::now();
            kernel(s);
            secs[k.index()] += t0.elapsed().as_secs_f64();
        };
        time(BendingForce, &mut compute_bending_force_in_fibers);
        time(StretchingForce, &mut compute_stretching_force_in_fibers);
        time(ElasticForce, &mut compute_elastic_force_in_fibers);
        time(SpreadForce, &mut |s| spread_force_through(s, stencils));
        match plan {
            KernelPlan::Split => {
                time(Collision, &mut compute_fluid_collision);
                time(Stream, &mut stream_fluid_velocity_distribution);
            }
            KernelPlan::Fused => time(FusedCollideStream, &mut fused_collide_stream),
        }
        time(UpdateVelocity, &mut update_fluid_velocity);
        time(MoveFibers, &mut |s| move_fibers_through(s, stencils));
        time(CopyDistributions, &mut copy_fluid_velocity_distribution);
        let s = &mut self.state;
        // Chaos-test failpoint (empty unless the `faultinject` feature is
        // on): poison the state so the watchdog path is exercised.
        if crate::faultinject::take_nan_at(s.step) {
            s.fluid.u[0][0] = f64::NAN;
        }
        s.step += 1;
    }

    /// Runs `n` time steps and reports the wall time spent.
    pub fn run(&mut self, n: u64) -> RunReport {
        self.kernel_seconds = [0.0; KernelId::COUNT];
        let mut report = timed_steps(n, || self.step());
        // The one "thread" owns every fiber and no cubes (flat layout).
        report.telemetry = self.telemetry_enabled.then(|| RunTelemetry {
            solver: Backend::Seq,
            steps: n,
            wall_seconds: report.wall.as_secs_f64(),
            per_thread: vec![ThreadTelemetry {
                kernel_seconds: self.kernel_seconds,
                fibers_owned: self.state.sheet.num_fibers as u64,
                ..Default::default()
            }],
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimulationConfig, TetherConfig};

    #[test]
    fn steps_advance_and_stay_finite() {
        let mut s = SequentialSolver::new(SimulationConfig::quick_test());
        s.run(10);
        assert_eq!(s.state.step, 10);
        assert!(!s.state.has_nan());
        // The body force must have started the channel moving.
        let mean: f64 =
            s.state.fluid.u.iter().map(|u| u[0]).sum::<f64>() / s.state.fluid.n() as f64;
        assert!(mean > 0.0, "flow should start: mean ux = {mean}");
    }

    #[test]
    fn mass_conserved_through_coupled_steps() {
        let mut s = SequentialSolver::new(SimulationConfig::quick_test());
        let m0 = s.state.fluid.total_mass();
        s.run(25);
        let m1 = s.state.fluid.total_mass();
        assert!((m1 - m0).abs() / m0 < 1e-12, "mass drifted {m0} -> {m1}");
    }

    #[test]
    fn sheet_is_advected_downstream() {
        let mut c = SimulationConfig::quick_test();
        c.body_force = [5e-6, 0.0, 0.0];
        let mut s = SequentialSolver::new(c);
        let x0 = s.state.sheet.centroid()[0];
        s.run(120);
        let x1 = s.state.sheet.centroid()[0];
        assert!(
            x1 > x0 + 1e-4,
            "sheet should move with the flow: {x0} -> {x1}"
        );
        assert!(!s.state.has_nan());
    }

    #[test]
    fn tethered_sheet_stays_put() {
        let mut c = SimulationConfig::quick_test();
        c.body_force = [5e-6, 0.0, 0.0];
        c.sheet.tether = TetherConfig::CenterRegion {
            radius: 100.0,
            stiffness: 0.5,
        };
        let mut s = SequentialSolver::new(c);
        let x0 = s.state.sheet.centroid()[0];
        s.run(120);
        let x1 = s.state.sheet.centroid()[0];

        let mut free = SimulationConfig::quick_test();
        free.body_force = [5e-6, 0.0, 0.0];
        let mut sf = SequentialSolver::from_state(crate::state::SimState::new(free));
        let xf0 = sf.state.sheet.centroid()[0];
        sf.run(120);
        let xf1 = sf.state.sheet.centroid()[0];
        assert!(
            (x1 - x0).abs() < 0.5 * (xf1 - xf0).abs() + 1e-9,
            "fully tethered sheet ({}) should drift much less than free sheet ({})",
            x1 - x0,
            xf1 - xf0
        );
    }

    /// The telemetry of an `n`-step run of `config`.
    fn telemetry(config: SimulationConfig, n: u64) -> RunTelemetry {
        let mut s = SequentialSolver::new(config);
        s.telemetry_enabled = true;
        let report = s.run(n);
        assert_eq!(report.steps, n);
        assert!(!s.state.has_nan());
        report.telemetry.expect("telemetry on")
    }

    /// `quick_test` under the split plan, whose profile has a row for
    /// each of Algorithm 1's kernels 5 and 6.
    fn split_config() -> SimulationConfig {
        SimulationConfig {
            plan: KernelPlan::Split,
            ..SimulationConfig::quick_test()
        }
    }

    #[test]
    fn profiler_sees_every_kernel() {
        let t = telemetry(split_config(), 3);
        for k in KernelId::ALL {
            let secs = t.kernel_seconds(k);
            if k == KernelId::FusedCollideStream {
                assert_eq!(secs, 0.0);
            } else {
                assert!(secs > 0.0, "{k:?}");
            }
        }
        let fibers = SimulationConfig::quick_test().sheet.num_fibers;
        assert_eq!(t.per_thread[0].fibers_owned as usize, fibers);
    }

    #[test]
    fn fused_plan_charges_the_fused_slot() {
        let mut c = SimulationConfig::quick_test();
        c.plan = crate::config::KernelPlan::Fused;
        let t = telemetry(c, 3);
        assert!(t.kernel_seconds(KernelId::FusedCollideStream) > 0.0);
        assert_eq!(t.kernel_seconds(KernelId::Collision), 0.0);
        assert_eq!(t.kernel_seconds(KernelId::Stream), 0.0);
    }

    #[test]
    fn each_run_reports_only_its_own_steps() {
        let mut s = SequentialSolver::new(SimulationConfig::quick_test());
        s.telemetry_enabled = true;
        assert!(s.run(2).telemetry.unwrap().busy_seconds() > 0.0);
        assert_eq!(s.run(0).telemetry.unwrap().busy_seconds(), 0.0);
        s.telemetry_enabled = false;
        assert!(s.run(1).telemetry.is_none());
    }

    #[test]
    fn fluid_dominant_kernels_dominate_profile() {
        // Even at test scale, the fluid kernels (5, 7, 9, 6) must outweigh
        // the fiber kernels (1, 2, 3) — the core observation of Table I.
        let t = telemetry(split_config(), 5);
        let sum = |ks: &[KernelId]| ks.iter().map(|&k| t.kernel_seconds(k)).sum::<f64>();
        let fluid_time = sum(&[
            KernelId::Collision,
            KernelId::UpdateVelocity,
            KernelId::Stream,
            KernelId::CopyDistributions,
        ]);
        let fiber_time = sum(&[
            KernelId::BendingForce,
            KernelId::StretchingForce,
            KernelId::ElasticForce,
        ]);
        assert!(
            fluid_time > fiber_time,
            "fluid kernels {fluid_time}s vs fiber kernels {fiber_time}s"
        );
    }
}
