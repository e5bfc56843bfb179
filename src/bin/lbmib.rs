//! `lbmib` — command-line driver for the LBM-IB library.
//!
//! Runs a coupled fluid–structure simulation from flags, with any of the
//! four solvers behind the [`lbm_ib::Solver`] trait, periodic progress
//! reports, and optional CSV/VTK output.
//!
//! ```text
//! lbmib [--solver seq|omp|cube|dist] [--plan split|fused]
//!       [--preset quick|table1|fig8] [--cores N]
//!       [--steps N] [--threads N] [--nx N --ny N --nz N] [--tau T]
//!       [--gx G] [--sheet N] [--sheet-extent E] [--tether none|center|edge]
//!       [--cube-k K] [--out DIR] [--report-every N] [--profile]
//!       [--metrics FILE] [--watchdog-every N]
//!       [--checkpoint-every N] [--checkpoint-path FILE]
//!       [--halo-timeout-ms MS]
//!       [--supervise] [--retry-limit N] [--backoff-ms MS]
//!       [--max-backoff-ms MS] [--degrade on|off]
//! ```
//!
//! Examples:
//! ```text
//! lbmib --preset quick --solver cube --threads 4 --steps 200 --profile
//! lbmib --nx 64 --ny 32 --nz 32 --sheet 20 --steps 500 --out run1/
//! lbmib --preset quick --autotune            # pick the best cube edge first
//! lbmib --preset quick --steps 500 --save run.ckpt
//! lbmib --resume run.ckpt --steps 500        # continue bit-exactly
//! lbmib --preset quick --metrics run.json    # per-thread kernel telemetry
//! lbmib --preset quick --watchdog-every 16   # in-solver stability checks
//! lbmib --steps 600 --checkpoint-every 50 --checkpoint-path run.ckpt
//! lbmib --resume run.ckpt --steps 600 --checkpoint-every 50 \
//!       --checkpoint-path run.ckpt           # survive kill -9 mid-run
//! lbmib --solver dist --halo-timeout-ms 5000 # bound halo-exchange waits
//! lbmib --preset quick --supervise           # self-healing run
//! lbmib --supervise --retry-limit 5 --backoff-ms 250 --degrade off
//! lbmib --supervise --checkpoint-every 50 --checkpoint-path run.ckpt \
//!       --metrics run.json                   # disk rollback + recovery JSON
//! ```
//!
//! Periodic checkpoints are crash-consistent: each save goes to a temp
//! file, is fsynced, then atomically renamed over `--checkpoint-path`,
//! with the previous good save rotated to `<path>.prev`. `--resume` falls
//! back to `.prev` automatically if the primary file is torn or corrupt,
//! and a resumed run reproduces the uninterrupted run bit for bit.
//!
//! `--supervise` wraps the chosen solver in [`lbm_ib::Supervisor`]: typed
//! solver failures roll the run back to the last good chunk boundary
//! (through the on-disk checkpoint when `--checkpoint-path` is set) and
//! retry with deterministic exponential backoff; when the same failure
//! keeps recurring the run degrades gracefully — a panicking cube worker
//! is quarantined by shrinking the thread mesh, then the backend falls
//! back `dist → cube → omp → seq`. Every intervention lands in the
//! `recovery` block of the `--metrics` JSON.
//!
//! Builds with `--features faultinject` additionally accept
//! `--fault-panic T:S:PHASE`, `--fault-nan-step N`,
//! `--fault-halo-drop RANK` and `--fault-sticky` to arm failpoints from
//! the command line — the recovery smoke jobs use these to prove the
//! supervisor heals a mid-run fault.

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use lbm_ib::config::KernelPlan;
use lbm_ib::diagnostics::diagnostics;
use lbm_ib::output::{append_trajectory_row, dump_sheet_snapshot, trajectory_header};
use lbm_ib::{
    build_solver, CubeSolver, SheetConfig, SimState, SimulationConfig, Solver, TetherConfig,
};
use lbm_ib_bench::Args;

/// Prints `error: <msg>` to stderr and exits with status 1.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Arms the fault-injection failpoints requested on the command line and
/// returns the guard that keeps them live for the whole run.
#[cfg(feature = "faultinject")]
fn arm_faults(args: &Args) -> Option<lbm_ib::faultinject::Armed> {
    use lbm_ib::faultinject::{FaultPlan, HaloFault, PanicAt};
    let mut plan = FaultPlan::default();
    if let Some(spec) = args.get::<String>("fault-panic") {
        let parts: Vec<&str> = spec.split(':').collect();
        let [thread, step, phase] = parts[..] else {
            die(format!(
                "--fault-panic expects THREAD:STEP:PHASE, got '{spec}'"
            ));
        };
        let phase = lbm_ib::cube::WORKER_PHASES
            .into_iter()
            .find(|p| *p == phase)
            .unwrap_or_else(|| {
                die(format!(
                    "unknown phase '{phase}' (expected one of {:?})",
                    lbm_ib::cube::WORKER_PHASES
                ))
            });
        plan.panic_at = Some(PanicAt {
            thread: thread
                .parse()
                .unwrap_or_else(|e| die(format!("--fault-panic thread: {e}"))),
            step: step
                .parse()
                .unwrap_or_else(|e| die(format!("--fault-panic step: {e}"))),
            phase,
        });
    }
    plan.nan_at_step = args.get("fault-nan-step");
    if let Some(rank) = args.get::<usize>("fault-halo-drop") {
        plan.halo = Some(HaloFault::DropSend { from: rank });
    }
    plan.sticky = args.flag("fault-sticky");
    (plan != FaultPlan::default()).then(|| lbm_ib::faultinject::arm(plan))
}

fn build_config(args: &Args) -> SimulationConfig {
    let mut config = match args.get::<String>("preset").as_deref() {
        Some("table1") => SimulationConfig::table1(),
        Some("fig8") => SimulationConfig::fig8(args.get_or("cores", 1)),
        _ => SimulationConfig::quick_test(),
    };
    if let Some(nx) = args.get("nx") {
        config.nx = nx;
    }
    if let Some(ny) = args.get("ny") {
        config.ny = ny;
    }
    if let Some(nz) = args.get("nz") {
        config.nz = nz;
    }
    if let Some(tau) = args.get("tau") {
        config.tau = tau;
    }
    if let Some(gx) = args.get("gx") {
        config.body_force = [gx, 0.0, 0.0];
    }
    if let Some(k) = args.get("cube-k") {
        config.cube_k = k;
    }
    if args.get::<usize>("nx").is_some() || args.get::<usize>("sheet").is_some() {
        // Re-centre the sheet for the chosen grid.
        let n = args.get_or("sheet", config.sheet.num_fibers);
        let extent = args.get_or("sheet-extent", (config.ny as f64 / 3.0).max(2.0));
        config.sheet = SheetConfig::square(
            n,
            extent,
            [
                config.nx as f64 / 4.0,
                config.ny as f64 / 2.0,
                config.nz as f64 / 2.0,
            ],
        );
    }
    config.plan = match args.get::<String>("plan").as_deref() {
        Some("fused") => KernelPlan::Fused,
        Some("split") | None => KernelPlan::Split,
        Some(other) => {
            eprintln!("error: unknown plan '{other}' (expected split|fused)");
            std::process::exit(1);
        }
    };
    config.sheet.tether = match args.get::<String>("tether").as_deref() {
        Some("center") => TetherConfig::CenterRegion {
            radius: args.get_or("tether-radius", 3.0),
            stiffness: args.get_or("tether-stiffness", 0.1),
        },
        Some("edge") => TetherConfig::LeadingEdge {
            stiffness: args.get_or("tether-stiffness", 0.1),
        },
        Some("none") => TetherConfig::None,
        _ => config.sheet.tether,
    };
    config
}

fn main() {
    let args = Args::parse();
    if args.flag("help") {
        println!("see the module docs at the top of src/bin/lbmib.rs for usage");
        return;
    }

    // Resume from a checkpoint (falling back to the rotated `.prev` save
    // if the primary is torn or corrupt), or build a fresh configuration.
    let resumed_state = args.get::<String>("resume").map(|p| {
        let (state, source) = lbm_ib::checkpoint::resume(std::path::Path::new(&p))
            .unwrap_or_else(|e| die(format!("cannot resume from {p}: {e}")));
        if source == lbm_ib::ResumeSource::Fallback {
            eprintln!("warning: {p} was unreadable; resumed from rotated fallback {p}.prev");
        }
        state
    });
    let mut config = match &resumed_state {
        Some(s) => s.config,
        None => build_config(&args),
    };
    if let Err(e) = config.validate() {
        die(e);
    }

    let steps: u64 = args.get_or("steps", 100);
    let threads: usize = args.get_or(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let solver_name = args.get_or("solver", "cube".to_string());

    if args.flag("autotune") && solver_name == "cube" {
        let report =
            lbm_ib::tuning::autotune_cube_k(config, threads, None, 3).unwrap_or_else(|e| die(e));
        println!("auto-tuning cube edge:\n{}", report.table());
        config.cube_k = report.best_k().unwrap_or(config.cube_k);
        println!("selected cube_k = {}", config.cube_k);
    }

    println!(
        "lbmib: {}x{}x{} fluid, {}x{} sheet, tau {}, solver {}, plan {:?}, {} threads, {} steps",
        config.nx,
        config.ny,
        config.nz,
        config.sheet.num_fibers,
        config.sheet.nodes_per_fiber,
        config.tau,
        solver_name,
        // The cube solver always runs its fused pass.
        if solver_name == "cube" {
            CubeSolver::PLAN
        } else {
            config.plan
        },
        if solver_name == "seq" { 1 } else { threads },
        steps
    );

    let metrics_path: Option<PathBuf> = args.get::<String>("metrics").map(PathBuf::from);
    let mut initial_state = match resumed_state {
        Some(s) => s,
        None => SimState::try_new(config).unwrap_or_else(|e| die(e)),
    };
    initial_state.config.plan = config.plan; // resumed checkpoints default to Split
    if let Some(every) = args.get::<u64>("watchdog-every") {
        initial_state.config.watchdog = Some(lbm_ib::WatchdogConfig { check_every: every });
    }
    if let Some(ms) = args.get::<u64>("halo-timeout-ms") {
        initial_state.config.halo_timeout = Some(std::time::Duration::from_millis(ms));
    }
    if initial_state.step > 0 {
        println!("resumed at step {}", initial_state.step);
    }

    #[cfg(feature = "faultinject")]
    let _armed = arm_faults(&args);

    // Periodic crash-consistent checkpointing. `--checkpoint-every` alone
    // saves to `lbmib.ckpt`; `--checkpoint-path` alone saves once, at the
    // end of the run.
    let ckpt_every: Option<u64> = args.get("checkpoint-every");
    let ckpt_path: Option<String> = args.get("checkpoint-path");
    let ckpt = match (ckpt_every, ckpt_path) {
        (Some(e), p) => Some((
            e.max(1),
            PathBuf::from(p.unwrap_or_else(|| "lbmib.ckpt".to_string())),
        )),
        (None, Some(p)) => Some((steps.max(1), PathBuf::from(p))),
        (None, None) => None,
    };

    let supervise = args.flag("supervise");
    let mut solver: Box<dyn Solver> = if supervise {
        let policy = lbm_ib::RecoveryPolicy {
            retry_limit: args.get_or("retry-limit", 3),
            backoff: std::time::Duration::from_millis(args.get_or("backoff-ms", 100)),
            max_backoff: std::time::Duration::from_millis(args.get_or("max-backoff-ms", 5000)),
            degrade: match args.get::<String>("degrade").as_deref() {
                Some("off") => false,
                Some("on") | None => true,
                Some(other) => die(format!("unknown --degrade '{other}' (expected on|off)")),
            },
            // The supervisor owns the checkpoint file: it commits a save
            // after every successful chunk and rolls back through it.
            checkpoint: ckpt.as_ref().map(|(_, path)| path.clone()),
        };
        Box::new(
            lbm_ib::Supervisor::new(&solver_name, initial_state, threads, policy)
                .unwrap_or_else(|e| die(e)),
        )
    } else {
        build_solver(&solver_name, initial_state, threads).unwrap_or_else(|e| die(e))
    };
    if metrics_path.is_some() {
        solver.set_telemetry(true);
    }

    let out_dir: Option<PathBuf> = args.get::<String>("out").map(PathBuf::from);
    let mut traj = out_dir.as_ref().map(|dir| {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("create output dir: {e}")));
        let mut w = BufWriter::new(
            File::create(dir.join("trajectory.csv"))
                .unwrap_or_else(|e| die(format!("create trajectory.csv: {e}"))),
        );
        trajectory_header(&mut w).unwrap_or_else(|e| die(format!("write trajectory.csv: {e}")));
        w
    });

    let report_every: u64 = args.get_or("report-every", (steps / 10).max(1));
    let mut report = lbm_ib::RunReport::default();
    let mut snapshot = 0usize;
    let start_step = solver.to_state().step;
    let initial_mass = diagnostics(&solver.to_state()).mass;
    while report.steps < steps {
        // Advance to whichever boundary comes first: the next progress
        // report, the next checkpoint, or the end of the run.
        let mut n = report_every.min(steps - report.steps);
        if let Some((every, _)) = &ckpt {
            let abs = start_step + report.steps;
            let to_ckpt = every - abs % every;
            n = n.min(to_ckpt);
        }
        let chunk = solver.run(n).unwrap_or_else(|e| {
            if matches!(e, lbm_ib::SolverError::Unstable { .. }) {
                eprintln!("UNSTABLE: {e}");
                std::process::exit(2);
            }
            die(e);
        });
        report.merge(chunk);
        let state = solver.to_state();
        if let Some((every, path)) = &ckpt {
            // Under --supervise the supervisor already committed a save at
            // this chunk boundary; a second save here would only rotate
            // the identical snapshot into `.prev`.
            if !supervise && (state.step % every == 0 || report.steps == steps) {
                lbm_ib::checkpoint::save(&state, path)
                    .unwrap_or_else(|e| die(format!("checkpoint save: {e}")));
            }
        }
        let d = diagnostics(&state);
        println!("{}", d.summary());
        if let Err(e) = d.check_stability(initial_mass) {
            eprintln!("UNSTABLE: {e}");
            std::process::exit(2);
        }
        if let Some(dir) = &out_dir {
            let w = traj
                .as_mut()
                .expect("trajectory writer exists when --out is set");
            append_trajectory_row(&state, w)
                .unwrap_or_else(|e| die(format!("write trajectory.csv: {e}")));
            dump_sheet_snapshot(&state, dir, snapshot)
                .unwrap_or_else(|e| die(format!("write sheet snapshot: {e}")));
            snapshot += 1;
        }
    }
    let wall = report.wall.as_secs_f64();
    let state = solver.to_state();
    println!(
        "\ncompleted {} steps in {wall:.2} s ({:.1} Mnode-updates/s)",
        report.steps,
        report.steps as f64 * state.fluid.n() as f64 / wall / 1e6
    );
    if let Some(rec) = &report.recovery {
        if rec.events.is_empty() {
            println!("supervisor: no interventions");
        } else {
            println!(
                "supervisor: {} intervention(s), {} ms backoff, finished on {} with {} thread(s)",
                rec.events.len(),
                rec.total_backoff.as_millis(),
                rec.final_backend,
                rec.final_threads
            );
        }
    }

    if let Some(path) = &metrics_path {
        if report.telemetry.is_some() || report.recovery.is_some() {
            let doc = lbm_ib::metrics_document(report.telemetry.as_ref(), report.recovery.as_ref());
            std::fs::write(path, doc).unwrap_or_else(|e| die(format!("write metrics file: {e}")));
            if let Some(t) = &report.telemetry {
                println!("\n{}", t.summary());
            }
            println!("telemetry written to {}", path.display());
        } else {
            eprintln!(
                "warning: solver produced no telemetry; {} not written",
                path.display()
            );
        }
    }
    if let Some(path) = args.get::<String>("save") {
        lbm_ib::checkpoint::save(&state, std::path::Path::new(&path))
            .unwrap_or_else(|e| die(format!("save checkpoint: {e}")));
        println!("checkpoint written to {path}");
    }
    if args.flag("profile") {
        println!("\nper-kernel profile:");
        match solver.profile() {
            Some(p) => print!("{}", p.table()),
            None => println!("(no per-kernel profile for the distributed prototype)"),
        }
    }
    if let Some(dir) = out_dir {
        println!("output written to {}", dir.display());
    }
}
