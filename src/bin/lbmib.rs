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
//! `--plan` picks the kernel-5+6 schedule of `seq` and `omp` (default
//! `fused`; `split` is the paper's Algorithm 1). `cube` and `dist` always
//! run fused and ignore it.
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
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use lbm_ib::config::KernelPlan;
use lbm_ib::output::{append_trajectory_row, dump_sheet_snapshot, trajectory_header};
use lbm_ib::{
    run_chunks, Backend, CubeSolver, DistributedSolver, SheetConfig, SimState, SimulationConfig,
    Solver, SolverError, TetherConfig, Watchdog,
};
use lbm_ib_bench::Args;

/// Prints `error: <msg>` to stderr and exits with status 1.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Exits with status 2 and `UNSTABLE: <error>` on stderr for a blown-up
/// run, and through [`die`] for any other solver error.
fn fail(e: SolverError) -> ! {
    if matches!(e, SolverError::Unstable { .. }) {
        eprintln!("UNSTABLE: {e}");
        std::process::exit(2);
    }
    die(e)
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

/// Applies the runtime choices a checkpoint does not carry (kernel plan,
/// watchdog cadence, halo timeout) and `--cube-k`, to fresh and resumed
/// configurations alike.
fn apply_runtime_choices(args: &Args, config: &mut SimulationConfig) {
    config.plan = match args.get::<String>("plan").as_deref() {
        Some("fused") => KernelPlan::Fused,
        Some("split") => KernelPlan::Split,
        None => KernelPlan::default(),
        Some(other) => die(format!("unknown plan '{other}' (expected split|fused)")),
    };
    if let Some(k) = args.get("cube-k") {
        config.cube_k = k;
    }
    if let Some(every) = args.get::<u64>("watchdog-every") {
        config.watchdog = Some(lbm_ib::WatchdogConfig { check_every: every });
    }
    if let Some(ms) = args.get::<u64>("halo-timeout-ms") {
        config.halo_timeout = Some(std::time::Duration::from_millis(ms));
    }
}

fn main() {
    let args = Args::parse();
    if args.flag("help") {
        println!("see the module docs at the top of src/bin/lbmib.rs for usage");
        return;
    }

    let backend: Backend = args
        .get_or("solver", "cube".to_string())
        .parse()
        .unwrap_or_else(|e| die(e));
    let steps: u64 = args.get_or("steps", 100);
    let threads: usize = args.get_or(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

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
    let mut config = resumed_state
        .as_ref()
        .map_or_else(|| build_config(&args), |s| s.config);
    apply_runtime_choices(&args, &mut config);
    config.validate().unwrap_or_else(|e| die(e));
    if args.flag("autotune") && backend == Backend::Cube {
        let report =
            lbm_ib::tuning::autotune_cube_k(config, threads, None, 3).unwrap_or_else(|e| die(e));
        println!("auto-tuning cube edge:\n{}", report.table());
        config.cube_k = report.best_k().unwrap_or(config.cube_k);
        println!("selected cube_k = {}", config.cube_k);
    }
    let resumed = resumed_state.is_some();
    let state = match resumed_state {
        Some(s) => SimState { config, ..s },
        None => SimState::try_new(config).unwrap_or_else(|e| die(e)),
    };

    println!(
        "lbmib: {}x{}x{} fluid, {}x{} sheet, tau {}, solver {}, plan {:?}, {} threads, {} steps",
        config.nx,
        config.ny,
        config.nz,
        config.sheet.num_fibers,
        config.sheet.nodes_per_fiber,
        config.tau,
        backend.name(),
        // The cube and distributed solvers always run fused.
        match backend {
            Backend::Cube => CubeSolver::PLAN,
            Backend::Dist => DistributedSolver::PLAN,
            Backend::Seq | Backend::Omp => config.plan,
        },
        if backend == Backend::Seq { 1 } else { threads },
        steps
    );
    // Printed for a step-0 snapshot too (a supervised run saves its start
    // state before the first chunk), so a resume always reports its step.
    if resumed {
        println!("resumed at step {}", state.step);
    }

    #[cfg(feature = "faultinject")]
    let _armed = arm_faults(&args);

    // Periodic crash-consistent checkpointing. `--checkpoint-every` alone
    // saves to `lbmib.ckpt`; `--checkpoint-path` alone saves once, at the
    // end of the run.
    let ckpt_every: Option<u64> = args.get::<u64>("checkpoint-every").map(|e| e.max(1));
    let ckpt_path: Option<PathBuf> = args
        .get::<String>("checkpoint-path")
        .map(PathBuf::from)
        .or_else(|| ckpt_every.map(|_| PathBuf::from("lbmib.ckpt")));

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
            checkpoint: ckpt_path.clone(),
        };
        Box::new(
            lbm_ib::Supervisor::with_backend(backend, state, threads, policy)
                .unwrap_or_else(|e| die(e)),
        )
    } else {
        backend.build(state, threads).unwrap_or_else(|e| die(e))
    };
    let metrics_path: Option<PathBuf> = args.get::<String>("metrics").map(PathBuf::from);
    let profile = args.flag("profile");
    solver.set_telemetry(metrics_path.is_some() || profile);

    let mut traj = args.get::<String>("out").map(|dir| {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(format!("create output dir: {e}")));
        let mut w = BufWriter::new(
            File::create(dir.join("trajectory.csv"))
                .unwrap_or_else(|e| die(format!("create trajectory.csv: {e}"))),
        );
        trajectory_header(&mut w).unwrap_or_else(|e| die(format!("write trajectory.csv: {e}")));
        (dir, w, 0usize)
    });

    // Stop at every progress report and every checkpoint (absolute step
    // multiples) and at the end; each stop gathers the state once, into
    // the one `state` kept for the whole run, for the health check, the
    // save, the progress line and the trajectory. The health check is
    // armed on the start state, so mass drift is measured from the start
    // of this run. The last stop falls at `end`, so afterwards `state`
    // holds the final state.
    let report_every: u64 = args.get_or("report-every", (steps / 10).max(1));
    let end = solver.current_step() + steps;
    let mut dog = Watchdog::new();
    let mut state = solver.to_state();
    dog.observe(&state).unwrap_or_else(|e| fail(e));
    let cadences = [report_every, ckpt_every.unwrap_or(0)];
    let report = run_chunks(
        solver.as_mut(),
        steps,
        &cadences,
        |s, n| s.run(n),
        |s| {
            s.to_state_into(&mut state);
            let d = dog.observe(&state)?;
            // Under --supervise the supervisor already committed a save at
            // this boundary; a second save here would only rotate the
            // identical snapshot into `.prev`.
            let due = state.step == end || ckpt_every.is_some_and(|e| state.step % e == 0);
            if let Some(path) = ckpt_path.as_ref().filter(|_| due && !supervise) {
                lbm_ib::checkpoint::save(&state, path)
                    .unwrap_or_else(|e| die(format!("checkpoint save: {e}")));
            }
            println!("{}", d.summary());
            if let Some((dir, w, snapshot)) = &mut traj {
                append_trajectory_row(&state, w)
                    .unwrap_or_else(|e| die(format!("write trajectory.csv: {e}")));
                dump_sheet_snapshot(&state, dir, *snapshot)
                    .unwrap_or_else(|e| die(format!("write sheet snapshot: {e}")));
                *snapshot += 1;
            }
            Ok(())
        },
    )
    .unwrap_or_else(|e| fail(e));
    let wall = report.wall.as_secs_f64();
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
                rec.final_backend.name(),
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
    if let Some(t) = report.telemetry.as_ref().filter(|_| profile) {
        println!("\nper-kernel profile:");
        print!("{}", t.table());
    }
    if let Some((dir, w, _)) = &mut traj {
        w.flush()
            .unwrap_or_else(|e| die(format!("write trajectory.csv: {e}")));
        println!("output written to {}", dir.display());
    }
}
