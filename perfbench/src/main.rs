//! End-to-end and per-layer benchmark of the LBM-IB cube solver.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8_cube|sheet_skewed|chunked_supervised \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process as a closed loop: one caller issues the next
//! `Solver::run` chunk when the previous one returns, on `THREADS` worker
//! threads. `--seed` moves the sheet centre by a sub-lattice offset; the
//! library only ever sees the generated configuration.
//!
//! `--trace 0` is the timed run. It prints the end-to-end metrics:
//! `mlups`, `step_ms_p50`, `step_ms_p90` (per-step wall time of each
//! chunk, boundary work included), `setup_s` (median of repeated fresh
//! constructions) and `peak_rss_mb` (VmHWM when the timed phase ends).
//! Nothing else runs in that process before the timed phase ends.
//!
//! `--trace 1` is the traced run. It times the same chunks with and
//! without spans and telemetry, then probes each layer (flat kernels,
//! memory bandwidth, cachesim, cube telemetry, barrier, checkpoint,
//! supervisor, watchdog, diagnostics), prints the self time of every
//! span name, and writes the spans to `.perfbench/trace-<workload>-seed<N>.json`.
//!
//! Both runs end by checking the results: no NaN, relative mass drift at
//! most 1e-12 per 10 000 steps, and the workload's chunks within 1e-12 of `seq` over a
//! short prefix. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed `run`, a supervisor
//! intervention, a tripped watchdog or a failed check is a failed
//! operation.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | Layer metrics | Should move |
//! |---|---|
//! | `lbm.*` (flat `kernels::*`, one thread) | `mlups`, `step_ms_p50` on `fig8_cube`; least on `sheet_skewed` |
//! | `mem.*` (copy/triad ceiling) | nothing: it is the ceiling `lbm.roofline_share` divides by |
//! | `cachesim.*` (computed DRAM bytes) | `mlups` on `fig8_cube` |
//! | `ib.*` (kernels 1–4 and 8) | `mlups` on `sheet_skewed`; nothing on `fig8_cube` |
//! | `seq.mlups` | nothing: the single-thread baseline of `cube.vs_seq` |
//! | `cube.fluid_*`, `cube.fiber_*`, `cube.imbalance_ratio` | fluid: `fig8_cube`; fiber, imbalance: `sheet_skewed` |
//! | `cube.call_overhead_*`, `cube.to_state_ms` | `step_ms_p50`/`p90` on `chunked_supervised` |
//! | `barrier.*` | `mlups` on `sheet_skewed` |
//! | `checkpoint.*` | `step_ms_p90` and `setup_s` on `chunked_supervised` |
//! | `supervisor.*`, `watchdog.*`, `diagnostics.*` | `step_ms_p50` on `chunked_supervised` |
//! | `trace.overhead_share` | nothing; it must stay small |

mod layers;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use lbm_ib::solver::build_solver;
use lbm_ib::verify::compare_states;
use lbm_ib::{SimState, SimulationConfig};

use stats::{median, percentile, samples_needed};
use trace::Tracer;
use workload::{prepare, setup, start_state, Run, Workload, THREADS};

/// Largest tolerated relative mass drift over a run of up to
/// `MASS_DRIFT_STEPS` steps; longer runs get a proportionally larger
/// bound. Rounding in the collision drifts the mass by about 7e-17 per
/// step, in one direction, so a fixed bound would fail a faster solver
/// merely for fitting more steps into the same seconds.
const MASS_DRIFT_TOLERANCE: f64 = 1e-12;
const MASS_DRIFT_STEPS: f64 = 10_000.0;
/// Fresh constructions whose median is `setup_s`.
const SETUP_REPS: usize = 31;
/// Largest tolerated difference from `seq` over the verification prefix.
const SEQ_TOLERANCE: f64 = 1e-12;
/// Samples that must lie beyond the reported p90.
const P90_TAIL: usize = 10;
/// Where run files (checkpoints, span dumps) go, relative to the root.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!(
        "unknown workload '{name}' (expected {})",
        Workload::ALL.map(Workload::name).join("|")
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} must lie in (0, 60]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace '{other}' must be 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The process's scratch directory, removed on every exit path.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Self, String> {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Chunk timings of one closed-loop phase.
#[derive(Default)]
struct Phase {
    /// Wall milliseconds per step of each completed chunk.
    step_ms: Vec<f64>,
    steps: u64,
    wall: f64,
    /// Chunks issued, the failed one included.
    chunks: usize,
    failure: Option<String>,
}

impl Phase {
    fn mlups(&self, nodes: usize) -> f64 {
        self.steps as f64 * nodes as f64 / self.wall / 1e6
    }

    /// Runs and times one chunk under `tracer`; false once a chunk failed.
    fn chunk(&mut self, run: &mut Run, tracer: &mut Tracer) -> bool {
        let n = run.workload.chunk_steps();
        let t0 = Instant::now();
        let result = tracer.span("chunk", |t| run.chunk(t));
        let dt = t0.elapsed().as_secs_f64();
        self.chunks += 1;
        match result {
            Ok(()) => {
                self.step_ms.push(dt * 1e3 / n as f64);
                self.steps += n;
                self.wall += dt;
                true
            }
            Err(e) => {
                self.failure = Some(e);
                false
            }
        }
    }
}

/// Issues chunks back to back for `seconds`, and on until at least
/// `min_samples` chunks completed (capped at three times `seconds`).
fn closed_loop(run: &mut Run, seconds: f64, min_samples: usize) -> Phase {
    let mut p = Phase::default();
    let mut off = Tracer::new(false);
    let start = Instant::now();
    while p.chunk(run, &mut off) {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && p.step_ms.len() >= min_samples) || elapsed >= 3.0 * seconds {
            break;
        }
    }
    p
}

/// The traced run's loop: chunks alternate between untraced and traced
/// (spans and telemetry on) for `seconds`, so both phases see the same
/// machine conditions and their difference is the tracing overhead.
fn interleaved_loop(run: &mut Run, tracer: &mut Tracer, seconds: f64) -> (Phase, Phase) {
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut off = Tracer::new(false);
    let start = Instant::now();
    loop {
        run.solver.set_telemetry(false);
        if !plain.chunk(run, &mut off) {
            break;
        }
        run.solver.set_telemetry(true);
        if !traced.chunk(run, tracer) || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.solver.set_telemetry(false);
    (plain, traced)
}

/// Untimed warm-up chunks; the first failure ends them.
fn warm_up(run: &mut Run) -> (usize, Option<String>) {
    let mut off = Tracer::new(false);
    for i in 0..run.workload.warmup_chunks() {
        if let Err(e) = run.chunk(&mut off) {
            return (i + 1, Some(e));
        }
    }
    (run.workload.warmup_chunks(), None)
}

/// Total fluid mass Σf with compensated (Neumaier) summation: a plain sum
/// over ten million populations rounds by more than the 1e-12 drift the
/// gate allows.
fn mass(state: &SimState) -> f64 {
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for &v in &state.fluid.f {
        let t = sum + v;
        carry += if sum.abs() >= v.abs() {
            (sum - t) + v
        } else {
            (v - t) + sum
        };
        sum = t;
    }
    sum + carry
}

/// The end-of-run correctness gate: `final_state` is free of NaN and
/// conserved mass, and the workload's own chunk driver agrees with `seq`
/// over a two-chunk prefix from the same start.
fn verify(
    w: Workload,
    config: SimulationConfig,
    dir: &Path,
    final_state: &SimState,
) -> Result<String, String> {
    if final_state.has_nan() {
        return Err(format!("NaN in the state at step {}", final_state.step));
    }
    let start = start_state(w, config, dir)?;
    let m0 = mass(&start);
    let drift = ((mass(final_state) - m0) / m0).abs();
    let steps = final_state.step - start.step;
    let tolerance = MASS_DRIFT_TOLERANCE * (steps as f64 / MASS_DRIFT_STEPS).max(1.0);
    if !drift.is_finite() || drift > tolerance {
        return Err(format!(
            "relative mass drift {drift:e} over {steps} steps exceeds {tolerance:e}"
        ));
    }
    let prefix = 2 * w.chunk_steps();
    let mut reference = build_solver("seq", start, 1).map_err(|e| e.to_string())?;
    reference.run(prefix).map_err(|e| e.to_string())?;
    let mut run = setup(w, config, dir, &mut Tracer::new(false))?;
    let mut off = Tracer::new(false);
    run.chunk(&mut off)?;
    run.chunk(&mut off)?;
    let diff = compare_states(&reference.to_state(), &run.solver.to_state()).worst();
    if !diff.is_finite() || diff > SEQ_TOLERANCE {
        return Err(format!("max |cube - seq| = {diff:e} after {prefix} steps"));
    }
    Ok(format!(
        "verify: step {}, no NaN, mass drift {drift:.3e}, max |cube - seq| {diff:.3e} over {prefix} steps",
        final_state.step
    ))
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// Counts a phase's chunks and failure into the outcome tally.
fn tally(attempted: &mut usize, failed: &mut usize, chunks: usize, failure: &Option<String>) {
    *attempted += chunks;
    if let Some(e) = failure {
        *failed += 1;
        eprintln!("failed chunk: {e}");
    }
}

/// Runs [`verify`] as one more operation of the tally.
fn gate(
    w: Workload,
    config: SimulationConfig,
    dir: &Path,
    final_state: &SimState,
    attempted: &mut usize,
    failed: &mut usize,
) {
    *attempted += 1;
    match verify(w, config, dir, final_state) {
        Ok(msg) => println!("{msg}"),
        Err(e) => {
            *failed += 1;
            eprintln!("verification failed: {e}");
        }
    }
}

/// Setup-time median over fresh constructions; the last one is kept.
fn timed_setup(w: Workload, config: SimulationConfig, dir: &Path) -> Result<(f64, Run), String> {
    let mut times = Vec::new();
    let mut run = None;
    for _ in 0..SETUP_REPS {
        drop(run.take());
        let t0 = Instant::now();
        let r = setup(w, config, dir, &mut Tracer::new(false))?;
        times.push(t0.elapsed().as_secs_f64());
        run = Some(r);
    }
    let run = run.expect("SETUP_REPS > 0");
    Ok((median(&times).expect("SETUP_REPS > 0"), run))
}

fn step_percentiles(p: &Phase) -> (f64, f64) {
    let p50 = median(&p.step_ms).unwrap_or(f64::NAN);
    let p90 = percentile(&p.step_ms, 0.9, P90_TAIL).unwrap_or_else(|| {
        eprintln!(
            "warning: {} chunks leave fewer than {P90_TAIL} samples beyond p90; reporting the maximum",
            p.step_ms.len()
        );
        p.step_ms.iter().copied().fold(f64::NAN, f64::max)
    });
    (p50, p90)
}

fn timed_run(
    w: Workload,
    config: SimulationConfig,
    dir: &Path,
    seconds: f64,
) -> Result<Outcome, String> {
    let nodes = config.dims().n();
    let (setup_s, mut run) = timed_setup(w, config, dir)?;
    let (mut attempted, mut failed) = (0, 0);
    let (warm, warm_failure) = warm_up(&mut run);
    tally(&mut attempted, &mut failed, warm, &warm_failure);
    let phase = if warm_failure.is_none() {
        closed_loop(&mut run, seconds, samples_needed(0.9, P90_TAIL))
    } else {
        Phase::default()
    };
    tally(&mut attempted, &mut failed, phase.chunks, &phase.failure);
    let peak = peak_rss_mb()?;
    let final_state = run.solver.to_state();
    drop(run);
    gate(w, config, dir, &final_state, &mut attempted, &mut failed);
    let (p50, p90) = step_percentiles(&phase);
    println!(
        "timed: {} chunks of {} steps in {:.3} s ({} step_ms samples, {} beyond p90)",
        phase.step_ms.len(),
        w.chunk_steps(),
        phase.wall,
        phase.step_ms.len(),
        phase.step_ms.iter().filter(|&&v| v > p90).count()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("mlups", phase.mlups(nodes), "MLUPS"),
            ("step_ms_p50", p50, "ms"),
            ("step_ms_p90", p90, "ms"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak, "MB"),
        ],
    })
}

fn traced_run(
    w: Workload,
    config: SimulationConfig,
    dir: &Path,
    seconds: f64,
    seed: u64,
) -> Result<Outcome, String> {
    let nodes = config.dims().n();
    let fiber_nodes = (config.sheet.num_fibers * config.sheet.nodes_per_fiber) as f64;
    let mut tracer = Tracer::new(true);
    let mut run = tracer.span("setup", |t| setup(w, config, dir, t))?;
    let (mut attempted, mut failed) = (0, 0);
    let (warm, warm_failure) = warm_up(&mut run);
    tally(&mut attempted, &mut failed, warm, &warm_failure);
    if let Some(e) = warm_failure {
        return Err(format!("warm-up failed: {e}"));
    }

    let (plain, traced) = tracer.span("loop", |t| interleaved_loop(&mut run, t, seconds));
    tally(&mut attempted, &mut failed, plain.chunks, &plain.failure);
    tally(&mut attempted, &mut failed, traced.chunks, &traced.failure);
    let telemetry = run.take_telemetry().ok_or("telemetry was not reported")?;

    let call_s = layers::run_call_overhead(&mut run, &mut tracer, 1.5)?;
    let (to_state_s, final_state) = layers::gather(run.solver.as_ref(), &mut tracer);
    drop(run);
    let (save_s, resume_s, ckpt_bytes) = layers::checkpoint_io(&final_state, dir, &mut tracer)?;
    let (observe_s, diag_s) = layers::health_checks(&final_state, &mut tracer);
    gate(w, config, dir, &final_state, &mut attempted, &mut failed);
    drop(final_state);

    let sup_share = layers::supervisor_overhead(w, config, dir, &mut tracer, 1.5)?;
    let (seq_mlups, seq_state) = layers::seq_baseline(w, config, dir, &mut tracer, 1.5)?;
    let k = layers::flat_kernels(&seq_state, &mut tracer, 5);
    drop(seq_state);
    let (flat_bytes, cube_bytes) = layers::cachesim_bytes(&config, &mut tracer);
    let bw = layers::bandwidth(&mut tracer);

    let per_node = |s: f64| s / nodes as f64 * 1e9;
    let per_fiber = |s: f64| s / fiber_nodes * 1e9;
    let bytes = layers::bytes_per_update();
    let achieved = bytes * nodes as f64 / (k.collide + k.stream + k.update_velocity + k.copy) / 1e9;
    let (fluid_s, fiber_s) = layers::fluid_fiber_seconds(&telemetry);
    let steps = telemetry.steps as f64;
    let plain_mlups = plain.mlups(nodes);

    println!(
        "memory ceiling: {:.2} GiB arrays (4x the {:.0} MiB last-level cache)",
        bw.array_bytes as f64 / (1u64 << 30) as f64,
        bw.llc_bytes as f64 / (1u64 << 20) as f64
    );
    println!("computed (not measured): lbm.bytes_per_update from array sizes; cachesim.* from the cache model");
    println!("spans: name, calls, total ms, self ms");
    for (name, (calls, total, own)) in trace::totals_by_name(tracer.spans()) {
        println!(
            "  {name:<18} {calls:>7} {:>12.3} {:>12.3}",
            total * 1e3,
            own * 1e3
        );
    }
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.json", w.name()));
    let meta = [
        ("workload", w.name().to_string()),
        ("seed", seed.to_string()),
        ("threads", THREADS.to_string()),
    ];
    std::fs::write(&trace_path, tracer.to_json(&meta))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!("spans written to {}", trace_path.display());

    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("lbm.collide_ns_per_node", per_node(k.collide), "ns"),
            ("lbm.stream_ns_per_node", per_node(k.stream), "ns"),
            ("lbm.fused_ns_per_node", per_node(k.fused), "ns"),
            (
                "lbm.update_velocity_ns_per_node",
                per_node(k.update_velocity),
                "ns",
            ),
            ("lbm.copy_ns_per_node", per_node(k.copy), "ns"),
            ("lbm.bytes_per_update", bytes, "B"),
            ("lbm.achieved_gbs", achieved, "GB/s"),
            ("lbm.roofline_share", achieved / bw.copy_1t_gbs, "ratio"),
            ("mem.copy_gbs", bw.copy_gbs, "GB/s"),
            ("mem.triad_gbs", bw.triad_gbs, "GB/s"),
            ("mem.copy_1t_gbs", bw.copy_1t_gbs, "GB/s"),
            ("cachesim.flat_dram_bytes_per_node", flat_bytes, "B"),
            ("cachesim.cube_dram_bytes_per_node", cube_bytes, "B"),
            ("ib.forces_ns_per_fiber_node", per_fiber(k.forces), "ns"),
            ("ib.spread_ns_per_fiber_node", per_fiber(k.spread), "ns"),
            ("ib.move_ns_per_fiber_node", per_fiber(k.moves), "ns"),
            ("seq.mlups", seq_mlups, "MLUPS"),
            ("cube.fluid_ms_per_step", fluid_s / steps * 1e3, "ms"),
            ("cube.fiber_ms_per_step", fiber_s / steps * 1e3, "ms"),
            ("cube.fiber_share", fiber_s / (fluid_s + fiber_s), "ratio"),
            ("cube.imbalance_ratio", telemetry.imbalance_ratio(), "ratio"),
            ("cube.call_overhead_ms", call_s * 1e3, "ms"),
            (
                "cube.call_overhead_share",
                call_s * traced.step_ms.len() as f64 / traced.wall,
                "ratio",
            ),
            ("cube.to_state_ms", to_state_s * 1e3, "ms"),
            (
                "cube.vs_seq",
                steps * nodes as f64 / telemetry.wall_seconds / 1e6 / seq_mlups,
                "ratio",
            ),
            (
                "barrier.wait_share",
                telemetry.barrier_wait_share(),
                "ratio",
            ),
            (
                "barrier.waits_per_step",
                telemetry.barrier_waits() as f64 / steps / telemetry.n_threads() as f64,
                "count",
            ),
            ("checkpoint.save_ms", save_s * 1e3, "ms"),
            ("checkpoint.resume_ms", resume_s * 1e3, "ms"),
            ("checkpoint.bytes", ckpt_bytes as f64, "B"),
            ("supervisor.overhead_share", sup_share, "ratio"),
            ("watchdog.observe_ms", observe_s * 1e3, "ms"),
            ("diagnostics.ms", diag_s * 1e3, "ms"),
            (
                "trace.overhead_share",
                1.0 - traced.mlups(nodes) / plain_mlups,
                "ratio",
            ),
        ],
    })
}

/// JSON number for a metric value (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let w = args.workload;
    let config = w.config(args.seed);
    let c = config.sheet.center;
    println!(
        "workload {} seed {}: {}x{}x{} fluid, {}x{} sheet centred at ({:.4}, {:.4}, {:.4}), cube on {THREADS} threads, {}-step chunks, {} s",
        w.name(),
        args.seed,
        config.nx,
        config.ny,
        config.nz,
        config.sheet.num_fibers,
        config.sheet.nodes_per_fiber,
        c[0],
        c[1],
        c[2],
        w.chunk_steps(),
        args.seconds
    );
    let outcome = Scratch::create().and_then(|scratch| {
        prepare(w, config, &scratch.0)?;
        if args.trace {
            traced_run(w, config, &scratch.0, args.seconds, args.seed)
        } else {
            timed_run(w, config, &scratch.0, args.seconds)
        }
    });
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "operations attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
