//! Per-layer probes of the traced run. Each one times calls into a
//! layer's public functions from here, inside a span named after it.

use std::path::Path;
use std::time::Instant;

use lbm::cube_grid::CubeDims;
use lbm_ib::diagnostics::diagnostics;
use lbm_ib::profiling::KernelId;
use lbm_ib::solver::build_solver;
use lbm_ib::{checkpoint, kernels, RecoveryPolicy, SimState, Solver, Supervisor, Watchdog};

use crate::stats::{call_overhead, median};
use crate::trace::Tracer;
use crate::workload::{start_state, Run, Workload, THREADS};

/// Median seconds of `reps` calls of `f`, each call in its own span.
fn time_calls<S>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    subject: &mut S,
    mut f: impl FnMut(&mut S),
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            tracer.span(name, |_| f(subject));
            std::hint::black_box(&subject);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("reps > 0")
}

/// Runs `f` for about `budget` seconds and at least `min` times; returns
/// each call's seconds.
fn time_for(budget: f64, min: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget {
        out.push(f());
    }
    out
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Single-thread time per call of the fluid and fiber kernels on a flat
/// state (the `kernels::*` entry points of Algorithm 1).
pub struct FlatKernels {
    pub collide: f64,
    pub stream: f64,
    pub fused: f64,
    pub update_velocity: f64,
    pub copy: f64,
    /// Kernels 1–3 together.
    pub forces: f64,
    pub spread: f64,
    pub moves: f64,
}

pub fn flat_kernels(state: &SimState, tracer: &mut Tracer, reps: usize) -> FlatKernels {
    let mut s = state.clone();
    tracer.span("flat_probe", |t| FlatKernels {
        collide: time_calls(t, "collide", reps, &mut s, kernels::compute_fluid_collision),
        stream: time_calls(
            t,
            "stream",
            reps,
            &mut s,
            kernels::stream_fluid_velocity_distribution,
        ),
        fused: time_calls(t, "fused", reps, &mut s, kernels::fused_collide_stream),
        update_velocity: time_calls(
            t,
            "update_velocity",
            reps,
            &mut s,
            kernels::update_fluid_velocity,
        ),
        copy: time_calls(
            t,
            "copy",
            reps,
            &mut s,
            kernels::copy_fluid_velocity_distribution,
        ),
        forces: time_calls(t, "forces", reps, &mut s, |s| {
            kernels::compute_bending_force_in_fibers(s);
            kernels::compute_stretching_force_in_fibers(s);
            kernels::compute_elastic_force_in_fibers(s);
        }),
        spread: time_calls(
            t,
            "spread",
            reps,
            &mut s,
            kernels::spread_force_from_fibers_to_fluid,
        ),
        moves: time_calls(t, "move", reps, &mut s, kernels::move_fibers),
    })
}

/// Bytes one split-plan step moves per fluid node, computed from the
/// arrays each kernel reads and writes (8-byte values, D3Q19): collision
/// reads f, ρ, u_eq and writes f; streaming reads f and writes f_new; the
/// velocity update reads f_new and the force and writes ρ, u and u_eq;
/// the copy reads f_new and writes f. Caches and write-allocate are not
/// counted, so this is a lower bound labelled as computed.
pub fn bytes_per_update() -> f64 {
    const Q: f64 = 19.0;
    let values = (Q + 1.0 + 3.0 + Q) + (Q + Q) + (Q + 3.0 + 1.0 + 3.0 + 3.0) + (Q + Q);
    8.0 * values
}

/// DRAM bytes per node of one whole-grid step through the `cachesim`
/// model (L2 demand misses × 64-byte lines, one step from cold), for the
/// flat and the cube layout.
pub fn cachesim_bytes(config: &lbm_ib::SimulationConfig, tracer: &mut Tracer) -> (f64, f64) {
    let dims = config.dims();
    let nodes = dims.n() as f64;
    let flat = tracer.span("cachesim_flat", |_| {
        cachesim::simulate_flat(dims, 0..dims.nx, 1, 1)
    });
    let cdims = CubeDims::new(dims, config.cube_k);
    let cubes: Vec<usize> = (0..cdims.num_cubes()).collect();
    let cube = tracer.span("cachesim_cube", |_| {
        cachesim::simulate_cube(cdims, &cubes, 1, 1)
    });
    (
        flat.l2_misses as f64 * 64.0 / nodes,
        cube.l2_misses as f64 * 64.0 / nodes,
    )
}

/// Size in bytes of the last-level cache the machine reports.
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let (Ok(level), size) = (level.trim().parse::<u32>(), size.trim()) else {
            continue;
        };
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|v| v << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok().map(|v| v << 20),
                None => size.parse().ok(),
            },
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Memory bandwidth ceiling in GB/s on arrays at least four times the
/// last-level cache: copy and in-place triad with `THREADS` threads, and
/// copy with one thread (the thread count of the flat kernel probe).
pub struct Bandwidth {
    pub copy_gbs: f64,
    pub triad_gbs: f64,
    pub copy_1t_gbs: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
}

pub fn bandwidth(tracer: &mut Tracer) -> Bandwidth {
    const FALLBACK_LLC: u64 = 64 << 20;
    const REPS: usize = 3;
    let llc = llc_bytes().unwrap_or(FALLBACK_LLC);
    let n = (4 * llc).div_ceil(8) as usize;
    let a = vec![1.0f64; n];
    let mut b = vec![0.0f64; n];
    let bytes = (n * 8) as f64;
    let copy = |b: &mut [f64], threads: usize| {
        let part = n.div_ceil(threads);
        std::thread::scope(|s| {
            for (src, dst) in a.chunks(part).zip(b.chunks_mut(part)) {
                s.spawn(move || dst.copy_from_slice(src));
            }
        });
    };
    let triad = |b: &mut [f64]| {
        let part = n.div_ceil(THREADS);
        std::thread::scope(|s| {
            for (src, dst) in a.chunks(part).zip(b.chunks_mut(part)) {
                s.spawn(move || {
                    for (d, x) in dst.iter_mut().zip(src) {
                        *d += 0.5 * x;
                    }
                });
            }
        });
    };
    copy(&mut b, THREADS); // faults the destination pages in, untimed
    let best = |f: &mut dyn FnMut() -> f64| (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min);
    tracer.span("bandwidth", |t| {
        let copy_s = best(&mut || t.span("mem_copy", |_| secs(|| copy(&mut b, THREADS))));
        let copy_1t_s = best(&mut || t.span("mem_copy_1t", |_| secs(|| copy(&mut b, 1))));
        let triad_s = best(&mut || t.span("mem_triad", |_| secs(|| triad(&mut b))));
        std::hint::black_box(&b);
        Bandwidth {
            copy_gbs: 2.0 * bytes / copy_s / 1e9,
            triad_gbs: 3.0 * bytes / triad_s / 1e9,
            copy_1t_gbs: 2.0 * bytes / copy_1t_s / 1e9,
            array_bytes: n as u64 * 8,
            llc_bytes: llc,
        }
    })
}

/// Fixed cost in seconds of one `run` call on `run`'s solver, fitted from
/// `k` single-step calls against one `k`-step call.
pub fn run_call_overhead(run: &mut Run, tracer: &mut Tracer, budget: f64) -> Result<f64, String> {
    const K: u64 = 4;
    let (mut singles, mut batched) = (Vec::new(), Vec::new());
    let solver = &mut run.solver;
    let mut failure = None;
    tracer.span("call_overhead", |t| {
        time_for(budget, 3, || {
            let single = secs(|| {
                for _ in 0..K {
                    if let Err(e) = t.span("run", |_| solver.run(1)) {
                        failure = Some(e.to_string());
                    }
                }
            });
            let batch = secs(|| {
                if let Err(e) = t.span("run", |_| solver.run(K)) {
                    failure = Some(e.to_string());
                }
            });
            singles.push(single);
            batched.push(batch);
            single + batch
        });
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(call_overhead(K, &singles, &batched).expect("K >= 2 and samples")),
    }
}

/// Median seconds of `Solver::to_state` (the gather out of the cube
/// layout) over five calls, and the last state gathered.
pub fn gather(solver: &dyn Solver, tracer: &mut Tracer) -> (f64, SimState) {
    let mut state = None;
    let secs = time_calls(tracer, "to_state", 5, &mut state, |state| {
        *state = Some(solver.to_state());
    });
    (secs, state.expect("five calls"))
}

/// Save and resume times of `state` (median of three each) and the
/// checkpoint's size in bytes.
pub fn checkpoint_io(
    state: &SimState,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(f64, f64, u64), String> {
    const REPS: usize = 3;
    let path = dir.join("probe.ckpt");
    let mut failure = None;
    let save = time_calls(tracer, "save", REPS, &mut failure, |failure| {
        if let Err(e) = checkpoint::save(state, &path) {
            *failure = Some(e.to_string());
        }
    });
    let resume = time_calls(tracer, "resume", REPS, &mut failure, |failure| {
        if let Err(e) = checkpoint::resume(&path) {
            *failure = Some(e.to_string());
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok((save, resume, bytes))
}

/// Median seconds of `Watchdog::observe` and of `diagnostics` on `state`.
pub fn health_checks(state: &SimState, tracer: &mut Tracer) -> (f64, f64) {
    const REPS: usize = 5;
    let mut dog = Watchdog::new();
    let observe = time_calls(tracer, "observe", REPS, &mut dog, |dog| {
        std::hint::black_box(dog.observe(state).is_ok());
    });
    let diag = time_calls(tracer, "diagnostics", REPS, &mut (), |_| {
        std::hint::black_box(diagnostics(state));
    });
    (observe, diag)
}

/// Relative extra wall time of the workload's chunks under the
/// supervisor: the same chunk lengths run alternately on a bare cube
/// solver and on a supervised one, from the same start state.
pub fn supervisor_overhead(
    w: Workload,
    config: lbm_ib::SimulationConfig,
    dir: &Path,
    tracer: &mut Tracer,
    budget: f64,
) -> Result<f64, String> {
    let state = start_state(w, config, dir)?;
    let mut bare = build_solver("cube", state.clone(), THREADS).map_err(|e| e.to_string())?;
    let mut sup = Supervisor::new("cube", state, THREADS, RecoveryPolicy::default())
        .map_err(|e| e.to_string())?;
    let n = w.chunk_steps();
    let mut failure = None;
    let (mut tb, mut ts) = (Vec::new(), Vec::new());
    tracer.span("supervisor_probe", |t| {
        let mut chunk = |name: &'static str, s: &mut dyn Solver| {
            secs(|| {
                if let Err(e) = t.span(name, |_| s.run(n)) {
                    failure = Some(e.to_string());
                }
            })
        };
        chunk("bare", bare.as_mut());
        chunk("supervised", &mut sup);
        time_for(budget, 5, || {
            tb.push(chunk("bare", bare.as_mut()));
            ts.push(chunk("supervised", &mut sup));
            tb[tb.len() - 1] + ts[ts.len() - 1]
        });
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(median(&ts).expect("samples") / median(&tb).expect("samples") - 1.0),
    }
}

/// The plain single-thread baseline: `seq` on the same start state in the
/// workload's chunk length. Returns MLUPS and the solver's final state.
pub fn seq_baseline(
    w: Workload,
    config: lbm_ib::SimulationConfig,
    dir: &Path,
    tracer: &mut Tracer,
    budget: f64,
) -> Result<(f64, SimState), String> {
    let state = start_state(w, config, dir)?;
    let nodes = state.fluid.n() as f64;
    let mut seq = build_solver("seq", state, 1).map_err(|e| e.to_string())?;
    let n = w.chunk_steps();
    seq.run(n).map_err(|e| e.to_string())?;
    let mut failure = None;
    let times = tracer.span("seq_probe", |t| {
        time_for(budget, 3, || {
            secs(|| {
                if let Err(e) = t.span("run", |_| seq.run(n)) {
                    failure = Some(e.to_string());
                }
            })
        })
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let wall: f64 = times.iter().sum();
    Ok((
        times.len() as f64 * n as f64 * nodes / wall / 1e6,
        seq.to_state(),
    ))
}

/// Per-kernel busy split of a cube run's telemetry: (fluid seconds, fiber
/// seconds), each summed over threads.
pub fn fluid_fiber_seconds(t: &lbm_ib::RunTelemetry) -> (f64, f64) {
    let fluid = [
        KernelId::Collision,
        KernelId::Stream,
        KernelId::UpdateVelocity,
        KernelId::CopyDistributions,
        KernelId::FusedCollideStream,
    ];
    let fiber = [
        KernelId::BendingForce,
        KernelId::StretchingForce,
        KernelId::ElasticForce,
        KernelId::SpreadForce,
        KernelId::MoveFibers,
    ];
    let sum = |ks: &[KernelId]| ks.iter().map(|&k| t.kernel_seconds(k)).sum::<f64>();
    (sum(&fluid), sum(&fiber))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_bytes_match_the_cachesim_access_model() {
        // cachesim's flat trace emits 147 scalar accesses per node and step.
        assert_eq!(bytes_per_update(), 147.0 * 8.0);
    }
}
