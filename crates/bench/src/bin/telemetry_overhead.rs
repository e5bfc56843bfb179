//! Measures the cost of the per-thread kernel telemetry added in the
//! metrics subsystem: every solver runs the same workload with telemetry
//! off and on, and the harness reports the wall-time overhead plus one
//! captured `RunTelemetry` snapshot in `BENCH_telemetry.json`.
//!
//! The acceptance bar is <= 3% overhead on the cube solver: the only hot
//! paths the instrumentation touches are one `Instant::now()` pair per
//! kernel section and per barrier.
//!
//! Usage: `telemetry_overhead [--steps N] [--reps N] [--threads N] [--out PATH]`

use lbm_ib::solver::build_solver;
use lbm_ib::{SimState, SimulationConfig};
use lbm_ib_bench::Args;

/// Median wall seconds of `reps` fresh runs of `steps` steps.
fn median_run_secs(
    solver_name: &str,
    config: SimulationConfig,
    threads: usize,
    steps: u64,
    reps: usize,
    telemetry: bool,
) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut solver =
                build_solver(solver_name, SimState::new(config), threads).expect("build solver");
            solver.run(2).expect("warm-up"); // warm caches and thread pools
            solver.set_telemetry(telemetry);
            let report = solver.run(steps).expect("measured run");
            report.wall.as_secs_f64()
        })
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

struct Row {
    solver: &'static str,
    off_s: f64,
    on_s: f64,
}

impl Row {
    fn overhead_percent(&self) -> f64 {
        100.0 * (self.on_s - self.off_s) / self.off_s
    }
}

fn main() {
    let args = Args::parse();
    let steps: u64 = args.get_or("steps", 40);
    let reps: usize = args.get_or("reps", 9);
    let threads: usize = args.get_or("threads", 4);
    let out: String = args.get_or("out", "BENCH_telemetry.json".to_string());
    let config = SimulationConfig::quick_test();

    println!(
        "telemetry overhead, quick_test, {steps} steps, {reps} reps (median), {threads} threads"
    );
    println!("{}", lbm_ib_bench::rule(72));

    let rows: Vec<Row> = ["seq", "omp", "cube", "dist"]
        .into_iter()
        .map(|name| Row {
            solver: name,
            off_s: median_run_secs(name, config, threads, steps, reps, false),
            on_s: median_run_secs(name, config, threads, steps, reps, true),
        })
        .collect();
    for r in &rows {
        println!(
            "{:<5} off {:>9.2} ms  on {:>9.2} ms  overhead {:>+6.2}%",
            r.solver,
            r.off_s * 1e3,
            r.on_s * 1e3,
            r.overhead_percent()
        );
    }

    // Capture one telemetry snapshot (cube solver) for the JSON report.
    let mut cube = build_solver("cube", SimState::new(config), threads).expect("build cube");
    cube.set_telemetry(true);
    let report = cube.run(steps).expect("telemetry run");
    let telemetry = report.telemetry.expect("cube telemetry enabled");
    println!("{}", lbm_ib_bench::rule(72));
    println!("{}", telemetry.summary());

    // Hand-rolled JSON (the workspace is offline: no serde).
    let solver_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"solver\": \"{}\", \"off_s\": {:e}, \"on_s\": {:e}, \"overhead_percent\": {:.3}}}",
                r.solver,
                r.off_s,
                r.on_s,
                r.overhead_percent()
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"telemetry_overhead\",\n",
            "  \"steps\": {},\n",
            "  \"reps\": {},\n",
            "  \"threads\": {},\n",
            "  \"solvers\": [\n{}\n  ],\n",
            "  \"telemetry\": {}\n",
            "}}\n"
        ),
        steps,
        reps,
        threads,
        solver_rows.join(",\n"),
        telemetry.to_json(),
    );
    std::fs::write(&out, json).expect("write json");
    println!("wrote {out}");
}
