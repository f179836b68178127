//! Simulation-throughput micro-bench: reference interpreter vs. compiled
//! engine, cycles per second, on the paper's pipelined kernels, plus
//! whole-system runs of the Table 1 loop kernels.
//!
//! ```text
//! cargo run --release -p roccc-bench --bin bench_sim -- [--cycles N] [--runs R] [--out PATH]
//! ```
//!
//! For each kernel the same cycle stream (same arguments, same
//! valid/bubble pattern) is driven through [`NetlistSim`] (the readable
//! per-cycle interpreter) and [`CompiledSim`] (the levelized zero-alloc
//! engine), and the median-of-runs cycles/sec plus the compiled-engine
//! speedup are written to `BENCH_sim.json` so the perf trajectory is
//! tracked PR over PR.
//!
//! The `system` row per kernel times whole-system runs of the Table 1
//! loop kernel (BRAM → address generator → smart buffer → `CompiledSim`,
//! the paper's Figure 2) over seeded frames, and reports its cycles/sec
//! and, as its `speedup`, the ratio to the bare `CompiledSim` stepping
//! the same netlist over the same number of cycles: the share of the
//! data path's own rate that survives the memory and buffer layer.

use roccc::{CompileOptions, CompiledSim, NetlistSim};
use roccc_bench::{bench_result, render_bench_json, time_median, BenchResult};
use roccc_netlist::SimPlan;
use roccc_testutil::XorShift64;
use std::collections::HashMap;
use std::hint::black_box;

struct Config {
    cycles: u64,
    runs: usize,
    lanes: usize,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        cycles: 200_000,
        runs: 5,
        lanes: 64,
        out: "BENCH_sim.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--cycles" => cfg.cycles = grab("--cycles").parse().expect("--cycles: integer"),
            "--runs" => cfg.runs = grab("--runs").parse().expect("--runs: integer"),
            "--lanes" => cfg.lanes = grab("--lanes").parse().expect("--lanes: integer"),
            "--out" => cfg.out = grab("--out"),
            "--help" | "-h" => {
                eprintln!("usage: bench_sim [--cycles N] [--runs R] [--lanes L] [--out PATH]");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    cfg
}

/// The benched kernels: straight-line data paths driven cycle by cycle.
/// (`fir_dp` is the paper's 5-tap FIR inner product — the acceptance
/// kernel; `dct`/`wavelet` are the heavier Table 1 streaming bodies.)
fn kernels() -> Vec<(&'static str, String, &'static str, f64)> {
    vec![
        (
            "fir",
            "void fir_dp(int16 A0, int16 A1, int16 A2, int16 A3, int16 A4, int16* T) {
               *T = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }"
                .to_string(),
            "fir_dp",
            5.2,
        ),
        ("dct", roccc_ipcores::kernels::dct_source(), "dct", 7.5),
        (
            "wavelet",
            roccc_ipcores::kernels::wavelet_source(),
            "wavelet",
            9.9,
        ),
    ]
}

fn main() {
    let cfg = parse_args();
    println!(
        "netlist simulation throughput — {} cycles/kernel, median of {} runs\n",
        cfg.cycles, cfg.runs
    );
    println!(
        "{:<10} {:>16} {:>16} {:>9} {:>16} {:>9}",
        "kernel", "reference c/s", "compiled c/s", "speedup", "batched c/s", "speedup"
    );

    let mut results: Vec<BenchResult> = Vec::new();
    for (name, src, func, period) in kernels() {
        let hw = roccc::compile(
            &src,
            func,
            &CompileOptions {
                target_period_ns: period,
                ..CompileOptions::default()
            },
        )
        .expect("bench kernel compiles");
        let nl = &hw.netlist;
        let plan = SimPlan::compile(nl).expect("plan compiles");
        let n_in = nl.inputs.len();
        let n_out = nl.outputs.len();

        // One shared input stream: random in-range args, ~1/8 bubbles.
        let mut rng = XorShift64::new(0xb0c0 + cfg.cycles);
        let flat_args: Vec<i64> = (0..cfg.cycles as usize)
            .flat_map(|_| {
                let r = &mut rng;
                nl.inputs
                    .iter()
                    .map(|(_, t)| r.sample_int(*t))
                    .collect::<Vec<i64>>()
            })
            .collect();
        let valids: Vec<bool> = (0..cfg.cycles).map(|_| rng.gen_ratio(7, 8)).collect();

        // Reference: per-cycle interpreter.
        let ref_secs = time_median(cfg.runs, || {
            let mut sim = NetlistSim::new(nl);
            let mut acc = 0i64;
            for (t, &v) in valids.iter().enumerate() {
                let args = &flat_args[t * n_in..(t + 1) * n_in];
                let r = sim.step(args, v).expect("reference step");
                if r.out_valid && n_out > 0 {
                    acc ^= r.outputs[0];
                }
            }
            black_box(acc) as u64
        });

        // Compiled: levelized zero-alloc engine over the same stream.
        let mut out_flat = vec![0i64; n_out];
        let comp_secs = time_median(cfg.runs, || {
            let mut sim = CompiledSim::new(&plan);
            let mut acc = 0i64;
            for (t, &v) in valids.iter().enumerate() {
                let args = &flat_args[t * n_in..(t + 1) * n_in];
                let out_valid = sim.step(args, v).expect("compiled step");
                if out_valid && n_out > 0 {
                    sim.read_outputs(&mut out_flat);
                    acc ^= out_flat[0];
                }
            }
            black_box(acc) as u64
        });

        // Batched: SoA lane engine over the same argument stream, every
        // iteration valid (the lane driver packs the stream densely, so
        // its unit is iterations == pipeline cycles per lane-pass).
        let mut batch_out: Vec<i64> = Vec::new();
        let batch_secs = time_median(cfg.runs, || {
            batch_out.clear();
            let rows = plan
                .run_batch_lanes(&flat_args, cfg.cycles as usize, cfg.lanes, &mut batch_out)
                .expect("batched run");
            black_box(rows as u64 ^ batch_out.first().copied().unwrap_or(0) as u64)
        });

        let mut reference = bench_result(name, "reference", cfg.cycles, ref_secs);
        let mut compiled = bench_result(name, "compiled", cfg.cycles, comp_secs);
        let mut batched = bench_result(name, "batched", cfg.cycles, batch_secs);
        compiled.speedup = compiled.cycles_per_sec / reference.cycles_per_sec;
        batched.speedup = batched.cycles_per_sec / compiled.cycles_per_sec;
        reference.speedup = 1.0;
        println!(
            "{:<10} {:>16.0} {:>16.0} {:>8.2}x {:>16.0} {:>8.2}x",
            name,
            reference.cycles_per_sec,
            compiled.cycles_per_sec,
            compiled.speedup,
            batched.cycles_per_sec,
            batched.speedup
        );
        results.push(reference);
        results.push(compiled);
        results.push(batched);
    }

    println!(
        "\n{:<10} {:>16} {:>16} {:>15}",
        "kernel", "system c/s", "compiled c/s", "system/compiled"
    );
    for name in ["fir", "dct", "wavelet"] {
        let system = bench_system(name, &cfg);
        println!(
            "{:<10} {:>16.0} {:>16.0} {:>15.3}",
            name,
            system.cycles_per_sec,
            system.cycles_per_sec / system.speedup,
            system.speedup
        );
        results.push(system);
    }

    // Cross-check the engines agree on a short differential stream before
    // publishing numbers (belt and braces; the test suite covers this
    // exhaustively).
    verify_engines_agree();

    let doc = render_bench_json(&results);
    std::fs::write(&cfg.out, &doc).expect("write BENCH_sim.json");
    println!("\nwrote {}", cfg.out);

    let fir_speedup = results
        .iter()
        .find(|r| r.kernel == "fir" && r.engine == "compiled")
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    if fir_speedup < 3.0 {
        eprintln!(
            "WARNING: compiled FIR speedup {fir_speedup:.2}x is below the 3x acceptance target"
        );
    }
}

/// Whole-system runs of Table 1 kernel `name` over seeded frames, at
/// least `cfg.cycles` simulated cycles per timed run; `speedup` is the
/// ratio to the bare `CompiledSim` on the same netlist and cycle count.
fn bench_system(name: &str, cfg: &Config) -> BenchResult {
    let b = roccc_ipcores::benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("Table 1 row");
    let hw = roccc_ipcores::table::compile_benchmark(&b).expect("Table 1 kernel compiles");
    let mut rng = XorShift64::new(0x5b5 + cfg.cycles);
    let frames: Vec<HashMap<String, Vec<i64>>> = (0..4)
        .map(|_| {
            hw.kernel
                .windows
                .iter()
                .map(|w| {
                    let n: usize = w.dims.iter().product();
                    let data = (0..n).map(|_| rng.sample_int(w.elem)).collect();
                    (w.array.clone(), data)
                })
                .collect()
        })
        .collect();
    let no_scalars = HashMap::new();
    let frame_cycles = hw.run(&frames[0], &no_scalars).expect("system run").cycles;
    let runs_per_sample = cfg.cycles.div_ceil(frame_cycles).max(1);
    let cycles = runs_per_sample * frame_cycles;
    let sys_secs = time_median(cfg.runs, || {
        (0..runs_per_sample as usize)
            .map(|i| {
                let run = hw
                    .run(&frames[i % frames.len()], &no_scalars)
                    .expect("system run");
                assert_eq!(run.cycles, frame_cycles, "frame length depends on the data");
                black_box(run.mem_writes)
            })
            .sum()
    });

    let plan = SimPlan::compile(&hw.netlist).expect("plan compiles");
    let args: Vec<i64> = (0..cycles)
        .flat_map(|_| {
            let r = &mut rng;
            hw.netlist
                .inputs
                .iter()
                .map(|(_, t)| r.sample_int(*t))
                .collect::<Vec<i64>>()
        })
        .collect();
    let mut out = Vec::new();
    let comp_secs = time_median(cfg.runs, || {
        out.clear();
        let rows = CompiledSim::new(&plan)
            .run_batch(&args, cycles as usize, &mut out)
            .expect("compiled run");
        black_box(rows as u64)
    });

    let mut system = bench_result(name, "system", cycles, sys_secs);
    system.speedup = comp_secs / sys_secs;
    system
}

fn verify_engines_agree() {
    let src = "void fir_dp(int16 A0, int16 A1, int16 A2, int16 A3, int16 A4, int16* T) {
       *T = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }";
    let hw = roccc::compile(src, "fir_dp", &CompileOptions::default()).expect("compiles");
    let plan = SimPlan::compile(&hw.netlist).expect("plan");
    let mut rng = XorShift64::new(1);
    let iters: Vec<Vec<i64>> = (0..64)
        .map(|_| {
            hw.netlist
                .inputs
                .iter()
                .map(|(_, t)| rng.sample_int(*t))
                .collect()
        })
        .collect();
    let a = NetlistSim::new(&hw.netlist).run_stream(&iters).unwrap();
    let b = CompiledSim::new(&plan).run_stream(&iters).unwrap();
    assert_eq!(a, b, "engines disagree — refusing to write BENCH_sim.json");
    // The lane-batched engine must be bit-exact too, remainder lanes
    // included (64 iterations over 7 lanes).
    let flat: Vec<i64> = iters.iter().flatten().copied().collect();
    let mut batched = Vec::new();
    plan.run_batch_lanes(&flat, iters.len(), 7, &mut batched)
        .unwrap();
    let flattened: Vec<i64> = a.into_iter().flatten().collect();
    assert_eq!(
        batched, flattened,
        "batched engine disagrees — refusing to write BENCH_sim.json"
    );
}
