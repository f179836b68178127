//! `simulate`: seeded long input streams through the compiled fir, dct
//! and wavelet data paths. Every round pushes one frame per kernel
//! through a whole-system run (BRAM → smart buffer → `CompiledSim`), and
//! one lane stream per kernel through the bare single-stream
//! `CompiledSim` and the lane-batched `BatchedSim`. Compiling, plan
//! building and the reference outputs (the `cparse` interpreter for
//! frames, `IrMachine` for lane streams) all happen in set-up.

use crate::common::{geomean, interpret, ms, qor, random_arrays, table1_row, timed_setup};
use crate::host::HostSpeed;
use crate::report::Report;
use crate::trace::Tracer;
use crate::RunCfg;
use roccc::Compiled;
use roccc_ipcores::Benchmark;
use roccc_netlist::{CompiledSim, SimPlan};
use roccc_suifvm::IrMachine;
use roccc_testutil::XorShift64;
use std::collections::HashMap;
use std::time::Instant;

/// Kernels simulated.
pub const KERNELS: &[&str] = &["fir", "dct", "wavelet"];
/// Frames (input array sets) per kernel; rounds cycle through them.
const FRAMES: usize = 8;
/// Frames per kernel in one round. Rounds of a few tens of ms average
/// over the host's short stalls, which otherwise set the round tail.
const FRAMES_PER_ROUND: usize = 4;
/// Lane streams per kernel; rounds cycle through them.
const STREAMS: usize = 2;
/// Iterations per lane stream.
const STREAM_ITERS: usize = 4096;
/// Lanes of the batched engine.
const LANES: usize = 64;

/// Span names per kernel and engine (span names are static).
const SPANS: [[&str; 3]; 3] = [
    [
        "netlist.system_run.fir",
        "netlist.compiled_run.fir",
        "netlist.batched_run.fir",
    ],
    [
        "netlist.system_run.dct",
        "netlist.compiled_run.dct",
        "netlist.batched_run.dct",
    ],
    [
        "netlist.system_run.wavelet",
        "netlist.compiled_run.wavelet",
        "netlist.batched_run.wavelet",
    ],
];

struct Frame {
    inputs: HashMap<String, Vec<i64>>,
    expect: Vec<(String, Vec<i64>)>,
}

struct Stream {
    args: Vec<i64>,
    expect: Vec<i64>,
}

struct Kernel {
    hw: Compiled,
    plan: SimPlan,
    plan_ms: f64,
    frames: Vec<Frame>,
    streams: Vec<Stream>,
}

struct State {
    kernels: Vec<Kernel>,
    qor: (f64, f64),
}

fn setup_kernel(b: &Benchmark, rng: &mut XorShift64) -> Result<Kernel, String> {
    let hw = roccc_ipcores::table::compile_benchmark(b).map_err(|e| format!("{}: {e}", b.name))?;
    let t0 = Instant::now();
    let plan = SimPlan::compile(&hw.netlist).map_err(|e| format!("{}: {e}", b.name))?;
    let plan_ms = ms(t0.elapsed());
    let program = roccc_cparse::frontend(&b.source).map_err(|e| e.to_string())?;
    let mut frames = Vec::with_capacity(FRAMES);
    for _ in 0..FRAMES {
        let mut golden = random_arrays(&hw, &program, b.func, rng)?;
        let inputs: HashMap<String, Vec<i64>> = hw
            .kernel
            .windows
            .iter()
            .map(|w| (w.array.clone(), golden[&w.array].clone()))
            .collect();
        interpret(&program, b.func, &[], &mut golden)?;
        let expect = hw
            .kernel
            .outputs
            .iter()
            .map(|o| (o.array.clone(), golden[&o.array].clone()))
            .collect();
        frames.push(Frame { inputs, expect });
    }
    let mut streams = Vec::with_capacity(STREAMS);
    for _ in 0..STREAMS {
        let mut m = IrMachine::new(&hw.ir);
        let mut args = Vec::new();
        let mut expect = Vec::new();
        for _ in 0..STREAM_ITERS {
            let row: Vec<i64> = hw
                .netlist
                .inputs
                .iter()
                .map(|(_, t)| rng.sample_int(*t))
                .collect();
            expect.extend(m.run(&row).map_err(|e| e.to_string())?);
            args.extend(row);
        }
        streams.push(Stream { args, expect });
    }
    Ok(Kernel {
        hw,
        plan,
        plan_ms,
        frames,
        streams,
    })
}

fn setup(seed: u64) -> Result<State, String> {
    let mut rng = XorShift64::new(seed ^ 0x51a1);
    let rows: Vec<Benchmark> = KERNELS.iter().map(|k| table1_row(k)).collect();
    let kernels = rows
        .iter()
        .map(|b| setup_kernel(b, &mut rng))
        .collect::<Result<Vec<_>, _>>()?;
    let pairs: Vec<_> = rows.iter().zip(kernels.iter().map(|k| &k.hw)).collect();
    let qor = qor(&pairs);
    Ok(State { kernels, qor })
}

/// Per kernel and engine: (host ns, simulated cycles).
type Acc = [[(f64, f64); 3]; 3];

/// One round; returns its per-engine times and cycles, or the first
/// mismatch.
fn round(st: &State, i: usize, tr: Option<&Tracer>) -> Result<Acc, String> {
    let span = |name| tr.map(|t| t.span(name));
    let mut acc: Acc = [[(0.0, 0.0); 3]; 3];
    let mut out = Vec::with_capacity(STREAM_ITERS * 8);
    for (k, kern) in st.kernels.iter().enumerate() {
        for f in 0..FRAMES_PER_ROUND {
            let frame = &kern.frames[(i * FRAMES_PER_ROUND + f) % FRAMES];
            let t0 = Instant::now();
            let run = {
                let _s = span(SPANS[k][0]);
                kern.hw.run(&frame.inputs, &HashMap::new())
            };
            let dt = t0.elapsed().as_nanos() as f64;
            let run = run.map_err(|e| format!("{}: {e}", KERNELS[k]))?;
            acc[k][0].0 += dt;
            acc[k][0].1 += run.cycles as f64;
            for (name, want) in &frame.expect {
                if run.arrays.get(name) != Some(want) {
                    return Err(format!("{}: system run output {name} differs", KERNELS[k]));
                }
            }
        }

        let stream = &kern.streams[i % STREAMS];
        for engine in 1..3 {
            out.clear();
            let t0 = Instant::now();
            let rows = {
                let _s = span(SPANS[k][engine]);
                if engine == 1 {
                    CompiledSim::new(&kern.plan).run_batch(&stream.args, STREAM_ITERS, &mut out)
                } else {
                    kern.plan
                        .run_batch_lanes(&stream.args, STREAM_ITERS, LANES, &mut out)
                }
            };
            let dt = t0.elapsed().as_nanos() as f64;
            rows.map_err(|e| format!("{}: {e}", KERNELS[k]))?;
            acc[k][engine] = (dt, STREAM_ITERS as f64);
            if out != stream.expect {
                return Err(format!(
                    "{}: {} engine output differs from IrMachine",
                    KERNELS[k],
                    ["system", "compiled", "batched"][engine]
                ));
            }
        }
    }
    Ok(acc)
}

/// Engine time of a round, ms.
fn round_ms(acc: &Acc) -> f64 {
    acc.iter().flatten().map(|e| e.0).sum::<f64>() / 1e6
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let (st, setup) = timed_setup(5, || setup(cfg.seed))?;
    let mut r = Report::default();
    r.set_setup(setup);
    r.set("qor_area_ratio", st.qor.0);
    r.set("qor_clock_ratio", st.qor.1);
    let tracer = Tracer::new();
    let mut rounds: Vec<(f64, Acc)> = Vec::new();
    let (mut traced_ms, mut plain_ms) = (0.0, 0.0);
    let mut hs = HostSpeed::new(Instant::now());
    while hs.now() < cfg.seconds || r.attempted == 0 {
        hs.tick();
        let i = r.attempted as usize;
        r.attempted += 1;
        // A traced run alternates traced and untraced rounds; the
        // untraced ones are the tracing-overhead base.
        let traced = cfg.trace && i.is_multiple_of(2);
        let res = if traced {
            let _op = tracer.op("perfbench.round", r.attempted, 0);
            round(&st, i, Some(&tracer))
        } else {
            round(&st, i, None)
        };
        match res {
            Ok(acc) => {
                if traced {
                    traced_ms += round_ms(&acc);
                } else if cfg.trace {
                    plain_ms += round_ms(&acc);
                }
                rounds.push((hs.now(), acc));
            }
            Err(e) => r.fail(e),
        }
    }
    // Per kernel and engine: ns and cycles over the run, raw and in
    // reference-host ns.
    let (mut raw, mut acc): (Acc, Acc) = ([[(0.0, 0.0); 3]; 3], [[(0.0, 0.0); 3]; 3]);
    for (t, a) in &rounds {
        let f = hs.factor(*t);
        for (k, row) in a.iter().enumerate() {
            for (e, &(ns, cycles)) in row.iter().enumerate() {
                raw[k][e].0 += ns;
                raw[k][e].1 += cycles;
                acc[k][e].0 += ns / f;
                acc[k][e].1 += cycles;
            }
        }
    }
    let lat: Vec<(f64, f64)> = rounds.iter().map(|(t, a)| (*t, round_ms(a))).collect();
    let sum = |engine: usize| -> (f64, f64) {
        acc.iter()
            .map(|k| k[engine])
            .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let per_s = |(ns, cycles): (f64, f64)| cycles / (ns / 1e9).max(1e-12);
    let (sys, comp, bat) = (sum(0), sum(1), sum(2));
    // Geomean over the three engines, so a change that speeds one engine
    // at another's cost moves the end-to-end number.
    r.set(
        "throughput_per_s",
        geomean(&[per_s(sys), per_s(comp), per_s(bat)]),
    );
    r.set("ok_frac", 1.0 - r.failed as f64 / r.attempted.max(1) as f64);
    r.set_latencies(&lat, 95.0, &hs, |t| hs.factor(t));
    r.set("peak_rss_mb", crate::common::peak_rss_mib());
    r.notes.push(format!(
        "simulate: sim_cycles_per_s={:.0} sim_batched_cycles_per_s={:.0} \
         compiled_cycles_per_s={:.0} system/compiled={:.4} (rounds={}; reference-host rates)",
        per_s(sys),
        per_s(bat),
        per_s(comp),
        per_s(sys) / per_s(comp).max(1e-12),
        r.attempted
    ));
    if cfg.trace {
        let names = [
            "netlist.system_ns_per_cycle.",
            "netlist.compiled_ns_per_cycle.",
            "netlist.batched_ns_per_cycle.",
        ];
        for (k, kernel) in KERNELS.iter().enumerate() {
            for (e, prefix) in names.iter().enumerate() {
                let metric = crate::report::PER_LAYER
                    .iter()
                    .find(|(n, _)| n.strip_prefix(prefix) == Some(kernel))
                    .map(|(n, _)| *n)
                    .expect("per-layer metric declared");
                let (ns, cycles) = raw[k][e];
                r.set(metric, ns / cycles.max(1.0));
            }
        }
        let plan_ms: f64 = st.kernels.iter().map(|k| k.plan_ms).sum();
        r.set("netlist.plan_compile_ms", plan_ms / st.kernels.len() as f64);
        r.set("trace.overhead_frac", traced_ms / plain_ms.max(1e-12) - 1.0);
        let stimes = tracer.self_times();
        crate::finish_trace(cfg, &tracer, &stimes, &mut r)?;
    }
    Ok(r)
}
