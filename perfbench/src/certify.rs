//! `certify`: a closed loop with one client compiling a seeded draw over
//! the nine Table 1 kernels under the certifying option set (range
//! narrowing, auto modulo scheduling, translation validation, verifier at
//! `Warn`). One operation is compile + VHDL + technology mapping.

use crate::common::{check_vs_interpreter, ms, qor, timed_setup, Stratified};
use crate::host::HostSpeed;
use crate::replay::{self, Fingerprint};
use crate::report::Report;
use crate::trace::Tracer;
use crate::RunCfg;
use roccc::{CompileOptions, Compiled, Verdict, VerifyLevel};
use roccc_ipcores::Benchmark;
use roccc_synth::{map_netlist, VirtexII};
use roccc_testutil::XorShift64;
use std::hint::black_box;
use std::time::Instant;

/// The certifying option set on top of a row's own options.
pub fn certifying(base: &CompileOptions) -> CompileOptions {
    CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        prove: true,
        verify: VerifyLevel::Warn,
        ..base.clone()
    }
}

struct Row {
    bench: Benchmark,
    opts: CompileOptions,
    model: VirtexII,
    expect: Fingerprint,
}

struct State {
    rows: Vec<Row>,
    qor: (f64, f64),
}

fn setup(seed: u64) -> Result<State, String> {
    let mut rng = XorShift64::new(seed ^ 0xce57);
    let mut rows = Vec::new();
    let mut compiled: Vec<Compiled> = Vec::new();
    for bench in roccc_ipcores::benchmarks() {
        let opts = certifying(&bench.opts);
        let model = VirtexII::with_mult_style(bench.mult_style);
        let hw = roccc::compile_with_model(&bench.source, bench.func, &opts, &model)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        certified(&hw).map_err(|e| format!("{}: {e}", bench.name))?;
        check_vs_interpreter(&hw, &bench.source, bench.func, 1, &mut rng)?;
        let expect = Fingerprint::of_parts(&hw, &hw.to_vhdl());
        compiled.push(hw);
        rows.push(Row {
            bench,
            opts,
            model,
            expect,
        });
    }
    let pairs: Vec<_> = rows.iter().map(|r| &r.bench).zip(compiled.iter()).collect();
    let qor = qor(&pairs);
    Ok(State { rows, qor })
}

fn certified(hw: &Compiled) -> Result<(), String> {
    match hw.certificate.as_ref().map(|c| c.verdict) {
        Some(Verdict::Equal) => Ok(()),
        other => Err(format!("certificate verdict {other:?}, expected Equal")),
    }
}

/// One untraced operation; returns its wall time in ms.
fn op(row: &Row) -> (f64, Result<Fingerprint, String>) {
    let t0 = Instant::now();
    let out = roccc::compile_with_model(&row.bench.source, row.bench.func, &row.opts, &row.model)
        .map(|hw| {
            let vhdl = hw.to_vhdl();
            black_box(map_netlist(&hw.netlist, &row.model));
            (hw, vhdl)
        });
    let dt = ms(t0.elapsed());
    (dt, finish(out))
}

/// The same operation through the traced replay.
fn traced_op(t: &Tracer, id: u64, row: &Row) -> (f64, Result<Fingerprint, String>) {
    let t0 = Instant::now();
    let out = {
        let _op = t.op("roccc.compile", id, 0);
        replay::compile(t, &row.bench.source, row.bench.func, &row.opts, &row.model).map(|hw| {
            let vhdl = replay::emit_vhdl(t, &hw);
            let _s = t.span("synth.map");
            black_box(map_netlist(&hw.netlist, &row.model));
            (hw, vhdl)
        })
    };
    let dt = ms(t0.elapsed());
    (dt, finish(out))
}

fn finish(out: Result<(Compiled, String), roccc::CompileError>) -> Result<Fingerprint, String> {
    let (hw, vhdl) = out.map_err(|e| e.to_string())?;
    certified(&hw)?;
    Ok(Fingerprint::of_parts(&hw, &vhdl))
}

fn check(r: &mut Report, row: &Row, got: Result<Fingerprint, String>) {
    match got {
        Ok(fp) if fp == row.expect => {}
        Ok(_) => r.fail(format!(
            "{}: netlist or VHDL differs from the first compile",
            row.bench.name
        )),
        Err(e) => r.fail(format!("{}: {e}", row.bench.name)),
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let (st, setup) = timed_setup(11, || setup(cfg.seed))?;
    let mut r = Report::default();
    r.set_setup(setup);
    r.set("qor_area_ratio", st.qor.0);
    r.set("qor_clock_ratio", st.qor.1);
    let mut draw = Stratified::new(cfg.seed, st.rows.len());
    let tracer = Tracer::new();
    let mut lat = Vec::new();
    let (mut traced_ms, mut plain_ms) = (0.0, 0.0);
    let mut hs = HostSpeed::new(Instant::now());
    while hs.now() < cfg.seconds || r.attempted == 0 {
        hs.tick();
        let row = &st.rows[draw.next_index()];
        r.attempted += 1;
        if cfg.trace {
            // Alternate which side runs first so neither inherits the
            // other's warm caches systematically.
            let id = r.attempted;
            let (a, b) = if id.is_multiple_of(2) {
                let a = traced_op(&tracer, id, row);
                (a, op(row))
            } else {
                let b = op(row);
                (traced_op(&tracer, id, row), b)
            };
            traced_ms += a.0;
            plain_ms += b.0;
            lat.push((hs.now(), a.0));
            let failed = r.failed;
            check(&mut r, row, a.1);
            if r.failed == failed {
                check(&mut r, row, b.1);
            }
        } else {
            let (dt, got) = op(row);
            lat.push((hs.now(), dt));
            check(&mut r, row, got);
        }
    }
    let n = lat.len() as f64;
    // Closed loop, one client: throughput is operations per busy second.
    let busy_s: f64 = lat.iter().map(|&(t, v)| v / hs.factor(t)).sum::<f64>() / 1e3;
    r.set("throughput_per_s", n / busy_s.max(1e-12));
    r.set("ok_frac", 1.0 - r.failed as f64 / n);
    r.set_latencies(&lat, 95.0, &hs, |t| hs.factor(t));
    r.set("peak_rss_mb", crate::common::peak_rss_mib());
    r.notes.push(format!(
        "certify: compile_p50_ms={:.4} compile_p95_ms={:.4} compiles_per_s={:.2} \
         qor_area_ratio={:.6} qor_clock_ratio={:.6} failed_frac={:.4} (n={})",
        r.values["latency_p50_ms"],
        r.values["latency_tail_ms"],
        r.values["throughput_per_s"],
        st.qor.0,
        st.qor.1,
        r.failed as f64 / n,
        r.latencies.len()
    ));
    if cfg.trace {
        let stimes = tracer.self_times();
        r.set_compile_layers(&tracer, &stimes);
        r.set("trace.overhead_frac", traced_ms / plain_ms.max(1e-12) - 1.0);
        crate::finish_trace(cfg, &tracer, &stimes, &mut r)?;
    }
    Ok(r)
}
