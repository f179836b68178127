//! Metric definitions and the result printer.
//!
//! Every workload reports the same end-to-end metrics (`BENCHMARK.json`
//! bounds each metric on each workload) and, in a traced run, the same
//! per-layer metrics; a layer that does no work on a workload reads
//! 0 there. `BENCHMARK.json` declares the same names and units, which a
//! test checks.

use crate::common::{percentile, sorted};
use crate::host::HostSpeed;
use crate::trace::{SelfTimes, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit, better).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("ok_frac", "ratio", "higher"),
    ("qor_area_ratio", "ratio", "lower"),
    ("qor_clock_ratio", "ratio", "higher"),
];

/// Per-layer metrics from the traced run: (name, unit). `_ms` values are
/// self time per operation; counts are per operation.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cparse.frontend_ms", "ms"),
    ("hlir.transform_ms", "ms"),
    ("hlir.unroll_ms", "ms"),
    ("hlir.stripmine_ms", "ms"),
    ("hlir.fold_ms", "ms"),
    ("hlir.extract_ms", "ms"),
    ("hlir.stmts", "count"),
    ("suifvm.lower_ssa_ms", "ms"),
    ("suifvm.opt_ms", "ms"),
    ("suifvm.range_ms", "ms"),
    ("suifvm.deps_ms", "ms"),
    ("suifvm.instrs", "count"),
    ("verify.ms", "ms"),
    ("datapath.build_ms", "ms"),
    ("datapath.ops", "count"),
    ("schedule.modulo_ms", "ms"),
    ("netlist.build_ms", "ms"),
    ("netlist.cells", "count"),
    ("prove.ms", "ms"),
    ("prove.obligations", "count"),
    ("prove.sat_obligations", "count"),
    ("prove.terms", "count"),
    ("vhdl.emit_ms", "ms"),
    ("vhdl.bytes", "count"),
    ("synth.map_ms", "ms"),
    ("roccc.orchestration_ms", "ms"),
    ("explore.compile_busy_s", "s"),
    ("explore.wasted_compile_frac", "ratio"),
    ("explore.engine_ms", "ms"),
    ("netlist.plan_compile_ms", "ms"),
    ("netlist.system_ns_per_cycle.fir", "ns"),
    ("netlist.system_ns_per_cycle.dct", "ns"),
    ("netlist.system_ns_per_cycle.wavelet", "ns"),
    ("netlist.compiled_ns_per_cycle.fir", "ns"),
    ("netlist.compiled_ns_per_cycle.dct", "ns"),
    ("netlist.compiled_ns_per_cycle.wavelet", "ns"),
    ("netlist.batched_ns_per_cycle.fir", "ns"),
    ("netlist.batched_ns_per_cycle.dct", "ns"),
    ("netlist.batched_ns_per_cycle.wavelet", "ns"),
    ("serve.miss_compile_ms", "ms"),
    ("serve.miss_overhead_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.busy_rejections", "count"),
    ("serve.lateness_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Span names charged to each per-layer `_ms` metric of the compile
/// pipeline.
const LAYER_SPANS: &[(&str, &[&str])] = &[
    ("cparse.frontend_ms", &["cparse.frontend"]),
    (
        "hlir.transform_ms",
        &["hlir.fuse", "hlir.stripmine", "hlir.unroll", "hlir.fold"],
    ),
    ("hlir.unroll_ms", &["hlir.unroll"]),
    ("hlir.stripmine_ms", &["hlir.stripmine"]),
    ("hlir.fold_ms", &["hlir.fold"]),
    ("hlir.extract_ms", &["hlir.extract"]),
    (
        "suifvm.lower_ssa_ms",
        &["suifvm.lower", "suifvm.ssa", "suifvm.verify_ssa"],
    ),
    ("suifvm.opt_ms", &["suifvm.optimize"]),
    ("suifvm.range_ms", &["suifvm.range"]),
    ("suifvm.deps_ms", &["suifvm.deps"]),
    (
        "verify.ms",
        &[
            "verify.ir",
            "verify.ranges",
            "verify.deps",
            "verify.schedule",
            "verify.datapath",
            "verify.netlist",
        ],
    ),
    (
        "datapath.build_ms",
        &[
            "datapath.build",
            "datapath.pipeline",
            "datapath.narrow",
            "datapath.apply_schedule",
            "datapath.verify",
        ],
    ),
    ("schedule.modulo_ms", &["schedule.modulo"]),
    ("netlist.build_ms", &["netlist.build", "netlist.verify"]),
    ("prove.ms", &["prove.prove", "prove.check"]),
    ("vhdl.emit_ms", &["vhdl.emit"]),
    ("synth.map_ms", &["synth.map"]),
    ("roccc.orchestration_ms", &["roccc.compile"]),
];

/// Per-operation counters recorded by the replay.
const LAYER_COUNTS: &[&str] = &[
    "hlir.stmts",
    "suifvm.instrs",
    "datapath.ops",
    "netlist.cells",
    "prove.obligations",
    "prove.sat_obligations",
    "prove.terms",
    "vhdl.bytes",
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Latency samples (ms) behind the latency metrics, for the header.
    pub latencies: Vec<f64>,
    /// Percentile reported as `latency_tail_ms`.
    pub tail_pct: f64,
    /// Human-readable lines printed before the result: the issue-named
    /// metrics of the workload, known defects, the self-time table.
    pub notes: Vec<String>,
    /// Failure messages (first few are printed).
    pub errors: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Records a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }

    /// Fills the latency metrics from per-operation samples
    /// `(completion, s since the run started; latency, ms)`, each divided
    /// by the host slowdown `factor` at its completion time (see
    /// [`HostSpeed::factor`]); the raw figures go to the notes.
    pub fn set_latencies(
        &mut self,
        samples: &[(f64, f64)],
        tail_pct: f64,
        hs: &HostSpeed,
        factor: impl Fn(f64) -> f64,
    ) {
        let raw = sorted(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
        let norm = sorted(
            &samples
                .iter()
                .map(|&(t, v)| v / factor(t))
                .collect::<Vec<_>>(),
        );
        self.notes.push(format!(
            "host: calibration median {:.4} ms (reference {} ms); raw latency p50 {:.4} ms, p{} {:.4} ms",
            hs.median_ms(),
            crate::host::CALIB_REF_MS,
            percentile(&raw, 50.0),
            tail_pct,
            percentile(&raw, tail_pct)
        ));
        self.set("latency_p50_ms", percentile(&norm, 50.0));
        self.set("latency_tail_ms", percentile(&norm, tail_pct));
        self.tail_pct = tail_pct;
        self.latencies = norm;
    }

    /// Sets `setup_s` (normalized) and notes the raw figure.
    pub fn set_setup(&mut self, t: crate::common::SetupTime) {
        self.set("setup_s", t.norm_s);
        self.notes
            .push(format!("setup: raw median {:.6} s", t.raw_s));
    }

    /// Fills every compile-layer per-layer metric from the tracer,
    /// normalized per operation.
    pub fn set_compile_layers(&mut self, tr: &Tracer, st: &SelfTimes) {
        let ops = st.ops.max(1) as f64;
        for (metric, spans) in LAYER_SPANS {
            self.set(metric, st.sum(spans) as f64 / 1e6 / ops);
        }
        for name in LAYER_COUNTS {
            self.set(name, tr.counter(name) / ops);
        }
    }
}

/// Everything a run prints, given its identity.
pub struct Header<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
}

/// Formats a metric value with every digit (shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the human header and the one-line JSON result (last line).
pub fn render(h: &Header<'_>, r: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# perfbench workload={} seed={} seconds={} trace={} host_cpus={} workers={} git={} runs=1",
        h.workload,
        h.seed,
        h.seconds,
        u8::from(h.trace),
        crate::common::host_cpus(),
        crate::common::workers(),
        crate::common::git_revision()
    );
    for n in &r.notes {
        for line in n.lines() {
            let _ = writeln!(s, "# {line}");
        }
    }
    for e in &r.errors {
        let _ = writeln!(s, "# FAILED: {e}");
    }
    if !r.latencies.is_empty() {
        let l = &r.latencies;
        let _ = writeln!(
            s,
            "# latency (reference-host ms): n={} q1={:.4} median={:.4} q3={:.4} p{}={:.4}",
            l.len(),
            percentile(l, 25.0),
            percentile(l, 50.0),
            percentile(l, 75.0),
            r.tail_pct,
            percentile(l, r.tail_pct)
        );
    }
    let defs: Vec<(&str, &str)> = if h.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    let mut metrics = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let v = r.values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(s, "# {name:<40} {:>18} {unit}", num(v));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        ));
    }
    let _ = writeln!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    s
}
