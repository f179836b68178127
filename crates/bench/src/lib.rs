//! # roccc-bench — in-tree benchmark harness and evaluation binaries
//!
//! The workspace builds fully offline, so instead of criterion this crate
//! carries its own small measurement harness: wall-clock timing over a
//! calibrated number of in-loop repetitions, median-of-runs reporting, and
//! a hand-rolled JSON writer for the tracked artifact `BENCH_sim.json`.
//!
//! Binaries:
//!
//! * `cargo run --release -p roccc-bench --bin bench_sim` — simulation
//!   throughput (cycles/sec) of the reference interpreter vs. the
//!   compiled engine on the paper kernels; writes `BENCH_sim.json`;
//! * `cargo run --release -p roccc-bench --bin table1` — the full
//!   Table 1 comparison with paper numbers alongside (rows in parallel);
//! * `cargo run --release -p roccc-bench --bin ablations` — the
//!   design-choice ablations from DESIGN.md (D1–D6, in parallel);
//! * `cargo run --release -p roccc-bench --bin loadgen` — hammers a
//!   `roccc-serve` compile daemon from N client threads over the
//!   Table 1 kernels and writes `BENCH_serve.json` (throughput,
//!   p50/p99 latency, cache hit rate).

#![warn(missing_docs)]

use roccc_synth::ResourceReport;
use std::time::Instant;

/// Formats a resource report on one line.
pub fn fmt_report(r: &ResourceReport) -> String {
    format!(
        "{:>6} LUT {:>6} FF {:>5} slices {:>7.1} MHz",
        r.luts, r.ffs, r.slices, r.fmax_mhz
    )
}

/// The ratio `a / b` guarding against division by zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// One measured simulation-engine result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Kernel name (`fir`, `dct`, `wavelet`, …).
    pub kernel: String,
    /// Engine name (`reference`, `compiled`, `batched` or `system`).
    pub engine: String,
    /// Clock cycles simulated per timed run.
    pub cycles: u64,
    /// Median wall-clock seconds per run.
    pub seconds: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Rate relative to the row's base engine on the same kernel: the
    /// reference engine for `compiled` (1.0 for the reference itself), the
    /// compiled engine for `batched` and `system`.
    pub speedup: f64,
}

/// Times `f` (which must simulate `cycles` clock cycles) `runs` times and
/// returns the median seconds per run. The closure's return value is
/// folded into a sink to keep the optimizer honest.
pub fn time_median<F: FnMut() -> u64>(runs: usize, mut f: F) -> f64 {
    assert!(runs > 0);
    let mut sink = 0u64;
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            sink = sink.wrapping_add(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(sink);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Builds a [`BenchResult`] from a timed simulation run.
pub fn bench_result(kernel: &str, engine: &str, cycles: u64, seconds: f64) -> BenchResult {
    BenchResult {
        kernel: kernel.to_string(),
        engine: engine.to_string(),
        cycles,
        seconds,
        cycles_per_sec: if seconds > 0.0 {
            cycles as f64 / seconds
        } else {
            f64::INFINITY
        },
        speedup: 1.0,
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending
/// `sorted` slice. Returns NaN on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Serializes results as the `BENCH_sim.json` artifact (a stable,
/// hand-rolled JSON document — no serde in the offline build).
pub fn render_bench_json(results: &[BenchResult]) -> String {
    let mut s = String::from("{\n  \"benchmark\": \"netlist-simulation\",\n  \"unit\": \"cycles/sec\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"engine\": \"{}\", \"cycles\": {}, \"seconds\": {:.6}, \"cycles_per_sec\": {:.1}, \"speedup\": {:.3}}}{}\n",
            json_escape(&r.kernel),
            json_escape(&r.engine),
            r.cycles,
            r.seconds,
            r.cycles_per_sec,
            r.speedup,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero() {
        assert!(ratio(1.0, 0.0).is_nan());
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let a = bench_result("fir", "reference", 1000, 0.5);
        let mut b = bench_result("fir", "compiled", 1000, 0.1);
        b.speedup = b.cycles_per_sec / a.cycles_per_sec;
        assert!((b.speedup - 5.0).abs() < 1e-9);
        let doc = render_bench_json(&[a, b]);
        // Structural smoke checks (no JSON parser in the offline build).
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
        assert_eq!(doc.matches("\"kernel\"").count(), 2);
        assert_eq!(doc.matches("\"cycles_per_sec\"").count(), 2);
        assert!(!doc.contains(",\n  ]"), "no trailing comma:\n{doc}");
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn time_median_is_positive() {
        let t = time_median(3, || {
            let mut x = 0u64;
            for i in 0..1000u64 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        assert!(t >= 0.0 && t.is_finite());
    }
}
