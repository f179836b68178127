//! Lock-free service metrics: atomic counters and fixed-bucket latency
//! histograms, rendered as Prometheus-style exposition text for the
//! `metrics` protocol command.

use roccc::PhaseTimings;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (seconds, inclusive) of the latency histogram buckets.
/// A final implicit `+Inf` bucket catches the tail. The 1-2-5-style
/// decades span 100 µs (a cache hit) to 10 s (a pathological compile).
pub const BUCKET_BOUNDS_SECS: [f64; 10] = [
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 10.0,
];

const NBUCKETS: usize = BUCKET_BOUNDS_SECS.len() + 1; // + the +Inf bucket

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket latency histogram (cumulative on render, like
/// Prometheus `_bucket{le=...}` series).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx = BUCKET_BOUNDS_SECS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(NBUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn render_into(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, bound) in BUCKET_BOUNDS_SECS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.buckets[NBUCKETS - 1].load(Ordering::Relaxed);
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"
        ));
        if labels.is_empty() {
            out.push_str(&format!("{name}_sum {}\n", self.sum_secs()));
            out.push_str(&format!("{name}_count {}\n", self.count()));
        } else {
            out.push_str(&format!("{name}_sum{{{labels}}} {}\n", self.sum_secs()));
            out.push_str(&format!("{name}_count{{{labels}}} {}\n", self.count()));
        }
    }
}

/// All service metrics, shared across workers behind an `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests read off the wire (all commands).
    pub requests: Counter,
    /// Compile requests answered from the in-memory cache.
    pub cache_hits: Counter,
    /// Compile requests answered from the on-disk artifact store.
    pub disk_hits: Counter,
    /// Compile requests that ran the compiler.
    pub cache_misses: Counter,
    /// Compile or protocol errors replied to clients.
    pub errors: Counter,
    /// Requests that exceeded the wall-clock budget.
    pub timeouts: Counter,
    /// Compiles that panicked (isolated by `catch_unwind`).
    pub panics: Counter,
    /// Connections refused with `busy` by admission control.
    pub busy_rejections: Counter,
    /// Verifier + VHDL lint findings across all actual compiles
    /// (`roccc::verify_compiled` runs on every cache miss).
    pub verify_findings: Counter,
    /// Operator bits shaved by width narrowing, summed over all actual
    /// compiles (`roccc_datapath::width_bits_saved` per cache miss).
    pub width_bits_saved: Counter,
    /// Loop-carried dependence edges found, summed over actual compiles.
    pub deps_carried_edges: Counter,
    /// Feedback recurrences (LPR→SNX cycles) found across compiles.
    pub deps_recurrences: Counter,
    /// Sum of MinII lower bounds across actual compiles.
    pub deps_min_ii: Counter,
    /// Sum of achieved initiation intervals across modulo-scheduled
    /// compiles (compiles requesting `pipeline_ii`).
    pub schedule_ii: Counter,
    /// Modulo-schedule requests that fell back to the plain latch
    /// pipeline (no feasible II below the body latency).
    pub schedule_fallback: Counter,
    /// Compiles whose translation-validation certificate proved the
    /// netlist equal to the IR (verdict `equal`).
    pub prove_proved: Counter,
    /// Compiles whose certificate refuted equivalence with a replayed
    /// counterexample (verdict `refuted`).
    pub prove_refuted: Counter,
    /// Compiles whose certificate left residual unknown obligations
    /// (verdict `unknown`).
    pub prove_unknown: Counter,
    /// Streaming-pipeline compile requests served.
    pub pipeline_requests: Counter,
    /// Pipeline requests answered from the pipeline cache.
    pub pipeline_cache_hits: Counter,
    /// Design-space exploration requests served.
    pub explore_requests: Counter,
    /// Candidates visited across all explore sweeps.
    pub explore_candidates: Counter,
    /// Explore candidates served entirely from the DSE memo.
    pub explore_memo_hits: Counter,
    /// Explore candidates pruned by budget or beam.
    pub explore_pruned: Counter,
    /// Explore candidates skipped on compile/simulation failure.
    pub explore_skipped: Counter,
    /// End-to-end request latency (all compile requests).
    pub request_latency: Histogram,
    /// Per-phase compile latency, indexed like [`PhaseTimings::PHASES`].
    pub phase_latency: [Histogram; PhaseTimings::PHASES.len()],
}

impl Metrics {
    /// Records the per-phase timings of one actual (non-cached) compile.
    pub fn observe_phases(&self, t: &PhaseTimings) {
        for (i, hist) in self.phase_latency.iter().enumerate() {
            let d = t.get(i);
            if !d.is_zero() {
                hist.observe(d);
            }
        }
    }

    /// Renders the Prometheus-style exposition text.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(4096);
        for (name, help, c) in [
            ("roccc_requests_total", "Requests received", &self.requests),
            (
                "roccc_cache_hits_total",
                "Compiles served from the in-memory cache",
                &self.cache_hits,
            ),
            (
                "roccc_disk_hits_total",
                "Compiles served from the on-disk artifact store",
                &self.disk_hits,
            ),
            (
                "roccc_cache_misses_total",
                "Compiles that ran the compiler",
                &self.cache_misses,
            ),
            ("roccc_errors_total", "Error replies", &self.errors),
            (
                "roccc_timeouts_total",
                "Deadline-exceeded replies",
                &self.timeouts,
            ),
            (
                "roccc_panics_total",
                "Compiler panics isolated by catch_unwind",
                &self.panics,
            ),
            (
                "roccc_busy_total",
                "Connections rejected busy by admission control",
                &self.busy_rejections,
            ),
            (
                "roccc_verify_findings_total",
                "Static verifier and VHDL lint findings across compiles",
                &self.verify_findings,
            ),
            (
                "roccc_width_bits_saved_total",
                "Operator bits saved by width narrowing across compiles",
                &self.width_bits_saved,
            ),
            (
                "roccc_deps_carried_edges_total",
                "Loop-carried dependence edges across compiles",
                &self.deps_carried_edges,
            ),
            (
                "roccc_deps_recurrences_total",
                "Feedback recurrences across compiles",
                &self.deps_recurrences,
            ),
            (
                "roccc_deps_min_ii_total",
                "Sum of MinII lower bounds across compiles",
                &self.deps_min_ii,
            ),
            (
                "roccc_schedule_ii_total",
                "Sum of achieved initiation intervals across scheduled compiles",
                &self.schedule_ii,
            ),
            (
                "roccc_schedule_fallback_total",
                "Modulo-schedule requests that fell back to the latch pipeline",
                &self.schedule_fallback,
            ),
            (
                "roccc_prove_proved_total",
                "Compiles whose translation-validation certificate proved equal",
                &self.prove_proved,
            ),
            (
                "roccc_prove_refuted_total",
                "Compiles whose certificate refuted equivalence",
                &self.prove_refuted,
            ),
            (
                "roccc_prove_unknown_total",
                "Compiles whose certificate left unknown obligations",
                &self.prove_unknown,
            ),
            (
                "roccc_pipeline_requests_total",
                "Streaming-pipeline compiles served",
                &self.pipeline_requests,
            ),
            (
                "roccc_pipeline_cache_hits_total",
                "Pipeline requests served from the pipeline cache",
                &self.pipeline_cache_hits,
            ),
            (
                "roccc_explore_requests_total",
                "Design-space exploration sweeps served",
                &self.explore_requests,
            ),
            (
                "roccc_explore_candidates_total",
                "Candidates visited across explore sweeps",
                &self.explore_candidates,
            ),
            (
                "roccc_explore_memo_hits_total",
                "Explore candidates served from the DSE memo",
                &self.explore_memo_hits,
            ),
            (
                "roccc_explore_pruned_total",
                "Explore candidates pruned by budget or beam",
                &self.explore_pruned,
            ),
            (
                "roccc_explore_skipped_total",
                "Explore candidates skipped on failure",
                &self.explore_skipped,
            ),
        ] {
            s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            s.push_str(&format!("{name} {}\n", c.get()));
        }

        s.push_str(
            "# HELP roccc_request_seconds End-to-end compile request latency\n\
             # TYPE roccc_request_seconds histogram\n",
        );
        self.request_latency
            .render_into(&mut s, "roccc_request_seconds", "");

        s.push_str(
            "# HELP roccc_phase_seconds Compiler phase latency\n\
             # TYPE roccc_phase_seconds histogram\n",
        );
        for (i, phase) in PhaseTimings::PHASES.iter().enumerate() {
            self.phase_latency[i].render_into(
                &mut s,
                "roccc_phase_seconds",
                &format!("phase=\"{phase}\""),
            );
        }
        s
    }
}

/// Pulls one counter value back out of rendered exposition text — the
/// client-side helper tests and `loadgen` use to read hit/miss counts.
pub fn scrape_counter(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // <= 0.0001
        h.observe(Duration::from_millis(2)); // <= 0.005
        h.observe(Duration::from_secs(100)); // +Inf
        let mut out = String::new();
        h.render_into(&mut out, "x_seconds", "");
        assert!(out.contains("x_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(out.contains("x_seconds_bucket{le=\"0.005\"} 2"));
        assert!(out.contains("x_seconds_bucket{le=\"10\"} 2"));
        assert!(out.contains("x_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("x_seconds_count 3"));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn render_and_scrape_roundtrip() {
        let m = Metrics::default();
        m.requests.inc();
        m.requests.inc();
        m.cache_hits.inc();
        m.observe_phases(&PhaseTimings {
            parse: Duration::from_millis(1),
            ..PhaseTimings::default()
        });
        let text = m.render();
        assert_eq!(scrape_counter(&text, "roccc_requests_total"), Some(2));
        assert_eq!(scrape_counter(&text, "roccc_cache_hits_total"), Some(1));
        assert_eq!(scrape_counter(&text, "roccc_cache_misses_total"), Some(0));
        assert!(text.contains("roccc_phase_seconds_bucket{phase=\"parse\",le=\"0.001\"} 1"));
        // Zero-duration phases are not recorded.
        assert!(text.contains("roccc_phase_seconds_count{phase=\"vhdl\"} 0"));
        assert!(text.contains("roccc_phase_seconds_count{phase=\"prove\"} 0"));
    }
}
