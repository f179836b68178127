//! Host-speed calibration.
//!
//! The machines this benchmark runs on are shared: the same compile can
//! take 1.5× longer for seconds or minutes at a time while other tenants
//! load the host. Timings are therefore reported in *reference-host*
//! units: next to the workload, the benchmark times a fixed calibration
//! loop of its own ([`calibrate`]: sorting, hashing, formatting, no code
//! under test), and divides each timing by the slowdown the calibration
//! loop saw at that moment — its median time over the nearest samples
//! divided by [`CALIB_REF_MS`]. A change to the program moves the
//! workload's timings but not the calibration, so it still shows in full;
//! a slow host moves both and cancels. The raw timings are printed in the
//! header beside the normalized ones.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Calibration-loop time, ms, that defines the reference host.
pub const CALIB_REF_MS: f64 = 1.0;

/// Seconds between calibration samples in [`HostSpeed::tick`].
const PERIOD_S: f64 = 0.1;

/// Calibration samples combined per slowdown estimate.
const NEAREST: usize = 8;

/// The calibration loop; returns its wall time in ms.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut v: Vec<u64> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m: HashMap<u64, u64> = HashMap::new();
    for e in &v {
        *m.entry(e % 4099).or_insert(0) += 1;
    }
    let mut s = String::new();
    for e in v.iter().step_by(16) {
        let _ = write!(s, "{e:x},");
    }
    std::hint::black_box((m.len(), s.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Calibration samples `(s since start, ms)` taken during one run.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    t0: Instant,
    next: f64,
    samples: Vec<(f64, f64)>,
    spent_ms: f64,
}

impl HostSpeed {
    /// An empty sample set whose clock starts at `t0`.
    pub fn new(t0: Instant) -> HostSpeed {
        HostSpeed {
            t0,
            next: 0.0,
            samples: Vec::new(),
            spent_ms: 0.0,
        }
    }

    /// Seconds since the start.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Seconds from the start to `t`.
    pub fn since(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Wall time spent calibrating so far, ms.
    pub fn spent_ms(&self) -> f64 {
        self.spent_ms
    }

    /// Takes a calibration sample when one is due.
    pub fn tick(&mut self) {
        let now = self.now();
        if now >= self.next {
            self.burst(1);
            self.next = now + PERIOD_S;
        }
    }

    /// Takes `n` calibration samples now.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            let ms = calibrate();
            let t = self.now();
            self.samples.push((t, ms));
            self.spent_ms += ms;
        }
    }

    /// Median calibration time over the run, ms.
    pub fn median_ms(&self) -> f64 {
        crate::common::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Slowdown over `[from, to]` s: the median of the samples taken in
    /// that interval, or [`HostSpeed::factor`] at its middle when there
    /// are fewer than [`NEAREST`].
    pub fn factor_over(&self, from: f64, to: f64) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.0 >= from && s.0 <= to)
            .map(|s| s.1)
            .collect();
        if inside.len() < NEAREST {
            return self.factor((from + to) / 2.0);
        }
        crate::common::median(&inside) / CALIB_REF_MS
    }

    /// Slowdown at `t` s: the median of the [`NEAREST`] samples closest
    /// in time, over the reference (1.0 when there are none).
    pub fn factor(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let i = self.samples.partition_point(|s| s.0 < t);
        let (mut lo, mut hi) = (i, i);
        while hi - lo < NEAREST.min(self.samples.len()) {
            let take_lo = lo > 0
                && (hi >= self.samples.len()
                    || t - self.samples[lo - 1].0 <= self.samples[hi].0 - t);
            if take_lo {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        crate::common::median(&near) / CALIB_REF_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_uses_nearest_samples() {
        let mut h = HostSpeed::new(Instant::now());
        h.samples = (0..40)
            .map(|i| (f64::from(i) * 0.1, if i < 20 { 1.0 } else { 2.0 }))
            .collect();
        assert_eq!(h.factor(0.5), 1.0);
        assert_eq!(h.factor(3.5), 2.0);
        assert_eq!(h.factor(100.0), 2.0);
        assert_eq!(HostSpeed::new(Instant::now()).factor(1.0), 1.0);
        assert_eq!(h.factor_over(0.0, 1.0), 1.0);
        assert_eq!(h.factor_over(2.5, 3.9), 2.0);
        assert_eq!(h.factor_over(2.05, 2.15), 2.0);
    }
}
