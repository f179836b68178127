//! Differential test of the smart buffers against a reference copy of
//! the original model: a 1-D buffer that rescans its queue for every
//! window element and a 2-D buffer keyed by `(row, col)` in a `HashMap`
//! that drops dead rows on every push. The line-buffer implementations
//! must export the same windows at the same pop attempts and report the
//! same `BufferStats`, over seeded random scans (window, stride, start,
//! row width), bus widths 1..8, and pop schedules that skip cycles the
//! way an initiation interval above one does, so words back up in the
//! buffer.

use roccc_suite::buffers::{
    AddressGen1d, AddressGen2d, BufferStats, DimScan, SmartBuffer1d, SmartBuffer2d,
};
use roccc_suite::testrand::XorShift64;
use std::collections::{HashMap, VecDeque};

/// The original buffers, kept verbatim as the oracle.
mod reference {
    use super::*;

    pub struct Buffer1d {
        window: usize,
        stride: usize,
        buf: VecDeque<(i64, i64)>,
        next_start: i64,
        pub stats: BufferStats,
    }

    impl Buffer1d {
        pub fn new(window: usize, stride: usize, start: i64) -> Self {
            Buffer1d {
                window,
                stride,
                buf: VecDeque::new(),
                next_start: start,
                stats: BufferStats::default(),
            }
        }

        pub fn push(&mut self, index: i64, value: i64) {
            self.stats.fetched += 1;
            if index >= self.next_start {
                self.buf.push_back((index, value));
            }
        }

        pub fn pop_window(&mut self) -> Option<Vec<i64>> {
            while let Some(&(i, _)) = self.buf.front() {
                if i < self.next_start {
                    self.buf.pop_front();
                } else {
                    break;
                }
            }
            let end = self.next_start + self.window as i64;
            if !self.buf.iter().any(|&(i, _)| i == end - 1) {
                return None;
            }
            let mut out = Vec::with_capacity(self.window);
            for k in 0..self.window as i64 {
                let idx = self.next_start + k;
                let v = self.buf.iter().find(|&&(i, _)| i == idx).map(|&(_, v)| v)?;
                out.push(v);
            }
            self.next_start += self.stride as i64;
            self.stats.windows += 1;
            Some(out)
        }
    }

    pub struct Buffer2d {
        win_rows: usize,
        win_cols: usize,
        stride_r: usize,
        stride_c: usize,
        col_start: i64,
        row_width: usize,
        store: HashMap<(i64, i64), i64>,
        next_r: i64,
        next_c: i64,
        row_bound: i64,
        col_bound: i64,
        pub stats: BufferStats,
    }

    impl Buffer2d {
        #[allow(clippy::too_many_arguments)]
        pub fn new(
            win_rows: usize,
            win_cols: usize,
            stride_r: usize,
            stride_c: usize,
            row_start: i64,
            row_bound: i64,
            col_start: i64,
            col_bound: i64,
            row_width: usize,
        ) -> Self {
            Buffer2d {
                win_rows,
                win_cols,
                stride_r,
                stride_c,
                col_start,
                row_width,
                store: HashMap::new(),
                next_r: row_start,
                next_c: col_start,
                row_bound,
                col_bound,
                stats: BufferStats::default(),
            }
        }

        pub fn push_flat(&mut self, flat: i64, value: i64) {
            let r = flat / self.row_width as i64;
            let c = flat % self.row_width as i64;
            self.stats.fetched += 1;
            self.store.insert((r, c), value);
            let dead_before = self.next_r;
            self.store.retain(|&(r, _), _| r >= dead_before);
        }

        pub fn pop_window(&mut self) -> Option<Vec<i64>> {
            if self.next_r >= self.row_bound {
                return None;
            }
            let mut out = Vec::with_capacity(self.win_rows * self.win_cols);
            for dr in 0..self.win_rows as i64 {
                for dc in 0..self.win_cols as i64 {
                    match self.store.get(&(self.next_r + dr, self.next_c + dc)) {
                        Some(&v) => out.push(v),
                        None => return None,
                    }
                }
            }
            self.next_c += self.stride_c as i64;
            if self.next_c >= self.col_bound {
                self.next_c = self.col_start;
                self.next_r += self.stride_r as i64;
            }
            self.stats.windows += 1;
            Some(out)
        }
    }
}

/// A buffer under test and its oracle, driven in lock-step.
trait Pair {
    fn push(&mut self, addr: i64, value: i64);
    /// One pop attempt on both sides; returns the new side's result after
    /// asserting it equals the oracle's.
    fn pop(&mut self, scratch: &mut Vec<i64>, wrapper: bool, what: &str) -> Option<Vec<i64>>;
    fn stats(&self) -> (BufferStats, BufferStats);
}

/// A pair of a buffer under test and its oracle; `$push` is the method
/// both sides accept flat addresses with.
macro_rules! pair {
    ($name:ident, $new:ty, $old:ty, $push:ident) => {
        struct $name($new, $old);

        impl Pair for $name {
            fn push(&mut self, addr: i64, value: i64) {
                self.0.$push(addr, value);
                self.1.$push(addr, value);
            }
            fn pop(
                &mut self,
                scratch: &mut Vec<i64>,
                wrapper: bool,
                what: &str,
            ) -> Option<Vec<i64>> {
                let got = if wrapper {
                    self.0.pop_window()
                } else {
                    self.0.pop_window_into(scratch).then(|| scratch.clone())
                };
                assert_eq!(got, self.1.pop_window(), "{what}");
                got
            }
            fn stats(&self) -> (BufferStats, BufferStats) {
                (self.0.stats(), self.1.stats)
            }
        }
    };
}

pair!(Pair1d, SmartBuffer1d, reference::Buffer1d, push);
pair!(Pair2d, SmartBuffer2d, reference::Buffer2d, push_flat);

fn scan(rng: &mut XorShift64, max_positions: i64) -> DimScan {
    let start = rng.gen_range(0, 3);
    let step = rng.gen_range(1, 3);
    let positions = rng.gen_range(1, max_positions);
    DimScan {
        start,
        bound: start + (positions - 1) * step + 1,
        step,
        extent: rng.gen_range(1, 5) as usize,
    }
}

/// Streams `addrs` into `pair` a bus beat per cycle (a beat lands the
/// cycle after it is issued, like the BRAM model) and attempts a pop on
/// the cycles the schedule allows; then drains. Returns the windows.
fn drive(pair: &mut dyn Pair, addrs: &[i64], rng: &mut XorShift64, what: &str) -> usize {
    let bus = rng.gen_range(1, 8) as usize;
    let ii = rng.gen_range(1, 4) as u64;
    let jitter = rng.gen_bool();
    let mut scratch = Vec::new();
    let mut windows = 0;
    let mut beat: &[i64] = &[];
    let mut rest = addrs;
    let mut cycle = 0u64;
    while !rest.is_empty() || !beat.is_empty() {
        for &a in beat {
            pair.push(a, a * 31 % 1009 - 500);
        }
        let due = cycle.is_multiple_of(ii) && !(jitter && rng.gen_ratio(1, 3));
        if due {
            let wrapper = rng.gen_ratio(1, 4);
            windows += usize::from(pair.pop(&mut scratch, wrapper, what).is_some());
        }
        let n = bus.min(rest.len());
        (beat, rest) = rest.split_at(n);
        cycle += 1;
    }
    while pair.pop(&mut scratch, false, what).is_some() {
        windows += 1;
    }
    let (got, want) = pair.stats();
    assert_eq!(got, want, "{what}: stats");
    windows
}

#[test]
fn one_d_matches_reference_model() {
    for case in 0..400u64 {
        let mut rng = XorShift64::new(0xb1d0 + case);
        let s = scan(&mut rng, 24);
        // Either the generator's stream (each touched word once, skipping
        // words no window needs) or every word of the array in order.
        let addrs: Vec<i64> = if rng.gen_bool() {
            AddressGen1d::new(s).collect()
        } else {
            (0..=s.last_touched()).collect()
        };
        let mut pair = Pair1d(
            SmartBuffer1d::new(s.extent, s.step as usize, s.start),
            reference::Buffer1d::new(s.extent, s.step as usize, s.start),
        );
        let what = format!("case {case} {s:?}");
        let windows = drive(&mut pair, &addrs, &mut rng, &what);
        assert_eq!(windows as u64, s.positions(), "{what}");
    }
}

#[test]
fn two_d_matches_reference_model() {
    for case in 0..400u64 {
        let mut rng = XorShift64::new(0xb2d0 + case);
        let rows = scan(&mut rng, 7);
        let cols = scan(&mut rng, 7);
        let row_width = (cols.last_touched() + 1 + rng.gen_range(0, 3)) as usize;
        let addrs: Vec<i64> = if rng.gen_bool() {
            AddressGen2d::new(rows, cols, row_width).collect()
        } else {
            // One row past the last touched: words no window needs.
            let len = (rows.last_touched() + 2) * row_width as i64;
            (0..len).collect()
        };
        let mut pair = Pair2d(
            SmartBuffer2d::new(
                rows.extent,
                cols.extent,
                rows.step as usize,
                cols.step as usize,
                rows.start,
                rows.bound,
                cols.start,
                cols.bound,
                row_width,
            ),
            reference::Buffer2d::new(
                rows.extent,
                cols.extent,
                rows.step as usize,
                cols.step as usize,
                rows.start,
                rows.bound,
                cols.start,
                cols.bound,
                row_width,
            ),
        );
        let what = format!("case {case} rows {rows:?} cols {cols:?} width {row_width}");
        let windows = drive(&mut pair, &addrs, &mut rng, &what);
        assert_eq!(
            windows as u64,
            rows.positions() * cols.positions(),
            "{what}"
        );
    }
}
