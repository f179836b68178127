//! The smart buffer (§4.1, and reference \[18\] of the paper).
//!
//! "ROCCC … automatically generates an intelligent buffer, called smart
//! buffer, based on the bus size, window size, data size and sliding-window
//! stride. This buffer unit is able to reuse live input data, clean unused
//! data and export the present valid input data set to the data path."
//!
//! Two variants are modeled: [`SmartBuffer1d`] for vector scans (FIR,
//! accumulator) and [`SmartBuffer2d`] for image scans (wavelet): the 2-D
//! buffer keeps `window_rows − 1` full row lines plus a register window,
//! the standard line-buffer structure.

use std::collections::VecDeque;

/// Reuse statistics common to both buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Words accepted from memory.
    pub fetched: u64,
    /// Windows exported to the data path.
    pub windows: u64,
}

impl BufferStats {
    /// Words a naive (no-reuse) implementation would have fetched.
    pub fn naive_fetches(&self, window_elems: u64) -> u64 {
        self.windows * window_elems
    }

    /// Reuse factor: naive fetches ÷ actual fetches.
    pub fn reuse_factor(&self, window_elems: u64) -> f64 {
        if self.fetched == 0 {
            return 1.0;
        }
        self.naive_fetches(window_elems) as f64 / self.fetched as f64
    }
}

/// 1-D sliding-window smart buffer.
#[derive(Debug, Clone)]
pub struct SmartBuffer1d {
    window: usize,
    stride: usize,
    /// Live elements in increasing index order: front is the lowest
    /// retained index.
    buf: VecDeque<(i64, i64)>,
    /// Index of the next window's first element.
    next_start: i64,
    stats: BufferStats,
}

impl SmartBuffer1d {
    /// Creates a buffer for `window` elements sliding by `stride`,
    /// starting at element index `start`.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize, start: i64) -> Self {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        SmartBuffer1d {
            window,
            stride,
            buf: VecDeque::new(),
            next_start: start,
            stats: BufferStats::default(),
        }
    }

    /// Register capacity of the hardware buffer (elements).
    pub fn capacity_elems(&self) -> usize {
        // Window registers plus up to stride−1 staging slots.
        self.window + self.stride.saturating_sub(1)
    }

    /// Accepts one word from memory (indices must arrive in increasing
    /// order; out-of-window-range indices are discarded — "clean unused
    /// data").
    pub fn push(&mut self, index: i64, value: i64) {
        self.stats.fetched += 1;
        if index >= self.next_start {
            self.buf.push_back((index, value));
        }
    }

    /// Exports the next window if all of its elements are present, sliding
    /// forward by the stride and retiring dead elements.
    pub fn pop_window(&mut self) -> Option<Vec<i64>> {
        let mut out = Vec::with_capacity(self.window);
        self.pop_window_into(&mut out).then_some(out)
    }

    /// [`SmartBuffer1d::pop_window`] into a caller-owned buffer: on success
    /// `out` holds exactly the window and `true` is returned; otherwise
    /// `out` is untouched and nothing advances.
    pub fn pop_window_into(&mut self, out: &mut Vec<i64>) -> bool {
        while self.buf.front().is_some_and(|&(i, _)| i < self.next_start) {
            self.buf.pop_front();
        }
        // Indices arrive in increasing order, so the window is complete
        // exactly when the back has reached its last element and the
        // first `window` live elements are consecutive from the start.
        let last = self.next_start + self.window as i64 - 1;
        if self.buf.len() < self.window || self.buf.back().is_none_or(|&(i, _)| i < last) {
            return false;
        }
        let live = self.buf.iter().take(self.window);
        if live
            .clone()
            .zip(self.next_start..)
            .any(|(&(i, _), want)| i != want)
        {
            return false;
        }
        out.clear();
        out.extend(live.map(|&(_, v)| v));
        self.next_start += self.stride as i64;
        self.stats.windows += 1;
        true
    }

    /// Reuse statistics so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

/// 2-D sliding-window smart buffer (line buffer).
///
/// Words live in a ring of row lines, each covering the scanned column
/// range `[col_start, col_last]`; row `r` occupies line `r mod lines`.
/// Every word carries the row it was written for as its presence tag, so
/// a line never needs clearing: a lookup of `(r, c)` hits exactly when the
/// word's tag is `r`. Rows below the next window position are dead and
/// their lines are reused as the scan moves down; the ring only grows when
/// the stream runs more rows ahead of the window than it has lines (an
/// initiation interval above one lets memory outpace firing).
#[derive(Debug, Clone)]
pub struct SmartBuffer2d {
    win_rows: usize,
    win_cols: usize,
    stride_r: usize,
    stride_c: usize,
    /// Column range any window touches: [col_start, col_last] inclusive.
    col_start: i64,
    col_last: i64,
    /// Last row any window touches.
    row_last: i64,
    row_width: usize,
    /// Words per line (`col_last − col_start + 1`) and lines in the ring.
    line_len: usize,
    lines: usize,
    /// The ring, row-major: presence tags and values.
    tags: Vec<i64>,
    vals: Vec<i64>,
    /// Next window position (top-left corner).
    next_r: i64,
    next_c: i64,
    /// Window-position bounds.
    row_bound: i64,
    col_bound: i64,
    stats: BufferStats,
}

/// Presence tag of a word that was never written.
const ABSENT: i64 = i64::MIN;

impl SmartBuffer2d {
    /// Creates a line buffer for `win_rows × win_cols` windows sliding by
    /// `(stride_r, stride_c)` over window positions
    /// `rows ∈ [row_start, row_bound)`, `cols ∈ [col_start, col_bound)` of
    /// an array with `row_width` columns.
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
        assert!(win_rows > 0 && win_cols > 0 && stride_r > 0 && stride_c > 0);
        let col_last = (col_bound - 1 + win_cols as i64 - 1).max(col_start);
        let line_len = (col_last - col_start + 1) as usize;
        // Enough lines for the window plus the rows streaming in behind it
        // while the window slides across one band.
        let lines = win_rows + stride_r;
        SmartBuffer2d {
            win_rows,
            win_cols,
            stride_r,
            stride_c,
            col_start,
            col_last,
            row_last: row_bound - 1 + win_rows as i64 - 1,
            row_width,
            line_len,
            lines,
            tags: vec![ABSENT; lines * line_len],
            vals: vec![0; lines * line_len],
            next_r: row_start,
            next_c: col_start,
            row_bound,
            col_bound,
            stats: BufferStats::default(),
        }
    }

    /// Hardware storage: `win_rows − 1` full line buffers (BRAM or SRL)
    /// plus a `win_rows × win_cols` register window.
    pub fn line_buffer_words(&self) -> usize {
        (self.win_rows - 1) * self.row_width + self.win_rows * self.win_cols
    }

    /// Offset of word `(row, col)`'s slot in the ring.
    fn slot(&self, row: i64, col: i64) -> usize {
        row.rem_euclid(self.lines as i64) as usize * self.line_len + (col - self.col_start) as usize
    }

    /// Accepts one word (flat row-major address).
    pub fn push_flat(&mut self, flat: i64, value: i64) {
        let r = flat / self.row_width as i64;
        let c = flat % self.row_width as i64;
        self.push(r, c, value);
    }

    /// Accepts one word by coordinates. Data must stream row-major; words
    /// no future window touches are counted and dropped ("clean unused
    /// data").
    pub fn push(&mut self, row: i64, col: i64, value: i64) {
        self.stats.fetched += 1;
        if row < self.next_r || row > self.row_last || col < self.col_start || col > self.col_last {
            return;
        }
        let ahead = (row - self.next_r) as usize;
        if ahead >= self.lines {
            self.grow(ahead + 1);
        }
        let k = self.slot(row, col);
        self.tags[k] = row;
        self.vals[k] = value;
    }

    /// Re-lays the live rows into a ring of at least `min_lines` lines.
    fn grow(&mut self, min_lines: usize) {
        let line_len = self.line_len;
        self.lines = (2 * self.lines).max(min_lines);
        let tags = std::mem::replace(&mut self.tags, vec![ABSENT; self.lines * line_len]);
        let vals = std::mem::replace(&mut self.vals, vec![0; self.lines * line_len]);
        for (k, (&row, &v)) in tags.iter().zip(&vals).enumerate() {
            if row >= self.next_r {
                let n = self.slot(row, self.col_start + (k % line_len) as i64);
                self.tags[n] = row;
                self.vals[n] = v;
            }
        }
    }

    /// Exports the next window (row-major within the window) if complete.
    pub fn pop_window(&mut self) -> Option<Vec<i64>> {
        let mut out = Vec::with_capacity(self.win_rows * self.win_cols);
        self.pop_window_into(&mut out).then_some(out)
    }

    /// [`SmartBuffer2d::pop_window`] into a caller-owned buffer: on success
    /// `out` holds exactly the window and `true` is returned; otherwise
    /// nothing advances.
    pub fn pop_window_into(&mut self, out: &mut Vec<i64>) -> bool {
        if self.next_r >= self.row_bound || self.next_c >= self.col_bound {
            return false;
        }
        // Data streams row-major, so the window is complete exactly when
        // its bottom-right word has arrived.
        let bottom = self.next_r + self.win_rows as i64 - 1;
        if self.tags[self.slot(bottom, self.next_c + self.win_cols as i64 - 1)] != bottom {
            return false;
        }
        out.clear();
        for row in self.next_r..=bottom {
            let k = self.slot(row, self.next_c);
            debug_assert!(self.tags[k..k + self.win_cols].iter().all(|&t| t == row));
            out.extend_from_slice(&self.vals[k..k + self.win_cols]);
        }
        // Advance column-major-within-row scan of window positions.
        self.next_c += self.stride_c as i64;
        if self.next_c >= self.col_bound {
            self.next_c = self.col_start;
            self.next_r += self.stride_r as i64;
        }
        self.stats.windows += 1;
        true
    }

    /// Reuse statistics so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddressGen1d, AddressGen2d, DimScan};

    #[test]
    fn fir_windows_stream_with_full_reuse() {
        // The paper's FIR: 5-wide window, stride 1, 17 positions.
        let scan = DimScan {
            start: 0,
            bound: 17,
            step: 1,
            extent: 5,
        };
        let data: Vec<i64> = (0..21).map(|x| x * x).collect();
        let mut sb = SmartBuffer1d::new(5, 1, 0);
        let mut windows = Vec::new();
        for addr in AddressGen1d::new(scan) {
            sb.push(addr, data[addr as usize]);
            while let Some(w) = sb.pop_window() {
                windows.push(w);
            }
        }
        assert_eq!(windows.len(), 17);
        for (i, w) in windows.iter().enumerate() {
            let expect: Vec<i64> = (i..i + 5).map(|k| data[k]).collect();
            assert_eq!(*w, expect, "window {i}");
        }
        let stats = sb.stats();
        assert_eq!(stats.fetched, 21);
        assert_eq!(stats.naive_fetches(5), 85);
        assert!((stats.reuse_factor(5) - 85.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn stride_two_cleans_dead_data() {
        let scan = DimScan {
            start: 0,
            bound: 8,
            step: 2,
            extent: 3,
        };
        let data: Vec<i64> = (0..10).collect();
        let mut sb = SmartBuffer1d::new(3, 2, 0);
        let mut windows = Vec::new();
        for addr in AddressGen1d::new(scan) {
            sb.push(addr, data[addr as usize]);
            while let Some(w) = sb.pop_window() {
                windows.push(w);
            }
        }
        assert_eq!(
            windows,
            vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6], vec![6, 7, 8]]
        );
    }

    #[test]
    fn window_of_one_is_plain_streaming() {
        let scan = DimScan {
            start: 0,
            bound: 4,
            step: 1,
            extent: 1,
        };
        let mut sb = SmartBuffer1d::new(1, 1, 0);
        let mut out = Vec::new();
        for addr in AddressGen1d::new(scan) {
            sb.push(addr, addr * 10);
            while let Some(w) = sb.pop_window() {
                out.push(w[0]);
            }
        }
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(sb.stats().reuse_factor(1), 1.0);
    }

    #[test]
    fn capacity_matches_window_plus_staging() {
        assert_eq!(SmartBuffer1d::new(5, 1, 0).capacity_elems(), 5);
        assert_eq!(SmartBuffer1d::new(3, 2, 0).capacity_elems(), 4);
    }

    #[test]
    fn two_d_wavelet_style_windows() {
        // 2×2 window, stride 2 in both dims (the (5,3) wavelet's decimating
        // scan shape), over an 8×8 image.
        let rows = DimScan {
            start: 0,
            bound: 8,
            step: 2,
            extent: 2,
        };
        let cols = rows;
        let img: Vec<i64> = (0..64).collect();
        let mut sb = SmartBuffer2d::new(2, 2, 2, 2, 0, 8, 0, 8, 8);
        let mut windows = Vec::new();
        for flat in AddressGen2d::new(rows, cols, 8) {
            sb.push_flat(flat, img[flat as usize]);
            while let Some(w) = sb.pop_window() {
                windows.push(w);
            }
        }
        assert_eq!(windows.len(), 16);
        // First window: elements (0,0),(0,1),(1,0),(1,1) = 0,1,8,9.
        assert_eq!(windows[0], vec![0, 1, 8, 9]);
        // Next in the same row band: 2,3,10,11.
        assert_eq!(windows[1], vec![2, 3, 10, 11]);
        // First of the second band: 16,17,24,25.
        assert_eq!(windows[4], vec![16, 17, 24, 25]);
        // Full reuse: every element fetched exactly once.
        assert_eq!(sb.stats().fetched, 64);
        assert_eq!(sb.stats().naive_fetches(4), 64);
    }

    #[test]
    fn two_d_overlapping_windows_reuse() {
        // 3×3 window, stride 1 over a 6×6 image: classic image filter.
        let rows = DimScan {
            start: 0,
            bound: 4,
            step: 1,
            extent: 3,
        };
        let cols = rows;
        let img: Vec<i64> = (0..36).map(|x| x * 7 % 23).collect();
        let mut sb = SmartBuffer2d::new(3, 3, 1, 1, 0, 4, 0, 4, 6);
        let mut count = 0u64;
        for flat in AddressGen2d::new(rows, cols, 6) {
            sb.push_flat(flat, img[flat as usize]);
            while let Some(w) = sb.pop_window() {
                // Spot-check center element of the window.
                assert_eq!(w.len(), 9);
                count += 1;
            }
        }
        assert_eq!(count, 16);
        let stats = sb.stats();
        assert_eq!(stats.fetched, 36);
        // Naive would fetch 16 × 9 = 144 words: 4× reuse.
        assert_eq!(stats.naive_fetches(9), 144);
        assert!(stats.reuse_factor(9) > 3.9);
    }

    #[test]
    fn line_buffer_capacity() {
        let sb = SmartBuffer2d::new(3, 3, 1, 1, 0, 4, 0, 4, 64);
        // Two full lines of 64 plus the 3×3 window registers.
        assert_eq!(sb.line_buffer_words(), 2 * 64 + 9);
    }
}
