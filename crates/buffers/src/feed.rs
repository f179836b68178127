//! Kernel-level plumbing: one input window's feed and one store's output
//! addresses, derived from the kernel description.
//!
//! A [`WindowFeed`] bundles what the execution model (Figure 2) puts
//! between an input BRAM and the data path for one window: the address
//! generator that streams the array out of memory, the smart buffer that
//! assembles windows from it, and the map from window slots to data-path
//! input ports. The single-kernel system simulation and the pipeline
//! co-simulation both build their input lanes from it, so windows stage
//! identically in both.

use crate::addr::{AddressGen1d, AddressGen2d, DimScan, OutputAddressGen};
use crate::smart::{SmartBuffer1d, SmartBuffer2d};
use roccc_hlir::kernel::{Kernel, LoopDim, OutputSpec, OutputWrite, WindowSpec};
use std::collections::HashMap;

/// Address generator and smart buffer of one window, by dimensionality.
#[derive(Debug, Clone)]
enum Scan {
    One(AddressGen1d, SmartBuffer1d),
    Two(AddressGen2d, SmartBuffer2d),
}

/// One input window's address generator, smart buffer and slot → port
/// map, plus the window staged for the next firing.
#[derive(Debug, Clone)]
pub struct WindowFeed {
    scan: Scan,
    /// `(window slot, data-path input port)`; slots are row-major in the
    /// window's extent box, which sparse windows do not fill.
    port_map: Vec<(usize, usize)>,
    /// The staged window (valid while `staged`).
    window: Vec<i64>,
    staged: bool,
}

/// The loop dimension named `var`; `what` names the access for the error.
fn loop_dim<'k>(kernel: &'k Kernel, var: &str, what: &str) -> Result<&'k LoopDim, String> {
    kernel
        .dims
        .iter()
        .find(|l| l.var == var)
        .ok_or_else(|| format!("{what} index var `{var}` is not a loop variable"))
}

impl WindowFeed {
    /// Builds the feed for window `w` of `kernel`; `port_index` maps each
    /// data-path input port name to its index.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the window has no reads, a constant
    /// or unknown index dimension, more than two dimensions, or a read
    /// with no input port.
    pub fn new(
        kernel: &Kernel,
        w: &WindowSpec,
        port_index: &HashMap<&str, usize>,
    ) -> Result<Self, String> {
        let first = w
            .reads
            .first()
            .ok_or_else(|| format!("window `{}` has no reads", w.array))?;
        let ndim = first.index.len();
        if ndim > 2 {
            return Err(format!("{ndim}-dimensional windows unsupported"));
        }
        let extent = w.extent();
        let min_off: Vec<i64> = (0..ndim)
            .map(|d| w.reads.iter().map(|r| r.index[d].offset).min().unwrap_or(0))
            .collect();
        let mut scans = Vec::with_capacity(ndim);
        for d in 0..ndim {
            let var = first.index[d]
                .var
                .as_ref()
                .ok_or("constant window dimensions unsupported")?;
            let ld = loop_dim(kernel, var, "window")?;
            scans.push(DimScan {
                start: ld.start + min_off[d],
                bound: ld.bound + min_off[d],
                step: ld.step,
                extent: extent[d],
            });
        }
        let mut port_map = Vec::with_capacity(w.reads.len());
        for r in &w.reads {
            let slot = (0..ndim).fold(0, |acc, d| {
                acc * extent[d] + (r.index[d].offset - min_off[d]) as usize
            });
            let port = *port_index
                .get(r.scalar.as_str())
                .ok_or_else(|| format!("no input port for `{}`", r.scalar))?;
            port_map.push((slot, port));
        }
        let scan = match scans[..] {
            [s] => Scan::One(
                AddressGen1d::new(s),
                SmartBuffer1d::new(s.extent, s.step as usize, s.start),
            ),
            [rows, cols] => {
                let row_width = if w.dims.len() == 2 { w.dims[1] } else { 1 };
                Scan::Two(
                    AddressGen2d::new(rows, cols, row_width),
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
                )
            }
            _ => return Err("0-dimensional windows unsupported".into()),
        };
        Ok(WindowFeed {
            scan,
            port_map,
            window: Vec::with_capacity(extent.iter().product()),
            staged: false,
        })
    }

    /// The next flat address the window's scan reads, in streaming order.
    pub fn next_addr(&mut self) -> Option<i64> {
        match &mut self.scan {
            Scan::One(addrs, _) => addrs.next(),
            Scan::Two(addrs, _) => addrs.next(),
        }
    }

    /// Delivers one word (flat address) to the smart buffer.
    pub fn push(&mut self, addr: i64, value: i64) {
        match &mut self.scan {
            Scan::One(_, sb) => sb.push(addr, value),
            Scan::Two(_, sb) => sb.push_flat(addr, value),
        }
    }

    /// Stages the next window if none is staged and the smart buffer has
    /// a complete one; returns whether a window is staged.
    pub fn stage(&mut self) -> bool {
        if !self.staged {
            self.staged = match &mut self.scan {
                Scan::One(_, sb) => sb.pop_window_into(&mut self.window),
                Scan::Two(_, sb) => sb.pop_window_into(&mut self.window),
            };
        }
        self.staged
    }

    /// Whether a window is staged for the next firing.
    pub fn is_staged(&self) -> bool {
        self.staged
    }

    /// Fires the staged window: writes each read's element into its port
    /// of the argument row `args` and un-stages the window.
    ///
    /// # Panics
    ///
    /// Panics if no window is staged.
    pub fn fire(&mut self, args: &mut [i64]) {
        assert!(self.staged, "fired a window feed with no staged window");
        for &(slot, port) in &self.port_map {
            args[port] = self.window[slot];
        }
        self.staged = false;
    }
}

/// The store-address generator of write `wr` into output array `out`:
/// one flat address per iteration that performs the store, in iteration
/// order.
///
/// # Errors
///
/// A human-readable reason when an index is constant or does not move
/// with a loop variable.
pub fn store_addrs(
    kernel: &Kernel,
    out: &OutputSpec,
    wr: &OutputWrite,
) -> Result<OutputAddressGen, String> {
    let mut dims = Vec::with_capacity(wr.index.len());
    for ai in &wr.index {
        let var = ai
            .var
            .as_ref()
            .ok_or_else(|| format!("store into `{}` uses a constant index", out.array))?;
        let ld = loop_dim(kernel, var, "store")?;
        dims.push(DimScan {
            start: ld.start + ai.offset,
            bound: ld.bound + ai.offset,
            step: ld.step,
            extent: 1,
        });
    }
    let row_width = if out.dims.len() == 2 { out.dims[1] } else { 1 };
    Ok(OutputAddressGen::new(dims, 0, row_width))
}
