//! Whole-kernel system simulation (the paper's Figure 2 execution model).
//!
//! Instantiates, per input array, a BRAM + address generator + smart
//! buffer; per output array, an output address generator + BRAM; plus the
//! higher-level firing logic and the pipelined data-path netlist. Each
//! simulated clock cycle: memory data lands in the smart buffers, a new
//! iteration fires when every buffer has a valid window, and valid outputs
//! retire into the output BRAMs.
//!
//! This is the cycle-accurate counterpart of running the kernel on the
//! FPGA; integration tests check it word-for-word against the golden-model
//! C interpreter, and the Table 1 harness reads its throughput numbers.

use crate::cells::Netlist;
use crate::plan::{CompiledSim, SimPlan};
use crate::sim::SimError;
use roccc_buffers::addr::OutputAddressGen;
use roccc_buffers::bram::BramModel;
use roccc_buffers::feed::{store_addrs, WindowFeed};
use roccc_hlir::kernel::Kernel;
use std::collections::HashMap;

/// Result of a full system run.
#[derive(Debug, Clone, Default)]
pub struct SystemRun {
    /// Final contents of each output array.
    pub arrays: HashMap<String, Vec<i64>>,
    /// Final values of exported feedback scalars (`<name>_final`).
    pub scalars: HashMap<String, i64>,
    /// Total clock cycles from start to done.
    pub cycles: u64,
    /// Iterations fired.
    pub fired: u64,
    /// Words read from input BRAMs.
    pub mem_reads: u64,
    /// Words written to output BRAMs.
    pub mem_writes: u64,
}

impl SystemRun {
    /// Output words produced per clock cycle, averaged over the run.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.mem_writes as f64 / self.cycles as f64
    }
}

/// System-level error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemError(pub String);

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "system simulation error: {}", self.0)
    }
}

impl std::error::Error for SystemError {}

impl From<SimError> for SystemError {
    fn from(e: SimError) -> Self {
        SystemError(e.0)
    }
}

struct InputLane {
    bram: BramModel,
    feed: WindowFeed,
}

struct OutputLane {
    name: String,
    bram: BramModel,
    addrs: OutputAddressGen,
    /// Data-path output port feeding this lane.
    port: usize,
    remaining: u64,
}

/// System-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct SystemOptions {
    /// Words delivered per memory beat ("bus size ÷ data size" in the
    /// paper's smart-buffer parameterization). 1 models a word-wide bus;
    /// the paper's FIR uses 2 (16-bit bus, 8-bit data).
    pub bus_elems: usize,
}

impl Default for SystemOptions {
    fn default() -> Self {
        SystemOptions { bus_elems: 1 }
    }
}

/// Runs a kernel's generated hardware over concrete array contents.
///
/// `arrays` supplies input arrays by parameter name; `scalars` supplies
/// scalar live-in parameters. `netlist` must come from the kernel's
/// pipelined data path.
///
/// # Errors
///
/// Returns [`SystemError`] on missing buffers, unsupported access shapes
/// or netlist simulation faults.
pub fn run_system(
    kernel: &Kernel,
    netlist: &Netlist,
    arrays: &HashMap<String, Vec<i64>>,
    scalars: &HashMap<String, i64>,
) -> Result<SystemRun, SystemError> {
    run_system_with_options(kernel, netlist, arrays, scalars, SystemOptions::default())
}

/// [`run_system`] with explicit [`SystemOptions`] (bus width etc.).
///
/// # Errors
///
/// See [`run_system`].
pub fn run_system_with_options(
    kernel: &Kernel,
    netlist: &Netlist,
    arrays: &HashMap<String, Vec<i64>>,
    scalars: &HashMap<String, i64>,
    options: SystemOptions,
) -> Result<SystemRun, SystemError> {
    if kernel.dims.is_empty() {
        return Err(SystemError(
            "straight-line kernels have no loop to stream; use NetlistSim directly".into(),
        ));
    }

    // ----- input lanes ------------------------------------------------------
    let ports = kernel.input_ports();
    let port_index: HashMap<&str, usize> = ports
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();

    let mut lanes: Vec<InputLane> = Vec::new();
    for w in &kernel.windows {
        let data = arrays
            .get(&w.array)
            .ok_or_else(|| SystemError(format!("missing input array `{}`", w.array)))?;
        lanes.push(InputLane {
            bram: BramModel::new(data.to_vec()),
            feed: WindowFeed::new(kernel, w, &port_index).map_err(SystemError)?,
        });
    }

    // ----- scalar live-ins --------------------------------------------------
    let mut const_inputs: Vec<(usize, i64)> = Vec::new();
    for (name, _) in &kernel.scalar_inputs {
        let v = *scalars
            .get(name)
            .ok_or_else(|| SystemError(format!("missing scalar input `{name}`")))?;
        const_inputs.push((port_index[name.as_str()], v));
    }

    // ----- output lanes -----------------------------------------------------
    let out_ports = kernel.output_ports();
    let mut out_lanes: Vec<OutputLane> = Vec::new();
    for o in &kernel.outputs {
        for wr in &o.writes {
            let port = out_ports
                .iter()
                .position(|(n, _)| n == &wr.scalar)
                .ok_or_else(|| SystemError(format!("no output port for `{}`", wr.scalar)))?;
            let gen = store_addrs(kernel, o, wr).map_err(SystemError)?;
            let total = gen.total();
            let size: usize = o.dims.iter().product();
            out_lanes.push(OutputLane {
                name: o.array.clone(),
                bram: BramModel::zeroed(size),
                addrs: gen,
                port,
                remaining: total,
            });
        }
    }

    // ----- main loop ----------------------------------------------------------
    // Compile the netlist once; every cycle then runs the zero-allocation
    // levelized engine instead of re-interpreting the cell graph.
    let plan = SimPlan::compile(netlist)?;
    let mut sim = CompiledSim::new(&plan);
    let total_iters = kernel.total_iterations();
    let mut fired = 0u64;
    let mut cycles = 0u64;
    // Single argument buffer reused every cycle (zeroed, then window
    // values written in for firing cycles).
    let mut args_buf = vec![0i64; netlist.inputs.len()];
    let ii = plan.ii();
    let safety = 16 * total_iters * ii + 4096;
    let mut drain = 0u32;
    let drain_needed = netlist.latency + 2;

    // Run until every output array is written, all iterations have fired,
    // and the pipeline has drained (so feedback finals are settled).
    while out_lanes.iter().any(|l| l.remaining > 0) || fired < total_iters || drain < drain_needed {
        if fired >= total_iters {
            drain += 1;
        }
        cycles += 1;
        if cycles > safety {
            return Err(SystemError(format!(
                "system did not converge after {cycles} cycles ({fired}/{total_iters} fired)"
            )));
        }

        // 1. Memory data from last cycle lands in the smart buffers (the
        //    whole bus beat arrives together).
        for lane in &mut lanes {
            for (addr, v) in lane.bram.clock_all() {
                lane.feed.push(addr as i64, v);
            }
            lane.feed.stage();
        }

        // 2. Fire when every lane has a window and the cycle lands on the
        //    schedule's initiation interval (the sim has stepped
        //    `cycles - 1` times at this point).
        let all_ready = fired < total_iters
            && !lanes.is_empty()
            && lanes.iter().all(|l| l.feed.is_staged())
            && (cycles - 1).is_multiple_of(ii);
        args_buf.fill(0);
        let valid = if all_ready {
            for lane in &mut lanes {
                lane.feed.fire(&mut args_buf);
            }
            for (port, v) in &const_inputs {
                args_buf[*port] = *v;
            }
            fired += 1;
            true
        } else {
            false
        };

        // 3. Step the data path.
        let out_valid = sim.step(&args_buf, valid)?;

        // 4. Retire valid outputs.
        if out_valid {
            for lane in &mut out_lanes {
                if lane.remaining > 0 {
                    let addr = lane
                        .addrs
                        .next()
                        .ok_or_else(|| SystemError("output address underflow".into()))?;
                    lane.bram.write(addr as usize, sim.output(lane.port));
                    lane.remaining -= 1;
                }
            }
        }

        // 5. Issue next input reads (one beat of `bus_elems` words).
        for lane in &mut lanes {
            for _ in 0..options.bus_elems.max(1) {
                match lane.feed.next_addr() {
                    Some(a) => lane.bram.issue_read(a as usize),
                    None => break,
                }
            }
        }
    }

    // Collect results.
    let mut result = SystemRun {
        cycles,
        fired,
        ..SystemRun::default()
    };
    for lane in &mut lanes {
        let (r, _) = lane.bram.traffic();
        result.mem_reads += r;
    }
    for lane in out_lanes {
        let (_, w) = lane.bram.traffic();
        result.mem_writes += w;
        // Merge multi-port writes into one array image.
        let entry = result
            .arrays
            .entry(lane.name.clone())
            .or_insert_with(|| vec![0; lane.bram.len()]);
        for (i, v) in lane.bram.data().iter().enumerate() {
            if *v != 0 || entry.get(i) == Some(&0) {
                if i >= entry.len() {
                    entry.resize(i + 1, 0);
                }
                if *v != 0 {
                    entry[i] = *v;
                }
            }
        }
    }
    for name in &kernel.live_out {
        if let Some(v) = sim.feedback_value(name) {
            result.scalars.insert(format!("{name}_final"), v);
            result.scalars.insert(name.clone(), v);
        }
    }
    Ok(result)
}
