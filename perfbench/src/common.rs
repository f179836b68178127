//! Shared pieces of the workloads: statistics, process facts, the Table 1
//! quality-of-results rules, and the interpreter cross-check.

use roccc::Compiled;
use roccc_cparse::CType;
use roccc_cparse::Interpreter;
use roccc_ipcores::{buffer_overhead, Benchmark};
use roccc_netlist::{CompiledSim, SimPlan};
use roccc_synth::{map_netlist, VirtexII};
use roccc_testutil::XorShift64;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Value at percentile `p` (0..=100) of an ascending slice (nearest rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 50.0)
}

/// A seeded stratified draw over `0..k`: every block of `k` consecutive
/// draws is a permutation, so a run's mix of choices is exact and only
/// their order depends on the seed.
pub struct Stratified {
    rng: XorShift64,
    k: usize,
    block: Vec<usize>,
}

impl Stratified {
    /// Draws over `0..k` (`k` ≥ 1) seeded by `seed`.
    pub fn new(seed: u64, k: usize) -> Stratified {
        Stratified {
            rng: XorShift64::new(seed),
            k: k.max(1),
            block: Vec::new(),
        }
    }

    /// The next draw.
    pub fn next_index(&mut self) -> usize {
        if self.block.is_empty() {
            self.block.extend(0..self.k);
            // Fisher-Yates.
            for i in (1..self.k).rev() {
                let j = self.rng.gen_index(i + 1);
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("block refilled above")
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads for the pooled workloads: at most the host's CPUs and
/// at most two, so runs on larger hosts load the system the same way.
pub fn workers() -> usize {
    host_cpus().min(2)
}

/// Revision of the checkout when it is a git work tree, else `unknown`.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

/// Set-up cost of a run: the median over several set-ups, normalized to
/// the reference host (see [`crate::host`]) and raw.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Median reference-host seconds.
    pub norm_s: f64,
    /// Median raw seconds.
    pub raw_s: f64,
}

/// Runs `setup` `reps` times and returns the last state with its median
/// time: set-up cost is reported as its own metric, and one sample of it
/// is too noisy to bound. Each set-up is preceded by three calibration
/// samples that normalize it.
pub fn timed_setup<T, E>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, SetupTime), E> {
    let (mut norm, mut raw) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps.max(1) {
        let slow = median(&[
            crate::host::calibrate(),
            crate::host::calibrate(),
            crate::host::calibrate(),
        ]) / crate::host::CALIB_REF_MS;
        let t0 = Instant::now();
        let state = setup()?;
        let t = t0.elapsed().as_secs_f64();
        raw.push(t);
        norm.push(t / slow);
        last = Some(state);
    }
    Ok((
        last.expect("at least one set-up ran"),
        SetupTime {
            norm_s: median(&norm),
            raw_s: median(&raw),
        },
    ))
}

/// The Table 1 row named `name`.
pub fn table1_row(name: &str) -> Benchmark {
    roccc_ipcores::benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a Table 1 row"))
}

/// ROCCC ÷ IP slices and fmax of one compiled row under
/// `roccc_ipcores::measure_row`'s rules: the row's multiplier style, LUT
/// rows identical to their IP core, streaming rows charged the smart
/// buffer and controller.
fn qor_ratios(b: &Benchmark, hw: &Compiled) -> (f64, f64) {
    let model = VirtexII::with_mult_style(b.mult_style);
    let ip = map_netlist(&(b.baseline)(), &model);
    let mut ours = if b.lut_row {
        ip.clone()
    } else {
        map_netlist(&hw.netlist, &model)
    };
    if b.streaming {
        ours = ours.merge(&buffer_overhead(&hw.kernel, &model));
    }
    (
        ours.slices as f64 / ip.slices.max(1) as f64,
        ours.fmax_mhz / ip.fmax_mhz,
    )
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Geomean area and clock ratios over compiled rows.
pub fn qor(rows: &[(&Benchmark, &Compiled)]) -> (f64, f64) {
    let (area, clock): (Vec<f64>, Vec<f64>) = rows.iter().map(|(b, c)| qor_ratios(b, c)).unzip();
    (geomean(&area), geomean(&clock))
}

/// Seeded input arrays for every array parameter of `func` that the
/// kernel reads through a window, zeroed arrays for the rest.
pub fn random_arrays(
    hw: &Compiled,
    program: &roccc_cparse::Program,
    func: &str,
    rng: &mut XorShift64,
) -> Result<HashMap<String, Vec<i64>>, String> {
    let f = program
        .function(func)
        .ok_or_else(|| format!("no function `{func}`"))?;
    let mut arrays = HashMap::new();
    for p in &f.params {
        if let CType::Array(t, dims) = &p.ty {
            let n: usize = dims.iter().product();
            let data = if hw.kernel.windows.iter().any(|w| w.array == p.name) {
                (0..n).map(|_| rng.sample_int(*t)).collect()
            } else {
                vec![0; n]
            };
            arrays.insert(p.name.clone(), data);
        }
    }
    Ok(arrays)
}

/// Runs the golden-model interpreter over `arrays` (output arrays are
/// written in place) and returns its scalar outputs.
pub fn interpret(
    program: &roccc_cparse::Program,
    func: &str,
    scalar_args: &[i64],
    arrays: &mut HashMap<String, Vec<i64>>,
) -> Result<HashMap<String, i64>, String> {
    Interpreter::new(program)
        .call(func, scalar_args, arrays)
        .map(|o| o.outputs)
        .map_err(|e| format!("interpreter: {e}"))
}

/// Checks one compiled kernel against the `cparse` interpreter on the
/// *original* source: straight-line kernels stream 32 seeded argument
/// vectors through `CompiledSim`; loop kernels make one whole-system run
/// (smart buffer + data path, `bus` words per beat) over seeded arrays.
pub fn check_vs_interpreter(
    hw: &Compiled,
    source: &str,
    func: &str,
    bus: usize,
    rng: &mut XorShift64,
) -> Result<(), String> {
    let program = roccc_cparse::frontend(source).map_err(|e| e.to_string())?;
    if hw.kernel.dims.is_empty() {
        let plan = SimPlan::compile(&hw.netlist).map_err(|e| e.to_string())?;
        let cases: Vec<Vec<i64>> = (0..32)
            .map(|_| {
                hw.netlist
                    .inputs
                    .iter()
                    .map(|(_, t)| rng.sample_int(*t))
                    .collect()
            })
            .collect();
        let outs = CompiledSim::new(&plan)
            .run_stream(&cases)
            .map_err(|e| e.to_string())?;
        for (args, row) in cases.iter().zip(&outs) {
            let golden = interpret(&program, func, args, &mut HashMap::new())?;
            for ((name, _, _), v) in hw.netlist.outputs.iter().zip(row) {
                if golden.get(name.as_str()) != Some(v) {
                    return Err(format!("{func}: output {name} differs for {args:?}"));
                }
            }
        }
        return Ok(());
    }
    let mut golden = random_arrays(hw, &program, func, rng)?;
    let inputs: HashMap<String, Vec<i64>> = hw
        .kernel
        .windows
        .iter()
        .map(|w| (w.array.clone(), golden[&w.array].clone()))
        .collect();
    let run = hw
        .run_with_bus(&inputs, &HashMap::new(), bus)
        .map_err(|e| e.to_string())?;
    let scalars = interpret(&program, func, &[], &mut golden)?;
    for o in &hw.kernel.outputs {
        if run.arrays.get(&o.array) != golden.get(&o.array) {
            return Err(format!("{func}: output array {} differs", o.array));
        }
    }
    for name in &hw.kernel.live_out {
        let want = scalars.values().next().copied();
        if run.scalars.get(name).copied() != want {
            return Err(format!("{func}: live-out {name} differs"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
