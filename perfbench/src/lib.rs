//! End-to-end and per-layer benchmark of the ROCCC reproduction.
//!
//! Four workloads, each stressing different layers of the compiler and
//! its runtime surfaces (see `perfbench/README.md`):
//!
//! * [`certify`] — closed-loop certifying compiles of the Table 1 kernels;
//! * [`sweep`] — full unroll × strip-mine design-space sweeps;
//! * [`simulate`] — long seeded streams through the compiled data paths;
//! * [`serve`] — an open-loop load on an in-process compile daemon.
//!
//! An untraced run reports the end-to-end metrics; a traced run replays
//! the compile pipeline stage by stage ([`replay`]) under a span recorder
//! ([`trace`]) and reports per-layer self times and counts instead.

pub mod certify;
pub mod common;
pub mod host;
pub mod replay;
pub mod report;
pub mod serve;
pub mod simulate;
pub mod sweep;
pub mod trace;

use report::Report;
use trace::{SelfTimes, Tracer};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["certify", "sweep", "simulate", "serve"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement (each workload finishes its last operation).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory the Chrome trace file goes to (traced runs only).
    pub out_dir: std::path::PathBuf,
}

/// Runs workload `name`.
///
/// # Errors
///
/// Set-up failures and unknown workload names.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Result<Report, String> {
    match name {
        "certify" => certify::run(cfg),
        "sweep" => sweep::run(cfg),
        "simulate" => simulate::run(cfg),
        "serve" => serve::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Writes the traced run's spans as Chrome trace-event JSON and adds the
/// per-layer self-time table derived from them to the report's notes.
///
/// # Errors
///
/// I/O errors writing the trace file.
pub fn finish_trace(
    cfg: &RunCfg,
    tr: &Tracer,
    st: &SelfTimes,
    r: &mut Report,
) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let path = cfg.out_dir.join("trace.json");
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    r.notes.push(format!("chrome trace: {}", path.display()));
    r.notes.push(trace::render_table(st));
    Ok(())
}
