//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <certify|sweep|simulate|serve|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints a `#`-prefixed human header (host, revision, the workload's
//! metrics under their descriptive names, known defects, and in traced
//! runs the per-layer self-time table) and, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

use roccc_perfbench::report::{render, Header};
use roccc_perfbench::{run_workload, RunCfg, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--out" => cfg.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    for name in names {
        let run_cfg = RunCfg {
            out_dir: cfg.out_dir.join(name),
            ..cfg.clone()
        };
        match run_workload(name, &run_cfg) {
            Ok(report) => print!(
                "{}",
                render(
                    &Header {
                        workload: name,
                        seed: cfg.seed,
                        seconds: cfg.seconds,
                        trace: cfg.trace,
                    },
                    &report
                )
            ),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
