//! Command-line driver for the ROCCC reproduction: compiles one kernel,
//! explores a design space, builds a streaming pipeline, or talks to a
//! `roccc-serve` daemon. `roccc --help` lists every flag; the compile
//! options among them come from `roccc::options::OPTIONS`.
//!
//! On `--emit vhdl`, structural lint findings from `roccc-vhdl` are
//! reported as warnings on stderr; the exit code stays 0 unless
//! `--deny-warnings` is in effect. Verifier findings print with source
//! spans where available and make the exit code nonzero on error.

use roccc::options::{self, OPTIONS};
use roccc::proto::{self, Request, Response};
use roccc::{compile, CompileOptions, Compiled, VerifyLevel};
use roccc_synth::{fast_estimate, map_netlist, VirtexII};
use std::process::ExitCode;
use std::time::Duration;

const USAGE_HEAD: &str = "usage: roccc <input.c> --function <name> [options]

options:
  --function, -f <name>  kernel function to compile (required)
";

const USAGE_TAIL: &str =
    "  --emit <what>          vhdl | dot | stats | ir | c | ranges | deps | deps-json |
                         schedule | schedule-json | prove | prove-json |
                         timings
                         (default stats; `timings` prints the per-phase
                         compile wall-clock breakdown; `schedule*`
                         implies --pipeline-ii auto, `prove*` --prove)
  -o <file>              write output to a file instead of stdout
  --verify               run the phase-indexed static verifier: errors
                         fail the compile, warnings print to stderr
  --deny-warnings        like --verify, but any finding (verifier or
                         VHDL lint) fails the compile
  --help, -h             print this help

design-space exploration (--emit becomes table (default) | json):
  --explore              sweep unroll x strip-mine x scalar-opt and
                         report the (slices, cycles, clock) Pareto
                         frontier; infeasible configs are skip-reported
  --unroll-factors <csv> unroll factors to sweep (default 1,2,4)
  --strip-widths <csv>   strip-mine widths to sweep, 0 = none
                         (default 0,2,4)
  --scalar-both          sweep scalar optimization both on and off
  --budget-slices <n>    prune candidates whose fast area estimate
                         exceeds n slices before mapping/simulation
  --beam <n>             fully score at most the n most promising
                         estimates (omit for exhaustive search)

streaming pipelines (--emit becomes stats (default) | vhdl | cosim):
  --pipeline <file>      compile the multi-kernel pipeline described in
                         <file> (stages are C functions in <input.c>);
                         `cosim` co-simulates the process network on
                         synthesized inputs and checks it bit-exact
                         against chained single-kernel runs (local only)

client mode (requires a running roccc-serve daemon; adds `table-row`
to the accepted --emit values; --explore and --pipeline work over
--connect too):
  --connect <host:port>  send the compile to the server
  --metrics              (with --connect) print the server metrics
  --shutdown             (with --connect) stop the server
";

/// The `--help` text: one entry per compile option row, between the
/// hand-written flags. The `verify` row is left out because the command
/// line spells it with the `--verify` and `--deny-warnings` switches.
fn usage() -> String {
    let mut s = USAGE_HEAD.to_string();
    for row in OPTIONS.iter().filter(|r| r.key != "verify") {
        let flag = format!("--{} {}", row.key, row.hint.unwrap_or(""));
        let help = row.help.replace('\n', &format!("\n{:25}", ""));
        s.push_str(&format!("  {:<22} {help}\n", flag.trim_end()));
    }
    s + USAGE_TAIL
}

struct Args {
    input: Option<String>,
    function: Option<String>,
    pipeline: Option<String>,
    opts: CompileOptions,
    emit: Option<String>,
    output: Option<String>,
    connect: Option<String>,
    metrics: bool,
    shutdown: bool,
    explore: bool,
    unroll_factors: Vec<u64>,
    strip_widths: Vec<u64>,
    scalar_both: bool,
    budget_slices: Option<u64>,
    beam: Option<usize>,
    help: bool,
}

/// Parses a flag's comma-separated list of unsigned integers.
fn parse_csv_u64(flag: &str, v: Option<String>) -> Result<Vec<u64>, String> {
    v.ok_or_else(|| format!("{flag} needs a CSV list"))?
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("{flag} expects comma-separated numbers, got `{p}`"))
        })
        .collect()
}

/// Parses a flag's number.
fn parse_number<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    v.ok_or_else(|| format!("{flag} needs a number"))?
        .parse()
        .map_err(|_| format!("{flag} expects a number"))
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut a = Args {
        input: None,
        function: None,
        pipeline: None,
        opts: CompileOptions::default(),
        emit: None,
        output: None,
        connect: None,
        metrics: false,
        shutdown: false,
        explore: false,
        unroll_factors: vec![1, 2, 4],
        strip_widths: vec![0, 2, 4],
        scalar_both: false,
        budget_slices: None,
        beam: None,
        help: false,
    };

    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--function" | "-f" => a.function = Some(argv.next().ok_or("--function needs a name")?),
            "--pipeline" => a.pipeline = Some(argv.next().ok_or("--pipeline needs a file")?),
            "--emit" => {
                a.emit = Some(argv.next().ok_or(
                    "--emit needs vhdl|dot|stats|ir|c|ranges|deps|deps-json|\
                     schedule|schedule-json|prove|prove-json|timings",
                )?)
            }
            "-o" => a.output = Some(argv.next().ok_or("-o needs a path")?),
            "--explore" => a.explore = true,
            "--unroll-factors" => a.unroll_factors = parse_csv_u64(&arg, argv.next())?,
            "--strip-widths" => a.strip_widths = parse_csv_u64(&arg, argv.next())?,
            "--scalar-both" => a.scalar_both = true,
            "--budget-slices" => a.budget_slices = Some(parse_number(&arg, argv.next())?),
            "--beam" => a.beam = Some(parse_number(&arg, argv.next())?),
            "--connect" => a.connect = Some(argv.next().ok_or("--connect needs host:port")?),
            "--metrics" => a.metrics = true,
            "--shutdown" => a.shutdown = true,
            "--verify" => {
                // --deny-warnings is the stricter request; don't relax it.
                if a.opts.verify != VerifyLevel::Deny {
                    a.opts.verify = VerifyLevel::Warn;
                }
            }
            "--deny-warnings" => a.opts.verify = VerifyLevel::Deny,
            "--help" | "-h" => a.help = true,
            other => match other.strip_prefix("--").and_then(options::find) {
                Some(row) => {
                    let value = match row.hint {
                        Some(hint) => argv
                            .next()
                            .ok_or_else(|| format!("--{} needs {hint}", row.key))?,
                        None => String::new(),
                    };
                    row.apply(&mut a.opts, &value)
                        .map_err(|e| format!("--{} {e}", row.key))?;
                }
                None if a.input.is_none() && !other.starts_with('-') => {
                    a.input = Some(other.to_string())
                }
                None => return Err(format!("unknown argument `{other}` (try --help)")),
            },
        }
    }
    // Asking for the schedule artifact without an explicit target means
    // "schedule at auto/MinII": the artifact only exists when a modulo
    // schedule was actually requested.
    if matches!(a.emit.as_deref(), Some("schedule" | "schedule-json"))
        && a.opts.pipeline_ii.is_none()
    {
        a.opts.pipeline_ii = Some(0);
    }
    // Asking for the proof artifact means "run the prover".
    if matches!(a.emit.as_deref(), Some("prove" | "prove-json")) {
        a.opts.prove = true;
    }
    // `roccc --help` alone is valid: skip the required-argument checks.
    if a.help {
        return Ok(a);
    }
    if (a.metrics || a.shutdown) && a.connect.is_none() {
        return Err("--metrics/--shutdown require --connect (try --help)".to_string());
    }
    if a.pipeline.is_some() && a.explore {
        return Err("--pipeline does not combine with --explore".to_string());
    }
    let control = a.metrics || a.shutdown;
    if !control && a.input.is_none() {
        return Err("missing input file (try --help)".to_string());
    }
    if !control && a.function.is_none() && a.pipeline.is_none() {
        return Err("missing --function (try --help)".to_string());
    }
    Ok(a)
}

/// The effective `--emit` value: defaults depend on the mode.
fn effective_emit(args: &Args) -> String {
    match &args.emit {
        Some(e) => e.clone(),
        None if args.explore => "table".to_string(),
        None => "stats".to_string(),
    }
}

fn render(hw: &Compiled, emit: &str) -> Result<String, String> {
    match emit {
        "vhdl" => Ok(hw.to_vhdl()),
        "dot" => Ok(hw.to_dot()),
        "ir" => Ok(hw.ir.dump()),
        "c" => Ok(format!(
            "// Figure 3(b)-style rewritten kernel:\n{}\n// Exported data-path function:\n{}",
            hw.kernel.rewritten.to_c(),
            hw.kernel.dp_func.to_c()
        )),
        "ranges" => Ok(hw.range_report()),
        "deps" => Ok(hw.deps_report()),
        "deps-json" => Ok(hw.deps_json()),
        "schedule" => Ok(hw.schedule_report()),
        "schedule-json" => hw
            .schedule_json()
            .ok_or_else(|| "no schedule artifact (compile with --pipeline-ii)".to_string()),
        "prove" => Ok(hw.prove_report()),
        "prove-json" => hw
            .prove_json()
            .ok_or_else(|| "no proof certificate (compile with --prove)".to_string()),
        "stats" => {
            let model = VirtexII::default();
            let full = map_netlist(&hw.netlist, &model);
            let fast = fast_estimate(&hw.datapath, &model);
            let (soft, hard) = hw.datapath.node_census();
            let mut s = String::new();
            s.push_str(&format!("kernel           : {}\n", hw.kernel.name));
            s.push_str(&format!(
                "loop nest        : {:?} ({} iterations)\n",
                hw.kernel
                    .dims
                    .iter()
                    .map(|d| format!("{}: {}..{} step {}", d.var, d.start, d.bound, d.step))
                    .collect::<Vec<_>>(),
                hw.kernel.total_iterations()
            ));
            s.push_str(&format!(
                "windows          : {:?}\n",
                hw.kernel
                    .windows
                    .iter()
                    .map(|w| format!("{}{:?}", w.array, w.extent()))
                    .collect::<Vec<_>>()
            ));
            s.push_str(&format!(
                "feedback         : {:?}\n",
                hw.kernel
                    .feedback
                    .iter()
                    .map(|f| &f.name)
                    .collect::<Vec<_>>()
            ));
            s.push_str(&format!(
                "data path        : {} ops, {soft} soft + {hard} hard nodes, {} stages\n",
                hw.datapath.ops.len(),
                hw.datapath.num_stages
            ));
            s.push_str(&format!(
                "outputs per cycle: {}\n",
                hw.datapath.throughput_per_cycle()
            ));
            if let Some(sched) = &hw.schedule {
                s.push_str(&format!(
                    "initiation intvl : achieved {} (MinII {}, body latency {})\n",
                    sched.ii, sched.min_ii, sched.body_latency
                ));
            }
            s.push_str(&format!(
                "estimate (fast)  : {} LUT, {} FF, {} slices\n",
                fast.luts, fast.ffs, fast.slices
            ));
            s.push_str(&format!(
                "mapped (full)    : {} LUT, {} FF, {} slices, Fmax {:.0} MHz\n",
                full.luts, full.ffs, full.slices, full.fmax_mhz
            ));
            Ok(s)
        }
        other => Err(format!(
            "unknown --emit `{other}` (vhdl|dot|stats|ir|c|ranges|deps|deps-json|\
             schedule|schedule-json|prove|prove-json|timings)"
        )),
    }
}

/// The `timings` artifact: one instrumented compile (VHDL rendering
/// charged too) and the per-phase wall-clock breakdown, formatted like
/// the serve daemon's stats line but one row per phase.
fn render_timings(source: &str, function: &str, args: &Args) -> Result<String, String> {
    let (hw, mut timings) =
        roccc::compile_timed(source, function, &args.opts).map_err(|e| render_error(&e, source))?;
    for d in &hw.diagnostics {
        eprintln!("{}", d.render(Some(source)));
    }
    let v0 = std::time::Instant::now();
    let vhdl = hw.to_vhdl();
    timings.vhdl = v0.elapsed();

    let total = timings.total().as_secs_f64().max(1e-12);
    let mut s = format!(
        "kernel           : {}\nvhdl artifact    : {} bytes\n",
        hw.kernel.name,
        vhdl.len()
    );
    for (i, phase) in roccc::PhaseTimings::PHASES.iter().enumerate() {
        let d = timings.get(i).as_secs_f64();
        s.push_str(&format!(
            "{phase:<17}: {:>9.3} ms  ({:>5.1}%)\n",
            d * 1e3,
            d / total * 100.0
        ));
    }
    s.push_str(&format!("total            : {:>9.3} ms\n", total * 1e3));
    Ok(s)
}

/// Writes `text` to `-o file` or stdout.
fn deliver(output: &Option<String>, text: &str) -> Result<(), String> {
    match output {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Local design-space exploration: sweep the configured space and emit
/// the frontier artifact. An empty frontier (every candidate failed or
/// was pruned away) is an error.
fn run_explore(args: &Args, source: &str, function: &str) -> Result<(), String> {
    let emit = effective_emit(args);
    if !matches!(emit.as_str(), "table" | "json") {
        return Err(format!(
            "unknown --emit `{emit}` for --explore (table|json)"
        ));
    }
    let space =
        roccc_explore::Space::new(&args.unroll_factors, &args.strip_widths, args.scalar_both);
    let cfg = roccc_explore::ExploreConfig {
        workers: 0, // one per candidate, capped
        budget_slices: args.budget_slices,
        beam: args.beam,
        compiler: None,
    };
    let memo = roccc_explore::Memo::new();
    let result = roccc_explore::explore(source, function, &args.opts, &space, &cfg, &memo);
    let text = match emit.as_str() {
        "json" => roccc_explore::render_json(&result),
        _ => roccc_explore::render_table(&result),
    };
    deliver(&args.output, &text)?;
    if result.frontier.is_empty() {
        return Err(format!(
            "exploration produced an empty frontier: {} candidate(s), {} skipped, {} pruned",
            result.stats.candidates,
            result.stats.skipped,
            result.stats.pruned_budget + result.stats.pruned_beam
        ));
    }
    Ok(())
}

/// Deterministic input synthesis for `--pipeline --emit cosim`: every
/// external (non-channel-fed) input array gets reproducible
/// pseudo-random words in [-100, 100], every scalar live-in gets 1 (a
/// safe divisor). One xorshift stream, fixed seed — two runs of the
/// same pipeline see identical data.
fn synth_pipeline_inputs(
    cp: &roccc_stream::CompiledPipeline,
) -> (
    std::collections::HashMap<String, Vec<i64>>,
    std::collections::HashMap<String, i64>,
) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 201) as i64 - 100
    };
    let mut arrays = std::collections::HashMap::new();
    let mut scalars = std::collections::HashMap::new();
    for (si, st) in cp.stages.iter().enumerate() {
        for c in &st.rates.consumes {
            let channel_fed = cp
                .channels
                .iter()
                .any(|ch| ch.to_stage == si && ch.to_array == c.array);
            if !channel_fed {
                arrays.insert(
                    format!("{}.{}", st.name, c.array),
                    (0..c.len).map(|_| next()).collect(),
                );
            }
        }
        for (name, _) in &st.compiled.kernel.scalar_inputs {
            scalars.insert(format!("{}.{name}", st.name), 1);
        }
    }
    (arrays, scalars)
}

/// Local `--pipeline` mode: compile the process network and emit stats,
/// VHDL, or a co-simulation report checked against chained
/// single-kernel golden runs.
fn run_pipeline(args: &Args, source: &str, spec_path: &str) -> Result<(), String> {
    let emit = effective_emit(args);
    if !matches!(emit.as_str(), "stats" | "vhdl" | "cosim") {
        return Err(format!(
            "unknown --emit `{emit}` for --pipeline (stats|vhdl|cosim)"
        ));
    }
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = roccc_stream::parse_spec(&spec_text).map_err(|e| e.to_string())?;
    let cp =
        roccc_stream::compile_pipeline(source, &spec, &args.opts).map_err(|e| e.to_string())?;
    // Non-fatal composition findings (warn level) go to stderr.
    for d in &cp.diagnostics {
        eprintln!("{d}");
    }
    match emit.as_str() {
        "vhdl" => {
            let text = roccc_stream::generate_pipeline_vhdl(&cp);
            let findings = roccc_vhdl::lint::lint(&text);
            for d in &findings {
                eprintln!("{d}");
            }
            if args.opts.verify == VerifyLevel::Deny && !findings.is_empty() {
                return Err(format!(
                    "--deny-warnings set and the VHDL lint reported {} finding(s)",
                    findings.len()
                ));
            }
            deliver(&args.output, &text)
        }
        "cosim" => {
            let (arrays, scalars) = synth_pipeline_inputs(&cp);
            let lanes = [arrays];
            let run = roccc_stream::run_cosim(&cp, &lanes, &scalars).map_err(|e| e.to_string())?;
            let golden =
                roccc_stream::chain_golden(&cp, &lanes, &scalars).map_err(|e| e.to_string())?;
            for (key, data) in &run.lane_arrays[0] {
                if golden[0].get(key) != Some(data) {
                    return Err(format!(
                        "co-simulation diverged from the chained single-kernel golden \
                         on output `{key}`"
                    ));
                }
            }
            let mut s = String::new();
            s.push_str(&format!(
                "pipeline `{}`: {} cycles, {:.4} outputs/cycle, {} output words\n",
                cp.spec.name,
                run.cycles,
                run.throughput(),
                run.mem_writes
            ));
            s.push_str(&format!(
                "  {:<12} {:>8} {:>8} {:>8}\n",
                "stage", "fired", "stalls", "starves"
            ));
            for st in &run.stages {
                s.push_str(&format!(
                    "  {:<12} {:>8} {:>8} {:>8}\n",
                    st.name, st.fired, st.stall_cycles, st.starve_cycles
                ));
            }
            for (c, peak) in cp.channels.iter().zip(&run.fifo_peaks) {
                s.push_str(&format!(
                    "  fifo {}.{} -> {}.{}: peak {peak}/{}\n",
                    cp.stages[c.from_stage].name,
                    c.from_array,
                    cp.stages[c.to_stage].name,
                    c.to_array,
                    c.depth
                ));
            }
            s.push_str("  bit-exact vs chained single-kernel golden: yes\n");
            deliver(&args.output, &s)
        }
        _ => deliver(&args.output, &roccc_stream::stats_report(&cp)),
    }
}

/// Client mode: ship the request to a `roccc-serve` daemon.
fn run_client(args: &Args, addr: &str) -> Result<(), String> {
    let req = if args.metrics {
        Request::Metrics
    } else if args.shutdown {
        Request::Shutdown
    } else {
        let input = args.input.as_deref().expect("parse_args checked input");
        let source =
            std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
        if effective_emit(args) == "timings" {
            return Err(
                "--emit timings is local-only; served compiles report per-phase \
                 timings in the `--emit stats` artifact"
                    .to_string(),
            );
        }
        if let Some(spec_path) = &args.pipeline {
            let emit = effective_emit(args);
            if emit == "cosim" {
                return Err(
                    "--emit cosim is local-only (the wire protocol carries no lane \
                     input data); ask the server for stats or vhdl"
                        .to_string(),
                );
            }
            let pipeline = std::fs::read_to_string(spec_path)
                .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
            return finish_client_roundtrip(
                args,
                addr,
                &Request::Pipeline {
                    source,
                    pipeline,
                    opts: args.opts.clone(),
                    emit,
                },
            );
        }
        let function = args
            .function
            .clone()
            .expect("parse_args checked --function");
        if args.explore {
            Request::Explore {
                source,
                function,
                opts: args.opts.clone(),
                unroll_factors: args.unroll_factors.clone(),
                strip_widths: args.strip_widths.clone(),
                scalar_opt_both: args.scalar_both,
                budget_slices: args.budget_slices,
                beam: args.beam,
                emit: effective_emit(args),
            }
        } else {
            Request::Compile {
                source,
                function,
                opts: args.opts.clone(),
                emit: effective_emit(args),
            }
        }
    };
    finish_client_roundtrip(args, addr, &req)
}

/// Ships `req` to the daemon and delivers the reply.
fn finish_client_roundtrip(args: &Args, addr: &str, req: &Request) -> Result<(), String> {
    let io_timeout = Some(Duration::from_secs(120));
    match proto::roundtrip(addr, req, io_timeout).map_err(|e| e.to_string())? {
        Response::Ok { payload, cached } => {
            if cached && !args.metrics && !args.shutdown {
                eprintln!("(served from cache)");
            }
            deliver(&args.output, &String::from_utf8_lossy(&payload))
        }
        Response::Err(msg) => Err(format!("server error: {msg}")),
        Response::Timeout(msg) => Err(format!("server timeout: {msg}")),
        Response::Busy => Err("server busy: admission queue full, retry later".to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.help {
        print!("{}", usage());
        return Ok(());
    }
    if let Some(addr) = &args.connect {
        return run_client(&args, addr);
    }

    let input = args.input.as_deref().expect("parse_args checked input");
    let source = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    if let Some(spec_path) = &args.pipeline {
        return run_pipeline(&args, &source, spec_path);
    }
    let function = args
        .function
        .as_deref()
        .expect("parse_args checked --function");
    if args.explore {
        return run_explore(&args, &source, function);
    }

    // `timings` needs the instrumented compile entry point, so it takes
    // its own path instead of flowing through `render`.
    let emit = effective_emit(&args);
    if emit == "timings" {
        return deliver(&args.output, &render_timings(&source, function, &args)?);
    }

    let hw = compile(&source, function, &args.opts).map_err(|e| render_error(&e, &source))?;
    // Non-fatal verifier findings (collected under --verify) print with
    // source spans resolved against the input file.
    for d in &hw.diagnostics {
        eprintln!("{}", d.render(Some(&source)));
    }
    let text = render(&hw, &emit)?;
    // Lint the generated VHDL: findings are warnings (stderr) and the
    // artifact is still emitted — except under --deny-warnings, where
    // any finding fails the run.
    if emit == "vhdl" {
        let findings = roccc_vhdl::lint::lint(&text);
        for d in &findings {
            eprintln!("{d}");
        }
        if args.opts.verify == VerifyLevel::Deny && !findings.is_empty() {
            return Err(format!(
                "error: --deny-warnings set and the VHDL lint reported {} finding(s)",
                findings.len()
            ));
        }
    }
    deliver(&args.output, &text)
}

fn render_error(e: &roccc::CompileError, source: &str) -> String {
    match e {
        roccc::CompileError::Front(c) => c.render(source),
        roccc::CompileError::Verify(diags) => {
            let mut s = format!("verification failed with {} finding(s):", diags.len());
            for d in diags {
                s.push_str("\n  ");
                s.push_str(&d.render(Some(source)));
            }
            s
        }
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_option_key() {
        let text = usage();
        for row in OPTIONS {
            assert!(text.contains(&format!("--{} ", row.key)), "--{}", row.key);
        }
    }
}
