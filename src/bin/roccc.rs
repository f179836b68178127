//! Command-line driver for the ROCCC reproduction.
//!
//! ```text
//! roccc <input.c> --function <name> [options]
//!
//! Options:
//!   --function <name>    kernel function to compile (required)
//!   --period <ns>        target clock period (default 7.0)
//!   --unroll <n|full>    unroll factor or full unrolling
//!   --stripmine <w>      strip-mine width (strip fully unrolled)
//!   --fuse               run loop fusion first
//!   --no-opt             skip SSA-level scalar optimizations
//!   --no-narrow          skip bit-width narrowing
//!   --range-narrow       value-range analysis drives extra narrowing
//!   --pipeline-ii <auto|n>  modulo-schedule the loop body at initiation
//!                        interval n (auto = the MinII lower bound)
//!   --emit <what>        vhdl | dot | stats | ir | c | ranges | deps | deps-json |
//!                        schedule | schedule-json | prove | prove-json | timings
//!                        (default stats)
//!   -o <file>            write output to a file instead of stdout
//!   --verify             run the phase-indexed static verifier (warn)
//!   --deny-warnings      verifier + lint findings of any severity fail
//!   --prove              translation-validate the netlist against the IR
//!                        (symbolic equivalence certificate; E-codes)
//!   --verify-families <csv>  only report diagnostic families in the CSV
//!                        list (letters from S,D,N,W,L,M,P,V,E)
//!
//! Design-space exploration (sweeps unroll × strip-mine × scalar-opt
//! configurations and reports the Pareto frontier; `--emit` becomes
//! `table` (default) or `json`):
//!   --explore              run the DSE sweep instead of one compile
//!   --unroll-factors <csv> unroll factors to sweep (default 1,2,4)
//!   --strip-widths <csv>   strip-mine widths to sweep (default 0,2,4)
//!   --scalar-both          sweep scalar optimization on AND off
//!   --budget-slices <n>    prune candidates whose estimated area
//!                          exceeds the budget (the paper's cut)
//!   --beam <n>             fully score at most n candidates
//!
//! Streaming pipelines (compile several kernels from the same source
//! into a process network; `--emit` becomes `stats` (default), `vhdl`,
//! or `cosim`, which co-simulates the network on synthesized inputs and
//! checks it bit-exact against chained single-kernel runs):
//!   --pipeline <file>      pipeline description (stages, binds, fifos)
//!
//! Client mode (talk to a running `roccc-serve` daemon instead of
//! compiling locally; `table-row` is additionally accepted for --emit):
//!   --connect <host:port>  send the compile to the server
//!   --metrics              (with --connect) print the server metrics
//!   --shutdown             (with --connect) stop the server
//! ```
//!
//! On `--emit vhdl`, structural lint findings from `roccc-vhdl` are
//! reported as warnings on stderr; the exit code stays 0 unless
//! `--deny-warnings` is in effect. Verifier findings print with source
//! spans where available and make the exit code nonzero on error.

use roccc::proto::{self, Request, Response};
use roccc::{compile, CompileOptions, Compiled, UnrollStrategy, VerifyLevel};
use roccc_synth::{fast_estimate, map_netlist, VirtexII};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: roccc <input.c> --function <name> [options]

options:
  --function, -f <name>  kernel function to compile (required)
  --period <ns>          target clock period in ns (default 7.0)
  --unroll <n|full>      unroll factor, or `full` for full unrolling
  --stripmine <w>        strip-mine width w; the strip is fully
                         unrolled and w drives the smart-buffer bus
  --fuse                 run loop fusion before extraction
  --no-opt               skip SSA-level scalar optimizations
  --no-narrow            skip backward bit-width narrowing
  --range-narrow         run the forward value-range analysis and let
                         proven intervals narrow widths further
  --pipeline-ii <auto|n> modulo-schedule the loop body under the modulo
                         reservation table at initiation interval n;
                         `auto` searches upward from the MinII lower
                         bound (max of the recurrence and resource
                         bounds). Implied by --emit schedule.
  --emit <what>          vhdl | dot | stats | ir | c | ranges | deps | deps-json |
                         schedule | schedule-json | prove | prove-json |
                         timings
                         (default stats; `timings` prints the per-phase
                         compile wall-clock breakdown)
  -o <file>              write output to a file instead of stdout
  --verify               run the phase-indexed static verifier: errors
                         fail the compile, warnings print to stderr
  --deny-warnings        like --verify, but any finding (verifier or
                         VHDL lint) fails the compile
  --prove                translation-validate the compiled netlist
                         against the SSA IR: a symbolic evaluator walks
                         one steady-state window of each and a rewriter
                         (SAT fallback) discharges the equivalence
                         obligations; refutations surface as E001/E002
                         with a replayed counterexample, residual
                         unknowns as E003 warnings. Implied by
                         --emit prove / prove-json.
  --verify-families <csv> only report diagnostic families in the CSV
                         list (letters from S,D,N,W,L,M,P,V,E);
                         findings from other families are dropped
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

/// Parses a comma-separated list of unsigned integers.
fn parse_csv_u64(flag: &str, v: &str) -> Result<Vec<u64>, String> {
    v.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("{flag} expects comma-separated numbers, got `{p}`"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut input = None;
    let mut function = None;
    let mut pipeline = None;
    let mut opts = CompileOptions::default();
    let mut emit = None;
    let mut output = None;
    let mut connect = None;
    let mut metrics = false;
    let mut shutdown = false;
    let mut explore = false;
    let mut unroll_factors = vec![1, 2, 4];
    let mut strip_widths = vec![0, 2, 4];
    let mut scalar_both = false;
    let mut budget_slices = None;
    let mut beam = None;
    let mut help = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--function" | "-f" => function = Some(args.next().ok_or("--function needs a name")?),
            "--pipeline" => pipeline = Some(args.next().ok_or("--pipeline needs a file")?),
            "--period" => {
                opts.target_period_ns = args
                    .next()
                    .ok_or("--period needs a value")?
                    .parse()
                    .map_err(|_| "--period expects a number (ns)")?;
            }
            "--unroll" => {
                let v = args.next().ok_or("--unroll needs a factor or `full`")?;
                opts.unroll = if v == "full" {
                    UnrollStrategy::Full
                } else {
                    UnrollStrategy::Partial(
                        v.parse()
                            .map_err(|_| "--unroll expects a number or `full`")?,
                    )
                };
            }
            "--fuse" => opts.fuse = true,
            "--no-opt" => opts.optimize = false,
            "--no-narrow" => opts.narrow = false,
            "--range-narrow" => opts.range_narrow = true,
            "--pipeline-ii" => {
                let v = args
                    .next()
                    .ok_or("--pipeline-ii needs `auto` or a number")?;
                opts.pipeline_ii = if v == "auto" {
                    Some(0)
                } else {
                    Some(
                        v.parse()
                            .map_err(|_| "--pipeline-ii expects a number or `auto`")?,
                    )
                };
            }
            "--emit" => {
                emit = Some(args.next().ok_or(
                    "--emit needs vhdl|dot|stats|ir|c|ranges|deps|deps-json|\
                     schedule|schedule-json|prove|prove-json|timings",
                )?)
            }
            "-o" => output = Some(args.next().ok_or("-o needs a path")?),
            "--stripmine" => {
                opts.stripmine = Some(
                    args.next()
                        .ok_or("--stripmine needs a width")?
                        .parse()
                        .map_err(|_| "--stripmine expects a number")?,
                )
            }
            "--explore" => explore = true,
            "--unroll-factors" => {
                let v = args.next().ok_or("--unroll-factors needs a CSV list")?;
                unroll_factors = parse_csv_u64("--unroll-factors", &v)?;
            }
            "--strip-widths" => {
                let v = args.next().ok_or("--strip-widths needs a CSV list")?;
                strip_widths = parse_csv_u64("--strip-widths", &v)?;
            }
            "--scalar-both" => scalar_both = true,
            "--budget-slices" => {
                budget_slices = Some(
                    args.next()
                        .ok_or("--budget-slices needs a slice count")?
                        .parse()
                        .map_err(|_| "--budget-slices expects a number")?,
                )
            }
            "--beam" => {
                beam = Some(
                    args.next()
                        .ok_or("--beam needs a width")?
                        .parse()
                        .map_err(|_| "--beam expects a number")?,
                )
            }
            "--connect" => connect = Some(args.next().ok_or("--connect needs host:port")?),
            "--metrics" => metrics = true,
            "--shutdown" => shutdown = true,
            "--verify" => {
                // --deny-warnings is the stricter request; don't relax it.
                if opts.verify != VerifyLevel::Deny {
                    opts.verify = VerifyLevel::Warn;
                }
            }
            "--deny-warnings" => opts.verify = VerifyLevel::Deny,
            "--prove" => opts.prove = true,
            "--verify-families" => {
                let v = args.next().ok_or("--verify-families needs a CSV list")?;
                for fam in v.split(',') {
                    let fam = fam.trim();
                    let ok = fam.len() == 1
                        && fam
                            .chars()
                            .next()
                            .is_some_and(|c| "SDNWLMPVE".contains(c.to_ascii_uppercase()));
                    if !ok {
                        return Err(format!(
                            "--verify-families expects comma-separated family letters \
                             from S,D,N,W,L,M,P,V,E, got `{fam}`"
                        ));
                    }
                }
                opts.verify_families = Some(v);
            }
            "--help" | "-h" => help = true,
            other if input.is_none() && !other.starts_with('-') => input = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    // Asking for the schedule artifact without an explicit target means
    // "schedule at auto/MinII": the artifact only exists when a modulo
    // schedule was actually requested.
    if matches!(emit.as_deref(), Some("schedule" | "schedule-json")) && opts.pipeline_ii.is_none() {
        opts.pipeline_ii = Some(0);
    }
    // Asking for the proof artifact means "run the prover".
    if matches!(emit.as_deref(), Some("prove" | "prove-json")) {
        opts.prove = true;
    }
    if help {
        // Skip the required-argument checks: `roccc --help` alone is valid.
        return Ok(Args {
            input,
            function,
            pipeline,
            opts,
            emit,
            output,
            connect,
            metrics,
            shutdown,
            explore,
            unroll_factors,
            strip_widths,
            scalar_both,
            budget_slices,
            beam,
            help,
        });
    }
    if (metrics || shutdown) && connect.is_none() {
        return Err("--metrics/--shutdown require --connect (try --help)".to_string());
    }
    if pipeline.is_some() && explore {
        return Err("--pipeline does not combine with --explore".to_string());
    }
    let control = metrics || shutdown;
    if !control && input.is_none() {
        return Err("missing input file (try --help)".to_string());
    }
    if !control && function.is_none() && pipeline.is_none() {
        return Err("missing --function (try --help)".to_string());
    }
    Ok(Args {
        input,
        function,
        pipeline,
        opts,
        emit,
        output,
        connect,
        metrics,
        shutdown,
        explore,
        unroll_factors,
        strip_widths,
        scalar_both,
        budget_slices,
        beam,
        help,
    })
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if let Some(addr) = args.connect.clone() {
        return match run_client(&args, &addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let input = args.input.as_deref().expect("parse_args checked input");
    let source = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(spec_path) = args.pipeline.clone() {
        return match run_pipeline(&args, &source, &spec_path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let function = args
        .function
        .as_deref()
        .expect("parse_args checked --function");

    if args.explore {
        return match run_explore(&args, &source, function) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    // `timings` needs the instrumented compile entry point, so it takes
    // its own path instead of flowing through `render`.
    if effective_emit(&args) == "timings" {
        return match render_timings(&source, function, &args)
            .and_then(|text| deliver(&args.output, &text))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let hw = match compile(&source, function, &args.opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}", render_error(&e, &source));
            return ExitCode::FAILURE;
        }
    };

    // Non-fatal verifier findings (collected under --verify) print with
    // source spans resolved against the input file.
    for d in &hw.diagnostics {
        eprintln!("{}", d.render(Some(&source)));
    }

    let emit = effective_emit(&args);
    let text = match render(&hw, &emit) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Lint the generated VHDL: findings are warnings (stderr) and the
    // artifact is still emitted — except under --deny-warnings, where
    // any finding fails the run.
    if emit == "vhdl" {
        let findings = roccc_vhdl::lint::lint(&text);
        for d in &findings {
            eprintln!("{d}");
        }
        if args.opts.verify == VerifyLevel::Deny && !findings.is_empty() {
            eprintln!(
                "error: --deny-warnings set and the VHDL lint reported {} finding(s)",
                findings.len()
            );
            return ExitCode::FAILURE;
        }
    }
    match deliver(&args.output, &text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
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
