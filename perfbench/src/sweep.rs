//! `sweep`: repeated design-space sweeps of fir, dct and wavelet over
//! unroll {1,2,3,4,6,8} × strip {0,2,4,8} — all 72 candidates, each sweep
//! on a fresh memo with an explicit worker count. The space is not
//! shrunk: candidates the compiler refuses stay in it, so the sweep keeps
//! paying (and reporting) for them.

use crate::common::{check_vs_interpreter, qor, table1_row, timed_setup};
use crate::host::HostSpeed;
use crate::replay::{self, Fingerprint};
use crate::report::Report;
use crate::trace::Tracer;
use crate::RunCfg;
use roccc::hash::cache_key;
use roccc::{CompileOptions, Compiled, PhaseTimings};
use roccc_explore::{explore, render_json, CompileFn, ExploreConfig, Memo, Space, Status};
use roccc_ipcores::Benchmark;
use roccc_testutil::XorShift64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Kernels swept.
pub const KERNELS: &[&str] = &["fir", "dct", "wavelet"];
/// Unroll factors swept.
pub const FACTORS: &[u64] = &[1, 2, 3, 4, 6, 8];
/// Strip widths swept (0 = none).
pub const STRIPS: &[u64] = &[0, 2, 4, 8];

struct State {
    rows: Vec<Benchmark>,
    space: Space,
    base: CompileOptions,
    qor: (f64, f64),
}

fn setup(kernels: &[&str]) -> Result<State, String> {
    let rows: Vec<Benchmark> = kernels.iter().map(|k| table1_row(k)).collect();
    let base = CompileOptions::default();
    let space = Space::new(FACTORS, STRIPS, false);
    let baselines: Vec<Compiled> = rows
        .iter()
        .map(|b| roccc::compile(&b.source, b.func, &base).map_err(|e| format!("{}: {e}", b.name)))
        .collect::<Result<_, _>>()?;
    let pairs: Vec<_> = rows.iter().zip(baselines.iter()).collect();
    let qor = qor(&pairs);
    Ok(State {
        rows,
        space,
        base,
        qor,
    })
}

/// Explore worker threads. One, so a sweep's timings and peak memory do
/// not depend on how two workers' candidates happen to interleave, and
/// the calibration loop can run on the worker thread between candidates.
pub const WORKERS: usize = 1;

/// Sweeps per run at least: the p95 candidate latency then has at least
/// ten samples beyond it, and a traced run has a traced and an untraced
/// sweep.
const MIN_SWEEPS: u64 = 3;

/// Per-candidate compile timing recorded through the explore compiler
/// hook: (cache key, ms, completion).
type HookLog = Arc<Mutex<Vec<(u64, f64, Instant)>>>;

/// Host-speed samples taken inside the hooks, before each compile.
type SharedHost = Arc<Mutex<HostSpeed>>;

fn tick(hs: &SharedHost) {
    hs.lock().expect("host samples poisoned").tick();
}

fn timing_hook(log: &HookLog, hs: &SharedHost) -> CompileFn {
    let (log, hs) = (Arc::clone(log), Arc::clone(hs));
    Arc::new(move |src: &str, func: &str, opts: &CompileOptions| {
        tick(&hs);
        let t0 = Instant::now();
        let r = roccc::compile_timed(src, func, opts);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let key = cache_key(src, func, opts);
        log.lock()
            .expect("hook log poisoned")
            .push((key, dt, Instant::now()));
        r
    })
}

/// The traced hook: the stage-by-stage replay under one root span per
/// candidate, parented to the sweep span, checked against the reference
/// fingerprint of the same candidate. It takes no calibration samples,
/// which would land in the sweep span's self time.
fn traced_hook(
    tr: &Arc<Tracer>,
    parent: &Arc<AtomicU32>,
    refs: &Arc<HashMap<u64, Fingerprint>>,
    log: &HookLog,
    mismatches: &Arc<Mutex<Vec<String>>>,
) -> CompileFn {
    let (tr, parent, refs, log, mismatches) = (
        Arc::clone(tr),
        Arc::clone(parent),
        Arc::clone(refs),
        Arc::clone(log),
        Arc::clone(mismatches),
    );
    let next_op = Arc::new(AtomicU64::new(1));
    Arc::new(move |src: &str, func: &str, opts: &CompileOptions| {
        let id = next_op.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let r = {
            let _op = tr.op("roccc.compile", id, parent.load(Ordering::Relaxed));
            replay::compile(&tr, src, func, opts, &roccc_datapath::DefaultDelayModel)
        };
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let key = cache_key(src, func, opts);
        log.lock()
            .expect("hook log poisoned")
            .push((key, dt, Instant::now()));
        if refs.get(&key) != Some(&Fingerprint::of(&r)) {
            mismatches
                .lock()
                .expect("mismatch log poisoned")
                .push(format!(
                    "{func} {:?}: replay differs from roccc::compile",
                    opts.unroll
                ));
        }
        r.map(|c| (c, PhaseTimings::default()))
    })
}

/// One sweep over every kernel: the concatenated JSON reports, the
/// scored candidates (kernel index, candidate), the skipped candidates'
/// keys, the candidate count, and the wall time in ms.
struct Sweep {
    json: String,
    scored: Vec<(usize, roccc_explore::Candidate)>,
    skipped_keys: Vec<u64>,
    candidates: usize,
    wall_ms: f64,
}

fn sweep(st: &State, hook: CompileFn) -> Sweep {
    let cfg = ExploreConfig {
        workers: WORKERS,
        budget_slices: None,
        beam: None,
        compiler: Some(hook),
    };
    let mut out = Sweep {
        json: String::new(),
        scored: Vec::new(),
        skipped_keys: Vec::new(),
        candidates: 0,
        wall_ms: 0.0,
    };
    let t0 = Instant::now();
    let results: Vec<_> = st
        .rows
        .iter()
        .map(|b| explore(&b.source, b.func, &st.base, &st.space, &cfg, &Memo::new()))
        .collect();
    out.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (k, res) in results.iter().enumerate() {
        out.json.push_str(&render_json(res));
        out.candidates += res.reports.len();
        for rep in &res.reports {
            match rep.status {
                Status::Scored => out.scored.push((k, rep.candidate)),
                Status::Skipped => out.skipped_keys.push(rep.key),
                _ => {}
            }
        }
    }
    out
}

/// Runs the workload over the default kernels.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    run_kernels(cfg, KERNELS)
}

/// Runs the workload over `kernels` (the smoke test sweeps fewer).
pub fn run_kernels(cfg: &RunCfg, kernels: &[&str]) -> Result<Report, String> {
    let (st, setup) = timed_setup(15, || setup(kernels))?;
    let mut r = Report::default();
    r.set_setup(setup);
    r.set("qor_area_ratio", st.qor.0);
    r.set("qor_clock_ratio", st.qor.1);

    let log: HookLog = Arc::new(Mutex::new(Vec::new()));
    let traced_log: HookLog = Arc::new(Mutex::new(Vec::new()));
    let tracer = Arc::new(Tracer::new());
    let parent = Arc::new(AtomicU32::new(0));
    let mismatches = Arc::new(Mutex::new(Vec::new()));
    let hs: SharedHost = Arc::new(Mutex::new(HostSpeed::new(Instant::now())));
    let hook = timing_hook(&log, &hs);
    let traced = cfg.trace.then(|| {
        // Reference fingerprints of every candidate for the replay check.
        let mut refs = HashMap::new();
        for b in &st.rows {
            for c in st.space.candidates(&st.base) {
                let opts = c.options(&st.base);
                let fp = Fingerprint::of(&roccc::compile(&b.source, b.func, &opts));
                refs.insert(cache_key(&b.source, b.func, &opts), fp);
            }
        }
        traced_hook(&tracer, &parent, &Arc::new(refs), &traced_log, &mismatches)
    });

    let mut first: Option<Sweep> = None;
    let (mut walls, mut traced_sweeps) = (Vec::new(), 0usize);
    let mut candidates = 0usize;
    // A traced run alternates traced and untraced sweeps; the untraced
    // ones are the tracing-overhead base.
    let now = || hs.lock().expect("host samples poisoned").now();
    let spent = || hs.lock().expect("host samples poisoned").spent_ms();
    while now() < cfg.seconds || r.attempted < MIN_SWEEPS {
        r.attempted += 1;
        let spent0 = spent();
        let s = match &traced {
            Some(h) if !r.attempted.is_multiple_of(2) => {
                traced_sweeps += 1;
                let sp = tracer.op("explore.sweep", 0, 0);
                parent.store(sp.id(), Ordering::Relaxed);
                sweep(&st, Arc::clone(h))
            }
            _ => sweep(&st, Arc::clone(&hook)),
        };
        // The sweep's wall time without the calibration samples taken in
        // its hooks.
        let wall_ms = s.wall_ms - (spent() - spent0);
        let end = now();
        walls.push((end - s.wall_ms / 1e3, end, wall_ms));
        candidates += s.candidates;
        match &first {
            None => first = Some(s),
            Some(f) if f.json != s.json => {
                r.fail(format!(
                    "sweep {} report differs from the first",
                    r.attempted
                ));
            }
            Some(_) => {}
        }
    }
    let hs = hs.lock().expect("host samples poisoned").clone();
    let first = first.expect("at least one sweep ran");
    for m in mismatches.lock().expect("mismatch log poisoned").drain(..) {
        r.fail(m);
    }

    // Once per run, outside timing: every scored candidate's hardware
    // matches the interpreter on the original source.
    let mut rng = XorShift64::new(cfg.seed);
    for (k, c) in &first.scored {
        let b = &st.rows[*k];
        let checked = roccc::compile(&b.source, b.func, &c.options(&st.base))
            .map_err(|e| e.to_string())
            .and_then(|hw| check_vs_interpreter(&hw, &b.source, b.func, c.bus_elems(), &mut rng));
        if let Err(e) = checked {
            r.fail(format!("{} {}: {e}", b.name, c.label()));
        }
    }

    let log = std::mem::take(&mut *log.lock().expect("hook log poisoned"));
    let traced_log = std::mem::take(&mut *traced_log.lock().expect("hook log poisoned"));
    let lat: Vec<(f64, f64)> = log
        .iter()
        .chain(&traced_log)
        .map(|e| (hs.since(e.2), e.1))
        .collect();
    let sweep_s: f64 = walls
        .iter()
        .map(|&(from, to, w)| w / hs.factor_over(from, to))
        .sum::<f64>()
        / 1e3;
    let scored = first.scored.len();
    r.set("throughput_per_s", candidates as f64 / sweep_s.max(1e-12));
    r.set("ok_frac", scored as f64 / first.candidates.max(1) as f64);
    r.set_latencies(&lat, 95.0, &hs, |t| hs.factor(t));
    r.set("peak_rss_mb", crate::common::peak_rss_mib());
    r.notes.push(format!(
        "sweep: dse_candidates_per_s={:.3} candidates_per_sweep={} sweeps={} \
         scored={} failed={} failed_frac={:.4} (skipped candidates are compile \
         failures; see ROADMAP item 1)",
        r.values["throughput_per_s"],
        first.candidates,
        walls.len(),
        scored,
        first.candidates - scored,
        1.0 - scored as f64 / first.candidates.max(1) as f64
    ));
    if cfg.trace {
        let stimes = tracer.self_times();
        r.set_compile_layers(&tracer, &stimes);
        let busy = |l: &[(u64, f64, Instant)]| l.iter().map(|e| e.1).sum::<f64>();
        let traced_ms = busy(&traced_log);
        let untraced_sweeps = (walls.len() - traced_sweeps).max(1) as f64;
        let traced_sweeps = traced_sweeps.max(1) as f64;
        let skipped: std::collections::HashSet<u64> = first.skipped_keys.iter().copied().collect();
        let wasted_ms: f64 = traced_log
            .iter()
            .filter(|e| skipped.contains(&e.0))
            .map(|e| e.1)
            .sum();
        r.set("explore.compile_busy_s", traced_ms / 1e3 / traced_sweeps);
        r.set(
            "explore.wasted_compile_frac",
            wasted_ms / traced_ms.max(1e-12),
        );
        r.set(
            "explore.engine_ms",
            stimes.sum(&["explore.sweep"]) as f64 / 1e6 / stimes.ops.max(1) as f64,
        );
        r.set(
            "trace.overhead_frac",
            (traced_ms / traced_sweeps) / (busy(&log) / untraced_sweeps).max(1e-12) - 1.0,
        );
        crate::finish_trace(cfg, &tracer, &stimes, &mut r)?;
    }
    Ok(r)
}
