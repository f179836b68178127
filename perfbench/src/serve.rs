//! `serve`: an in-process `roccc-serve` daemon under an open-loop load.
//!
//! Requests are Table 1 compiles with each row's default options and
//! `emit vhdl`; a fixed share carries a unique comment suffix so it always
//! misses the cache. Requests are due at a fixed offered rate; the
//! generator uses at most as many client threads (one connection each)
//! as the daemon has workers, times every request from its due time, and
//! reports how late it sent.

use crate::common::{ms, percentile, qor, sorted, timed_setup, workers, Stratified};
use crate::host::HostSpeed;
use crate::replay::{self, Fingerprint};
use crate::report::Report;
use crate::trace::Tracer;
use crate::RunCfg;
use roccc::proto::{roundtrip, Request, Response};
use roccc::{CompileOptions, PhaseTimings};
use roccc_ipcores::Benchmark;
use roccc_serve::{CompileFn, ServerConfig, ServerHandle};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load in requests per second, frozen at about a fifth of the
/// measured capacity: two closed-loop clients drive this request mix
/// (nine rows, one in four unique) at about 2100 requests/s on a two-CPU
/// host (`loadgen --threads 2 --unique-pct 25`). A request due while both
/// connections wait on misses is sent late, and the wait counts in its
/// latency. With two connections the daemon's admission queue never
/// fills, so the completed rate is a saturation check only.
pub const OFFERED_RPS: f64 = 400.0;
/// Percent of requests carrying a unique suffix (always a cache miss):
/// the share the repository's load generator records in
/// `BENCH_serve.json` and uses by default.
pub const UNIQUE_PCT: u32 = 25;
/// Seconds of load before the measured phases, while the daemon's heap
/// grows to its steady size.
const WARMUP_S: f64 = 10.0;
/// Seconds of due times per load phase; the daemon idles between phases.
const PHASE_S: f64 = 0.5;
/// Calibration samples taken in each idle window between phases.
const CALIBRATION_BURST: usize = 16;

struct Plan {
    kernel: usize,
    source: String,
}

struct State {
    rows: Vec<Benchmark>,
    vhdl: Vec<String>,
    qor: (f64, f64),
}

fn setup() -> Result<State, String> {
    let rows = roccc_ipcores::benchmarks();
    let mut vhdl = Vec::new();
    let mut compiled = Vec::new();
    for b in &rows {
        let hw =
            roccc::compile(&b.source, b.func, &b.opts).map_err(|e| format!("{}: {e}", b.name))?;
        vhdl.push(hw.to_vhdl());
        compiled.push(hw);
    }
    let pairs: Vec<_> = rows.iter().zip(compiled.iter()).collect();
    let qor = qor(&pairs);
    Ok(State { rows, vhdl, qor })
}

fn start(hook: Option<CompileFn>) -> Result<ServerHandle, String> {
    roccc_serve::start(ServerConfig {
        workers: workers(),
        compiler: hook,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))
}

/// One client-side observation.
struct Sample {
    /// Send time − due time, ms.
    late_ms: f64,
    /// Completion − due time, ms.
    latency_ms: f64,
    /// Completion time.
    done: Instant,
    cached: bool,
    outcome: Result<(), String>,
}

/// Per miss: (row, compile ms, traced).
type MissLog = Arc<Mutex<Vec<(usize, f64, bool)>>>;

/// The traced compiler hook: misses alternate between the replay under
/// one root span and plain `roccc::compile`, which is the
/// tracing-overhead base. Each replay is checked against the direct
/// compile of the same row (the unique suffix is a comment; the VHDL
/// check on every response shows it does not change the hardware).
fn traced_hook(
    tr: &Arc<Tracer>,
    expect: Arc<Vec<(String, Fingerprint)>>,
    log: &MissLog,
    mismatches: &Arc<Mutex<Vec<String>>>,
) -> CompileFn {
    let (tr, log, mismatches) = (Arc::clone(tr), Arc::clone(log), Arc::clone(mismatches));
    let next_op = Arc::new(AtomicU64::new(1));
    Arc::new(move |src: &str, func: &str, opts: &CompileOptions| {
        let id = next_op.fetch_add(1, Ordering::Relaxed);
        let traced = !id.is_multiple_of(2);
        let t0 = Instant::now();
        let r = if traced {
            let _op = tr.op("roccc.compile", id, 0);
            replay::compile(&tr, src, func, opts, &roccc_datapath::DefaultDelayModel)
        } else {
            roccc::compile(src, func, opts)
        };
        let dt = ms(t0.elapsed());
        if let Some(k) = expect.iter().position(|(f, _)| f == func) {
            log.lock().expect("hook log poisoned").push((k, dt, traced));
            if traced && Fingerprint::of(&r) != expect[k].1 {
                mismatches
                    .lock()
                    .expect("mismatch log poisoned")
                    .push(format!("{func}: replay differs from roccc::compile"));
            }
        }
        r.map(|c| (c, PhaseTimings::default()))
    })
}

fn client(
    addr: std::net::SocketAddr,
    st: &State,
    plan: &[Plan],
    next: &AtomicUsize,
    t0: Instant,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let period = 1.0 / OFFERED_RPS;
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(p) = plan.get(k) else { break };
        let due = t0 + Duration::from_secs_f64(k as f64 * period);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let req = Request::Compile {
            source: p.source.clone(),
            function: st.rows[p.kernel].func.to_string(),
            opts: st.rows[p.kernel].opts.clone(),
            emit: "vhdl".to_string(),
        };
        let resp = roundtrip(addr, &req, Some(Duration::from_secs(60)));
        let done = Instant::now();
        let (cached, outcome) = match resp {
            Ok(Response::Ok { payload, cached }) => (
                cached,
                if payload == st.vhdl[p.kernel].as_bytes() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: served VHDL differs from a direct compile",
                        st.rows[p.kernel].name
                    ))
                },
            ),
            Ok(other) => (false, Err(format!("{}: {other:?}", st.rows[p.kernel].name))),
            Err(e) => (false, Err(format!("{}: {e}", st.rows[p.kernel].name))),
        };
        out.push(Sample {
            late_ms: ms(sent.saturating_duration_since(due)),
            latency_ms: ms(done.saturating_duration_since(due)),
            done,
            cached,
            outcome,
        });
    }
    out
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    // Set-up: direct reference compiles plus a daemon start and stop,
    // repeated for a stable median.
    let (st, setup) = timed_setup(15, || -> Result<State, String> {
        let st = setup()?;
        start(None)?.shutdown();
        Ok(st)
    })?;
    let mut r = Report::default();
    r.set_setup(setup);
    r.set("qor_area_ratio", st.qor.0);
    r.set("qor_clock_ratio", st.qor.1);

    let tracer = Arc::new(Tracer::new());
    let log = Arc::new(Mutex::new(Vec::new()));
    let mismatches = Arc::new(Mutex::new(Vec::new()));
    let hook = cfg.trace.then(|| {
        let expect = st
            .rows
            .iter()
            .map(|b| {
                let fp = Fingerprint::of(&roccc::compile(&b.source, b.func, &b.opts));
                (b.func.to_string(), fp)
            })
            .collect();
        traced_hook(&tracer, Arc::new(expect), &log, &mismatches)
    });
    let handle = start(hook)?;

    // The request plan from the seed: exactly one request in every block
    // of `100 / UNIQUE_PCT` is unique, and cached and unique requests each
    // draw their kernel in stratified blocks, so both mixes are exact.
    let mut unique = Stratified::new(cfg.seed ^ 0x5eed, (100 / UNIQUE_PCT) as usize);
    let mut hot_kernels = Stratified::new(cfg.seed, st.rows.len());
    let mut unique_kernels = Stratified::new(cfg.seed ^ 0x0dd, st.rows.len());
    let per_phase = (PHASE_S * OFFERED_RPS).round() as usize;
    let warm = (WARMUP_S * OFFERED_RPS).round() as usize;
    let n = warm + (cfg.seconds * OFFERED_RPS).ceil().max(1.0) as usize;
    let plan: Vec<Plan> = (0..n)
        .map(|i| {
            if unique.next_index() == 0 {
                let kernel = unique_kernels.next_index();
                let source = format!("{}\n// uniq {}-{i}\n", st.rows[kernel].source, cfg.seed);
                Plan { kernel, source }
            } else {
                let kernel = hot_kernels.next_index();
                let source = st.rows[kernel].source.clone();
                Plan { kernel, source }
            }
        })
        .collect();

    // The load runs in phases of `PHASE_S` seconds of due times. Between
    // phases no request is outstanding and the daemon is idle; only then
    // does the calibration loop run, so the slowdown it measures never
    // includes the daemon's own load, yet it follows the host's drift
    // through the run. Each latency is normalized by the idle-window
    // samples nearest its completion. The phases in the first `WARMUP_S`
    // seconds are a warm-up: checked, but left out of the metrics.
    let addr = handle.local_addr();
    let mut hs = HostSpeed::new(Instant::now());
    let mut samples: Vec<Sample> = Vec::with_capacity(plan.len());
    let mut warmup: Vec<Sample> = Vec::with_capacity(warm);
    let mut wall = 0.0;
    for (i, phase) in plan.chunks(per_phase).enumerate() {
        hs.burst(CALIBRATION_BURST);
        let measured = i * per_phase >= warm;
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..workers())
                .map(|_| s.spawn(|| client(addr, &st, phase, &next, t0)))
                .collect();
            let into = if measured { &mut samples } else { &mut warmup };
            for j in joins {
                into.extend(j.join().expect("client thread panicked"));
            }
        });
        if measured {
            wall += t0.elapsed().as_secs_f64();
        }
    }
    hs.burst(CALIBRATION_BURST);
    let busy = handle.metrics().busy_rejections.get();
    handle.shutdown();

    r.attempted = (warmup.len() + samples.len()) as u64;
    for s in warmup.iter().chain(&samples) {
        if let Err(e) = &s.outcome {
            r.fail(e.clone());
        }
    }
    for m in mismatches.lock().expect("mismatch log poisoned").drain(..) {
        r.fail(m);
    }
    let ok = samples.iter().filter(|s| s.outcome.is_ok()).count();
    let lat: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| (hs.since(s.done), s.latency_ms))
        .collect();
    let late = sorted(&samples.iter().map(|s| s.late_ms).collect::<Vec<_>>());
    let hits: Vec<f64> = samples
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.latency_ms)
        .collect();
    let misses: Vec<&Sample> = samples.iter().filter(|s| !s.cached).collect();
    r.set("throughput_per_s", ok as f64 / wall.max(1e-12));
    r.set("ok_frac", ok as f64 / samples.len().max(1) as f64);
    r.set_latencies(&lat, 95.0, &hs, |t| hs.factor(t));
    r.set("peak_rss_mb", crate::common::peak_rss_mib());
    r.notes.push(format!(
        "serve: serve_p50_ms={:.4} serve_p95_ms={:.4} serve_rps={:.2} offered_rps={} \
         unique_pct={} hit_ratio={:.4} lateness_p50_ms={:.4} lateness_p99_ms={:.4} \
         busy_rejections={} failed_frac={:.4}",
        r.values["latency_p50_ms"],
        r.values["latency_tail_ms"],
        r.values["throughput_per_s"],
        OFFERED_RPS,
        UNIQUE_PCT,
        hits.len() as f64 / samples.len().max(1) as f64,
        percentile(&late, 50.0),
        percentile(&late, 99.0),
        busy,
        r.failed as f64 / samples.len().max(1) as f64
    ));
    if cfg.trace {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let log = std::mem::take(&mut *log.lock().expect("hook log poisoned"));
        let all: Vec<f64> = log.iter().map(|e| e.1).collect();
        let traced: Vec<&(usize, f64, bool)> = log.iter().filter(|e| e.2).collect();
        let miss_lat: Vec<f64> = misses.iter().map(|s| s.latency_ms).collect();
        r.set(
            "serve.miss_compile_ms",
            mean(&traced.iter().map(|e| e.1).collect::<Vec<_>>()),
        );
        r.set("serve.miss_overhead_ms", mean(&miss_lat) - mean(&all));
        r.set("serve.hit_ms", mean(&hits));
        r.set(
            "serve.hit_ratio",
            hits.len() as f64 / samples.len().max(1) as f64,
        );
        r.set("serve.busy_rejections", busy as f64);
        r.set("serve.lateness_p99_ms", percentile(&late, 99.0));
        // Traced compile time over what the same rows cost untraced.
        let untraced_mean = |k: usize| {
            let v: Vec<f64> = log
                .iter()
                .filter(|e| !e.2 && e.0 == k)
                .map(|e| e.1)
                .collect();
            (!v.is_empty()).then(|| mean(&v))
        };
        let (mut traced_ms, mut base_ms) = (0.0, 0.0);
        for e in &traced {
            if let Some(b) = untraced_mean(e.0) {
                traced_ms += e.1;
                base_ms += b;
            }
        }
        r.set("trace.overhead_frac", traced_ms / base_ms.max(1e-12) - 1.0);
        let stimes = tracer.self_times();
        r.set_compile_layers(&tracer, &stimes);
        crate::finish_trace(cfg, &tracer, &stimes, &mut r)?;
    }
    Ok(r)
}
