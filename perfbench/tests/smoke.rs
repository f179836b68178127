//! A short run of every workload, untraced and traced: outputs check out,
//! every end-to-end metric is positive, and the traced run writes its
//! Chrome trace and measures the layers the workload exercises.

use roccc_perfbench::report::Report;
use roccc_perfbench::{run_workload, sweep, RunCfg};

fn cfg(trace: bool, name: &str) -> RunCfg {
    RunCfg {
        seed: 7,
        seconds: 0.2,
        trace,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("perfbench-smoke")
            .join(name),
    }
}

fn run(name: &str, trace: bool) -> Report {
    let c = cfg(trace, name);
    let r = if name == "sweep" {
        // One kernel keeps the smoke run short; the full space still runs.
        sweep::run_kernels(&c, &["fir"])
    } else {
        run_workload(name, &c)
    }
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(r.attempted >= 1, "{name}: nothing attempted");
    assert_eq!(r.failed, 0, "{name}: {:?}", r.errors);
    if trace {
        assert!(
            c.out_dir.join("trace.json").exists(),
            "{name}: no trace file"
        );
    }
    r
}

#[test]
fn every_workload_runs_and_checks() {
    for name in ["certify", "sweep", "simulate", "serve"] {
        let r = run(name, false);
        for (metric, _, _) in roccc_perfbench::report::END_TO_END {
            let v = r.values.get(metric).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{name}: {metric} = {v}");
        }
    }
}

#[test]
fn traced_runs_measure_their_layers() {
    let expect: [(&str, &[&str]); 4] = [
        (
            "certify",
            &[
                "prove.ms",
                "vhdl.emit_ms",
                "synth.map_ms",
                "cparse.frontend_ms",
            ],
        ),
        (
            "sweep",
            &["hlir.unroll_ms", "hlir.fold_ms", "explore.compile_busy_s"],
        ),
        (
            "simulate",
            &[
                "netlist.system_ns_per_cycle.fir",
                "netlist.batched_ns_per_cycle.wavelet",
            ],
        ),
        ("serve", &["serve.hit_ms", "suifvm.opt_ms"]),
    ];
    for (name, metrics) in expect {
        let r = run(name, true);
        for m in metrics {
            let v = r.values.get(m).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{name}: {m} = {v}");
        }
        assert_eq!(
            r.values.get("prove.ms").copied().unwrap_or(0.0) > 0.0,
            name == "certify"
        );
    }
}
