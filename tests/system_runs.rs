//! Whole-system run fingerprints: every `SystemRun` field (output arrays,
//! exported scalars, cycles, fired iterations, memory reads and writes)
//! of every Table 1 loop kernel, a stride-1 3×3 image filter and the
//! exprgen loop kernels, at bus widths {1, 2, 8} and both the default and
//! the `--pipeline-ii auto` schedule (the generated kernels also at a
//! 3 ns target period, where recurrences schedule at II > 1), against
//! `tests/fixtures/system_runs.txt`.
//!
//! The cycle counts are the paper's throughput numbers, so any change to
//! the BRAM / address generator / smart buffer layer or to the system
//! cycle loop must leave every line unchanged. A failure prints the
//! differing lines.

use roccc_suite::datapath::{DelayModel, ResourceBudget};
use roccc_suite::roccc::{compile, compile_with_model, CompileOptions};
use roccc_suite::suifvm::ir::Opcode;
use roccc_suite::synth::VirtexII;
use roccc_suite::testrand::exprgen::{gen_loop_kernel, gen_recurrence_kernel};
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

const BLUR3: &str = "void blur(int16 X[10][10], int16 Y[10][10]) {
  int i; int j;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      Y[i][j] = (X[i][j] + X[i][j+1] + X[i][j+2]
               + X[i+1][j] + X[i+1][j+1] + X[i+1][j+2]
               + X[i+2][j] + X[i+2][j+1] + X[i+2][j+2]) >> 3;
    }
  }
}";

/// Two variable multiplies per iteration, 1-D and 2-D: under a
/// one-multiplier budget they schedule at II 2, so windows back up in the
/// smart buffers between firings.
const MUL2_1D: &str = "void k(int16 A[24], int16 B[16]) {
  int i;
  for (i = 0; i < 16; i = i + 1) {
    B[i] = A[i] * A[i + 1] + A[i + 2] * A[i + 3] + A[i];
  }
}";

const MUL2_2D: &str = "void k(int16 X[9][9], int16 Y[8][8]) {
  int i; int j;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      Y[i][j] = X[i][j] * X[i][j+1] + X[i+1][j] * X[i+1][j+1] + X[i][j];
    }
  }
}";

/// The default delay model with a one-multiplier-block budget.
struct OneMultiplier;

impl DelayModel for OneMultiplier {
    fn delay_ns(&self, op: Opcode, width: u8, const_shift: bool) -> f64 {
        roccc_suite::datapath::DefaultDelayModel.delay_ns(op, width, const_shift)
    }
    fn resource_budget(&self) -> ResourceBudget {
        ResourceBudget {
            mult_blocks: Some(1),
        }
    }
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = i64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One kernel under one option set: a line per bus width, or one error
/// line when the compile is refused.
fn fingerprint(
    label: &str,
    compiled: Result<roccc_suite::roccc::Compiled, String>,
    seed: u64,
    out: &mut Vec<String>,
) {
    let hw = match compiled {
        Ok(hw) => hw,
        Err(e) => {
            out.push(format!("{label} compile-error {e}"));
            return;
        }
    };
    if hw.kernel.dims.is_empty() {
        return;
    }
    let mut rng = XorShift64::new(seed);
    let mut arrays = HashMap::new();
    for w in &hw.kernel.windows {
        let n: usize = w.dims.iter().product();
        arrays.insert(
            w.array.clone(),
            (0..n).map(|_| rng.sample_int(w.elem)).collect::<Vec<i64>>(),
        );
    }
    let scalars: HashMap<String, i64> = hw
        .kernel
        .scalar_inputs
        .iter()
        .map(|(n, t)| (n.clone(), rng.sample_int(*t)))
        .collect();
    for bus in [1usize, 2, 8] {
        let line = match hw.run_with_bus(&arrays, &scalars, bus) {
            Ok(run) => {
                let mut names: Vec<&String> = run.arrays.keys().collect();
                names.sort();
                let arrays: Vec<String> = names
                    .iter()
                    .map(|n| {
                        let a = &run.arrays[*n];
                        format!("{n}:{}:{:016x}", a.len(), fnv(a.iter().copied()))
                    })
                    .collect();
                let mut scalars: Vec<String> = run
                    .scalars
                    .iter()
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect();
                scalars.sort();
                format!(
                    "cycles={} fired={} reads={} writes={} arrays=[{}] scalars=[{}]",
                    run.cycles,
                    run.fired,
                    run.mem_reads,
                    run.mem_writes,
                    arrays.join(","),
                    scalars.join(",")
                )
            }
            Err(e) => format!("run-error {e}"),
        };
        out.push(format!("{label} bus{bus} {line}"));
    }
}

fn actual_lines() -> Vec<String> {
    let mut out = Vec::new();
    let auto = |o: &CompileOptions| CompileOptions {
        pipeline_ii: Some(0),
        ..o.clone()
    };
    for (i, b) in roccc_suite::ipcores::benchmarks().iter().enumerate() {
        let model = VirtexII::with_mult_style(b.mult_style);
        for (tag, opts) in [("default", b.opts.clone()), ("auto", auto(&b.opts))] {
            let hw =
                compile_with_model(&b.source, b.func, &opts, &model).map_err(|e| e.to_string());
            fingerprint(&format!("{} {tag}", b.name), hw, 0x5e5 + i as u64, &mut out);
        }
    }
    let mut generated: Vec<(String, String)> = vec![("blur3".into(), BLUR3.replace("blur", "k"))];
    for case in 0..6u64 {
        let mut rng = XorShift64::new(0xdead0 + case);
        let k = gen_loop_kernel(&mut rng, 2, 1 + case % 3, None);
        generated.push((format!("loop{case}"), k.source));
    }
    for distance in 1..=4u64 {
        let mut rng = XorShift64::new(0xd15 + distance * 16);
        let k = gen_recurrence_kernel(&mut rng, 2, distance);
        generated.push((format!("rec_d{distance}"), k.source));
    }
    for (i, (name, src)) in generated.iter().enumerate() {
        let base = CompileOptions::default();
        // A tight clock deepens the body so recurrences schedule at II > 1.
        let tight = CompileOptions {
            target_period_ns: 3.0,
            ..base.clone()
        };
        for (tag, opts) in [
            ("default", base.clone()),
            ("auto", auto(&base)),
            ("auto-p3", auto(&tight)),
        ] {
            let hw = compile(src, "k", &opts).map_err(|e| e.to_string());
            fingerprint(&format!("{name} {tag}"), hw, 0x9e0 + i as u64, &mut out);
        }
    }
    for (i, (name, src)) in [("mul2_1d", MUL2_1D), ("mul2_2d", MUL2_2D)]
        .iter()
        .enumerate()
    {
        let opts = CompileOptions {
            target_period_ns: 3.0,
            pipeline_ii: Some(0),
            ..CompileOptions::default()
        };
        let hw = compile_with_model(src, "k", &opts, &OneMultiplier).map_err(|e| e.to_string());
        let ii = hw
            .as_ref()
            .ok()
            .and_then(|h| h.schedule.as_ref())
            .map_or(0, |s| s.ii);
        fingerprint(
            &format!("{name} budget1-ii{ii}"),
            hw,
            0xb0d + i as u64,
            &mut out,
        );
    }
    out
}

#[test]
fn system_runs_unchanged() {
    let actual = actual_lines();
    let fixture = include_str!("fixtures/system_runs.txt");
    let expected: Vec<&str> = fixture.lines().collect();
    let diff: Vec<String> = (0..expected.len().max(actual.len()))
        .filter(|&i| expected.get(i).copied() != actual.get(i).map(String::as_str))
        .map(|i| {
            format!(
                "- {}\n+ {}",
                expected.get(i).copied().unwrap_or("<none>"),
                actual.get(i).map(String::as_str).unwrap_or("<none>")
            )
        })
        .collect();
    assert!(
        diff.is_empty(),
        "{} of {} system-run fingerprints differ:\n{}",
        diff.len(),
        actual.len(),
        diff.join("\n")
    );
}
