//! Semantic-preservation battery for the loop-level transformations, run
//! through the *hardware*: every transform option must produce circuits
//! that still match the untransformed golden model.

use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::roccc::{compile, CompileOptions, UnrollStrategy};
use std::collections::HashMap;

const MAP_KERNEL: &str = "void scale(int16 A[32], int16 B[32]) { int i;
  for (i = 0; i < 32; i++) { B[i] = A[i] * 5 - 7; } }";

fn golden_map(src: &str, func: &str, a: &[i64], out: &str, out_len: usize) -> Vec<i64> {
    let prog = frontend(src).unwrap();
    let mut arrays = HashMap::new();
    arrays.insert("A".to_string(), a.to_vec());
    arrays.insert(out.to_string(), vec![0; out_len]);
    Interpreter::new(&prog)
        .call(func, &[], &mut arrays)
        .unwrap();
    arrays[out].clone()
}

#[test]
fn partial_unroll_factors_preserve_hardware_semantics() {
    let a: Vec<i64> = (0..32).map(|x| x * 3 - 40).collect();
    let expect = golden_map(MAP_KERNEL, "scale", &a, "B", 32);
    for factor in [2, 4, 8] {
        let hw = compile(
            MAP_KERNEL,
            "scale",
            &CompileOptions {
                unroll: UnrollStrategy::Partial(factor),
                ..CompileOptions::default()
            },
        )
        .unwrap();
        // Unrolling widens the window: `factor` outputs per iteration.
        assert_eq!(
            hw.datapath.throughput_per_cycle(),
            factor as usize,
            "factor {factor}"
        );
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a.clone());
        let run = hw.run(&arrays, &HashMap::new()).unwrap();
        assert_eq!(run.arrays["B"], expect, "factor {factor}");
    }
}

#[test]
fn unroll_reduces_iteration_count() {
    let hw1 = compile(MAP_KERNEL, "scale", &CompileOptions::default()).unwrap();
    let hw4 = compile(
        MAP_KERNEL,
        "scale",
        &CompileOptions {
            unroll: UnrollStrategy::Partial(4),
            ..CompileOptions::default()
        },
    )
    .unwrap();
    assert_eq!(hw1.kernel.total_iterations(), 32);
    assert_eq!(hw4.kernel.total_iterations(), 8);
}

#[test]
fn fusion_merges_compatible_loops_end_to_end() {
    let src = "void two(int16 A[16], int16 B[16], int16 C[16], int16 D[16]) {
      int i; int j;
      for (i = 0; i < 16; i++) { B[i] = A[i] + 1; }
      for (j = 0; j < 16; j++) { D[j] = C[j] * 2; } }";
    let hw = compile(
        src,
        "two",
        &CompileOptions {
            fuse: true,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    // One fused loop: both outputs per iteration.
    assert_eq!(hw.kernel.outputs.len(), 2);
    assert_eq!(hw.kernel.dims.len(), 1);

    let a: Vec<i64> = (0..16).collect();
    let c: Vec<i64> = (0..16).map(|x| 50 - x).collect();
    let mut arrays = HashMap::new();
    arrays.insert("A".to_string(), a.clone());
    arrays.insert("C".to_string(), c.clone());
    let run = hw.run(&arrays, &HashMap::new()).unwrap();
    let expect_b: Vec<i64> = a.iter().map(|x| x + 1).collect();
    let expect_d: Vec<i64> = c.iter().map(|x| x * 2).collect();
    assert_eq!(run.arrays["B"], expect_b);
    assert_eq!(run.arrays["D"], expect_d);
}

#[test]
fn optimization_levels_agree() {
    // With and without the SSA-level optimizer, hardware results match.
    let src = "void k(int a, int b, int* o) {
      int t = a * 8 + b * 8;
      int u = (a + b) * 8;
      *o = t - u + (a & 0) + (b | 0); }";
    let prog = frontend(src).unwrap();
    for optimize in [true, false] {
        let hw = compile(
            src,
            "k",
            &CompileOptions {
                optimize,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let mut sim = roccc_suite::netlist::NetlistSim::new(&hw.netlist);
        let outs = sim.run_stream(&[vec![13, -7]]).unwrap();
        let mut interp = Interpreter::new(&prog);
        let golden = interp.call("k", &[13, -7], &mut HashMap::new()).unwrap();
        assert_eq!(outs[0][0], golden.outputs["o"], "optimize={optimize}");
    }
}

#[test]
fn optimizer_shrinks_the_datapath() {
    let src = "void k(int a, int b, int* o) { *o = (a + b) * (a + b) + (a + b); }";
    let on = compile(src, "k", &CompileOptions::default()).unwrap();
    let off = compile(
        src,
        "k",
        &CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    assert!(
        on.datapath.ops.len() <= off.datapath.ops.len(),
        "optimized {} vs unoptimized {}",
        on.datapath.ops.len(),
        off.datapath.ops.len()
    );
}

#[test]
fn compound_assignment_accumulator_runs() {
    let src = "void acc2(int A[8], int* out) { int s = 0; int i;
      for (i = 0; i < 8; i++) { s += A[i] * 3; } *out = s; }";
    let hw = compile(src, "acc2", &CompileOptions::default()).unwrap();
    assert_eq!(hw.kernel.feedback[0].name, "s");
    let a: Vec<i64> = (0..8).map(|x| 10 - x).collect();
    let mut arrays = HashMap::new();
    arrays.insert("A".to_string(), a.clone());
    let run = hw.run(&arrays, &HashMap::new()).unwrap();
    assert_eq!(run.scalars["s"], a.iter().map(|x| x * 3).sum::<i64>());
}

#[test]
fn one_bit_feedback_toggle_runs() {
    // A 1-bit loop-carried toggle: the narrowest possible feedback latch.
    let src = "void toggle(uint1 X[8], uint1 Y[8]) {
      uint1 t = 0; int i;
      for (i = 0; i < 8; i++) { Y[i] = t ^ X[i]; t = t ^ 1; } }";
    let hw = compile(src, "toggle", &CompileOptions::default()).unwrap();
    assert_eq!(hw.kernel.feedback[0].ty.bits, 1);
    let x: Vec<i64> = vec![1, 0, 1, 1, 0, 0, 1, 0];
    let mut arrays = HashMap::new();
    arrays.insert("X".to_string(), x.clone());
    let run = hw.run(&arrays, &HashMap::new()).unwrap();
    let expect: Vec<i64> = x
        .iter()
        .enumerate()
        .map(|(i, v)| (i as i64 % 2) ^ v)
        .collect();
    assert_eq!(run.arrays["Y"], expect);
}

#[test]
fn strided_scan_kernel_runs() {
    // Decimating filter: window 3, stride 2 (smart buffer cleans dead data).
    let src = "void dec(int16 A[33], int16 B[16]) { int i;
      for (i = 0; i < 16; i = i + 1) {
        B[i] = A[i+i] ; } }";
    // `A[i+i]` is non-affine; the supported strided form keeps the loop
    // stride in the header instead.
    assert!(compile(src, "dec", &CompileOptions::default()).is_err());

    let src2 = "void dec(int16 A[33], int16 B[32]) { int i;
      for (i = 0; i < 31; i = i + 2) {
        B[i] = A[i] + A[i+1] + A[i+2]; } }";
    let hw = compile(src2, "dec", &CompileOptions::default()).unwrap();
    let a: Vec<i64> = (0..33).collect();
    let mut arrays = HashMap::new();
    arrays.insert("A".to_string(), a.clone());
    let run = hw.run(&arrays, &HashMap::new()).unwrap();
    let prog = frontend(src2).unwrap();
    let mut golden = HashMap::new();
    golden.insert("A".to_string(), a);
    golden.insert("B".to_string(), vec![0; 32]);
    Interpreter::new(&prog)
        .call("dec", &[], &mut golden)
        .unwrap();
    assert_eq!(run.arrays["B"], golden["B"]);
}

/// Compile fingerprint of one design-space candidate: the error text, or
/// the FNV-1a of the netlist's `Debug` rendering and of the VHDL.
fn sweep_fingerprint(src: &str, func: &str, opts: &CompileOptions) -> String {
    use roccc_suite::roccc::hash::Fnv64;
    let fnv = |text: &str| {
        let mut h = Fnv64::new();
        h.write(text.as_bytes());
        h.finish()
    };
    match compile(src, func, opts) {
        Ok(hw) => format!(
            "ok netlist={:016x} vhdl={:016x}",
            fnv(&format!("{:?}", hw.netlist)),
            fnv(&hw.to_vhdl())
        ),
        Err(e) => format!("err {}", e.to_string().replace('\n', "\\n")),
    }
}

/// Locks the HLIR transforms to their recorded behaviour over the whole
/// design-space sweep: fir, dct and wavelet × unroll {1,2,3,4,6,8} ×
/// strip {0,2,4,8}, every candidate's netlist and VHDL hash or error text
/// against `tests/fixtures/sweep_fingerprints.txt`. A deliberate change
/// to the compiler's output updates the differing lines the failure
/// prints.
#[test]
fn sweep_fingerprints_unchanged() {
    let rows = roccc_suite::ipcores::benchmarks();
    let mut actual = Vec::new();
    for name in ["fir", "dct", "wavelet"] {
        let b = rows.iter().find(|b| b.name == name).unwrap();
        for factor in [1u64, 2, 3, 4, 6, 8] {
            for strip in [0u64, 2, 4, 8] {
                let opts = CompileOptions {
                    unroll: if factor == 1 {
                        UnrollStrategy::Keep
                    } else {
                        UnrollStrategy::Partial(factor)
                    },
                    stripmine: (strip >= 2).then_some(strip),
                    ..CompileOptions::default()
                };
                let fp = sweep_fingerprint(&b.source, b.func, &opts);
                actual.push(format!("{name} u{factor} s{strip} {fp}"));
            }
        }
    }
    let fixture = include_str!("fixtures/sweep_fingerprints.txt");
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
        "{} of {} sweep fingerprints differ:\n{}",
        diff.len(),
        actual.len(),
        diff.join("\n")
    );
}
