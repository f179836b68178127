//! Property-style tests: randomly generated kernels must compile and the
//! generated hardware must match the golden-model interpreter bit for
//! bit, regardless of expression shape, widths, or pipelining depth.
//!
//! Randomness comes from the in-tree deterministic PRNG
//! (`roccc_suite::testrand`) — every case is replayable from the seed
//! printed in a failure message, and the suite runs fully offline.

use roccc_suite::cparse::{frontend, IntType, Interpreter};
use roccc_suite::netlist::NetlistSim;
use roccc_suite::roccc::{compile, CompileOptions};
use roccc_suite::testrand::exprgen::gen_expr;
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

const CASES: u64 = 48;

/// Random straight-line kernels: hardware == software for random inputs.
#[test]
fn random_expression_kernels_match_golden() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x1000 + case);
        let e = gen_expr(&mut rng, 3);
        let period = [1000.0f64, 6.0, 3.0][rng.gen_index(3)];
        let src = format!(
            "void k(int a, int b, int c, int* o) {{ *o = {}; }}",
            e.to_c()
        );
        let prog = frontend(&src).expect("generated source is valid");
        let opts = CompileOptions {
            target_period_ns: period,
            ..CompileOptions::default()
        };
        let hw = compile(&src, "k", &opts).expect("generated source compiles");
        let mut sim = NetlistSim::new(&hw.netlist);
        let args_list: Vec<Vec<i64>> = (0..4)
            .map(|_| (0..3).map(|_| rng.gen_range(-5000, 4999)).collect())
            .collect();
        let outs = sim.run_stream(&args_list).expect("simulates");
        for (args, hw_out) in args_list.iter().zip(&outs) {
            let mut interp = Interpreter::new(&prog);
            let golden = interp.call("k", args, &mut HashMap::new()).unwrap();
            assert_eq!(
                hw_out[0], golden.outputs["o"],
                "case {case} (src {src}) inputs {args:?}"
            );
        }
    }
}

/// Branchy kernels (if/else writing a scalar) match on both paths.
#[test]
fn random_branchy_kernels_match_golden() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2000 + case);
        let c = gen_expr(&mut rng, 2);
        let t = gen_expr(&mut rng, 2);
        let f = gen_expr(&mut rng, 2);
        let src = format!(
            "void k(int a, int b, int c, int* o) {{
               int x;
               if ({}) {{ x = {}; }} else {{ x = {}; }}
               *o = x; }}",
            c.to_c(),
            t.to_c(),
            f.to_c()
        );
        let prog = frontend(&src).expect("valid");
        let hw = compile(&src, "k", &CompileOptions::default()).expect("compiles");
        let mut sim = NetlistSim::new(&hw.netlist);
        let args_list: Vec<Vec<i64>> = (0..3)
            .map(|_| (0..3).map(|_| rng.gen_range(-999, 998)).collect())
            .collect();
        let outs = sim.run_stream(&args_list).expect("simulates");
        for (args, hw_out) in args_list.iter().zip(&outs) {
            let mut interp = Interpreter::new(&prog);
            let golden = interp.call("k", args, &mut HashMap::new()).unwrap();
            assert_eq!(hw_out[0], golden.outputs["o"], "case {case} args {args:?}");
        }
    }
}

/// Narrow output ports wrap exactly like C stores.
#[test]
fn narrow_ports_wrap_like_c() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x3000 + case);
        let e = gen_expr(&mut rng, 2);
        let ty = IntType {
            signed: rng.gen_bool(),
            bits: rng.gen_range(1, 16) as u8,
        };
        let a = rng.gen_range(-100_000, 100_000);
        let b = rng.gen_range(-100_000, 100_000);
        let src = format!(
            "void k(int a, int b, int c, {ty}* o) {{ *o = {}; }}",
            e.to_c()
        );
        let prog = frontend(&src).expect("valid");
        let hw = compile(&src, "k", &CompileOptions::default()).expect("compiles");
        let mut sim = NetlistSim::new(&hw.netlist);
        let outs = sim.run_stream(&[vec![a, b, 7]]).expect("simulates");
        let mut interp = Interpreter::new(&prog);
        let golden = interp.call("k", &[a, b, 7], &mut HashMap::new()).unwrap();
        assert_eq!(outs[0][0], golden.outputs["o"], "case {case} src {src}");
        // And the value is in the port's range.
        assert!(
            outs[0][0] >= ty.min_value() && outs[0][0] <= ty.max_value(),
            "case {case}: {} out of {ty} range",
            outs[0][0]
        );
    }
}

/// Deeply nested branch pyramids still match the golden model.
#[test]
fn nested_branch_pyramids_match_golden() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x4000 + case);
        let depth = rng.gen_range(1, 4) as usize;
        let a = rng.gen_range(-50, 49);
        let b = rng.gen_range(-50, 49);
        // Build a nest: if (a > k) { ... } else { x -= k; } at each level.
        let mut body = String::from("x = x + a * b;");
        for k in 0..depth {
            body = format!("if (a > {k}) {{ {body} }} else {{ x = x - {k}; }}");
        }
        let src = format!("void k(int a, int b, int* o) {{ int x = 1; {body} *o = x; }}");
        let prog = frontend(&src).expect("valid");
        let hw = compile(&src, "k", &CompileOptions::default()).expect("compiles");
        let mut sim = NetlistSim::new(&hw.netlist);
        let outs = sim.run_stream(&[vec![a, b]]).expect("simulates");
        let mut interp = Interpreter::new(&prog);
        let golden = interp.call("k", &[a, b], &mut HashMap::new()).unwrap();
        assert_eq!(outs[0][0], golden.outputs["o"], "case {case} a={a} b={b}");
    }
}

/// IntType::wrap is idempotent and stays in range.
#[test]
fn wrap_is_idempotent() {
    let mut rng = XorShift64::new(0x5000);
    for case in 0..2000 {
        let v = rng.next_u64() as i64;
        let t = IntType {
            signed: rng.gen_bool(),
            bits: rng.gen_range(1, 63) as u8,
        };
        let w = t.wrap(v);
        assert_eq!(t.wrap(w), w, "case {case} {t} {v}");
        assert!(w >= t.min_value() && w <= t.max_value(), "case {case}");
        // Congruence modulo 2^bits.
        let m = 1i128 << t.bits;
        assert_eq!(
            ((v as i128) - (w as i128)).rem_euclid(m),
            0,
            "case {case} {t} {v}"
        );
    }
}

/// The smart buffer delivers every window of the scan, in order, with
/// each element fetched exactly once.
#[test]
fn smart_buffer_reuse_property() {
    use roccc_suite::buffers::{AddressGen1d, DimScan, SmartBuffer1d};
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x6000 + case);
        let len = rng.gen_range(8, 63) as usize;
        let window = rng.gen_range(1, 5) as usize;
        let stride = rng.gen_range(1, 3) as usize;
        if len <= window {
            continue;
        }
        let positions = (len - window) / stride + 1;
        let scan = DimScan {
            start: 0,
            bound: (positions as i64 - 1) * stride as i64 + 1,
            step: stride as i64,
            extent: window,
        };
        let data: Vec<i64> = (0..len as i64).map(|x| x * 7 - 3).collect();
        let mut sb = SmartBuffer1d::new(window, stride, 0);
        let mut got = Vec::new();
        for addr in AddressGen1d::new(scan) {
            sb.push(addr, data[addr as usize]);
            while let Some(w) = sb.pop_window() {
                got.push(w);
            }
        }
        assert_eq!(got.len(), positions, "case {case}");
        for (k, w) in got.iter().enumerate() {
            let base = k * stride;
            let expect: Vec<i64> = (base..base + window).map(|i| data[i]).collect();
            assert_eq!(w, &expect, "case {case} window {k}");
        }
        // Exactly-once fetching.
        let touched = (positions - 1) * stride + window;
        assert!(sb.stats().fetched <= touched as u64, "case {case}");
    }
}

/// The 2-D line buffer delivers every window position of a row-major
/// image scan, in scan order and with the right elements, and fetches
/// each touched element exactly once.
#[test]
fn smart_buffer_2d_reuse_property() {
    use roccc_suite::buffers::{AddressGen2d, DimScan, SmartBuffer2d};
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x6800 + case);
        let dim = |rng: &mut XorShift64| {
            let start = rng.gen_range(0, 2);
            let step = rng.gen_range(1, 3);
            let positions = rng.gen_range(1, 9);
            DimScan {
                start,
                bound: start + (positions - 1) * step + 1,
                step,
                extent: rng.gen_range(1, 5) as usize,
            }
        };
        let rows = dim(&mut rng);
        let cols = dim(&mut rng);
        let width = (cols.last_touched() + 1 + rng.gen_range(0, 4)) as usize;
        let img: Vec<i64> = (0..(rows.last_touched() + 1) * width as i64)
            .map(|x| x * 13 - 400)
            .collect();
        let mut sb = SmartBuffer2d::new(
            rows.extent,
            cols.extent,
            rows.step as usize,
            cols.step as usize,
            rows.start,
            rows.bound,
            cols.start,
            cols.bound,
            width,
        );
        let mut got = Vec::new();
        let gen = AddressGen2d::new(rows, cols, width);
        let total = gen.total();
        for flat in gen {
            sb.push_flat(flat, img[flat as usize]);
            while let Some(w) = sb.pop_window() {
                got.push(w);
            }
        }
        let mut expect = Vec::new();
        for r in (rows.start..rows.bound).step_by(rows.step as usize) {
            for c in (cols.start..cols.bound).step_by(cols.step as usize) {
                let w: Vec<i64> = (r..r + rows.extent as i64)
                    .flat_map(|y| (c..c + cols.extent as i64).map(move |x| (y, x)))
                    .map(|(y, x)| img[(y * width as i64 + x) as usize])
                    .collect();
                expect.push(w);
            }
        }
        assert_eq!(
            got, expect,
            "case {case} rows {rows:?} cols {cols:?} width {width}"
        );
        // Exactly-once fetching of the touched rectangle.
        assert_eq!(sb.stats().fetched, total, "case {case}");
        assert_eq!(sb.stats().windows, rows.positions() * cols.positions());
    }
}
