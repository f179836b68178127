//! Integration tests for the `roccc-verify` static verifier.
//!
//! Two directions, per the verifier's contract:
//!
//! * **positive sweep** — every paper kernel and a battery of generated
//!   kernels must compile *clean* under `VerifyLevel::Deny` (the level is
//!   set explicitly because the default is profile-dependent);
//! * **negative fixtures** — corrupting a compiled artifact must fire the
//!   specific check that guards the broken invariant, for each check
//!   family across all three phases (IR, data path, netlist).
//!
//! Plus the feedback-staging regression: every `LPR → … → SNX` path of an
//! accumulator kernel lands in a single pipeline stage, and breaking that
//! fires `D005-feedback-stage-split`.

use roccc_suite::datapath::{OpId, Value};
use roccc_suite::hlir::deps::{DepKind, DimDist};
use roccc_suite::ipcores::table::benchmarks;
use roccc_suite::netlist::cells::{Cell, CellKind};
use roccc_suite::netlist::NetlistSim;
use roccc_suite::roccc::{compile, compile_with_model, CompileOptions, VerifyLevel};
use roccc_suite::suifvm::deps::DepEdge;
use roccc_suite::suifvm::ir::{BlockId, Opcode, Terminator, VReg};
use roccc_suite::synth::VirtexII;
use roccc_suite::testrand::exprgen::gen_kernel_source;
use roccc_suite::testrand::XorShift64;
use roccc_suite::verify::{
    verify_datapath, verify_deps, verify_ir, verify_netlist, Diagnostic, Severity,
};

fn deny(period_ns: f64) -> CompileOptions {
    CompileOptions {
        target_period_ns: period_ns,
        verify: VerifyLevel::Deny,
        ..CompileOptions::default()
    }
}

fn has(diags: &[Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

const SCALAR: &str = "void k(int a, int b, int c, int* o) { *o = (a * b) * (a + b) * c + a; }";

const BRANCHY: &str = "void k(int a, int b, int* o) {
  int x;
  if (a < b) { x = a * 3; } else { x = b - a; }
  *o = x + 1;
}";

// ---------------------------------------------------------------------
// Positive sweep
// ---------------------------------------------------------------------

/// All nine Table 1 kernels compile clean under `--deny-warnings`.
#[test]
fn paper_kernels_verify_clean_under_deny() {
    for b in benchmarks() {
        let opts = CompileOptions {
            verify: VerifyLevel::Deny,
            ..b.opts.clone()
        };
        let model = VirtexII::with_mult_style(b.mult_style);
        let hw = compile_with_model(&b.source, b.func, &opts, &model)
            .unwrap_or_else(|e| panic!("{}: verification failed: {e}", b.name));
        assert!(
            hw.diagnostics.is_empty(),
            "{}: {:?}",
            b.name,
            hw.diagnostics
        );
        // Re-running the verifier standalone agrees.
        assert!(verify_ir(&hw.ir).is_empty(), "{}", b.name);
        assert!(verify_datapath(&hw.datapath).is_empty(), "{}", b.name);
        assert!(verify_netlist(&hw.netlist).is_empty(), "{}", b.name);
    }
}

/// Randomly generated kernels compile clean under deny, at several
/// pipeline depths.
#[test]
fn generated_kernels_verify_clean_under_deny() {
    for case in 0..32u64 {
        let mut rng = XorShift64::new(0x7e51 + case);
        let src = gen_kernel_source(&mut rng, 3);
        let period = [1000.0f64, 6.0, 3.0][rng.gen_index(3)];
        let hw = compile(&src, "k", &deny(period))
            .unwrap_or_else(|e| panic!("case {case} (src {src}): {e}"));
        assert!(
            hw.diagnostics.is_empty(),
            "case {case}: {:?}",
            hw.diagnostics
        );
    }
}

/// Bit-width soundness, dynamically: the narrowed netlist computes the
/// same outputs as the un-narrowed one on the reference simulator — the
/// runtime counterpart of the static `D006`/`D007` width checks. The two
/// can differ in pipeline depth, so they are compared stream to stream.
#[test]
fn narrowed_widths_preserve_eval_semantics() {
    for case in 0..24u64 {
        let mut rng = XorShift64::new(0xa11 + case);
        let src = gen_kernel_source(&mut rng, 3);
        let narrowed = compile(&src, "k", &deny(6.0)).expect("compiles narrowed");
        let wide = compile(
            &src,
            "k",
            &CompileOptions {
                narrow: false,
                ..deny(6.0)
            },
        )
        .expect("compiles wide");
        let iters: Vec<Vec<i64>> = (0..8)
            .map(|_| (0..3).map(|_| rng.gen_range(-5000, 4999)).collect())
            .collect();
        assert_eq!(
            NetlistSim::new(&narrowed.netlist).run_stream(&iters),
            NetlistSim::new(&wide.netlist).run_stream(&iters),
            "case {case} (src {src}) args {iters:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Negative fixtures: SuifVM IR
// ---------------------------------------------------------------------

#[test]
fn corrupt_ir_bad_edge_fires_s001() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    let last = ir.blocks.len() - 1;
    ir.blocks[last].term = Terminator::Jump(BlockId(99));
    assert!(has(&verify_ir(&ir), "S001-bad-edge"));
}

#[test]
fn corrupt_ir_out_of_range_vreg_fires_s003() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    let instr = ir
        .blocks
        .iter_mut()
        .flat_map(|b| b.instrs.iter_mut())
        .find(|i| !i.srcs.is_empty())
        .expect("an instruction with sources");
    instr.srcs[0] = VReg(u32::MAX);
    assert!(has(&verify_ir(&ir), "S003-invalid-vreg"));
}

#[test]
fn corrupt_ir_duplicate_def_fires_s004() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    assert!(ir.is_ssa, "pipeline output is SSA");
    let victim = *ir.blocks[0]
        .instrs
        .iter()
        .find(|i| i.dst.is_some())
        .expect("a defining instruction");
    ir.blocks[0].instrs.push(victim);
    assert!(has(&verify_ir(&ir), "S004-multiple-def"));
}

#[test]
fn corrupt_ir_undefined_vreg_fires_s005() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    // A fresh register that exists in the type table but is never defined.
    let ghost = VReg(ir.vreg_types.len() as u32);
    ir.vreg_types.push(roccc_suite::cparse::IntType::int());
    let last = ir.blocks.len() - 1;
    let instr = ir.blocks[last]
        .instrs
        .iter_mut()
        .find(|i| !i.srcs.is_empty())
        .expect("an instruction with sources");
    instr.srcs[0] = ghost;
    assert!(has(&verify_ir(&ir), "S005-undefined-vreg"));
}

#[test]
fn corrupt_ir_phi_arity_fires_s007() {
    let mut ir = compile(BRANCHY, "k", &deny(1000.0)).unwrap().ir;
    let phi = ir
        .blocks
        .iter_mut()
        .flat_map(|b| b.phis.iter_mut())
        .next()
        .expect("branchy kernel keeps a phi at the join");
    let arg = phi.args[0];
    phi.args.push(arg);
    assert!(has(&verify_ir(&ir), "S007-phi-arity"));
}

// ---------------------------------------------------------------------
// Negative fixtures: data path
// ---------------------------------------------------------------------

#[test]
fn corrupt_datapath_self_loop_fires_d001() {
    let mut dp = compile(SCALAR, "k", &deny(1000.0)).unwrap().datapath;
    let i = dp
        .ops
        .iter()
        .position(|o| !o.srcs.is_empty())
        .expect("an op with sources");
    dp.ops[i].srcs[0] = Value::Op(OpId(i as u32));
    assert!(has(&verify_datapath(&dp), "D001-comb-cycle"));
}

#[test]
fn corrupt_datapath_stage_inversion_fires_d003() {
    // A tight period forces multiple stages, so an inversion is expressible
    // without going out of stage range.
    let mut dp = compile(SCALAR, "k", &deny(4.0)).unwrap().datapath;
    assert!(dp.num_stages > 1, "deep pipeline expected");
    let (consumer, producer) = dp
        .ops
        .iter()
        .enumerate()
        .find_map(|(i, o)| {
            o.srcs.iter().find_map(|s| match s {
                Value::Op(p) if dp.ops[p.0 as usize].stage + 1 < dp.num_stages => {
                    Some((i, p.0 as usize))
                }
                _ => None,
            })
        })
        .expect("an op consuming another op's result");
    dp.ops[producer].stage = dp.ops[consumer].stage + 1;
    assert!(has(&verify_datapath(&dp), "D003-stage-inversion"));
}

#[test]
fn corrupt_datapath_zero_width_fires_d006() {
    let mut dp = compile(SCALAR, "k", &deny(1000.0)).unwrap().datapath;
    dp.ops[0].hw_bits = 0;
    assert!(has(&verify_datapath(&dp), "D006-width-bounds"));
}

#[test]
fn corrupt_datapath_starved_width_fires_d007() {
    let mut dp = compile(SCALAR, "k", &deny(1000.0)).unwrap().datapath;
    // Starve the op driving the 32-bit output down to one bit: the
    // backward-demand check must notice the producer is too narrow.
    let out = dp.outputs[0].value;
    let Value::Op(id) = out else {
        panic!("output driven by an op");
    };
    dp.ops[id.0 as usize].hw_bits = 1;
    assert!(has(&verify_datapath(&dp), "D007-width-demand"));
}

// ---------------------------------------------------------------------
// Negative fixtures: netlist
// ---------------------------------------------------------------------

#[test]
fn corrupt_netlist_undriven_reg_fires_n001() {
    let mut nl = compile(SCALAR, "k", &deny(4.0)).unwrap().netlist;
    let i = nl
        .cells
        .iter()
        .position(|c| matches!(c.kind, CellKind::Reg { d: Some(_), .. }))
        .expect("a driven register");
    if let CellKind::Reg { d, .. } = &mut nl.cells[i].kind {
        *d = None;
    }
    assert!(has(&verify_netlist(&nl), "N001-undriven-reg"));
}

#[test]
fn corrupt_netlist_self_loop_fires_n003() {
    let mut nl = compile(SCALAR, "k", &deny(1000.0)).unwrap().netlist;
    let i = nl
        .cells
        .iter()
        .position(|c| matches!(&c.kind, CellKind::Op { srcs, .. } if !srcs.is_empty()))
        .expect("an op cell with sources");
    if let CellKind::Op { srcs, .. } = &mut nl.cells[i].kind {
        srcs[0] = roccc_suite::netlist::cells::CellId(i as u32);
    }
    assert!(has(&verify_netlist(&nl), "N003-comb-loop"));
}

#[test]
fn corrupt_netlist_zero_width_fires_n006() {
    let mut nl = compile(SCALAR, "k", &deny(1000.0)).unwrap().netlist;
    nl.cells[0].width = 0;
    assert!(has(&verify_netlist(&nl), "N006-width-bounds"));
}

#[test]
fn dead_netlist_cell_is_a_warning_not_an_error() {
    let mut nl = compile(SCALAR, "k", &deny(1000.0)).unwrap().netlist;
    nl.add(Cell {
        kind: CellKind::Const(5),
        width: 4,
        signed: false,
    });
    let findings = verify_netlist(&nl);
    let dead: Vec<_> = findings
        .iter()
        .filter(|d| d.code == "N007-dead-cell")
        .collect();
    assert!(!dead.is_empty(), "{findings:?}");
    assert!(dead.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        findings.iter().all(|d| d.severity == Severity::Warning),
        "only warnings expected: {findings:?}"
    );
}

// ---------------------------------------------------------------------
// Feedback staging regression (satellite: LPR → … → SNX in one stage)
// ---------------------------------------------------------------------

/// Every `LPR → … → SNX` feedback path of the accumulator kernel lands in
/// a single pipeline stage (the latch and the read agree), and breaking
/// that staging fires `D005-feedback-stage-split`.
#[test]
fn feedback_paths_land_in_single_stage() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "mul_acc")
        .expect("accumulator benchmark exists");
    let opts = CompileOptions {
        verify: VerifyLevel::Deny,
        ..b.opts.clone()
    };
    let hw = compile(&b.source, b.func, &opts).expect("accumulator compiles under deny");
    let dp = &hw.datapath;
    assert!(!dp.feedback.is_empty(), "accumulator has a feedback latch");
    for (slot_idx, (_, snx_src)) in dp.feedback.iter().enumerate() {
        let latch_stage = dp.stage_of(*snx_src);
        for op in dp.ops.iter().filter(|o| o.op == Opcode::Lpr) {
            if op.imm as usize == slot_idx {
                assert_eq!(
                    op.stage, latch_stage,
                    "slot {slot_idx}: LPR read and SNX latch must share a stage"
                );
            }
        }
    }

    // Break the invariant: move one LPR read off its latch stage.
    let mut dp = hw.datapath.clone();
    let lpr = dp
        .ops
        .iter()
        .position(|o| o.op == Opcode::Lpr)
        .expect("an LPR op");
    dp.ops[lpr].stage = (dp.ops[lpr].stage + 1) % dp.num_stages;
    assert!(has(&verify_datapath(&dp), "D005-feedback-stage-split"));
}

// ---------------------------------------------------------------------
// Negative fixtures: dependence graph / MinII (L0xx)
// ---------------------------------------------------------------------

/// A compiled kernel whose graph has memory edges (fir reads a window
/// and writes two output arrays).
fn fir_compiled() -> roccc_suite::roccc::Compiled {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "fir")
        .expect("fir benchmark exists");
    compile(&b.source, b.func, &b.opts).expect("fir compiles")
}

/// A compiled kernel whose graph has a recurrence (the accumulator).
fn acc_compiled() -> roccc_suite::roccc::Compiled {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "mul_acc")
        .expect("accumulator benchmark exists");
    compile(&b.source, b.func, &b.opts).expect("accumulator compiles")
}

/// Every paper kernel's dependence graph re-verifies clean.
#[test]
fn paper_kernel_dep_graphs_verify_clean() {
    for b in benchmarks() {
        let hw = compile(&b.source, b.func, &b.opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
        assert!(findings.is_empty(), "{}: {findings:?}", b.name);
    }
}

#[test]
fn corrupt_deps_bad_edge_endpoint_fires_l001() {
    let mut hw = fir_compiled();
    hw.deps.edges.push(DepEdge {
        src: 999,
        dst: 0,
        kind: DepKind::Flow,
        dist: vec![DimDist::Eq(0); hw.deps.dims.len()],
        carried: false,
    });
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L001-malformed-graph"
    ));
}

#[test]
fn corrupt_deps_wrong_dist_rank_fires_l001() {
    let mut hw = fir_compiled();
    assert!(hw.deps.accesses.len() >= 2, "fir has several accesses");
    // Valid endpoints, but one distance entry too many for the dims.
    hw.deps.edges.push(DepEdge {
        src: 0,
        dst: 1,
        kind: DepKind::Flow,
        dist: vec![DimDist::Eq(0); hw.deps.dims.len() + 1],
        carried: false,
    });
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L001-malformed-graph"
    ));
}

#[test]
fn corrupt_deps_zero_distance_recurrence_fires_l001() {
    let mut hw = acc_compiled();
    assert!(
        !hw.deps.recurrences.is_empty(),
        "accumulator has a recurrence"
    );
    hw.deps.recurrences[0].distance = 0;
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L001-malformed-graph"
    ));
}

#[test]
fn corrupt_deps_phantom_edge_fires_l002() {
    // A compiled kernel's surviving edge list is empty (every pair the
    // extractor accepts is proven independent) — a structurally
    // well-formed phantom edge must still fail the recomputation.
    let mut hw = fir_compiled();
    assert!(hw.deps.accesses.len() >= 2, "fir has several accesses");
    hw.deps.edges.push(DepEdge {
        src: 0,
        dst: 1,
        kind: DepKind::Flow,
        dist: vec![DimDist::Eq(0); hw.deps.dims.len()],
        carried: false,
    });
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L002-edge-mismatch"), "{findings:?}");
    assert!(!has(&findings, "L001-malformed-graph"), "{findings:?}");
}

#[test]
fn corrupt_deps_flipped_access_fires_l002() {
    let mut hw = fir_compiled();
    assert!(!hw.deps.accesses.is_empty(), "fir has accesses");
    hw.deps.accesses[0].write = !hw.deps.accesses[0].write;
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L002-edge-mismatch"
    ));
}

#[test]
fn corrupt_deps_dropped_recurrence_fires_l003() {
    let mut hw = acc_compiled();
    assert!(
        !hw.deps.recurrences.is_empty(),
        "accumulator has a recurrence"
    );
    hw.deps.recurrences.clear();
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L003-missing-recurrence"), "{findings:?}");
}

#[test]
fn corrupt_deps_phantom_recurrence_fires_l003() {
    // fir has feedback-free hardware: any listed recurrence is phantom.
    let mut hw = fir_compiled();
    let mut acc = acc_compiled();
    assert!(!acc.deps.recurrences.is_empty());
    hw.deps.recurrences.push(acc.deps.recurrences.remove(0));
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L003-missing-recurrence"), "{findings:?}");
}

#[test]
fn corrupt_deps_wrong_min_ii_fires_l004() {
    let mut hw = fir_compiled();
    hw.deps.min_ii += 3;
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L004-mii-inconsistent"
    ));
}

#[test]
fn corrupt_deps_wrong_recurrence_mii_fires_l004() {
    let mut hw = acc_compiled();
    assert!(!hw.deps.recurrences.is_empty());
    hw.deps.recurrences[0].mii += 1;
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L004-mii-inconsistent"), "{findings:?}");
}

#[test]
fn corrupt_kernel_duplicate_write_fires_l005() {
    let mut hw = fir_compiled();
    let dup = hw.kernel.outputs[0].writes[0].clone();
    hw.kernel.outputs[0].writes.push(dup);
    // Two writes with identical subscripts collide at distance 0.
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L005-overlapping-writes"
    ));
}
