//! Operator conformance against literal values.
//!
//! Every concrete executor takes its operator values from one table,
//! `roccc_cparse::ops`, so the differential suites (interpreter vs IR
//! machine vs netlist engines) can no longer catch a wrong value there:
//! all sides would agree on it. This file checks the table and each
//! executor against hand-written words at the extremes instead.
//!
//! * The two dispatchers, `BinOp::eval` and `Opcode::eval`, and the
//!   prover's concrete evaluator run a table of `i64`-extreme cases.
//! * One-op kernels at `int32` extremes (the front end's widest type) run
//!   through the golden interpreter, the HLIR folder, the IR constant
//!   folder, the IR machine and the three netlist simulators. Each must
//!   return the expected word or apply its own fault policy: software
//!   executors trap with the fault's message, hardware executors produce
//!   a benign word (a zero divisor is still an error while a valid
//!   iteration occupies the divider).

use roccc_suite::cparse::ast::{BinOp, StmtKind};
use roccc_suite::cparse::ops::{self, Fault};
use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::hlir::fold::fold_function;
use roccc_suite::netlist::{CompiledSim, NetlistSim, SimPlan};
use roccc_suite::prove::term::{TOp, TermId, TermStore};
use roccc_suite::roccc::{compile, CompileOptions};
use roccc_suite::suifvm::ir::{FunctionIr, Opcode};
use roccc_suite::suifvm::opt::constant_fold;
use roccc_suite::suifvm::{lower_function, to_ssa, IrMachine};
use std::collections::HashMap;

const MIN: i64 = i64::MIN;
const MAX: i64 = i64::MAX;
const MIN32: i64 = -2147483648;
const MAX32: i64 = 2147483647;

use BinOp::*;
use Fault::*;

/// `(op, a, b, a op b)` at the `i64` extremes.
const I64_CASES: &[(BinOp, i64, i64, Result<i64, Fault>)] = &[
    (Add, MAX, 1, Ok(MIN)),
    (Sub, MIN, 1, Ok(MAX)),
    (Mul, MAX, 2, Ok(-2)),
    (Mul, MIN, -1, Ok(MIN)),
    (Div, MIN, -1, Ok(MIN)),
    (Rem, MIN, -1, Ok(0)),
    (Div, -7, 2, Ok(-3)),
    (Rem, -7, 2, Ok(-1)),
    (Div, MAX, 0, Err(DivByZero)),
    (Rem, MIN, 0, Err(RemByZero)),
    (Shl, 1, -1, Err(NegativeShift)),
    (Shl, -5, 0, Ok(-5)),
    (Shl, 1, 63, Ok(MIN)),
    (Shl, 3, 64, Ok(MIN)),
    (Shl, -1, 1000, Ok(MIN)),
    (Shr, -8, -1, Err(NegativeShift)),
    (Shr, MIN, 0, Ok(MIN)),
    (Shr, MIN, 63, Ok(-1)),
    (Shr, MAX, 64, Ok(0)),
    (Shr, -8, 1000, Ok(-1)),
    (Shr, 1000, 3, Ok(125)),
    (Lt, MIN, MAX, Ok(1)),
    (Lt, MAX, MIN, Ok(0)),
    (Le, MIN, MIN, Ok(1)),
    (Gt, MAX, MIN, Ok(1)),
    (Ge, MIN, MAX, Ok(0)),
    (Eq, MIN, MIN, Ok(1)),
    (Ne, MIN, MAX, Ok(1)),
    (BitAnd, MIN, -1, Ok(MIN)),
    (BitOr, MIN, MAX, Ok(-1)),
    (BitXor, -1, MAX, Ok(MIN)),
    (LogicalAnd, MIN, 2, Ok(1)),
    (LogicalAnd, 0, MAX, Ok(0)),
    (LogicalOr, 0, MIN, Ok(1)),
];

/// `(op, srcs, value)` for the opcodes with no C binary operator.
const OPCODE_CASES: &[(Opcode, [i64; 3], i64)] = &[
    (Opcode::Neg, [MIN, 0, 0], MIN),
    (Opcode::Neg, [MAX, 0, 0], MIN + 1),
    (Opcode::Not, [MIN, 0, 0], MAX),
    (Opcode::Not, [0, 0, 0], -1),
    (Opcode::Bool, [MIN, 0, 0], 1),
    (Opcode::Bool, [0, 0, 0], 0),
    (Opcode::Mov, [MIN, 0, 0], MIN),
    (Opcode::Mux, [MIN, 1, 2], 1),
    (Opcode::Mux, [0, 1, 2], 2),
];

/// `(op, a, b, a op b as i64, the same stored to an int32)`; the stored
/// word is unused for faulting rows.
type Int32Case = (BinOp, i64, i64, Result<i64, Fault>, i64);
const INT32_CASES: &[Int32Case] = &[
    (Add, MAX32, 1, Ok(2147483648), MIN32),
    (Sub, MIN32, 1, Ok(-2147483649), MAX32),
    (Mul, MAX32, MAX32, Ok(4611686014132420609), 1),
    (Div, MIN32, -1, Ok(2147483648), MIN32),
    (Rem, MIN32, -1, Ok(0), 0),
    (Div, MAX32, 0, Err(DivByZero), 0),
    (Rem, MIN32, 0, Err(RemByZero), 0),
    (Shl, 1, -1, Err(NegativeShift), 0),
    (Shl, -1, 0, Ok(-1), -1),
    (Shl, 1, 31, Ok(2147483648), MIN32),
    (Shl, -1, 63, Ok(MIN), 0),
    (Shl, 3, 64, Ok(MIN), 0),
    (Shl, MAX32, 1000, Ok(MIN), 0),
    (Shr, MIN32, -1, Err(NegativeShift), 0),
    (Shr, MIN32, 31, Ok(-1), -1),
    (Shr, MIN32, 64, Ok(-1), -1),
    (Shr, MAX32, 1000, Ok(0), 0),
    (Lt, MIN32, MAX32, Ok(1), 1),
    (Gt, MIN32, MAX32, Ok(0), 0),
    (Le, MAX32, MAX32, Ok(1), 1),
    (Ge, MIN32, MAX32, Ok(0), 0),
    (Eq, MIN32, MIN32, Ok(1), 1),
    (Ne, MIN32, MAX32, Ok(1), 1),
];

/// The LUT kernel's table and `(index, word)` reads.
const TABLE: [i64; 3] = [MIN32, 7, MAX32];
const LUT_CASES: &[(i64, Result<i64, Fault>)] = &[
    (-1, Err(NegativeLutIndex)),
    (0, Ok(MIN32)),
    (2, Ok(MAX32)),
    (3, Ok(0)),
    (MAX32, Ok(0)),
];

/// The opcode the IR carries for a C operator (`>`/`>=` lower to swapped
/// `<`/`<=`); `None` for the logical operators, which lower to several.
fn opcode_of(op: BinOp) -> Option<Opcode> {
    Some(match op {
        Add => Opcode::Add,
        Sub => Opcode::Sub,
        Mul => Opcode::Mul,
        Div => Opcode::Div,
        Rem => Opcode::Rem,
        Shl => Opcode::Shl,
        Shr => Opcode::Shr,
        Lt | Gt => Opcode::Slt,
        Le | Ge => Opcode::Sle,
        Eq => Opcode::Seq,
        Ne => Opcode::Sne,
        BitAnd => Opcode::And,
        BitOr => Opcode::Or,
        BitXor => Opcode::Xor,
        LogicalAnd | LogicalOr => return None,
    })
}

/// The prover's term for `a op b` over two input ports, built so the
/// smart constructors cannot fold it; `None` where the prover has no
/// such operator.
fn term_of(s: &mut TermStore, op: BinOp) -> Option<TermId> {
    let (a, b) = (s.var(0, 0), s.var(1, 0));
    Some(match op {
        Add => s.add(vec![a, b]),
        Sub => s.sub(a, b),
        Mul => s.mul(vec![a, b]),
        Div => s.op2(TOp::Div, a, b),
        Rem => s.op2(TOp::Rem, a, b),
        Shl => s.shl(a, b),
        Shr => s.shr(a, b),
        Lt => s.op2(TOp::Slt, a, b),
        Le => s.op2(TOp::Sle, a, b),
        Eq => s.op2(TOp::Seq, a, b),
        Ne => s.op2(TOp::Sne, a, b),
        BitAnd => s.bitwise(TOp::And, vec![a, b]),
        BitOr => s.bitwise(TOp::Or, vec![a, b]),
        BitXor => s.bitwise(TOp::Xor, vec![a, b]),
        Gt | Ge | LogicalAnd | LogicalOr => return None,
    })
}

/// The word a netlist engine produces for `expect` on operand `a`: a
/// negative shift amount shifts by 0 and a negative LUT index reads 0; a
/// zero divisor under a valid iteration is an error carrying the fault.
fn netlist_policy(expect: Result<i64, Fault>, a: i64) -> Result<i64, String> {
    match expect {
        Ok(v) => Ok(v),
        Err(NegativeShift) => Ok(a),
        Err(NegativeLutIndex) => Ok(0),
        Err(f @ (DivByZero | RemByZero)) => Err(format!("netlist simulation error: {f}")),
    }
}

/// The prover's concrete evaluator follows the netlist, and reads a zero
/// divisor as 0.
fn prove_policy(expect: Result<i64, Fault>, a: i64) -> i64 {
    netlist_policy(expect, a).unwrap_or(0)
}

fn prove_eval(s: &TermStore, t: TermId, vars: &[i64]) -> i64 {
    s.eval(t, vars, &[])
}

#[test]
fn dispatchers_match_the_literal_table() {
    for &(op, a, b, expect) in I64_CASES {
        assert_eq!(op.eval(a, b), expect, "BinOp {op}: {a} {op} {b}");
        if let Some(opc) = opcode_of(op).filter(|_| !matches!(op, Gt | Ge)) {
            assert_eq!(opc.eval(&[a, b, 0]), Some(expect), "Opcode {opc}: {a}, {b}");
        }
    }
    for &(opc, srcs, expect) in OPCODE_CASES {
        assert_eq!(opc.eval(&srcs), Some(Ok(expect)), "Opcode {opc} {srcs:?}");
    }
    for opc in [
        Opcode::Arg,
        Opcode::Ldc,
        Opcode::Cvt,
        Opcode::Lpr,
        Opcode::Snx,
        Opcode::Lut,
    ] {
        assert_eq!(opc.eval(&[1, 2, 3]), None, "{opc} is the executor's");
    }
    for &(idx, expect) in LUT_CASES {
        assert_eq!(ops::lut(&TABLE, idx), expect, "table[{idx}]");
    }
}

#[test]
fn prove_concrete_eval_matches_the_literal_table() {
    let mut s = TermStore::new(vec![], vec![]);
    for &(op, a, b, expect) in I64_CASES {
        if let Some(t) = term_of(&mut s, op) {
            assert_eq!(
                prove_eval(&s, t, &[a, b]),
                prove_policy(expect, a),
                "prove {a} {op} {b}"
            );
        }
    }
    let table = s.intern_lut(&TABLE);
    let idx = s.var(0, 0);
    let t = s.lut(table, idx);
    for &(i, expect) in LUT_CASES {
        assert_eq!(
            prove_eval(&s, t, &[i]),
            prove_policy(expect, i),
            "prove table[{i}]"
        );
    }
}

/// The value `g` returns after HLIR folding, if it folded to a constant.
fn hlir_folded(src: &str) -> Option<i64> {
    let prog = frontend(src).unwrap();
    let folded = fold_function(prog.function("g").unwrap());
    match &folded.body.stmts[0].kind {
        StmtKind::Return(Some(e)) => e.as_const(),
        other => panic!("unexpected statement {other:?}"),
    }
}

/// Lowers `g` to SSA IR without any earlier folding.
fn lowered(src: &str) -> FunctionIr {
    let prog = frontend(src).unwrap();
    let mut ir = lower_function(&prog, prog.function("g").unwrap(), &[]).unwrap();
    to_ssa(&mut ir);
    ir
}

fn count(ir: &FunctionIr, op: Opcode) -> usize {
    ir.blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter(|i| i.op == op)
        .count()
}

/// Runs `ir` once on the IR machine: the output word, or the error text.
fn ir_run(ir: &FunctionIr, args: &[i64]) -> Result<i64, String> {
    IrMachine::new(ir)
        .run(args)
        .map(|outs| outs[0])
        .map_err(|e| e.message)
}

/// Runs one iteration of `args` through each netlist engine of a
/// compiled kernel; every engine must agree, and the word (or error text)
/// is returned.
fn netlist_run(src: &str, args: &[i64]) -> Result<i64, String> {
    let hw = compile(src, "f", &CompileOptions::default()).expect("one-op kernel compiles");
    let reference = NetlistSim::new(&hw.netlist)
        .run_stream(&[args.to_vec()])
        .map(|rows| rows[0][0])
        .map_err(|e| e.to_string());
    let plan = SimPlan::compile(&hw.netlist).unwrap();
    let compiled = CompiledSim::new(&plan)
        .run_stream(&[args.to_vec()])
        .map(|rows| rows[0][0])
        .map_err(|e| e.to_string());
    let lanes = 4;
    let flat: Vec<i64> = (0..lanes).flat_map(|_| args.iter().copied()).collect();
    let mut out = Vec::new();
    let batched = plan
        .run_batch_lanes(&flat, lanes, lanes, &mut out)
        .map(|_| {
            assert!(out.iter().all(|&w| w == out[0]), "lanes agree: {out:?}");
            out[0]
        })
        .map_err(|e| e.to_string());
    assert_eq!(compiled, reference, "CompiledSim vs NetlistSim: {src}");
    assert_eq!(batched, reference, "BatchedSim vs NetlistSim: {src}");
    reference
}

/// The interpreter's word for `f`, or its error text.
fn interpret(src: &str, args: &[i64]) -> Result<i64, String> {
    let prog = frontend(src).unwrap();
    Interpreter::new(&prog)
        .call("f", args, &mut HashMap::new())
        .map(|out| out.outputs["o"])
        .map_err(|e| e.message)
}

#[test]
fn int32_kernels_apply_each_executors_policy() {
    for &(op, a, b, expect, word) in INT32_CASES {
        let kernel = format!("void f(int a, int b, int* o) {{ *o = a {op} b; }}");
        let ctx = format!("{a} {op} {b}");
        let trap = expect.map(|_| word).map_err(|f| f.to_string());

        assert_eq!(interpret(&kernel, &[a, b]), trap, "interpreter: {ctx}");
        let hw = compile(&kernel, "f", &CompileOptions::default()).unwrap();
        assert_eq!(ir_run(&hw.ir, &[a, b]), trap, "IrMachine: {ctx}");
        let policy = netlist_policy(expect.map(|_| word), a);
        assert_eq!(netlist_run(&kernel, &[a, b]), policy, "netlist: {ctx}");

        // The folders see the same operation on literals: a fault stays
        // in place for the executor to report.
        let folded = hlir_folded(&format!("int g() {{ return ({a}) {op} ({b}); }}"));
        assert_eq!(folded, expect.ok(), "HLIR fold: {ctx}");
        let mut ir = lowered(&format!("void g(int* o) {{ *o = ({a}) {op} ({b}); }}"));
        let opc = opcode_of(op).unwrap();
        assert_eq!(count(&ir, opc), 1, "lowered IR carries the op: {ctx}");
        while constant_fold(&mut ir) {}
        assert_eq!(
            count(&ir, opc),
            usize::from(expect.is_err()),
            "constant_fold: {ctx}"
        );
        assert_eq!(ir_run(&ir, &[]), trap, "folded IR: {ctx}");
    }
}

#[test]
fn lut_reads_apply_each_executors_policy() {
    let decl = format!(
        "const int tab[3] = {{{}, {}, {}}};",
        TABLE[0], TABLE[1], TABLE[2]
    );
    let kernel = format!("{decl} void f(int i, int* o) {{ *o = ROCCC_lut(tab, i); }}");
    for &(i, expect) in LUT_CASES {
        let trap = expect.map_err(|f| f.to_string());
        assert_eq!(interpret(&kernel, &[i]), trap, "interpreter: tab[{i}]");
        let hw = compile(&kernel, "f", &CompileOptions::default()).unwrap();
        assert_eq!(ir_run(&hw.ir, &[i]), trap, "IrMachine: tab[{i}]");
        assert_eq!(
            netlist_run(&kernel, &[i]),
            netlist_policy(expect, i),
            "netlist: tab[{i}]"
        );

        let mut ir = lowered(&format!(
            "{decl} void g(int* o) {{ *o = ROCCC_lut(tab, ({i})); }}"
        ));
        while constant_fold(&mut ir) {}
        assert_eq!(
            count(&ir, Opcode::Lut),
            usize::from(expect.is_err()),
            "constant_fold: tab[{i}]"
        );
        assert_eq!(ir_run(&ir, &[]), trap, "folded IR: tab[{i}]");
    }
}
