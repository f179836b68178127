//! An interpreter for VM IR functions.
//!
//! Used for differential testing: every lowering and optimization pass must
//! preserve the observable behaviour of the golden-model C interpreter.
//! Feedback (`LPR`/`SNX`) state persists across [`IrMachine::run`] calls to
//! model successive pipeline iterations.

use crate::ir::*;
use roccc_cparse::error::{CError, CResult, Stage};
use roccc_cparse::ops::{self, Fault};
use roccc_cparse::span::Span;

fn rt(msg: impl Into<String>) -> CError {
    CError::new(Stage::Interp, Span::dummy(), msg)
}

/// The IR machine traps on every operator fault, like the golden
/// interpreter.
fn fault(f: Fault) -> CError {
    rt(f.to_string())
}

/// Executes a VM IR function, holding feedback state between runs.
#[derive(Debug)]
pub struct IrMachine<'f> {
    f: &'f FunctionIr,
    feedback: Vec<i64>,
}

impl<'f> IrMachine<'f> {
    /// Creates a machine with feedback slots at their initial values.
    pub fn new(f: &'f FunctionIr) -> Self {
        IrMachine {
            feedback: f.feedback.iter().map(|s| s.ty.wrap(s.init)).collect(),
            f,
        }
    }

    /// Current value of feedback slot `i`.
    pub fn feedback_value(&self, i: usize) -> Option<i64> {
        self.feedback.get(i).copied()
    }

    /// Runs the function once with `args` (parallel to `f.inputs`),
    /// returning output values (parallel to `f.outputs`).
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch, division by zero, negative LUT
    /// index, or malformed IR (use before def).
    pub fn run(&mut self, args: &[i64]) -> CResult<Vec<i64>> {
        if args.len() != self.f.inputs.len() {
            return Err(rt(format!(
                "expected {} args, got {}",
                self.f.inputs.len(),
                args.len()
            )));
        }
        let mut regs: Vec<Option<i64>> = vec![None; self.f.vreg_types.len()];
        let mut next_feedback = self.feedback.clone();
        let mut cur = self.f.entry();
        let mut prev: Option<BlockId> = None;
        let mut steps = 0usize;

        loop {
            steps += 1;
            if steps > self.f.blocks.len() + 4 {
                return Err(rt(
                    "control flow did not terminate (cycle in data-path CFG)",
                ));
            }
            let block = self.f.block(cur);

            // Phis evaluate in parallel from the incoming edge.
            if !block.phis.is_empty() {
                let p = prev.ok_or_else(|| rt("phi in entry block"))?;
                let mut vals = Vec::with_capacity(block.phis.len());
                for phi in &block.phis {
                    let (_, src) = phi
                        .args
                        .iter()
                        .find(|(b, _)| *b == p)
                        .ok_or_else(|| rt("phi missing incoming edge"))?;
                    let v = regs[src.0 as usize]
                        .ok_or_else(|| rt(format!("phi reads undefined {src}")))?;
                    vals.push(phi.ty.wrap(v));
                }
                for (phi, v) in block.phis.iter().zip(vals) {
                    regs[phi.dst.0 as usize] = Some(v);
                }
            }

            for i in &block.instrs {
                let mut s = [0i64; 3];
                for (slot, r) in s.iter_mut().zip(&i.srcs) {
                    *slot =
                        regs[r.0 as usize].ok_or_else(|| rt(format!("use of undefined {r}")))?;
                }
                let val: Option<i64> = match i.op.eval(&s) {
                    Some(v) => Some(v.map_err(fault)?),
                    None => match i.op {
                        Opcode::Arg => {
                            Some(self.f.inputs[i.imm as usize].1.wrap(args[i.imm as usize]))
                        }
                        Opcode::Ldc => Some(i.imm),
                        Opcode::Cvt => Some(i.ty.wrap(s[0])),
                        Opcode::Lpr => Some(self.feedback[i.imm as usize]),
                        Opcode::Snx => {
                            next_feedback[i.imm as usize] =
                                self.f.feedback[i.imm as usize].ty.wrap(s[0]);
                            None
                        }
                        Opcode::Lut => {
                            let table = &self.f.luts[i.imm as usize];
                            Some(table.elem.wrap(ops::lut(&table.data, s[0]).map_err(fault)?))
                        }
                        op => return Err(rt(format!("opcode {op} has no operator value"))),
                    },
                };
                if let (Some(d), Some(v)) = (i.dst, val) {
                    // Instruction result types are value-preserving by the
                    // lowering width discipline; wrap defensively anyway for
                    // CVT-class ops (handled above) and 64-bit saturation.
                    regs[d.0 as usize] = Some(v);
                }
            }

            match &block.term {
                Terminator::Jump(t) => {
                    prev = Some(cur);
                    cur = *t;
                }
                Terminator::Branch {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let c = regs[cond.0 as usize]
                        .ok_or_else(|| rt(format!("branch on undefined {cond}")))?;
                    prev = Some(cur);
                    cur = if c != 0 { *then_b } else { *else_b };
                }
                Terminator::Ret => break,
            }
        }

        self.feedback = next_feedback;
        let mut outs = Vec::with_capacity(self.f.output_srcs.len());
        for (k, r) in self.f.output_srcs.iter().enumerate() {
            let v = regs[r.0 as usize]
                .ok_or_else(|| rt(format!("output {} never computed", self.f.outputs[k].0)))?;
            outs.push(self.f.outputs[k].1.wrap(v));
        }
        Ok(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use crate::ssa::to_ssa;
    use roccc_cparse::parser::parse;

    fn machine_for(src: &str, func: &str, ssa: bool) -> FunctionIr {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        if ssa {
            to_ssa(&mut ir);
        }
        ir
    }

    #[test]
    fn fir_dp_computes() {
        let ir = machine_for(
            "void fir_dp(int A0, int A1, int A2, int A3, int A4, int* Tmp0) {
               *Tmp0 = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }",
            "fir_dp",
            true,
        );
        let mut m = IrMachine::new(&ir);
        assert_eq!(m.run(&[1, 2, 3, 4, 5]).unwrap(), vec![65]);
    }

    #[test]
    fn diamond_takes_both_paths() {
        let src = "void if_else(int x1, int x2, int* x3, int* x4) {
           int a; int c;
           c = x1 - x2;
           if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
           c = c - a;
           *x3 = c; *x4 = a; }";
        for ssa in [false, true] {
            let ir = machine_for(src, "if_else", ssa);
            let mut m = IrMachine::new(&ir);
            assert_eq!(m.run(&[5, 3]).unwrap(), vec![-23, 25], "ssa={ssa}");
            let mut m = IrMachine::new(&ir);
            assert_eq!(m.run(&[9, 2]).unwrap(), vec![7 - 21, 21], "ssa={ssa}");
        }
    }

    #[test]
    fn feedback_accumulates_across_runs() {
        let prog = parse(
            "void acc_dp(int t0, int* t1) {
               int sum; int sum_cur = ROCCC_load_prev(sum) + t0;
               ROCCC_store2next(sum, sum_cur);
               *t1 = sum_cur; }",
        )
        .unwrap();
        let f = prog.function("acc_dp").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "sum".into(),
            ty: roccc_cparse::types::IntType::int(),
            init: 0,
        }];
        let mut ir = lower_function(&prog, f, &fb).unwrap();
        to_ssa(&mut ir);
        let mut m = IrMachine::new(&ir);
        assert_eq!(m.run(&[10]).unwrap(), vec![10]);
        assert_eq!(m.run(&[5]).unwrap(), vec![15]);
        assert_eq!(m.run(&[-3]).unwrap(), vec![12]);
        assert_eq!(m.feedback_value(0), Some(12));
    }

    #[test]
    fn lut_reads_table() {
        let ir = machine_for(
            "const uint16 tab[4] = {100, 200, 300, 400};
             void f(uint2 i, uint16* o) { *o = tab[i]; }",
            "f",
            true,
        );
        let mut m = IrMachine::new(&ir);
        assert_eq!(m.run(&[2]).unwrap(), vec![300]);
        assert_eq!(m.run(&[0]).unwrap(), vec![100]);
    }

    #[test]
    fn wrapping_matches_declared_output_width() {
        let ir = machine_for("void f(uint8 a, uint8* o) { *o = a + 1; }", "f", true);
        let mut m = IrMachine::new(&ir);
        assert_eq!(m.run(&[255]).unwrap(), vec![0]);
    }

    #[test]
    fn division_by_zero_errors() {
        let ir = machine_for("void f(int a, int* o) { *o = 100 / a; }", "f", true);
        let mut m = IrMachine::new(&ir);
        assert!(m.run(&[0]).is_err());
        assert_eq!(m.run(&[4]).unwrap(), vec![25]);
    }

    #[test]
    fn ternary_mux() {
        let ir = machine_for("void f(int a, int* o) { *o = a > 10 ? 1 : 2; }", "f", true);
        let mut m = IrMachine::new(&ir);
        assert_eq!(m.run(&[11]).unwrap(), vec![1]);
        assert_eq!(m.run(&[10]).unwrap(), vec![2]);
    }
}
