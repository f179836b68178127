//! Lowering from the data-path AST (Figure 3 (c) / 4 (c) functions) to VM IR.
//!
//! Data-path functions are loop-free by construction (the data path is one
//! loop body), so lowering produces straight-line blocks and if/else
//! diamonds only. Variables get fixed "home" registers that may be assigned
//! more than once; the [`crate::ssa`] pass then renames them into SSA form,
//! as the paper does with the Machine-SUIF SSA library.
//!
//! ## Width discipline
//!
//! Matching the golden-model interpreter exactly requires that intermediate
//! expression values never wrap (the interpreter evaluates in 64-bit and
//! wraps only when storing to a typed location). Lowering therefore infers
//! an exact, value-preserving result width for every instruction from its
//! operand widths — the same "the compiler infers the inner signals' bit
//! size automatically" rule the paper describes — and inserts `CVT`
//! (wrap) instructions only where the C program stores to a declared
//! variable.

use crate::ir::*;
use roccc_cparse::ast::{
    intrinsics, BinOp, Block as CBlock, Expr, ExprKind, Function, Item, LValue, Program, Stmt,
    StmtKind, UnOp,
};
use roccc_cparse::error::{CError, CResult, Stage};
use roccc_cparse::ops::MAX_SHIFT;
use roccc_cparse::span::Span;
use roccc_cparse::types::{CType, IntType};
use roccc_hlir::kernel::FeedbackVar;
use std::collections::HashMap;

fn err(span: Span, msg: impl Into<String>) -> CError {
    CError::new(Stage::Sema, span, msg)
}

/// Value-preserving width for a copy that must hold either operand:
/// mixed signedness widens to the signed width that covers the unsigned
/// range.
pub fn value_unify(a: IntType, b: IntType) -> IntType {
    if a.signed == b.signed {
        IntType {
            signed: a.signed,
            bits: a.bits.max(b.bits),
        }
    } else {
        let sa = if a.signed {
            a.bits
        } else {
            a.bits.saturating_add(1)
        };
        let sb = if b.signed {
            b.bits
        } else {
            b.bits.saturating_add(1)
        };
        IntType {
            signed: true,
            bits: sa.max(sb).min(IntType::MAX_BITS),
        }
    }
}

/// Exact result type of a binary operation on operand types `l`, `r`.
pub fn result_type(op: BinOp, l: IntType, r: IntType, rhs_const: Option<i64>) -> IntType {
    let cap = |b: u8| b.min(IntType::MAX_BITS);
    match op {
        BinOp::Add => {
            let u = value_unify(l, r);
            IntType {
                signed: u.signed,
                bits: cap(u.bits + 1),
            }
        }
        BinOp::Sub => {
            let u = value_unify(l, r);
            IntType {
                signed: true,
                bits: cap(if u.signed { u.bits + 1 } else { u.bits + 2 }),
            }
        }
        BinOp::Mul => IntType {
            signed: l.signed || r.signed,
            bits: cap(l.bits + r.bits),
        },
        BinOp::Div => IntType {
            signed: l.signed || r.signed,
            bits: cap(l.bits + 1),
        },
        BinOp::Rem => IntType {
            signed: l.signed,
            bits: cap(r.bits + 1),
        },
        BinOp::Shl => {
            let extra = match rhs_const {
                Some(c) if c >= 0 => (c as u8).min(MAX_SHIFT as u8),
                _ => MAX_SHIFT as u8,
            };
            IntType {
                signed: l.signed,
                bits: cap(l.bits.saturating_add(extra)),
            }
        }
        BinOp::Shr => l,
        BinOp::BitAnd => {
            // Masking with a non-negative constant caps the result width at
            // the mask's width (`x & 1` is one bit).
            if let Some(c) = rhs_const {
                if c >= 0 {
                    return IntType {
                        signed: false,
                        bits: IntType::width_for(c, false).min(l.bits.max(1)),
                    };
                }
            }
            if l.signed == r.signed {
                IntType {
                    signed: l.signed,
                    bits: l.bits.max(r.bits),
                }
            } else {
                value_unify(l, r)
            }
        }
        BinOp::BitOr | BinOp::BitXor => {
            if l.signed == r.signed {
                IntType {
                    signed: l.signed,
                    bits: l.bits.max(r.bits),
                }
            } else {
                value_unify(l, r)
            }
        }
        BinOp::Lt
        | BinOp::Le
        | BinOp::Gt
        | BinOp::Ge
        | BinOp::Eq
        | BinOp::Ne
        | BinOp::LogicalAnd
        | BinOp::LogicalOr => IntType::bit(),
    }
}

/// Lowers a data-path function to VM IR.
///
/// `feedback` associates the kernel's feedback variables (detected by
/// `roccc-hlir`) with their initial values; `program` supplies `const`
/// lookup tables referenced by the function.
///
/// # Errors
///
/// Returns a diagnostic for constructs outside the data-path subset
/// (loops, unknown calls, reads of never-written variables).
pub fn lower_function(
    program: &Program,
    func: &Function,
    feedback: &[FeedbackVar],
) -> CResult<FunctionIr> {
    let mut ir = FunctionIr::new(func.name.clone());

    // Lookup tables from const globals.
    let mut lut_index: HashMap<String, i64> = HashMap::new();
    for item in &program.items {
        if let Item::Global(g) = item {
            if g.is_const {
                if let CType::Array(t, dims) = &g.ty {
                    let len: usize = dims.iter().product();
                    let mut data = g.init.clone();
                    data.resize(len, 0);
                    lut_index.insert(g.name.clone(), ir.luts.len() as i64);
                    ir.luts.push(LutTable {
                        name: g.name.as_str().into(),
                        elem: *t,
                        data,
                    });
                }
            }
        }
    }

    // Feedback slots.
    let mut fb_index: HashMap<String, i64> = HashMap::new();
    for fv in feedback {
        fb_index.insert(fv.name.clone(), ir.feedback.len() as i64);
        ir.feedback.push(FeedbackSlot {
            name: fv.name.as_str().into(),
            ty: fv.ty,
            init: fv.init,
        });
    }

    let entry = ir.new_block();
    let mut cx = Lowerer {
        ir,
        vars: HashMap::new(),
        cur: entry,
        lut_index,
        fb_index,
        out_params: Vec::new(),
    };

    // Parameters: scalars become ARG instructions; pointers become outputs.
    let mut arg_idx = 0i64;
    for p in &func.params {
        match &p.ty {
            CType::Int(t) => {
                let r = cx.ir.new_vreg(*t);
                cx.ir
                    .block_mut(entry)
                    .instrs
                    .push(Instr::new(Opcode::Arg, r, vec![], arg_idx, *t));
                cx.ir.inputs.push((p.name.as_str().into(), *t));
                cx.vars.insert(p.name.clone(), (r, *t));
                arg_idx += 1;
            }
            CType::Ptr(t) => {
                // Out-parameter: home register initialized to 0.
                let home = cx.ir.new_vreg(*t);
                cx.emit(Instr::new(Opcode::Ldc, home, vec![], 0, *t));
                let key = format!("*{}", p.name);
                cx.vars.insert(key, (home, *t));
                cx.out_params.push((p.name.clone(), *t));
            }
            other => {
                return Err(err(
                    p.span,
                    format!("data-path parameters must be scalars or out-pointers, got {other}"),
                ))
            }
        }
    }

    cx.lower_block(&func.body)?;

    // Exit block: materialize outputs via MOVs so SSA renaming routes the
    // final reaching definitions here.
    let mut output_srcs = Vec::new();
    for (name, t) in cx.out_params.clone() {
        let (home, _) = cx.vars[&format!("*{name}")];
        let out = cx.ir.new_vreg(t);
        cx.emit(Instr::new(Opcode::Mov, out, vec![home], 0, t));
        cx.ir.outputs.push((name.as_str().into(), t));
        output_srcs.push(out);
    }
    cx.ir.output_srcs = output_srcs;
    let cur = cx.cur;
    cx.ir.block_mut(cur).term = Terminator::Ret;
    Ok(cx.ir)
}

struct Lowerer {
    ir: FunctionIr,
    /// Variable → (home register, declared type).
    vars: HashMap<String, (VReg, IntType)>,
    cur: BlockId,
    lut_index: HashMap<String, i64>,
    fb_index: HashMap<String, i64>,
    out_params: Vec<(String, IntType)>,
}

impl Lowerer {
    fn emit(&mut self, i: Instr) {
        let cur = self.cur;
        self.ir.block_mut(cur).instrs.push(i);
    }

    fn ldc(&mut self, v: i64) -> VReg {
        let ty = IntType {
            signed: v < 0,
            bits: IntType::width_for(v, v < 0),
        };
        let r = self.ir.new_vreg(ty);
        self.emit(Instr::new(Opcode::Ldc, r, vec![], v, ty));
        r
    }

    fn lower_block(&mut self, b: &CBlock) -> CResult<()> {
        for s in &b.stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let t = match ty {
                    CType::Int(t) => *t,
                    other => {
                        return Err(err(s.span, format!("cannot lower local of type {other}")))
                    }
                };
                let home = self.ir.new_vreg(t);
                self.vars.insert(name.clone(), (home, t));
                match init {
                    Some(e) => {
                        let v = self.lower_expr(e)?;
                        self.store_to(home, t, v);
                    }
                    None => {
                        self.emit(Instr::new(Opcode::Ldc, home, vec![], 0, t));
                    }
                }
                Ok(())
            }
            StmtKind::Assign { target, op, value } => {
                let rhs = self.lower_expr(value)?;
                let rhs = match op {
                    None => rhs,
                    Some(bop) => {
                        let (cur, _t) = self.read_lvalue(target, s.span)?;
                        self.lower_binop(*bop, cur, rhs, value.as_const())?
                    }
                };
                match target {
                    LValue::Var(n) => {
                        let (home, t) = *self
                            .vars
                            .get(n)
                            .ok_or_else(|| err(s.span, format!("undeclared `{n}`")))?;
                        self.store_to(home, t, rhs);
                        Ok(())
                    }
                    LValue::Deref(n) => {
                        let key = format!("*{n}");
                        let (home, t) = *self
                            .vars
                            .get(&key)
                            .ok_or_else(|| err(s.span, format!("`{n}` is not an out-pointer")))?;
                        self.store_to(home, t, rhs);
                        Ok(())
                    }
                    LValue::ArrayElem { .. } => Err(err(
                        s.span,
                        "array stores must be removed by scalar replacement before lowering",
                    )),
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.lower_expr(cond)?;
                let c = self.bool_normalize(c);
                let then_b = self.ir.new_block();
                let else_b = self.ir.new_block();
                let join_b = self.ir.new_block();
                let cur = self.cur;
                self.ir.block_mut(cur).term = Terminator::Branch {
                    cond: c,
                    then_b,
                    else_b,
                };
                self.cur = then_b;
                self.lower_block(then_blk)?;
                let t_end = self.cur;
                self.ir.block_mut(t_end).term = Terminator::Jump(join_b);
                self.cur = else_b;
                if let Some(e) = else_blk {
                    self.lower_block(e)?;
                }
                let e_end = self.cur;
                self.ir.block_mut(e_end).term = Terminator::Jump(join_b);
                self.cur = join_b;
                Ok(())
            }
            StmtKind::Block(b) => self.lower_block(b),
            StmtKind::Expr(e) => {
                // Side-effectful intrinsic (SNX) or dead expression.
                self.lower_expr(e)?;
                Ok(())
            }
            StmtKind::Return(None) => Ok(()),
            StmtKind::Return(Some(_)) => Err(err(
                s.span,
                "data-path functions return values through out-pointers",
            )),
            StmtKind::For { .. } | StmtKind::While { .. } => Err(err(
                s.span,
                "loops must be removed (unrolled/extracted) before lowering",
            )),
        }
    }

    /// Reads an lvalue's current value.
    fn read_lvalue(&mut self, lv: &LValue, span: Span) -> CResult<(VReg, IntType)> {
        match lv {
            LValue::Var(n) => self
                .vars
                .get(n)
                .copied()
                .ok_or_else(|| err(span, format!("undeclared `{n}`"))),
            LValue::Deref(n) => self
                .vars
                .get(&format!("*{n}"))
                .copied()
                .ok_or_else(|| err(span, format!("`{n}` is not an out-pointer"))),
            LValue::ArrayElem { .. } => Err(err(span, "array lvalues are not lowered")),
        }
    }

    /// Stores `v` into home register `home` of declared type `t`, wrapping
    /// via `CVT` when the value type differs.
    fn store_to(&mut self, home: VReg, t: IntType, v: VReg) {
        let vt = self.ir.ty(v);
        let op = if vt == t { Opcode::Mov } else { Opcode::Cvt };
        self.emit(Instr {
            op,
            dst: Some(home),
            srcs: [v].into(),
            imm: 0,
            ty: t,
        });
    }

    /// Normalizes a register to a 1-bit Boolean.
    fn bool_normalize(&mut self, v: VReg) -> VReg {
        if self.ir.ty(v) == IntType::bit() {
            return v;
        }
        let r = self.ir.new_vreg(IntType::bit());
        self.emit(Instr::new(Opcode::Bool, r, vec![v], 0, IntType::bit()));
        r
    }

    fn lower_binop(
        &mut self,
        op: BinOp,
        l: VReg,
        r: VReg,
        rhs_const: Option<i64>,
    ) -> CResult<VReg> {
        let lt = self.ir.ty(l);
        let rt = self.ir.ty(r);
        let ty = result_type(op, lt, rt, rhs_const);
        let (opcode, srcs) = match op {
            BinOp::Add => (Opcode::Add, vec![l, r]),
            BinOp::Sub => (Opcode::Sub, vec![l, r]),
            BinOp::Mul => (Opcode::Mul, vec![l, r]),
            BinOp::Div => (Opcode::Div, vec![l, r]),
            BinOp::Rem => (Opcode::Rem, vec![l, r]),
            BinOp::Shl => (Opcode::Shl, vec![l, r]),
            BinOp::Shr => (Opcode::Shr, vec![l, r]),
            BinOp::BitAnd => (Opcode::And, vec![l, r]),
            BinOp::BitOr => (Opcode::Or, vec![l, r]),
            BinOp::BitXor => (Opcode::Xor, vec![l, r]),
            BinOp::Lt => (Opcode::Slt, vec![l, r]),
            BinOp::Le => (Opcode::Sle, vec![l, r]),
            BinOp::Gt => (Opcode::Slt, vec![r, l]),
            BinOp::Ge => (Opcode::Sle, vec![r, l]),
            BinOp::Eq => (Opcode::Seq, vec![l, r]),
            BinOp::Ne => (Opcode::Sne, vec![l, r]),
            BinOp::LogicalAnd => {
                let lb = self.bool_normalize(l);
                let rb = self.bool_normalize(r);
                (Opcode::And, vec![lb, rb])
            }
            BinOp::LogicalOr => {
                let lb = self.bool_normalize(l);
                let rb = self.bool_normalize(r);
                (Opcode::Or, vec![lb, rb])
            }
        };
        let dst = self.ir.new_vreg(ty);
        self.emit(Instr::new(opcode, dst, srcs, 0, ty));
        Ok(dst)
    }

    fn lower_expr(&mut self, e: &Expr) -> CResult<VReg> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(self.ldc(*v)),
            ExprKind::Var(n) => {
                let (home, _) = *self
                    .vars
                    .get(n)
                    .ok_or_else(|| err(e.span, format!("undeclared `{n}`")))?;
                Ok(home)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.lower_expr(operand)?;
                let vt = self.ir.ty(v);
                match op {
                    UnOp::Neg => {
                        let ty = IntType {
                            signed: true,
                            bits: (vt.bits + 1).min(IntType::MAX_BITS),
                        };
                        let dst = self.ir.new_vreg(ty);
                        self.emit(Instr::new(Opcode::Neg, dst, vec![v], 0, ty));
                        Ok(dst)
                    }
                    UnOp::BitNot => {
                        let ty = IntType {
                            signed: true,
                            bits: (vt.bits + 1).min(IntType::MAX_BITS),
                        };
                        let dst = self.ir.new_vreg(ty);
                        self.emit(Instr::new(Opcode::Not, dst, vec![v], 0, ty));
                        Ok(dst)
                    }
                    UnOp::LogicalNot => {
                        let zero = self.ldc(0);
                        let dst = self.ir.new_vreg(IntType::bit());
                        self.emit(Instr::new(
                            Opcode::Seq,
                            dst,
                            vec![v, zero],
                            0,
                            IntType::bit(),
                        ));
                        Ok(dst)
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                self.lower_binop(*op, l, r, rhs.as_const())
            }
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.lower_expr(cond)?;
                let c = self.bool_normalize(c);
                let a = self.lower_expr(then_e)?;
                let b = self.lower_expr(else_e)?;
                let ty = value_unify(self.ir.ty(a), self.ir.ty(b));
                let dst = self.ir.new_vreg(ty);
                self.emit(Instr::new(Opcode::Mux, dst, vec![c, a, b], 0, ty));
                Ok(dst)
            }
            ExprKind::ArrayIndex { name, indices } => {
                // Only const-table lookups survive to this point.
                let table = *self.lut_index.get(name).ok_or_else(|| {
                    err(
                        e.span,
                        format!("array `{name}` is not a const lookup table"),
                    )
                })?;
                if indices.len() != 1 {
                    return Err(err(e.span, "lookup tables are one-dimensional (flattened)"));
                }
                let idx = self.lower_expr(&indices[0])?;
                let elem = self.ir.luts[table as usize].elem;
                let dst = self.ir.new_vreg(elem);
                self.emit(Instr::new(Opcode::Lut, dst, vec![idx], table, elem));
                Ok(dst)
            }
            ExprKind::Call { name, args } => {
                match name.as_str() {
                    intrinsics::LOAD_PREV => {
                        let var = match &args[0].kind {
                            ExprKind::Var(n) => n.clone(),
                            _ => return Err(err(e.span, "ROCCC_load_prev needs a variable")),
                        };
                        let slot = *self.fb_index.get(&var).ok_or_else(|| {
                            err(e.span, format!("`{var}` is not a feedback slot"))
                        })?;
                        let ty = self.ir.feedback[slot as usize].ty;
                        let dst = self.ir.new_vreg(ty);
                        self.emit(Instr::new(Opcode::Lpr, dst, vec![], slot, ty));
                        Ok(dst)
                    }
                    intrinsics::STORE_NEXT => {
                        let var = match &args[0].kind {
                            ExprKind::Var(n) => n.clone(),
                            _ => return Err(err(e.span, "ROCCC_store2next needs a variable")),
                        };
                        let slot = *self.fb_index.get(&var).ok_or_else(|| {
                            err(e.span, format!("`{var}` is not a feedback slot"))
                        })?;
                        let v = self.lower_expr(&args[1])?;
                        let ty = self.ir.feedback[slot as usize].ty;
                        self.emit(Instr {
                            op: Opcode::Snx,
                            dst: None,
                            srcs: [v].into(),
                            imm: slot,
                            ty,
                        });
                        // SNX "returns" the stored value for expression position.
                        Ok(v)
                    }
                    intrinsics::LUT => {
                        let table_name = match &args[0].kind {
                            ExprKind::Var(n) => n.clone(),
                            _ => return Err(err(e.span, "ROCCC_lut needs a table name")),
                        };
                        let table = *self
                            .lut_index
                            .get(&table_name)
                            .ok_or_else(|| err(e.span, format!("unknown table `{table_name}`")))?;
                        let idx = self.lower_expr(&args[1])?;
                        let elem = self.ir.luts[table as usize].elem;
                        let dst = self.ir.new_vreg(elem);
                        self.emit(Instr::new(Opcode::Lut, dst, vec![idx], table, elem));
                        Ok(dst)
                    }
                    intrinsics::BITS => {
                        // Bit-field extract: (x >> lo) & mask — free wiring in
                        // hardware (constant shift + constant mask).
                        let x = self.lower_expr(&args[0])?;
                        let hi = args[1]
                            .as_const()
                            .ok_or_else(|| err(e.span, "ROCCC_bits hi must be constant"))?;
                        let lo = args[2]
                            .as_const()
                            .ok_or_else(|| err(e.span, "ROCCC_bits lo must be constant"))?;
                        let width = (hi - lo + 1).clamp(1, 63) as u8;
                        let xt = self.ir.ty(x);
                        let shifted = if lo == 0 {
                            x
                        } else {
                            let amt = self.ldc(lo);
                            let dst = self.ir.new_vreg(xt);
                            self.emit(Instr::new(Opcode::Shr, dst, vec![x, amt], 0, xt));
                            dst
                        };
                        let mask = self.ldc((1i64 << width) - 1);
                        let ty = IntType::unsigned(width);
                        let dst = self.ir.new_vreg(ty);
                        self.emit(Instr::new(Opcode::And, dst, vec![shifted, mask], 0, ty));
                        Ok(dst)
                    }
                    intrinsics::CAT => {
                        // Concatenation: (hi << w) | (lo & mask) — free wiring.
                        let hi = self.lower_expr(&args[0])?;
                        let lo = self.lower_expr(&args[1])?;
                        let w = args[2]
                            .as_const()
                            .ok_or_else(|| err(e.span, "ROCCC_cat width must be constant"))?
                            .clamp(1, 63) as u8;
                        let mask = self.ldc((1i64 << w) - 1);
                        let lo_ty = IntType::unsigned(w);
                        let lo_m = self.ir.new_vreg(lo_ty);
                        self.emit(Instr::new(Opcode::And, lo_m, vec![lo, mask], 0, lo_ty));
                        let hi_ty = self.ir.ty(hi);
                        // Signedness follows the high part so a negative high
                        // field keeps its value (matching the interpreter's
                        // 64-bit shift-or semantics).
                        let out_ty = IntType {
                            signed: hi_ty.signed,
                            bits: (hi_ty.bits as u16 + w as u16).min(64) as u8,
                        };
                        let amt = self.ldc(w as i64);
                        let sh = self.ir.new_vreg(out_ty);
                        self.emit(Instr::new(Opcode::Shl, sh, vec![hi, amt], 0, out_ty));
                        let dst = self.ir.new_vreg(out_ty);
                        self.emit(Instr::new(Opcode::Or, dst, vec![sh, lo_m], 0, out_ty));
                        Ok(dst)
                    }
                    _ => Err(err(
                        e.span,
                        format!("call to `{name}` must be inlined before lowering"),
                    )),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;

    fn lower_src(src: &str, func: &str) -> FunctionIr {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        lower_function(&prog, f, &[]).unwrap()
    }

    #[test]
    fn lowers_fir_dp_to_single_block() {
        let ir = lower_src(
            "void fir_dp(int A0, int A1, int A2, int A3, int A4, int* Tmp0) {
               *Tmp0 = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }",
            "fir_dp",
        );
        assert_eq!(ir.blocks.len(), 1);
        assert_eq!(ir.inputs.len(), 5);
        assert_eq!(ir.outputs.len(), 1);
        // 5 args + 1 out-init + 4 ldc coeffs + 4 mul + 3 add + 1 sub + cvt/mov + out mov
        assert!(ir.instr_count() >= 18, "{}", ir.dump());
    }

    #[test]
    fn lowers_if_else_to_diamond() {
        let ir = lower_src(
            "void if_else(int x1, int x2, int* x3, int* x4) {
               int a; int c;
               c = x1 - x2;
               if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
               c = c - a;
               *x3 = c; *x4 = a; }",
            "if_else",
        );
        // entry, then, else, join.
        assert_eq!(ir.blocks.len(), 4);
        let entry = ir.block(ir.entry());
        assert!(matches!(entry.term, Terminator::Branch { .. }));
    }

    #[test]
    fn width_inference_add_grows_one_bit() {
        let ir = lower_src("void f(uint8 a, uint8 b, uint16* o) { *o = a + b; }", "f");
        let add = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| i.op == Opcode::Add)
            .unwrap();
        assert_eq!(add.ty, IntType::unsigned(9));
    }

    #[test]
    fn width_inference_mul_sums_bits() {
        let ir = lower_src("void f(int12 a, int12 b, int* o) { *o = a * b; }", "f");
        let mul = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| i.op == Opcode::Mul)
            .unwrap();
        assert_eq!(mul.ty, IntType::signed(24));
    }

    #[test]
    fn comparisons_are_one_bit() {
        let ir = lower_src("void f(int a, int b, int* o) { *o = a < b; }", "f");
        let slt = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| i.op == Opcode::Slt)
            .unwrap();
        assert_eq!(slt.ty, IntType::bit());
    }

    #[test]
    fn gt_swaps_operands_of_slt() {
        let ir = lower_src("void f(int a, int b, int* o) { *o = a > b; }", "f");
        let slt = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| i.op == Opcode::Slt)
            .unwrap();
        // a > b  ≡  b < a: srcs = [b's arg reg, a's arg reg].
        let arg_regs: Vec<VReg> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Arg)
            .map(|i| i.dst.unwrap())
            .collect();
        assert_eq!(slt.srcs, vec![arg_regs[1], arg_regs[0]]);
    }

    #[test]
    fn feedback_macros_lower_to_lpr_snx() {
        let prog = parse(
            "void acc_dp(int t0, int* t1) {
               int sum; int sum_cur = ROCCC_load_prev(sum) + t0;
               ROCCC_store2next(sum, sum_cur);
               *t1 = sum_cur; }",
        )
        .unwrap();
        let f = prog.function("acc_dp").unwrap();
        let fb = vec![FeedbackVar {
            name: "sum".into(),
            ty: IntType::int(),
            init: 0,
        }];
        let ir = lower_function(&prog, f, &fb).unwrap();
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(ops.contains(&Opcode::Lpr));
        assert!(ops.contains(&Opcode::Snx));
        assert_eq!(ir.feedback.len(), 1);
    }

    #[test]
    fn lut_lowering_from_const_table() {
        let ir = lower_src(
            "const uint16 tab[8] = {1,2,3,4,5,6,7,8};
             void f(uint3 i, uint16* o) { *o = tab[i]; }",
            "f",
        );
        let lut = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| i.op == Opcode::Lut)
            .unwrap();
        assert_eq!(lut.imm, 0);
        assert_eq!(ir.luts[0].data.len(), 8);
        assert_eq!(ir.luts[0].addr_bits(), 3);
    }

    #[test]
    fn ternary_lowers_to_mux() {
        let ir = lower_src("void f(int a, int* o) { *o = a > 0 ? a : -a; }", "f");
        let mux = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| i.op == Opcode::Mux)
            .unwrap();
        assert_eq!(mux.srcs.len(), 3);
        assert_eq!(ir.ty(mux.srcs[0]), IntType::bit());
    }

    #[test]
    fn rejects_loops() {
        let prog =
            parse("void f(int* o) { int i; int s = 0; for (i=0;i<4;i++) { s = s + 1; } *o = s; }")
                .unwrap();
        let f = prog.function("f").unwrap();
        let e = lower_function(&prog, f, &[]).unwrap_err();
        assert!(e.message.contains("unrolled"));
    }

    #[test]
    fn mixed_sign_and_or_widens() {
        let t = result_type(BinOp::BitOr, IntType::unsigned(8), IntType::signed(8), None);
        assert_eq!(t, IntType::signed(9));
        let t2 = result_type(
            BinOp::BitAnd,
            IntType::unsigned(8),
            IntType::unsigned(4),
            None,
        );
        assert_eq!(t2, IntType::unsigned(8));
    }

    #[test]
    fn sub_of_unsigned_is_signed() {
        let t = result_type(BinOp::Sub, IntType::unsigned(8), IntType::unsigned(8), None);
        assert!(t.signed);
        assert!(t.bits >= 9);
    }
}
