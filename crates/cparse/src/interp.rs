//! Golden-model interpreter for the ROCCC C subset.
//!
//! Later stages of the compiler are verified against this interpreter: the
//! cycle-accurate simulation of a generated data-path must produce exactly
//! the values the interpreter computes, including the wrap-around behaviour
//! of fixed-width registers.
//!
//! Semantics notes (shared contract with `roccc-netlist`):
//!
//! * every store into a typed location wraps to that location's width
//!   ([`crate::types::IntType::wrap`]);
//! * operators take their values from [`crate::ops`]: 64-bit two's
//!   complement with wrap-around, shift amounts saturating at
//!   [`ops::MAX_SHIFT`];
//! * every [`ops::Fault`] traps with its message: `/` and `%` by zero
//!   (hardware divides by constants or uses an explicit divider core), a
//!   negative shift amount, a negative LUT index;
//! * `ROCCC_load_prev`/`ROCCC_store2next` access feedback state that
//!   persists across calls of the same [`Interpreter`], modelling the
//!   data-path latch between loop iterations.

use crate::ast::*;
use crate::error::{CError, CResult, Stage};
use crate::ops;
use crate::span::Span;
use crate::types::{CType, IntType};
use std::collections::HashMap;

/// Upper bound on executed statements, to catch runaway loops in tests.
const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

/// The result of executing one function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecOutcome {
    /// Return value for non-void functions.
    pub ret: Option<i64>,
    /// Values written through out-pointer parameters, keyed by parameter
    /// name.
    pub outputs: HashMap<String, i64>,
}

/// A reusable interpreter holding feedback (`LPR`/`SNX`) state across calls.
///
/// ```
/// use roccc_cparse::{parser::parse, interp::Interpreter};
///
/// # fn main() -> Result<(), roccc_cparse::error::CError> {
/// let prog = parse("int dbl(int x) { return x * 2; }")?;
/// let mut interp = Interpreter::new(&prog);
/// let out = interp.call("dbl", &[21], &mut Default::default())?;
/// assert_eq!(out.ret, Some(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    /// Feedback variable state: `(function, variable) → value`.
    feedback: HashMap<(String, String), i64>,
    /// Remaining execution steps before aborting.
    steps_left: u64,
    /// Statements executed per function — the profiling data the paper's
    /// tool set [10] uses to pick kernels for hardware.
    step_counts: HashMap<String, u64>,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter over `program` with the default step budget.
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            feedback: HashMap::new(),
            steps_left: DEFAULT_STEP_LIMIT,
            step_counts: HashMap::new(),
        }
    }

    /// Statements executed per function so far — profiling data for
    /// hardware/software partitioning (the paper's Figure 1 "Code
    /// Profiling" stage). Sorted descending by count.
    pub fn profile(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .step_counts
            .iter()
            .map(|(k, c)| (k.clone(), *c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Overrides the execution step budget (statement count).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.steps_left = limit;
        self
    }

    /// Sets the initial value of a feedback variable (`sum` starts at 0 in
    /// Figure 4; other kernels may need a different seed).
    pub fn seed_feedback(&mut self, function: &str, var: &str, value: i64) {
        self.feedback
            .insert((function.to_string(), var.to_string()), value);
    }

    /// Reads the current value of a feedback variable, if any.
    pub fn feedback_value(&self, function: &str, var: &str) -> Option<i64> {
        self.feedback
            .get(&(function.to_string(), var.to_string()))
            .copied()
    }

    /// Calls `name` with scalar arguments (in declaration order, skipping
    /// array and pointer parameters) and the given array buffers.
    ///
    /// `arrays` maps array parameter names to their backing storage; the
    /// function may read and write them. Out-pointer writes are returned in
    /// [`ExecOutcome::outputs`].
    ///
    /// # Errors
    ///
    /// Returns a [`CError`] on missing functions/buffers, division by zero,
    /// out-of-bounds accesses or step-budget exhaustion.
    pub fn call(
        &mut self,
        name: &str,
        scalar_args: &[i64],
        arrays: &mut HashMap<String, Vec<i64>>,
    ) -> CResult<ExecOutcome> {
        let func = self
            .program
            .function(name)
            .ok_or_else(|| rt(Span::dummy(), format!("unknown function `{name}`")))?;

        let mut frame = Frame::default();
        let mut scalar_iter = scalar_args.iter();
        for p in &func.params {
            match &p.ty {
                CType::Int(t) => {
                    let v = *scalar_iter.next().ok_or_else(|| {
                        rt(p.span, format!("missing scalar argument for `{}`", p.name))
                    })?;
                    frame.scalars.insert(p.name.clone(), (t.wrap(v), *t));
                }
                CType::Ptr(t) => {
                    frame.out_params.insert(p.name.clone(), *t);
                }
                CType::Array(t, dims) => {
                    let buf = arrays.get(&p.name).ok_or_else(|| {
                        rt(p.span, format!("missing array buffer for `{}`", p.name))
                    })?;
                    let expected: usize = dims.iter().filter(|d| **d > 0).product();
                    if expected > 0 && dims.iter().all(|d| *d > 0) && buf.len() < expected {
                        return Err(rt(
                            p.span,
                            format!(
                                "buffer for `{}` has {} elements, needs {expected}",
                                p.name,
                                buf.len()
                            ),
                        ));
                    }
                    let dims = if dims.contains(&0) {
                        vec![buf.len()]
                    } else {
                        dims.clone()
                    };
                    frame.array_meta.insert(p.name.clone(), (*t, dims));
                }
                CType::Void => unreachable!("void parameters are rejected by the parser"),
            }
        }
        if scalar_iter.next().is_some() {
            return Err(rt(func.span, "too many scalar arguments"));
        }

        let mut ctx = Ctx {
            interp: self,
            func_name: name.to_string(),
            frame,
            arrays,
        };
        let flow = ctx.block(&func.body)?;
        let ret = match flow {
            Flow::Return(v) => v,
            Flow::Normal => None,
        };
        Ok(ExecOutcome {
            ret,
            outputs: ctx.frame.out_values,
        })
    }
}

fn rt(span: Span, msg: impl Into<String>) -> CError {
    CError::new(Stage::Interp, span, msg)
}

/// Per-call storage.
#[derive(Debug, Default)]
struct Frame {
    /// Scalar variables: value plus its declared type (for wrapping).
    scalars: HashMap<String, (i64, IntType)>,
    /// Local arrays: flattened storage.
    local_arrays: HashMap<String, Vec<i64>>,
    /// Array parameters: element type and dimensions (storage in caller).
    array_meta: HashMap<String, (IntType, Vec<usize>)>,
    /// Out-pointer parameters and their element types.
    out_params: HashMap<String, IntType>,
    /// Values written through out-pointers.
    out_values: HashMap<String, i64>,
    /// Local array dims for bounds checks.
    local_array_meta: HashMap<String, (IntType, Vec<usize>)>,
}

enum Flow {
    Normal,
    Return(Option<i64>),
}

struct Ctx<'a, 'p> {
    interp: &'a mut Interpreter<'p>,
    func_name: String,
    frame: Frame,
    arrays: &'a mut HashMap<String, Vec<i64>>,
}

impl<'a, 'p> Ctx<'a, 'p> {
    fn tick(&mut self, span: Span) -> CResult<()> {
        if self.interp.steps_left == 0 {
            return Err(rt(span, "execution step budget exhausted (runaway loop?)"));
        }
        self.interp.steps_left -= 1;
        *self
            .interp
            .step_counts
            .entry(self.func_name.clone())
            .or_insert(0) += 1;
        Ok(())
    }

    fn block(&mut self, b: &Block) -> CResult<Flow> {
        for s in &b.stmts {
            match self.stmt(s)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, s: &Stmt) -> CResult<Flow> {
        self.tick(s.span)?;
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                match ty {
                    CType::Int(t) => {
                        let v = match init {
                            Some(e) => t.wrap(self.eval(e)?),
                            None => 0,
                        };
                        self.frame.scalars.insert(name.clone(), (v, *t));
                    }
                    CType::Array(t, dims) => {
                        let len: usize = dims.iter().product();
                        self.frame.local_arrays.insert(name.clone(), vec![0; len]);
                        self.frame
                            .local_array_meta
                            .insert(name.clone(), (*t, dims.clone()));
                    }
                    _ => return Err(rt(s.span, "unsupported local declaration type")),
                }
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                let rhs = self.eval(value)?;
                let new = match op {
                    None => rhs,
                    Some(op) => {
                        let old = self.read_lvalue(target, s.span)?;
                        op.eval(old, rhs).map_err(|f| rt(s.span, f.to_string()))?
                    }
                };
                self.write_lvalue(target, new, s.span)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.eval(cond)? != 0 {
                    self.block(then_blk)
                } else if let Some(e) = else_blk {
                    self.block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    if let Flow::Return(v) = self.stmt(i)? {
                        return Ok(Flow::Return(v));
                    }
                }
                loop {
                    self.tick(s.span)?;
                    if let Some(c) = cond {
                        if self.eval(c)? == 0 {
                            break;
                        }
                    }
                    if let Flow::Return(v) = self.block(body)? {
                        return Ok(Flow::Return(v));
                    }
                    if let Some(st) = step {
                        if let Flow::Return(v) = self.stmt(st)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.tick(s.span)?;
                    if self.eval(cond)? == 0 {
                        break;
                    }
                    if let Flow::Return(v) = self.block(body)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Block(b) => self.block(b),
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn flat_index(
        &mut self,
        name: &str,
        dims: &[usize],
        indices: &[Expr],
        span: Span,
    ) -> CResult<usize> {
        let mut flat = 0usize;
        for (dim, idx_expr) in dims.iter().zip(indices) {
            let idx = self.eval(idx_expr)?;
            if idx < 0 || (*dim > 0 && idx as usize >= *dim) {
                return Err(rt(
                    span,
                    format!("index {idx} out of bounds for dimension {dim} of `{name}`"),
                ));
            }
            flat = flat * (*dim).max(1) + idx as usize;
        }
        Ok(flat)
    }

    fn read_lvalue(&mut self, lv: &LValue, span: Span) -> CResult<i64> {
        match lv {
            LValue::Var(n) => self
                .frame
                .scalars
                .get(n)
                .map(|(v, _)| *v)
                .ok_or_else(|| rt(span, format!("read of unset variable `{n}`"))),
            LValue::ArrayElem { name, indices } => {
                let e = Expr {
                    kind: ExprKind::ArrayIndex {
                        name: name.clone(),
                        indices: indices.clone(),
                    },
                    span,
                };
                self.eval(&e)
            }
            LValue::Deref(n) => self
                .frame
                .out_values
                .get(n)
                .copied()
                .ok_or_else(|| rt(span, format!("read of unwritten out-pointer `{n}`"))),
        }
    }

    fn write_lvalue(&mut self, lv: &LValue, value: i64, span: Span) -> CResult<()> {
        match lv {
            LValue::Var(n) => {
                let slot = self
                    .frame
                    .scalars
                    .get_mut(n)
                    .ok_or_else(|| rt(span, format!("write to undeclared variable `{n}`")))?;
                slot.0 = slot.1.wrap(value);
                Ok(())
            }
            LValue::ArrayElem { name, indices } => {
                if let Some((elem_t, dims)) = self.frame.local_array_meta.get(name).cloned() {
                    let flat = self.flat_index(name, &dims, indices, span)?;
                    let buf = self
                        .frame
                        .local_arrays
                        .get_mut(name)
                        .expect("meta implies storage");
                    buf[flat] = elem_t.wrap(value);
                    return Ok(());
                }
                let (elem_t, dims) = self
                    .frame
                    .array_meta
                    .get(name)
                    .cloned()
                    .ok_or_else(|| rt(span, format!("write to unknown array `{name}`")))?;
                let flat = self.flat_index(name, &dims, indices, span)?;
                let buf = self
                    .arrays
                    .get_mut(name)
                    .ok_or_else(|| rt(span, format!("missing buffer for `{name}`")))?;
                if flat >= buf.len() {
                    return Err(rt(span, format!("index {flat} out of bounds for `{name}`")));
                }
                buf[flat] = elem_t.wrap(value);
                Ok(())
            }
            LValue::Deref(n) => {
                let t = self
                    .frame
                    .out_params
                    .get(n)
                    .copied()
                    .ok_or_else(|| rt(span, format!("`{n}` is not an out-pointer")))?;
                self.frame.out_values.insert(n.clone(), t.wrap(value));
                Ok(())
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> CResult<i64> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(*v),
            ExprKind::Var(n) => {
                if let Some((v, _)) = self.frame.scalars.get(n) {
                    return Ok(*v);
                }
                if let Some(g) = self.interp.program.global(n) {
                    if let CType::Int(t) = g.ty {
                        return Ok(t.wrap(g.init.first().copied().unwrap_or(0)));
                    }
                }
                Err(rt(e.span, format!("read of unset variable `{n}`")))
            }
            ExprKind::ArrayIndex { name, indices } => {
                // Local array?
                if let Some((elem_t, dims)) = self.frame.local_array_meta.get(name).cloned() {
                    let flat = self.flat_index(name, &dims, indices, e.span)?;
                    let buf = &self.frame.local_arrays[name];
                    return Ok(elem_t.wrap(buf[flat]));
                }
                // Array parameter?
                if let Some((elem_t, dims)) = self.frame.array_meta.get(name).cloned() {
                    let flat = self.flat_index(name, &dims, indices, e.span)?;
                    let buf = self
                        .arrays
                        .get(name)
                        .ok_or_else(|| rt(e.span, format!("missing buffer for `{name}`")))?;
                    if flat >= buf.len() {
                        return Err(rt(
                            e.span,
                            format!("index {flat} out of bounds for `{name}`"),
                        ));
                    }
                    return Ok(elem_t.wrap(buf[flat]));
                }
                // Global (ROM) table?
                if let Some(g) = self.interp.program.global(name) {
                    if let CType::Array(t, dims) = &g.ty {
                        let dims = dims.clone();
                        let t = *t;
                        let flat = self.flat_index(name, &dims, indices, e.span)?;
                        let v = g.init.get(flat).copied().unwrap_or(0);
                        return Ok(t.wrap(v));
                    }
                }
                Err(rt(e.span, format!("unknown array `{name}`")))
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                Ok(match op {
                    UnOp::Neg => ops::neg(v),
                    UnOp::BitNot => ops::not(v),
                    UnOp::LogicalNot => ops::eq(v, 0),
                })
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::LogicalAnd => {
                        let l = self.eval(lhs)?;
                        if l == 0 {
                            return Ok(0);
                        }
                        return Ok(ops::truth(self.eval(rhs)?));
                    }
                    BinOp::LogicalOr => {
                        let l = self.eval(lhs)?;
                        if l != 0 {
                            return Ok(1);
                        }
                        return Ok(ops::truth(self.eval(rhs)?));
                    }
                    _ => {}
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                op.eval(l, r).map_err(|f| rt(e.span, f.to_string()))
            }
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => {
                if self.eval(cond)? != 0 {
                    self.eval(then_e)
                } else {
                    self.eval(else_e)
                }
            }
            ExprKind::Call { name, args } => self.call(e.span, name, args),
        }
    }

    fn call(&mut self, span: Span, name: &str, args: &[Expr]) -> CResult<i64> {
        match name {
            intrinsics::LOAD_PREV => {
                let var = match &args[0].kind {
                    ExprKind::Var(n) => n.clone(),
                    _ => return Err(rt(span, "ROCCC_load_prev needs a variable")),
                };
                Ok(self
                    .interp
                    .feedback
                    .get(&(self.func_name.clone(), var))
                    .copied()
                    .unwrap_or(0))
            }
            intrinsics::STORE_NEXT => {
                let var = match &args[0].kind {
                    ExprKind::Var(n) => n.clone(),
                    _ => return Err(rt(span, "ROCCC_store2next needs a variable")),
                };
                let v = self.eval(&args[1])?;
                // Wrap to the declared type of the feedback scalar if known.
                let wrapped = self
                    .frame
                    .scalars
                    .get(&var)
                    .map(|(_, t)| t.wrap(v))
                    .unwrap_or(v);
                self.interp
                    .feedback
                    .insert((self.func_name.clone(), var.clone()), wrapped);
                // The macro also makes the current value visible through the
                // plain variable, as in Figure 4 (c) where `*main_Tmp1 = sum`.
                if let Some(slot) = self.frame.scalars.get_mut(&var) {
                    slot.0 = slot.1.wrap(v);
                }
                Ok(wrapped)
            }
            intrinsics::LUT => {
                let table = match &args[0].kind {
                    ExprKind::Var(n) => n.clone(),
                    _ => return Err(rt(span, "ROCCC_lut needs a table name")),
                };
                let idx = self.eval(&args[1])?;
                let g = self
                    .interp
                    .program
                    .global(&table)
                    .ok_or_else(|| rt(span, format!("unknown table `{table}`")))?;
                let word = ops::lut(&g.init, idx).map_err(|f| rt(span, f.to_string()))?;
                let t = match &g.ty {
                    CType::Array(t, _) => *t,
                    _ => return Err(rt(span, "LUT target is not an array")),
                };
                Ok(t.wrap(word))
            }
            intrinsics::BITS => {
                let x = self.eval(&args[0])?;
                let hi = args[1]
                    .as_const()
                    .ok_or_else(|| rt(span, "ROCCC_bits hi must be constant"))?;
                let lo = args[2]
                    .as_const()
                    .ok_or_else(|| rt(span, "ROCCC_bits lo must be constant"))?;
                let width = (hi - lo + 1).clamp(1, 63) as u32;
                let mask = (1u64 << width) - 1;
                Ok((((x as u64) >> lo.clamp(0, ops::MAX_SHIFT)) & mask) as i64)
            }
            intrinsics::CAT => {
                let hi = self.eval(&args[0])?;
                let lo = self.eval(&args[1])?;
                let w = args[2]
                    .as_const()
                    .ok_or_else(|| rt(span, "ROCCC_cat width must be constant"))?
                    .clamp(1, 63) as u32;
                let mask = (1u64 << w) - 1;
                Ok(((hi as u64) << w) as i64 | ((lo as u64) & mask) as i64)
            }
            _ => {
                // Inline call: evaluate args, recurse with a fresh frame.
                let func = self
                    .interp
                    .program
                    .function(name)
                    .ok_or_else(|| rt(span, format!("unknown function `{name}`")))?
                    .clone();
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.eval(a)?);
                }
                let mut sub = Interpreter {
                    program: self.interp.program,
                    feedback: std::mem::take(&mut self.interp.feedback),
                    steps_left: self.interp.steps_left,
                    step_counts: std::mem::take(&mut self.interp.step_counts),
                };
                let mut no_arrays = HashMap::new();
                let out = sub.call(&func.name, &vals, &mut no_arrays)?;
                self.interp.feedback = sub.feedback;
                self.interp.steps_left = sub.steps_left;
                self.interp.step_counts = sub.step_counts;
                out.ret
                    .ok_or_else(|| rt(span, format!("void function `{name}` used as value")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str, func: &str, args: &[i64]) -> ExecOutcome {
        let prog = parse(src).unwrap();
        crate::sema::check(&prog).unwrap();
        let mut interp = Interpreter::new(&prog);
        interp.call(func, args, &mut HashMap::new()).unwrap()
    }

    #[test]
    fn fir_figure3_matches_hand_computation() {
        let src = "void fir(int A[21], int C[17]) { int i;
          for (i = 0; i < 17; i = i + 1) {
            C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        let a: Vec<i64> = (0..21).collect();
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a.clone());
        arrays.insert("C".to_string(), vec![0; 17]);
        interp.call("fir", &[], &mut arrays).unwrap();
        for i in 0..17usize {
            let expect = 3 * a[i] + 5 * a[i + 1] + 7 * a[i + 2] + 9 * a[i + 3] - a[i + 4];
            assert_eq!(arrays["C"][i], expect, "element {i}");
        }
    }

    #[test]
    fn accumulator_figure4_sums() {
        let src = "void acc(int A[32], int* out) {
          int sum = 0; int i;
          for (i = 0; i < 32; i++) { sum = sum + A[i]; }
          *out = sum; }";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), (1..=32).collect());
        let out = interp.call("acc", &[], &mut arrays).unwrap();
        assert_eq!(out.outputs["out"], (1..=32).sum::<i64>());
    }

    #[test]
    fn if_else_figure5_semantics() {
        let src = "void if_else(int x1, int x2, int* x3, int* x4) {
          int a; int c;
          c = x1 - x2;
          if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
          c = c - a;
          *x3 = c; *x4 = a; }";
        // Branch taken: c = 5-3 = 2 < 3 → a = 25, c = -23.
        let out = run(src, "if_else", &[5, 3]);
        assert_eq!(out.outputs["x4"], 25);
        assert_eq!(out.outputs["x3"], -23);
        // Branch not taken: c = 9-2 = 7 >= 2 → a = 21, c = -14.
        let out = run(src, "if_else", &[9, 2]);
        assert_eq!(out.outputs["x4"], 9 * 2 + 3);
        assert_eq!(out.outputs["x3"], 7 - 21);
    }

    #[test]
    fn feedback_macros_persist_across_calls() {
        let src = "void acc_dp(int t0, int* t1) {
          int sum; int tmp;
          tmp = ROCCC_load_prev(sum) + t0;
          ROCCC_store2next(sum, tmp);
          *t1 = tmp; }";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        let mut arrays = HashMap::new();
        let mut total = 0;
        for x in [3, 7, 11] {
            total += x;
            let out = interp.call("acc_dp", &[x], &mut arrays).unwrap();
            assert_eq!(out.outputs["t1"], total);
        }
        assert_eq!(interp.feedback_value("acc_dp", "sum"), Some(21));
    }

    #[test]
    fn wrapping_respects_declared_widths() {
        let src = "void f(uint8 a, uint8* o) { uint8 x = a + 1; *o = x; }";
        let out = run(src, "f", &[255]);
        assert_eq!(out.outputs["o"], 0);
        let src2 = "void f(int8 a, int8* o) { int8 x = a + 1; *o = x; }";
        let out2 = run(src2, "f", &[127]);
        assert_eq!(out2.outputs["o"], -128);
    }

    #[test]
    fn const_table_reads() {
        let src = "const uint16 tab[4] = {10, 20, 30, 40};
          void f(uint2 i, uint16* o) { *o = tab[i]; }";
        assert_eq!(run(src, "f", &[2]).outputs["o"], 30);
        let src_lut = "const uint16 tab[4] = {10, 20, 30, 40};
          void f(uint2 i, uint16* o) { *o = ROCCC_lut(tab, i); }";
        assert_eq!(run(src_lut, "f", &[3]).outputs["o"], 40);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = "void f(int a, int* o) { *o = 10 / a; }";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        let err = interp.call("f", &[0], &mut HashMap::new()).unwrap_err();
        assert!(err.message.contains("division"));
    }

    #[test]
    fn runaway_loop_hits_step_budget() {
        let src = "void f(int* o) { int i = 0; while (1) { i = i + 1; } *o = i; }";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new(&prog).with_step_limit(1000);
        let err = interp.call("f", &[], &mut HashMap::new()).unwrap_err();
        assert!(err.message.contains("budget"));
    }

    #[test]
    fn inlined_calls_evaluate() {
        let src = "int dbl(int x) { return x * 2; }
          void f(int a, int* o) { *o = dbl(a) + dbl(a + 1); }";
        assert_eq!(run(src, "f", &[5]).outputs["o"], 22);
    }

    #[test]
    fn two_dimensional_indexing() {
        let src = "void f(int A[2][3], int* o) { *o = A[1][2]; }";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), vec![0, 1, 2, 3, 4, 5]);
        let out = interp.call("f", &[], &mut arrays).unwrap();
        assert_eq!(out.outputs["o"], 5);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let src = "void f(int A[4], int i, int* o) { *o = A[i]; }";
        let prog = parse(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), vec![1, 2, 3, 4]);
        assert!(interp.call("f", &[9], &mut arrays).is_err());
    }

    #[test]
    fn shift_and_bitwise_semantics() {
        let src = "void f(int a, int* o) { *o = ((a << 3) >> 1) ^ (a & 12) | 1; }";
        let out = run(src, "f", &[6]);
        let a: i64 = 6;
        assert_eq!(out.outputs["o"], ((a << 3) >> 1) ^ (a & 12) | 1);
    }

    #[test]
    fn profile_ranks_hot_functions() {
        // The Figure 1 "Code Profiling" role: the inner kernel dominates
        // the statement counts, so it is the one to move to hardware.
        let src = "int work(int x) { int s = 0; int i;
            for (i = 0; i < 100; i++) { s = s + x * i; } return s; }
          void driver(int a, int* o) { *o = work(a) + work(a + 1) + 1; }";
        let prog = parse(src).unwrap();
        roccc_cparse_sema_check(&prog);
        let mut interp = Interpreter::new(&prog);
        interp.call("driver", &[3], &mut HashMap::new()).unwrap();
        let profile = interp.profile();
        assert_eq!(profile[0].0, "work", "{profile:?}");
        assert!(profile[0].1 > 100, "{profile:?}");
        assert!(profile[0].1 > 10 * profile[1].1, "{profile:?}");
    }

    fn roccc_cparse_sema_check(prog: &crate::ast::Program) {
        crate::sema::check(prog).unwrap();
    }

    #[test]
    fn bit_intrinsics_evaluate() {
        let src = "void f(uint8 x, uint8* hi, uint16* cat) {
           *hi = ROCCC_bits(x, 7, 4);
           *cat = ROCCC_cat(ROCCC_bits(x, 7, 4), ROCCC_bits(x, 3, 0), 4); }";
        let out = run(src, "f", &[0xB7]);
        assert_eq!(out.outputs["hi"], 0xB);
        assert_eq!(out.outputs["cat"], 0xB7);
    }

    #[test]
    fn ternary_evaluates_one_side() {
        let src = "void f(int a, int* o) { *o = a > 0 ? a : -a; }";
        assert_eq!(run(src, "f", &[-9]).outputs["o"], 9);
        assert_eq!(run(src, "f", &[4]).outputs["o"], 4);
    }
}
