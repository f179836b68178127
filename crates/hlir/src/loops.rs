//! Canonical loop recognition shared by the loop transformations.
//!
//! ROCCC (and this reproduction) handles counted `for` loops of the shape
//! the paper uses throughout: `for (i = c0; i < c1; i = i + c2)` with
//! constant bounds and step, possibly declaring the induction variable in
//! the header. Recognition produces a [`CanonLoop`] carrying everything the
//! unroller, strip-miner and smart-buffer generator need.

use roccc_cparse::ast::*;
use roccc_cparse::types::CType;

/// A recognized counted loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonLoop {
    /// Induction variable name.
    pub var: String,
    /// Type when the header declares the variable (`for (int i = …)`).
    pub decl_ty: Option<CType>,
    /// Initial value.
    pub start: i64,
    /// Loop bound (right-hand side of the comparison).
    pub bound: i64,
    /// Comparison operator (`<`, `<=` or `!=`).
    pub cmp: BinOp,
    /// Step added each iteration (always positive in the subset).
    pub step: i64,
    /// Loop body.
    pub body: Block,
    /// Span of the original statement.
    pub span: roccc_cparse::span::Span,
}

impl CanonLoop {
    /// Number of iterations the loop executes, when well-defined.
    ///
    /// ```
    /// use roccc_cparse::parser::parse;
    /// use roccc_hlir::loops::recognize;
    ///
    /// let prog = parse("void f(int A[8]) { int i; for (i = 0; i < 8; i += 2) { A[i] = 0; } }").unwrap();
    /// let f = prog.function("f").unwrap();
    /// let l = recognize(&f.body.stmts[1]).unwrap();
    /// assert_eq!(l.trip_count(), Some(4));
    /// ```
    pub fn trip_count(&self) -> Option<u64> {
        trip_count(self.start, self.bound, self.cmp, self.step)
    }

    /// The induction-variable value for iteration `k` (0-based).
    pub fn iter_value(&self, k: u64) -> i64 {
        self.start + self.step * k as i64
    }

    /// Rebuilds an equivalent `for` statement from (possibly modified)
    /// fields.
    pub fn to_stmt(&self) -> Stmt {
        self.clone().into_stmt()
    }

    /// [`CanonLoop::to_stmt`], moving the body into the statement.
    pub fn into_stmt(self) -> Stmt {
        let sp = self.span;
        let init: Stmt = match &self.decl_ty {
            Some(ty) => Stmt {
                kind: StmtKind::Decl {
                    name: self.var.clone(),
                    ty: ty.clone(),
                    init: Some(Expr::int(self.start, sp)),
                },
                span: sp,
            },
            None => Stmt {
                kind: StmtKind::Assign {
                    target: LValue::Var(self.var.clone()),
                    op: None,
                    value: Expr::int(self.start, sp),
                },
                span: sp,
            },
        };
        let cond = Expr {
            kind: ExprKind::Binary {
                op: self.cmp,
                lhs: Box::new(Expr::var(self.var.clone(), sp)),
                rhs: Box::new(Expr::int(self.bound, sp)),
            },
            span: sp,
        };
        let step = Stmt {
            kind: StmtKind::Assign {
                target: LValue::Var(self.var.clone()),
                op: Some(BinOp::Add),
                value: Expr::int(self.step, sp),
            },
            span: sp,
        };
        Stmt {
            kind: StmtKind::For {
                init: Some(Box::new(init)),
                cond: Some(cond),
                step: Some(Box::new(step)),
                body: self.body,
            },
            span: sp,
        }
    }
}

fn trip_count(start: i64, bound: i64, cmp: BinOp, step: i64) -> Option<u64> {
    if step <= 0 {
        return None;
    }
    let distance = match cmp {
        BinOp::Lt => bound - start,
        BinOp::Le => bound - start + 1,
        BinOp::Ne => {
            let d = bound - start;
            if d % step != 0 || d < 0 {
                return None;
            }
            d
        }
        _ => return None,
    };
    if distance <= 0 {
        return Some(0);
    }
    Some(((distance + step - 1) / step) as u64)
}

/// The header of a recognized counted loop: every [`CanonLoop`] field but
/// the body.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoopHeader {
    pub var: String,
    pub decl_ty: Option<CType>,
    pub start: i64,
    pub bound: i64,
    pub cmp: BinOp,
    pub step: i64,
    pub span: roccc_cparse::span::Span,
}

impl LoopHeader {
    /// See [`CanonLoop::trip_count`].
    pub fn trip_count(&self) -> Option<u64> {
        trip_count(self.start, self.bound, self.cmp, self.step)
    }

    /// The loop with this header and `body`.
    pub fn with_body(self, body: Block) -> CanonLoop {
        CanonLoop {
            var: self.var,
            decl_ty: self.decl_ty,
            start: self.start,
            bound: self.bound,
            cmp: self.cmp,
            step: self.step,
            body,
            span: self.span,
        }
    }
}

/// Attempts to recognize `stmt` as a canonical counted loop.
///
/// Returns `None` when the statement is not a `for` loop or its header is
/// not in the constant-bound form (`i = c0; i </<=/!= c1; i = i + c2`,
/// `i += c2`, or `i++`).
pub fn recognize(stmt: &Stmt) -> Option<CanonLoop> {
    let header = recognize_header(stmt)?;
    let StmtKind::For { body, .. } = &stmt.kind else {
        unreachable!("a recognized loop is a `for` statement");
    };
    Some(header.with_body(body.clone()))
}

/// True when `b` contains a `for` or `while` loop, looking through branches
/// and bare blocks but not into loop bodies.
pub(crate) fn contains_loop(b: &Block) -> bool {
    b.stmts.iter().any(|s| match &s.kind {
        StmtKind::For { .. } | StmtKind::While { .. } => true,
        StmtKind::If {
            then_blk, else_blk, ..
        } => contains_loop(then_blk) || else_blk.as_ref().is_some_and(contains_loop),
        StmtKind::Block(inner) => contains_loop(inner),
        _ => false,
    })
}

/// [`recognize`], moving the body out of `stmt` instead of copying it;
/// `stmt` keeps its header and an empty body.
pub(crate) fn take_loop(stmt: &mut Stmt) -> Option<CanonLoop> {
    let header = recognize_header(stmt)?;
    let StmtKind::For { body, .. } = &mut stmt.kind else {
        unreachable!("a recognized loop is a `for` statement");
    };
    Some(header.with_body(std::mem::take(body)))
}

/// [`recognize`] without the body.
pub(crate) fn recognize_header(stmt: &Stmt) -> Option<LoopHeader> {
    let (init, cond, step) = match &stmt.kind {
        StmtKind::For {
            init: Some(init),
            cond: Some(cond),
            step: Some(step),
            ..
        } => (init, cond, step),
        _ => return None,
    };

    // Init: `i = c0` or `int i = c0`.
    let (var, decl_ty, start) = match &init.kind {
        StmtKind::Assign {
            target: LValue::Var(v),
            op: None,
            value,
        } => (v.clone(), None, value.as_const()?),
        StmtKind::Decl {
            name,
            ty,
            init: Some(value),
        } => (name.clone(), Some(ty.clone()), value.as_const()?),
        _ => return None,
    };

    // Condition: `i <cmp> c1`.
    let (cmp, bound) = match &cond.kind {
        ExprKind::Binary { op, lhs, rhs } => {
            let lhs_is_var = matches!(&lhs.kind, ExprKind::Var(n) if *n == var);
            if !lhs_is_var {
                return None;
            }
            match op {
                BinOp::Lt | BinOp::Le | BinOp::Ne => (*op, rhs.as_const()?),
                _ => return None,
            }
        }
        _ => return None,
    };

    // Step: `i = i + c2`, `i += c2` (incl. desugared `i++`).
    let step_val = match &step.kind {
        StmtKind::Assign {
            target: LValue::Var(v),
            op: Some(BinOp::Add),
            value,
        } if *v == var => value.as_const()?,
        StmtKind::Assign {
            target: LValue::Var(v),
            op: None,
            value,
        } if *v == var => match &value.kind {
            ExprKind::Binary {
                op: BinOp::Add,
                lhs,
                rhs,
            } => {
                let lhs_is_var = matches!(&lhs.kind, ExprKind::Var(n) if *n == var);
                if !lhs_is_var {
                    return None;
                }
                rhs.as_const()?
            }
            _ => return None,
        },
        _ => return None,
    };
    if step_val <= 0 {
        return None;
    }

    Some(LoopHeader {
        var,
        decl_ty,
        start,
        bound,
        cmp,
        step: step_val,
        span: stmt.span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;

    fn first_loop(src: &str) -> Option<CanonLoop> {
        let prog = parse(src).unwrap();
        let f = prog.items.iter().find_map(|i| match i {
            Item::Function(f) => Some(f),
            _ => None,
        })?;
        f.body.stmts.iter().find_map(recognize)
    }

    #[test]
    fn recognizes_paper_style_loop() {
        let l =
            first_loop("void f(int A[17]) { int i; for (i = 0; i < 17; i = i + 1) { A[i] = 0; } }")
                .unwrap();
        assert_eq!(l.var, "i");
        assert_eq!((l.start, l.bound, l.step), (0, 17, 1));
        assert_eq!(l.trip_count(), Some(17));
    }

    #[test]
    fn recognizes_increment_forms() {
        let l =
            first_loop("void f(int A[32]) { for (int i = 0; i < 32; i++) { A[i] = 1; } }").unwrap();
        assert_eq!(l.step, 1);
        assert!(l.decl_ty.is_some());
        let l2 =
            first_loop("void f(int A[32]) { int i; for (i = 4; i <= 30; i += 2) { A[i] = 1; } }")
                .unwrap();
        assert_eq!(l2.trip_count(), Some(14));
    }

    #[test]
    fn rejects_non_constant_bounds() {
        assert!(first_loop(
            "void f(int n, int A[8]) { int i; for (i = 0; i < n; i++) { A[i] = 0; } }"
        )
        .is_none());
        assert!(
            first_loop("void f(int A[8]) { int i; for (i = 0; i > -8; i++) { A[0] = 0; } }")
                .is_none()
        );
    }

    #[test]
    fn ne_condition_requires_exact_step() {
        let l = first_loop("void f(int A[8]) { int i; for (i = 0; i != 8; i += 2) { A[i] = 0; } }")
            .unwrap();
        assert_eq!(l.trip_count(), Some(4));
        let l2 =
            first_loop("void f(int A[8]) { int i; for (i = 0; i != 7; i += 2) { A[i] = 0; } }")
                .unwrap();
        assert_eq!(l2.trip_count(), None);
    }

    #[test]
    fn iter_values_follow_step() {
        let l =
            first_loop("void f(int A[16]) { int i; for (i = 3; i < 16; i += 4) { A[i] = 0; } }")
                .unwrap();
        let vals: Vec<i64> = (0..l.trip_count().unwrap())
            .map(|k| l.iter_value(k))
            .collect();
        assert_eq!(vals, vec![3, 7, 11, 15]);
    }

    #[test]
    fn to_stmt_round_trips() {
        let l = first_loop("void f(int A[8]) { int i; for (i = 0; i < 8; i++) { A[i] = 0; } }")
            .unwrap();
        let rebuilt = l.to_stmt();
        let l2 = recognize(&rebuilt).unwrap();
        assert_eq!(l.trip_count(), l2.trip_count());
        assert_eq!(l.var, l2.var);
    }

    #[test]
    fn zero_trip_loops() {
        let l = first_loop("void f(int A[8]) { int i; for (i = 8; i < 8; i++) { A[i] = 0; } }")
            .unwrap();
        assert_eq!(l.trip_count(), Some(0));
    }
}
