//! Constant folding and algebraic simplification.
//!
//! One of ROCCC's "conventional optimizations" (§2). Folding runs at the AST
//! level so that loop bounds and array indices become literal constants
//! before unrolling and scalar replacement; the back end (`roccc-suifvm`)
//! folds again at the IR level after other passes expose more constants.

use crate::subst::{map_block_exprs_mut, map_expr_mut};
use roccc_cparse::ast::*;
use roccc_cparse::ops;

/// Folds constants in every function of the program, in place.
pub(crate) fn fold_program_mut(p: &mut Program) {
    for item in &mut p.items {
        if let Item::Function(f) = item {
            fold_block_mut(&mut f.body);
        }
    }
}

/// Folds constants in a copy of one function.
pub fn fold_function(f: &Function) -> Function {
    let mut f = f.clone();
    fold_block_mut(&mut f.body);
    f
}

/// Folds constants in a block, in place.
pub fn fold_block_mut(b: &mut Block) {
    map_block_exprs_mut(b, &mut fold_expr_mut);
}

/// Folds an expression bottom-up: literal arithmetic is evaluated and
/// algebraic identities are applied (`x*1 → x`, `x+0 → x`, `x*0 → 0`,
/// `x<<0 → x`, `x&0 → 0`, `1?a:b → a`, …).
///
/// ```
/// use roccc_cparse::{parser::parse, ast::StmtKind};
/// use roccc_hlir::fold::fold_expr_mut;
///
/// let prog = parse("int f(int x) { return x * 1 + 2 * 3; }").unwrap();
/// let mut e = match &prog.function("f").unwrap().body.stmts[0].kind {
///     StmtKind::Return(Some(e)) => e.clone(),
///     _ => unreachable!(),
/// };
/// fold_expr_mut(&mut e);
/// assert_eq!(e.to_c(), "(x + 6)");
/// ```
pub fn fold_expr_mut(e: &mut Expr) {
    map_expr_mut(e, &mut |x| {
        // `fold_node` returns every other kind unchanged.
        if matches!(
            x.kind,
            ExprKind::Unary { .. } | ExprKind::Binary { .. } | ExprKind::Cond { .. }
        ) {
            let placeholder = Expr::int(0, x.span);
            *x = fold_node(std::mem::replace(x, placeholder));
        }
    });
}

fn fold_node(e: Expr) -> Expr {
    let span = e.span;
    match &e.kind {
        ExprKind::Unary { op, operand } => {
            if let Some(v) = operand.as_const() {
                let folded = match op {
                    UnOp::Neg => ops::neg(v),
                    UnOp::BitNot => ops::not(v),
                    UnOp::LogicalNot => ops::eq(v, 0),
                };
                return Expr::int(folded, span);
            }
            e
        }
        ExprKind::Binary { op, lhs, rhs } => {
            if let (Some(l), Some(r)) = (lhs.as_const(), rhs.as_const()) {
                // A faulting operation stays in place so the interpreter
                // reports it with the right span.
                if let Ok(v) = op.eval(l, r) {
                    return Expr::int(v, span);
                }
            }
            // Algebraic identities with one constant side.
            if let Some(simplified) = simplify_identity(*op, lhs, rhs, span) {
                return simplified;
            }
            // Reassociation: `(x ± c1) ± c2 → x ± c`. Unrolling substitutes
            // `i → i + j` into window indices like `A[i + 1]`, producing
            // `A[(i + j) + 1]`; collapsing the constants restores the
            // `i + c` affine form the memory analysis requires.
            if let Some(reassoc) = reassociate(*op, lhs, rhs, span) {
                return reassoc;
            }
            e
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            if let Some(c) = cond.as_const() {
                return if c != 0 {
                    (**then_e).clone()
                } else {
                    (**else_e).clone()
                };
            }
            e
        }
        _ => e,
    }
}

fn simplify_identity(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    span: roccc_cparse::span::Span,
) -> Option<Expr> {
    let lc = lhs.as_const();
    let rc = rhs.as_const();
    match op {
        BinOp::Add => {
            if rc == Some(0) {
                return Some(lhs.clone());
            }
            if lc == Some(0) {
                return Some(rhs.clone());
            }
        }
        BinOp::Sub
            if rc == Some(0) => {
                return Some(lhs.clone());
            }
        BinOp::Mul => {
            if rc == Some(1) {
                return Some(lhs.clone());
            }
            if lc == Some(1) {
                return Some(rhs.clone());
            }
            if rc == Some(0) || lc == Some(0) {
                return Some(Expr::int(0, span));
            }
        }
        BinOp::Div
            if rc == Some(1) => {
                return Some(lhs.clone());
            }
        BinOp::Shl | BinOp::Shr => {
            if rc == Some(0) {
                return Some(lhs.clone());
            }
            if lc == Some(0) {
                return Some(Expr::int(0, span));
            }
        }
        BinOp::BitAnd => {
            if rc == Some(0) || lc == Some(0) {
                return Some(Expr::int(0, span));
            }
            if rc == Some(-1) {
                return Some(lhs.clone());
            }
            if lc == Some(-1) {
                return Some(rhs.clone());
            }
        }
        BinOp::BitOr | BinOp::BitXor => {
            if rc == Some(0) {
                return Some(lhs.clone());
            }
            if lc == Some(0) {
                return Some(rhs.clone());
            }
        }
        BinOp::LogicalAnd
            // The subset has no side effects in expressions, so a constant
            // zero on either side collapses the conjunction.
            if (rc == Some(0) || lc == Some(0)) => {
                return Some(Expr::int(0, span));
            }
        BinOp::LogicalOr
            if (matches!(rc, Some(v) if v != 0) || matches!(lc, Some(v) if v != 0)) => {
                return Some(Expr::int(1, span));
            }
        _ => {}
    }
    None
}

/// Collapses constant chains: `(x + c1) + c2 → x + (c1 + c2)`, with `Sub`
/// variants and the commuted `c + (x + c1)` form. Only the outer constant
/// and the inner right-or-left constant are combined; `c - x` shapes (base
/// negated) are left alone.
fn reassociate(op: BinOp, lhs: &Expr, rhs: &Expr, span: roccc_cparse::span::Span) -> Option<Expr> {
    // Normalize the outer node to `inner + c_outer`.
    let (inner, c_outer) = match op {
        BinOp::Add => {
            if let Some(c) = rhs.as_const() {
                (lhs, c)
            } else if let Some(c) = lhs.as_const() {
                (rhs, c)
            } else {
                return None;
            }
        }
        BinOp::Sub => (lhs, ops::neg(rhs.as_const()?)),
        _ => return None,
    };
    // Normalize the inner node to `base + c_inner`.
    let ExprKind::Binary {
        op: iop,
        lhs: ilhs,
        rhs: irhs,
    } = &inner.kind
    else {
        return None;
    };
    let (base, c_inner) = match iop {
        BinOp::Add => {
            if let Some(c) = irhs.as_const() {
                (ilhs, c)
            } else if let Some(c) = ilhs.as_const() {
                (irhs, c)
            } else {
                return None;
            }
        }
        BinOp::Sub => (ilhs, ops::neg(irhs.as_const()?)),
        _ => return None,
    };
    let c = ops::add(c_inner, c_outer);
    if c == 0 {
        return Some((**base).clone());
    }
    let (op2, mag) = if c < 0 {
        (BinOp::Sub, ops::neg(c))
    } else {
        (BinOp::Add, c)
    };
    Some(Expr {
        kind: ExprKind::Binary {
            op: op2,
            lhs: base.clone(),
            rhs: Box::new(Expr::int(mag, span)),
        },
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;

    fn fold_ret(src: &str) -> String {
        let prog = parse(&format!("int f(int x, int y) {{ return {src}; }}")).unwrap();
        let folded = fold_function(prog.function("f").unwrap());
        match &folded.body.stmts[0].kind {
            StmtKind::Return(Some(e)) => e.to_c(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn folds_literal_arithmetic() {
        assert_eq!(fold_ret("2 + 3 * 4"), "14");
        assert_eq!(fold_ret("(10 - 4) / 3"), "2");
        assert_eq!(fold_ret("1 << 5"), "32");
        assert_eq!(fold_ret("-(3) + 1"), "-2");
        assert_eq!(fold_ret("~0 & 255"), "255");
    }

    #[test]
    fn folds_comparisons_and_logic() {
        assert_eq!(fold_ret("3 < 4"), "1");
        assert_eq!(fold_ret("3 == 4 || 1"), "1");
        assert_eq!(fold_ret("0 && x"), "0");
    }

    #[test]
    fn applies_identities() {
        assert_eq!(fold_ret("x * 1"), "x");
        assert_eq!(fold_ret("x + 0"), "x");
        assert_eq!(fold_ret("0 + x"), "x");
        assert_eq!(fold_ret("x * 0"), "0");
        assert_eq!(fold_ret("x - 0"), "x");
        assert_eq!(fold_ret("x << 0"), "x");
        assert_eq!(fold_ret("x & 0"), "0");
        assert_eq!(fold_ret("x | 0"), "x");
        assert_eq!(fold_ret("x ^ 0"), "x");
    }

    #[test]
    fn reassociates_constant_chains() {
        assert_eq!(fold_ret("(x + 1) + 2"), "(x + 3)");
        assert_eq!(fold_ret("(x - 1) + 3"), "(x + 2)");
        assert_eq!(fold_ret("(x + 5) - 2"), "(x + 3)");
        assert_eq!(fold_ret("(x - 3) - 1"), "(x - 4)");
        assert_eq!(fold_ret("(x + 2) - 2"), "x");
        assert_eq!(fold_ret("2 + (x + 1)"), "(x + 3)");
        assert_eq!(fold_ret("(1 + x) + 1"), "(x + 2)");
        // `c - x` keeps its shape (base would be negated).
        assert_eq!(fold_ret("(3 - x) + 1"), "((3 - x) + 1)");
    }

    #[test]
    fn folds_constant_ternary() {
        assert_eq!(fold_ret("1 ? x : y"), "x");
        assert_eq!(fold_ret("0 ? x : y"), "y");
        assert_eq!(fold_ret("2 > 1 ? 5 : 6"), "5");
    }

    #[test]
    fn leaves_division_by_zero_unfolded() {
        assert_eq!(fold_ret("4 / 0"), "(4 / 0)");
        assert_eq!(fold_ret("4 % 0"), "(4 % 0)");
    }

    #[test]
    fn folds_inside_loop_bounds() {
        let prog = parse(
            "void f(int A[8], int* o) { int i; int s = 0;
          for (i = 0; i < 2 * 4; i++) { s = s + A[i]; } *o = s; }",
        )
        .unwrap();
        let folded = fold_function(prog.function("f").unwrap());
        let text = folded.to_c();
        assert!(text.contains("i < 8"), "bounds folded: {text}");
    }

    #[test]
    fn nested_folding_cascades() {
        assert_eq!(fold_ret("(1 + 1) * (2 + 2)"), "8");
        assert_eq!(fold_ret("x * (3 - 2)"), "x");
    }

    /// The clone-and-rebuild fold that [`fold_block_mut`] replaced, kept
    /// as the oracle for the in-place traversal: every node is rebuilt
    /// from its folded children and then passed to [`fold_node`].
    mod oracle {
        use super::super::fold_node;
        use roccc_cparse::ast::*;

        fn map_expr(e: &Expr) -> Expr {
            let kind = match &e.kind {
                ExprKind::IntLit(v) => ExprKind::IntLit(*v),
                ExprKind::Var(n) => ExprKind::Var(n.clone()),
                ExprKind::ArrayIndex { name, indices } => ExprKind::ArrayIndex {
                    name: name.clone(),
                    indices: indices.iter().map(map_expr).collect(),
                },
                ExprKind::Unary { op, operand } => ExprKind::Unary {
                    op: *op,
                    operand: Box::new(map_expr(operand)),
                },
                ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
                    op: *op,
                    lhs: Box::new(map_expr(lhs)),
                    rhs: Box::new(map_expr(rhs)),
                },
                ExprKind::Cond {
                    cond,
                    then_e,
                    else_e,
                } => ExprKind::Cond {
                    cond: Box::new(map_expr(cond)),
                    then_e: Box::new(map_expr(then_e)),
                    else_e: Box::new(map_expr(else_e)),
                },
                ExprKind::Call { name, args } => ExprKind::Call {
                    name: name.clone(),
                    args: args.iter().map(map_expr).collect(),
                },
            };
            fold_node(Expr { kind, span: e.span })
        }

        fn stmt(s: &Stmt) -> Stmt {
            let kind = match &s.kind {
                StmtKind::Decl { name, ty, init } => StmtKind::Decl {
                    name: name.clone(),
                    ty: ty.clone(),
                    init: init.as_ref().map(map_expr),
                },
                StmtKind::Assign { target, op, value } => StmtKind::Assign {
                    target: match target {
                        LValue::ArrayElem { name, indices } => LValue::ArrayElem {
                            name: name.clone(),
                            indices: indices.iter().map(map_expr).collect(),
                        },
                        other => other.clone(),
                    },
                    op: *op,
                    value: map_expr(value),
                },
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => StmtKind::If {
                    cond: map_expr(cond),
                    then_blk: block(then_blk),
                    else_blk: else_blk.as_ref().map(block),
                },
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                } => StmtKind::For {
                    init: init.as_ref().map(|st| Box::new(stmt(st))),
                    cond: cond.as_ref().map(map_expr),
                    step: step.as_ref().map(|st| Box::new(stmt(st))),
                    body: block(body),
                },
                StmtKind::While { cond, body } => StmtKind::While {
                    cond: map_expr(cond),
                    body: block(body),
                },
                StmtKind::Return(e) => StmtKind::Return(e.as_ref().map(map_expr)),
                StmtKind::Block(b) => StmtKind::Block(block(b)),
                StmtKind::Expr(e) => StmtKind::Expr(map_expr(e)),
            };
            Stmt { kind, span: s.span }
        }

        pub fn block(b: &Block) -> Block {
            Block {
                stmts: b.stmts.iter().map(stmt).collect(),
                span: b.span,
            }
        }
    }

    /// Folds `b` in place and checks the result against the oracle, and
    /// that a second fold changes nothing.
    fn check_fold(b: &Block, what: &str) -> Block {
        let mut folded = b.clone();
        fold_block_mut(&mut folded);
        assert!(folded == oracle::block(b), "{what}: in-place fold differs");
        let mut twice = folded.clone();
        fold_block_mut(&mut twice);
        assert!(twice == folded, "{what}: folding is not idempotent");
        folded
    }

    #[test]
    fn in_place_fold_matches_oracle_on_generated_kernels() {
        for case in 0..520u64 {
            let mut rng = roccc_testutil::XorShift64::new(0xf01d + case);
            let src = roccc_testutil::exprgen::gen_kernel_source(&mut rng, 1 + case as u32 % 5);
            let prog = parse(&src).unwrap();
            check_fold(&prog.function("k").unwrap().body, &src);
        }
    }

    #[test]
    fn in_place_fold_matches_oracle_on_sweep_bodies() {
        use roccc_ipcores::kernels::{dct_source, fir_source, wavelet_source};
        for (name, src) in [
            ("fir", fir_source()),
            ("dct", dct_source()),
            ("wavelet", wavelet_source()),
        ] {
            let f0 = parse(&src).unwrap().function(name).unwrap().clone();
            for factor in [1u64, 2, 3, 4, 6, 8] {
                for strip in [0u64, 2, 4, 8] {
                    let what = format!("{name} u{factor} s{strip}");
                    let mut f = f0.clone();
                    if strip > 0 {
                        f = crate::stripmine::stripmine_unroll_function_checked(&f, strip).unwrap();
                        f.body = check_fold(&f.body, &what);
                    }
                    if factor > 1 {
                        f = crate::unroll::partially_unroll_function_checked(&f, factor).unwrap();
                        check_fold(&f.body, &what);
                    }
                }
            }
        }
    }
}
