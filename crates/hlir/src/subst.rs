//! AST rewriting helpers shared by the loop transformations.
//!
//! Rewrites happen in place: a pass that needs a fresh copy of a statement
//! (one unrolled body copy, say) clones it once, and every later rewrite
//! mutates that copy without rebuilding it.

use roccc_cparse::ast::*;
use std::collections::HashMap;

/// Applies `f` bottom-up to every expression node inside `e`, in place:
/// children first, then the node itself. A node `f` replaces is not
/// revisited.
pub(crate) fn map_expr_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match &mut e.kind {
        ExprKind::IntLit(_) | ExprKind::Var(_) => {}
        ExprKind::ArrayIndex { indices: args, .. } | ExprKind::Call { args, .. } => {
            for a in args {
                map_expr_mut(a, f);
            }
        }
        ExprKind::Unary { operand, .. } => map_expr_mut(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            map_expr_mut(lhs, f);
            map_expr_mut(rhs, f);
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            map_expr_mut(cond, f);
            map_expr_mut(then_e, f);
            map_expr_mut(else_e, f);
        }
    }
    f(e);
}

/// Visits every expression node inside `e` in the order [`map_expr_mut`]
/// rewrites them.
pub(crate) fn for_each_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::Var(_) => {}
        ExprKind::ArrayIndex { indices: args, .. } | ExprKind::Call { args, .. } => {
            for a in args {
                for_each_expr(a, f);
            }
        }
        ExprKind::Unary { operand, .. } => for_each_expr(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            for_each_expr(lhs, f);
            for_each_expr(rhs, f);
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            for_each_expr(cond, f);
            for_each_expr(then_e, f);
            for_each_expr(else_e, f);
        }
    }
    f(e);
}

/// Replaces every read of variable `var` in a copy of `s` with
/// `replacement`.
pub fn subst_var_stmt(s: &Stmt, var: &str, replacement: &Expr) -> Stmt {
    let mut s = s.clone();
    map_stmt_exprs_mut(&mut s, &mut |e| {
        map_expr_mut(e, &mut |x| {
            if matches!(&x.kind, ExprKind::Var(n) if n == var) {
                x.kind = replacement.kind.clone();
            }
        })
    });
    s
}

/// Applies `f` in place to every top-level expression of a statement tree
/// (conditions, right-hand sides, store indices, initializers), recursing
/// through blocks and loop headers.
pub(crate) fn map_stmt_exprs_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match &mut s.kind {
        StmtKind::Decl { init, .. } => init.iter_mut().for_each(f),
        StmtKind::Assign { target, value, .. } => {
            if let LValue::ArrayElem { indices, .. } = target {
                indices.iter_mut().for_each(&mut *f);
            }
            f(value);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            f(cond);
            map_block_exprs_mut(then_blk, f);
            if let Some(b) = else_blk {
                map_block_exprs_mut(b, f);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(st) = init {
                map_stmt_exprs_mut(st, f);
            }
            cond.iter_mut().for_each(&mut *f);
            if let Some(st) = step {
                map_stmt_exprs_mut(st, f);
            }
            map_block_exprs_mut(body, f);
        }
        StmtKind::While { cond, body } => {
            f(cond);
            map_block_exprs_mut(body, f);
        }
        StmtKind::Return(e) => e.iter_mut().for_each(f),
        StmtKind::Block(b) => map_block_exprs_mut(b, f),
        StmtKind::Expr(e) => f(e),
    }
}

/// Applies `f` in place to every top-level expression of a block. See
/// [`map_stmt_exprs_mut`].
pub(crate) fn map_block_exprs_mut(b: &mut Block, f: &mut impl FnMut(&mut Expr)) {
    for s in &mut b.stmts {
        map_stmt_exprs_mut(s, f);
    }
}

/// Visits every top-level expression of a block (conditions, right-hand
/// sides, store indices, initializers), each statement's own before those
/// of the statements nested in it.
pub(crate) fn for_each_block_expr<'a>(b: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for_each_stmt(b, &mut |s| match &s.kind {
        StmtKind::Decl { init: Some(e), .. }
        | StmtKind::If { cond: e, .. }
        | StmtKind::For { cond: Some(e), .. }
        | StmtKind::While { cond: e, .. }
        | StmtKind::Return(Some(e))
        | StmtKind::Expr(e) => f(e),
        StmtKind::Assign { target, value, .. } => {
            if let LValue::ArrayElem { indices, .. } = target {
                indices.iter().for_each(&mut *f);
            }
            f(value);
        }
        _ => {}
    });
}

/// Collects the names of all variables read anywhere in `e`.
pub fn collect_var_reads(e: &Expr, out: &mut Vec<String>) {
    for_each_expr(e, &mut |x| {
        if let ExprKind::Var(n) = &x.kind {
            out.push(n.clone());
        }
    });
}

/// Visits every statement of a block tree, each before the statements
/// nested in it: branch bodies, loop headers, then loop bodies.
pub(crate) fn for_each_stmt<'a>(b: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &b.stmts {
        f(s);
        match &s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                for_each_stmt(then_blk, f);
                if let Some(e) = else_blk {
                    for_each_stmt(e, f);
                }
            }
            StmtKind::For {
                init, step, body, ..
            } => {
                init.iter().chain(step).for_each(|st| f(st));
                for_each_stmt(body, f);
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => for_each_stmt(body, f),
            _ => {}
        }
    }
}

/// Collects scalar variables written anywhere in a block (assignments and
/// declarations with initializers), recursing into nested control flow.
pub fn collect_scalar_writes(b: &Block, out: &mut Vec<String>) {
    for_each_stmt(b, &mut |s| match &s.kind {
        StmtKind::Decl {
            name,
            init: Some(_),
            ..
        }
        | StmtKind::Assign {
            target: LValue::Var(name),
            ..
        } => out.push(name.clone()),
        _ => {}
    });
}

/// Renames every variable occurrence (reads, writes, declarations) in
/// place using the provided mapping; names absent from the map are left
/// unchanged. Store indices keep their names.
pub fn rename_vars_block(b: &mut Block, map: &HashMap<String, String>) {
    for s in &mut b.stmts {
        rename_vars_stmt(s, map);
    }
}

fn rename_vars_stmt(s: &mut Stmt, map: &HashMap<String, String>) {
    let rename = |n: &mut String| {
        if let Some(new) = map.get(n) {
            n.clone_from(new);
        }
    };
    let expr = &mut |e: &mut Expr| {
        map_expr_mut(e, &mut |x| match &mut x.kind {
            ExprKind::Var(n) | ExprKind::ArrayIndex { name: n, .. } => rename(n),
            _ => {}
        })
    };
    match &mut s.kind {
        StmtKind::Decl { name, init, .. } => {
            rename(name);
            init.iter_mut().for_each(expr);
        }
        StmtKind::Assign { target, value, .. } => {
            match target {
                LValue::Var(n) | LValue::Deref(n) | LValue::ArrayElem { name: n, .. } => rename(n),
            }
            expr(value);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            expr(cond);
            rename_vars_block(then_blk, map);
            if let Some(b) = else_blk {
                rename_vars_block(b, map);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(st) = init {
                rename_vars_stmt(st, map);
            }
            cond.iter_mut().for_each(&mut *expr);
            if let Some(st) = step {
                rename_vars_stmt(st, map);
            }
            rename_vars_block(body, map);
        }
        StmtKind::While { cond, body } => {
            expr(cond);
            rename_vars_block(body, map);
        }
        StmtKind::Return(e) => e.iter_mut().for_each(expr),
        StmtKind::Block(b) => rename_vars_block(b, map),
        StmtKind::Expr(e) => expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;
    use roccc_cparse::span::Span;

    fn expr_of(src: &str) -> Expr {
        // Parse `int f() { return <src>; }` and pull out the expression.
        let prog = parse(&format!("int f(int a, int b, int i) {{ return {src}; }}")).unwrap();
        match &prog.function("f").unwrap().body.stmts[0].kind {
            StmtKind::Return(Some(e)) => e.clone(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn subst_replaces_all_occurrences() {
        let prog = parse("int f(int a, int b) { return a + a * b; }").unwrap();
        let f = prog.function("f").unwrap();
        let s = subst_var_stmt(&f.body.stmts[0], "a", &Expr::int(7, Span::dummy()));
        match &s.kind {
            StmtKind::Return(Some(e)) => assert_eq!(e.to_c(), "(7 + (7 * b))"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn subst_reaches_array_indices() {
        let prog = parse("void f(int A[8], int i, int* o) { *o = A[i + 1]; }").unwrap();
        let f = prog.function("f").unwrap();
        let s = subst_var_stmt(&f.body.stmts[0], "i", &Expr::int(3, Span::dummy()));
        match &s.kind {
            StmtKind::Assign { value, .. } => assert_eq!(value.to_c(), "A[(3 + 1)]"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn collect_reads_finds_nested() {
        let e = expr_of("a > 0 ? b : a + i");
        let mut reads = Vec::new();
        collect_var_reads(&e, &mut reads);
        reads.sort();
        assert_eq!(reads, vec!["a", "a", "b", "i"]);
    }

    #[test]
    fn rename_renames_decls_and_uses() {
        let prog = parse("void f() { int x = 1; int y = x + 2; }").unwrap();
        let f = prog.function("f").unwrap();
        let mut map = HashMap::new();
        map.insert("x".to_string(), "x_1".to_string());
        let mut renamed = f.body.clone();
        rename_vars_block(&mut renamed, &map);
        let text: String = renamed.stmts.iter().map(|s| format!("{s:?}")).collect();
        assert!(text.contains("x_1"));
        assert!(!text.contains("\"x\""));
    }

    #[test]
    fn collect_writes_descends_into_branches() {
        let prog = parse("void f(int c) { int a; if (c) { a = 1; } else { a = 2; } }").unwrap();
        let f = prog.function("f").unwrap();
        let mut writes = Vec::new();
        collect_scalar_writes(&f.body, &mut writes);
        assert_eq!(writes, vec!["a", "a"]);
    }
}
