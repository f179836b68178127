//! Function inlining.
//!
//! The paper (§2): "Function calls will either be inlined or whenever
//! feasible made into a lookup table." Sema has already rejected recursion,
//! so inlining bottom-up over the call graph terminates. Each call site is
//! replaced by the callee body with freshly renamed locals; parameters
//! become initialized locals and `return e` becomes an assignment to a
//! result temporary.

use crate::subst::{for_each_block_expr, for_each_expr, map_expr_mut, rename_vars_block};
use roccc_cparse::ast::intrinsics;
use roccc_cparse::ast::*;
use roccc_cparse::types::CType;
use std::collections::{HashMap, HashSet};

/// Inlines all calls to defined functions in every function of `p`.
/// Intrinsic calls (`ROCCC_*`) are left untouched. A program in which no
/// function calls a defined function comes back as a plain copy.
pub fn inline_program(p: &Program) -> Program {
    let defined: HashSet<&str> = p
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Function(f) => Some(f.name.as_str()),
            _ => None,
        })
        .collect();
    let calls_defined = p.items.iter().any(|i| match i {
        Item::Function(f) => callee_names(&f.body)
            .iter()
            .any(|c| defined.contains(c.as_str())),
        _ => false,
    });
    if !calls_defined {
        return p.clone();
    }
    let functions: HashMap<String, Function> = p
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Function(f) => Some((f.name.clone(), f.clone())),
            _ => None,
        })
        .collect();
    let mut done: HashMap<String, Function> = HashMap::new();
    // Inline bottom-up: repeatedly process functions whose callees are done.
    let mut remaining: Vec<&Function> = functions.values().collect();
    while !remaining.is_empty() {
        let mut progressed = false;
        remaining.retain(|f| {
            let callees = callee_names(&f.body);
            let ready = callees
                .iter()
                .all(|c| !functions.contains_key(c) || done.contains_key(c));
            if ready {
                let mut ctx = Inliner {
                    functions: &done,
                    counter: 0,
                };
                let inlined = Function {
                    body: ctx.block(&f.body),
                    ..(*f).clone()
                };
                done.insert(f.name.clone(), inlined);
                progressed = true;
                false
            } else {
                true
            }
        });
        assert!(
            progressed || remaining.is_empty(),
            "call graph has a cycle; sema should have rejected recursion"
        );
    }

    Program {
        items: p
            .items
            .iter()
            .map(|i| match i {
                Item::Function(f) => Item::Function(done[&f.name].clone()),
                g => g.clone(),
            })
            .collect(),
    }
}

fn callee_names(b: &Block) -> Vec<String> {
    let mut out = Vec::new();
    for_each_block_expr(b, &mut |top| {
        for_each_expr(top, &mut |e| {
            if let ExprKind::Call { name, .. } = &e.kind {
                if !intrinsics::is_intrinsic(name) {
                    out.push(name.clone());
                }
            }
        })
    });
    out
}

struct Inliner<'a> {
    functions: &'a HashMap<String, Function>,
    counter: usize,
}

impl<'a> Inliner<'a> {
    fn fresh(&mut self, base: &str) -> String {
        self.counter += 1;
        format!("{base}_inl{}", self.counter)
    }

    fn block(&mut self, b: &Block) -> Block {
        let mut stmts = Vec::new();
        for s in &b.stmts {
            self.stmt(s, &mut stmts);
        }
        Block {
            stmts,
            span: b.span,
        }
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        let kind = match &s.kind {
            StmtKind::Decl { name, ty, init } => StmtKind::Decl {
                name: name.clone(),
                ty: ty.clone(),
                init: init.as_ref().map(|e| self.expr(e, out)),
            },
            StmtKind::Assign { target, op, value } => {
                let target = match target {
                    LValue::ArrayElem { name, indices } => LValue::ArrayElem {
                        name: name.clone(),
                        indices: indices.iter().map(|i| self.expr(i, out)).collect(),
                    },
                    other => other.clone(),
                };
                StmtKind::Assign {
                    target,
                    op: *op,
                    value: self.expr(value, out),
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: self.expr(cond, out),
                then_blk: self.block(then_blk),
                else_blk: else_blk.as_ref().map(|b| self.block(b)),
            },
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // Calls in loop headers would need hoisting into the loop;
                // sema's canonical-loop restrictions keep headers call-free,
                // so recurse only into the body.
                StmtKind::For {
                    init: init.clone(),
                    cond: cond.clone(),
                    step: step.clone(),
                    body: self.block(body),
                }
            }
            StmtKind::While { cond, body } => StmtKind::While {
                cond: cond.clone(),
                body: self.block(body),
            },
            StmtKind::Return(e) => StmtKind::Return(e.as_ref().map(|e| self.expr(e, out))),
            StmtKind::Block(b) => StmtKind::Block(self.block(b)),
            StmtKind::Expr(e) => StmtKind::Expr(self.expr(e, out)),
        };
        out.push(Stmt { kind, span: s.span });
    }

    /// Rewrites an expression, hoisting inlined call bodies into `out` and
    /// replacing each call with its result temporary.
    fn expr(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Expr {
        let mut e = e.clone();
        let functions = self.functions;
        // Bottom-up, so a call's arguments are inlined before the call.
        map_expr_mut(&mut e, &mut |x| {
            if let ExprKind::Call { name, args } = &x.kind {
                if let Some(callee) = functions.get(name) {
                    *x = self.inline_call(callee, args, x.span, out);
                }
            }
        });
        e
    }

    /// Splices `callee`'s body into `out` and returns the expression that
    /// carries its return value.
    fn inline_call(
        &mut self,
        callee: &Function,
        args: &[Expr],
        span: roccc_cparse::span::Span,
        out: &mut Vec<Stmt>,
    ) -> Expr {
        // Rename every local and parameter to a fresh name.
        let mut rename: HashMap<String, String> = HashMap::new();
        for p in &callee.params {
            rename.insert(
                p.name.clone(),
                self.fresh(&format!("{}_{}", callee.name, p.name)),
            );
        }
        let mut locals = Vec::new();
        crate::subst::collect_scalar_writes(&callee.body, &mut locals);
        let mut decls = Vec::new();
        collect_decl_names(&callee.body, &mut decls);
        for d in decls {
            rename
                .entry(d.clone())
                .or_insert_with(|| self.fresh(&format!("{}_{}", callee.name, d)));
        }

        // Bind parameters.
        for (p, a) in callee.params.iter().zip(args) {
            let ty = match &p.ty {
                CType::Int(t) => CType::Int(*t),
                other => other.clone(),
            };
            out.push(Stmt {
                kind: StmtKind::Decl {
                    name: rename[&p.name].clone(),
                    ty,
                    init: Some(a.clone()),
                },
                span,
            });
        }

        // Result temporary for non-void callees.
        let ret_name = self.fresh(&format!("{}_ret", callee.name));
        if let CType::Int(t) = &callee.ret {
            out.push(Stmt {
                kind: StmtKind::Decl {
                    name: ret_name.clone(),
                    ty: CType::Int(*t),
                    init: None,
                },
                span,
            });
        }

        // Splice the body with renames, converting `return e` into
        // `ret = e` (callees in the subset return at the tail, enforced by
        // construction: a mid-body return would need control-flow splitting).
        let mut renamed = callee.body.clone();
        rename_vars_block(&mut renamed, &rename);
        for s in renamed.stmts {
            match s.kind {
                StmtKind::Return(Some(e)) => out.push(Stmt {
                    kind: StmtKind::Assign {
                        target: LValue::Var(ret_name.clone()),
                        op: None,
                        value: e,
                    },
                    span,
                }),
                StmtKind::Return(None) => {}
                _ => out.push(s),
            }
        }

        Expr::var(ret_name, span)
    }
}

fn collect_decl_names(b: &Block, out: &mut Vec<String>) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Decl { name, .. } => out.push(name.clone()),
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                collect_decl_names(then_blk, out);
                if let Some(e) = else_blk {
                    collect_decl_names(e, out);
                }
            }
            StmtKind::For { init, body, .. } => {
                if let Some(i) = init {
                    if let StmtKind::Decl { name, .. } = &i.kind {
                        out.push(name.clone());
                    }
                }
                collect_decl_names(body, out);
            }
            StmtKind::While { body, .. } => collect_decl_names(body, out),
            StmtKind::Block(b) => collect_decl_names(b, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::interp::Interpreter;
    use roccc_cparse::parser::parse;
    use std::collections::HashMap as Map;

    fn assert_equivalent_scalar(src: &str, func: &str, args: &[i64]) {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let inlined = inline_program(&prog);
        let o1 = Interpreter::new(&prog)
            .call(func, args, &mut Map::new())
            .unwrap();
        let o2 = Interpreter::new(&inlined)
            .call(func, args, &mut Map::new())
            .unwrap();
        assert_eq!(o1, o2);
    }

    fn has_calls(f: &Function) -> bool {
        !callee_names(&f.body).is_empty()
    }

    #[test]
    fn inlines_simple_call() {
        let src = "int dbl(int x) { return x * 2; }
          void f(int a, int* o) { *o = dbl(a) + 1; }";
        let prog = parse(src).unwrap();
        let inlined = inline_program(&prog);
        assert!(!has_calls(inlined.function("f").unwrap()));
        assert_equivalent_scalar(src, "f", &[21]);
    }

    #[test]
    fn inlines_nested_calls() {
        let src = "int inc(int x) { return x + 1; }
          int dbl(int x) { return inc(x) * 2; }
          void f(int a, int* o) { *o = dbl(dbl(a)); }";
        let prog = parse(src).unwrap();
        let inlined = inline_program(&prog);
        assert!(!has_calls(inlined.function("f").unwrap()));
        assert!(!has_calls(inlined.function("dbl").unwrap()));
        assert_equivalent_scalar(src, "f", &[5]);
    }

    #[test]
    fn inlines_call_in_condition_and_loop_body() {
        let src = "int sq(int x) { return x * x; }
          void f(int a, int* o) { int s = 0; int i;
            for (i = 0; i < 4; i++) { s = s + sq(a + i); }
            if (sq(a) > 10) { s = s + 100; }
            *o = s; }";
        let prog = parse(src).unwrap();
        let inlined = inline_program(&prog);
        assert!(!has_calls(inlined.function("f").unwrap()));
        assert_equivalent_scalar(src, "f", &[3]);
        assert_equivalent_scalar(src, "f", &[0]);
    }

    #[test]
    fn callee_with_internal_branching() {
        let src = "int absv(int x) { int r; if (x < 0) { r = -x; } else { r = x; } return r; }
          void f(int a, int b, int* o) { *o = absv(a - b) + absv(b - a); }";
        assert_equivalent_scalar(src, "f", &[3, 9]);
        assert_equivalent_scalar(src, "f", &[9, 3]);
    }

    #[test]
    fn intrinsics_are_not_inlined() {
        let src = "void f(int a, int* o) {
          int s; int t;
          t = ROCCC_load_prev(s) + a;
          ROCCC_store2next(s, t);
          *o = t; }";
        let prog = parse(src).unwrap();
        let inlined = inline_program(&prog);
        let text = inlined.to_c();
        assert!(text.contains("ROCCC_load_prev"));
        assert!(text.contains("ROCCC_store2next"));
    }

    #[test]
    fn repeated_calls_get_distinct_temporaries() {
        let src = "int id(int x) { return x; }
          void f(int a, int* o) { *o = id(a) + id(a + 1) + id(a + 2); }";
        let prog = parse(src).unwrap();
        let inlined = inline_program(&prog);
        let text = inlined.function("f").unwrap().to_c();
        assert!(text.contains("id_ret"));
        assert_equivalent_scalar(src, "f", &[10]);
    }
}
