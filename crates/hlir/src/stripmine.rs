//! Loop strip-mining.
//!
//! One of ROCCC's "FPGA-specific optimizations" (§2): a counted loop is
//! split into an outer loop advancing by `strip` and an inner loop covering
//! one strip. On the FPGA the inner loop is then typically fully unrolled so
//! that each outer iteration feeds a wide data-path fed from one smart-buffer
//! line, matching the strip size to the memory bus width.

use crate::loops::{contains_loop, recognize, recognize_header, CanonLoop};
use roccc_cparse::ast::*;
use roccc_cparse::span::Span;

/// Strip-mines every *innermost* canonical loop in `f` by `strip` and
/// fully unrolls the strip, the composition the paper actually feeds the
/// data-path builder: "the inner loop is then typically fully unrolled so
/// that each outer iteration feeds a wide data-path fed from one
/// smart-buffer line". The nested form produced by [`stripmine_function`]
/// has a symbolic-start inner loop that kernel extraction cannot window,
/// so this pass flattens the strip immediately: the result is a single
/// loop stepping by `strip * step` whose body computes one whole strip
/// (algebraically the same expansion as partial unrolling, which the
/// flattening reuses — what distinguishes a strip-mined configuration is
/// that the strip width is matched to the smart-buffer line / memory bus
/// width downstream).
///
/// Loops that are not innermost, not canonical, or shorter than one strip
/// are left untouched.
pub fn stripmine_unroll_function(f: &Function, strip: u64) -> Function {
    let mut f = f.clone();
    smu_block(&mut f.body, strip);
    f
}

/// [`stripmine_unroll_function`] behind the loop-carried dependence gate:
/// refuses (diagnostic `L011-stripmine-carried-dep`) when `crate::deps`
/// proves an innermost-loop carried dependence at distance below the
/// strip width — the flattened strip would compute dependent iterations
/// as one parallel body.
pub fn stripmine_unroll_function_checked(
    f: &Function,
    strip: u64,
) -> roccc_cparse::error::CResult<Function> {
    if let Some(dep) = crate::deps::find_blocking_dep(f, strip, true) {
        return Err(roccc_cparse::error::CError::new(
            roccc_cparse::error::Stage::Sema,
            dep.span,
            format!(
                "L011-stripmine-carried-dep: cannot strip-mine by {strip}: {}",
                dep.describe()
            ),
        ));
    }
    Ok(stripmine_unroll_function(f, strip))
}

/// Strip-mines and flattens the innermost loops of `b` in place; true
/// when anything changed.
fn smu_block(b: &mut Block, strip: u64) -> bool {
    b.stmts
        .iter_mut()
        .fold(false, |changed, s| smu_stmt(s, strip) | changed)
}

fn smu_stmt(s: &mut Stmt, strip: u64) -> bool {
    if let Some(header) = recognize_header(s) {
        let StmtKind::For { body, .. } = &mut s.kind else {
            unreachable!("a recognized loop is a `for` statement");
        };
        if contains_loop(body) {
            // Not innermost: recurse, and rebuild the header only when the
            // body changed.
            if !smu_block(body, strip) {
                return false;
            }
            *s = header.with_body(std::mem::take(body)).into_stmt();
            return true;
        }
        let l = header.with_body(std::mem::take(body));
        return match stripmine_unroll(&l, strip) {
            Some(flattened) => {
                *s = flattened;
                true
            }
            // Too short for one strip: leave the loop untouched.
            None => {
                *body = l.body;
                false
            }
        };
    }
    match &mut s.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => smu_block(then_blk, strip) | else_blk.as_mut().is_some_and(|e| smu_block(e, strip)),
        StmtKind::Block(b) => smu_block(b, strip),
        _ => false,
    }
}

/// Strip-mines one canonical loop and fully unrolls the strip (see
/// [`stripmine_unroll_function`]). `None` when the trip count is unknown
/// or smaller than the strip, or `strip < 2`.
pub fn stripmine_unroll(l: &CanonLoop, strip: u64) -> Option<Stmt> {
    let trips = l.trip_count()?;
    if strip < 2 || trips < strip {
        return None;
    }
    // stripmine(l, strip) followed by full unrolling of the inner loop
    // yields exactly the partial-unroll expansion (strip copies offset by
    // 0, step, …, with the same straight-line remainder), so delegate.
    Some(crate::unroll::partially_unroll(l, strip))
}

/// Strip-mines every canonical loop in `f` by `strip`.
pub fn stripmine_function(f: &Function, strip: u64) -> Function {
    Function {
        body: stripmine_block(&f.body, strip),
        ..f.clone()
    }
}

fn stripmine_block(b: &Block, strip: u64) -> Block {
    Block {
        stmts: b.stmts.iter().map(|s| stripmine_stmt(s, strip)).collect(),
        span: b.span,
    }
}

fn stripmine_stmt(s: &Stmt, strip: u64) -> Stmt {
    match &s.kind {
        StmtKind::For { .. } => {
            if let Some(l) = recognize(s) {
                stripmine(&l, strip).unwrap_or_else(|| s.clone())
            } else {
                s.clone()
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => Stmt {
            kind: StmtKind::If {
                cond: cond.clone(),
                then_blk: stripmine_block(then_blk, strip),
                else_blk: else_blk.as_ref().map(|b| stripmine_block(b, strip)),
            },
            span: s.span,
        },
        StmtKind::Block(b) => Stmt {
            kind: StmtKind::Block(stripmine_block(b, strip)),
            span: s.span,
        },
        _ => s.clone(),
    }
}

/// Strip-mines a canonical loop, returning
/// `for (v_strip = start; v_strip < bound; v_strip += strip*step)
///    for (v = v_strip; v < min(v_strip + strip*step, bound); v += step) body`.
///
/// Returns `None` when the trip count is unknown, or smaller than the strip
/// (nothing to gain). When the trip count divides evenly the inner bound is
/// the simple `v_strip + strip*step`; otherwise the inner loop keeps the
/// original global bound as a second conjunct — represented by clamping the
/// outer bound and emitting a remainder loop.
pub fn stripmine(l: &CanonLoop, strip: u64) -> Option<Stmt> {
    let trips = l.trip_count()?;
    if strip < 2 || trips < strip {
        return None;
    }
    let sp = l.span;
    let outer_var = format!("{}_strip", l.var);
    let main_trips = trips / strip * strip;
    let chunk = strip as i64 * l.step;

    // Inner loop: `for (v = outer; v < outer + chunk; v += step) body`.
    let inner = Stmt {
        kind: StmtKind::For {
            init: Some(Box::new(Stmt {
                kind: StmtKind::Assign {
                    target: LValue::Var(l.var.clone()),
                    op: None,
                    value: Expr::var(outer_var.clone(), sp),
                },
                span: sp,
            })),
            cond: Some(Expr {
                kind: ExprKind::Binary {
                    op: BinOp::Lt,
                    lhs: Box::new(Expr::var(l.var.clone(), sp)),
                    rhs: Box::new(Expr {
                        kind: ExprKind::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::var(outer_var.clone(), sp)),
                            rhs: Box::new(Expr::int(chunk, sp)),
                        },
                        span: sp,
                    }),
                },
                span: sp,
            }),
            step: Some(Box::new(Stmt {
                kind: StmtKind::Assign {
                    target: LValue::Var(l.var.clone()),
                    op: Some(BinOp::Add),
                    value: Expr::int(l.step, sp),
                },
                span: sp,
            })),
            body: l.body.clone(),
        },
        span: sp,
    };

    // Outer loop over strips.
    let outer_bound = l.start + main_trips as i64 * l.step;
    let outer = Stmt {
        kind: StmtKind::For {
            init: Some(Box::new(Stmt {
                kind: StmtKind::Decl {
                    name: outer_var.clone(),
                    ty: roccc_cparse::types::CType::Int(roccc_cparse::types::IntType::int()),
                    init: Some(Expr::int(l.start, sp)),
                },
                span: sp,
            })),
            cond: Some(Expr {
                kind: ExprKind::Binary {
                    op: BinOp::Lt,
                    lhs: Box::new(Expr::var(outer_var.clone(), sp)),
                    rhs: Box::new(Expr::int(outer_bound, sp)),
                },
                span: sp,
            }),
            step: Some(Box::new(Stmt {
                kind: StmtKind::Assign {
                    target: LValue::Var(outer_var),
                    op: Some(BinOp::Add),
                    value: Expr::int(chunk, sp),
                },
                span: sp,
            })),
            body: Block {
                stmts: vec![inner],
                span: sp,
            },
        },
        span: sp,
    };

    if main_trips == trips {
        return Some(outer);
    }
    // Remainder loop for the leftover iterations.
    let remainder = CanonLoop {
        start: outer_bound,
        ..l.clone()
    }
    .to_stmt();
    Some(Stmt {
        kind: StmtKind::Block(Block {
            stmts: vec![outer, remainder],
            span: sp,
        }),
        span: Span::dummy(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::interp::Interpreter;
    use roccc_cparse::parser::parse;
    use std::collections::HashMap;

    fn assert_equivalent(src: &str, func: &str, strip: u64) {
        let prog = parse(src).unwrap();
        let f = prog.function(func).unwrap();
        let mined = stripmine_function(f, strip);
        let mut prog2 = prog.clone();
        for item in &mut prog2.items {
            if let Item::Function(g) = item {
                if g.name == func {
                    *g = mined.clone();
                }
            }
        }
        let proto: HashMap<String, Vec<i64>> = f
            .params
            .iter()
            .filter_map(|p| match &p.ty {
                roccc_cparse::types::CType::Array(_, dims) => {
                    let n: usize = dims.iter().product();
                    Some((p.name.clone(), (0..n as i64).map(|x| 7 - x).collect()))
                }
                _ => None,
            })
            .collect();
        let mut a1 = proto.clone();
        let mut a2 = proto;
        let o1 = Interpreter::new(&prog).call(func, &[], &mut a1).unwrap();
        let o2 = Interpreter::new(&prog2).call(func, &[], &mut a2).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn exact_strips_preserve_semantics() {
        let src = "void f(int A[16], int B[16]) { int i;
          for (i = 0; i < 16; i++) { B[i] = A[i] * 3 - 1; } }";
        assert_equivalent(src, "f", 4);
        assert_equivalent(src, "f", 8);
        assert_equivalent(src, "f", 16);
    }

    #[test]
    fn remainder_strips_preserve_semantics() {
        let src = "void f(int A[13], int B[13]) { int i;
          for (i = 0; i < 13; i++) { B[i] = A[i] + 5; } }";
        assert_equivalent(src, "f", 4);
        assert_equivalent(src, "f", 5);
    }

    #[test]
    fn produces_nested_loops() {
        let src = "void f(int A[16]) { int i; for (i = 0; i < 16; i++) { A[i] = 0; } }";
        let prog = parse(src).unwrap();
        let mined = stripmine_function(prog.function("f").unwrap(), 4);
        // Outer for → body contains inner for.
        let outer = mined
            .body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::For { .. }))
            .expect("outer loop");
        match &outer.kind {
            StmtKind::For { body, .. } => {
                assert!(matches!(body.stmts[0].kind, StmtKind::For { .. }));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn small_loops_are_left_alone() {
        let src = "void f(int A[3]) { int i; for (i = 0; i < 3; i++) { A[i] = 0; } }";
        let prog = parse(src).unwrap();
        let f = prog.function("f").unwrap();
        let mined = stripmine_function(f, 8);
        assert_eq!(&mined.body, &f.body);
    }

    #[test]
    fn strided_loops_stripmine() {
        let src = "void f(int A[32], int B[32]) { int i;
          for (i = 0; i < 32; i += 2) { B[i] = A[i] * 2; } }";
        assert_equivalent(src, "f", 4);
    }

    fn assert_smu_equivalent(src: &str, func: &str, strip: u64) {
        let prog = parse(src).unwrap();
        let f = prog.function(func).unwrap();
        let mined = stripmine_unroll_function(f, strip);
        let mut prog2 = prog.clone();
        for item in &mut prog2.items {
            if let Item::Function(g) = item {
                if g.name == func {
                    *g = mined.clone();
                }
            }
        }
        let proto: HashMap<String, Vec<i64>> = f
            .params
            .iter()
            .filter_map(|p| match &p.ty {
                roccc_cparse::types::CType::Array(_, dims) => {
                    let n: usize = dims.iter().product();
                    Some((p.name.clone(), (0..n as i64).map(|x| 7 - x).collect()))
                }
                _ => None,
            })
            .collect();
        let mut a1 = proto.clone();
        let mut a2 = proto;
        let o1 = Interpreter::new(&prog).call(func, &[], &mut a1).unwrap();
        let o2 = Interpreter::new(&prog2).call(func, &[], &mut a2).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn stripmine_unroll_preserves_semantics() {
        let src = "void f(int A[16], int B[16]) { int i;
          for (i = 0; i < 16; i++) { B[i] = A[i] * 3 - 1; } }";
        assert_smu_equivalent(src, "f", 4);
        assert_smu_equivalent(src, "f", 8);
        let rem = "void f(int A[13], int B[13]) { int i;
          for (i = 0; i < 13; i++) { B[i] = A[i] + 5; } }";
        assert_smu_equivalent(rem, "f", 4);
    }

    #[test]
    fn stripmine_unroll_flattens_to_single_loop() {
        let src = "void f(int A[16]) { int i; for (i = 0; i < 16; i++) { A[i] = 0; } }";
        let prog = parse(src).unwrap();
        let mined = stripmine_unroll_function(prog.function("f").unwrap(), 4);
        let outer = mined
            .body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::For { .. }))
            .expect("loop survives");
        match &outer.kind {
            StmtKind::For { body, .. } => {
                assert!(
                    !contains_loop(body),
                    "strip is flattened, no inner loop remains"
                );
                assert_eq!(body.stmts.len(), 4, "one copy per strip element");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn stripmine_unroll_targets_innermost_only() {
        let src = "void f(int A[64]) { int i; int j;
          for (i = 0; i < 8; i++) { for (j = 0; j < 8; j++) { A[i * 8 + j] = i + j; } } }";
        let prog = parse(src).unwrap();
        let mined = stripmine_unroll_function(prog.function("f").unwrap(), 4);
        // Outer loop header intact, inner loop flattened.
        let outer = mined
            .body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::For { .. }))
            .expect("outer loop survives");
        let l = recognize(outer).expect("outer still canonical");
        assert_eq!(l.trip_count(), Some(8));
        assert!(
            !contains_loop(&l.body) || {
                // The flattened inner strip loop is still a loop, but it must
                // be the only depth below the outer header.
                let inner = l
                    .body
                    .stmts
                    .iter()
                    .find(|s| matches!(s.kind, StmtKind::For { .. }))
                    .unwrap();
                match &inner.kind {
                    StmtKind::For { body, .. } => !contains_loop(body),
                    _ => false,
                }
            },
            "inner strip fully flattened below the outer header"
        );
        assert_smu_equivalent(src, "f", 4);
    }

    #[test]
    fn stripmine_unroll_leaves_short_loops_alone() {
        let src = "void f(int A[3]) { int i; for (i = 0; i < 3; i++) { A[i] = 0; } }";
        let prog = parse(src).unwrap();
        let f = prog.function("f").unwrap();
        let mined = stripmine_unroll_function(f, 8);
        assert_eq!(&mined.body, &f.body);
    }
}
