//! Loop-carried memory-dependence analysis.
//!
//! The paper's transform suite (unrolling, strip-mining, scalar
//! replacement) silently assumes that duplicated loop bodies never touch
//! the same array element across iterations. This module makes that
//! assumption checkable: affine subscripts are extracted from the loop
//! nest and classical dependence tests (ZIV, strong/weak-zero SIV with
//! the GCD divisibility condition, a Banerjee-style interval guard)
//! either *prove* two accesses independent or produce a per-dimension
//! iteration-distance vector, falling back to an unconstrained
//! ([`DimDist::Any`]) distance whenever nothing can be proven.
//!
//! Consumers:
//!
//! * the `unroll`/`stripmine` legality gates ([`find_blocking_dep`]) —
//!   refuse body duplication when a carried dependence exists at a
//!   distance smaller than the factor;
//! * the kernel-extraction gate ([`overlapping_writes`]) — refuse output
//!   arrays whose per-iteration writes can collide, because the parallel
//!   write lanes of the generated system cannot preserve program order;
//! * `suifvm::deps` — builds the `DepGraph` MinII artifact from the same
//!   tests over the extracted kernel's windows and outputs.

use crate::extract::affine;
use crate::kernel::{AffineIndex, LoopDim, OutputWrite};
use crate::loops::{contains_loop, recognize_header, LoopHeader};
use roccc_cparse::ast::*;
use roccc_cparse::span::Span;
use std::collections::HashSet;

/// Iteration distance of a dependence in one loop dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimDist {
    /// The dependent iterations are exactly `d` apart in this dimension
    /// (`src` iteration minus `dst` iteration; 0 = same iteration).
    Eq(i64),
    /// The analysis cannot pin this dimension: any distance is possible.
    Any,
}

impl std::fmt::Display for DimDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimDist::Eq(d) => write!(f, "{d}"),
            DimDist::Any => write!(f, "*"),
        }
    }
}

/// Classical dependence kind, named from the program-order earlier access
/// (`src`) to the later one (`dst`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write then read (read-after-write).
    Flow,
    /// Read then write (write-after-read).
    Anti,
    /// Write then write (write-after-write).
    Output,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepKind::Flow => write!(f, "flow"),
            DepKind::Anti => write!(f, "anti"),
            DepKind::Output => write!(f, "output"),
        }
    }
}

/// One affine array access inside a loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Array name.
    pub array: String,
    /// Whether the access stores (reads and compound-assign targets also
    /// produce a read access).
    pub write: bool,
    /// Affine subscript per array dimension.
    pub index: Vec<AffineIndex>,
    /// Source location of the access.
    pub span: Span,
}

impl Access {
    /// Renders the subscript list (`i+1`, `j`, `3`, …).
    pub fn index_string(&self) -> String {
        let parts: Vec<String> = self.index.iter().map(|a| a.to_string()).collect();
        parts.join("][")
    }
}

/// Whether any per-dimension distance allows the dependence to cross an
/// iteration boundary of the analyzed loops.
pub fn is_carried(dist: &[DimDist]) -> bool {
    dist.iter().any(|d| !matches!(d, DimDist::Eq(0)))
}

/// Pairwise dependence test over two affine subscript vectors.
///
/// Returns `None` when the accesses are *proven* to never touch the same
/// element, otherwise the per-dimension iteration distances (`dims`
/// order). Subscript variables that are not analyzed dimensions are
/// treated as loop-invariant symbols unless listed in `varying` (e.g. an
/// inner loop's induction variable when analyzing the outer loop), in
/// which case no refutation is attempted for them.
///
/// The tests applied per subscript pair:
/// * **ZIV** — two constants: unequal proves independence;
/// * **strong SIV / GCD** — same dimension variable on both sides: the
///   offset difference must be divisible by the loop step and the
///   resulting iteration distance must be smaller than the trip count,
///   otherwise independent;
/// * **weak-zero SIV** — constant vs. dimension variable: the variable
///   side is pinned to one iteration; independence when that iteration is
///   never executed, an unconstrained distance otherwise;
/// * **Banerjee interval guard** — different variables: disjoint value
///   intervals over the iteration space prove independence.
pub fn dep_test(
    a: &[AffineIndex],
    b: &[AffineIndex],
    dims: &[LoopDim],
    varying: &[String],
) -> Option<Vec<DimDist>> {
    if dims.iter().any(|d| d.trip == 0) {
        return None; // zero-trip loops execute no accesses at all
    }
    let mut dist = vec![DimDist::Any; dims.len()];
    if a.len() != b.len() {
        return Some(dist); // rank mismatch: stay conservative
    }
    for (sa, sb) in a.iter().zip(b.iter()) {
        match (&sa.var, &sb.var) {
            (None, None) => {
                if sa.offset != sb.offset {
                    return None; // ZIV: distinct constants never collide
                }
            }
            (Some(va), Some(vb)) if va == vb => {
                if let Some(k) = dims.iter().position(|d| d.var == *va) {
                    let d = &dims[k];
                    let diff = sa.offset - sb.offset;
                    if diff % d.step != 0 {
                        return None; // GCD: offset gap not a step multiple
                    }
                    let it = diff / d.step;
                    if it.unsigned_abs() >= d.trip {
                        return None; // distance exceeds the iteration space
                    }
                    match dist[k] {
                        DimDist::Any => dist[k] = DimDist::Eq(it),
                        DimDist::Eq(prev) => {
                            if prev != it {
                                return None; // two subscripts disagree
                            }
                        }
                    }
                } else if !varying.iter().any(|v| v == va) && sa.offset != sb.offset {
                    // A loop-invariant symbol holds one value for the whole
                    // analyzed execution, so distinct offsets are distinct
                    // elements. Varying symbols (inner loops) get no such
                    // refutation.
                    return None;
                }
            }
            (Some(v), None) | (None, Some(v)) => {
                let (cv, cc) = if sa.var.is_some() {
                    (sa.offset, sb.offset)
                } else {
                    (sb.offset, sa.offset)
                };
                if let Some(k) = dims.iter().position(|d| d.var == *v) {
                    // Weak-zero SIV: the variable side collides only in the
                    // single iteration where v + cv == cc.
                    let d = &dims[k];
                    let need = cc - cv - d.start;
                    if need % d.step != 0 {
                        return None;
                    }
                    let it = need / d.step;
                    if it < 0 || it as u64 >= d.trip {
                        return None;
                    }
                    // The constant side is iteration-independent, so the
                    // distance in dimension k stays unconstrained.
                }
            }
            (Some(_), Some(_)) => {
                // Different variables: Banerjee-style disjointness of the
                // subscript value intervals over the iteration space.
                if let (Some((alo, ahi)), Some((blo, bhi))) =
                    (value_range(sa, dims), value_range(sb, dims))
                {
                    if ahi < blo || bhi < alo {
                        return None;
                    }
                }
            }
        }
    }
    Some(dist)
}

/// Value interval of one affine subscript over the iteration space, when
/// the variable (if any) is an analyzed dimension.
fn value_range(s: &AffineIndex, dims: &[LoopDim]) -> Option<(i64, i64)> {
    match &s.var {
        None => Some((s.offset, s.offset)),
        Some(v) => {
            let d = dims.iter().find(|d| d.var == *v)?;
            let last = d.start + d.step * (d.trip as i64 - 1);
            Some((d.start.min(last) + s.offset, d.start.max(last) + s.offset))
        }
    }
}

/// Two distinct per-iteration writes of one output array that can touch
/// the same element, at any iteration distance including zero. The system
/// generator materializes one write lane per [`OutputWrite`] and merges
/// the lanes order-insensitively, so *any* collision between distinct
/// writes can silently drop the program-order-later value.
///
/// Returns the indices of the first colliding pair and the distance
/// vector the test produced.
pub fn overlapping_writes(
    writes: &[OutputWrite],
    dims: &[LoopDim],
) -> Option<(usize, usize, Vec<DimDist>)> {
    for i in 0..writes.len() {
        for j in (i + 1)..writes.len() {
            if let Some(d) = dep_test(&writes[i].index, &writes[j].index, dims, &[]) {
                return Some((i, j, d));
            }
        }
    }
    None
}

/// A proven (or conservatively assumed) loop-carried dependence that
/// makes a body-duplicating transform illegal at the requested factor.
#[derive(Debug, Clone)]
pub struct CarriedDep {
    /// The array both accesses touch.
    pub array: String,
    /// Induction variable of the loop carrying the dependence.
    pub loop_var: String,
    /// Proven iteration distance; `None` when the distance is
    /// unconstrained or a subscript was not analyzable (conservative).
    pub distance: Option<u64>,
    /// Source location of the loop.
    pub span: Span,
}

impl CarriedDep {
    /// One-line description used inside the transform diagnostics.
    pub fn describe(&self) -> String {
        match self.distance {
            Some(d) => format!(
                "array `{}` has a loop-carried dependence at distance {d} in `{}`",
                self.array, self.loop_var
            ),
            None => format!(
                "array `{}` has a loop-carried dependence at unknown distance in `{}`",
                self.array, self.loop_var
            ),
        }
    }
}

/// Scans every canonical loop of `f` (innermost loops only when
/// `innermost_only`, matching the strip-miner's reach) for a loop-carried
/// memory dependence that blocks duplicating the body by `factor`:
/// a carried dependence at distance `< factor`, an unconstrained
/// distance, or a non-affine access to a parameter array.
///
/// Returns the first blocking dependence found, `None` when every loop is
/// provably safe to transform. Factors below 2 never block.
pub fn find_blocking_dep(f: &Function, factor: u64, innermost_only: bool) -> Option<CarriedDep> {
    if factor < 2 {
        return None;
    }
    let arrays: HashSet<String> = f
        .params
        .iter()
        .filter_map(|p| match &p.ty {
            roccc_cparse::types::CType::Array(..) => Some(p.name.clone()),
            _ => None,
        })
        .collect();
    if arrays.is_empty() {
        return None;
    }
    let mut enclosing = Vec::new();
    walk_block(&f.body, &arrays, &mut enclosing, factor, innermost_only)
}

fn walk_block(
    b: &Block,
    arrays: &HashSet<String>,
    enclosing: &mut Vec<String>,
    factor: u64,
    innermost_only: bool,
) -> Option<CarriedDep> {
    for s in &b.stmts {
        if let Some(v) = walk_stmt(s, arrays, enclosing, factor, innermost_only) {
            return Some(v);
        }
    }
    None
}

fn walk_stmt(
    s: &Stmt,
    arrays: &HashSet<String>,
    enclosing: &mut Vec<String>,
    factor: u64,
    innermost_only: bool,
) -> Option<CarriedDep> {
    match &s.kind {
        StmtKind::For { body, .. } => {
            if let Some(l) = recognize_header(s) {
                enclosing.push(l.var.clone());
                let inner = walk_block(body, arrays, enclosing, factor, innermost_only);
                enclosing.pop();
                if let Some(v) = inner {
                    return Some(v);
                }
                if innermost_only && contains_loop(body) {
                    return None; // the strip-miner leaves this header alone
                }
                check_canon_loop(&l, body, arrays, enclosing, factor)
            } else {
                walk_block(body, arrays, enclosing, factor, innermost_only)
            }
        }
        StmtKind::While { body, .. } => walk_block(body, arrays, enclosing, factor, innermost_only),
        StmtKind::If {
            then_blk, else_blk, ..
        } => walk_block(then_blk, arrays, enclosing, factor, innermost_only).or_else(|| {
            else_blk
                .as_ref()
                .and_then(|e| walk_block(e, arrays, enclosing, factor, innermost_only))
        }),
        StmtKind::Block(b) => walk_block(b, arrays, enclosing, factor, innermost_only),
        _ => None,
    }
}

/// Induction variables of every nested canonical loop below `b`.
fn nested_loop_vars(b: &Block, out: &mut Vec<String>) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::For { body, .. } => {
                if let Some(l) = recognize_header(s) {
                    out.push(l.var);
                }
                nested_loop_vars(body, out);
            }
            StmtKind::While { body, .. } => nested_loop_vars(body, out),
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                nested_loop_vars(then_blk, out);
                if let Some(e) = else_blk {
                    nested_loop_vars(e, out);
                }
            }
            StmtKind::Block(inner) => nested_loop_vars(inner, out),
            _ => {}
        }
    }
}

/// Checks the dependences carried by one canonical loop (header `l`,
/// body `body`) against `factor`.
fn check_canon_loop(
    l: &LoopHeader,
    body: &Block,
    arrays: &HashSet<String>,
    enclosing: &[String],
    factor: u64,
) -> Option<CarriedDep> {
    let Some(trip) = l.trip_count() else {
        return None; // the transforms leave unknown-trip loops untouched
    };
    let dim = LoopDim {
        var: l.var.clone(),
        start: l.start,
        bound: l.start + trip as i64 * l.step,
        step: l.step,
        trip,
    };
    let mut inner_vars = Vec::new();
    nested_loop_vars(body, &mut inner_vars);
    let mut known: Vec<String> = enclosing.to_vec();
    known.push(l.var.clone());
    known.extend(inner_vars.iter().cloned());

    let mut accesses = Vec::new();
    let mut unknown: Option<(String, Span)> = None;
    collect_block(body, arrays, &known, &mut accesses, &mut unknown);
    if let Some((array, span)) = unknown {
        // A parameter-array access we could not analyze: conservative.
        return Some(CarriedDep {
            array,
            loop_var: l.var.clone(),
            distance: None,
            span,
        });
    }

    let dims = [dim];
    for i in 0..accesses.len() {
        for j in i..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if a.array != b.array || !(a.write || b.write) {
                continue;
            }
            if i == j && !a.write {
                continue;
            }
            let Some(dist) = dep_test(&a.index, &b.index, &dims, &inner_vars) else {
                continue;
            };
            let blocking = match dist[0] {
                DimDist::Eq(0) => false, // loop-independent
                DimDist::Eq(d) => d.unsigned_abs() < factor,
                DimDist::Any => true,
            };
            if blocking {
                return Some(CarriedDep {
                    array: a.array.clone(),
                    loop_var: l.var.clone(),
                    distance: match dist[0] {
                        DimDist::Eq(d) => Some(d.unsigned_abs()),
                        DimDist::Any => None,
                    },
                    span: l.span,
                });
            }
        }
    }
    None
}

/// Collects every parameter-array access in a block, in program order.
/// `unknown` records the first access whose subscripts are not affine in
/// the known induction variables.
pub fn collect_block(
    b: &Block,
    arrays: &HashSet<String>,
    known_vars: &[String],
    out: &mut Vec<Access>,
    unknown: &mut Option<(String, Span)>,
) {
    for s in &b.stmts {
        collect_stmt(s, arrays, known_vars, out, unknown);
    }
}

fn collect_stmt(
    s: &Stmt,
    arrays: &HashSet<String>,
    known_vars: &[String],
    out: &mut Vec<Access>,
    unknown: &mut Option<(String, Span)>,
) {
    match &s.kind {
        StmtKind::Assign { target, op, value } => {
            collect_expr(value, arrays, known_vars, out, unknown);
            if let LValue::ArrayElem { name, indices } = target {
                for ix in indices {
                    collect_expr(ix, arrays, known_vars, out, unknown);
                }
                if arrays.contains(name) {
                    match indices
                        .iter()
                        .map(|ix| affine(ix, known_vars))
                        .collect::<Option<Vec<_>>>()
                    {
                        Some(aff) => {
                            if op.is_some() {
                                // Compound assignment reads the cell too.
                                out.push(Access {
                                    array: name.clone(),
                                    write: false,
                                    index: aff.clone(),
                                    span: s.span,
                                });
                            }
                            out.push(Access {
                                array: name.clone(),
                                write: true,
                                index: aff,
                                span: s.span,
                            });
                        }
                        None => {
                            unknown.get_or_insert((name.clone(), s.span));
                        }
                    }
                }
            }
        }
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                collect_expr(e, arrays, known_vars, out, unknown);
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            collect_expr(cond, arrays, known_vars, out, unknown);
            collect_block(then_blk, arrays, known_vars, out, unknown);
            if let Some(e) = else_blk {
                collect_block(e, arrays, known_vars, out, unknown);
            }
        }
        StmtKind::Block(b) => collect_block(b, arrays, known_vars, out, unknown),
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => {
            collect_expr(e, arrays, known_vars, out, unknown)
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                collect_stmt(i, arrays, known_vars, out, unknown);
            }
            if let Some(c) = cond {
                collect_expr(c, arrays, known_vars, out, unknown);
            }
            if let Some(st) = step {
                collect_stmt(st, arrays, known_vars, out, unknown);
            }
            collect_block(body, arrays, known_vars, out, unknown);
        }
        StmtKind::While { cond, body } => {
            collect_expr(cond, arrays, known_vars, out, unknown);
            collect_block(body, arrays, known_vars, out, unknown);
        }
        StmtKind::Return(None) => {}
    }
}

fn collect_expr(
    e: &Expr,
    arrays: &HashSet<String>,
    known_vars: &[String],
    out: &mut Vec<Access>,
    unknown: &mut Option<(String, Span)>,
) {
    match &e.kind {
        ExprKind::ArrayIndex { name, indices } => {
            for ix in indices {
                collect_expr(ix, arrays, known_vars, out, unknown);
            }
            if arrays.contains(name) {
                match indices
                    .iter()
                    .map(|ix| affine(ix, known_vars))
                    .collect::<Option<Vec<_>>>()
                {
                    Some(aff) => out.push(Access {
                        array: name.clone(),
                        write: false,
                        index: aff,
                        span: e.span,
                    }),
                    None => {
                        unknown.get_or_insert((name.clone(), e.span));
                    }
                }
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_expr(lhs, arrays, known_vars, out, unknown);
            collect_expr(rhs, arrays, known_vars, out, unknown);
        }
        ExprKind::Unary { operand, .. } => collect_expr(operand, arrays, known_vars, out, unknown),
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            collect_expr(cond, arrays, known_vars, out, unknown);
            collect_expr(then_e, arrays, known_vars, out, unknown);
            collect_expr(else_e, arrays, known_vars, out, unknown);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_expr(a, arrays, known_vars, out, unknown);
            }
        }
        ExprKind::IntLit(_) | ExprKind::Var(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;

    fn func(src: &str) -> Function {
        let prog = parse(src).unwrap();
        prog.items
            .iter()
            .find_map(|i| match i {
                Item::Function(f) => Some(f.clone()),
                _ => None,
            })
            .unwrap()
    }

    fn dim(var: &str, start: i64, step: i64, trip: u64) -> LoopDim {
        LoopDim {
            var: var.to_string(),
            start,
            bound: start + step * trip as i64,
            step,
            trip,
        }
    }

    fn ix(var: Option<&str>, off: i64) -> AffineIndex {
        AffineIndex {
            var: var.map(|s| s.to_string()),
            offset: off,
        }
    }

    #[test]
    fn strong_siv_distance_and_gcd() {
        let d = [dim("i", 0, 1, 16)];
        // A[i+1] vs A[i]: distance 1.
        let r = dep_test(&[ix(Some("i"), 1)], &[ix(Some("i"), 0)], &d, &[]).unwrap();
        assert_eq!(r, vec![DimDist::Eq(1)]);
        // A[i] vs A[i]: same iteration only.
        let r = dep_test(&[ix(Some("i"), 0)], &[ix(Some("i"), 0)], &d, &[]).unwrap();
        assert_eq!(r, vec![DimDist::Eq(0)]);
        // Step 2: offset gap 1 is not a step multiple → independent.
        let d2 = [dim("i", 0, 2, 8)];
        assert!(dep_test(&[ix(Some("i"), 1)], &[ix(Some("i"), 0)], &d2, &[]).is_none());
        // Distance beyond the trip count → independent.
        let d3 = [dim("i", 0, 1, 4)];
        assert!(dep_test(&[ix(Some("i"), 9)], &[ix(Some("i"), 0)], &d3, &[]).is_none());
    }

    #[test]
    fn ziv_and_weak_zero() {
        let d = [dim("i", 0, 1, 8)];
        // Distinct constants never collide.
        assert!(dep_test(&[ix(None, 3)], &[ix(None, 4)], &d, &[]).is_none());
        // Same constant: unconstrained distance.
        let r = dep_test(&[ix(None, 3)], &[ix(None, 3)], &d, &[]).unwrap();
        assert_eq!(r, vec![DimDist::Any]);
        assert!(is_carried(&r));
        // Weak-zero: A[3] vs A[i] collide at i = 3 (inside the range).
        assert!(dep_test(&[ix(None, 3)], &[ix(Some("i"), 0)], &d, &[]).is_some());
        // A[20] vs A[i]: i = 20 never executes.
        assert!(dep_test(&[ix(None, 20)], &[ix(Some("i"), 0)], &d, &[]).is_none());
        // Off-grid with step 2: A[3] vs A[i] over i = 0,2,4,….
        let d2 = [dim("i", 0, 2, 8)];
        assert!(dep_test(&[ix(None, 3)], &[ix(Some("i"), 0)], &d2, &[]).is_none());
    }

    #[test]
    fn banerjee_interval_guard_refutes_disjoint_vars() {
        let d = [dim("i", 0, 1, 4), dim("j", 100, 1, 4)];
        // A[i] vs A[j]: i ∈ [0,3], j ∈ [100,103] — disjoint.
        assert!(dep_test(&[ix(Some("i"), 0)], &[ix(Some("j"), 0)], &d, &[]).is_none());
        // Overlapping ranges: conservative dependence.
        let d2 = [dim("i", 0, 1, 8), dim("j", 4, 1, 8)];
        let r = dep_test(&[ix(Some("i"), 0)], &[ix(Some("j"), 0)], &d2, &[]).unwrap();
        assert!(is_carried(&r));
    }

    #[test]
    fn multidim_wavelet_writes_are_independent() {
        // Y[i][j], Y[i][j+1], Y[i+1][j], Y[i+1][j+1] with both steps 2.
        let d = [dim("i", 0, 2, 8), dim("j", 0, 2, 8)];
        let w = |a: i64, b: i64| vec![ix(Some("i"), a), ix(Some("j"), b)];
        let writes = [w(0, 0), w(0, 1), w(1, 0), w(1, 1)];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    dep_test(&writes[i], &writes[j], &d, &[]).is_none(),
                    "writes {i} and {j} must be independent"
                );
            }
        }
    }

    #[test]
    fn dct_writes_are_independent_at_step_8() {
        let d = [dim("i", 0, 8, 8)];
        for a in 0..8i64 {
            for b in (a + 1)..8 {
                assert!(
                    dep_test(&[ix(Some("i"), a)], &[ix(Some("i"), b)], &d, &[]).is_none(),
                    "Y[i+{a}] vs Y[i+{b}] at step 8"
                );
            }
        }
    }

    #[test]
    fn overlapping_writes_flags_step1_neighbors() {
        let d = [dim("i", 0, 1, 16)];
        let writes = vec![
            OutputWrite {
                scalar: "Tmp0".into(),
                index: vec![ix(Some("i"), 0)],
            },
            OutputWrite {
                scalar: "Tmp1".into(),
                index: vec![ix(Some("i"), 1)],
            },
        ];
        let (a, b, dist) = overlapping_writes(&writes, &d).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(dist, vec![DimDist::Eq(-1)]);
        // The same pair at step 2 is clean.
        let d2 = [dim("i", 0, 2, 8)];
        assert!(overlapping_writes(&writes, &d2).is_none());
    }

    #[test]
    fn gate_blocks_carried_write_pair() {
        let f = func(
            "void f(int A[16], int C[20]) { int i;
               for (i = 0; i < 16; i++) { C[i] = A[i]; C[i+1] = A[i] * 2; } }",
        );
        let v = find_blocking_dep(&f, 2, false).expect("distance-1 output dep blocks factor 2");
        assert_eq!(v.array, "C");
        assert_eq!(v.distance, Some(1));
        // Factor below 2 never blocks (the transform is the identity).
        assert!(find_blocking_dep(&f, 1, false).is_none());
    }

    #[test]
    fn gate_blocks_carried_flow_dep() {
        let f = func(
            "void f(int A[17]) { int i;
               for (i = 1; i < 17; i++) { A[i] = A[i-1] + 1; } }",
        );
        let v = find_blocking_dep(&f, 4, false).expect("A[i] = A[i-1] carries at distance 1");
        assert_eq!(v.array, "A");
        assert_eq!(v.distance, Some(1));
    }

    #[test]
    fn gate_allows_distance_at_or_above_factor() {
        let f = func(
            "void f(int A[16], int C[24]) { int i;
               for (i = 0; i < 16; i++) { C[i] = A[i]; C[i+4] = A[i] * 2; } }",
        );
        // Distance 4: factors 2..4 are fine, factor 8 is not.
        assert!(find_blocking_dep(&f, 4, false).is_none());
        assert!(find_blocking_dep(&f, 8, false).is_some());
    }

    #[test]
    fn gate_allows_clean_fir_and_wavelet_shapes() {
        let fir = func(
            "void fir(int A[21], int C[17]) { int i;
               for (i = 0; i < 17; i = i + 1) {
                 C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2]; } }",
        );
        assert!(find_blocking_dep(&fir, 8, false).is_none());
        let wave = func(
            "void w(int X[16][16], int Y[16][16]) { int i; int j;
               for (i = 0; i < 10; i = i + 2) {
                 for (j = 0; j < 10; j = j + 2) {
                   Y[i][j] = X[i][j]; Y[i][j+1] = X[i][j+2];
                   Y[i+1][j] = X[i+2][j]; Y[i+1][j+1] = X[i+2][j+2]; } } }",
        );
        assert!(find_blocking_dep(&wave, 2, false).is_none());
        assert!(find_blocking_dep(&wave, 2, true).is_none());
    }

    #[test]
    fn gate_blocks_constant_index_write_and_unknown_subscripts() {
        let zivf = func(
            "void f(int A[8], int C[8]) { int i;
               for (i = 0; i < 8; i++) { C[3] = A[i]; } }",
        );
        let v = find_blocking_dep(&zivf, 2, false).expect("C[3] rewrites every iteration");
        assert_eq!(v.distance, None);
        let nonaffine = func(
            "void f(int A[8], int C[8]) { int i;
               for (i = 0; i < 4; i++) { C[i] = A[i + i]; } }",
        );
        assert!(find_blocking_dep(&nonaffine, 2, false).is_some());
    }

    #[test]
    fn outer_loop_gate_sees_inner_footprint() {
        // Unrolling the outer loop duplicates the whole inner loop, whose
        // writes B[j] cover the same cells every outer iteration.
        let f = func(
            "void f(int A[8][8], int B[8]) { int i; int j;
               for (i = 0; i < 8; i++) {
                 for (j = 0; j < 8; j++) { B[j] = A[i][j]; } } }",
        );
        let v = find_blocking_dep(&f, 2, false).expect("B[j] repeats across outer iterations");
        assert_eq!(v.array, "B");
        assert_eq!(v.loop_var, "i");
        // The strip-miner only touches the innermost loop, which is clean.
        assert!(find_blocking_dep(&f, 2, true).is_none());
    }

    #[test]
    fn scalar_only_functions_never_block() {
        let f = func(
            "void f(int* o) { int i; int s = 0;
               for (i = 0; i < 8; i++) { s = s + i; } *o = s; }",
        );
        assert!(find_blocking_dep(&f, 64, false).is_none());
    }
}
