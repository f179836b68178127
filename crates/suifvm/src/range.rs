//! Value-range and known-bits abstract interpretation over SSA IR.
//!
//! The paper derives datapath widths "only based on port size and opcodes"
//! and notes that "more aggressive bit narrowing … may reduce device
//! utilization" without building it. This module is that missing pass: a
//! forward abstract interpretation computing, per virtual register, a sound
//! interval `[lo, hi]` plus a known-zero-bits mask, refined by
//!
//! * **branch conditions** — comparison-driven edge constraints flow into
//!   the arms of each `if` diamond and merge back with a path join;
//! * **feedback fixpoint with widening** — the inter-iteration loop exists
//!   only through `LPR`/`SNX` slots (the CFG itself is a DAG), so the pass
//!   iterates slot ranges from their initial values and widens a slot to
//!   its full declared-type range if it is still growing after
//!   [`WIDEN_AFTER`] passes;
//! * **caller-provided input ranges** — `roccc` seeds counted-loop index
//!   ports from the kernel's trip counts via [`analyze_with_inputs`].
//!
//! Soundness contract: IR instruction results are value-preserving
//! (the interpreter computes them in unwrapped `i64` arithmetic; only
//! `ARG`/`CVT`/`LUT`, phis, feedback latches, and outputs wrap), so the
//! abstract value of a register is an interval over its *exact* `i64`
//! value. Any transfer function that could overflow `i64` falls back to
//! the full `i64` interval ([`ValueRange::top`]).

use crate::ir::*;
use roccc_cparse::ops::MAX_SHIFT;
use roccc_cparse::types::IntType;
use std::collections::{HashMap, HashSet};

/// Relational facts carried along CFG paths: the pair `(a, b)` records
/// that `a <= b` holds on every path reaching the current point. These
/// order facts are what interval arithmetic cannot see — `rem - d` under
/// the guard `rem >= d` is non-negative even when both intervals are
/// wide — and they are exactly what the restoring-divider/square-root
/// idiom (`if (rem >= d) { rem = rem - d; … }`) needs to keep its
/// remainder bounded.
type RelSet = HashSet<(VReg, VReg)>;

/// Number of feedback fixpoint passes run before widening kicks in.
pub const WIDEN_AFTER: usize = 2;

/// Mask of the value bits a `u64` reading of a non-negative `i64` can use.
const NONNEG_MASK: u64 = i64::MAX as u64;

/// A sound abstraction of one register's runtime value: every value the
/// register can hold lies in `lo..=hi`, and every bit set in `known_zero`
/// is zero in the two's-complement reading of every such value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRange {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// Bits proven zero in every reachable value (only ever claims bits
    /// for ranges that cannot go negative — a negative value sign-extends
    /// ones into the high bits).
    pub known_zero: u64,
}

impl ValueRange {
    /// The unconstrained range: anything an `i64` can hold.
    pub fn top() -> Self {
        ValueRange {
            lo: i64::MIN,
            hi: i64::MAX,
            known_zero: 0,
        }
    }

    /// The singleton range holding exactly `v`.
    pub fn exact(v: i64) -> Self {
        ValueRange {
            lo: v,
            hi: v,
            known_zero: if v >= 0 { !(v as u64) & NONNEG_MASK } else { 0 },
        }
    }

    /// The full range of a declared type.
    pub fn of_type(ty: IntType) -> Self {
        ValueRange::interval(ty.min_value(), ty.max_value())
    }

    /// An interval with the known-zero mask derived from its bounds.
    pub fn interval(lo: i64, hi: i64) -> Self {
        let mut r = ValueRange {
            lo,
            hi,
            known_zero: 0,
        };
        r.reknow();
        r
    }

    /// Recomputes the interval-implied known-zero mask (kept as the join
    /// of any operator-specific mask with the bound-implied one).
    fn reknow(&mut self) {
        if self.lo >= 0 {
            // All values fit in width_for(hi) unsigned bits.
            let used = 64 - (self.hi as u64).leading_zeros();
            let implied = if used >= 64 { 0 } else { !((1u64 << used) - 1) };
            self.known_zero |= implied & NONNEG_MASK;
            // And conversely: bits proven zero cap the upper bound.
            let cap = (!self.known_zero & NONNEG_MASK) as i64;
            if self.hi > cap {
                self.hi = cap;
            }
        } else {
            self.known_zero = 0;
        }
    }

    /// The single value this range proves, if any.
    pub fn as_constant(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Smallest hardware width (of the given signedness) that represents
    /// every value in the range — the shared audited conversion
    /// ([`IntType::width_for_range`]).
    pub fn bits(&self, signed: bool) -> u8 {
        IntType::width_for_range(self.lo, self.hi, signed)
    }

    /// Least upper bound (interval hull, known-zero intersection).
    pub fn join(&self, other: &ValueRange) -> ValueRange {
        let mut r = ValueRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            known_zero: self.known_zero & other.known_zero,
        };
        r.reknow();
        r
    }

    /// Greatest lower bound; `None` when the intervals are disjoint.
    pub fn intersect(&self, other: &ValueRange) -> Option<ValueRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            return None;
        }
        let mut r = ValueRange {
            lo,
            hi,
            known_zero: self.known_zero | other.known_zero,
        };
        r.reknow();
        Some(r)
    }

    /// The range after a hardware wrap into `ty`: unchanged when every
    /// value is representable, the full type range otherwise.
    pub fn wrapped(&self, ty: IntType) -> ValueRange {
        if ty.contains(self.lo) && ty.contains(self.hi) {
            *self
        } else {
            ValueRange::of_type(ty)
        }
    }
}

/// Per-register analysis results for one function, indexed by [`VReg`].
#[derive(Debug, Clone, Default)]
pub struct RangeMap {
    ranges: Vec<Option<ValueRange>>,
}

impl RangeMap {
    /// The proven range of `r`, if the pass reached its definition.
    pub fn get(&self, r: VReg) -> Option<&ValueRange> {
        self.ranges.get(r.0 as usize).and_then(|o| o.as_ref())
    }

    /// Records (or overrides) the range of `r`. Public so callers can
    /// inject external facts or corrupt fixtures for verifier tests; the
    /// analysis itself only ever stores sound results.
    pub fn set(&mut self, r: VReg, v: ValueRange) {
        let i = r.0 as usize;
        if i >= self.ranges.len() {
            self.ranges.resize(i + 1, None);
        }
        self.ranges[i] = Some(v);
    }

    /// Iterates `(register, range)` pairs in register order.
    pub fn iter(&self) -> impl Iterator<Item = (VReg, &ValueRange)> {
        self.ranges
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|r| (VReg(i as u32), r)))
    }

    /// Number of registers with a proven range.
    pub fn len(&self) -> usize {
        self.ranges.iter().filter(|o| o.is_some()).count()
    }

    /// Whether no register has a proven range.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs the range analysis with no extra input constraints (every input
/// port starts at its declared type range).
pub fn analyze(ir: &FunctionIr) -> RangeMap {
    analyze_with_inputs(ir, &[])
}

/// Runs the range analysis, constraining input port `i` to
/// `input_ranges[i]` (intersected with the port type's range) when
/// provided. `roccc` passes counted-loop index bounds here.
pub fn analyze_with_inputs(ir: &FunctionIr, input_ranges: &[Option<(i64, i64)>]) -> RangeMap {
    let mut feedback: Vec<ValueRange> = ir
        .feedback
        .iter()
        .map(|s| ValueRange::exact(s.ty.wrap(s.init)))
        .collect();

    let mut map = RangeMap::default();
    for pass in 0.. {
        let (new_map, snx) = forward_pass(ir, input_ranges, &feedback);
        map = new_map;
        let mut changed = false;
        for (slot, out) in feedback.iter_mut().zip(&snx) {
            let joined = slot.join(out);
            if joined != *slot {
                *slot = joined;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if pass + 1 >= WIDEN_AFTER {
            // Still growing: widen every slot to its full declared range so
            // the next pass is guaranteed to be the fixpoint (SNX wraps
            // into the slot type, so the join can grow no further).
            for (slot, decl) in feedback.iter_mut().zip(&ir.feedback) {
                *slot = slot.join(&ValueRange::of_type(decl.ty));
            }
        }
    }
    map
}

/// One forward pass over the (acyclic) CFG with the given feedback-slot
/// ranges; returns the register map and the per-slot `SNX` output ranges.
fn forward_pass(
    ir: &FunctionIr,
    input_ranges: &[Option<(i64, i64)>],
    feedback: &[ValueRange],
) -> (RangeMap, Vec<ValueRange>) {
    let mut map = RangeMap::default();
    let mut snx: Vec<ValueRange> = ir
        .feedback
        .iter()
        .map(|s| ValueRange::exact(s.ty.wrap(s.init)))
        .collect();
    let mut snx_seen = vec![false; ir.feedback.len()];

    // Where each comparison-feeding register is defined (SSA: one def).
    let mut def_of: HashMap<VReg, (BlockId, usize)> = HashMap::new();
    for b in &ir.blocks {
        for (i, ins) in b.instrs.iter().enumerate() {
            if let Some(d) = ins.dst {
                def_of.insert(d, (b.id, i));
            }
        }
    }

    // Path-sensitive refinements: per block, the constraints that hold on
    // every path reaching it; per edge, the constraints the branch adds.
    // `*_rel` carries the relational `a <= b` facts alongside.
    let mut block_ref: HashMap<BlockId, HashMap<VReg, ValueRange>> = HashMap::new();
    let mut edge_ref: HashMap<(BlockId, BlockId), HashMap<VReg, ValueRange>> = HashMap::new();
    let mut block_rel: HashMap<BlockId, RelSet> = HashMap::new();
    let mut edge_rel: HashMap<(BlockId, BlockId), RelSet> = HashMap::new();
    block_ref.insert(ir.entry(), HashMap::new());
    block_rel.insert(ir.entry(), RelSet::new());

    let preds = ir.predecessors();
    let rpo = ir.reverse_postorder();

    for &bid in &rpo {
        // Merge refinements from predecessors: a fact survives the merge
        // only if every incoming path proves it (join of the per-path
        // ranges); unreached predecessors contribute nothing.
        let refinements: HashMap<VReg, ValueRange> = if bid == ir.entry() {
            HashMap::new()
        } else {
            let mut merged: Option<HashMap<VReg, ValueRange>> = None;
            for &p in &preds[bid.0 as usize] {
                let mut along: HashMap<VReg, ValueRange> =
                    block_ref.get(&p).cloned().unwrap_or_default();
                if let Some(extra) = edge_ref.get(&(p, bid)) {
                    for (r, c) in extra {
                        let merged_c = match along.get(r) {
                            Some(prev) => prev.intersect(c).unwrap_or(*prev),
                            None => *c,
                        };
                        along.insert(*r, merged_c);
                    }
                }
                merged = Some(match merged {
                    None => along,
                    Some(prev) => prev
                        .into_iter()
                        .filter_map(|(r, a)| along.get(&r).map(|b| (r, a.join(b))))
                        .collect(),
                });
            }
            merged.unwrap_or_default()
        };
        // Relational facts survive a merge only when every incoming path
        // proves them.
        let rel: RelSet = if bid == ir.entry() {
            RelSet::new()
        } else {
            let mut merged: Option<RelSet> = None;
            for &p in &preds[bid.0 as usize] {
                let mut along: RelSet = block_rel.get(&p).cloned().unwrap_or_default();
                if let Some(extra) = edge_rel.get(&(p, bid)) {
                    along.extend(extra.iter().copied());
                }
                merged = Some(match merged {
                    None => along,
                    Some(prev) => prev.intersection(&along).copied().collect(),
                });
            }
            merged.unwrap_or_default()
        };

        let lookup = |map: &RangeMap, refs: &HashMap<VReg, ValueRange>, r: VReg| -> ValueRange {
            let base = map.get(r).copied().unwrap_or_else(ValueRange::top);
            match refs.get(&r) {
                Some(c) => base.intersect(c).unwrap_or(base),
                None => base,
            }
        };

        let block = ir.block(bid);
        // Phis read their argument through the *incoming edge's*
        // refinements, then wrap into the phi type.
        let phi_vals: Vec<(VReg, ValueRange)> = block
            .phis
            .iter()
            .map(|phi| {
                let mut v: Option<ValueRange> = None;
                for (p, arg) in &phi.args {
                    let mut refs: HashMap<VReg, ValueRange> =
                        block_ref.get(p).cloned().unwrap_or_default();
                    if let Some(extra) = edge_ref.get(&(*p, bid)) {
                        for (r, c) in extra {
                            let merged = match refs.get(r) {
                                Some(prev) => prev.intersect(c).unwrap_or(*prev),
                                None => *c,
                            };
                            refs.insert(*r, merged);
                        }
                    }
                    let a = lookup(&map, &refs, *arg);
                    v = Some(match v {
                        None => a,
                        Some(prev) => prev.join(&a),
                    });
                }
                let joined = v.unwrap_or_else(ValueRange::top).wrapped(phi.ty);
                (phi.dst, joined)
            })
            .collect();
        for (dst, v) in phi_vals {
            map.set(dst, v);
        }

        for ins in &block.instrs {
            let src = |k: usize| lookup(&map, &refinements, ins.srcs[k]);
            let le = |x: VReg, y: VReg| x == y || rel.contains(&(x, y));
            let val = transfer(ir, ins, input_ranges, feedback, &src, &le);
            if ins.op == Opcode::Snx {
                let s = src(0).wrapped(ir.feedback[ins.imm as usize].ty);
                let slot = ins.imm as usize;
                snx[slot] = if snx_seen[slot] {
                    snx[slot].join(&s)
                } else {
                    s
                };
                snx_seen[slot] = true;
            }
            if let (Some(d), Some(v)) = (ins.dst, val) {
                map.set(d, clamp_to_type(v, ins.ty));
            }
        }

        block_ref.insert(bid, refinements.clone());
        block_rel.insert(bid, rel);

        if let Terminator::Branch {
            cond,
            then_b,
            else_b,
        } = &block.term
        {
            let (t_refs, e_refs, t_rel, e_rel) =
                branch_constraints(ir, *cond, &def_of, &map, &refinements);
            edge_ref.insert((bid, *then_b), t_refs);
            edge_ref.insert((bid, *else_b), e_refs);
            edge_rel.insert((bid, *then_b), t_rel);
            edge_rel.insert((bid, *else_b), e_rel);
        }
    }

    (map, snx)
}

/// Clamps an inferred range into the instruction's declared type when the
/// type is narrower than 64 bits. Sound because forward width inference is
/// value-preserving below the 64-bit saturation cap: the exact `i64` value
/// of a sub-64-bit-typed result always fits its declared type (the same
/// discipline the datapath's per-op wrap relies on), so intersecting with
/// the type range only removes values that cannot occur — and it turns
/// `top()` fallbacks (e.g. bitwise ops on possibly-negative operands) into
/// the declared-type interval. At 64 bits the cap may have saturated, so
/// the raw interval is kept as-is.
fn clamp_to_type(r: ValueRange, ty: IntType) -> ValueRange {
    if ty.bits >= IntType::MAX_BITS {
        return r;
    }
    let t = ValueRange::of_type(ty);
    r.intersect(&t).unwrap_or(t)
}

/// The refinements a `Branch` on `cond` adds to its true and false edges:
/// per-register interval constraints plus relational `a <= b` facts.
fn branch_constraints(
    ir: &FunctionIr,
    cond: VReg,
    def_of: &HashMap<VReg, (BlockId, usize)>,
    map: &RangeMap,
    refs: &HashMap<VReg, ValueRange>,
) -> (
    HashMap<VReg, ValueRange>,
    HashMap<VReg, ValueRange>,
    RelSet,
    RelSet,
) {
    let mut t: HashMap<VReg, ValueRange> = HashMap::new();
    let mut e: HashMap<VReg, ValueRange> = HashMap::new();
    let mut t_rel = RelSet::new();
    let mut e_rel = RelSet::new();
    // The condition register itself: nonzero on the true edge, zero on the
    // false edge.
    t.insert(cond, trim_nonzero(range_at(map, refs, cond)));
    e.insert(cond, ValueRange::exact(0));

    let Some(&(b, i)) = def_of.get(&cond) else {
        return (t, e, t_rel, e_rel);
    };
    let ins = &ir.block(b).instrs[i];
    if ins.srcs.is_empty() {
        return (t, e, t_rel, e_rel);
    }
    let a = ins.srcs[0];
    let ra = range_at(map, refs, a);
    match ins.op {
        Opcode::Slt | Opcode::Sle => {
            let strict_true = ins.op == Opcode::Slt;
            let br = ins.srcs[1];
            let rb = range_at(map, refs, br);
            // true: a < b (or a <= b); false: a >= b (or a > b).
            let (ta, tb) = constrain_lt(&ra, &rb, strict_true);
            let (fb, fa) = constrain_lt(&rb, &ra, !strict_true);
            t.insert(a, ta);
            t.insert(br, tb);
            e.insert(br, fb);
            e.insert(a, fa);
            // Order facts (non-strict: strictness is dropped, which only
            // loses precision).
            t_rel.insert((a, br));
            e_rel.insert((br, a));
        }
        Opcode::Seq | Opcode::Sne => {
            let br = ins.srcs[1];
            let rb = range_at(map, refs, br);
            let eq = ra.intersect(&rb).unwrap_or(ra);
            let (eq_t, eq_e) = if ins.op == Opcode::Seq {
                (&mut t, &mut e)
            } else {
                (&mut e, &mut t)
            };
            eq_t.insert(a, eq);
            eq_t.insert(br, eq);
            // On the not-equal edge a constant comparand trims an endpoint.
            if let Some(c) = rb.as_constant() {
                eq_e.insert(a, trim_value(ra, c));
            }
            if let Some(c) = ra.as_constant() {
                eq_e.insert(br, trim_value(rb, c));
            }
            if ins.op == Opcode::Seq {
                t_rel.insert((a, br));
                t_rel.insert((br, a));
            } else {
                e_rel.insert((a, br));
                e_rel.insert((br, a));
            }
        }
        Opcode::Bool => {
            t.insert(a, trim_nonzero(ra));
            e.insert(a, ValueRange::exact(0));
            // Look through the boolean normalization: the facts of the
            // wrapped comparison hold on the same edges (`Bool(x) != 0`
            // iff `x != 0`).
            let (ct, ce, ct_rel, ce_rel) = branch_constraints(ir, a, def_of, map, refs);
            for (r, c) in ct {
                let merged = t.get(&r).map_or(c, |p| p.intersect(&c).unwrap_or(*p));
                t.insert(r, merged);
            }
            for (r, c) in ce {
                let merged = e.get(&r).map_or(c, |p| p.intersect(&c).unwrap_or(*p));
                e.insert(r, merged);
            }
            t_rel.extend(ct_rel);
            e_rel.extend(ce_rel);
        }
        _ => {}
    }
    (t, e, t_rel, e_rel)
}

fn range_at(map: &RangeMap, refs: &HashMap<VReg, ValueRange>, r: VReg) -> ValueRange {
    let base = map.get(r).copied().unwrap_or_else(ValueRange::top);
    match refs.get(&r) {
        Some(c) => base.intersect(c).unwrap_or(base),
        None => base,
    }
}

/// `a`'s and `b`'s ranges under the fact `a < b` (strict) or `a <= b`.
fn constrain_lt(a: &ValueRange, b: &ValueRange, strict: bool) -> (ValueRange, ValueRange) {
    let d = i64::from(strict);
    let a_hi = b.hi.saturating_sub(d).min(a.hi);
    let b_lo = a.lo.saturating_add(d).max(b.lo);
    let ca = if a_hi >= a.lo {
        ValueRange::interval(a.lo, a_hi)
    } else {
        *a
    };
    let cb = if b_lo <= b.hi {
        ValueRange::interval(b_lo, b.hi)
    } else {
        *b
    };
    (ca, cb)
}

/// `r` minus the single value `c`, when `c` sits on an endpoint.
fn trim_value(r: ValueRange, c: i64) -> ValueRange {
    if r.lo == c && r.hi > c {
        ValueRange::interval(c + 1, r.hi)
    } else if r.hi == c && r.lo < c {
        ValueRange::interval(r.lo, c - 1)
    } else {
        r
    }
}

/// `r` with a zero endpoint trimmed (the fact `r != 0`).
fn trim_nonzero(r: ValueRange) -> ValueRange {
    trim_value(r, 0)
}

/// The abstract transfer function of one instruction. `None` for
/// instructions without a destination value. `le(x, y)` reports whether
/// `x <= y` is proven on every path reaching the instruction.
fn transfer(
    ir: &FunctionIr,
    ins: &Instr,
    input_ranges: &[Option<(i64, i64)>],
    feedback: &[ValueRange],
    src: &dyn Fn(usize) -> ValueRange,
    le: &dyn Fn(VReg, VReg) -> bool,
) -> Option<ValueRange> {
    let r = match ins.op {
        Opcode::Arg => {
            let ty = ir.inputs[ins.imm as usize].1;
            let base = ValueRange::of_type(ty);
            match input_ranges.get(ins.imm as usize).copied().flatten() {
                Some((lo, hi)) => base
                    .intersect(&ValueRange::interval(lo, hi))
                    .unwrap_or(base),
                None => base,
            }
        }
        Opcode::Ldc => ValueRange::exact(ins.imm),
        Opcode::Mov => src(0),
        Opcode::Cvt => src(0).wrapped(ins.ty),
        Opcode::Add => binop_corners(&src(0), &src(1), i64::checked_add),
        Opcode::Sub => {
            let mut r = binop_corners(&src(0), &src(1), i64::checked_sub);
            // Order facts see through what intervals cannot: under the
            // guard `a >= b`, `a - b` is non-negative even when both
            // intervals are wide (the restoring divider/square-root
            // remainder update).
            if le(ins.srcs[1], ins.srcs[0]) {
                let nonneg = ValueRange::interval(0, i64::MAX);
                r = r.intersect(&nonneg).unwrap_or(nonneg);
            } else if le(ins.srcs[0], ins.srcs[1]) {
                let nonpos = ValueRange::interval(i64::MIN, 0);
                r = r.intersect(&nonpos).unwrap_or(nonpos);
            }
            r
        }
        Opcode::Mul => binop_corners(&src(0), &src(1), i64::checked_mul),
        Opcode::Div => div_range(&src(0), &src(1)),
        Opcode::Rem => rem_range(&src(0), &src(1)),
        Opcode::Neg => {
            let a = src(0);
            match (a.hi.checked_neg(), a.lo.checked_neg()) {
                (Some(lo), Some(hi)) => ValueRange::interval(lo, hi),
                _ => ValueRange::top(),
            }
        }
        Opcode::Not => {
            let a = src(0);
            ValueRange::interval(!a.hi, !a.lo)
        }
        Opcode::Shl => shl_range(&src(0), &src(1)),
        Opcode::Shr => shr_range(&src(0), &src(1)),
        Opcode::And => and_range(&src(0), &src(1)),
        Opcode::Or => or_range(&src(0), &src(1)),
        Opcode::Xor => xor_range(&src(0), &src(1)),
        Opcode::Slt => cmp_range(&src(0), &src(1), |a, b| a.hi < b.lo, |a, b| a.lo >= b.hi),
        Opcode::Sle => cmp_range(&src(0), &src(1), |a, b| a.hi <= b.lo, |a, b| a.lo > b.hi),
        Opcode::Seq => {
            let (a, b) = (src(0), src(1));
            match (a.as_constant(), b.as_constant()) {
                (Some(x), Some(y)) => ValueRange::exact(i64::from(x == y)),
                _ if a.intersect(&b).is_none() => ValueRange::exact(0),
                _ => ValueRange::interval(0, 1),
            }
        }
        Opcode::Sne => {
            let (a, b) = (src(0), src(1));
            match (a.as_constant(), b.as_constant()) {
                (Some(x), Some(y)) => ValueRange::exact(i64::from(x != y)),
                _ if a.intersect(&b).is_none() => ValueRange::exact(1),
                _ => ValueRange::interval(0, 1),
            }
        }
        Opcode::Bool => {
            let a = src(0);
            if !a.contains(0) {
                ValueRange::exact(1)
            } else if a.as_constant() == Some(0) {
                ValueRange::exact(0)
            } else {
                ValueRange::interval(0, 1)
            }
        }
        Opcode::Mux => {
            let c = src(0);
            match c.as_constant() {
                Some(0) => src(2),
                Some(_) => src(1),
                None => src(1).join(&src(2)),
            }
        }
        Opcode::Lpr => feedback[ins.imm as usize],
        Opcode::Snx => return None,
        Opcode::Lut => {
            let table = &ir.luts[ins.imm as usize];
            let idx = src(0);
            let last = table.data.len().saturating_sub(1) as i64;
            let lo = idx.lo.clamp(0, last) as usize;
            let hi = idx.hi.clamp(0, last) as usize;
            let mut out: Option<ValueRange> = None;
            for v in &table.data[lo..=hi] {
                let e = ValueRange::exact(table.elem.wrap(*v));
                out = Some(match out {
                    None => e,
                    Some(p) => p.join(&e),
                });
            }
            if idx.hi > last {
                // Out-of-table reads return 0 in the reference semantics.
                out = Some(out.map_or(ValueRange::exact(0), |p| p.join(&ValueRange::exact(0))));
            }
            out.unwrap_or_else(ValueRange::top)
        }
    };
    Some(r)
}

/// Interval arithmetic by evaluating `f` on all four corners; any
/// overflowing corner gives up to [`ValueRange::top`]. Sound for
/// operations monotonic in each argument (add, sub, mul).
fn binop_corners(a: &ValueRange, b: &ValueRange, f: fn(i64, i64) -> Option<i64>) -> ValueRange {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for x in [a.lo, a.hi] {
        for y in [b.lo, b.hi] {
            match f(x, y) {
                Some(v) => {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                None => return ValueRange::top(),
            }
        }
    }
    ValueRange::interval(lo, hi)
}

/// Truncating division: extremes occur at `a`-corners against the divisor
/// endpoints or the smallest-magnitude divisors `±1` (division by zero is
/// a runtime error in the reference semantics, so 0 itself contributes no
/// value).
fn div_range(a: &ValueRange, b: &ValueRange) -> ValueRange {
    let divisors: Vec<i64> = [b.lo, b.hi, -1, 1]
        .into_iter()
        .filter(|d| *d != 0 && b.contains(*d))
        .collect();
    if divisors.is_empty() {
        return ValueRange::top();
    }
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for x in [a.lo, a.hi] {
        for d in &divisors {
            match x.checked_div(*d) {
                Some(v) => {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                None => return ValueRange::top(),
            }
        }
    }
    ValueRange::interval(lo, hi)
}

/// Truncating remainder: `|a % b| < max(|b|)` and the result keeps the
/// sign of `a`.
fn rem_range(a: &ValueRange, b: &ValueRange) -> ValueRange {
    let m =
        b.lo.unsigned_abs()
            .max(b.hi.unsigned_abs())
            .saturating_sub(1)
            .min(i64::MAX as u64) as i64;
    let lo = if a.lo >= 0 { 0 } else { (-m).max(a.lo) };
    let hi = if a.hi <= 0 { 0 } else { m.min(a.hi) };
    ValueRange::interval(lo, hi)
}

fn shl_range(a: &ValueRange, amt: &ValueRange) -> ValueRange {
    // Negative shift amounts are runtime errors; amounts saturate at
    // `MAX_SHIFT`.
    let klo = amt.lo.clamp(0, MAX_SHIFT) as u32;
    let khi = amt.hi.clamp(0, MAX_SHIFT) as u32;
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for x in [a.lo, a.hi] {
        for k in [klo, khi] {
            let v = x.wrapping_shl(k);
            // The shift must be value-preserving for corner evaluation to
            // bound the interior; a wrapped corner loses monotonicity.
            if v.wrapping_shr(k) != x {
                return ValueRange::top();
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let mut r = ValueRange::interval(lo, hi);
    if a.lo >= 0 {
        // Result bits below the minimum shift amount are always zero.
        // The operand's known-zero mask shifts up only when the amount
        // is exactly known: under a variable amount the same result bit
        // is fed by a *different* operand bit per amount, so shifting
        // the mask by `klo` alone would claim zeros that `1 << k` for
        // k > klo plainly violates.
        let mut kz = ((1u64 << klo) - 1) & NONNEG_MASK;
        if klo == khi {
            kz |= (a.known_zero << klo) & NONNEG_MASK;
        }
        r.known_zero |= kz;
        r.reknow();
    }
    r
}

fn shr_range(a: &ValueRange, amt: &ValueRange) -> ValueRange {
    let klo = amt.lo.clamp(0, MAX_SHIFT) as u32;
    let khi = amt.hi.clamp(0, MAX_SHIFT) as u32;
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for x in [a.lo, a.hi] {
        for k in [klo, khi] {
            let v = x >> k;
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    ValueRange::interval(lo, hi)
}

fn and_range(a: &ValueRange, b: &ValueRange) -> ValueRange {
    // A non-negative operand forces a non-negative result no larger than
    // itself (bitwise subset); otherwise both may sign-extend and the
    // interval is unbounded.
    let mut r = if a.lo >= 0 && b.lo >= 0 {
        ValueRange::interval(0, a.hi.min(b.hi))
    } else if b.lo >= 0 {
        ValueRange::interval(0, b.hi)
    } else if a.lo >= 0 {
        ValueRange::interval(0, a.hi)
    } else {
        ValueRange::top()
    };
    if r.lo >= 0 {
        r.known_zero |= a.known_zero | b.known_zero;
        r.reknow();
    }
    r
}

fn or_range(a: &ValueRange, b: &ValueRange) -> ValueRange {
    if a.lo >= 0 && b.lo >= 0 {
        // or keeps every set bit: at least max(lo), at most the all-ones
        // envelope of both operands' used bits.
        let mut r = ValueRange {
            lo: a.lo.max(b.lo),
            hi: envelope(a.hi) | envelope(b.hi),
            known_zero: a.known_zero & b.known_zero,
        };
        r.reknow();
        r
    } else {
        ValueRange::top()
    }
}

fn xor_range(a: &ValueRange, b: &ValueRange) -> ValueRange {
    if a.lo >= 0 && b.lo >= 0 {
        let mut r = ValueRange {
            lo: 0,
            hi: envelope(a.hi) | envelope(b.hi),
            known_zero: a.known_zero & b.known_zero,
        };
        r.reknow();
        r
    } else {
        ValueRange::top()
    }
}

/// The all-ones mask covering every bit of non-negative `v`.
fn envelope(v: i64) -> i64 {
    debug_assert!(v >= 0);
    let used = 64 - (v as u64).leading_zeros();
    if used >= 63 {
        i64::MAX
    } else {
        (1i64 << used) - 1
    }
}

fn cmp_range(
    a: &ValueRange,
    b: &ValueRange,
    always: fn(&ValueRange, &ValueRange) -> bool,
    never: fn(&ValueRange, &ValueRange) -> bool,
) -> ValueRange {
    if always(a, b) {
        ValueRange::exact(1)
    } else if never(a, b) {
        ValueRange::exact(0)
    } else {
        ValueRange::interval(0, 1)
    }
}

/// Replaces every pure instruction whose proven range is a single value
/// with a load of that constant, returning whether anything changed.
/// Division and remainder are left alone (they can trap at runtime, and
/// folding would erase the trap); the caller should re-run `optimize` to
/// clean up the newly dead operands and then re-analyze.
pub fn fold_constant_ranges(ir: &mut FunctionIr, map: &RangeMap) -> bool {
    let mut changed = false;
    for b in &mut ir.blocks {
        for ins in &mut b.instrs {
            if matches!(
                ins.op,
                Opcode::Ldc | Opcode::Arg | Opcode::Snx | Opcode::Div | Opcode::Rem
            ) {
                continue;
            }
            let Some(d) = ins.dst else { continue };
            let Some(c) = map.get(d).and_then(|r| r.as_constant()) else {
                continue;
            };
            ins.op = Opcode::Ldc;
            ins.srcs.clear();
            ins.imm = c;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vr(lo: i64, hi: i64) -> ValueRange {
        ValueRange::interval(lo, hi)
    }

    /// A diamond: out = (a < 10) ? a + 1 : 0, with a: uint8.
    fn diamond_ir() -> FunctionIr {
        let mut f = FunctionIr::new("t");
        let u8t = IntType::unsigned(8);
        let bit = IntType::bit();
        f.inputs.push(("a".into(), u8t));
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let a = f.new_vreg(u8t);
        let ten = f.new_vreg(IntType::signed(5));
        let c = f.new_vreg(bit);
        let inc = f.new_vreg(IntType::unsigned(9));
        let zero = f.new_vreg(IntType::unsigned(1));
        let one = f.new_vreg(IntType::unsigned(1));
        let out = f.new_vreg(IntType::unsigned(9));
        f.block_mut(b0).instrs = vec![
            Instr::new(Opcode::Arg, a, vec![], 0, u8t),
            Instr::new(Opcode::Ldc, ten, vec![], 10, IntType::signed(5)),
            Instr::new(Opcode::Slt, c, vec![a, ten], 0, bit),
        ];
        f.block_mut(b0).term = Terminator::Branch {
            cond: c,
            then_b: b1,
            else_b: b2,
        };
        f.block_mut(b1).instrs = vec![
            Instr::new(Opcode::Ldc, one, vec![], 1, IntType::unsigned(1)),
            Instr::new(Opcode::Add, inc, vec![a, one], 0, IntType::unsigned(9)),
        ];
        f.block_mut(b1).term = Terminator::Jump(b3);
        f.block_mut(b2).instrs = vec![Instr::new(
            Opcode::Ldc,
            zero,
            vec![],
            0,
            IntType::unsigned(1),
        )];
        f.block_mut(b2).term = Terminator::Jump(b3);
        f.block_mut(b3).phis = vec![Phi {
            dst: out,
            args: vec![(b1, inc), (b2, zero)],
            ty: IntType::unsigned(9),
        }];
        f.block_mut(b3).term = Terminator::Ret;
        f.outputs.push(("o".into(), IntType::unsigned(9)));
        f.output_srcs.push(out);
        f.is_ssa = true;
        f
    }

    #[test]
    fn exact_and_join_and_intersect() {
        let a = ValueRange::exact(5);
        assert_eq!(a.as_constant(), Some(5));
        assert_eq!(a.bits(false), 3);
        assert_eq!(a.bits(true), 4);
        let j = a.join(&ValueRange::exact(-3));
        assert_eq!((j.lo, j.hi), (-3, 5));
        assert_eq!(j.known_zero, 0);
        assert!(vr(0, 4).intersect(&vr(5, 9)).is_none());
        let i = vr(0, 10).intersect(&vr(5, 20)).unwrap();
        assert_eq!((i.lo, i.hi), (5, 10));
    }

    #[test]
    fn known_zero_tracks_used_bits() {
        let r = vr(0, 255);
        assert_eq!(r.known_zero, !0xffu64 & (i64::MAX as u64));
        // Bits proven zero cap the interval.
        let mut wide = ValueRange {
            lo: 0,
            hi: 1000,
            known_zero: !0xffu64 & (i64::MAX as u64),
        };
        wide.reknow();
        assert_eq!(wide.hi, 255);
    }

    #[test]
    fn transfer_arith_corners() {
        assert_eq!(
            binop_corners(&vr(-3, 5), &vr(10, 20), i64::checked_add),
            vr(7, 25)
        );
        assert_eq!(
            binop_corners(&vr(-3, 5), &vr(-2, 4), i64::checked_mul),
            vr(-12, 20)
        );
        // Overflow falls back to top.
        assert_eq!(
            binop_corners(&vr(0, i64::MAX), &vr(1, 1), i64::checked_add),
            ValueRange::top()
        );
    }

    #[test]
    fn transfer_div_rem_shift() {
        assert_eq!(div_range(&vr(0, 100), &vr(3, 5)), vr(0, 33));
        assert_eq!(div_range(&vr(-100, 100), &vr(-2, 2)), vr(-100, 100));
        let r = rem_range(&vr(0, 1000), &vr(8, 8));
        assert_eq!((r.lo, r.hi), (0, 7));
        let r = rem_range(&vr(-50, 50), &vr(10, 10));
        assert_eq!((r.lo, r.hi), (-9, 9));
        // Exact amount: the low `klo` bits are provably zero on top of
        // the width-implied mask.
        let r = shl_range(&vr(0, 3), &vr(2, 2));
        assert_eq!((r.lo, r.hi), (0, 12));
        assert_eq!(r.known_zero, vr(0, 12).known_zero | 0b11);
        // Variable amount: bits reachable by *any* amount stay unknown —
        // `1 << [0,7]` must keep 128 in range (soundness regression).
        let r = shl_range(&vr(1, 1), &vr(0, 7));
        assert_eq!((r.lo, r.hi), (1, 128));
        assert!(r.contains(128));
        assert_eq!(shr_range(&vr(-8, 100), &vr(1, 3)), vr(-4, 50));
    }

    #[test]
    fn transfer_bitwise_nonneg() {
        assert_eq!(and_range(&vr(0, 200), &vr(0, 15)), vr(0, 15));
        // A signed operand against a non-negative one still bounds by the
        // non-negative side.
        assert_eq!(and_range(&vr(-100, 100), &vr(0, 7)), vr(0, 7));
        let o = or_range(&vr(1, 4), &vr(2, 9));
        assert_eq!((o.lo, o.hi), (2, 15));
        let x = xor_range(&vr(0, 4), &vr(0, 9));
        assert_eq!((x.lo, x.hi), (0, 15));
    }

    #[test]
    fn analyze_diamond_refines_and_bounds_phi() {
        let ir = diamond_ir();
        let map = analyze(&ir);
        // out = (a<10) ? a+1 : 0 with a in [0,255]: the true arm sees
        // a in [0,9], so the phi is [0,10].
        let out = map.get(ir.output_srcs[0]).unwrap();
        assert_eq!((out.lo, out.hi), (0, 10));
        assert_eq!(out.bits(false), 4);
    }

    #[test]
    fn analyze_with_inputs_tightens_ports() {
        let ir = diamond_ir();
        let map = analyze_with_inputs(&ir, &[Some((0, 3))]);
        let out = map.get(ir.output_srcs[0]).unwrap();
        assert_eq!((out.lo, out.hi), (0, 4));
    }

    #[test]
    fn feedback_widens_to_slot_type() {
        // acc' = acc + 1 with acc: uint4 init 0 — grows every iteration,
        // so widening must settle it at the full [0,15] slot range.
        let mut f = FunctionIr::new("w");
        let u4 = IntType::unsigned(4);
        let acc = f.new_vreg(u4);
        let one = f.new_vreg(IntType::unsigned(1));
        let nxt = f.new_vreg(IntType::unsigned(5));
        f.feedback.push(FeedbackSlot {
            name: "acc".into(),
            ty: u4,
            init: 0,
        });
        let b0 = f.new_block();
        f.block_mut(b0).instrs = vec![
            Instr::new(Opcode::Lpr, acc, vec![], 0, u4),
            Instr::new(Opcode::Ldc, one, vec![], 1, IntType::unsigned(1)),
            Instr::new(Opcode::Add, nxt, vec![acc, one], 0, IntType::unsigned(5)),
            Instr {
                op: Opcode::Snx,
                dst: None,
                srcs: [nxt].into(),
                imm: 0,
                ty: u4,
            },
        ];
        f.block_mut(b0).term = Terminator::Ret;
        f.is_ssa = true;
        let map = analyze(&f);
        let r = map.get(acc).unwrap();
        assert_eq!((r.lo, r.hi), (0, 15));
        // nxt = acc + 1 in [1,16].
        let n = map.get(nxt).unwrap();
        assert_eq!((n.lo, n.hi), (1, 16));
    }

    #[test]
    fn fold_replaces_singleton_ranges_with_constants() {
        // x = 3; y = x + x  =>  y folds to Ldc 6.
        let mut f = FunctionIr::new("c");
        let t = IntType::signed(8);
        let x = f.new_vreg(t);
        let y = f.new_vreg(t);
        let b0 = f.new_block();
        f.block_mut(b0).instrs = vec![
            Instr::new(Opcode::Ldc, x, vec![], 3, t),
            Instr::new(Opcode::Add, y, vec![x, x], 0, t),
        ];
        f.block_mut(b0).term = Terminator::Ret;
        f.outputs.push(("o".into(), t));
        f.output_srcs.push(y);
        f.is_ssa = true;
        let map = analyze(&f);
        assert!(fold_constant_ranges(&mut f, &map));
        let ins = &f.block(b0).instrs[1];
        assert_eq!(ins.op, Opcode::Ldc);
        assert_eq!(ins.imm, 6);
        assert!(ins.srcs.is_empty());
        // Nothing left to fold on a second run.
        let map = analyze(&f);
        assert!(!fold_constant_ranges(&mut f, &map));
    }
}
