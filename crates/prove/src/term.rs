//! Hash-consed word-level term DAG shared by the symbolic IR and netlist
//! evaluators.
//!
//! All terms denote 64-bit two's-complement words (`i64`); arithmetic is
//! wrapping, exactly matching both `suifvm::interp::IrMachine` and the
//! `netlist::plan` simulators. The two leaf kinds are *already-wrapped*
//! values:
//!
//! - [`Term::Var`] — input port `port` as wrapped to the port type, carried
//!   by the window launched `lag` register stages before the observer;
//! - [`Term::FbVar`] — feedback slot state wrapped to the slot type, with
//!   the same lag convention.
//!
//! Smart constructors canonicalize on the way in: associative/commutative
//! operators are flattened and sorted, sums are kept as linear combinations
//! (constant coefficients folded wrapping), constants fold through every
//! operator, and width changes ([`Term::Wrap`]) are absorbed whenever an
//! interval analysis over the term itself proves the value already fits.
//!
//! [`Term::Var`] denotes the *raw* 64-bit argument word — each side wraps
//! it explicitly (the IR to the port type at `ARG`, the netlist to the
//! input-cell type), so differing widths are visible to the prover.
//! [`Term::FbVar`] denotes the (slot-type-wrapped) feedback state, which
//! both sides share by the usual inductive argument: the init obligation
//! makes the states equal at reset and the next-state obligations keep
//! them equal.

use std::collections::HashMap;

use roccc_cparse::ops::{self, Fault, MAX_SHIFT};
use roccc_cparse::types::IntType;

/// Index of a term in its [`TermStore`].
pub type TermId = u32;

/// Operator tag for [`Term::Op`] nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TOp {
    /// n-ary wrapping sum (linear-combination canonical form).
    Add,
    /// n-ary wrapping product (sign pulled out, constants folded front).
    Mul,
    /// n-ary bitwise AND.
    And,
    /// n-ary bitwise OR.
    Or,
    /// n-ary bitwise XOR.
    Xor,
    /// Wrapping negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// `!= 0` coercion to 0/1.
    Bool,
    /// Shift-amount clamp to `0..=MAX_SHIFT` (both machines clamp; the IR faults
    /// on negative amounts, so equivalence is conditioned on no-fault runs).
    ShAmt,
    /// Left shift by a clamped dynamic amount (constant shifts become `Mul`).
    Shl,
    /// Arithmetic right shift by a clamped amount.
    Shr,
    /// Signed quotient (conditioned on a non-zero divisor).
    Div,
    /// Signed remainder (conditioned on a non-zero divisor).
    Rem,
    /// Signed less-than, 0/1 result.
    Slt,
    /// Signed less-or-equal, 0/1 result.
    Sle,
    /// Equality, 0/1 result.
    Seq,
    /// Inequality, 0/1 result.
    Sne,
    /// `args[0] != 0 ? args[1] : args[2]`.
    Mux,
    /// ROM lookup in the interned table; negative or out-of-range indices
    /// read 0 (the netlist semantics; the IR faults on negative indices).
    Lut(u32),
}

/// A node of the term DAG. Interned: equal nodes share one [`TermId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Raw 64-bit input-port word (see module docs for the lag convention).
    Var {
        /// Input port index into `FunctionIr::inputs`.
        port: u32,
        /// Windows back from the current one this leaf is read at.
        lag: u32,
    },
    /// Slot-type-wrapped feedback state (justified inductively).
    FbVar {
        /// Feedback slot index into `FunctionIr::feedback`.
        slot: u32,
        /// Windows back from the current one this leaf is read at.
        lag: u32,
    },
    /// Constant word.
    Const(i64),
    /// Truncate to `bits` then sign- or zero-extend — `IntType::wrap`.
    Wrap {
        /// Target width.
        bits: u8,
        /// Sign- (`true`) or zero-extend after truncation.
        signed: bool,
        /// Wrapped operand.
        arg: TermId,
    },
    /// Operator application.
    Op {
        /// The operator.
        op: TOp,
        /// Operands, in operator order.
        args: Vec<TermId>,
    },
}

/// Leaf lags observed in a term cone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LagSet {
    /// No `Var`/`FbVar` leaves (constant cone) — timing-neutral.
    Empty,
    /// Every leaf sits at the same lag.
    Uniform(u32),
    /// Leaves at differing lags — a valid-grid divergence.
    Mixed,
}

/// Hash-consing store plus the leaf-type context needed by the interval
/// analysis, the concrete evaluator, and the bit-blaster.
pub struct TermStore {
    terms: Vec<Term>,
    intern: HashMap<Term, TermId>,
    /// Input-port types, indexed by `Var::port` (sampling hints only — a
    /// `Var` itself is the raw, unwrapped argument word).
    pub var_tys: Vec<IntType>,
    /// Feedback-slot types, indexed by `FbVar::slot`.
    pub fb_tys: Vec<IntType>,
    /// Interned ROM tables (raw, unwrapped data; wraps are explicit nodes).
    pub luts: Vec<Vec<i64>>,
    /// Count of simplification-rule firings (reported as `rewrite_steps`).
    pub steps: u64,
    intervals: HashMap<TermId, Option<(i128, i128)>>,
}

fn ty_bounds(ty: IntType) -> (i128, i128) {
    (ty.min_value() as i128, ty.max_value() as i128)
}

impl TermStore {
    /// Creates an empty store with the given leaf-type context.
    pub fn new(var_tys: Vec<IntType>, fb_tys: Vec<IntType>) -> Self {
        TermStore {
            terms: Vec::new(),
            intern: HashMap::new(),
            var_tys,
            fb_tys,
            luts: Vec::new(),
            steps: 0,
            intervals: HashMap::new(),
        }
    }

    /// Interns `t`, returning its id.
    pub fn mk(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.intern.get(&t) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(t.clone());
        self.intern.insert(t, id);
        id
    }

    /// The node behind `id`.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id as usize]
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no nodes have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a ROM table (by raw contents), returning its table id.
    pub fn intern_lut(&mut self, data: &[i64]) -> u32 {
        for (i, t) in self.luts.iter().enumerate() {
            if t.as_slice() == data {
                return i as u32;
            }
        }
        self.luts.push(data.to_vec());
        (self.luts.len() - 1) as u32
    }

    // ---- leaf and constant constructors -------------------------------

    /// Input-port leaf.
    pub fn var(&mut self, port: u32, lag: u32) -> TermId {
        self.mk(Term::Var { port, lag })
    }

    /// Feedback-slot leaf.
    pub fn fb(&mut self, slot: u32, lag: u32) -> TermId {
        self.mk(Term::FbVar { slot, lag })
    }

    /// Constant word.
    pub fn cst(&mut self, v: i64) -> TermId {
        self.mk(Term::Const(v))
    }

    fn as_const(&self, id: TermId) -> Option<i64> {
        match self.term(id) {
            Term::Const(v) => Some(*v),
            _ => None,
        }
    }

    // ---- smart constructors -------------------------------------------

    /// Wrapping n-ary sum in linear-combination canonical form: collects
    /// `coeff * base` contributions (folding `Neg` and constant factors),
    /// sums coefficients wrapping, and drops zero terms.
    pub fn add(&mut self, args: Vec<TermId>) -> TermId {
        let mut coeffs: HashMap<TermId, i64> = HashMap::new();
        let mut konst: i64 = 0;
        let mut stack = args;
        while let Some(a) = stack.pop() {
            match self.term(a).clone() {
                Term::Const(v) => konst = ops::add(konst, v),
                Term::Op { op: TOp::Add, args } => stack.extend(args),
                Term::Op { op: TOp::Neg, args } => {
                    self.steps += 1;
                    let (c, base) = self.coeff_of(args[0]);
                    let e = coeffs.entry(base).or_insert(0);
                    *e = ops::sub(*e, c);
                }
                _ => {
                    let (c, base) = self.coeff_of(a);
                    let e = coeffs.entry(base).or_insert(0);
                    *e = ops::add(*e, c);
                }
            }
        }
        let mut parts: Vec<(TermId, i64)> = coeffs.into_iter().filter(|&(_, c)| c != 0).collect();
        parts.sort_unstable_by_key(|&(b, _)| b);
        let mut out: Vec<TermId> = Vec::with_capacity(parts.len() + 1);
        if konst != 0 {
            out.push(self.cst(konst));
        }
        for (base, c) in parts {
            let t = match c {
                1 => base,
                -1 => self.mk_neg_raw(base),
                _ => {
                    let k = self.cst(c);
                    self.mul(vec![k, base])
                }
            };
            out.push(t);
        }
        match out.len() {
            0 => self.cst(0),
            1 => out[0],
            _ => self.mk(Term::Op {
                op: TOp::Add,
                args: out,
            }),
        }
    }

    /// Splits `t` into `(coefficient, base)` for sum collection.
    fn coeff_of(&mut self, t: TermId) -> (i64, TermId) {
        if let Term::Op { op: TOp::Mul, args } = self.term(t).clone() {
            if let Some(c) = self.as_const(args[0]) {
                let rest = args[1..].to_vec();
                let base = if rest.len() == 1 {
                    rest[0]
                } else {
                    self.mk(Term::Op {
                        op: TOp::Mul,
                        args: rest,
                    })
                };
                return (c, base);
            }
        }
        (1, t)
    }

    fn mk_neg_raw(&mut self, t: TermId) -> TermId {
        self.mk(Term::Op {
            op: TOp::Neg,
            args: vec![t],
        })
    }

    /// Wrapping negation (distributes over sums, folds into products).
    pub fn neg(&mut self, a: TermId) -> TermId {
        match self.term(a).clone() {
            Term::Const(v) => {
                self.steps += 1;
                self.cst(ops::neg(v))
            }
            Term::Op { op: TOp::Neg, args } => {
                self.steps += 1;
                args[0]
            }
            Term::Op { op: TOp::Add, args } => {
                self.steps += 1;
                let negd: Vec<TermId> = args.iter().map(|&x| self.mk_neg_raw(x)).collect();
                self.add(negd)
            }
            Term::Op { op: TOp::Mul, args } if self.as_const(args[0]).is_some() => {
                self.steps += 1;
                let c = ops::neg(self.as_const(args[0]).unwrap());
                let mut v = vec![self.cst(c)];
                v.extend_from_slice(&args[1..]);
                self.mul(v)
            }
            _ => self.mk_neg_raw(a),
        }
    }

    /// Wrapping subtraction, canonicalized as `a + (-b)`.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.neg(b);
        self.add(vec![a, nb])
    }

    /// Wrapping n-ary product: constants fold to a leading coefficient,
    /// signs are pulled out of `Neg` factors, factors sort by id.
    pub fn mul(&mut self, args: Vec<TermId>) -> TermId {
        let mut konst: i64 = 1;
        let mut factors: Vec<TermId> = Vec::new();
        let mut stack = args;
        while let Some(a) = stack.pop() {
            match self.term(a).clone() {
                Term::Const(v) => konst = ops::mul(konst, v),
                Term::Op { op: TOp::Mul, args } => stack.extend(args),
                Term::Op { op: TOp::Neg, args } => {
                    self.steps += 1;
                    konst = ops::neg(konst);
                    stack.push(args[0]);
                }
                _ => factors.push(a),
            }
        }
        if konst == 0 {
            self.steps += 1;
            return self.cst(0);
        }
        factors.sort_unstable();
        if factors.is_empty() {
            return self.cst(konst);
        }
        let core = if factors.len() == 1 {
            factors[0]
        } else {
            self.mk(Term::Op {
                op: TOp::Mul,
                args: factors.clone(),
            })
        };
        match konst {
            1 => core,
            -1 => self.mk_neg_raw(core),
            _ => {
                let mut v = vec![self.cst(konst)];
                v.extend(factors);
                self.mk(Term::Op {
                    op: TOp::Mul,
                    args: v,
                })
            }
        }
    }

    /// n-ary bitwise operator with constant folding, idempotence /
    /// cancellation, and identity/absorbing-element elimination.
    pub fn bitwise(&mut self, op: TOp, args: Vec<TermId>) -> TermId {
        debug_assert!(matches!(op, TOp::And | TOp::Or | TOp::Xor));
        let (identity, absorber) = match op {
            TOp::And => (-1i64, Some(0i64)),
            TOp::Or => (0, Some(-1)),
            _ => (0, None),
        };
        let mut konst = identity;
        let mut rest: Vec<TermId> = Vec::new();
        let mut stack = args;
        while let Some(a) = stack.pop() {
            match self.term(a).clone() {
                Term::Const(v) => {
                    konst = match op {
                        TOp::And => ops::and(konst, v),
                        TOp::Or => ops::or(konst, v),
                        _ => ops::xor(konst, v),
                    }
                }
                Term::Op { op: o2, args } if o2 == op => stack.extend(args),
                _ => rest.push(a),
            }
        }
        if absorber == Some(konst) {
            self.steps += 1;
            return self.cst(konst);
        }
        rest.sort_unstable();
        if op == TOp::Xor {
            // pairs cancel
            let mut kept: Vec<TermId> = Vec::new();
            for a in rest {
                if kept.last() == Some(&a) {
                    self.steps += 1;
                    kept.pop();
                } else {
                    kept.push(a);
                }
            }
            rest = kept;
        } else {
            let before = rest.len();
            rest.dedup();
            if rest.len() != before {
                self.steps += 1;
            }
        }
        let mut out = Vec::with_capacity(rest.len() + 1);
        if konst != identity {
            out.push(self.cst(konst));
        }
        out.extend(rest);
        match out.len() {
            0 => self.cst(identity),
            1 => out[0],
            _ => self.mk(Term::Op { op, args: out }),
        }
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: TermId) -> TermId {
        match self.term(a).clone() {
            Term::Const(v) => {
                self.steps += 1;
                self.cst(ops::not(v))
            }
            Term::Op { op: TOp::Not, args } => {
                self.steps += 1;
                args[0]
            }
            _ => self.mk(Term::Op {
                op: TOp::Not,
                args: vec![a],
            }),
        }
    }

    /// `!= 0` coercion; absorbed when the argument is already 0/1-valued.
    pub fn boolify(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_const(a) {
            self.steps += 1;
            return self.cst(ops::truth(v));
        }
        if let Some((lo, hi)) = self.interval(a) {
            if lo >= 0 && hi <= 1 {
                self.steps += 1;
                return a;
            }
        }
        self.mk(Term::Op {
            op: TOp::Bool,
            args: vec![a],
        })
    }

    /// Clamp a dynamic shift amount to `0..=MAX_SHIFT`.
    pub fn sh_amt(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_const(a) {
            self.steps += 1;
            return self.cst(sh_amt_value(v));
        }
        if matches!(self.term(a), Term::Op { op: TOp::ShAmt, .. }) {
            self.steps += 1;
            return a;
        }
        if let Some((lo, hi)) = self.interval(a) {
            if lo >= 0 && hi <= MAX_SHIFT as i128 {
                self.steps += 1;
                return a;
            }
        }
        self.mk(Term::Op {
            op: TOp::ShAmt,
            args: vec![a],
        })
    }

    /// Left shift; constant amounts strength-reduce to a multiplication
    /// (`x << k` ≡ `x * 2^k` mod 2^64), unifying either spelling.
    pub fn shl(&mut self, x: TermId, amt: TermId) -> TermId {
        if let Some(k) = self.as_const(amt) {
            self.steps += 1;
            let f = self.cst(shift(ops::shl, 1, k));
            return self.mul(vec![f, x]);
        }
        let amt = self.sh_amt(amt);
        if self.as_const(x) == Some(0) {
            self.steps += 1;
            return x;
        }
        self.mk(Term::Op {
            op: TOp::Shl,
            args: vec![x, amt],
        })
    }

    /// Arithmetic right shift by a clamped amount.
    pub fn shr(&mut self, x: TermId, amt: TermId) -> TermId {
        let amt = self.sh_amt(amt);
        if let (Some(v), Some(k)) = (self.as_const(x), self.as_const(amt)) {
            self.steps += 1;
            return self.cst(shift(ops::shr, v, k));
        }
        if self.as_const(x) == Some(0) || self.as_const(x) == Some(-1) {
            self.steps += 1;
            return x;
        }
        self.mk(Term::Op {
            op: TOp::Shr,
            args: vec![x, amt],
        })
    }

    /// Binary operator dispatch for the non-AC arithmetic/compare ops.
    pub fn op2(&mut self, op: TOp, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            if let Some(v) = fold2(op, x, y) {
                self.steps += 1;
                return self.cst(v);
            }
        }
        match op {
            TOp::Div if self.as_const(b) == Some(1) => {
                self.steps += 1;
                return a;
            }
            TOp::Rem if matches!(self.as_const(b), Some(1) | Some(-1)) => {
                self.steps += 1;
                return self.cst(0);
            }
            TOp::Slt | TOp::Sne if a == b => {
                self.steps += 1;
                return self.cst(0);
            }
            TOp::Sle | TOp::Seq if a == b => {
                self.steps += 1;
                return self.cst(1);
            }
            _ => {}
        }
        let (a, b) = if matches!(op, TOp::Seq | TOp::Sne) && a > b {
            (b, a)
        } else {
            (a, b)
        };
        self.mk(Term::Op {
            op,
            args: vec![a, b],
        })
    }

    /// `c != 0 ? t : e` with constant-condition and equal-branch folding.
    pub fn mux(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        if let Some(v) = self.as_const(c) {
            self.steps += 1;
            return if v != 0 { t } else { e };
        }
        if t == e {
            self.steps += 1;
            return t;
        }
        // Bool(c) != 0  ⟺  c != 0: drop the coercion inside a mux guard.
        let c = match self.term(c).clone() {
            Term::Op {
                op: TOp::Bool,
                args,
            } => {
                self.steps += 1;
                args[0]
            }
            _ => c,
        };
        if let (Some(1), Some(0)) = (self.as_const(t), self.as_const(e)) {
            if let Some((lo, hi)) = self.interval(c) {
                if lo >= 0 && hi <= 1 {
                    self.steps += 1;
                    return c;
                }
            }
        }
        self.mk(Term::Op {
            op: TOp::Mux,
            args: vec![c, t, e],
        })
    }

    /// ROM lookup.
    pub fn lut(&mut self, table: u32, idx: TermId) -> TermId {
        if let Some(i) = self.as_const(idx) {
            self.steps += 1;
            let data = &self.luts[table as usize];
            let v = settle(ops::lut(data, i), i).unwrap_or(0);
            return self.cst(v);
        }
        self.mk(Term::Op {
            op: TOp::Lut(table),
            args: vec![idx],
        })
    }

    /// `IntType::wrap` as a term: dropped when the interval analysis proves
    /// the argument already fits, and collapsed through wider inner wraps.
    pub fn wrap(&mut self, ty: IntType, a: TermId) -> TermId {
        if ty.bits >= 64 {
            self.steps += 1;
            return a;
        }
        if let Some(v) = self.as_const(a) {
            self.steps += 1;
            return self.cst(ty.wrap(v));
        }
        if let Some((lo, hi)) = self.interval(a) {
            let (tmin, tmax) = ty_bounds(ty);
            if lo >= tmin && hi <= tmax {
                self.steps += 1;
                return a;
            }
        }
        // Wrap_b(Wrap_b2(x)) = Wrap_b(x) when b <= b2: truncation keeps the
        // low b bits, which the wider inner wrap left untouched.
        if let Term::Wrap { bits: b2, arg, .. } = *self.term(a) {
            if ty.bits <= b2 {
                self.steps += 1;
                return self.wrap(ty, arg);
            }
        }
        self.mk(Term::Wrap {
            bits: ty.bits,
            signed: ty.signed,
            arg: a,
        })
    }

    // ---- interval analysis --------------------------------------------

    /// Conservative value interval of `t` (treating leaves as ranging over
    /// their full port/slot types), or `None` when unbounded/unknown.
    pub fn interval(&mut self, t: TermId) -> Option<(i128, i128)> {
        if let Some(v) = self.intervals.get(&t) {
            return *v;
        }
        let r = self.interval_inner(t);
        // Every term denotes wrap64(mathematical value), while Add/Mul
        // intervals bound the *mathematical* value. Only an interval that
        // fits i64 certifies no 64-bit wrap occurred — anything wider must
        // be discarded, or downstream rules (Shr-by-constant, And/Or
        // non-negativity, the guarded-mux clamp, wrap elision) would apply
        // math-value bounds to a possibly-wrapped word.
        let r = r.filter(|&(lo, hi)| lo >= i64::MIN as i128 && hi <= i64::MAX as i128 && lo <= hi);
        self.intervals.insert(t, r);
        r
    }

    fn interval_inner(&mut self, t: TermId) -> Option<(i128, i128)> {
        match self.term(t).clone() {
            Term::Const(v) => Some((v as i128, v as i128)),
            // A `Var` is the raw argument word: unbounded.
            Term::Var { .. } => None,
            Term::FbVar { slot, .. } => {
                let ty = *self.fb_tys.get(slot as usize)?;
                Some(ty_bounds(ty))
            }
            Term::Wrap { bits, signed, arg } => {
                let ty = if signed {
                    IntType::signed(bits)
                } else {
                    IntType::unsigned(bits)
                };
                let (tmin, tmax) = ty_bounds(ty);
                match self.interval(arg) {
                    Some((lo, hi)) if lo >= tmin && hi <= tmax => Some((lo, hi)),
                    _ => Some((tmin, tmax)),
                }
            }
            Term::Op { op, args } => self.interval_op(op, &args),
        }
    }

    fn interval_op(&mut self, op: TOp, args: &[TermId]) -> Option<(i128, i128)> {
        match op {
            TOp::Add => {
                let mut lo = 0i128;
                let mut hi = 0i128;
                for &a in args {
                    let (l, h) = self.interval(a)?;
                    lo = lo.checked_add(l)?;
                    hi = hi.checked_add(h)?;
                }
                Some((lo, hi))
            }
            TOp::Mul => {
                let (mut lo, mut hi) = (1i128, 1i128);
                for &a in args {
                    let (l, h) = self.interval(a)?;
                    let cands = [
                        lo.checked_mul(l)?,
                        lo.checked_mul(h)?,
                        hi.checked_mul(l)?,
                        hi.checked_mul(h)?,
                    ];
                    lo = *cands.iter().min().unwrap();
                    hi = *cands.iter().max().unwrap();
                }
                Some((lo, hi))
            }
            TOp::Neg => {
                let (l, h) = self.interval(args[0])?;
                Some((h.checked_neg()?, l.checked_neg()?))
            }
            TOp::And => {
                // The result's set bits are a subset of every operand's, so
                // any operand known non-negative bounds it to [0, operand].
                let mut hi: Option<i128> = None;
                for &a in args {
                    if let Some((l, h)) = self.interval(a) {
                        if l >= 0 {
                            hi = Some(hi.map_or(h, |m: i128| m.min(h)));
                        }
                    }
                }
                hi.map(|h| (0, h))
            }
            TOp::Or | TOp::Xor => {
                // Or/xor of non-negative values stays below the smallest
                // power of two clearing every operand; or is also >= each.
                let mut lo = 0i128;
                let mut hi = 0i128;
                for &a in args {
                    let (l, h) = self.interval(a)?;
                    if l < 0 {
                        return None;
                    }
                    if op == TOp::Or {
                        lo = lo.max(l);
                    }
                    hi = hi.max(h);
                }
                let m = 128 - (hi as u128).leading_zeros();
                Some((lo, (1i128 << m) - 1))
            }
            TOp::Slt | TOp::Sle | TOp::Seq | TOp::Sne | TOp::Bool => Some((0, 1)),
            TOp::ShAmt => Some((0, MAX_SHIFT as i128)),
            TOp::Mux => {
                let (mut tl, th) = self.interval(args[1])?;
                let (el, eh) = self.interval(args[2])?;
                // Guard-aware clamp: a condition `a <= b` (or `a < b`) whose
                // then-arm is canonically `b - a` proves that arm >= 0 (>= 1)
                // — the pattern restoring dividers/square roots build.
                if let Term::Op {
                    op: c_op,
                    args: c_args,
                } = self.term(args[0]).clone()
                {
                    if matches!(c_op, TOp::Sle | TOp::Slt) {
                        let diff = self.sub(c_args[1], c_args[0]);
                        if diff == args[1] {
                            tl = tl.max(if c_op == TOp::Slt { 1 } else { 0 });
                        }
                    }
                }
                Some((tl.min(el), th.max(eh)))
            }
            TOp::Shr => {
                let (l, h) = self.interval(args[0])?;
                // An arithmetic shift by a fixed amount is monotone (floor
                // division by 2^k), so the bounds shift with the operand
                // regardless of sign.
                if let Term::Const(k) = *self.term(args[1]) {
                    let k = sh_amt_value(k);
                    return Some((l >> k, h >> k));
                }
                if l >= 0 {
                    // Unknown non-negative shift of a non-negative value.
                    return Some((0, h));
                }
                None
            }
            TOp::Lut(tb) => {
                let data = &self.luts[tb as usize];
                let lo = data.iter().copied().min().unwrap_or(0).min(0);
                let hi = data.iter().copied().max().unwrap_or(0).max(0);
                Some((lo as i128, hi as i128))
            }
            _ => None,
        }
    }

    // ---- lag transforms -----------------------------------------------

    /// Returns `t` with every leaf lag increased by `delta` (crossing a
    /// gateless pipeline register).
    pub fn shift_lags(
        &mut self,
        t: TermId,
        delta: u32,
        cache: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if delta == 0 {
            return t;
        }
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let r = match self.term(t).clone() {
            Term::Var { port, lag } => self.var(port, lag + delta),
            Term::FbVar { slot, lag } => self.fb(slot, lag + delta),
            Term::Const(_) => t,
            Term::Wrap { bits, signed, arg } => {
                let a = self.shift_lags(arg, delta, cache);
                self.mk(Term::Wrap {
                    bits,
                    signed,
                    arg: a,
                })
            }
            Term::Op { op, args } => {
                let na: Vec<TermId> = args
                    .iter()
                    .map(|&a| self.shift_lags(a, delta, cache))
                    .collect();
                self.mk(Term::Op { op, args: na })
            }
        };
        cache.insert(t, r);
        r
    }

    /// Collects the set of leaf lags in `t`'s cone.
    pub fn lags(&self, t: TermId, cache: &mut HashMap<TermId, LagSet>) -> LagSet {
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let r = match self.term(t) {
            Term::Var { lag, .. } | Term::FbVar { lag, .. } => LagSet::Uniform(*lag),
            Term::Const(_) => LagSet::Empty,
            Term::Wrap { arg, .. } => self.lags(*arg, cache),
            Term::Op { args, .. } => {
                let mut acc = LagSet::Empty;
                for &a in args.clone().iter() {
                    let la = self.lags(a, cache);
                    acc = match (acc, la) {
                        (LagSet::Empty, x) | (x, LagSet::Empty) => x,
                        (LagSet::Uniform(a), LagSet::Uniform(b)) if a == b => LagSet::Uniform(a),
                        _ => LagSet::Mixed,
                    };
                    if acc == LagSet::Mixed {
                        break;
                    }
                }
                acc
            }
        };
        cache.insert(t, r);
        r
    }

    /// Returns `t` with every leaf lag reset to 0 (window-relative form).
    pub fn strip_lags(&mut self, t: TermId, cache: &mut HashMap<TermId, TermId>) -> TermId {
        if let Some(&r) = cache.get(&t) {
            return r;
        }
        let r = match self.term(t).clone() {
            Term::Var { port, .. } => self.var(port, 0),
            Term::FbVar { slot, .. } => self.fb(slot, 0),
            Term::Const(_) => t,
            Term::Wrap { bits, signed, arg } => {
                let a = self.strip_lags(arg, cache);
                self.mk(Term::Wrap {
                    bits,
                    signed,
                    arg: a,
                })
            }
            Term::Op { op, args } => {
                let na: Vec<TermId> = args.iter().map(|&a| self.strip_lags(a, cache)).collect();
                self.mk(Term::Op { op, args: na })
            }
        };
        cache.insert(t, r);
        r
    }

    /// True when any node of `t`'s cone is in `set`.
    pub fn cone_intersects(&self, t: TermId, set: &std::collections::HashSet<TermId>) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            if set.contains(&x) {
                return true;
            }
            match self.term(x) {
                Term::Wrap { arg, .. } => stack.push(*arg),
                Term::Op { args, .. } => stack.extend(args.iter().copied()),
                _ => {}
            }
        }
        false
    }

    // ---- concrete evaluation ------------------------------------------

    /// Evaluates `t` over one window: `vars[p]` is the (wrapped) value of
    /// input port `p`, `fbs[s]` the (wrapped) state of slot `s`. Lags are
    /// ignored — all leaves read the same window. Division by zero and
    /// out-of-range lookups follow the benign netlist semantics (0), which
    /// is safe here because candidates are always confirmed by replay.
    pub fn eval(
        &self,
        t: TermId,
        vars: &[i64],
        fbs: &[i64],
        cache: &mut HashMap<TermId, i64>,
    ) -> i64 {
        if let Some(&v) = cache.get(&t) {
            return v;
        }
        let v = match self.term(t).clone() {
            Term::Const(v) => v,
            Term::Var { port, .. } => vars.get(port as usize).copied().unwrap_or(0),
            Term::FbVar { slot, .. } => fbs.get(slot as usize).copied().unwrap_or(0),
            Term::Wrap { bits, signed, arg } => {
                let ty = if signed {
                    IntType::signed(bits)
                } else {
                    IntType::unsigned(bits)
                };
                ty.wrap(self.eval(arg, vars, fbs, cache))
            }
            Term::Op { op, args } => {
                let xs: Vec<i64> = args
                    .iter()
                    .map(|&a| self.eval(a, vars, fbs, cache))
                    .collect();
                eval_op(op, &xs, &self.luts)
            }
        };
        cache.insert(t, v);
        v
    }
}

/// The netlist fault policy, which the term semantics follow (the IR side
/// is conditioned on fault-free runs): a negative shift amount shifts by 0,
/// so `lhs` passes through, and a negative LUT index reads 0. A zero divisor
/// has no value here; the concrete evaluator reads it as 0.
fn settle(r: Result<i64, Fault>, lhs: i64) -> Option<i64> {
    match r {
        Ok(v) => Some(v),
        Err(Fault::NegativeShift) => Some(lhs),
        Err(Fault::NegativeLutIndex) => Some(0),
        Err(Fault::DivByZero | Fault::RemByZero) => None,
    }
}

/// A shift under [`settle`], which never leaves it without a value.
fn shift(op: impl Fn(i64, i64) -> Result<i64, Fault>, x: i64, amt: i64) -> i64 {
    settle(op(x, amt), x).unwrap_or(x)
}

/// The amount a netlist shifter moves bits by, as [`TOp::ShAmt`] denotes:
/// a negative amount shifts by 0, as in [`settle`].
fn sh_amt_value(v: i64) -> i64 {
    ops::shift_amount(v).map_or(0, i64::from)
}

/// Constant folding for binary non-AC ops; `None` when undefined (faulting).
fn fold2(op: TOp, a: i64, b: i64) -> Option<i64> {
    match op {
        TOp::Div => settle(ops::div(a, b), a),
        TOp::Rem => settle(ops::rem(a, b), a),
        TOp::Slt => Some(ops::lt(a, b)),
        TOp::Sle => Some(ops::le(a, b)),
        TOp::Seq => Some(ops::eq(a, b)),
        TOp::Sne => Some(ops::ne(a, b)),
        TOp::Shl => Some(shift(ops::shl, a, b)),
        TOp::Shr => Some(shift(ops::shr, a, b)),
        _ => None,
    }
}

/// Operator semantics for the concrete evaluator.
fn eval_op(op: TOp, xs: &[i64], luts: &[Vec<i64>]) -> i64 {
    match op {
        TOp::Add => xs.iter().fold(0, |a, &b| ops::add(a, b)),
        TOp::Mul => xs.iter().fold(1, |a, &b| ops::mul(a, b)),
        TOp::And => xs.iter().fold(-1, |a, &b| ops::and(a, b)),
        TOp::Or => xs.iter().fold(0, |a, &b| ops::or(a, b)),
        TOp::Xor => xs.iter().fold(0, |a, &b| ops::xor(a, b)),
        TOp::Neg => ops::neg(xs[0]),
        TOp::Not => ops::not(xs[0]),
        TOp::Bool => ops::truth(xs[0]),
        TOp::ShAmt => sh_amt_value(xs[0]),
        TOp::Mux => ops::select(xs[0], xs[1], xs[2]),
        TOp::Lut(t) => settle(ops::lut(&luts[t as usize], xs[0]), xs[0]).unwrap_or(0),
        TOp::Div | TOp::Rem | TOp::Slt | TOp::Sle | TOp::Seq | TOp::Sne | TOp::Shl | TOp::Shr => {
            fold2(op, xs[0], xs[1]).unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TermStore {
        TermStore::new(vec![IntType::int(), IntType::int(), IntType::int()], vec![])
    }

    #[test]
    fn add_is_commutative_and_folds() {
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let c2 = s.cst(2);
        let c3 = s.cst(3);
        let l = s.add(vec![a, c2, b, c3]);
        let r = s.add(vec![c3, b, c2, a]);
        assert_eq!(l, r);
    }

    #[test]
    fn sub_cancels_and_coefficients_merge() {
        let mut s = store();
        let a = s.var(0, 0);
        let z = s.sub(a, a);
        assert_eq!(s.term(z), &Term::Const(0));
        // a + a + a == 3*a
        let t = s.add(vec![a, a, a]);
        let c3 = s.cst(3);
        let m = s.mul(vec![c3, a]);
        assert_eq!(t, m);
    }

    #[test]
    fn shl_is_mul_by_power_of_two() {
        let mut s = store();
        let a = s.var(0, 0);
        let k = s.cst(3);
        let sh = s.shl(a, k);
        let c8 = s.cst(8);
        let m = s.mul(vec![c8, a]);
        assert_eq!(sh, m);
    }

    #[test]
    fn wrap_drops_when_interval_fits() {
        let mut s = store();
        let a = s.var(0, 0);
        let w32 = s.wrap(IntType::signed(32), a);
        assert_ne!(w32, a); // raw word: the first wrap matters
        let w40 = s.wrap(IntType::signed(40), w32);
        assert_eq!(w40, w32); // an i32 value always fits 40 bits
        let w16 = s.wrap(IntType::signed(16), w32);
        assert_ne!(w16, w32);
    }

    #[test]
    fn mulhi_wrap_is_not_elided() {
        // Regression: interval(u32*u32) bounds the *mathematical* product
        // [0, (2^32-1)^2], which exceeds i64 — the term's actual word is
        // the wrapped product and may be negative. The interval must be
        // discarded, so the 33-bit wrap after `>> 32` (the mulhi idiom's
        // width change) survives in the symbolic model.
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let x = s.wrap(IntType::unsigned(32), a);
        let y = s.wrap(IntType::unsigned(32), b);
        let m = s.mul(vec![x, y]);
        assert_eq!(s.interval(m), None);
        let k = s.cst(32);
        let sh = s.shr(m, k);
        assert_eq!(s.interval(sh), None);
        let w = s.wrap(IntType::unsigned(33), sh);
        assert_ne!(w, sh);
        // At a = b = 2^32 - 1 the wrapped product is negative: the shift
        // yields -2 and the retained u33 wrap restores 8589934590.
        let v = u32::MAX as i64;
        let mut cache = HashMap::new();
        assert_eq!(s.eval(sh, &[v, v], &[], &mut cache), -2);
        assert_eq!(s.eval(w, &[v, v], &[], &mut cache), 8589934590);
    }

    #[test]
    fn xor_pairs_cancel() {
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let x = s.bitwise(TOp::Xor, vec![a, b, a]);
        assert_eq!(x, b);
    }

    #[test]
    fn eval_matches_wrapping_semantics() {
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let m = s.mul(vec![a, b]);
        let t = s.add(vec![m, a]);
        let mut cache = HashMap::new();
        let v = s.eval(t, &[7, -3], &[], &mut cache);
        assert_eq!(v, 7i64.wrapping_mul(-3) + 7);
    }

    #[test]
    fn or_interval_bounds_nonnegative_operands() {
        let mut s = store();
        let a = s.var(0, 0);
        let x = s.wrap(IntType::unsigned(8), a); // [0, 255]
        let b = s.var(1, 0);
        let y = s.wrap(IntType::unsigned(4), b); // [0, 15]
        let o = s.bitwise(TOp::Or, vec![x, y]);
        assert_eq!(s.interval(o), Some((0, 255)));
        // A 9-bit wrap of the or therefore drops.
        let w = s.wrap(IntType::unsigned(9), o);
        assert_eq!(w, o);
    }

    #[test]
    fn guarded_subtract_mux_is_nonnegative() {
        let mut s = store();
        let a = s.var(0, 0);
        let x = s.wrap(IntType::unsigned(8), a); // [0, 255]
        let b = s.var(1, 0);
        let y = s.wrap(IntType::unsigned(8), b); // [0, 255]
        let c = s.op2(TOp::Sle, y, x); // y <= x
        let d = s.sub(x, y); // unguarded: [-255, 255]
        assert_eq!(s.interval(d), Some((-255, 255)));
        // ... but the restoring-step mux proves the subtract arm >= 0.
        let m = s.mux(c, d, x);
        assert_eq!(s.interval(m), Some((0, 255)));
    }

    #[test]
    fn lag_shift_and_strip() {
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 2);
        let t = s.add(vec![a, b]);
        let mut c1 = HashMap::new();
        let sh = s.shift_lags(t, 3, &mut c1);
        let mut lc = HashMap::new();
        assert_eq!(s.lags(sh, &mut lc), LagSet::Mixed);
        let mut c2 = HashMap::new();
        let st = s.strip_lags(sh, &mut c2);
        let a0 = s.var(0, 0);
        let b0 = s.var(1, 0);
        let expect = s.add(vec![a0, b0]);
        assert_eq!(st, expect);
    }
}
