//! Tseitin bit-blasting of terms into the CDCL core.
//!
//! Terms blast to 64-literal vectors. Structural sharing comes for free:
//! both sides of an obligation live in one hash-consed store, so equal
//! subterms share one blasted image. Leaves get fresh variables (`FbVar`
//! images are sign-extension patterns over their slot width, costing no
//! clauses); adders are ripple-carry; constant multiplications decompose
//! into shift-adds; non-linear operators (variable products, divisions,
//! dynamic shifts, ROM lookups) become fresh uninterpreted vectors — sound
//! for UNSAT verdicts, while SAT models are only ever *candidates* that
//! must survive concrete replay before a refutation is reported.

use std::collections::HashMap;

use roccc_cparse::ops::MAX_SHIFT;

use crate::sat::{SatStats, SolveResult, Solver};
use crate::term::{TOp, Term, TermId, TermStore};

const W: usize = 64;
type Bits = [i32; W];

/// Outcome of a SAT equality check.
pub enum SatOutcome {
    /// `l ≡ r (mod 2^bits)` holds for all leaf values.
    Equal,
    /// Candidate leaf assignment under which the sides may differ
    /// (must be confirmed by replay): `(var leaves, fb leaves)` keyed by
    /// `(index, lag)`.
    Candidate(HashMap<(u32, u32), i64>, HashMap<(u32, u32), i64>),
    /// Budget exhausted.
    Unknown,
}

struct Blaster<'a> {
    store: &'a TermStore,
    sat: Solver,
    tlit: i32,
    memo: HashMap<TermId, Bits>,
    gate_memo: HashMap<(u8, i32, i32), i32>,
}

impl<'a> Blaster<'a> {
    fn new(store: &'a TermStore) -> Self {
        let mut sat = Solver::new();
        let tlit = sat.new_var();
        sat.add_clause(&[tlit]);
        Blaster {
            store,
            sat,
            tlit,
            memo: HashMap::new(),
            gate_memo: HashMap::new(),
        }
    }

    fn tru(&self) -> i32 {
        self.tlit
    }
    fn fls(&self) -> i32 {
        -self.tlit
    }

    fn const_bits(&self, v: i64) -> Bits {
        let mut out = [self.fls(); W];
        for (i, o) in out.iter_mut().enumerate() {
            if (v >> i) & 1 != 0 {
                *o = self.tru();
            }
        }
        out
    }

    fn is_t(&self, l: i32) -> bool {
        l == self.tlit
    }
    fn is_f(&self, l: i32) -> bool {
        l == -self.tlit
    }

    fn and2(&mut self, a: i32, b: i32) -> i32 {
        if self.is_f(a) || self.is_f(b) {
            return self.fls();
        }
        if self.is_t(a) {
            return b;
        }
        if self.is_t(b) || a == b {
            return a;
        }
        if a == -b {
            return self.fls();
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if let Some(&o) = self.gate_memo.get(&(0, a, b)) {
            return o;
        }
        let o = self.sat.new_var();
        self.sat.add_clause(&[-o, a]);
        self.sat.add_clause(&[-o, b]);
        self.sat.add_clause(&[o, -a, -b]);
        self.gate_memo.insert((0, a, b), o);
        o
    }

    fn or2(&mut self, a: i32, b: i32) -> i32 {
        let na = -a;
        let nb = -b;
        let n = self.and2(na, nb);
        -n
    }

    fn xor2(&mut self, a: i32, b: i32) -> i32 {
        if self.is_f(a) {
            return b;
        }
        if self.is_f(b) {
            return a;
        }
        if self.is_t(a) {
            return -b;
        }
        if self.is_t(b) {
            return -a;
        }
        if a == b {
            return self.fls();
        }
        if a == -b {
            return self.tru();
        }
        // Canonicalize on variable order and positive polarity of `a`.
        let (mut a, mut b) = if a.abs() < b.abs() { (a, b) } else { (b, a) };
        let mut flip = false;
        if a < 0 {
            a = -a;
            flip = !flip;
        }
        if b < 0 {
            b = -b;
            flip = !flip;
        }
        let o = if let Some(&o) = self.gate_memo.get(&(1, a, b)) {
            o
        } else {
            let o = self.sat.new_var();
            self.sat.add_clause(&[-o, a, b]);
            self.sat.add_clause(&[-o, -a, -b]);
            self.sat.add_clause(&[o, -a, b]);
            self.sat.add_clause(&[o, a, -b]);
            self.gate_memo.insert((1, a, b), o);
            o
        };
        if flip {
            -o
        } else {
            o
        }
    }

    fn mux1(&mut self, c: i32, t: i32, e: i32) -> i32 {
        if self.is_t(c) {
            return t;
        }
        if self.is_f(c) {
            return e;
        }
        if t == e {
            return t;
        }
        let a = self.and2(c, t);
        let nc = -c;
        let b = self.and2(nc, e);
        self.or2(a, b)
    }

    fn maj3(&mut self, a: i32, b: i32, c: i32) -> i32 {
        let ab = self.and2(a, b);
        let ac = self.and2(a, c);
        let bc = self.and2(b, c);
        let t = self.or2(ab, ac);
        self.or2(t, bc)
    }

    fn add_bits(&mut self, a: Bits, b: Bits, carry_in: i32) -> Bits {
        let mut out = [self.fls(); W];
        let mut c = carry_in;
        for i in 0..W {
            let axb = self.xor2(a[i], b[i]);
            out[i] = self.xor2(axb, c);
            if i + 1 < W {
                c = self.maj3(a[i], b[i], c);
            }
        }
        out
    }

    fn neg_bits(&mut self, a: Bits) -> Bits {
        let mut na = a;
        for l in na.iter_mut() {
            *l = -*l;
        }
        let one = self.const_bits(1);
        let f = self.fls();
        self.add_bits(na, one, f)
    }

    fn shl_const(&self, a: Bits, k: u32) -> Bits {
        let mut out = [self.fls(); W];
        for i in (k as usize).min(W)..W {
            out[i] = a[i - k as usize];
        }
        out
    }

    fn mul_const(&mut self, a: Bits, c: i64) -> Bits {
        let mut acc = self.const_bits(0);
        let uc = c as u64;
        for k in 0..W {
            if (uc >> k) & 1 != 0 {
                let sh = self.shl_const(a, k as u32);
                let f = self.fls();
                acc = self.add_bits(acc, sh, f);
            }
        }
        acc
    }

    fn or_reduce(&mut self, a: &[i32]) -> i32 {
        let mut acc = self.fls();
        for &l in a {
            acc = self.or2(acc, l);
        }
        acc
    }

    /// Unsigned less-than over full vectors (LSB-to-MSB chain).
    fn ult(&mut self, a: Bits, b: Bits) -> i32 {
        let mut lt = self.fls();
        for i in 0..W {
            let na = -a[i];
            let bit_lt = self.and2(na, b[i]);
            let eq = self.xor2(a[i], b[i]);
            let neq = eq;
            let keep = self.and2(-neq, lt);
            lt = self.or2(bit_lt, keep);
        }
        lt
    }

    /// Signed less-than: flip the sign bits, compare unsigned.
    fn slt(&mut self, a: Bits, b: Bits) -> i32 {
        let mut fa = a;
        let mut fb = b;
        fa[W - 1] = -fa[W - 1];
        fb[W - 1] = -fb[W - 1];
        self.ult(fa, fb)
    }

    fn eq_bits(&mut self, a: Bits, b: Bits) -> i32 {
        let mut acc = self.tru();
        for i in 0..W {
            let x = self.xor2(a[i], b[i]);
            acc = self.and2(acc, -x);
        }
        acc
    }

    fn bit0(&self, l: i32) -> Bits {
        let mut out = [self.fls(); W];
        out[0] = l;
        out
    }

    fn fresh_vec(&mut self, bits: u8, signed: bool) -> Bits {
        let b = (bits.max(1) as usize).min(W);
        let mut out = [self.fls(); W];
        for o in out.iter_mut().take(b) {
            *o = self.sat.new_var();
        }
        let ext = if signed { out[b - 1] } else { self.fls() };
        for o in out.iter_mut().skip(b) {
            *o = ext;
        }
        out
    }

    fn wrap_bits(&self, a: Bits, bits: u8, signed: bool) -> Bits {
        let b = (bits.max(1) as usize).min(W);
        if b == W {
            return a;
        }
        let mut out = a;
        let ext = if signed { a[b - 1] } else { self.fls() };
        for o in out.iter_mut().skip(b) {
            *o = ext;
        }
        out
    }

    fn blast(&mut self, t: TermId) -> Bits {
        if let Some(&b) = self.memo.get(&t) {
            return b;
        }
        let out = match self.store.term(t).clone() {
            Term::Const(v) => self.const_bits(v),
            // Raw argument word: 64 free bits.
            Term::Var { .. } => self.fresh_vec(64, false),
            Term::FbVar { slot, .. } => {
                let ty = self
                    .store
                    .fb_tys
                    .get(slot as usize)
                    .copied()
                    .unwrap_or(roccc_cparse::types::IntType::signed(64));
                self.fresh_vec(ty.bits, ty.signed)
            }
            Term::Wrap { bits, signed, arg } => {
                let a = self.blast(arg);
                self.wrap_bits(a, bits, signed)
            }
            Term::Op { op, args } => self.blast_op(op, &args),
        };
        self.memo.insert(t, out);
        out
    }

    fn blast_op(&mut self, op: TOp, args: &[TermId]) -> Bits {
        match op {
            TOp::Add => {
                let mut acc = self.blast(args[0]);
                for &a in &args[1..] {
                    let b = self.blast(a);
                    let f = self.fls();
                    acc = self.add_bits(acc, b, f);
                }
                acc
            }
            TOp::Mul => {
                // Constant coefficient (canonically first) → shift-adds;
                // a residual variable product is uninterpreted.
                let consts: Vec<i64> = args
                    .iter()
                    .filter_map(|&a| match self.store.term(a) {
                        Term::Const(v) => Some(*v),
                        _ => None,
                    })
                    .collect();
                let vars: Vec<TermId> = args
                    .iter()
                    .filter(|&&a| !matches!(self.store.term(a), Term::Const(_)))
                    .copied()
                    .collect();
                let core = match vars.len() {
                    0 => {
                        let p = consts.iter().fold(1i64, |a, &b| a.wrapping_mul(b));
                        self.const_bits(p)
                    }
                    1 => self.blast(vars[0]),
                    _ => self.fresh_vec(64, false), // uninterpreted product
                };
                let k: i64 = consts.iter().fold(1i64, |a, &b| a.wrapping_mul(b));
                if k == 1 {
                    core
                } else {
                    self.mul_const(core, k)
                }
            }
            TOp::And | TOp::Or | TOp::Xor => {
                let mut acc = self.blast(args[0]);
                for &a in &args[1..] {
                    let b = self.blast(a);
                    for i in 0..W {
                        acc[i] = match op {
                            TOp::And => self.and2(acc[i], b[i]),
                            TOp::Or => self.or2(acc[i], b[i]),
                            _ => self.xor2(acc[i], b[i]),
                        };
                    }
                }
                acc
            }
            TOp::Neg => {
                let a = self.blast(args[0]);
                self.neg_bits(a)
            }
            TOp::Not => {
                let mut a = self.blast(args[0]);
                for l in a.iter_mut() {
                    *l = -*l;
                }
                a
            }
            TOp::Bool => {
                let a = self.blast(args[0]);
                let nz = self.or_reduce(&a);
                self.bit0(nz)
            }
            TOp::ShAmt => {
                let a = self.blast(args[0]);
                let neg = a[W - 1];
                let big = self.or_reduce(&a[6..W - 1]);
                let mut out = [self.fls(); W];
                for i in 0..6 {
                    let t = self.tru();
                    let in_range = self.mux1(big, t, a[i]);
                    let f = self.fls();
                    out[i] = self.mux1(neg, f, in_range);
                }
                out
            }
            TOp::Shr => {
                if let Term::Const(k) = *self.store.term(args[1]) {
                    let a = self.blast(args[0]);
                    let k = k.clamp(0, MAX_SHIFT) as usize;
                    let mut out = [self.fls(); W];
                    for i in 0..W {
                        out[i] = a[(i + k).min(W - 1)];
                    }
                    out
                } else {
                    self.fresh_vec(64, false) // uninterpreted dynamic shift
                }
            }
            TOp::Shl | TOp::Div | TOp::Rem | TOp::Lut(_) => {
                // Uninterpreted; hash-consing already shares equal terms.
                self.fresh_vec(64, false)
            }
            TOp::Slt => {
                let a = self.blast(args[0]);
                let b = self.blast(args[1]);
                let l = self.slt(a, b);
                self.bit0(l)
            }
            TOp::Sle => {
                let a = self.blast(args[0]);
                let b = self.blast(args[1]);
                let gt = self.slt(b, a);
                self.bit0(-gt)
            }
            TOp::Seq => {
                let a = self.blast(args[0]);
                let b = self.blast(args[1]);
                let e = self.eq_bits(a, b);
                self.bit0(e)
            }
            TOp::Sne => {
                let a = self.blast(args[0]);
                let b = self.blast(args[1]);
                let e = self.eq_bits(a, b);
                self.bit0(-e)
            }
            TOp::Mux => {
                let c = self.blast(args[0]);
                let t = self.blast(args[1]);
                let e = self.blast(args[2]);
                let nz = self.or_reduce(&c);
                let mut out = [self.fls(); W];
                for i in 0..W {
                    out[i] = self.mux1(nz, t[i], e[i]);
                }
                out
            }
        }
    }

    fn leaf_value(&self, bits: Bits) -> i64 {
        let mut v: u64 = 0;
        for (i, &l) in bits.iter().enumerate() {
            if self.sat.value(l) {
                v |= 1 << i;
            }
        }
        v as i64
    }
}

/// Checks `l ≡ r (mod 2^bits)` with the SAT fallback. Returns the outcome
/// and `(stats, vars, clauses)`.
pub fn sat_equal(
    store: &TermStore,
    l: TermId,
    r: TermId,
    bits: u8,
    conflict_budget: u64,
) -> (SatOutcome, SatStats, usize, usize) {
    let mut bl = Blaster::new(store);
    let lb = bl.blast(l);
    let rb = bl.blast(r);
    let n = (bits.max(1) as usize).min(W);
    let mut diff = Vec::with_capacity(n);
    for i in 0..n {
        diff.push(bl.xor2(lb[i], rb[i]));
    }
    bl.sat.add_clause(&diff);
    let res = bl.sat.solve(conflict_budget);
    let vars = bl.sat.num_vars();
    let clauses = bl.sat.num_clauses();
    let stats = bl.sat.stats;
    let outcome = match res {
        SolveResult::Unsat => SatOutcome::Equal,
        SolveResult::Unknown => SatOutcome::Unknown,
        SolveResult::Sat => {
            let mut vars_out = HashMap::new();
            let mut fbs_out = HashMap::new();
            for (&t, &b) in &bl.memo {
                match store.term(t) {
                    Term::Var { port, lag } => {
                        vars_out.insert((*port, *lag), bl.leaf_value(b));
                    }
                    Term::FbVar { slot, lag } => {
                        fbs_out.insert((*slot, *lag), bl.leaf_value(b));
                    }
                    _ => {}
                }
            }
            SatOutcome::Candidate(vars_out, fbs_out)
        }
    };
    (outcome, stats, vars, clauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::types::IntType;

    fn store() -> TermStore {
        TermStore::new(vec![IntType::int(), IntType::int()], vec![])
    }

    #[test]
    fn masked_add_equivalence_proved() {
        // (a + b) & 0xFF  ≡  (b + a) mod 2^8 — different term shapes on
        // purpose: build one side without the smart constructors.
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let raw_sum = s.mk(Term::Op {
            op: TOp::Add,
            args: vec![a, b],
        });
        let mask = s.cst(0xFF);
        let l = s.mk(Term::Op {
            op: TOp::And,
            args: vec![raw_sum, mask],
        });
        let r = s.mk(Term::Op {
            op: TOp::Add,
            args: vec![b, a],
        });
        let (out, ..) = sat_equal(&s, l, r, 8, 100_000);
        assert!(matches!(out, SatOutcome::Equal));
    }

    #[test]
    fn off_by_one_refuted_with_model() {
        let mut s = store();
        let a = s.var(0, 0);
        let one = s.cst(1);
        let l = s.add(vec![a, one]);
        let (out, ..) = sat_equal(&s, l, a, 16, 100_000);
        let SatOutcome::Candidate(vars, _) = out else {
            panic!("expected a counterexample candidate");
        };
        let av = vars.get(&(0, 0)).copied().unwrap_or(0);
        // The model must actually distinguish the sides at 16 bits.
        let w = IntType::signed(16);
        assert_ne!(w.wrap(av.wrapping_add(1)), w.wrap(av));
    }

    #[test]
    fn negation_identity_proved() {
        // -(-a) ≡ a at full width, via raw nodes.
        let mut s = store();
        let a = s.var(0, 0);
        let n1 = s.mk(Term::Op {
            op: TOp::Neg,
            args: vec![a],
        });
        let n2 = s.mk(Term::Op {
            op: TOp::Neg,
            args: vec![n1],
        });
        let (out, ..) = sat_equal(&s, n2, a, 64, 200_000);
        assert!(matches!(out, SatOutcome::Equal));
    }

    #[test]
    fn signed_compare_blasts_correctly() {
        // (a < b) is refutable and the model satisfies the claimed order.
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let l = s.mk(Term::Op {
            op: TOp::Slt,
            args: vec![a, b],
        });
        let one = s.cst(1);
        let (out, ..) = sat_equal(&s, l, one, 1, 100_000);
        let SatOutcome::Candidate(vars, _) = out else {
            panic!("expected candidate: a<b is not always true");
        };
        let av = vars.get(&(0, 0)).copied().unwrap_or(0);
        let bv = vars.get(&(1, 0)).copied().unwrap_or(0);
        assert!(av >= bv, "model must violate a<b, got {av} < {bv}");
    }
}
