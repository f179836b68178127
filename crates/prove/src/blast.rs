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
//!
//! Term images are memoized densely (a per-[`TermId`] index into one
//! vector of images) and gates through Fx-hashed tables keyed by their
//! canonical input literals, so equal gates share one output variable.
//! Gates are recorded in creation order and turned into clauses only when
//! a search needs them: when gate hashing folds the whole difference to
//! constant false, the difference clause is empty and the CNF is
//! unsatisfiable as written, so it is never built (its size is still
//! reported, as each gate's fixed clause count).

use roccc_cparse::ops::MAX_SHIFT;

use crate::fx::FxHashMap;
use crate::sat::{SatStats, SolveResult, Solver};
use crate::term::{TOp, Term, TermId, TermStore};

const W: usize = 64;
type Bits = [i32; W];

/// Outcome of a SAT equality check.
pub enum SatOutcome {
    /// `l ≡ r (mod 2^bits)` holds for all leaf values.
    Equal,
    /// Candidate leaf assignment under which the sides may differ
    /// (must be confirmed by replay): `(var leaves, fb leaves)` as
    /// `((index, lag), value)`, in ascending term-id order.
    Candidate(Vec<((u32, u32), i64)>, Vec<((u32, u32), i64)>),
    /// Budget exhausted.
    Unknown,
}

/// Marker in [`Blaster::memo`] for a term not blasted yet.
const UNBLASTED: u32 = u32::MAX;

/// A gate's canonical input pair as one table key.
fn gate_key(a: i32, b: i32) -> u64 {
    ((a as u32 as u64) << 32) | b as u32 as u64
}

/// A Tseitin gate `(output, a, b)` over canonical input literals.
#[derive(Debug, Clone, Copy)]
enum Gate {
    /// `output = a ∧ b`: three clauses.
    And(i32, i32, i32),
    /// `output = a ⊕ b`: four clauses.
    Xor(i32, i32, i32),
}

impl Gate {
    /// Clauses the solver stores for this gate. Gate inputs are never
    /// constants (the constructors fold those) and the output is fresh, so
    /// no clause is satisfied, tautological or shortened at level 0.
    fn clause_count(self) -> usize {
        match self {
            Gate::And(..) => 3,
            Gate::Xor(..) => 4,
        }
    }
}

struct Blaster<'a> {
    store: &'a TermStore,
    sat: Solver,
    tlit: i32,
    /// `memo[t]` indexes `images`, or is [`UNBLASTED`].
    memo: Vec<u32>,
    images: Vec<Bits>,
    and_memo: FxHashMap<u64, i32>,
    xor_memo: FxHashMap<u64, i32>,
    /// Gates not yet emitted as clauses, in creation order.
    gates: Vec<Gate>,
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
            memo: vec![UNBLASTED; store.len()],
            images: Vec::new(),
            and_memo: FxHashMap::default(),
            xor_memo: FxHashMap::default(),
            gates: Vec::new(),
        }
    }

    /// Adds the clauses of every recorded gate, in creation order.
    fn emit_gates(&mut self) {
        for g in std::mem::take(&mut self.gates) {
            match g {
                Gate::And(o, a, b) => {
                    self.sat.add_clause(&[-o, a]);
                    self.sat.add_clause(&[-o, b]);
                    self.sat.add_clause(&[o, -a, -b]);
                }
                Gate::Xor(o, a, b) => {
                    self.sat.add_clause(&[-o, a, b]);
                    self.sat.add_clause(&[-o, -a, -b]);
                    self.sat.add_clause(&[o, -a, b]);
                    self.sat.add_clause(&[o, a, -b]);
                }
            }
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
        *self.and_memo.entry(gate_key(a, b)).or_insert_with(|| {
            let o = self.sat.new_var();
            self.gates.push(Gate::And(o, a, b));
            o
        })
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
        let o = *self.xor_memo.entry(gate_key(a, b)).or_insert_with(|| {
            let o = self.sat.new_var();
            self.gates.push(Gate::Xor(o, a, b));
            o
        });
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
        let slot = self.memo[t as usize];
        if slot != UNBLASTED {
            return self.images[slot as usize];
        }
        let store = self.store;
        let out = match store.term(t) {
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
            Term::Op { op, args } => self.blast_op(op, args),
        };
        self.memo[t as usize] = self.images.len() as u32;
        self.images.push(out);
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
                        Term::Const(v) => Some(v),
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
                if let Term::Const(k) = self.store.term(args[1]) {
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
    let vars = bl.sat.num_vars();
    let (res, stats, clauses) = if diff.iter().all(|&d| d == bl.fls()) {
        // The difference folded to constant false: the difference clause
        // is empty, which is what `solve` would answer UNSAT on before any
        // search.
        let clauses = bl.gates.iter().map(|g| g.clause_count()).sum();
        if cfg!(debug_assertions) {
            bl.emit_gates();
            assert_eq!(bl.sat.num_clauses(), clauses, "gate clause count");
        }
        (SolveResult::Unsat, SatStats::default(), clauses)
    } else {
        bl.emit_gates();
        bl.sat.add_clause(&diff);
        let res = bl.sat.solve(conflict_budget);
        (res, bl.sat.stats, bl.sat.num_clauses())
    };
    let outcome = match res {
        SolveResult::Unsat => SatOutcome::Equal,
        SolveResult::Unknown => SatOutcome::Unknown,
        SolveResult::Sat => {
            let mut vars_out = Vec::new();
            let mut fbs_out = Vec::new();
            for (t, &slot) in bl.memo.iter().enumerate() {
                if slot == UNBLASTED {
                    continue;
                }
                let value = bl.leaf_value(bl.images[slot as usize]);
                match store.term(t as TermId) {
                    Term::Var { port, lag } => vars_out.push(((port, lag), value)),
                    Term::FbVar { slot, lag } => fbs_out.push(((slot, lag), value)),
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

    fn leaf(model: &[((u32, u32), i64)], key: (u32, u32)) -> i64 {
        model
            .iter()
            .find(|&&(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
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
            args: &[a, b],
        });
        let mask = s.cst(0xFF);
        let l = s.mk(Term::Op {
            op: TOp::And,
            args: &[raw_sum, mask],
        });
        let r = s.mk(Term::Op {
            op: TOp::Add,
            args: &[b, a],
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
        let av = leaf(&vars, (0, 0));
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
            args: &[a],
        });
        let n2 = s.mk(Term::Op {
            op: TOp::Neg,
            args: &[n1],
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
            args: &[a, b],
        });
        let one = s.cst(1);
        let (out, ..) = sat_equal(&s, l, one, 1, 100_000);
        let SatOutcome::Candidate(vars, _) = out else {
            panic!("expected candidate: a<b is not always true");
        };
        let av = leaf(&vars, (0, 0));
        let bv = leaf(&vars, (1, 0));
        assert!(av >= bv, "model must violate a<b, got {av} < {bv}");
    }
}
