//! Care-bits normalization.
//!
//! `normalize(store, t, care)` rebuilds `t` through the store's smart
//! constructors while tracking how many low bits of each subterm can
//! influence the observed result (`care`, 1..=64). Two guarantees:
//!
//! - **Soundness**: the normal form agrees with `t` modulo 2^care, so
//!   `normalize(l, b) == normalize(r, b)` implies `l ≡ r (mod 2^b)` and
//!   hence `Wrap_b(l) == Wrap_b(r)`.
//! - **Width-change absorption**: a `Wrap` to `b` bits disappears whenever
//!   only `care <= b` low bits are observed downstream — this is what closes
//!   the narrowing obligations introduced by `--range-narrow`, without
//!   needing the compiler's own range facts to be trusted.
//!
//! Care propagation: `Add`/`Mul`/bitwise/`Neg`/`Not` pass `care` through
//! (mod-2^care arithmetic is closed under them); `Shl` passes `care` to the
//! shifted value; `Shr` by a constant `k` widens the operand's context to
//! `care + k` (bits k..k+care are what's observed); an `And` with a constant
//! mask narrows the other operands to the mask's top set bit; comparisons,
//! divisions, dynamic shifts, mux conditions, shift amounts and LUT indices
//! are exact contexts (`care = 64`).
//! Constants are canonicalized to their sign-extended `care`-bit image, so
//! coefficients that vanish mod 2^care drop out of sums and products.

use std::collections::HashMap;

use roccc_cparse::ops::MAX_SHIFT;
use roccc_cparse::types::IntType;

use crate::term::{TOp, Term, TermId, TermStore};

/// Memo table for [`normalize`] — keyed by `(term, care)`.
pub type NormCache = HashMap<(TermId, u8), TermId>;

/// Normalizes `t` under `care` observed low bits (see module docs).
pub fn normalize(store: &mut TermStore, t: TermId, care: u8, cache: &mut NormCache) -> TermId {
    let care = care.min(64);
    if let Some(&r) = cache.get(&(t, care)) {
        return r;
    }
    let r = match store.term(t).clone() {
        Term::Var { .. } | Term::FbVar { .. } => t,
        Term::Const(v) => {
            if care < 64 {
                store.cst(IntType::signed(care.max(1)).wrap(v))
            } else {
                t
            }
        }
        Term::Wrap { bits, signed, arg } => {
            if bits >= care {
                // Only `care <= bits` low bits are observed, and the wrap
                // leaves them untouched: absorb it.
                store.steps += 1;
                normalize(store, arg, care, cache)
            } else {
                let inner = normalize(store, arg, bits, cache);
                let ty = if signed {
                    IntType::signed(bits)
                } else {
                    IntType::unsigned(bits)
                };
                store.wrap(ty, inner)
            }
        }
        Term::Op { op, args } => {
            let n = |s: &mut TermStore, c: &mut NormCache, a: TermId, k: u8| normalize(s, a, k, c);
            match op {
                TOp::Add => {
                    let na: Vec<TermId> = args.iter().map(|&a| n(store, cache, a, care)).collect();
                    store.add(na)
                }
                TOp::Mul => {
                    let na: Vec<TermId> = args.iter().map(|&a| n(store, cache, a, care)).collect();
                    store.mul(na)
                }
                TOp::And => {
                    // A constant mask zeroes every result bit above its top
                    // set bit, so the other operands only need that many low
                    // bits. The mask itself must stay exact — its zeros are
                    // load-bearing.
                    let window = if care < 64 { (1u64 << care) - 1 } else { !0 };
                    let mask = args
                        .iter()
                        .filter_map(|&a| match *store.term(a) {
                            Term::Const(v) => Some(v as u64),
                            _ => None,
                        })
                        .fold(!0u64, |m, v| m & v);
                    let need = (64 - (mask & window).leading_zeros()) as u8;
                    let care_x = care.min(need.max(1));
                    let na: Vec<TermId> = args
                        .iter()
                        .map(|&a| {
                            let k = if matches!(store.term(a), Term::Const(_)) {
                                care
                            } else {
                                care_x
                            };
                            n(store, cache, a, k)
                        })
                        .collect();
                    store.bitwise(op, na)
                }
                TOp::Or | TOp::Xor => {
                    let na: Vec<TermId> = args.iter().map(|&a| n(store, cache, a, care)).collect();
                    store.bitwise(op, na)
                }
                TOp::Neg => {
                    let a = n(store, cache, args[0], care);
                    store.neg(a)
                }
                TOp::Not => {
                    let a = n(store, cache, args[0], care);
                    store.not(a)
                }
                TOp::Bool => {
                    let a = n(store, cache, args[0], 64);
                    store.boolify(a)
                }
                TOp::ShAmt => {
                    let a = n(store, cache, args[0], 64);
                    store.sh_amt(a)
                }
                TOp::Shl => {
                    // Low `care` bits of `x << amt` depend only on the low
                    // `care` bits of `x` (left shifts move bits upward).
                    let x = n(store, cache, args[0], care);
                    let a = n(store, cache, args[1], 64);
                    store.shl(x, a)
                }
                TOp::Shr => {
                    // Low `care` bits of `x >> k` are bits k..k+care of
                    // `x`, so a constant amount narrows the operand's
                    // context to `care + k`; dynamic amounts stay exact.
                    let a = n(store, cache, args[1], 64);
                    let care_x = match *store.term(a) {
                        Term::Const(k) if (0..=MAX_SHIFT).contains(&k) => {
                            care.saturating_add(k as u8).min(64)
                        }
                        _ => 64,
                    };
                    let x = n(store, cache, args[0], care_x);
                    store.shr(x, a)
                }
                TOp::Div | TOp::Rem | TOp::Slt | TOp::Sle | TOp::Seq | TOp::Sne => {
                    let a = n(store, cache, args[0], 64);
                    let b = n(store, cache, args[1], 64);
                    store.op2(op, a, b)
                }
                TOp::Mux => {
                    let c = n(store, cache, args[0], 64);
                    let x = n(store, cache, args[1], care);
                    let y = n(store, cache, args[2], care);
                    store.mux(c, x, y)
                }
                TOp::Lut(tb) => {
                    let i = n(store, cache, args[0], 64);
                    store.lut(tb, i)
                }
            }
        }
    };
    cache.insert((t, care), r);
    r
}

/// Proves `l ≡ r (mod 2^bits)` by normalization alone.
pub fn equal_mod(
    store: &mut TermStore,
    l: TermId,
    r: TermId,
    bits: u8,
    cache: &mut NormCache,
) -> bool {
    normalize(store, l, bits, cache) == normalize(store, r, bits, cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TermStore {
        TermStore::new(vec![IntType::int(), IntType::int()], vec![])
    }

    #[test]
    fn wrap_absorbed_under_narrow_care() {
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let sum = s.add(vec![a, b]);
        // i32 wrap of (a + b), observed at 16 bits ≡ a + b at 16 bits.
        let wrapped = s.mk(Term::Wrap {
            bits: 32,
            signed: true,
            arg: sum,
        });
        let mut c = NormCache::new();
        assert!(equal_mod(&mut s, wrapped, sum, 16, &mut c));
        // ... but not at 64 bits (the wrap matters there).
        assert!(!equal_mod(&mut s, wrapped, sum, 64, &mut c));
    }

    #[test]
    fn coefficient_vanishes_mod_care() {
        let mut s = store();
        let a = s.var(0, 0);
        let b = s.var(1, 0);
        let c256 = s.cst(256);
        let m = s.mul(vec![c256, b]);
        let l = s.add(vec![a, m]);
        let mut c = NormCache::new();
        // At 8 observed bits the 256*b term contributes nothing.
        assert!(equal_mod(&mut s, l, a, 8, &mut c));
        assert!(!equal_mod(&mut s, l, a, 16, &mut c));
    }

    #[test]
    fn masked_constant_sign_extends() {
        let mut s = store();
        let a = s.var(0, 0);
        let mask = s.cst(0xFF);
        let masked = s.bitwise(TOp::And, vec![a, mask]);
        let mut c = NormCache::new();
        // At care 8, the 0xFF mask becomes -1 and drops.
        assert!(equal_mod(&mut s, masked, a, 8, &mut c));
    }

    #[test]
    fn shr_constant_widens_operand_context() {
        let mut s = store();
        let x = s.var(0, 0);
        let w = s.mk(Term::Wrap {
            bits: 24,
            signed: false,
            arg: x,
        });
        let k = s.cst(22);
        let l = s.shr(w, k);
        let r = s.shr(x, k);
        let mut c = NormCache::new();
        // Observed at 1 bit, only bits 22..23 of x matter — inside the 24.
        assert!(equal_mod(&mut s, l, r, 1, &mut c));
        assert!(!equal_mod(&mut s, l, r, 64, &mut c));
    }

    #[test]
    fn and_mask_narrows_other_operands() {
        let mut s = store();
        let x = s.var(0, 0);
        let w = s.mk(Term::Wrap {
            bits: 8,
            signed: false,
            arg: x,
        });
        let one = s.cst(1);
        let l = s.bitwise(TOp::And, vec![one, w]);
        let r = s.bitwise(TOp::And, vec![one, x]);
        let mut c = NormCache::new();
        // The mask keeps only bit 0, which the 8-bit wrap never touches.
        assert!(equal_mod(&mut s, l, r, 64, &mut c));
    }

    #[test]
    fn nested_wraps_collapse() {
        let mut s = store();
        let a = s.var(0, 0);
        let big = s.cst(1i64 << 40);
        let sum = s.add(vec![a, big]);
        let w32 = s.mk(Term::Wrap {
            bits: 32,
            signed: true,
            arg: sum,
        });
        let w16 = s.mk(Term::Wrap {
            bits: 16,
            signed: true,
            arg: w32,
        });
        let direct = s.mk(Term::Wrap {
            bits: 16,
            signed: true,
            arg: sum,
        });
        let mut c = NormCache::new();
        assert!(equal_mod(&mut s, w16, direct, 64, &mut c));
    }
}
