//! Operator semantics: the one definition of what every operator computes.
//!
//! The golden interpreter, the HLIR and IR constant folders, the IR
//! machine, the three netlist simulators and the prover's concrete
//! evaluator all take operator values from the primitives below, directly
//! or through the two dispatchers built on them: [`BinOp::eval`] here and
//! `Opcode::eval` in `roccc-suifvm`. They differ only in what they do
//! with a [`Fault`]: software executors trap, hardware executors produce
//! a benign word (see DESIGN.md, "Operator semantics").
//!
//! Values ride in an `i64` carrier, 64-bit two's complement with
//! wrap-around; narrowing to a declared width is the caller's job
//! ([`crate::types::IntType::wrap`]). Shift amounts saturate at
//! [`MAX_SHIFT`]. `>>` shifts the carrier arithmetically: for signed types
//! that is C's arithmetic shift, and for unsigned types narrower than 64
//! bits the carrier is non-negative, so it equals the logical shift C
//! specifies.

use crate::ast::BinOp;
use std::fmt;

/// Largest shift amount; larger amounts saturate to it.
pub const MAX_SHIFT: i64 = 63;

/// An operand for which an operator has no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// `/` by zero.
    DivByZero,
    /// `%` by zero.
    RemByZero,
    /// `<<` or `>>` by a negative amount.
    NegativeShift,
    /// A lookup-table read at a negative index.
    NegativeLutIndex,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fault::DivByZero => "division by zero",
            Fault::RemByZero => "remainder by zero",
            Fault::NegativeShift => "negative shift amount",
            Fault::NegativeLutIndex => "negative LUT index",
        })
    }
}

impl std::error::Error for Fault {}

/// Wrapping `a + b`.
#[inline]
pub fn add(a: i64, b: i64) -> i64 {
    a.wrapping_add(b)
}

/// Wrapping `a - b`.
#[inline]
pub fn sub(a: i64, b: i64) -> i64 {
    a.wrapping_sub(b)
}

/// Wrapping `a * b`.
#[inline]
pub fn mul(a: i64, b: i64) -> i64 {
    a.wrapping_mul(b)
}

/// Truncating `a / b`; `i64::MIN / -1` wraps to `i64::MIN`.
#[inline]
pub fn div(a: i64, b: i64) -> Result<i64, Fault> {
    if b == 0 {
        Err(Fault::DivByZero)
    } else {
        Ok(a.wrapping_div(b))
    }
}

/// `a % b` with the sign of `a`; `i64::MIN % -1` is 0.
#[inline]
pub fn rem(a: i64, b: i64) -> Result<i64, Fault> {
    if b == 0 {
        Err(Fault::RemByZero)
    } else {
        Ok(a.wrapping_rem(b))
    }
}

/// The distance a shift by `b` moves bits: `b` saturated at
/// [`MAX_SHIFT`].
#[inline]
pub fn shift_amount(b: i64) -> Result<u32, Fault> {
    if b < 0 {
        Err(Fault::NegativeShift)
    } else {
        Ok(b.min(MAX_SHIFT) as u32)
    }
}

/// `a << b`; bits shifted past bit 63 are lost.
#[inline]
pub fn shl(a: i64, b: i64) -> Result<i64, Fault> {
    shift_amount(b).map(|k| a << k)
}

/// `a >> b`, arithmetic on the carrier.
#[inline]
pub fn shr(a: i64, b: i64) -> Result<i64, Fault> {
    shift_amount(b).map(|k| a >> k)
}

/// Wrapping `-a`.
#[inline]
pub fn neg(a: i64) -> i64 {
    a.wrapping_neg()
}

/// Bitwise `~a`.
#[inline]
pub fn not(a: i64) -> i64 {
    !a
}

/// Bitwise `a & b`.
#[inline]
pub fn and(a: i64, b: i64) -> i64 {
    a & b
}

/// Bitwise `a | b`.
#[inline]
pub fn or(a: i64, b: i64) -> i64 {
    a | b
}

/// Bitwise `a ^ b`.
#[inline]
pub fn xor(a: i64, b: i64) -> i64 {
    a ^ b
}

/// Signed `a < b` as 0/1.
#[inline]
pub fn lt(a: i64, b: i64) -> i64 {
    (a < b) as i64
}

/// Signed `a <= b` as 0/1.
#[inline]
pub fn le(a: i64, b: i64) -> i64 {
    (a <= b) as i64
}

/// `a == b` as 0/1.
#[inline]
pub fn eq(a: i64, b: i64) -> i64 {
    (a == b) as i64
}

/// `a != b` as 0/1.
#[inline]
pub fn ne(a: i64, b: i64) -> i64 {
    (a != b) as i64
}

/// C truth: 1 if `a` is non-zero, else 0.
#[inline]
pub fn truth(a: i64) -> i64 {
    (a != 0) as i64
}

/// `c ? t : e`.
#[inline]
pub fn select(c: i64, t: i64, e: i64) -> i64 {
    if c != 0 {
        t
    } else {
        e
    }
}

/// Reads `table[idx]`; indices past the end read 0 (a ROM's unused words).
#[inline]
pub fn lut(table: &[i64], idx: i64) -> Result<i64, Fault> {
    if idx < 0 {
        Err(Fault::NegativeLutIndex)
    } else {
        Ok(table.get(idx as usize).copied().unwrap_or(0))
    }
}

impl BinOp {
    /// The value of `l op r`. `&&` and `||` evaluate both operands here;
    /// short-circuiting is the caller's business.
    #[inline]
    pub fn eval(self, l: i64, r: i64) -> Result<i64, Fault> {
        Ok(match self {
            BinOp::Add => add(l, r),
            BinOp::Sub => sub(l, r),
            BinOp::Mul => mul(l, r),
            BinOp::Div => return div(l, r),
            BinOp::Rem => return rem(l, r),
            BinOp::Shl => return shl(l, r),
            BinOp::Shr => return shr(l, r),
            BinOp::Lt => lt(l, r),
            BinOp::Le => le(l, r),
            BinOp::Gt => lt(r, l),
            BinOp::Ge => le(r, l),
            BinOp::Eq => eq(l, r),
            BinOp::Ne => ne(l, r),
            BinOp::BitAnd => and(l, r),
            BinOp::BitXor => xor(l, r),
            BinOp::BitOr => or(l, r),
            BinOp::LogicalAnd => and(truth(l), truth(r)),
            BinOp::LogicalOr => or(truth(l), truth(r)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_messages_are_the_runtime_error_texts() {
        assert_eq!(Fault::DivByZero.to_string(), "division by zero");
        assert_eq!(Fault::RemByZero.to_string(), "remainder by zero");
        assert_eq!(Fault::NegativeShift.to_string(), "negative shift amount");
        assert_eq!(Fault::NegativeLutIndex.to_string(), "negative LUT index");
    }
}
