//! # roccc-cparse — the C front door of the ROCCC reproduction
//!
//! This crate implements the C subset accepted by the ROCCC compiler as
//! described in *"Optimized Generation of Data-path from C Codes for FPGAs"*
//! (DATE 2005): integer-only kernels with `for`/`while`/`if` control flow,
//! static arrays, out-pointer "multiple return values", and the ROCCC
//! intrinsics `ROCCC_load_prev`, `ROCCC_store2next` and `ROCCC_lut`.
//!
//! It provides four stages:
//!
//! 1. [`lexer::lex`] — tokenization;
//! 2. [`parser::parse`] — AST construction;
//! 3. [`sema::check`] — typing and ROCCC subset restrictions (no recursion,
//!    no pointer aliasing);
//! 4. [`interp::Interpreter`] — a golden-model interpreter with exact
//!    fixed-width wrap-around semantics, against which generated hardware is
//!    verified bit-for-bit.
//!
//! [`ops`] is the one definition of operator values, shared by the
//! interpreter and every executor downstream.
//!
//! ```
//! use roccc_cparse::{parser::parse, sema::check, interp::Interpreter};
//!
//! # fn main() -> Result<(), roccc_cparse::error::CError> {
//! let prog = parse("void f(int a, int* out) { *out = 3 * a + 1; }")?;
//! check(&prog)?;
//! let mut interp = Interpreter::new(&prog);
//! let result = interp.call("f", &[13], &mut Default::default())?;
//! assert_eq!(result.outputs["out"], 40);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod inline_vec;
pub mod intern;
pub mod interp;
pub mod lexer;
pub mod ops;
pub mod parser;
pub mod sema;
pub mod span;
pub mod token;
pub mod types;

pub use ast::Program;
pub use error::{CError, CResult};
pub use inline_vec::InlineVec;
pub use intern::Symbol;
pub use interp::{ExecOutcome, Interpreter};
pub use parser::parse;
pub use sema::check;
pub use types::{CType, IntType};

/// Parses and semantically checks `source` in one step.
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error.
///
/// ```
/// # fn main() -> Result<(), roccc_cparse::error::CError> {
/// let prog = roccc_cparse::frontend("int id(int x) { return x; }")?;
/// assert!(prog.function("id").is_some());
/// # Ok(())
/// # }
/// ```
pub fn frontend(source: &str) -> CResult<Program> {
    let program = parser::parse(source)?;
    sema::check(&program)?;
    Ok(program)
}
