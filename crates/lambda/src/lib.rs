//! # dc-lambda
//!
//! The typed λ-calculus substrate underlying DreamCoder-rs (a reproduction
//! of *DreamCoder: Bootstrapping Inductive Program Synthesis with Wake-Sleep
//! Library Learning*, PLDI 2021).
//!
//! This crate provides:
//!
//! * [`expr::Expr`] — de Bruijn λ-terms with primitives and *invented*
//!   library routines, plus parsing/printing, shifting, substitution and
//!   β-reduction;
//! * [`types::Type`] / [`types::Context`] — Hindley–Milner polymorphic
//!   types and unification;
//! * [`eval::EvalCtx`] — a fuel-limited call-by-value evaluator with
//!   higher-order primitives and the `fix` combinator;
//! * [`primitives`] — the paper's base languages (list, text, 1959-Lisp).
//!
//! # Example
//!
//! ```
//! use dc_lambda::expr::Expr;
//! use dc_lambda::eval::{run_program, Value};
//! use dc_lambda::primitives::base_primitives;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prims = base_primitives();
//! let double_all = Expr::parse("(lambda (map (lambda (+ $0 $0)) $0))", &prims)?;
//! let input = Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
//! let output = run_program(&double_all, &[input], 10_000)?;
//! assert_eq!(output, Value::list(vec![Value::Int(2), Value::Int(4), Value::Int(6)]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod eval;
pub mod expr;
pub mod pretty;
pub mod primitives;
pub mod types;

/// The one recursion bound for programs: [`Expr::parse`] rejects a program
/// nested deeper than this, and the evaluator stops a run whose native
/// recursion reaches it with [`EvalError::FuelExhausted`].
///
/// Every thread in the workspace runs on the platform's default stack, so
/// this constant is what keeps deep input and runaway `fix` recursion from
/// overflowing one. Successful evaluations on every benchmark workload stay
/// under depth 10, and the deepest evaluator shape needs well under 1 MiB
/// of stack at this bound in an unoptimized build (DESIGN.md § Stack
/// contract).
pub const MAX_DEPTH: usize = 256;

pub use error::{EvalError, ParseError};
pub use eval::{run_program, Env, EvalCtx, Value};
pub use expr::{Expr, Invented, Primitive, PrimitiveLookup, Semantics};
pub use pretty::pretty;
pub use primitives::{base_primitives, lisp_1959_primitives, text_primitives, PrimitiveSet};
pub use types::{Context, Type, UnificationError};
