//! # padfa-ir
//!
//! The program representation consumed by the predicated array data-flow
//! analysis: a mini-Fortran abstract syntax tree that doubles as the
//! hierarchical *region graph* of the SUIF framework (Hall et al.): a
//! program region is a basic block, an `if`, a loop body, a loop, a
//! procedure call, or a procedure body — all of which appear directly as
//! nested [`ast::Stmt`] / [`ast::Block`] structure here.
//!
//! The crate provides:
//!
//! * [`ast`] — expressions, statements, procedures, programs;
//! * [`parse`] — a lexer + recursive-descent parser for the textual
//!   mini-Fortran surface syntax (see crate examples);
//! * [`affine`] — extraction of linear expressions over loop indices and
//!   symbolic variables, the bridge into `padfa-omega`;
//! * [`pretty`] — a round-trippable pretty printer;
//! * [`visit`] — traversal helpers (loop enumeration, nesting);
//! * [`testgen`] — the seeded random programs the differential tests run.
//!
//! ## Surface syntax
//!
//! ```text
//! proc smooth(n: int, a: array[100]) {
//!   var t: real;
//!   for@L1 i = 2 to n {
//!     a[i] = a[i-1] * 0.5;
//!   }
//! }
//! ```
//!
//! ```
//! let src = "proc p(n: int, a: array[100]) { for i = 1 to n { a[i] = 0.0; } }";
//! let prog = padfa_ir::parse::parse_program(src).unwrap();
//! assert_eq!(prog.procedures.len(), 1);
//! assert_eq!(padfa_ir::visit::count_loops(&prog), 1);
//! ```

pub mod affine;
pub mod ast;
// The parser is the input boundary: every malformed program must come
// back as a spanned `ParseError`, never a panic.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod parse;
pub mod pretty;
pub mod testgen;
pub mod visit;

pub use ast::{
    ArrayDecl, Block, BoolExpr, CmpOp, Expr, Intrinsic, LValue, Loop, LoopId, Param, ParamTy,
    Procedure, Program, ScalarTy, Stmt,
};
pub use padfa_omega::Var;
