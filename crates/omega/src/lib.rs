//! # padfa-omega
//!
//! Integer linear inequality systems used to represent array regions in
//! the predicated array data-flow analysis of Moon & Hall (PPoPP 1999).
//!
//! The SUIF compiler summarizes the set of array elements accessed by a
//! program region as a union of convex polyhedra described by systems of
//! integer linear inequalities over subscript positions, loop index
//! variables, and symbolic program variables. This crate provides that
//! substrate:
//!
//! * [`Var`] — variable names, numbered per program ([`VarTable`]),
//! * [`LinExpr`] — linear expressions `c0 + c1*v1 + ... + ck*vk`,
//! * [`Constraint`] — `expr == 0` or `expr >= 0`,
//! * [`System`] — a conjunction of constraints (one convex set),
//! * [`Disjunction`] — a union of systems (one array region),
//!
//! together with the operations array data-flow analysis needs:
//! Fourier–Motzkin projection with integer tightening and exactness
//! tracking, emptiness (in closed form for [`difference`]-bound systems,
//! by elimination otherwise), subset, intersection, union with
//! subsumption pruning, and set subtraction.
//!
//! ## Exactness
//!
//! Some operations (projection of a variable with non-unit coefficients,
//! capped subtraction) can only over-approximate the true integer set.
//! Such results carry `exact = false`. Consumers that need
//! under-approximations (must-write regions) must discard inexact parts;
//! consumers that need over-approximations (may-read, exposed-read
//! regions) may keep them. The analysis layer in `padfa-core` enforces
//! this direction discipline.
//!
//! ## Example
//!
//! The region written by `a[i] = ...` inside `for i = 1 to n` is
//! `{ d == i, 1 <= i <= n }`; projecting the loop index out yields the
//! loop-level summary `{ 1 <= d <= n }`:
//!
//! ```
//! use padfa_omega::{Constraint, LinExpr, Limits, System, Var};
//!
//! let (d, i, n) = (Var::new("d"), Var::new("i"), Var::new("n"));
//! let per_iteration = System::from_constraints([
//!     Constraint::eq(LinExpr::var(d), LinExpr::var(i)),
//!     Constraint::geq(LinExpr::var(i), LinExpr::constant(1)),
//!     Constraint::leq(LinExpr::var(i), LinExpr::var(n)),
//! ]);
//! let loop_level = per_iteration.project_out(&[i], Limits::default());
//! assert!(loop_level.exact);
//! // d = 1 is in the region whenever n >= 1.
//! let env = |v: Var| if v == d { Some(1) } else if v == n { Some(4) } else { None };
//! assert_eq!(loop_level.system.contains(&env), Some(true));
//! ```

pub mod constraint;
pub mod difference;
pub mod disjunction;
pub mod fx;
pub mod linexpr;
pub mod sync;
pub mod system;
pub mod var;

pub use constraint::{CKind, Constraint, Norm};
pub use difference::Tier;
pub use disjunction::Disjunction;
pub use linexpr::LinExpr;
pub use system::{Projection, System};
pub use var::{Derived, Var, VarTable};

/// Bounds on combinatorial growth inside set operations.
///
/// Fourier–Motzkin elimination and repeated subtraction can blow up; the
/// limits make every operation total by falling back to a conservative
/// (inexact) answer once exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of constraints a single [`System`] may reach during
    /// elimination before the operation gives up.
    pub max_constraints: usize,
    /// Maximum number of disjuncts a [`Disjunction`] may reach during
    /// subtraction / intersection before the operation gives up.
    pub max_disjuncts: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_constraints: 128,
            max_disjuncts: 32,
        }
    }
}

/// Per-thread monotone counter of [`Limits`] overflow events: every
/// time an operation hits a cap and degrades to a truncated (inexact)
/// answer, the calling thread's counter is bumped. Operations take no
/// session handle, so the counter lives in a thread-local; an analysis
/// session runs on one thread from creation to snapshot, so a consumer
/// reads [`thread_overflows`] before and after a stretch of work and
/// reports the difference. That attributes every cap-hit exactly — to
/// a session, or to one loop's classification inside it — no matter
/// how many other threads are running other sessions.
///
/// [`thread_overflows`]: limit_stats::thread_overflows
pub mod limit_stats {
    use std::cell::Cell;

    thread_local! {
        static THREAD_OVERFLOWS: Cell<u64> = const { Cell::new(0) };
    }

    /// Record one cap-hit (truncated elimination, disjunct-cap fallback).
    #[inline]
    pub fn note_overflow() {
        THREAD_OVERFLOWS.with(|c| c.set(c.get() + 1));
    }

    /// Overflow events recorded by the calling thread since it started.
    #[inline]
    pub fn thread_overflows() -> u64 {
        THREAD_OVERFLOWS.with(|c| c.get())
    }
}

/// Greatest common divisor of two non-negative numbers (`gcd(0, n) = n`).
#[inline]
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Floor division: largest `q` with `q * d <= n` (`d > 0`).
#[inline]
pub(crate) fn div_floor(n: i64, d: i64) -> i64 {
    debug_assert!(d > 0);
    let q = n / d;
    if n % d != 0 && n < 0 {
        q - 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
    }

    #[test]
    fn div_floor_basics() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(-8, 2), -4);
        assert_eq!(div_floor(0, 3), 0);
    }
}
