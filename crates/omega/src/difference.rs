//! Emptiness of difference-bound systems by shortest paths, on the stack.
//!
//! Dependence and privatization tests end in "is this conjunction
//! empty?", and nearly every conjunction they ask about is a
//! *difference-bound* system: each constraint is a unit bound
//! `±x + k ≥ 0` or a unit difference `x − y + k ≥ 0` / `== 0` — loop
//! bounds, the `i < i'` iteration order, `d == i + c` subscripts. Such a
//! system is a weighted graph (node 0 is the constant zero, `p − n + k ≥ 0`
//! is an edge `p → n` of weight `k`: "`n` is at most `p + k`") and it has
//! an integer solution exactly when the graph has no negative cycle, so
//! [`is_empty`] closes a small matrix instead of eliminating variables.
//!
//! ## Agreement with elimination
//!
//! The answer is the ground truth, and so is the cascade's
//! ([`System::is_empty_by_elimination`](crate::System::is_empty_by_elimination))
//! wherever this module answers. A difference system's matrix is totally
//! unimodular, so its polyhedron is integral: rational and integer
//! feasibility coincide. Fourier–Motzkin is complete over the rationals,
//! and every step it takes here is exact — a unit-equality substitution
//! or a pair of unit coefficients — and yields a difference system
//! again. `project_out` eliminates through equalities first, so the
//! size cap is only ever tested on an equality-free system over fewer
//! variables, which `simplify` holds to one constraint per variable part:
//! fewer than `(vars + 1)²`. Hence the fall-through on a tighter cap
//! below, and the constants: every constant either procedure forms is
//! the weight of a simple path, at most 9 edges.
//!
//! ## Fall-through
//!
//! `None` means "not decided here; eliminate", never "false": the first
//! constraint that is not a unit bound or a unit difference (a sum
//! `x + y`, a non-unit coefficient, three or more terms, a stride link
//! `v == s·w + c`), more than 8 variables, `limits.max_constraints` below
//! `(vars + 1)²`, or a constant beyond `i64::MAX / 16`.
//!
//! ## Asked before built
//!
//! The closure reads constraints and keeps none, so it does not need the
//! conjunction it is asked about to exist: [`is_empty_parts`] walks a
//! chain of borrowed lists — the two pieces of a pair test, both loop
//! contexts and the iteration order; a system and the negation of one
//! more constraint — and [`is_empty`] is its one-part call. The callers
//! that ask it first ([`System::is_empty_with`](crate::System::is_empty_with),
//! `Disjunction::subtract`, `core::deptest`) build the conjunction only
//! if it survives or the answer is `None`.
//!
//! [`Tier`] names which of the two answered; [`force_general`] is the
//! switch that sends everything to elimination.

use crate::var::PLACEHOLDER;
use crate::{CKind, Constraint, Limits, Var};
use std::sync::OnceLock;

/// Which representation tier answered a lattice query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Answered in closed form, without elimination: the difference-bound
    /// closure ([`is_empty`]).
    Dense,
    /// Answered by the general Fourier–Motzkin representation.
    General,
}

/// Kill switch for the closed form (`PADFA_FORCE_GENERAL_TIER=1`):
/// every query runs the general path and every answer is attributed
/// [`Tier::General`]. Output must be byte-identical either way — the
/// CLI test `forced_general_tier_changes_no_output_byte` spawns `padfa`
/// in both modes over the corpus and generated programs.
pub fn force_general() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("PADFA_FORCE_GENERAL_TIER").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Most variables a system may mention and still be decided here.
const MAX_VARS: usize = 8;

/// Largest constant magnitude decided here. While no negative cycle has
/// shown, a matrix entry is the weight of a simple path (at most
/// `NODES − 1` edges) and a relaxation adds two entries, so no sum
/// leaves `±16 · MAX_KONST` — and neither does elimination's.
const MAX_KONST: i64 = i64::MAX / 16;

/// The variables plus the zero node.
const NODES: usize = MAX_VARS + 1;

/// "No edge."
const INF: i64 = i64::MAX;

/// Exact integer emptiness of a normalized constraint list that is a
/// difference-bound system; `None` when it is not one (see the module
/// docs). Callers must not pass a contradiction system: its list is
/// empty and reads as the universe.
pub fn is_empty(constraints: &[Constraint], limits: Limits) -> Option<bool> {
    is_empty_parts(&[constraints], limits)
}

/// [`is_empty`] of the conjunction of several borrowed lists, read in
/// place: the caller that only wants to know whether `a ∧ b ∧ ctx ∧ c`
/// is empty asks before it builds the conjunction, and builds it only
/// if it survives. Each member must be normalized on its own (as
/// [`System::push`](crate::System::push) leaves it); the parts need not
/// be normalized against each other — duplicates and looser bounds are
/// edges that lose to a tighter one. Same decline rules as the
/// one-list call, over the concatenation.
pub fn is_empty_parts(parts: &[&[Constraint]], limits: Limits) -> Option<bool> {
    let mut vars = [PLACEHOLDER; MAX_VARS];
    let mut n = 1;
    let mut node = |v: Var| -> Option<usize> {
        if let Some(at) = vars[..n - 1].iter().position(|&u| u == v) {
            return Some(at + 1);
        }
        if n == NODES {
            return None;
        }
        vars[n - 1] = v;
        n += 1;
        Some(n - 1)
    };

    let mut d = [[INF; NODES]; NODES];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for c in parts.iter().copied().flatten() {
        let k = c.expr.konst();
        if !(-MAX_KONST..=MAX_KONST).contains(&k) {
            return None;
        }
        let mut terms = c.expr.terms();
        let (p, q) = match (terms.next(), terms.next(), terms.next()) {
            (Some((v, 1)), None, _) => (node(v)?, 0),
            (Some((v, -1)), None, _) => (0, node(v)?),
            (Some((u, 1)), Some((v, -1)), None) => (node(u)?, node(v)?),
            (Some((u, -1)), Some((v, 1)), None) => (node(v)?, node(u)?),
            _ => return None,
        };
        d[p][q] = d[p][q].min(k);
        if c.kind == CKind::Eq {
            d[q][p] = d[q][p].min(-k);
        }
    }
    if limits.max_constraints < n * n {
        return None;
    }

    // Floyd–Warshall over the nodes in use; a diagonal entry that drops
    // below its zero is a negative cycle. (Row `k` does not change in
    // round `k`: its own diagonal is zero.)
    for k in 0..n {
        let via = d[k];
        for (i, row) in d.iter_mut().enumerate().take(n) {
            let ik = row[k];
            if ik == INF {
                continue;
            }
            for (j, &kj) in via.iter().enumerate().take(n) {
                if kj != INF && ik + kj < row[j] {
                    if i == j {
                        return Some(true);
                    }
                    row[j] = ik + kj;
                }
            }
        }
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;

    fn lx(n: &str) -> LinExpr {
        LinExpr::var(Var::new(n))
    }
    fn k(c: i64) -> LinExpr {
        LinExpr::constant(c)
    }
    fn decide(cs: &[Constraint]) -> Option<bool> {
        is_empty(cs, Limits::default())
    }

    #[test]
    fn iteration_order_against_equal_subscripts_is_empty() {
        // d == i, d == i', i < i': the pair test of `a[i] = a[i]`.
        let cs = [
            Constraint::eq(lx("d"), lx("i")),
            Constraint::eq(lx("d"), lx("i'")),
            Constraint::lt(lx("i"), lx("i'")),
        ];
        assert_eq!(decide(&cs), Some(true));
        // d == i, d == i' + 1, i > i' has the solution i = i' + 1.
        let cs = [
            Constraint::eq(lx("d"), lx("i")),
            Constraint::eq(lx("d"), lx("i'") + k(1)),
            Constraint::gt(lx("i"), lx("i'")),
        ];
        assert_eq!(decide(&cs), Some(false));
    }

    #[test]
    fn plain_boxes_are_decided_through_the_zero_node() {
        let window = |lo, hi| {
            [
                Constraint::geq(lx("x"), k(lo)),
                Constraint::leq(lx("x"), k(hi)),
            ]
        };
        assert_eq!(decide(&window(1, 10)), Some(false));
        assert_eq!(decide(&window(3, 3)), Some(false));
        assert_eq!(decide(&window(5, 4)), Some(true));
        assert_eq!(decide(&[]), Some(false));
    }

    #[test]
    fn symbolic_bounds_chain_through_differences() {
        // i >= n, i <= m, m <= n - 1 is empty; without the last it is not.
        let open = [
            Constraint::geq(lx("i"), lx("n")),
            Constraint::leq(lx("i"), lx("m")),
        ];
        assert_eq!(decide(&open), Some(false));
        let [lower, upper] = open;
        let closed = [lower, upper, Constraint::leq(lx("m"), lx("n") - k(1))];
        assert_eq!(decide(&closed), Some(true));
    }

    #[test]
    fn other_shapes_are_not_decided() {
        assert_eq!(decide(&[Constraint::geq0(lx("x") + lx("y"))]), None);
        assert_eq!(
            decide(&[Constraint::geq0(lx("x").scaled(2) - lx("y"))]),
            None
        );
        assert_eq!(
            decide(&[Constraint::geq0(lx("x") - lx("y") + lx("z"))]),
            None
        );
        assert_eq!(
            decide(&[Constraint::geq0(lx("x") + k(MAX_KONST + 1))]),
            None
        );
        assert_eq!(
            decide(&[Constraint::geq0(lx("x") + k(MAX_KONST))]),
            Some(false)
        );
    }
}
