//! Emptiness and projection of difference-bound systems by shortest
//! paths, on the stack.
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
//! again. Elimination goes through equalities first, so the
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
//! chain of borrowed lists — the two pieces of a pair test and both loop
//! contexts; a system and the negation of one more constraint — and
//! [`is_empty`] is its one-part call. The callers that ask it first
//! ([`System::is_empty_with`](crate::System::is_empty_with),
//! `Disjunction::subtract`) build the conjunction only if it survives or
//! the answer is `None`.
//!
//! A pair test asks more of one matrix. [`orders_refuted`] closes the
//! pieces and contexts once and reads both iteration orders off it, and
//! [`project_parts`] — [`project`] over borrowed lists, as
//! [`is_empty_parts`] is [`is_empty`] over them — projects a surviving
//! order onto the symbolics, whose constraints are the condition under
//! which the two iterations conflict. `core::deptest` builds a pair's
//! intersection only where these decline.
//!
//! ## Projection
//!
//! Eliminating a variable `v` combines every edge into it with every
//! edge out of it — `p − v + a ≥ 0` and `v − q + b ≥ 0` give
//! `p − q + a + b ≥ 0` — and `simplify` keeps the tightest constraint
//! per variable part: one Floyd–Warshall round through `v`. So
//! eliminating a set of variables leaves, for each pair of kept nodes,
//! the shortest path between them whose intermediate nodes are all
//! dropped; the zero node and the kept variables are never intermediates,
//! because nothing is eliminated through them. An equality between two
//! dropped variables is substituted rather than combined, which moves
//! one's edges onto the other shifted by its constant; the shifts cancel
//! along every path, and the other's elimination composes them. [`project`]
//! relaxes through the dropped nodes only, emits `p − q + d[p][q] ≥ 0`
//! for every finite kept pair, and runs the same `simplify`, which sets
//! the order. Every step elimination would take has unit coefficients,
//! every constant is a simple path's, and the output has fewer than
//! `n²` constraints over `n` nodes, so the answer is exact and no
//! [`Limits`] cap can fire.
//!
//! The paths are elimination's *set*; three cases decline so that they
//! are also its *representation*:
//!
//! * (a) **An equality with a kept endpoint** — a kept variable, or the
//!   zero node (`x == c`). Elimination substitutes through it: the
//!   dropped variable's bounds become bounds on the kept one and are
//!   never composed with each other. `g == i + 1, 2 ≤ g ≤ n` without `g`
//!   is `i ≥ 1, n ≥ i + 1`; the paths through `g` add `n ≥ 2`.
//! * (b) **A difference with a kept endpoint that the closure pins**
//!   (`d[p][q] + d[q][p] == 0`). Elimination may pin such a pair part-way
//!   — `simplify` turns two opposite bounds into an equality — and then
//!   substitutes through it, or keeps a bound it derives later beside it:
//!   `{-n + 14 = 0 && -n + 14 >= 0}` where the paths give `{-n + 14 = 0}`.
//!   A pair pinned part-way is pinned in the full closure (entries only
//!   fall, and no cycle is negative), so vetting the full closure covers
//!   every elimination order. (a) is the case of (b) an input equality
//!   pins by itself, checked first because it needs no closure.
//! * (c) **A negative cycle**: the system is empty. Elimination stops at
//!   the first contradiction it meets between two constraints and
//!   returns the empty system; the kept pairs alone may say anything.
//!
//! [`projections`] counts the answers of both, per thread.
//!
//! [`Tier`] names which of the two answered an emptiness query;
//! [`force_general`] is the switch that sends everything — emptiness and
//! projection — to elimination.

use crate::var::PLACEHOLDER;
use crate::{CKind, Constraint, Limits, LinExpr, Projection, System, Var};
use std::cell::Cell;
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
/// every query and every projection runs the general path and every
/// answer is attributed [`Tier::General`]. Output must be
/// byte-identical either way — the CLI test
/// `forced_general_tier_changes_no_output_byte` spawns `padfa` in both
/// modes over the corpus and generated programs.
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
    let mut g = Graph::read(parts, limits)?;
    Some(!(0..g.n).all(|k| g.relax(k)))
}

thread_local! {
    static PROJECTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Projections the calling thread has had [`project`] answer so far;
/// a test reads the difference across a stretch of work to see how
/// much of it the closed form took from elimination.
pub fn projections() -> u64 {
    PROJECTIONS.with(Cell::get)
}

/// `constraints` with the variables of `drop` projected out, read off
/// shortest paths (see "Projection" in the module docs): the system,
/// constraint for constraint, that
/// [`System::project_out_by_elimination`](crate::System::project_out_by_elimination)
/// returns, and exact. `None` — eliminate — when the list is not a
/// difference-bound system this module reads, mentions no variable of
/// `drop`, or meets one of the three rules under which elimination's
/// representation differs from the paths'.
pub fn project(constraints: &[Constraint], drop: &[Var], limits: Limits) -> Option<Projection> {
    project_parts(&[constraints], |v| drop.contains(&v), limits)
}

/// [`project`] of the conjunction of several borrowed lists, read in
/// place as [`is_empty_parts`] reads them, with every variable `drop`
/// accepts projected out. Wherever it answers, the answer is what
/// elimination returns for the materialized conjunction — the list
/// [`System::and`](crate::System::and) builds, which only merges what
/// the matrix merges anyway: a duplicate or looser bound loses to the
/// tighter one, and a pair of opposite bounds it pins to an equality is
/// a pinned difference, which rule (b) vets as it vets the equality
/// (rule (a)) it becomes.
pub fn project_parts(
    parts: &[&[Constraint]],
    drop: impl Fn(Var) -> bool,
    limits: Limits,
) -> Option<Projection> {
    let mut g = Graph::read(parts, limits)?;
    let n = g.n;
    let dropped = (1..n)
        .filter(|&p| drop(g.vars[p - 1]))
        .fold(0u16, |set, p| set | 1 << p);
    if dropped == 0 {
        return None;
    }
    let is_dropped = |p: usize| dropped >> p & 1 == 1;
    // (a) An equality with a kept endpoint.
    if g.equated & !dropped != 0 {
        return None;
    }
    // Paths through the dropped nodes alone are what elimination
    // derives; the rest of the closure only vets the answer. (c) A
    // negative cycle shows in one of the two.
    if !(0..n).filter(|&k| is_dropped(k)).all(|k| g.relax(k)) {
        return None;
    }
    let through = g.d;
    if !(0..n).filter(|&k| !is_dropped(k)).all(|k| g.relax(k)) {
        return None;
    }
    // (b) A difference with a kept endpoint that the closure pins.
    let pinned = |p: usize, q: usize| {
        let (pq, qp) = (g.d[p][q], g.d[q][p]);
        pq != INF && qp != INF && pq + qp == 0
    };
    if (0..n).any(|p| (p + 1..n).any(|q| !(is_dropped(p) && is_dropped(q)) && pinned(p, q))) {
        return None;
    }

    let kept = (0..n).filter(|&p| !is_dropped(p));
    let m = kept.clone().count();
    let mut list = Vec::with_capacity(m * (m - 1));
    for p in kept.clone() {
        for q in kept.clone() {
            if p == q || through[p][q] == INF {
                continue;
            }
            let mut expr = LinExpr::constant(through[p][q]);
            if p != 0 {
                expr.add_term(g.vars[p - 1], 1);
            }
            if q != 0 {
                expr.add_term(g.vars[q - 1], -1);
            }
            list.push(Constraint::geq0(expr));
        }
    }
    PROJECTIONS.with(|c| c.set(c.get() + 1));
    Some(Projection {
        system: System::from_normal(list),
        exact: true,
    })
}

/// Both iteration orders of a pair test from one closure: whether
/// `parts ∧ (i < i2)` and `parts ∧ (i > i2)` are empty, in that order.
/// The matrix of `parts` is read and closed once; `i < i2` is refuted
/// exactly when the closed `d[i][i2] ≤ 0` — a path from `i` to `i2` of
/// weight at most zero says `i2 ≤ i`, and the order's edge of weight −1
/// closes it into a negative cycle — and `i > i2` when `d[i2][i] ≤ 0`;
/// a negative cycle in `parts` refutes both. The answer is
/// [`is_empty_parts`] of `parts` with each order's constraint pushed,
/// and so is the decline: `i` and `i2` are numbered before the size
/// checks, as the pushed constraint would number them.
pub fn orders_refuted(
    parts: &[&[Constraint]],
    i: Var,
    i2: Var,
    limits: Limits,
) -> Option<[bool; 2]> {
    let mut g = Graph::load(parts)?;
    let (a, b) = (g.node(i)?, g.node(i2)?);
    if !g.fits(limits) {
        return None;
    }
    if !(0..g.n).all(|k| g.relax(k)) {
        return Some([true, true]);
    }
    Some([g.d[a][b] <= 0, g.d[b][a] <= 0])
}

/// A difference-bound system read into its matrix: node 0 is the
/// constant zero and node `p > 0` is `vars[p - 1]`; `d[p][q]` is the
/// tightest `k` read for `p − q + k ≥ 0`, [`INF`] for none.
struct Graph {
    d: [[i64; NODES]; NODES],
    vars: [Var; MAX_VARS],
    /// Nodes in use, the zero node included.
    n: usize,
    /// The nodes some equality relates (bit `p` for node `p`).
    equated: u16,
}

impl Graph {
    /// The matrix of the conjunction of `parts`; `None` on the first
    /// constraint or size this module declines (see "Fall-through").
    #[inline]
    fn read(parts: &[&[Constraint]], limits: Limits) -> Option<Graph> {
        Graph::load(parts).filter(|g| g.fits(limits))
    }

    /// [`Graph::read`] before the size check against `limits`.
    #[inline]
    fn load(parts: &[&[Constraint]]) -> Option<Graph> {
        let mut g = Graph {
            d: [[INF; NODES]; NODES],
            vars: [PLACEHOLDER; MAX_VARS],
            n: 1,
            equated: 0,
        };
        for (i, row) in g.d.iter_mut().enumerate() {
            row[i] = 0;
        }
        for c in parts.iter().copied().flatten() {
            let k = c.expr.konst();
            if !(-MAX_KONST..=MAX_KONST).contains(&k) {
                return None;
            }
            let mut terms = c.expr.terms();
            let (p, q) = match (terms.next(), terms.next(), terms.next()) {
                (Some((v, 1)), None, _) => (g.node(v)?, 0),
                (Some((v, -1)), None, _) => (0, g.node(v)?),
                (Some((u, 1)), Some((v, -1)), None) => (g.node(u)?, g.node(v)?),
                (Some((u, -1)), Some((v, 1)), None) => (g.node(v)?, g.node(u)?),
                _ => return None,
            };
            g.d[p][q] = g.d[p][q].min(k);
            if c.kind == CKind::Eq {
                g.d[q][p] = g.d[q][p].min(-k);
                g.equated |= 1 << p | 1 << q;
            }
        }
        Some(g)
    }

    /// Whether elimination could stay under `limits.max_constraints`
    /// here (see "Agreement with elimination").
    #[inline]
    fn fits(&self, limits: Limits) -> bool {
        self.n * self.n <= limits.max_constraints
    }

    /// The node of `v`, numbered on first sight; `None` past
    /// [`MAX_VARS`].
    #[inline]
    fn node(&mut self, v: Var) -> Option<usize> {
        if let Some(at) = self.vars[..self.n - 1].iter().position(|&u| u == v) {
            return Some(at + 1);
        }
        if self.n == NODES {
            return None;
        }
        self.vars[self.n - 1] = v;
        self.n += 1;
        Some(self.n - 1)
    }

    /// One Floyd–Warshall round: shorten every path through node `k`.
    /// `false` when a diagonal entry would drop below its zero — a
    /// negative cycle, and the matrix is left part-way. (Row `k` does not
    /// change in its own round: its diagonal is zero.)
    #[inline]
    fn relax(&mut self, k: usize) -> bool {
        let n = self.n;
        let via = self.d[k];
        for (i, row) in self.d.iter_mut().enumerate().take(n) {
            let ik = row[k];
            if ik == INF {
                continue;
            }
            for (j, &kj) in via.iter().enumerate().take(n) {
                if kj != INF && ik + kj < row[j] {
                    if i == j {
                        return false;
                    }
                    row[j] = ik + kj;
                }
            }
        }
        true
    }
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

    /// `project` of `cs` over `drop`, beside what elimination returns.
    fn both(cs: Vec<Constraint>, drop: &[&str]) -> (Option<Projection>, Projection) {
        let sys = System::from_constraints(cs);
        let drop: Vec<Var> = drop.iter().map(|n| Var::new(n)).collect();
        let limits = Limits::default();
        let elim = sys.project_out_by_elimination(&drop, limits);
        let via = sys.project_out(&drop, limits);
        assert_eq!((&via.system, via.exact), (&elim.system, elim.exact));
        (project(sys.constraints(), &drop, limits), elim)
    }

    #[test]
    fn paths_through_the_dropped_nodes_are_the_projection() {
        // 1 <= g <= h <= n and m <= h + 3: dropping g and h leaves
        // n >= 1 and m <= n + 3.
        let (closed, elim) = both(
            vec![
                Constraint::geq(lx("g"), k(1)),
                Constraint::leq(lx("g"), lx("h")),
                Constraint::leq(lx("h"), lx("n")),
                Constraint::leq(lx("m"), lx("h") + k(3)),
            ],
            &["g", "h"],
        );
        let closed = closed.expect("a difference system with no kept equality");
        assert!(closed.exact);
        assert_eq!(closed.system, elim.system);
        assert_eq!(closed.system.to_string(), "{n - 1 >= 0 && n - m + 3 >= 0}");
    }

    #[test]
    fn an_equality_with_a_kept_endpoint_declines() {
        // (a) g == i + 1, 2 <= g <= n, i kept. Elimination substitutes
        // i + 1 for g and never composes 2 <= g <= n into n >= 2, which
        // the paths through g would.
        let (closed, elim) = both(
            vec![
                Constraint::eq(lx("g"), lx("i") + k(1)),
                Constraint::geq(lx("g"), k(2)),
                Constraint::leq(lx("g"), lx("n")),
            ],
            &["g"],
        );
        assert!(closed.is_none());
        assert_eq!(elim.system.to_string(), "{i - 1 >= 0 && -i + n - 1 >= 0}");
    }

    #[test]
    fn a_pinned_kept_difference_declines() {
        // (b) x >= 14, n >= x, n <= 14, n <= y <= 14. Eliminating x pins
        // n == 14 part-way; eliminating y then derives n <= 14 again,
        // which elimination keeps beside the equality.
        let (closed, elim) = both(
            vec![
                Constraint::geq(lx("x"), k(14)),
                Constraint::geq(lx("n"), lx("x")),
                Constraint::leq(lx("n"), k(14)),
                Constraint::leq(lx("y"), k(14)),
                Constraint::geq(lx("y"), lx("n")),
            ],
            &["x", "y"],
        );
        assert!(closed.is_none());
        assert_eq!(elim.system.to_string(), "{-n + 14 = 0 && -n + 14 >= 0}");
    }

    #[test]
    fn an_empty_system_declines() {
        // (c) x > y >= z >= x, n >= 0. Elimination meets the cycle as a
        // pair and returns the empty system; the kept pairs alone would
        // read {n >= 0}.
        let (closed, elim) = both(
            vec![
                Constraint::gt(lx("x"), lx("y")),
                Constraint::geq(lx("y"), lx("z")),
                Constraint::geq(lx("z"), lx("x")),
                Constraint::geq(lx("n"), k(0)),
            ],
            &["x", "y", "z"],
        );
        assert!(closed.is_none());
        assert!(elim.system.is_contradiction());
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
