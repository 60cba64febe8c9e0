//! Unions of constraint systems — the representation of one array region.

use crate::{CKind, Constraint, Limits, System, Var};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};

/// A finite union of convex systems, with an exactness flag.
///
/// `exact = false` means the set is an **over-approximation** of the true
/// set of integer points (it may contain extra points, never fewer).
///
/// Beside the value sits one verdict cell: an emptiness answer recorded
/// by [`Disjunction::note_emptiness`] and read back by
/// [`Disjunction::known_emptiness`]. It is a cache, not part of the
/// value: equality, hashing and the store codec ignore it, a clone starts
/// without it, and [`Disjunction::push`] forgets it.
pub struct Disjunction {
    systems: Vec<System>,
    exact: bool,
    verdict: AtomicU8,
}

/// [`Disjunction::verdict`] values.
const UNKNOWN: u8 = 0;
const EMPTY: u8 = 1;
const NON_EMPTY: u8 = 2;

impl Clone for Disjunction {
    fn clone(&self) -> Disjunction {
        Disjunction::new(self.systems.clone(), self.exact)
    }
}

impl PartialEq for Disjunction {
    fn eq(&self, other: &Disjunction) -> bool {
        self.systems == other.systems && self.exact == other.exact
    }
}

impl Eq for Disjunction {}

impl Hash for Disjunction {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.systems.hash(state);
        self.exact.hash(state);
    }
}

impl Disjunction {
    fn new(systems: Vec<System>, exact: bool) -> Disjunction {
        Disjunction {
            systems,
            exact,
            verdict: AtomicU8::new(UNKNOWN),
        }
    }

    /// The empty set.
    pub fn empty() -> Disjunction {
        Disjunction::new(Vec::new(), true)
    }

    /// The universe.
    pub fn universe() -> Disjunction {
        Disjunction::from_system(System::universe())
    }

    /// A single convex piece.
    pub fn from_system(s: System) -> Disjunction {
        let mut d = Disjunction::empty();
        d.push(s);
        d
    }

    /// Build from several pieces.
    pub fn from_systems(ss: impl IntoIterator<Item = System>) -> Disjunction {
        let mut d = Disjunction::empty();
        for s in ss {
            d.push(s);
        }
        d
    }

    /// Reassemble a region from previously-normalized parts **without**
    /// filtering. The persistence-codec constructor: [`Disjunction::push`]
    /// drops contradictions, so round-tripping a stored region through it
    /// would not be bit-exact. Only pass parts previously obtained from
    /// [`Disjunction::systems`] / [`Disjunction::is_exact`].
    pub fn from_raw_parts(systems: Vec<System>, exact: bool) -> Disjunction {
        Disjunction::new(systems, exact)
    }

    /// The convex pieces.
    pub fn systems(&self) -> &[System] {
        &self.systems
    }

    /// Whether this region is known exact.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Mark the region as over-approximate.
    pub fn set_inexact(&mut self) {
        self.exact = false;
    }

    /// Returns a copy flagged inexact.
    pub fn inexact(mut self) -> Disjunction {
        self.exact = false;
        self
    }

    /// Number of disjuncts.
    // `is_empty` in this domain means set emptiness (and takes limits),
    // not container emptiness; `is_empty_union` is the container check.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Syntactic emptiness (no disjuncts at all).
    pub fn is_empty_union(&self) -> bool {
        self.systems.is_empty()
    }

    /// Add one piece, dropping contradictions.
    pub fn push(&mut self, s: System) {
        if !s.is_contradiction() {
            self.systems.push(s);
            *self.verdict.get_mut() = UNKNOWN;
        }
    }

    /// Sound emptiness: `true` means definitely no integer points.
    pub fn is_empty(&self, limits: Limits) -> bool {
        self.systems.iter().all(|s| s.is_empty(limits))
    }

    /// The emptiness verdict [`Disjunction::note_emptiness`] recorded on
    /// this value, if any.
    pub fn known_emptiness(&self) -> Option<bool> {
        match self.verdict.load(Ordering::Relaxed) {
            EMPTY => Some(true),
            NON_EMPTY => Some(false),
            _ => None,
        }
    }

    /// Record whether this set is empty. The caller vouches that the
    /// answer is exact — one no [`Limits`] cap could have weakened — so
    /// that whoever reads it back may take it for what any complete
    /// emptiness test would say.
    pub fn note_emptiness(&self, empty: bool) {
        let v = if empty { EMPTY } else { NON_EMPTY };
        self.verdict.store(v, Ordering::Relaxed);
    }

    /// Union, pruning pieces subsumed by existing ones.
    pub fn union(&self, other: &Disjunction, limits: Limits) -> Disjunction {
        let mut out = self.clone();
        out.exact = self.exact && other.exact;
        for s in &other.systems {
            if s.is_contradiction() {
                continue;
            }
            if out.systems.iter().any(|t| s.subset_of(t, limits)) {
                continue;
            }
            out.systems.retain(|t| !t.subset_of(s, limits));
            out.systems.push(s.clone());
        }
        out
    }

    /// Pairwise intersection. Falls back to a smaller (still sound for
    /// may-regions only after marking inexact) result when the disjunct
    /// cap is hit; in that case the result keeps the first
    /// `limits.max_disjuncts` pieces and is flagged inexact.
    pub fn intersect(&self, other: &Disjunction, limits: Limits) -> Disjunction {
        let mut out = Disjunction::empty();
        out.exact = self.exact && other.exact;
        'outer: for a in &self.systems {
            for b in &other.systems {
                let s = a.and(b);
                if !s.is_contradiction() && !s.is_empty(limits) {
                    out.systems.push(s);
                    if out.systems.len() >= limits.max_disjuncts {
                        out.exact = false;
                        crate::limit_stats::note_overflow();
                        break 'outer;
                    }
                }
            }
        }
        out
    }

    /// Set subtraction `self − other`.
    ///
    /// Exact when every step stays within the disjunct budget; otherwise
    /// the method stops subtracting and returns the current
    /// over-approximation flagged inexact (valid for may-regions, e.g.
    /// exposed reads).
    pub fn subtract(&self, other: &Disjunction, limits: Limits) -> Disjunction {
        let mut cur = self.clone();
        cur.exact = self.exact && other.exact;
        for b in &other.systems {
            let mut next = Disjunction::empty();
            next.exact = cur.exact;
            for a in &cur.systems {
                subtract_convex(a, b, limits, &mut next.systems);
                if next.systems.len() > limits.max_disjuncts {
                    // Give up: keep the unsubtracted remainder.
                    let mut fallback = cur.clone();
                    fallback.exact = false;
                    crate::limit_stats::note_overflow();
                    return fallback;
                }
            }
            cur = next;
        }
        cur
    }

    /// Sound subset test: `true` means every integer point of `self` is in
    /// `other`.
    pub fn subset_of(&self, other: &Disjunction, limits: Limits) -> bool {
        if !other.exact {
            // `other` may contain extra points; containment in the
            // over-approximation proves nothing about the true set, so
            // only the trivially-empty case is safe.
            return self.is_empty(limits);
        }
        self.subtract(other, limits).is_empty(limits)
    }

    /// Project variables out of every piece.
    pub fn project_out(&self, vars: &[Var], limits: Limits) -> Disjunction {
        let mut out = Disjunction::empty();
        out.exact = self.exact;
        for s in &self.systems {
            let p = s.project_out(vars, limits);
            out.exact &= p.exact;
            out.push(p.system);
        }
        out
    }

    /// Substitute `v := e` in every piece.
    pub fn subst(&self, v: Var, e: &crate::LinExpr) -> Disjunction {
        Disjunction::new(
            self.systems.iter().map(|s| s.subst(v, e)).collect(),
            self.exact,
        )
    }

    /// Rename a variable in every piece.
    pub fn rename(&self, from: Var, to: Var) -> Disjunction {
        Disjunction::new(
            self.systems.iter().map(|s| s.rename(from, to)).collect(),
            self.exact,
        )
    }

    /// Conjoin a constraint onto every piece.
    pub fn constrain(&self, c: &Constraint) -> Disjunction {
        let mut out = Disjunction::empty();
        out.exact = self.exact;
        for s in &self.systems {
            out.push(s.and_constraint(c.clone()));
        }
        out
    }

    /// Membership under a total assignment.
    pub fn contains(&self, env: &dyn Fn(Var) -> Option<i64>) -> Option<bool> {
        for s in &self.systems {
            if s.contains(env)? {
                return Some(true);
            }
        }
        Some(false)
    }

    /// All variables mentioned by any piece.
    pub fn vars(&self) -> std::collections::BTreeSet<Var> {
        let mut set = std::collections::BTreeSet::new();
        for s in &self.systems {
            set.extend(s.vars());
        }
        set
    }
}

/// Subtract one convex system from another, appending the non-empty
/// pieces to `out`: `a − b = ⋃_{c ∈ b} (a ∧ ¬c)` (with prior constraints
/// of `b` asserted, giving disjoint pieces). A piece is asked about
/// before it is built ([`System::is_empty_with`]) and built only if it
/// survives.
fn subtract_convex(a: &System, b: &System, limits: Limits, out: &mut Vec<System>) {
    if b.is_contradiction() {
        if !a.is_empty(limits) {
            out.push(a.clone());
        }
        return;
    }
    let mut assumed = a.clone();
    let mut keep = |assumed: &System, c: Constraint| {
        if !assumed.is_empty_with(c.clone(), limits) {
            out.push(assumed.and_constraint(c));
        }
    };
    for c in b.constraints() {
        match c.kind {
            CKind::Geq => keep(&assumed, c.negate_geq()),
            CKind::Eq => {
                let (p, n) = c.as_geq_pair();
                keep(&assumed, p.negate_geq());
                keep(&assumed, n.negate_geq());
            }
        }
        assumed.push(c.clone());
        if assumed.is_contradiction() {
            break;
        }
    }
}

impl fmt::Debug for Disjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Disjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.systems.is_empty() {
            write!(f, "∅")?;
        } else {
            for (i, s) in self.systems.iter().enumerate() {
                if i > 0 {
                    write!(f, " ∪ ")?;
                }
                write!(f, "{s}")?;
            }
        }
        if !self.exact {
            write!(f, " (inexact)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn lx(n: &str) -> LinExpr {
        LinExpr::var(v(n))
    }
    fn k(c: i64) -> LinExpr {
        LinExpr::constant(c)
    }
    fn lim() -> Limits {
        Limits::default()
    }

    /// lo <= i <= hi as a single-piece region.
    fn interval(lo: i64, hi: i64) -> Disjunction {
        Disjunction::from_system(System::from_constraints([
            Constraint::geq(lx("i"), k(lo)),
            Constraint::leq(lx("i"), k(hi)),
        ]))
    }

    fn points(d: &Disjunction, lo: i64, hi: i64) -> Vec<i64> {
        (lo..=hi)
            .filter(|&x| d.contains(&|_| Some(x)).unwrap())
            .collect()
    }

    #[test]
    fn union_subsumption() {
        let a = interval(1, 10);
        let b = interval(3, 5);
        let u = a.union(&b, lim());
        assert_eq!(u.len(), 1, "inner interval should be subsumed");
        assert_eq!(points(&u, 0, 12), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn union_disjoint_pieces() {
        let u = interval(1, 3).union(&interval(7, 9), lim());
        assert_eq!(u.len(), 2);
        assert_eq!(points(&u, 0, 10), vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn intersect_basic() {
        let i = interval(1, 10).intersect(&interval(5, 20), lim());
        assert_eq!(points(&i, 0, 25), (5..=10).collect::<Vec<_>>());
        assert!(i.is_exact());
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let i = interval(1, 3).intersect(&interval(5, 9), lim());
        assert!(i.is_empty(lim()));
    }

    #[test]
    fn subtract_middle_splits() {
        let d = interval(1, 10).subtract(&interval(4, 6), lim());
        assert_eq!(points(&d, 0, 12), vec![1, 2, 3, 7, 8, 9, 10]);
        assert!(d.is_exact());
    }

    #[test]
    fn subtract_everything() {
        let d = interval(2, 5).subtract(&interval(1, 10), lim());
        assert!(d.is_empty(lim()));
    }

    #[test]
    fn subtract_is_disjoint_decomposition() {
        // Pieces produced by subtraction must not overlap (each point
        // appears exactly once).
        let d = interval(1, 10).subtract(&interval(5, 5), lim());
        let mut count = 0;
        for x in 0..=12 {
            for s in d.systems() {
                if s.contains(&|_| Some(x)).unwrap() {
                    count += 1;
                }
            }
        }
        assert_eq!(count, 9);
    }

    #[test]
    fn subset_tests() {
        assert!(interval(3, 5).subset_of(&interval(1, 10), lim()));
        assert!(!interval(1, 10).subset_of(&interval(3, 5), lim()));
        // Subset against an inexact region must refuse unless empty.
        let inexact = interval(1, 10).inexact();
        assert!(!interval(3, 5).subset_of(&inexact, lim()));
        assert!(Disjunction::empty().subset_of(&inexact, lim()));
    }

    #[test]
    fn symbolic_subtract_extraction_shape() {
        // E = {1 <= i <= 10} minus W = {1 <= i <= n}: remainder is
        // {n+1 <= i <= 10}, which is empty exactly when n >= 10. This is
        // the shape predicate extraction exploits.
        let e = interval(1, 10);
        let w = Disjunction::from_system(System::from_constraints([
            Constraint::geq(lx("i"), k(1)),
            Constraint::leq(lx("i"), lx("n")),
        ]));
        let r = e.subtract(&w, lim());
        assert!(!r.is_empty(lim()));
        // Under n = 10 the remainder has no points.
        let env10 = |x: Var| {
            if x == v("n") {
                Some(10)
            } else {
                None
            }
        };
        let mut any = false;
        for i in -5..=15 {
            let env = |x: Var| if x == v("i") { Some(i) } else { env10(x) };
            if r.contains(&env).unwrap() {
                any = true;
            }
        }
        assert!(!any);
        // Under n = 7, points 8..10 remain.
        for i in 8..=10 {
            let env = |x: Var| {
                if x == v("i") {
                    Some(i)
                } else if x == v("n") {
                    Some(7)
                } else {
                    None
                }
            };
            assert!(r.contains(&env).unwrap());
        }
    }

    #[test]
    fn project_out_union() {
        // {1 <= i <= 3, j == i} ∪ {7 <= i <= 9, j == i} projected over i
        // gives {1 <= j <= 3} ∪ {7 <= j <= 9}.
        let mk = |lo: i64, hi: i64| {
            System::from_constraints([
                Constraint::geq(lx("i"), k(lo)),
                Constraint::leq(lx("i"), k(hi)),
                Constraint::eq(lx("j"), lx("i")),
            ])
        };
        let d = Disjunction::from_systems([mk(1, 3), mk(7, 9)]);
        let p = d.project_out(&[v("i")], lim());
        let js: Vec<i64> = (0..=10)
            .filter(|&j| p.contains(&|_| Some(j)).unwrap())
            .collect();
        assert_eq!(js, vec![1, 2, 3, 7, 8, 9]);
        assert!(p.is_exact());
    }

    #[test]
    fn constrain_filters_pieces() {
        let d = interval(1, 3).union(&interval(7, 9), lim());
        let c = Constraint::geq(lx("i"), k(5));
        let r = d.constrain(&c);
        assert_eq!(points(&r, 0, 10), vec![7, 8, 9]);
    }
}
