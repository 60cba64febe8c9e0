//! Conjunctions of constraints and the Fourier–Motzkin engine.

use crate::difference::{self, Tier};
use crate::{CKind, Constraint, Limits, LinExpr, Norm, Var};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// A conjunction of integer linear constraints — one convex piece of an
/// array region.
///
/// The empty conjunction is the universe. A system that has been proven
/// unsatisfiable during normalization is flagged `contradiction` and
/// represents the empty set.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct System {
    constraints: Vec<Constraint>,
    contradiction: bool,
}

/// Result of projecting variables out of a system.
#[derive(Clone, Debug)]
pub struct Projection {
    pub system: System,
    /// False when Fourier–Motzkin had to over-approximate (non-unit
    /// coefficient pairs, lost divisibility, or a size cap).
    pub exact: bool,
}

/// Drop a Fourier–Motzkin combination whose coefficients leave the
/// `i64` range: like a [`Limits`] cap, that over-approximates the
/// projection, and it is counted as one.
fn drop_overflow(exact: &mut bool) {
    *exact = false;
    crate::limit_stats::note_overflow();
}

/// Same variable part (the constants may differ).
fn same_terms(a: &Constraint, b: &Constraint) -> bool {
    a.expr.terms().eq(b.expr.terms())
}

/// Order `c`'s variable part against the *negation* of `key`'s, the way
/// [`Constraint::cmp_structural`] orders variable parts (term count,
/// then `(var, coeff)` pairs), comparing through an iterator so the
/// negated key is never built.
fn cmp_terms_to_negated(c: &Constraint, key: &Constraint) -> Ordering {
    (c.expr.num_terms().cmp(&key.expr.num_terms()))
        .then_with(|| c.expr.terms().cmp(key.expr.terms().map(|(v, k)| (v, -k))))
}

impl System {
    /// The universe (no constraints).
    pub fn universe() -> System {
        System::default()
    }

    /// A known-empty system.
    pub fn empty() -> System {
        System {
            contradiction: true,
            ..System::default()
        }
    }

    /// The universe with room for `n` constraints, so a rebuild of known
    /// size does not regrow its list push by push.
    fn with_capacity(n: usize) -> System {
        System {
            constraints: Vec::with_capacity(n),
            ..System::default()
        }
    }

    /// Build from constraints, normalizing.
    pub fn from_constraints(cs: impl IntoIterator<Item = Constraint>) -> System {
        let cs = cs.into_iter();
        let mut s = System::with_capacity(cs.size_hint().0);
        for c in cs {
            s.push_for_simplify(c);
        }
        s.simplify();
        s
    }

    /// Put a list of individually normal constraints into normal form
    /// in place, without a `push` each.
    pub(crate) fn from_normal(constraints: Vec<Constraint>) -> System {
        let mut s = System {
            constraints,
            contradiction: false,
        };
        s.simplify();
        s
    }

    /// Reassemble a system from previously-normalized parts **without**
    /// re-normalizing. This is the persistence-codec constructor: the
    /// on-disk memo store must round-trip a system bit-exactly
    /// (constraint order included), and [`System::from_constraints`]
    /// would re-run `push`/`simplify` and potentially reorder or drop
    /// constraints. Only pass parts previously obtained from
    /// [`System::constraints`] / [`System::is_contradiction`].
    pub fn from_raw_parts(constraints: Vec<Constraint>, contradiction: bool) -> System {
        System {
            constraints,
            contradiction,
        }
    }

    /// True when this system was proven unsatisfiable by normalization.
    /// (A `false` answer does not imply satisfiability; use
    /// [`System::is_empty`].)
    pub fn is_contradiction(&self) -> bool {
        self.contradiction
    }

    /// True when there are no constraints (and no contradiction).
    pub fn is_universe(&self) -> bool {
        !self.contradiction && self.constraints.is_empty()
    }

    /// The constraints (empty when contradictory).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    // `is_empty` here means set emptiness (and takes limits); the
    // container check is `is_empty_conjunction`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when no constraints are stored.
    pub fn is_empty_conjunction(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Add one constraint (normalizing it first).
    pub fn push(&mut self, c: Constraint) {
        if let Some(c) = self.admit(c) {
            // Exact duplicates appear frequently when contexts are
            // re-conjoined; keep the list canonical as we go.
            if !self.constraints.contains(&c) {
                self.constraints.push(c);
            }
        }
    }

    /// [`System::push`] without the duplicate scan, for a builder that
    /// calls [`System::simplify`] next: its sort and dedup drop exact
    /// duplicates anyway.
    fn push_for_simplify(&mut self, c: Constraint) {
        if let Some(c) = self.admit(c) {
            self.constraints.push(c);
        }
    }

    /// `c` normalized, unless it is a tautology or the system is already
    /// empty; a contradiction empties the system.
    fn admit(&mut self, c: Constraint) -> Option<Constraint> {
        if self.contradiction {
            return None;
        }
        match c.into_norm() {
            Norm::Tautology => None,
            Norm::Contradiction => {
                self.set_contradiction();
                None
            }
            Norm::Keep(c) => Some(c),
        }
    }

    fn set_contradiction(&mut self) {
        self.constraints.clear();
        self.contradiction = true;
    }

    /// Conjoin another system.
    pub fn and(&self, other: &System) -> System {
        if self.contradiction || other.contradiction {
            return System::empty();
        }
        let mut out = System::with_capacity(self.len() + other.len());
        out.constraints.extend_from_slice(&self.constraints);
        for c in &other.constraints {
            out.push_for_simplify(c.clone());
        }
        out.simplify();
        out
    }

    /// All variables mentioned by any constraint.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut set = BTreeSet::new();
        for c in &self.constraints {
            set.extend(c.expr.vars());
        }
        set
    }

    /// True when `v` occurs in some constraint.
    pub fn mentions(&self, v: Var) -> bool {
        self.constraints.iter().any(|c| c.mentions(v))
    }

    /// Substitute `v := e` throughout.
    pub fn subst(&self, v: Var, e: &LinExpr) -> System {
        if self.contradiction {
            return System::empty();
        }
        let mut out = System::with_capacity(self.len());
        for c in &self.constraints {
            out.push_for_simplify(c.subst(v, e));
        }
        out.simplify();
        out
    }

    /// Rename `from` to `to` throughout.
    pub fn rename(&self, from: Var, to: Var) -> System {
        if self.contradiction {
            return System::empty();
        }
        let mut out = System::with_capacity(self.len());
        for c in &self.constraints {
            out.push_for_simplify(c.rename(from, to));
        }
        out.simplify();
        out
    }

    /// Cheap local simplification: drop duplicates, keep the tightest of
    /// inequalities that differ only in the constant, detect single-pair
    /// contradictions (`e + c >= 0` with `-e + d >= 0` and `c + d < 0`),
    /// and turn matched inequality pairs into equalities.
    ///
    /// Works on the list in place — two unstable sorts, a `dedup_by` and
    /// binary searches, none of which touches the heap — because the
    /// systems are a handful of constraints each and the constant factor
    /// of this function is most of what a lattice operation costs.
    pub fn simplify(&mut self) {
        if self.contradiction {
            return;
        }
        // Equalities first, then by variable part, then by constant:
        // constraints over the same variable part end up adjacent with
        // the tightest inequality leading its group.
        self.constraints
            .sort_unstable_by(Constraint::cmp_structural);
        self.constraints.dedup_by(|later, first| {
            later.kind == first.kind
                && same_terms(later, first)
                && (later.kind == CKind::Geq || later.expr.konst() == first.expr.konst())
        });
        // Pair e + c >= 0 with -e + d >= 0. The member whose leading
        // coefficient is negative sorts first, so it is the one that
        // looks for its partner (further down the list) and, when the
        // pair pins e, the one that becomes the equality: rendered
        // output depends on that orientation.
        let mut pinned = false;
        let mut i = self.constraints.partition_point(|c| c.kind == CKind::Eq);
        while i < self.constraints.len() {
            let (key, below) = (&self.constraints[i], &self.constraints[i + 1..]);
            let leads_negative = key.expr.terms().next().is_some_and(|(_, k)| k < 0);
            let partner = if leads_negative {
                below
                    .binary_search_by(|c| cmp_terms_to_negated(c, key))
                    .ok()
            } else {
                None
            };
            if let Some(at) = partner {
                let slack = i128::from(key.expr.konst()) + i128::from(below[at].expr.konst());
                if slack < 0 {
                    self.set_contradiction();
                    return;
                }
                if slack == 0 {
                    // e >= -c and e <= -c  =>  e + c == 0
                    self.constraints[i].kind = CKind::Eq;
                    self.constraints.remove(i + 1 + at);
                    pinned = true;
                }
            }
            i += 1;
        }
        if pinned {
            self.constraints
                .sort_unstable_by(Constraint::cmp_structural);
        }
    }

    /// Eliminate one variable by Fourier–Motzkin (with equality
    /// substitution when possible). Returns the projected system and an
    /// exactness flag.
    pub fn eliminate(&self, v: Var, limits: Limits) -> Projection {
        if self.contradiction {
            return Projection {
                system: System::empty(),
                exact: true,
            };
        }
        if !self.mentions(v) {
            return Projection {
                system: self.clone(),
                exact: true,
            };
        }

        // Prefer an equality with coefficient +-1: exact substitution.
        if let Some(eq) = self
            .constraints
            .iter()
            .find(|c| c.kind == CKind::Eq && c.expr.coeff(v).abs() == 1)
        {
            let a = eq.expr.coeff(v);
            // a*v + r == 0  =>  v == -r/a; for |a| == 1, v := -a*r.
            let r = eq.expr.without(v);
            // Formed for the first constraint that needs it.
            let mut replacement = None;
            let mut out = System::with_capacity(self.len() - 1);
            let mut exact = true;
            for c in &self.constraints {
                if std::ptr::eq(c, eq) {
                    continue;
                }
                if !c.mentions(v) {
                    out.push_for_simplify(c.clone());
                    continue;
                }
                let e = replacement.get_or_insert_with(|| r.checked_scaled(-a));
                match e.as_ref().and_then(|e| c.expr.checked_subst(v, e)) {
                    Some(expr) => out.push_for_simplify(Constraint { expr, kind: c.kind }),
                    None => drop_overflow(&mut exact),
                }
            }
            out.simplify();
            return Projection { system: out, exact };
        }

        // Equality with non-unit coefficient: combine into the others,
        // losing the divisibility requirement (over-approximation).
        if let Some(eq) = self
            .constraints
            .iter()
            .min_by_key(|c| {
                if c.kind == CKind::Eq && c.expr.mentions(v) {
                    c.expr.coeff(v).abs()
                } else {
                    i64::MAX
                }
            })
            .filter(|c| c.kind == CKind::Eq && c.expr.mentions(v))
        {
            let a = eq.expr.coeff(v);
            let r = eq.expr.without(v);
            let mut out = System::with_capacity(self.len() - 1);
            for c in &self.constraints {
                if std::ptr::eq(c, eq) {
                    continue;
                }
                let b = c.expr.coeff(v);
                if b == 0 {
                    out.push_for_simplify(c.clone());
                    continue;
                }
                // |a|*(c.expr) with |a|b*v replaced using a*v == -r:
                // |a|b*v == -sign(a)*b*r.
                let s = c.expr.without(v);
                let combined = a.checked_abs().and_then(|abs_a| {
                    let rb = r.checked_scaled(b.checked_mul(-a.signum())?)?;
                    s.checked_scaled(abs_a)?.checked_add(&rb)
                });
                match combined {
                    Some(expr) => out.push_for_simplify(Constraint { expr, kind: c.kind }),
                    // The projection is inexact already.
                    None => crate::limit_stats::note_overflow(),
                }
            }
            out.simplify();
            return Projection {
                system: out,
                exact: false,
            };
        }

        // Pure inequality elimination.
        let mut lower: Vec<&Constraint> = Vec::new(); // coeff > 0
        let mut upper: Vec<&Constraint> = Vec::new(); // coeff < 0
        let mut rest: Vec<&Constraint> = Vec::new();
        for c in &self.constraints {
            let a = c.expr.coeff(v);
            // Equalities mentioning v were consumed above; anything still
            // mentioning v here is an inequality.
            debug_assert!(a == 0 || c.kind == CKind::Geq);
            if a > 0 {
                lower.push(c);
            } else if a < 0 {
                upper.push(c);
            } else {
                rest.push(c);
            }
        }
        let mut out = System::with_capacity(rest.len() + lower.len() * upper.len());
        for c in rest {
            out.push_for_simplify(c.clone());
        }
        let mut exact = true;
        for l in &lower {
            let a = l.expr.coeff(v);
            let r = l.expr.without(v);
            for u in &upper {
                let nb = u.expr.coeff(v); // negative
                let s = u.expr.without(v);
                // a*v + r >= 0 and -b*v + s >= 0 combine to b*r + a*s >= 0.
                let combined = nb
                    .checked_neg()
                    .and_then(|b| r.checked_scaled(b)?.checked_add(&s.checked_scaled(a)?));
                match combined {
                    Some(e) => out.push_for_simplify(Constraint::geq0(e)),
                    None => drop_overflow(&mut exact),
                }
                if a != 1 && nb != -1 {
                    // The real shadow may include integer points with no
                    // integer pre-image; flag inexact.
                    exact = false;
                }
            }
        }
        out.simplify();
        if out.len() > limits.max_constraints {
            out.constraints.truncate(limits.max_constraints);
            exact = false;
            crate::limit_stats::note_overflow();
        }
        Projection { system: out, exact }
    }

    /// Project out several variables. A difference-bound system is
    /// answered in closed form ([`difference::project`]): the system and
    /// flag elimination returns, read off shortest paths. Anything it
    /// declines, and everything under `PADFA_FORCE_GENERAL_TIER`, is
    /// [`System::project_out_by_elimination`].
    pub fn project_out(&self, vars: &[Var], limits: Limits) -> Projection {
        if !difference::force_general() {
            if let Some(p) = difference::project(&self.constraints, vars, limits) {
                return p;
            }
        }
        self.project_out_by_elimination(vars, limits)
    }

    /// Project out several variables by Fourier–Motzkin, picking a cheap
    /// elimination order: the fall-through of [`System::project_out`]
    /// and the reference its closed form is tested against.
    pub fn project_out_by_elimination(&self, vars: &[Var], limits: Limits) -> Projection {
        // Borrowed until the first elimination builds a new system.
        let mut cur = Cow::Borrowed(self);
        let mut exact = true;
        let mut remaining: Vec<Var> = vars.iter().copied().filter(|&v| cur.mentions(v)).collect();
        while !remaining.is_empty() {
            if cur.contradiction {
                return Projection {
                    system: System::empty(),
                    exact,
                };
            }
            // Prefer variables eliminable through a unit-coefficient
            // equality: that substitution is exact and — crucially —
            // leaves non-unit equalities intact so their divisibility
            // requirements can still surface as GCD contradictions
            // (e.g. `3t == 3t' + 1`). Break ties by the number of
            // lower*upper inequality products.
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let mut lo = 0usize;
                    let mut hi = 0usize;
                    let mut unit_eq = false;
                    for c in &cur.constraints {
                        let a = c.expr.coeff(v);
                        if c.kind == CKind::Eq {
                            if a.abs() == 1 {
                                unit_eq = true;
                            }
                            continue;
                        }
                        if a > 0 {
                            lo += 1;
                        } else if a < 0 {
                            hi += 1;
                        }
                    }
                    (i, (!unit_eq, lo * hi))
                })
                .min_by_key(|&(_, cost)| cost)
                .unwrap();
            let v = remaining.swap_remove(idx);
            let p = cur.eliminate(v, limits);
            exact &= p.exact;
            cur = Cow::Owned(p.system);
            remaining.retain(|&w| cur.mentions(w));
        }
        Projection {
            system: cur.into_owned(),
            exact,
        }
    }

    /// Decide emptiness soundly: `true` means the system has no integer
    /// solutions; `false` means it may have some.
    pub fn is_empty(&self, limits: Limits) -> bool {
        self.is_empty_tiered(limits).0
    }

    /// [`System::is_empty`] with the tier that answered. The one place
    /// that orders the two ways to answer: the difference-bound closure
    /// ([`crate::difference`]), else elimination. The closure is
    /// [`Tier::Dense`] — exact, and the verdict elimination would reach
    /// (see its module for the agreement argument), so skipping
    /// Fourier–Motzkin cannot change output; `PADFA_FORCE_GENERAL_TIER`
    /// skips it.
    pub fn is_empty_tiered(&self, limits: Limits) -> (bool, Tier) {
        if !difference::force_general() && !self.contradiction {
            if let Some(empty) = difference::is_empty(&self.constraints, limits) {
                return (empty, Tier::Dense);
            }
        }
        (self.is_empty_by_elimination(limits), Tier::General)
    }

    /// Emptiness by the general cascade alone — normalization's verdict,
    /// [`System::quick_unsat`], then Fourier–Motzkin over every variable:
    /// the fall-through of [`System::is_empty_tiered`] and the reference
    /// the closed form is tested against.
    pub fn is_empty_by_elimination(&self, limits: Limits) -> bool {
        if self.contradiction {
            return true;
        }
        if self.constraints.is_empty() {
            return false;
        }
        if self.quick_unsat() {
            return true;
        }
        let vars: Vec<Var> = self.vars().into_iter().collect();
        let p = self.project_out_by_elimination(&vars, limits);
        // Every conclusion drawn during elimination is implied by the
        // original constraints, so a contradiction here is sound even on
        // inexact paths.
        p.system.contradiction
    }

    /// Cheap, sound unsatisfiability pre-checks that short-circuit the
    /// full Fourier–Motzkin cascade in [`System::is_empty`]. `true`
    /// means definitely empty; `false` means "run the full test". Two
    /// linear passes over the constraint list:
    ///
    /// 1. **GCD test on equalities**: `Σ cᵥ·v + c == 0` has no integer
    ///    solution when `gcd(cᵥ) ∤ c`. ([`Constraint::normalize`] folds
    ///    this at push time, so it only fires on constraints built
    ///    outside `push` — but it is one gcd fold per equality.)
    /// 2. **Constant-bound window per variable**: single-variable
    ///    constraints pin an interval `[lo, hi]` for their variable
    ///    (normalization makes their coefficients ±1, but general
    ///    coefficients are handled too); an empty window on any
    ///    variable is a contradiction that FM would only discover after
    ///    eliminating every other variable it is entangled with.
    pub fn quick_unsat(&self) -> bool {
        if self.contradiction {
            return true;
        }
        // Pass 1: integer-infeasible equalities.
        for c in &self.constraints {
            if c.kind == CKind::Eq {
                let g = c.expr.content();
                if g != 0 && c.expr.konst() % g != 0 {
                    return true;
                }
            }
        }
        // Pass 2: per-variable constant windows from single-variable
        // constraints. `a*v + c >= 0` gives `v >= ceil(-c/a)` (a > 0) or
        // `v <= floor(-c/a)` (a < 0); an equality contributes both.
        let mut windows: Vec<(Var, i64, i64)> = Vec::new();
        for c in &self.constraints {
            let mut terms = c.expr.terms();
            let Some((v, a)) = terms.next() else { continue };
            if terms.next().is_some() {
                continue;
            }
            let k = c.expr.konst();
            // Bounds implied for v (i64::MIN/MAX = unconstrained side);
            // a bound that does not fit an `i64` says nothing here.
            let window = match c.kind {
                CKind::Geq if a > 0 => crate::div_floor(k, a)
                    .checked_neg()
                    .map(|lo| (lo, i64::MAX)),
                CKind::Geq => a.checked_neg().map(|b| (i64::MIN, crate::div_floor(k, b))),
                CKind::Eq => {
                    if k.checked_rem(a).is_some_and(|r| r != 0) {
                        return true;
                    }
                    let x = k.checked_div(a).and_then(i64::checked_neg);
                    x.map(|x| (x, x))
                }
            };
            let Some((lo, hi)) = window else { continue };
            match windows.iter_mut().find(|w| w.0 == v) {
                Some(w) => {
                    w.1 = w.1.max(lo);
                    w.2 = w.2.min(hi);
                    if w.1 > w.2 {
                        return true;
                    }
                }
                None => {
                    if lo > hi {
                        return true;
                    }
                    windows.push((v, lo, hi));
                }
            }
        }
        false
    }

    /// Sound implication test: does every point of `self` satisfy `c`?
    /// `true` is definite; `false` means unknown.
    pub fn implies(&self, c: &Constraint, limits: Limits) -> bool {
        match c.kind {
            CKind::Geq => self.is_empty_with(c.negate_geq(), limits),
            CKind::Eq => {
                let (p, n) = c.as_geq_pair();
                self.is_empty_with(p.negate_geq(), limits)
                    && self.is_empty_with(n.negate_geq(), limits)
            }
        }
    }

    /// [`System::is_empty`] of `self ∧ c`, asked before the conjunction
    /// is built: the closure reads `self`'s list and `c` in place
    /// ([`difference::is_empty_parts`]), and only a conjunction it
    /// declines is materialized, for elimination. The verdict is the one
    /// `self.and_constraint(c).is_empty(limits)` reaches.
    pub fn is_empty_with(&self, c: Constraint, limits: Limits) -> bool {
        if self.contradiction {
            return true;
        }
        let c = match c.into_norm() {
            Norm::Tautology => return self.is_empty(limits),
            Norm::Contradiction => return true,
            Norm::Keep(c) => c,
        };
        if !difference::force_general() {
            let parts = [self.constraints.as_slice(), std::slice::from_ref(&c)];
            if let Some(empty) = difference::is_empty_parts(&parts, limits) {
                return empty;
            }
        }
        self.and_constraint(c).is_empty(limits)
    }

    /// This system and one more constraint — [`System::push`] onto a
    /// copy (same order, same duplicate check, not re-simplified) that
    /// was allocated with room for it.
    pub fn and_constraint(&self, c: Constraint) -> System {
        if self.contradiction {
            return System::empty();
        }
        let mut s = System::with_capacity(self.len() + 1);
        s.constraints.extend_from_slice(&self.constraints);
        s.push(c);
        s
    }

    /// True when `self ⊆ other` can be proven.
    pub fn subset_of(&self, other: &System, limits: Limits) -> bool {
        other.constraints.iter().all(|c| self.implies(c, limits))
    }

    /// Membership test under a total assignment; `None` when a variable is
    /// unbound.
    pub fn contains(&self, env: &dyn Fn(Var) -> Option<i64>) -> Option<bool> {
        if self.contradiction {
            return Some(false);
        }
        for c in &self.constraints {
            if !c.eval(env)? {
                return Some(false);
            }
        }
        Some(true)
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.contradiction {
            return write!(f, "{{false}}");
        }
        if self.constraints.is_empty() {
            return write!(f, "{{true}}");
        }
        write!(f, "{{")?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    impl System {
        /// The map-based `simplify` this crate shipped before the
        /// in-place one, kept as the reference the differential test
        /// compares against.
        fn simplify_reference(&mut self) {
            if self.contradiction {
                return;
            }
            let mut geq: BTreeMap<Vec<(Var, i64)>, i64> = BTreeMap::new();
            let mut eqs: Vec<Constraint> = Vec::new();
            for c in std::mem::take(&mut self.constraints) {
                match c.kind {
                    CKind::Eq => {
                        if !eqs.contains(&c) {
                            eqs.push(c);
                        }
                    }
                    CKind::Geq => {
                        let key: Vec<(Var, i64)> = c.expr.terms().collect();
                        let k = c.expr.konst();
                        geq.entry(key)
                            .and_modify(|cur| *cur = (*cur).min(k))
                            .or_insert(k);
                    }
                }
            }
            let mut out: Vec<Constraint> = eqs;
            let mut done: Vec<Vec<(Var, i64)>> = Vec::new();
            for (key, &c) in &geq {
                if done.contains(key) {
                    continue;
                }
                let nkey: Vec<(Var, i64)> = key.iter().map(|&(v, k)| (v, -k)).collect();
                let mut expr = LinExpr::constant(c);
                for &(v, k) in key {
                    expr.add_term(v, k);
                }
                if let Some(&d) = geq.get(&nkey) {
                    done.push(key.clone());
                    done.push(nkey.clone());
                    if c + d < 0 {
                        self.set_contradiction();
                        return;
                    }
                    if c + d == 0 {
                        out.push(Constraint::eq0(expr));
                        continue;
                    }
                    out.push(Constraint::geq0(expr));
                    let mut nexpr = LinExpr::constant(d);
                    for &(v, k) in &nkey {
                        nexpr.add_term(v, k);
                    }
                    out.push(Constraint::geq0(nexpr));
                } else {
                    done.push(key.clone());
                    out.push(Constraint::geq0(expr));
                }
            }
            self.constraints = out;
            self.constraints.sort_by(|a, b| a.cmp_structural(b));
        }
    }

    /// A random variable part over `sv0..sv9` with `n` terms.
    fn random_terms(rng: &mut StdRng, n: usize) -> LinExpr {
        let mut e = LinExpr::zero();
        while e.num_terms() < n {
            let var = Var::new(&format!("sv{}", rng.gen_range(0u32..10)));
            if !e.mentions(var) {
                e.add_term(var, [-2, -1, 1, 2][rng.gen_range(0usize..4)]);
            }
        }
        e
    }

    /// A constraint list as `simplify` can meet one: every member
    /// individually normal (as `push` leaves it), but with everything
    /// `simplify` exists to resolve — exact duplicates, one variable
    /// part under several constants, negated pairs whose constants sum
    /// below, at and above zero, duplicate equalities, an equality
    /// beside its own inequality pair — over expressions on both sides
    /// of the 3-term inline/heap boundary.
    fn random_list(rng: &mut StdRng, groups: usize, contradictory: bool) -> Vec<Constraint> {
        let mut out = Vec::new();
        let mut keep = |c: Constraint| {
            if let Norm::Keep(c) = c.into_norm() {
                out.push(c);
            }
        };
        for g in 0..groups {
            let n = [1, 1, 2, 3, 4, 9][rng.gen_range(0usize..6)];
            let e = random_terms(rng, n);
            let c = rng.gen_range(-6i64..=6);
            let with = |k: i64| e.clone() + LinExpr::constant(k);
            let neg_with = |k: i64| e.scaled(-1) + LinExpr::constant(k);
            match rng.gen_range(0u32..8) {
                0 => keep(Constraint::geq0(with(c))),
                1 => {
                    keep(Constraint::geq0(with(c)));
                    keep(Constraint::geq0(with(c)));
                    keep(Constraint::geq0(with(c + rng.gen_range(-3i64..=3))));
                }
                2 => {
                    keep(Constraint::geq0(with(c)));
                    keep(Constraint::geq0(neg_with(-c)));
                }
                3 => {
                    keep(Constraint::geq0(neg_with(-c + rng.gen_range(1i64..=4))));
                    keep(Constraint::geq0(with(c)));
                    keep(Constraint::geq0(with(c + 2)));
                }
                4 => {
                    keep(Constraint::eq0(with(c)));
                    keep(Constraint::eq0(with(c)));
                    keep(Constraint::eq0(neg_with(-c)));
                }
                5 => {
                    keep(Constraint::geq0(with(c)));
                    keep(Constraint::eq0(with(c)));
                    keep(Constraint::geq0(neg_with(-c)));
                    keep(Constraint::eq0(neg_with(-c)));
                }
                6 => keep(Constraint::eq0(with(c))),
                _ => {
                    keep(Constraint::geq0(with(c)));
                    keep(Constraint::geq0(neg_with(-c + 1)));
                    keep(Constraint::geq0(neg_with(-c + 3)));
                }
            }
            if contradictory && g == groups / 2 {
                keep(Constraint::geq0(with(c)));
                keep(Constraint::geq0(neg_with(-c - rng.gen_range(1i64..=3))));
            }
        }
        // Arrival order is arbitrary.
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        out
    }

    #[test]
    fn simplify_matches_map_based_reference() {
        let mut rng = StdRng::seed_from_u64(0x51_3a11);
        let (mut large, mut contradictions, mut pinned) = (0, 0, 0);
        for case in 0..4000 {
            // Mostly the handful of constraints the analysis produces;
            // every 16th list is past any small-size special case.
            let groups = if case % 16 == 0 {
                rng.gen_range(60usize..120)
            } else {
                rng.gen_range(0usize..6)
            };
            let list = random_list(&mut rng, groups, case % 7 == 0);
            large += usize::from(list.len() >= 129);
            let raw = System {
                constraints: list,
                ..System::default()
            };
            let (mut new, mut old) = (raw.clone(), raw.clone());
            new.simplify();
            old.simplify_reference();
            assert_eq!(
                new.constraints, old.constraints,
                "case {case}: constraint lists differ on {raw}"
            );
            assert_eq!(new.contradiction, old.contradiction, "case {case}: {raw}");
            contradictions += usize::from(new.contradiction);
            pinned += usize::from(
                new.constraints
                    .iter()
                    .filter(|c| c.kind == CKind::Eq)
                    .count()
                    > raw
                        .constraints
                        .iter()
                        .filter(|c| c.kind == CKind::Eq)
                        .count(),
            );
            // A second pass sees lists the first produced (among them a
            // pinned equality beside a copy of itself, which both
            // implementations keep on the first pass and merge on the
            // second).
            new.simplify();
            old.simplify_reference();
            assert_eq!(
                new.constraints, old.constraints,
                "case {case}: second pass differs on {raw}"
            );
        }
        // The generator reached the cases it was written for.
        assert!(large >= 100, "only {large} lists of >= 129 constraints");
        assert!(
            contradictions >= 300,
            "only {contradictions} contradictions"
        );
        assert!(pinned >= 300, "only {pinned} lists pinned an equality");
    }

    #[test]
    fn system_stays_within_32_bytes() {
        // The constraint list and the contradiction flag, nothing cached
        // beside them: every clone and every interned copy moves this.
        assert!(std::mem::size_of::<System>() <= 32);
    }

    #[test]
    fn disjunction_stays_within_32_bytes() {
        // The list of pieces, the exactness flag and the verdict cell,
        // which fits in the padding beside the flag. The cell is atomic
        // so a region behind an `Arc` stays shareable.
        fn shareable<T: Send + Sync>() {}
        shareable::<crate::Disjunction>();
        assert!(std::mem::size_of::<crate::Disjunction>() <= 32);
    }

    #[test]
    fn constraint_stays_within_56_bytes() {
        // Three packed inline terms, their count, the constant and the
        // kind (a fourth inline term would make these 64 and 72). Every
        // clone, sort, hash and free of a system moves this many bytes
        // per constraint; at 152 they were most of what `analyze` cost.
        assert!(std::mem::size_of::<LinExpr>() <= 48);
        assert!(std::mem::size_of::<Constraint>() <= 56);
    }

    #[test]
    fn overflowing_combination_is_dropped_inexact_and_counted() {
        // 3t >= 5x and 2^62·t <= y combine to 3y >= 5·2^62·x, whose
        // coefficient leaves the i64 range: the combination is dropped
        // like a capped one, and the bound on y survives.
        let big = 1 << 62;
        let s = System::from_constraints([
            Constraint::geq0(LinExpr::term(v("t"), 3) - LinExpr::term(v("x"), 5)),
            Constraint::geq0(lx("y") - LinExpr::term(v("t"), big)),
            Constraint::geq(lx("y"), k(0)),
        ]);
        let before = crate::limit_stats::thread_overflows();
        let p = s.eliminate(v("t"), lim());
        assert_eq!(crate::limit_stats::thread_overflows(), before + 1);
        assert!(!p.exact);
        assert_eq!(p.system.to_string(), "{y >= 0}");
    }

    #[test]
    fn truncated_elimination_does_not_keep_a_stale_box() {
        // Eliminating `t` from four lower and four upper bounds leaves
        // sixteen two-variable constraints beside the three bounds on
        // `y` and `z`; a cap of three keeps a sorted prefix of the
        // normal form, flags the projection inexact and counts one
        // overflow.
        let names = ["ta", "tb", "tc", "td", "te", "tf", "tg", "th"];
        let mut cs = Vec::new();
        for (n, name) in names.iter().enumerate() {
            let bound = lx(name) + k(n as i64);
            cs.push(if n < 4 {
                Constraint::geq(lx("t"), bound)
            } else {
                Constraint::leq(lx("t"), bound)
            });
        }
        cs.push(Constraint::geq(lx("z"), k(0)));
        cs.push(Constraint::leq(lx("z"), k(9)));
        cs.push(Constraint::geq(lx("y"), k(2)));
        let s = System::from_constraints(cs);
        let limits = Limits {
            max_constraints: 3,
            ..Limits::default()
        };
        let before = crate::limit_stats::thread_overflows();
        let p = s.eliminate(v("t"), limits);
        assert_eq!(crate::limit_stats::thread_overflows(), before + 1);
        assert!(!p.exact);
        assert_eq!(p.system.len(), 3);
        // The kept prefix is the three single-variable bounds.
        assert!(p
            .system
            .constraints()
            .iter()
            .all(|c| c.expr.num_terms() == 1));
    }

    #[test]
    fn extreme_constants_fall_through_instead_of_wrapping() {
        // `x + k == 0` pins x to -k and `x + k >= 0` bounds it there;
        // for k = i64::MIN that is 2^63, which no window can hold.
        for konst in [i64::MIN, i64::MIN + 1, i64::MAX] {
            for kind in [CKind::Eq, CKind::Geq] {
                let expr = lx("x") + k(konst);
                let s = System::from_constraints([Constraint { expr, kind }]);
                assert!(!s.quick_unsat(), "{s}");
                assert!(!s.is_empty(lim()), "{s}");
                assert!(!s.is_empty_by_elimination(lim()), "{s}");
                let sign = if konst < 0 { '-' } else { '+' };
                let op = if kind == CKind::Eq { "=" } else { ">=" };
                assert_eq!(
                    s.to_string(),
                    format!("{{x {sign} {} {op} 0}}", konst.unsigned_abs())
                );
                // The un-negatable constant next to a window it cannot
                // be compared with: still no verdict, still no panic.
                let mut t = s.clone();
                t.push(Constraint::leq(lx("x"), k(5)));
                assert_eq!(t.quick_unsat(), konst == i64::MIN + 1, "{t}");
            }
        }
    }

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

    /// 1 <= i <= 10
    fn box_i() -> System {
        System::from_constraints([
            Constraint::geq(lx("i"), k(1)),
            Constraint::leq(lx("i"), k(10)),
        ])
    }

    #[test]
    fn universe_and_empty() {
        assert!(System::universe().is_universe());
        assert!(System::empty().is_empty(lim()));
        assert!(!System::universe().is_empty(lim()));
    }

    #[test]
    fn contradiction_on_push() {
        let mut s = System::universe();
        s.push(Constraint::geq(k(0), k(1)));
        assert!(s.is_contradiction());
    }

    #[test]
    fn box_membership() {
        let s = box_i();
        assert_eq!(s.contains(&|_| Some(5)), Some(true));
        assert_eq!(s.contains(&|_| Some(0)), Some(false));
        assert_eq!(s.contains(&|_| Some(11)), Some(false));
    }

    #[test]
    fn empty_interval_detected() {
        // i >= 5 && i <= 4 is empty.
        let s = System::from_constraints([
            Constraint::geq(lx("i"), k(5)),
            Constraint::leq(lx("i"), k(4)),
        ]);
        assert!(s.is_empty(lim()));
    }

    #[test]
    fn simplify_merges_matched_pair_to_equality() {
        let s = System::from_constraints([
            Constraint::geq(lx("i"), k(3)),
            Constraint::leq(lx("i"), k(3)),
        ]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.constraints()[0].kind, CKind::Eq);
    }

    #[test]
    fn eliminate_with_unit_equality_is_exact() {
        // { j == i + 1, 1 <= i <= 9 } project out i => 2 <= j <= 10.
        let s = System::from_constraints([
            Constraint::eq(lx("j"), lx("i") + k(1)),
            Constraint::geq(lx("i"), k(1)),
            Constraint::leq(lx("i"), k(9)),
        ]);
        let p = s.eliminate(v("i"), lim());
        assert!(p.exact);
        assert_eq!(p.system.contains(&|_| Some(2)), Some(true));
        assert_eq!(p.system.contains(&|_| Some(10)), Some(true));
        assert_eq!(p.system.contains(&|_| Some(1)), Some(false));
        assert_eq!(p.system.contains(&|_| Some(11)), Some(false));
    }

    #[test]
    fn eliminate_inequalities_unit_coeff_exact() {
        // { 1 <= i <= n } project i: feasibility constraint n >= 1.
        let s = System::from_constraints([
            Constraint::geq(lx("i"), k(1)),
            Constraint::leq(lx("i"), lx("n")),
        ]);
        let p = s.eliminate(v("i"), lim());
        assert!(p.exact);
        let at = |n: i64| p.system.contains(&|_| Some(n)).unwrap();
        assert!(at(1));
        assert!(!at(0));
    }

    #[test]
    fn eliminate_nonunit_pair_is_inexact_but_sound() {
        // { 2i >= 1, 3i <= 4 }: rationally 0.5 <= i <= 4/3.
        // Integer tightening makes these i >= 1 and i <= 1 first, so the
        // combination stays exact; build untightenable ones instead:
        // { 2i - j >= 0, -3i + j >= 0 } over i.
        let s = System::from_constraints([
            Constraint::geq0(LinExpr::term(v("i"), 2) - lx("j")),
            Constraint::geq0(LinExpr::term(v("i"), -3) + lx("j")),
        ]);
        let p = s.eliminate(v("i"), lim());
        assert!(!p.exact);
        // j = 0 admits i = 0: shadow must contain j = 0.
        assert_eq!(p.system.contains(&|_| Some(0)), Some(true));
    }

    #[test]
    fn project_out_multiple() {
        // { 1 <= i <= 10, j == 2i } over (i) leaves j in [2, 20] (even-ness
        // lost when inexact, but bounds remain sound).
        let s = System::from_constraints([
            Constraint::geq(lx("i"), k(1)),
            Constraint::leq(lx("i"), k(10)),
            Constraint::eq(lx("j"), LinExpr::term(v("i"), 2)),
        ]);
        let p = s.project_out(&[v("i")], lim());
        let at = |j: i64| p.system.contains(&|_| Some(j)).unwrap();
        assert!(at(2));
        assert!(at(20));
        assert!(!at(0));
        assert!(!at(22));
    }

    #[test]
    fn implies_and_subset() {
        let s = box_i();
        assert!(s.implies(&Constraint::geq(lx("i"), k(0)), lim()));
        assert!(!s.implies(&Constraint::geq(lx("i"), k(2)), lim()));
        let wider = System::from_constraints([
            Constraint::geq(lx("i"), k(0)),
            Constraint::leq(lx("i"), k(20)),
        ]);
        assert!(s.subset_of(&wider, lim()));
        assert!(!wider.subset_of(&s, lim()));
    }

    #[test]
    fn symbolic_emptiness_is_conservative() {
        // { i >= n, i <= n - 1 } is empty for all n.
        let s = System::from_constraints([
            Constraint::geq(lx("i"), lx("n")),
            Constraint::leq(lx("i"), lx("n") - k(1)),
        ]);
        assert!(s.is_empty(lim()));
        // { i >= n, i <= m } cannot be proven empty.
        let s2 = System::from_constraints([
            Constraint::geq(lx("i"), lx("n")),
            Constraint::leq(lx("i"), lx("m")),
        ]);
        assert!(!s2.is_empty(lim()));
    }

    #[test]
    fn rename_and_subst() {
        let s = box_i();
        let r = s.rename(v("i"), v("i2"));
        assert!(r.mentions(v("i2")));
        assert!(!r.mentions(v("i")));
        let sub = s.subst(v("i"), &(lx("j") + k(1)));
        // 1 <= j + 1 <= 10  =>  0 <= j <= 9
        assert_eq!(sub.contains(&|_| Some(0)), Some(true));
        assert_eq!(sub.contains(&|_| Some(9)), Some(true));
        assert_eq!(sub.contains(&|_| Some(10)), Some(false));
    }
}
