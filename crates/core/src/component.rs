//! Predicated data-flow value components: sets of guarded regions.

use crate::session::AnalysisSession;
use padfa_omega::{Disjunction, Limits, Var};
use padfa_pred::{extract_symbolic, Pred};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One guarded region: "when `pred` holds, the component includes
/// `region`". Regions are shared immutable handles (interned by the
/// session when a query returns them), so cloning a piece never
/// deep-copies the constraint systems. A piece with `pred = True` is
/// unconditional.
#[derive(Clone, PartialEq, Debug)]
pub struct GuardedRegion {
    pub pred: Pred,
    pub region: Arc<Disjunction>,
}

/// A predicated component (one of W/MW/R/E for one array in one region):
/// the union over pieces of `pred ? region : ∅`.
///
/// * In **may** components (MW, R, E) the truth of unknown predicates is
///   over-approximated: a consumer that ignores predicates must take the
///   union of all pieces.
/// * In **must** components (W) unknown predicates are
///   under-approximated: only pieces whose predicate is implied by the
///   current assumption count as definitely written.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PredComponent {
    pub pieces: Vec<GuardedRegion>,
}

impl PredComponent {
    pub fn empty() -> PredComponent {
        PredComponent { pieces: Vec::new() }
    }

    pub fn single(pred: Pred, region: impl Into<Arc<Disjunction>>) -> PredComponent {
        let mut c = PredComponent::empty();
        c.push(pred, region);
        c
    }

    pub fn unconditional(region: impl Into<Arc<Disjunction>>) -> PredComponent {
        PredComponent::single(Pred::True, region)
    }

    /// Add a piece, dropping trivially-dead ones and merging with an
    /// existing piece that has the same predicate.
    pub fn push(&mut self, pred: Pred, region: impl Into<Arc<Disjunction>>) {
        let region = region.into();
        if pred.is_false() || region.is_empty_union() {
            return;
        }
        for p in &mut self.pieces {
            if p.pred == pred {
                p.region = Arc::new(p.region.union(&region, Limits::default()));
                return;
            }
        }
        self.pieces.push(GuardedRegion { pred, region });
    }

    /// Like [`PredComponent::push`], but same-predicate merges go
    /// through the session's [`AnalysisSession::union`], so the merged
    /// region is interned, charged and counted. (The session's limits
    /// equal the defaults used by `push`, so the resulting component is
    /// identical.)
    pub fn push_in(
        &mut self,
        pred: Pred,
        region: impl Into<Arc<Disjunction>>,
        sess: &AnalysisSession,
    ) {
        let region = region.into();
        if pred.is_false() || region.is_empty_union() {
            return;
        }
        for p in &mut self.pieces {
            if p.pred == pred {
                p.region = sess.union(&p.region, &region);
                return;
            }
        }
        self.pieces.push(GuardedRegion { pred, region });
    }

    /// Session-aware [`PredComponent::union`]: piece merges go through
    /// the session via [`PredComponent::push_in`].
    pub fn union_in(&self, other: &PredComponent, sess: &AnalysisSession) -> PredComponent {
        let mut out = self.clone();
        out.absorb_in(Cow::Borrowed(other), sess);
        out
    }

    /// In-place [`PredComponent::union_in`]: `self ∪= other` without
    /// copying the pieces `self` already holds, nor — when `other` is
    /// owned — the pieces it brings.
    pub fn absorb_in(&mut self, other: Cow<'_, PredComponent>, sess: &AnalysisSession) {
        match other {
            Cow::Borrowed(c) => {
                for p in &c.pieces {
                    self.push_in(p.pred.clone(), Arc::clone(&p.region), sess);
                }
            }
            Cow::Owned(c) => {
                for p in c.pieces {
                    self.push_in(p.pred, p.region, sess);
                }
            }
        }
    }

    /// True when no pieces remain.
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Sound emptiness of the whole component (ignoring predicates).
    pub fn is_region_empty(&self, sess: &AnalysisSession) -> bool {
        self.pieces.iter().all(|p| sess.is_empty(&p.region))
    }

    /// Union of two components.
    pub fn union(&self, other: &PredComponent) -> PredComponent {
        let mut out = self.clone();
        for p in &other.pieces {
            out.push(p.pred.clone(), p.region.clone());
        }
        out
    }

    /// Conjoin `guard` onto every piece (entering a conditional branch).
    pub fn guard(&self, guard: &Pred) -> PredComponent {
        if guard.is_true() {
            return self.clone();
        }
        let mut out = PredComponent::empty();
        for p in &self.pieces {
            out.push(Pred::and(guard.clone(), p.pred.clone()), p.region.clone());
        }
        out
    }

    /// The union of all regions regardless of predicates — the sound
    /// **may** reading of the component.
    pub fn may_region(&self, sess: &AnalysisSession) -> Arc<Disjunction> {
        let mut acc = Arc::new(Disjunction::empty());
        for p in &self.pieces {
            acc = sess.union(&acc, &p.region);
        }
        acc
    }

    /// The union of regions whose predicate is implied by `assume` — the
    /// sound **must** reading under an assumption.
    pub fn must_region(&self, assume: &Pred, sess: &AnalysisSession) -> Arc<Disjunction> {
        let mut acc = Arc::new(Disjunction::empty());
        for p in &self.pieces {
            if sess.implies(assume, &p.pred) {
                acc = sess.union(&acc, &p.region);
            }
        }
        acc
    }

    /// Degrade pieces whose predicate mentions an unstable variable
    /// (modified within the enclosing region, so the predicate's value at
    /// region entry is unknown).
    ///
    /// * may components: the piece's predicate weakens to `True`;
    /// * must components (`may = false`): the piece is dropped.
    ///
    /// When no piece's guard reads an unstable variable — every
    /// `Pred::True` piece among them — nothing changes, and `self` is
    /// returned borrowed: re-pushing the pieces of a component built by
    /// [`PredComponent::push`] rebuilds it as it is.
    pub fn degrade_unstable(
        &self,
        unstable: &dyn Fn(Var) -> bool,
        may: bool,
    ) -> Cow<'_, PredComponent> {
        let reads_unstable = |p: &GuardedRegion| p.pred.scalar_vars().iter().any(|&v| unstable(v));
        if !self.pieces.iter().any(reads_unstable) {
            debug_assert!(self.is_pushed(), "not a pushed component: {self}");
            return Cow::Borrowed(self);
        }
        let mut out = PredComponent::empty();
        for p in &self.pieces {
            if reads_unstable(p) {
                if may {
                    out.push(Pred::True, p.region.clone());
                }
            } else {
                out.push(p.pred.clone(), p.region.clone());
            }
        }
        Cow::Owned(out)
    }

    /// What [`PredComponent::push`] guarantees: no `False` guard, no
    /// region without pieces, no two pieces under one guard.
    fn is_pushed(&self) -> bool {
        self.pieces.iter().enumerate().all(|(i, p)| {
            !p.pred.is_false()
                && !p.region.is_empty_union()
                && self.pieces[..i].iter().all(|q| q.pred != p.pred)
        })
    }

    /// Bound the number of pieces. Overflow pieces merge pairwise:
    /// for may components the merged predicate is the disjunction (the
    /// region may be accessed if either guard held); for must components
    /// the conjunction (both writes happen only when both guards hold).
    /// Idempotent: normalizing a normalized component changes nothing.
    pub fn normalize(&mut self, max_pieces: usize, may: bool, sess: &AnalysisSession) {
        self.pieces
            .retain(|p| !p.pred.is_false() && !sess.is_empty(&p.region));
        // Keep unconditional pieces first (they are the "default" value).
        self.pieces.sort_by_key(|p| !p.pred.is_true());
        while self.pieces.len() > max_pieces.max(1) {
            let (Some(b), Some(a)) = (self.pieces.pop(), self.pieces.pop()) else {
                break; // unreachable: the loop guard keeps len >= 2
            };
            let pred = if may {
                Pred::or(a.pred, b.pred)
            } else {
                Pred::and(a.pred, b.pred)
            };
            let region = sess.union(&a.region, &b.region);
            self.push(pred, region);
        }
        // A may-merge whose disjunction collapsed to `True` was pushed
        // behind the guarded pieces; restore the order so a second
        // pass is the identity (`Summary::seq` relies on that).
        self.pieces.sort_by_key(|p| !p.pred.is_true());
    }

    /// Project variables out of every region. For must components
    /// (`may = false`) pieces whose projection is inexact are dropped
    /// (an over-approximated must-region would be unsound).
    pub fn project_out(&self, vars: &[Var], may: bool, sess: &AnalysisSession) -> PredComponent {
        let mut out = PredComponent::empty();
        for p in &self.pieces {
            let r = sess.project_out(&p.region, vars);
            if !may && !r.is_exact() {
                continue;
            }
            out.push(p.pred.clone(), r);
        }
        out
    }

    /// The pieces whose region is exact. On the result of a may
    /// projection this is the must projection of the same component —
    /// `c.project_out(v, true, sess).exact_pieces()` equals
    /// `c.project_out(v, false, sess)`, without projecting again.
    pub(crate) fn exact_pieces(&self) -> PredComponent {
        PredComponent {
            pieces: self
                .pieces
                .iter()
                .filter(|p| p.region.is_exact())
                .cloned()
                .collect(),
        }
    }

    /// Rename a variable in every region (predicates are untouched:
    /// renaming is used for the primed iteration copy, and predicates are
    /// loop-invariant by the time tests run).
    pub fn rename_regions(&self, from: Var, to: Var) -> PredComponent {
        PredComponent {
            pieces: self
                .pieces
                .iter()
                .map(|p| GuardedRegion {
                    pred: p.pred.clone(),
                    region: Arc::new(p.region.rename(from, to)),
                })
                .collect(),
        }
    }

    /// `PredSubtract`: subtract a must component from this may component
    /// (used for `E2 − W1` in sequence composition and for exposed reads
    /// across iterations).
    ///
    /// For each piece `(p, e)` of `self` and must piece `(q, w)`:
    /// * if `p ⇒ q`, the write definitely precedes the read whenever the
    ///   read happens: subtract regions directly;
    /// * otherwise, when predicates are enabled, split into an
    ///   optimistic piece `(p ∧ q, e − w)` and a pessimistic piece
    ///   `(p ∧ ¬q, e)`;
    /// * without predicates, only unconditional writes subtract.
    ///
    /// When `extract` is provided (predicate **extraction** enabled), any
    /// remainder system whose constraints over variables classified
    /// symbolic can be peeled off has that condition moved into the
    /// piece's predicate: the exposed region is nonempty *only when the
    /// extracted condition holds*.
    pub fn pred_subtract(
        &self,
        w: &PredComponent,
        predicates: bool,
        extract: Option<&dyn Fn(Var) -> bool>,
        sess: &AnalysisSession,
        extraction_fired: &mut bool,
    ) -> PredComponent {
        let mut cur = self.clone();
        for wp in &w.pieces {
            let mut next = PredComponent::empty();
            for ep in &cur.pieces {
                if wp.pred.is_true() || sess.implies(&ep.pred, &wp.pred) {
                    let rem = sess.subtract(&ep.region, &wp.region);
                    next.push(ep.pred.clone(), rem);
                } else if predicates {
                    let optimistic = Pred::and(ep.pred.clone(), wp.pred.clone());
                    if !optimistic.is_false() {
                        let rem = sess.subtract(&ep.region, &wp.region);
                        next.push(optimistic, rem);
                    }
                    let pessimistic = Pred::and(ep.pred.clone(), wp.pred.negate());
                    if !pessimistic.is_false() {
                        next.push(pessimistic, ep.region.clone());
                    }
                } else {
                    next.push(ep.pred.clone(), ep.region.clone());
                }
            }
            cur = next;
        }
        if let Some(is_symbolic) = extract {
            cur = cur.extract_predicates(is_symbolic, sess, extraction_fired);
        }
        cur
    }

    /// Apply predicate extraction to every piece.
    ///
    /// Two conditions move into the piece predicate:
    /// * constraints over symbolic variables only, verbatim;
    /// * the projection of the remaining constraints onto the symbolic
    ///   variables — the (over-approximated, hence sound-to-negate)
    ///   condition for the region to be non-empty. This is how
    ///   emptiness conditions like "`n < 10` ⇒ something stays exposed"
    ///   become run-time tests.
    pub fn extract_predicates(
        &self,
        is_symbolic: &dyn Fn(Var) -> bool,
        sess: &AnalysisSession,
        fired: &mut bool,
    ) -> PredComponent {
        let limits = sess.limits();
        let mut out = PredComponent::empty();
        for p in &self.pieces {
            if p.region.is_empty_union() {
                continue;
            }
            for sys in p.region.systems() {
                let (q_direct, residual) = extract_symbolic(sys, is_symbolic);
                // Emptiness condition of the residual: project out the
                // non-symbolic variables; what remains constrains only
                // symbolics and must hold for any point to exist.
                let junk: Vec<Var> = residual
                    .vars()
                    .into_iter()
                    .filter(|&v| !is_symbolic(v))
                    .collect();
                sess.note_fm_projection();
                let proj = residual.project_out(&junk, limits);
                let (q_proj, leftover) = extract_symbolic(&proj.system, is_symbolic);
                // `leftover` can only be non-universe if projection left
                // non-symbolic constraints behind, which project_out
                // precludes; guard defensively anyway.
                let q = if leftover.is_universe() {
                    Pred::and(q_direct, q_proj)
                } else {
                    q_direct
                };
                if q.is_true() {
                    let mut r = Disjunction::from_system(sys.clone());
                    if !p.region.is_exact() {
                        r.set_inexact();
                    }
                    out.push(p.pred.clone(), r);
                } else {
                    *fired = true;
                    let mut r = Disjunction::from_system(residual.clone());
                    if !p.region.is_exact() {
                        r.set_inexact();
                    }
                    out.push(Pred::and(p.pred.clone(), q), r);
                }
            }
        }
        out
    }
}

impl fmt::Display for PredComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pieces.is_empty() {
            return write!(f, "∅");
        }
        for (i, p) in self.pieces.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{} -> {}]", p.pred, p.region)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use padfa_omega::{Constraint, LinExpr, System};
    use padfa_pred::Pred;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn sess() -> AnalysisSession {
        AnalysisSession::new(Options::predicated())
    }
    fn lim() -> Limits {
        Limits::default()
    }

    fn interval(var: &str, lo: i64, hi: i64) -> Disjunction {
        Disjunction::from_system(System::from_constraints([
            Constraint::geq(LinExpr::var(v(var)), LinExpr::constant(lo)),
            Constraint::leq(LinExpr::var(v(var)), LinExpr::constant(hi)),
        ]))
    }

    fn pred(src: &str) -> Pred {
        Pred::from_bool(&padfa_ir::parse::parse_bool_expr(src).unwrap())
    }

    #[test]
    fn push_merges_equal_preds() {
        let mut c = PredComponent::empty();
        c.push(pred("x > 1"), interval("d", 1, 3));
        c.push(pred("x > 1"), interval("d", 7, 9));
        assert_eq!(c.pieces.len(), 1);
        assert_eq!(c.pieces[0].region.len(), 2);
    }

    #[test]
    fn may_and_must_readings() {
        let s = sess();
        let mut c = PredComponent::empty();
        c.push(Pred::True, interval("d", 1, 3));
        c.push(pred("x > 1"), interval("d", 5, 8));
        let may = c.may_region(&s);
        assert_eq!(may.contains(&|_| Some(6)), Some(true));
        // Under no assumption, only the unconditional piece is must.
        let must = c.must_region(&Pred::True, &s);
        assert_eq!(must.contains(&|_| Some(6)), Some(false));
        assert_eq!(must.contains(&|_| Some(2)), Some(true));
        // Under the assumption x > 1, both pieces are must.
        let must2 = c.must_region(&pred("x > 1"), &s);
        assert_eq!(must2.contains(&|_| Some(6)), Some(true));
    }

    #[test]
    fn guard_conjoins() {
        let c = PredComponent::unconditional(interval("d", 1, 3)).guard(&pred("x > 0"));
        assert_eq!(c.pieces[0].pred, pred("x > 0"));
    }

    #[test]
    fn degrade_unstable_directions() {
        let mut c = PredComponent::empty();
        c.push(pred("x > 1"), interval("d", 1, 3));
        let xvar = v("x");
        let may = c.degrade_unstable(&|w| w == xvar, true);
        assert!(may.pieces[0].pred.is_true());
        let must = c.degrade_unstable(&|w| w == xvar, false);
        assert!(must.is_empty());
        // Stable predicates survive.
        let keep = c.degrade_unstable(&|_| false, false);
        assert_eq!(keep.pieces[0].pred, pred("x > 1"));
    }

    #[test]
    fn normalize_caps_pieces() {
        let mut c = PredComponent::empty();
        c.push(Pred::True, interval("d", 1, 2));
        c.push(pred("x > 1"), interval("d", 3, 4));
        c.push(pred("y > 1"), interval("d", 5, 6));
        c.push(pred("z > 1"), interval("d", 7, 8));
        let s = sess();
        let mut may = c.clone();
        may.normalize(2, true, &s);
        assert!(may.pieces.len() <= 2);
        // All regions must still be covered (may = over-approx).
        let m = may.may_region(&s);
        for x in [1, 3, 5, 7] {
            assert_eq!(m.contains(&|_| Some(x)), Some(true));
        }
    }

    #[test]
    fn normalize_is_idempotent() {
        // `Summary::seq` carries untouched slots forward without
        // re-normalizing them, so a second pass must change nothing:
        // not the pieces, not their order.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let pool = [
            Pred::True,
            pred("x > 1"),
            pred("x <= 1"),
            pred("y > 1"),
            pred("y <= 1"),
            pred("z > 0"),
            pred("x > 5"),
        ];
        let s = sess();
        let mut rng = StdRng::seed_from_u64(0x1de0);
        for case in 0..2000 {
            let mut c = PredComponent::empty();
            for _ in 0..rng.gen_range(0..8) {
                let lo: i64 = rng.gen_range(-2..20);
                // `hi = lo - 1` is an empty interval that only the
                // emptiness query (not `push`) recognizes.
                let hi = lo + rng.gen_range(-1..6i64);
                let p = pool[rng.gen_range(0..pool.len())].clone();
                c.push(p, interval("d", lo, hi));
            }
            for may in [true, false] {
                for max_pieces in 1..=4 {
                    let mut once = c.clone();
                    once.normalize(max_pieces, may, &s);
                    let mut twice = once.clone();
                    twice.normalize(max_pieces, may, &s);
                    assert_eq!(
                        once, twice,
                        "case {case} may={may} max_pieces={max_pieces}: from {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn pred_subtract_implied_guard() {
        // E = [1,10] under p; W = [1,10] under p. p ⇒ p: remainder empty.
        let s = sess();
        let e = PredComponent::single(pred("x > 1"), interval("d", 1, 10));
        let w = PredComponent::single(pred("x > 1"), interval("d", 1, 10));
        let mut fired = false;
        let r = e.pred_subtract(&w, true, None, &s, &mut fired);
        assert!(r.is_region_empty(&s));
        assert!(!fired);
    }

    #[test]
    fn pred_subtract_splits_on_unrelated_guard() {
        // E unconditional [1,10]; W guarded by x > 1 over [1,10]:
        // remainder exposed only when !(x > 1).
        let s = sess();
        let e = PredComponent::unconditional(interval("d", 1, 10));
        let w = PredComponent::single(pred("x > 1"), interval("d", 1, 10));
        let mut fired = false;
        let r = e.pred_subtract(&w, true, None, &s, &mut fired);
        // One piece (x > 1, ∅) dropped; one piece (x <= 1, [1,10]).
        assert_eq!(r.pieces.len(), 1);
        assert_eq!(r.pieces[0].pred, pred("x <= 1"));
        // Without predicates the subtraction cannot happen at all.
        let r2 = e.pred_subtract(&w, false, None, &s, &mut fired);
        assert_eq!(r2.pieces[0].pred, Pred::True);
        assert_eq!(r2.pieces[0].region.contains(&|_| Some(5)), Some(true));
    }

    #[test]
    fn pred_subtract_extraction() {
        // E = [1,10]; W = [1,n] (n symbolic): remainder [n+1,10] exposed
        // only when n < 10 — extraction moves that into the predicate.
        let e = PredComponent::unconditional(interval("d", 1, 10));
        let w = PredComponent::unconditional(Disjunction::from_system(System::from_constraints([
            Constraint::geq(LinExpr::var(v("d")), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(v("d")), LinExpr::var(v("n"))),
        ])));
        let s = sess();
        let mut fired = false;
        let nvar = v("n");
        let r = e.pred_subtract(&w, true, Some(&|x| x == nvar), &s, &mut fired);
        assert!(fired, "extraction should fire");
        assert_eq!(r.pieces.len(), 1);
        // The predicate must say n <= 9 (i.e. n + 1 <= 10).
        assert!(pred("n <= 9").implies(&r.pieces[0].pred, lim()));
        assert!(r.pieces[0].pred.implies(&pred("n <= 9"), lim()));
    }

    #[test]
    fn project_out_must_drops_inexact() {
        // A region whose projection is inexact must vanish from a must
        // component but stay in a may component.
        let sys = System::from_constraints([
            Constraint::geq0(LinExpr::term(v("q"), 2) - LinExpr::var(v("d"))),
            Constraint::geq0(LinExpr::term(v("q"), -3) + LinExpr::var(v("d"))),
        ]);
        let s = sess();
        let c = PredComponent::unconditional(Disjunction::from_system(sys));
        let qv = v("q");
        let must = c.project_out(&[qv], false, &s);
        assert!(must.is_empty());
        let may = c.project_out(&[qv], true, &s);
        assert!(!may.is_empty());
    }

    #[test]
    fn exact_pieces_of_may_projection_is_must_projection() {
        // One guarded piece projects exactly, the other does not.
        let inexact = System::from_constraints([
            Constraint::geq0(LinExpr::term(v("q"), 2) - LinExpr::var(v("d"))),
            Constraint::geq0(LinExpr::term(v("q"), -3) + LinExpr::var(v("d"))),
        ]);
        let s = sess();
        let mut c = PredComponent::unconditional(interval("d", 1, 5));
        c.push(pred("n > 3"), Disjunction::from_system(inexact));
        let qv = v("q");
        let must = c.project_out(&[qv], false, &s);
        assert_eq!(must.pieces.len(), 1);
        assert_eq!(c.project_out(&[qv], true, &s).exact_pieces(), must);
    }
}
