//! Data-flow summaries of program regions and their composition rules.

use crate::component::PredComponent;
use crate::session::AnalysisSession;
use crate::varmap::{VarMap, VarSet};
use padfa_omega::Var;
use padfa_pred::Pred;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// Per-array summary of one program region.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ArraySummary {
    /// Must-write regions (under-approximate).
    pub w: PredComponent,
    /// May-write regions (over-approximate).
    pub mw: PredComponent,
    /// May-read regions.
    pub r: PredComponent,
    /// Upward-exposed may-read regions.
    pub e: PredComponent,
}

impl ArraySummary {
    pub fn is_empty(&self) -> bool {
        self.w.is_empty() && self.mw.is_empty() && self.r.is_empty() && self.e.is_empty()
    }

    /// Normalize all four components ([`PredComponent::normalize`]): `W`
    /// as the must component, `MW`/`R`/`E` as may components.
    pub fn normalize(&mut self, sess: &AnalysisSession) {
        let max_pieces = sess.opts.max_pieces;
        self.w.normalize(max_pieces, false, sess);
        self.mw.normalize(max_pieces, true, sess);
        self.r.normalize(max_pieces, true, sess);
        self.e.normalize(max_pieces, true, sess);
    }
}

/// Per-scalar summary. Scalars get the classical (unpredicated)
/// treatment; the paper's contribution concerns array values.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScalarSummary {
    /// Definitely assigned in the region.
    pub must_write: bool,
    /// Possibly assigned.
    pub may_write: bool,
    /// Possibly read before any definite assignment in the region.
    pub exposed_read: bool,
}

/// Summary of one program region (basic block, if, loop body, loop,
/// call, or procedure body).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Summary {
    pub arrays: VarMap<ArraySummary>,
    pub scalars: VarMap<ScalarSummary>,
    /// Scalars possibly modified in the region (predicate stability).
    pub scalar_writes: VarSet,
    /// Region performs read I/O (disqualifies enclosing loops).
    pub has_io: bool,
    /// Region contains an internal loop exit.
    pub has_exit: bool,
    /// The summary was replaced by a budget-degraded conservative
    /// summary (or composes one): sound but maximally imprecise.
    pub degraded: bool,
}

impl Summary {
    pub fn empty() -> Summary {
        Summary::default()
    }

    pub fn array_mut(&mut self, a: Var) -> &mut ArraySummary {
        self.arrays.entry(a).or_default()
    }

    pub fn scalar_mut(&mut self, s: Var) -> &mut ScalarSummary {
        self.scalars.entry(s).or_default()
    }

    /// Record a scalar read at the start of this (elementary) summary.
    pub fn read_scalar(&mut self, s: Var) {
        let sc = self.scalar_mut(s);
        if !sc.must_write {
            sc.exposed_read = true;
        }
    }

    /// Record a definite scalar write.
    pub fn write_scalar(&mut self, s: Var) {
        let sc = self.scalar_mut(s);
        sc.must_write = true;
        sc.may_write = true;
        self.scalar_writes.insert(s);
    }

    /// Sequential composition `self ; next`.
    ///
    /// * `R = R1 ∪ R2`
    /// * `E = E1 ∪ PredSubtract(E2, W1)`
    /// * `W = W1 ∪ W2`, `MW = MW1 ∪ MW2`
    ///
    /// Predicates in `next` refer to program state at its entry; pieces
    /// whose predicate reads a scalar `self` may modify are degraded
    /// (weakened to `True` in may components, dropped from must
    /// components).
    ///
    /// Only the arrays and scalars `next` mentions are visited: every
    /// other slot of `self` is carried forward unmoved, so folding a
    /// block costs lattice work proportional to what its statements
    /// touch, not to statements × arrays. The caller guarantees that the
    /// array slots `next` does not mention are normalized already
    /// ([`ArraySummary::normalize`] is idempotent, so running it on them
    /// again would change nothing): true of every `seq` / `if_merge`
    /// result and of the empty summary, not of a summary assembled from
    /// raw access sections.
    pub fn seq(mut self, next: &Summary, sess: &AnalysisSession) -> Summary {
        let preds = sess.opts.predicates_enabled();
        // `next` is degraded against what `self` alone writes.
        let writes = &self.scalar_writes;
        let unstable = |v: Var| writes.contains(&v);
        for (&a, s2) in &next.arrays {
            let s1 = self.arrays.entry(a).or_default();

            let w2 = s2.w.degrade_unstable(&unstable, false);
            let mw2 = s2.mw.degrade_unstable(&unstable, true);
            let r2 = s2.r.degrade_unstable(&unstable, true);
            let e2 = s2.e.degrade_unstable(&unstable, true);

            let mut fired = false;
            let e2_minus_w1 = e2.pred_subtract(&s1.w, preds, None, sess, &mut fired);

            s1.w.absorb_in(w2, sess);
            s1.mw.absorb_in(mw2, sess);
            s1.r.absorb_in(r2, sess);
            s1.e.absorb_in(Cow::Owned(e2_minus_w1), sess);
            s1.normalize(sess);
        }

        for (&s, b) in &next.scalars {
            let a = self.scalars.entry(s).or_default();
            a.exposed_read |= b.exposed_read && !a.must_write;
            a.must_write |= b.must_write;
            a.may_write |= b.may_write;
        }

        for &v in &next.scalar_writes {
            self.scalar_writes.insert(v);
        }
        self.has_io |= next.has_io;
        self.has_exit |= next.has_exit;
        self.degraded |= next.degraded;
        self
    }

    /// Merge the two branches of `if (cond)`.
    ///
    /// With predicates enabled each branch's pieces are guarded by the
    /// branch condition (so a write under `cond` stays a *guarded
    /// must-write*). The unpredicated baseline must intersect must-writes
    /// and union everything else — precisely the precision loss the paper
    /// addresses.
    pub fn if_merge(
        cond_pred: &Pred,
        then_s: &Summary,
        else_s: &Summary,
        sess: &AnalysisSession,
    ) -> Summary {
        let opts = &sess.opts;
        let mut out = Summary::empty();
        out.has_io = then_s.has_io || else_s.has_io;
        out.has_exit = then_s.has_exit || else_s.has_exit;
        out.degraded = then_s.degraded || else_s.degraded;
        out.scalar_writes = then_s.scalar_writes.union(&else_s.scalar_writes);

        let keys: BTreeSet<Var> = then_s
            .arrays
            .keys()
            .chain(else_s.arrays.keys())
            .copied()
            .collect();
        let neg = cond_pred.negate();
        for a in keys {
            let empty = ArraySummary::default();
            let t = then_s.arrays.get(&a).unwrap_or(&empty);
            let e = else_s.arrays.get(&a).unwrap_or(&empty);
            let mut acc = if opts.predicates_enabled() {
                ArraySummary {
                    w: t.w.guard(cond_pred).union_in(&e.w.guard(&neg), sess),
                    mw: t.mw.guard(cond_pred).union_in(&e.mw.guard(&neg), sess),
                    r: t.r.guard(cond_pred).union_in(&e.r.guard(&neg), sess),
                    e: t.e.guard(cond_pred).union_in(&e.e.guard(&neg), sess),
                }
            } else {
                // Base SUIF: W must hold on both paths.
                let w = intersect_must(&t.w, &e.w, sess);
                ArraySummary {
                    w,
                    mw: t.mw.union_in(&e.mw, sess),
                    r: t.r.union_in(&e.r, sess),
                    e: t.e.union_in(&e.e, sess),
                }
            };
            acc.normalize(sess);
            out.arrays.insert(a, acc);
        }

        let skeys: BTreeSet<Var> = then_s
            .scalars
            .keys()
            .chain(else_s.scalars.keys())
            .copied()
            .collect();
        for s in skeys {
            let a = then_s.scalars.get(&s).copied().unwrap_or_default();
            let b = else_s.scalars.get(&s).copied().unwrap_or_default();
            out.scalars.insert(
                s,
                ScalarSummary {
                    must_write: a.must_write && b.must_write,
                    may_write: a.may_write || b.may_write,
                    exposed_read: a.exposed_read || b.exposed_read,
                },
            );
        }
        out
    }
}

#[cfg(test)]
impl Summary {
    /// Reference composition for the differential tests: the original
    /// `seq`, which rebuilds, re-unions and re-normalizes every array
    /// and scalar of either operand and assumes nothing about `self`.
    pub(crate) fn seq_all_keys(&self, next: &Summary, sess: &AnalysisSession) -> Summary {
        let opts = &sess.opts;
        let mut out = Summary::empty();
        out.has_io = self.has_io || next.has_io;
        out.has_exit = self.has_exit || next.has_exit;
        out.degraded = self.degraded || next.degraded;
        out.scalar_writes = self.scalar_writes.union(&next.scalar_writes);

        let writes = &self.scalar_writes;
        let unstable = |v: Var| writes.contains(&v);
        let preds = opts.predicates_enabled();

        let keys: BTreeSet<Var> = self
            .arrays
            .keys()
            .chain(next.arrays.keys())
            .copied()
            .collect();
        for a in keys {
            let empty = ArraySummary::default();
            let s1 = self.arrays.get(&a).unwrap_or(&empty);
            let s2 = next.arrays.get(&a).unwrap_or(&empty);

            let w2 = s2.w.degrade_unstable(&unstable, false);
            let mw2 = s2.mw.degrade_unstable(&unstable, true);
            let r2 = s2.r.degrade_unstable(&unstable, true);
            let e2 = s2.e.degrade_unstable(&unstable, true);

            let mut fired = false;
            let e2_minus_w1 = e2.pred_subtract(&s1.w, preds, None, sess, &mut fired);

            let mut acc = ArraySummary {
                w: s1.w.union_in(&w2, sess),
                mw: s1.mw.union_in(&mw2, sess),
                r: s1.r.union_in(&r2, sess),
                e: s1.e.union_in(&e2_minus_w1, sess),
            };
            acc.w.normalize(opts.max_pieces, false, sess);
            acc.mw.normalize(opts.max_pieces, true, sess);
            acc.r.normalize(opts.max_pieces, true, sess);
            acc.e.normalize(opts.max_pieces, true, sess);
            out.arrays.insert(a, acc);
        }

        let skeys: BTreeSet<Var> = self
            .scalars
            .keys()
            .chain(next.scalars.keys())
            .copied()
            .collect();
        for s in skeys {
            let a = self.scalars.get(&s).copied().unwrap_or_default();
            let b = next.scalars.get(&s).copied().unwrap_or_default();
            out.scalars.insert(
                s,
                ScalarSummary {
                    must_write: a.must_write || b.must_write,
                    may_write: a.may_write || b.may_write,
                    exposed_read: a.exposed_read || (b.exposed_read && !a.must_write),
                },
            );
        }
        out
    }
}

/// Unpredicated must-write intersection (both branches definitely write
/// the intersection of their must regions).
fn intersect_must(a: &PredComponent, b: &PredComponent, sess: &AnalysisSession) -> PredComponent {
    let ra = a.must_region(&Pred::True, sess);
    let rb = b.must_region(&Pred::True, sess);
    let inter = sess.intersect(&ra, &rb);
    if inter.is_empty_union() || !inter.is_exact() {
        PredComponent::empty()
    } else {
        PredComponent::unconditional(inter)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.degraded {
            writeln!(f, "(degraded: budget-exhausted conservative summary)")?;
        }
        for (a, s) in &self.arrays {
            writeln!(f, "{a}: W={} MW={} R={} E={}", s.w, s.mw, s.r, s.e)?;
        }
        for (v, s) in &self.scalars {
            writeln!(
                f,
                "{v}: must={} may={} exposed={}",
                s.must_write, s.may_write, s.exposed_read
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::PredComponent;
    use crate::options::Options;
    use padfa_omega::{Constraint, Disjunction, LinExpr, System};

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    fn psess() -> AnalysisSession {
        AnalysisSession::new(Options::predicated())
    }

    fn bsess() -> AnalysisSession {
        AnalysisSession::new(Options::base())
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

    fn writes(a: &str, lo: i64, hi: i64) -> Summary {
        let mut s = Summary::empty();
        let arr = s.array_mut(v(a));
        let r = interval("d", lo, hi);
        arr.w = PredComponent::unconditional(r.clone());
        arr.mw = PredComponent::unconditional(r);
        s
    }

    fn reads(a: &str, lo: i64, hi: i64) -> Summary {
        let mut s = Summary::empty();
        let arr = s.array_mut(v(a));
        let r = interval("d", lo, hi);
        arr.r = PredComponent::unconditional(r.clone());
        arr.e = PredComponent::unconditional(r);
        s
    }

    #[test]
    fn seq_kills_covered_reads() {
        let sess = psess();
        // write a[1..10]; read a[1..10]: nothing exposed.
        let s = writes("a", 1, 10).seq(&reads("a", 1, 10), &sess);
        let e = &s.arrays[&v("a")].e;
        assert!(e.is_region_empty(&sess));
        // Reads beyond the write stay exposed.
        let s2 = writes("a", 1, 5).seq(&reads("a", 1, 10), &sess);
        let e2 = s2.arrays[&v("a")].e.may_region(&sess);
        assert_eq!(e2.contains(&|_| Some(7)), Some(true));
        assert_eq!(e2.contains(&|_| Some(3)), Some(false));
    }

    #[test]
    fn seq_read_then_write_is_exposed() {
        let sess = psess();
        let s = reads("a", 1, 10).seq(&writes("a", 1, 10), &sess);
        let e = s.arrays[&v("a")].e.may_region(&sess);
        assert_eq!(e.contains(&|_| Some(5)), Some(true));
    }

    #[test]
    fn if_merge_predicated_keeps_guarded_must_write() {
        let t = writes("a", 1, 10);
        let e = Summary::empty();
        let sess = psess();
        let m = Summary::if_merge(&pred("x > 5"), &t, &e, &sess);
        let w = &m.arrays[&v("a")].w;
        assert_eq!(w.pieces.len(), 1);
        assert_eq!(w.pieces[0].pred, pred("x > 5"));
        // Must region under assumption x > 5 is the full write.
        let must = w.must_region(&pred("x > 5"), &sess);
        assert_eq!(must.contains(&|_| Some(5)), Some(true));
        // Unconditional must region is empty.
        assert!(w.must_region(&Pred::True, &sess).is_empty_union());
    }

    #[test]
    fn if_merge_base_intersects_must_writes() {
        let t = writes("a", 1, 10);
        let e = writes("a", 5, 20);
        let sess = bsess();
        let m = Summary::if_merge(&pred("x > 5"), &t, &e, &sess);
        let w = m.arrays[&v("a")].w.must_region(&Pred::True, &sess);
        assert_eq!(w.contains(&|_| Some(7)), Some(true));
        assert_eq!(w.contains(&|_| Some(2)), Some(false), "only then-branch");
        assert_eq!(w.contains(&|_| Some(15)), Some(false), "only else-branch");
        // One-sided write: must is empty in base.
        let m2 = Summary::if_merge(&pred("x > 5"), &t, &Summary::empty(), &sess);
        assert!(m2.arrays[&v("a")]
            .w
            .must_region(&Pred::True, &sess)
            .is_empty_union());
    }

    #[test]
    fn guarded_write_kills_guarded_read_in_seq() {
        // if (x>5) write a[1..10]; then if (x>5) read a[1..10]:
        // predicated analysis proves nothing is exposed (Figure 1(a)).
        let sess = psess();
        let w = Summary::if_merge(
            &pred("x > 5"),
            &writes("a", 1, 10),
            &Summary::empty(),
            &sess,
        );
        let r = Summary::if_merge(&pred("x > 5"), &reads("a", 1, 10), &Summary::empty(), &sess);
        let s = w.seq(&r, &sess);
        assert!(s.arrays[&v("a")].e.is_region_empty(&sess));
        // Base analysis leaves the read exposed.
        let sess_b = bsess();
        let wb = Summary::if_merge(
            &pred("x > 5"),
            &writes("a", 1, 10),
            &Summary::empty(),
            &sess_b,
        );
        let rb = Summary::if_merge(
            &pred("x > 5"),
            &reads("a", 1, 10),
            &Summary::empty(),
            &sess_b,
        );
        let sb = wb.seq(&rb, &sess_b);
        assert!(!sb.arrays[&v("a")].e.is_region_empty(&sess_b));
    }

    #[test]
    fn seq_degrades_predicates_on_modified_scalars() {
        // S1 writes scalar x; S2's pieces guarded by x > 5 must degrade.
        let mut s1 = Summary::empty();
        s1.write_scalar(v("x"));
        let sess = psess();
        let s2 = Summary::if_merge(
            &pred("x > 5"),
            &writes("a", 1, 10),
            &Summary::empty(),
            &sess,
        );
        let s = s1.seq(&s2, &sess);
        let arr = &s.arrays[&v("a")];
        // Must-write piece dropped entirely.
        assert!(arr.w.is_empty());
        // May-write piece degraded to unconditional.
        assert_eq!(arr.mw.pieces.len(), 1);
        assert!(arr.mw.pieces[0].pred.is_true());
    }

    #[test]
    fn scalar_composition() {
        let mut s1 = Summary::empty();
        s1.write_scalar(v("t"));
        let mut s2 = Summary::empty();
        s2.read_scalar(v("t"));
        let sess = psess();
        // write; read => not exposed.
        let a = s1.clone().seq(&s2, &sess);
        assert!(!a.scalars[&v("t")].exposed_read);
        // read; write => exposed.
        let b = s2.seq(&s1, &sess);
        assert!(b.scalars[&v("t")].exposed_read);
    }

    #[test]
    fn if_merge_scalars() {
        let mut t = Summary::empty();
        t.write_scalar(v("t"));
        let e = Summary::empty();
        let sess = psess();
        let m = Summary::if_merge(&pred("x > 0"), &t, &e, &sess);
        let sc = m.scalars[&v("t")];
        assert!(!sc.must_write, "one-sided write is not a must-write");
        assert!(sc.may_write);
    }
}
