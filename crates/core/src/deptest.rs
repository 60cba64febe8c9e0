//! Loop-level dependence and privatization testing, including run-time
//! test derivation.
//!
//! Both tests ask one question per pair of pieces `w` and `x′` (`x` in
//! another iteration) and per iteration order: is `w ∧ x′ ∧ ctx ∧ ctx′ ∧
//! order` empty, and if not, under which condition on the symbolics does
//! it hold? Nearly every such conjunction is a difference-bound system,
//! so the question goes to the closure first, on the borrowed lists
//! ([`padfa_omega::difference`]): one closure per pair of pieces decides
//! both orders, a refuted order builds nothing, and a surviving order of
//! one piece against one reads its condition off shortest paths. Only
//! what the closure declines builds the intersection, interns it, probes
//! it and eliminates — the same systems, in the same order, as when every
//! order was built, so every verdict and extracted predicate is the one
//! elimination gives (DESIGN.md §3.10, "Asked of borrowed lists").

use crate::component::{GuardedRegion, PredComponent};
use crate::provenance::{
    ArrayEvidence, ArrayVerdict, PairEvidence, PairKind, PairOutcome, Provenance, RejectReason,
    ScalarEvidence, ScalarVerdict,
};
use crate::reduce::find_reductions;
use crate::region::primed;
use crate::report::{Mechanisms, Outcome, PrivArray, Reduction};
use crate::session::{AnalysisSession, PairOrder};
use crate::summary::Summary;
use padfa_ir::ast::Block;
use padfa_omega::{difference, Constraint, Disjunction, LinExpr, Norm, System, Var};
use padfa_pred::{extract_symbolic, Pred};
use std::cell::OnceCell;
use std::sync::Arc;

/// What every pair test of one loop shares, built once per loop: the
/// loop context on both iteration copies, the index and its primed copy,
/// the constraint each iteration order pushes, and which variables an
/// extracted condition may name.
struct LoopCtx<'a> {
    ctx: &'a System,
    ctx2: System,
    i: Var,
    i2: Var,
    /// `i < i2` and `i > i2`, normalized, in the order the test asks them.
    orders: [Constraint; 2],
    is_symbolic: &'a dyn Fn(Var) -> bool,
}

impl<'a> LoopCtx<'a> {
    fn new(ctx: &'a System, i: Var, is_symbolic: &'a dyn Fn(Var) -> bool) -> LoopCtx<'a> {
        let i2 = primed(i);
        // The primed context must rename not just the loop index but every
        // loop-varying synthetic variable in the context (e.g. the step
        // lattice counter `$step...`), or the two iteration copies would be
        // forced onto the same lattice point and conflicts would vanish.
        let mut ctx2 = ctx.rename(i, i2);
        for v in ctx.vars() {
            if v != i && v.is_synthetic() {
                ctx2 = ctx2.rename(v, primed(v));
            }
        }
        let normal = |c: Constraint| match c.normalize() {
            Norm::Keep(c) => c,
            _ => unreachable!("i and i2 are distinct variables"),
        };
        let (iv, i2v) = (LinExpr::var(i), LinExpr::var(i2));
        LoopCtx {
            ctx,
            ctx2,
            i,
            i2,
            orders: [
                normal(Constraint::lt(iv.clone(), i2v.clone())),
                normal(Constraint::gt(iv, i2v)),
            ],
            is_symbolic,
        }
    }

    /// `region` in the other iteration: the index renamed to its primed
    /// copy, and so is every lattice existential, which names a point of
    /// *this* iteration's strided inner loop — shared, it would force
    /// both iterations onto one point, and a conflict through it would
    /// vanish.
    fn prime(&self, region: &Disjunction) -> Disjunction {
        let mut out = region.rename(self.i, self.i2);
        for v in region.vars() {
            if AnalysisSession::is_lat_var(v) {
                out = out.rename(v, primed(v));
            }
        }
        out
    }

    /// `a ∧ b ∧ ctx ∧ ctx2`, as borrowed lists.
    fn parts<'s>(&'s self, a: &'s System, b: &'s System) -> [&'s [Constraint]; 4] {
        [
            a.constraints(),
            b.constraints(),
            self.ctx.constraints(),
            self.ctx2.constraints(),
        ]
    }
}

/// What one piece brings to every pair test it takes part in, built once
/// per array: its guard behind an `Arc`, made the first time a
/// [`PairEvidence`] row names it (a piece takes part in O(pieces) pair
/// tests, and the rows all share the handle instead of deep-cloning the
/// predicate tree per pair; a verdict-only session keeps no rows and
/// clones nothing), and its region in the other iteration
/// ([`LoopCtx::prime`]), made the first time a pair test reads it as the
/// `x` side (pairs decided by their guards, and pairs after the early
/// exit, rename nothing). A may-write piece is both a dependence test's
/// and a privatization test's `x` side, and is primed once for both.
struct PairSide<'a> {
    piece: &'a GuardedRegion,
    pred: OnceCell<Arc<Pred>>,
    primed: OnceCell<Disjunction>,
}

impl PairSide<'_> {
    fn pred(&self) -> Arc<Pred> {
        Arc::clone(self.pred.get_or_init(|| Arc::new(self.piece.pred.clone())))
    }

    fn primed(&self, lc: &LoopCtx) -> &Disjunction {
        self.primed.get_or_init(|| lc.prime(&self.piece.region))
    }
}

fn pair_sides(c: &PredComponent) -> Vec<PairSide<'_>> {
    let side = |piece| PairSide {
        piece,
        pred: OnceCell::new(),
        primed: OnceCell::new(),
    };
    c.pieces.iter().map(side).collect()
}

/// The decision for one loop.
#[derive(Clone, Debug)]
pub struct LoopDecision {
    pub outcome: Outcome,
    pub privatized: Vec<PrivArray>,
    pub privatized_scalars: Vec<Var>,
    pub reductions: Vec<Reduction>,
    /// The mechanisms the test needed, array/scalar evidence and the
    /// emitted run-time test — `None` when the session does not want
    /// provenance. The caller (`analyze::handle_loop`) fills in the
    /// winner, embedding, budget, and cap-hit fields before attaching it
    /// to the `LoopReport`.
    pub provenance: Option<Provenance>,
}

/// Compute the condition under which two accesses from *different*
/// iterations may touch the same element.
///
/// `w` and `x` are guarded pieces (regions over the loop index `i` /
/// primed index `i2` respectively, plus dimension variables and
/// symbolics); `x2` is only called once the guards have not already
/// decided the pair. The conflict condition is
/// `p_w ∧ p_x ∧ extract(∃ dims, i, i2 : regions intersect ∧ ctx ∧ i ≠ i2)`.
///
/// Returns [`Pred::False`] when the accesses provably never conflict,
/// together with the [`PairOutcome`] naming how the pair was decided
/// (complementary guards, region disjointness, an extracted symbolic
/// condition, or an assumed conflict).
///
/// The extraction step (when enabled) projects the intersection onto the
/// symbolic variables: because projection over-approximates, the
/// negation of the extracted condition soundly implies emptiness — this
/// is how the paper derives *breaking conditions* from array data-flow
/// analysis.
///
/// Each iteration order is asked of the difference-bound closure first,
/// on the borrowed lists ([`read_orders`]). A refuted order builds
/// nothing. A surviving order of one piece against one piece takes its
/// condition off the same lists ([`difference::project_parts`]) — the
/// projection elimination would return for the materialized conjunction,
/// so the condition is the same. Everything else — several pieces a
/// side, a list the closure does not read, a projection it declines,
/// `PADFA_FORCE_GENERAL_TIER` — builds the intersection and asks it.
fn conflict_condition<'a>(
    p_w: &Pred,
    w: &Disjunction,
    p_x: &Pred,
    x2: impl FnOnce() -> &'a Disjunction,
    lc: &LoopCtx,
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
) -> (Pred, PairOutcome) {
    let opts = &sess.opts;
    // Guards: with predicates enabled, the conflict needs both guards
    // true. Complementary guards fold to False here (compile-time win).
    let guard = if opts.predicates_enabled() {
        let g = Pred::and(p_w.clone(), p_x.clone());
        if !p_w.is_true() || !p_x.is_true() {
            mechanisms.predicates = true;
        }
        g
    } else {
        Pred::True
    };
    if guard.is_false() {
        return (Pred::False, PairOutcome::GuardsExclude);
    }

    let limits = opts.limits;
    let mut region = RegionCond {
        cond: Pred::False,
        extracted: false,
    };
    let x2 = x2();
    let read = read_orders(w, x2, lc, sess);
    // Each disjunct of the intersection under both loop contexts: the
    // two iteration orders differ only in the constraint pushed on top,
    // so the conjunctions are built once, on the first order that needs
    // them.
    let mut in_ctx: Option<Vec<System>> = None;
    for (order, read) in lc.orders.iter().zip(read) {
        // Once the budget has run out nothing is computed: every order
        // reads as empty, as the queries that would build it return
        // nothing.
        if sess.meter.exhausted() {
            continue;
        }
        if read == OrderRead::Refuted {
            sess.note_pair_order(w, x2, PairOrder::Refuted);
            continue;
        }
        if read == OrderRead::Open {
            // One piece against one, and the closure shows the order
            // non-empty: without extraction the conflict is assumed, and
            // with it the condition is read off the matrix unless the
            // projection declines. One step, as for a refuted order.
            let (a, b) = (&w.systems()[0], &x2.systems()[0]);
            let [pa, pb, pc, pc2] = lc.parts(a, b);
            let parts = [pa, pb, pc, pc2, std::slice::from_ref(order)];
            let projected = if opts.extraction {
                difference::project_parts(&parts, |v| !(lc.is_symbolic)(v), limits)
            } else {
                None
            };
            if projected.is_some() || !opts.extraction {
                if !sess.note_pair_order(w, x2, PairOrder::Closed) {
                    continue;
                }
                let Some(p) = projected else {
                    return (guard, PairOutcome::Assumed);
                };
                if !sess.note_fm_projection() || !region.fold(&p.system, lc.is_symbolic, mechanisms)
                {
                    return (guard, PairOutcome::Assumed);
                }
                continue;
            }
        }
        if !sess.note_pair_order(w, x2, PairOrder::Built) {
            continue;
        }
        // Asked once per order, and computed each time: query counts,
        // budget steps and `Limits` overflows are per order.
        let base = sess.intersect(w, x2);
        let in_ctx = in_ctx.get_or_insert_with(|| {
            base.systems()
                .iter()
                .map(|s| s.and(lc.ctx).and(&lc.ctx2))
                .collect()
        });
        let inter = Disjunction::from_systems(
            in_ctx
                .iter()
                .map(|s| s.and_constraint(order.clone()))
                .collect::<Vec<_>>(),
        );
        if sess.is_empty(&inter) {
            continue;
        }
        if !opts.extraction {
            // Conflict possible whenever both guards hold.
            return (guard, PairOutcome::Assumed);
        }
        // Project out everything non-symbolic; the remaining constraints
        // on symbolics are the condition for the conflict to exist.
        for sys in inter.systems() {
            let junk: Vec<Var> = sys
                .vars()
                .into_iter()
                .filter(|&v| !(lc.is_symbolic)(v))
                .collect();
            if !sess.note_fm_projection() {
                return (guard, PairOutcome::Assumed);
            }
            let p = sys.project_out(&junk, limits);
            if !region.fold(&p.system, lc.is_symbolic, mechanisms) {
                return (guard, PairOutcome::Assumed);
            }
        }
    }
    let cond = Pred::and(guard, region.cond);
    let outcome = if region.extracted {
        PairOutcome::Extracted
    } else {
        // Every intersection was empty (or contradictory after
        // projection) in both iteration orders.
        PairOutcome::RegionsDisjoint
    };
    (cond, outcome)
}

/// The region half of a conflict condition, gathered one projected
/// conjunction at a time.
struct RegionCond {
    cond: Pred,
    extracted: bool,
}

impl RegionCond {
    /// Fold in one conjunction projected onto the symbolics. `false` when
    /// it cannot characterize the conflict — left-over non-symbolic
    /// constraints, or no constraint at all — and the conflict must be
    /// assumed to exist whenever the guards hold.
    fn fold(
        &mut self,
        p: &System,
        is_symbolic: &dyn Fn(Var) -> bool,
        mechanisms: &mut Mechanisms,
    ) -> bool {
        if p.is_contradiction() {
            return true;
        }
        let (q, residual) = extract_symbolic(p, is_symbolic);
        if !residual.is_universe() || q.is_true() {
            return false;
        }
        mechanisms.extraction = true;
        self.extracted = true;
        self.cond = Pred::or(std::mem::replace(&mut self.cond, Pred::False), q);
        true
    }
}

/// What the difference-bound closure reads of one iteration order of a
/// pair test from the borrowed lists.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OrderRead {
    /// Empty for every pair of pieces — what `sess.is_empty` concludes of
    /// the materialized intersection, learned without building it.
    Refuted,
    /// One piece against one, and the order is not empty.
    Open,
    /// Left to the materialized path.
    Unread,
}

/// [`OrderRead`] of `a ∧ b ∧ ctx ∧ ctx2 ∧ order` for both iteration
/// orders, with one closure per pair of pieces `(a, b) ∈ w × x2`
/// ([`difference::orders_refuted`]).
///
/// The front reads the pieces where they lie, so it needs lists that
/// mean what they say (a contradiction's list is empty and would read as
/// the universe) and a pair count the disjunct cap cannot have truncated
/// — its overflow note is part of the report.
fn read_orders(
    w: &Disjunction,
    x2: &Disjunction,
    lc: &LoopCtx,
    sess: &AnalysisSession,
) -> [OrderRead; 2] {
    let limits = sess.opts.limits;
    let pairs = w.len() * x2.len();
    let front = !difference::force_general()
        && !lc.ctx.is_contradiction()
        && !lc.ctx2.is_contradiction()
        && pairs < limits.max_disjuncts;
    let unread = [OrderRead::Unread; 2];
    if !front {
        return unread;
    }
    let mut refuted = [true, true];
    for a in w.systems() {
        for b in x2.systems() {
            let Some(r) = difference::orders_refuted(&lc.parts(a, b), lc.i, lc.i2, limits) else {
                return unread;
            };
            refuted = [refuted[0] && r[0], refuted[1] && r[1]];
            if refuted == [false, false] && pairs > 1 {
                return unread;
            }
        }
    }
    refuted.map(|r| match (r, pairs) {
        (true, _) => OrderRead::Refuted,
        (false, 1) => OrderRead::Open,
        (false, _) => OrderRead::Unread,
    })
}

/// Test all cross-iteration conflicts for one array, returning the
/// condition under which *some* dependence exists (`False` = independent).
/// Each pair test run is appended to `pairs` (when rows are kept), in
/// test order; the early exit on an unconditional conflict means later
/// pairs were not tested and carry no evidence.
fn array_dependence_condition(
    mw: &[PairSide],
    r: &PredComponent,
    lc: &LoopCtx,
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
    mut pairs: Option<&mut Vec<PairEvidence>>,
) -> Pred {
    let mut cond = Pred::False;
    let r = pair_sides(r);
    for w in mw {
        // Write/write (output) and write/read (flow+anti) conflicts.
        let tagged = (mw.iter().map(|x| (PairKind::WriteWrite, x)))
            .chain(r.iter().map(|x| (PairKind::WriteRead, x)));
        for (kind, x) in tagged {
            let (c, outcome) = conflict_condition(
                &w.piece.pred,
                &w.piece.region,
                &x.piece.pred,
                || x.primed(lc),
                lc,
                sess,
                mechanisms,
            );
            if let Some(pairs) = &mut pairs {
                pairs.push(PairEvidence {
                    kind,
                    w_pred: w.pred(),
                    x_pred: x.pred(),
                    outcome,
                    condition: c.clone(),
                });
            }
            cond = Pred::or(cond, c);
            if cond.is_true() {
                return cond;
            }
        }
    }
    cond
}

/// Privatization test for one array: exposed reads of one iteration must
/// not overlap may-writes of another. Returns the condition under which
/// privatization is *unsafe*; pair tests run are appended to `pairs`
/// (when rows are kept).
fn privatization_unsafe_condition(
    e: &PredComponent,
    mw: &[PairSide],
    lc: &LoopCtx,
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
    mut pairs: Option<&mut Vec<PairEvidence>>,
) -> Pred {
    let mut cond = Pred::False;
    let e = pair_sides(e);
    for ep in &e {
        for wp in mw {
            let (c, outcome) = conflict_condition(
                &ep.piece.pred,
                &ep.piece.region,
                &wp.piece.pred,
                || wp.primed(lc),
                lc,
                sess,
                mechanisms,
            );
            if let Some(pairs) = &mut pairs {
                pairs.push(PairEvidence {
                    kind: PairKind::ExposedWrite,
                    w_pred: wp.pred(),
                    x_pred: ep.pred(),
                    outcome,
                    condition: c.clone(),
                });
            }
            cond = Pred::or(cond, c);
            if cond.is_true() {
                return cond;
            }
        }
    }
    cond
}

/// Decide parallelizability of one loop from its per-iteration body
/// summary.
///
/// * `body` — sanitized, embedded per-iteration summary;
/// * `body_block` — the syntactic body (reduction recognition);
/// * `ctx` — constraints on the loop index (bounds, step);
/// * `is_symbolic` — classifies loop-invariant scalars usable in
///   extracted predicates and run-time tests;
/// * `trip2` — a predicate true when the loop runs at least two
///   iterations. A run-time test that is unsatisfiable together with
///   `trip2` only ever passes for trivial trip counts (0 or 1 iteration)
///   and is rejected as degenerate.
///
/// A session that wants provenance tests every array and keeps every
/// row. A verdict-only session stops at the first hard dependence —
/// an exposed scalar flow needs no lattice work, so scalars are decided
/// first, and no array is tested after one blocks — because a
/// sequential verdict reports no privatization, test or scalar list.
pub fn test_loop(
    body: &Summary,
    body_block: &Block,
    loop_var: Var,
    ctx: &System,
    sess: &AnalysisSession,
    is_symbolic: &dyn Fn(Var) -> bool,
    trip2: &Pred,
) -> LoopDecision {
    let opts = &sess.opts;
    let keep = sess.provenance_wanted();
    let mut mechanisms = Mechanisms::default();
    let lc = LoopCtx::new(ctx, loop_var, is_symbolic);

    let reductions = find_reductions(body_block);
    let is_reduction = |v: Var| reductions.iter().any(|r| r.target == v);

    // Scalars: exposed-and-written scalars carry a cross-iteration flow
    // dependence (unless recognized as reductions); written non-exposed
    // scalars privatize.
    let mut hard_dep = false;
    let mut privatized_scalars = Vec::new();
    let mut scalar_rows = Vec::new();
    for (&sv, sc) in &body.scalars {
        if sv == loop_var || !sc.may_write {
            continue;
        }
        let verdict = if is_reduction(sv) {
            ScalarVerdict::Reduction
        } else if sc.exposed_read {
            hard_dep = true;
            ScalarVerdict::ExposedFlow
        } else {
            privatized_scalars.push(sv);
            ScalarVerdict::Privatized
        };
        if keep {
            scalar_rows.push(ScalarEvidence {
                scalar: sv,
                verdict,
            });
        }
    }

    // One array's complete dependence/privatization/run-time-test
    // verdict. Arrays are mutually independent (the pair tests only read
    // this array's summary); the loops below test them and merge the
    // outcomes in array order.
    struct ArrayOutcome {
        evidence: Option<ArrayEvidence>,
        privatize: Option<PrivArray>,
        test: Option<Pred>,
        hard_dep: bool,
        mech: Mechanisms,
    }

    let test_array = |array: Var, s: &crate::summary::ArraySummary| -> ArrayOutcome {
        let mut out = ArrayOutcome {
            evidence: None,
            privatize: None,
            test: None,
            hard_dep: false,
            mech: Mechanisms::default(),
        };
        let row = |verdict, dep_pairs: Option<Vec<_>>, priv_pairs: Option<Vec<_>>| ArrayEvidence {
            array,
            verdict,
            dep_pairs: dep_pairs.unwrap_or_default(),
            priv_pairs: priv_pairs.unwrap_or_default(),
        };
        if is_reduction(array) {
            out.evidence = keep.then(|| row(ArrayVerdict::Reduction, None, None));
            return out;
        }
        if s.mw.is_empty() {
            return out; // read-only arrays never carry dependences
        }
        let mw = pair_sides(&s.mw);
        let mut dep_pairs = keep.then(Vec::new);
        let dep =
            array_dependence_condition(&mw, &s.r, &lc, sess, &mut out.mech, dep_pairs.as_mut());
        if dep.is_false() {
            out.evidence = keep.then(|| row(ArrayVerdict::Independent, dep_pairs, None));
            return out; // independent
        }
        // Try privatization: legal when no exposed read of one iteration
        // overlaps a write of another.
        let mut priv_pairs = keep.then(Vec::new);
        let unsafe_priv = privatization_unsafe_condition(
            &s.e,
            &mw,
            &lc,
            sess,
            &mut out.mech,
            priv_pairs.as_mut(),
        );
        if unsafe_priv.is_false() {
            let copy_in = !s.e.is_region_empty(sess);
            out.privatize = Some(PrivArray {
                array,
                copy_in,
                copy_out: true,
            });
            out.evidence =
                keep.then(|| row(ArrayVerdict::Privatized { copy_in }, dep_pairs, priv_pairs));
            return out;
        }
        // Neither unconditional: derive a run-time test. The loop is
        // safe to run in parallel when the dependence condition is false
        // (no transformation), or when the privatization-unsafety
        // condition is false (privatize). We emit the cheaper test.
        let rejected;
        if opts.runtime_tests {
            let no_dep = dep.negate();
            let priv_ok = unsafe_priv.negate();
            let (test, with_priv) = if priv_ok.is_true()
                || (priv_ok.cost() < no_dep.cost() && priv_ok.is_runtime_testable())
            {
                (priv_ok, true)
            } else {
                (no_dep, false)
            };
            let degenerate = Pred::and(test.clone(), trip2.clone()).is_false();
            if !degenerate && test.is_runtime_testable() && test.cost() <= opts.test_cost_budget {
                let copy_in = !s.e.is_region_empty(sess);
                if with_priv {
                    out.privatize = Some(PrivArray {
                        array,
                        copy_in,
                        copy_out: true,
                    });
                }
                out.mech.runtime_test = true;
                out.evidence = keep.then(|| {
                    let verdict = ArrayVerdict::RuntimeTested {
                        test: test.clone(),
                        with_privatization: with_priv,
                    };
                    row(verdict, dep_pairs, priv_pairs)
                });
                out.test = Some(test);
                return out;
            }
            let reason = if degenerate {
                RejectReason::Degenerate
            } else if !test.is_runtime_testable() {
                RejectReason::NotScalarTest
            } else {
                RejectReason::OverCostBudget
            };
            rejected = Some((test, reason));
        } else {
            rejected = keep.then(|| (dep.negate(), RejectReason::Disabled));
        }
        out.evidence = keep.then(|| {
            let verdict = ArrayVerdict::Blocking { dep, rejected };
            row(verdict, dep_pairs, priv_pairs)
        });
        out.hard_dep = true;
        out
    };

    // Arrays are tested in the map's order, the program's numbering of
    // their names. A verdict-only session tests no array once the loop
    // is sequential; an evidence session tests every one, in the same
    // order, so rows and the run-time test read the same either way.
    let mut outcomes = Vec::with_capacity(body.arrays.len());
    for (&a, s) in &body.arrays {
        if hard_dep && !keep {
            break;
        }
        let out = test_array(a, s);
        hard_dep |= out.hard_dep;
        outcomes.push(out);
    }
    let mut privatized = Vec::new();
    let mut tests = Pred::True;
    let mut array_rows = Vec::new();
    for out in outcomes {
        mechanisms.predicates |= out.mech.predicates;
        mechanisms.embedding |= out.mech.embedding;
        mechanisms.extraction |= out.mech.extraction;
        mechanisms.runtime_test |= out.mech.runtime_test;
        if let Some(p) = out.privatize {
            privatized.push(p);
        }
        if let Some(t) = out.test {
            tests = Pred::and(tests, t);
        }
        array_rows.extend(out.evidence);
    }

    let outcome = if hard_dep {
        // A sequential verdict reports no transformations (the evidence
        // tree keeps the attempted ones for `padfa explain`).
        privatized.clear();
        privatized_scalars.clear();
        Outcome::Sequential
    } else if tests.is_true() {
        Outcome::Parallel
    } else {
        Outcome::ParallelIf(tests)
    };
    let provenance = keep.then(|| Provenance {
        mechanisms,
        arrays: array_rows,
        scalars: scalar_rows,
        runtime_test: match &outcome {
            Outcome::ParallelIf(t) => Some(t.clone()),
            _ => None,
        },
        ..Provenance::default()
    });
    LoopDecision {
        outcome,
        privatized,
        privatized_scalars,
        reductions,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `test_loop` is exercised end-to-end through `analyze::tests` and
    // the integration suite; here we unit-test the conflict-condition
    // core on hand-built regions.
    use crate::options::Options;
    use crate::region::dim_var;
    use padfa_omega::Limits;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    /// Region { $a.0 == i + shift, 1 <= $a.0 <= 100 } over index i.
    fn shifted(shift: i64) -> Disjunction {
        let d = dim_var(v("a"), 0);
        Disjunction::from_system(System::from_constraints([
            Constraint::eq(
                LinExpr::var(d),
                LinExpr::var(v("i")) + LinExpr::constant(shift),
            ),
            Constraint::geq(LinExpr::var(d), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(d), LinExpr::constant(100)),
        ]))
    }

    fn ctx_1_to_n() -> System {
        System::from_constraints([
            Constraint::geq(LinExpr::var(v("i")), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(v("i")), LinExpr::var(v("n"))),
        ])
    }

    fn sym(x: Var) -> bool {
        x == Var::new("n") || x == Var::new("m")
    }

    /// The conflict condition of `w` against `x` across the iterations of
    /// `for i = 1 to n`.
    fn conflict(
        p_w: &Pred,
        w: &Disjunction,
        p_x: &Pred,
        x: &Disjunction,
        sess: &AnalysisSession,
        mech: &mut Mechanisms,
    ) -> Pred {
        conflict_in(&ctx_1_to_n(), p_w, w, p_x, x, sess, mech).0
    }

    /// [`conflict`] under a given loop context, with the outcome.
    fn conflict_in(
        ctx: &System,
        p_w: &Pred,
        w: &Disjunction,
        p_x: &Pred,
        x: &Disjunction,
        sess: &AnalysisSession,
        mech: &mut Mechanisms,
    ) -> (Pred, PairOutcome) {
        let lc = LoopCtx::new(ctx, v("i"), &sym);
        let x2 = lc.prime(x);
        conflict_condition(p_w, w, p_x, || &x2, &lc, sess, mech)
    }

    /// Unguarded `w` against `x` in a fresh session with `max_disjuncts`
    /// as given; returns the verdict and the session's counters.
    fn unguarded(
        ctx: &System,
        w: &Disjunction,
        x: &Disjunction,
        max_disjuncts: usize,
    ) -> ((Pred, PairOutcome), crate::StatsSnapshot) {
        let mut opts = Options::predicated();
        opts.limits.max_disjuncts = max_disjuncts;
        let sess = AnalysisSession::new(opts);
        let mut mech = Mechanisms::default();
        let verdict = conflict_in(ctx, &Pred::True, w, &Pred::True, x, &sess, &mut mech);
        (verdict, sess.stats())
    }

    #[test]
    fn refuted_and_materialized_empty_orders_agree() {
        // a[i] against a[i]: both orders are refuted from the lists, and
        // nothing is intersected, interned or probed.
        let ctx = ctx_1_to_n();
        let disjoint = (Pred::False, PairOutcome::RegionsDisjoint);
        let (verdict, st) = unguarded(&ctx, &shifted(0), &shifted(0), 32);
        assert_eq!(verdict, disjoint);
        assert_eq!((st.orders_total, st.orders_refuted), (2, 2));
        assert_eq!(st.intersect.total() + st.sys_empty.total(), 0);
        assert_eq!(st.interned_regions, 0);

        // a[2i] against a[2i]: a non-unit coefficient is not the
        // closure's, so both orders are built and found empty by
        // elimination — the same verdict by the other route.
        let d = dim_var(v("a"), 0);
        let doubled = Disjunction::from_system(System::from_constraints([
            Constraint::eq(LinExpr::var(d), LinExpr::term(v("i"), 2)),
            Constraint::geq(LinExpr::var(d), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(d), LinExpr::constant(100)),
        ]));
        let (verdict, st) = unguarded(&ctx, &doubled, &doubled, 32);
        assert_eq!(verdict, disjoint);
        assert_eq!((st.orders_total, st.orders_refuted), (2, 0));
        assert_eq!(st.intersect.total(), 2);
    }

    #[test]
    fn a_surviving_order_is_answered_from_the_closure() {
        // a[i] against a[i-1]: `i < i2` is refuted, `i > i2` survives, and
        // its condition is read off the lists — one step each, no query,
        // nothing interned; the projection is still counted.
        let ctx = ctx_1_to_n();
        let (verdict, st) = unguarded(&ctx, &shifted(0), &shifted(-1), 32);
        assert_eq!(verdict.1, PairOutcome::Extracted);
        let (orders, refuted, closed) = (st.orders_total, st.orders_refuted, st.orders_closed);
        assert_eq!((orders, refuted, closed), (2, 1, 1));
        assert_eq!(st.intersect.total() + st.sys_empty.total(), 0);
        assert_eq!((st.interned_regions, st.fm_projections), (0, 1));

        // Without extraction the survivor is assumed at once.
        let sess = AnalysisSession::new(Options::base());
        let mut mech = Mechanisms::default();
        let verdict = conflict_in(
            &ctx,
            &Pred::True,
            &shifted(0),
            &Pred::True,
            &shifted(-1),
            &sess,
            &mut mech,
        );
        assert_eq!(verdict, (Pred::True, PairOutcome::Assumed));
        let st = sess.stats();
        assert_eq!((st.orders_closed, st.fm_projections), (1, 0));
        assert_eq!(st.intersect.total() + st.sys_empty.total(), 0);
    }

    #[test]
    fn a_lattice_point_is_primed_with_its_iteration() {
        // a[i + 2t], t a lattice existential of a strided inner loop:
        // iterations i and i + 2 write the same element through different
        // points, which a shared `t` would hide.
        let (d, t) = (dim_var(v("a"), 0), Var::new("$lat.p.0"));
        let w = Disjunction::from_system(System::from_constraints([
            Constraint::eq(LinExpr::var(d), LinExpr::var(v("i")) + LinExpr::term(t, 2)),
            Constraint::geq(LinExpr::var(t), LinExpr::constant(0)),
            Constraint::leq(LinExpr::var(t), LinExpr::constant(5)),
        ]));
        let sess = AnalysisSession::new(Options::predicated());
        let mut mech = Mechanisms::default();
        let c = conflict(&Pred::True, &w, &Pred::True, &w, &sess, &mut mech);
        assert!(!c.is_false(), "iterations 1 and 3 both write a[5]: {c}");
    }

    #[test]
    fn pair_count_at_the_disjunct_cap_materializes_and_notes_its_overflow() {
        // Two pieces against one under a cap of two: the intersection
        // keeps both and says so, which only the materializing path
        // can — so the front must stand aside, refutable or not.
        let ctx = ctx_1_to_n();
        let lower_half = Constraint::leq(LinExpr::var(dim_var(v("a"), 0)), LinExpr::constant(50));
        let mut w = shifted(0);
        w.push(shifted(0).constrain(&lower_half).systems()[0].clone());
        assert_eq!(w.len(), 2);
        let (verdict, st) = unguarded(&ctx, &w, &shifted(0), 2);
        assert_eq!(verdict, (Pred::False, PairOutcome::RegionsDisjoint));
        assert_eq!((st.orders_total, st.orders_refuted), (2, 0));
        assert_eq!(st.intersect.total(), 2);
        assert_eq!(st.limit_overflows, 2, "both orders computed, each capped");
        // One below the cap the same pair is refuted unbuilt.
        let (verdict, st) = unguarded(&ctx, &w, &shifted(0), 3);
        assert_eq!(verdict, (Pred::False, PairOutcome::RegionsDisjoint));
        assert_eq!((st.orders_total, st.orders_refuted), (2, 2));
        assert_eq!(st.limit_overflows, 0);
    }

    #[test]
    fn contradictory_context_still_reads_as_disjoint() {
        // `i >= 1 && i <= 0`: the loop never runs. The context's list is
        // empty (it is a contradiction, not the universe), so the front
        // may not read it; a[i] against a[i-1] conflicts under any
        // context that does run.
        let never = System::from_constraints([
            Constraint::geq(LinExpr::var(v("i")), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(v("i")), LinExpr::constant(0)),
        ]);
        assert!(never.is_contradiction());
        let (verdict, st) = unguarded(&never, &shifted(0), &shifted(-1), 32);
        assert_eq!(verdict, (Pred::False, PairOutcome::RegionsDisjoint));
        assert_eq!(st.orders_refuted, 0);
        let (verdict, _) = unguarded(&ctx_1_to_n(), &shifted(0), &shifted(-1), 32);
        assert_ne!(verdict.1, PairOutcome::RegionsDisjoint);
    }

    #[test]
    fn same_element_no_conflict() {
        // a[i] vs a[i]: different iterations never collide.
        let sess = AnalysisSession::new(Options::predicated());
        let mut mech = Mechanisms::default();
        let c = conflict(
            &Pred::True,
            &shifted(0),
            &Pred::True,
            &shifted(0),
            &sess,
            &mut mech,
        );
        assert!(c.is_false());
    }

    #[test]
    fn shifted_access_conflicts() {
        // a[i] vs a[i-1]: adjacent iterations collide.
        let sess = AnalysisSession::new(Options::predicated());
        let mut mech = Mechanisms::default();
        let c = conflict(
            &Pred::True,
            &shifted(0),
            &Pred::True,
            &shifted(-1),
            &sess,
            &mut mech,
        );
        assert!(!c.is_false());
        // The conflict needs at least two iterations: extraction should
        // produce a condition involving n (roughly n >= 2).
        if mech.extraction {
            let n_is_1 = Pred::from_bool(&padfa_ir::parse::parse_bool_expr("n <= 1").unwrap());
            assert!(
                n_is_1.implies(&c.negate(), Limits::default()),
                "with n <= 1 there is no second iteration: cond={c}"
            );
        }
    }

    #[test]
    fn complementary_guards_eliminate_conflict() {
        // Write guarded by x > 5, read guarded by x <= 5: never together.
        let sess = AnalysisSession::new(Options::predicated());
        let mut mech = Mechanisms::default();
        let p = Pred::from_bool(&padfa_ir::parse::parse_bool_expr("x > 5").unwrap());
        let np = p.negate();
        let c = conflict(&p, &shifted(0), &np, &shifted(-1), &sess, &mut mech);
        assert!(c.is_false());
        assert!(mech.predicates);
    }

    #[test]
    fn base_variant_ignores_guards() {
        let sess = AnalysisSession::new(Options::base());
        let mut mech = Mechanisms::default();
        let p = Pred::from_bool(&padfa_ir::parse::parse_bool_expr("x > 5").unwrap());
        let np = p.negate();
        let c = conflict(&p, &shifted(0), &np, &shifted(-1), &sess, &mut mech);
        assert!(!c.is_false(), "base analysis cannot use the guards");
    }

    #[test]
    fn boundary_conflict_extracts_symbolic_condition() {
        // Write a[i], read a[i+m] (m symbolic): conflict only when m can
        // place a read on a written element within bounds — extraction
        // yields a testable condition on m and n.
        let sess = AnalysisSession::new(Options::predicated());
        let d = dim_var(v("a"), 0);
        let read = Disjunction::from_system(System::from_constraints([
            Constraint::eq(LinExpr::var(d), LinExpr::var(v("i")) + LinExpr::var(v("m"))),
            Constraint::geq(LinExpr::var(d), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(d), LinExpr::constant(100)),
        ]));
        let mut mech = Mechanisms::default();
        let c = conflict(
            &Pred::True,
            &shifted(0),
            &Pred::True,
            &read,
            &sess,
            &mut mech,
        );
        assert!(!c.is_false(), "m = 1 would conflict");
        assert!(mech.extraction);
        assert!(c.is_runtime_testable());
        // m = 0 means the read hits only its own iteration's element:
        // the extracted condition must exclude m = 0 (given n within
        // bounds, conflicts need |m| >= 1).
        let m0 = Pred::from_bool(&padfa_ir::parse::parse_bool_expr("m == 0").unwrap());
        assert!(
            m0.implies(&c.negate(), Limits::default()),
            "cond must rule out m == 0: {c}"
        );
    }
}
