//! The analysis driver: bottom-up traversal of the region graph,
//! loop summarization with predicate embedding, and report assembly.

use crate::budget::{self, OnExhausted};
use crate::component::PredComponent;
use crate::deptest::test_loop;
use crate::error::AnalysisError;
use crate::flight;
use crate::interproc::{
    call_order, conservative_summary, degraded_summary, translate_call, CallOrder,
};
use crate::options::Options;
use crate::provenance::{BudgetEvent, Mechanism, Provenance};
use crate::region::access_section;
use crate::report::{AnalysisResult, LoopReport, Mechanisms, NotCandidateReason, Outcome};
use crate::session::AnalysisSession;
use crate::store;
use crate::summary::Summary;
use padfa_ir::affine;
use padfa_ir::ast::{Block, BoolExpr, Expr, Loop, Procedure, Program, Stmt};
use padfa_omega::{Constraint, Derived, Disjunction, LinExpr, System, Var};
use padfa_pred::{Atom, Pred};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Run the analysis over a whole program.
///
/// Procedures are summarized bottom-up over the call graph; every loop
/// receives a [`LoopReport`]. Loops in recursive procedures are handled
/// conservatively.
///
/// With the default (unlimited, degrade-on-exhaustion) budget the
/// analysis is total over resolver-valid programs: `Err` is only
/// returned for internal invariant failures or when a strict budget
/// ([`crate::budget::OnExhausted::Error`]) runs out.
pub fn analyze_program(prog: &Program, opts: &Options) -> Result<AnalysisResult, AnalysisError> {
    let sess = AnalysisSession::new(opts.clone());
    Ok(analyze_program_session(prog, &sess)?.0)
}

/// Like [`analyze_program`], additionally returning the per-procedure
/// data-flow summaries (the interprocedural `R`/`W`/`E` values over
/// array parameters) for tooling and tests.
pub fn analyze_program_with_summaries(
    prog: &Program,
    opts: &Options,
) -> Result<(AnalysisResult, HashMap<String, Summary>), AnalysisError> {
    let sess = AnalysisSession::new(opts.clone()).with_summaries();
    let (result, summaries) = analyze_program_session(prog, &sess)?;
    let summaries = summaries
        .into_iter()
        .map(|(name, s)| (name, (*s).clone()))
        .collect();
    Ok((result, summaries))
}

/// Run the analysis against a caller-provided [`AnalysisSession`]
/// (options, the region interner, counters).
///
/// The returned map holds the summaries something read: every procedure
/// named by a call site, every procedure put to the session's store,
/// and — when the session was built [`AnalysisSession::with_summaries`]
/// — every procedure. An unread procedure's loops are reported exactly
/// as a read one's, but its top level is not folded into a summary, and
/// its name is absent from the map.
///
/// Procedures are summarized one after another on the calling thread,
/// call-graph level by level and within a level in ascending procedure
/// index, so every defined callee of a procedure is finished — and in
/// the result map — before the procedure starts.
///
/// Each procedure runs under `catch_unwind`: budget exhaustion unwinds
/// only that procedure (and degrades or fails it per the budget policy),
/// and any other panic is converted to [`AnalysisError::Internal`]. The
/// first error met ends the run, which by the visiting order is the
/// error of the lowest (call-graph level, index) failing procedure.
pub fn analyze_program_session(
    prog: &Program,
    sess: &AnalysisSession,
) -> Result<(AnalysisResult, HashMap<String, Arc<Summary>>), AnalysisError> {
    {
        let _f = flight::span(flight::EventKind::Driver, "pre_intern");
        sess.pre_intern(prog);
    }
    let co = call_order(prog);
    // Content-addressed keys for whole-procedure store entries. Only
    // unbudgeted sessions use them: a budgeted run can degrade mid-way,
    // and persisting (or replaying) degraded summaries keyed purely on
    // IR would leak one run's budget decisions into another's results.
    // One topological pass computes every key up front: callee keys
    // come from strictly lower levels, already in the map.
    let mut proc_keys: HashMap<String, u128> = HashMap::new();
    if sess.store().is_some() && sess.opts.budget.is_unlimited() {
        for &idx in co.levels.iter().flatten() {
            if let Some(key) = proc_store_key(prog, idx, &co, sess, &proc_keys) {
                proc_keys.insert(prog.procedures[idx].name.clone(), key);
            }
        }
    }
    let mut proc_summaries: HashMap<String, Arc<Summary>> = HashMap::new();
    let mut reports: Vec<LoopReport> = Vec::new();
    {
        let mut walk_flight = flight::span(flight::EventKind::Driver, "walk");
        walk_flight.set_value(prog.procedures.len() as u64);
        for &idx in co.levels.iter().flatten() {
            let name = &prog.procedures[idx].name;
            let store_key = proc_keys.get(name).copied();
            let read = co.called[idx] || store_key.is_some() || sess.summaries_wanted();
            let (summary, reps) =
                analyze_proc(prog, idx, &co, &proc_summaries, sess, store_key, read)?;
            if let Some(summary) = summary {
                proc_summaries.insert(name.clone(), summary);
            }
            reports.extend(reps);
        }
    }
    // Loop ids are assigned by the parser in program order.
    reports.sort_by_key(|r| r.id);
    let result = AnalysisResult {
        loops: reports,
        stats: sess.stats(),
    };
    Ok((result, proc_summaries))
}

/// Compute the Merkle-style store key for `prog.procedures[idx]`:
/// options fingerprint + own IR hash + the keys of all direct callees
/// (so an edit anywhere in the callee tree changes the key). Returns
/// `None` when the procedure is ineligible for whole-procedure caching:
/// it is recursive, or a defined callee is itself ineligible (its
/// summary then isn't content-addressed). Undefined callees contribute
/// a fixed marker — their conservative summary depends on no IR.
fn proc_store_key(
    prog: &Program,
    idx: usize,
    co: &CallOrder,
    sess: &AnalysisSession,
    done: &HashMap<String, u128>,
) -> Option<u128> {
    let opts_fp = sess.store_opts_fp()?;
    if co.recursive.contains(&idx) {
        return None;
    }
    let proc = &prog.procedures[idx];
    let ir = store::hash_procedure(proc);
    let mut names = Vec::new();
    crate::interproc::callees(proc, &mut names);
    let mut callee_keys = Vec::with_capacity(names.len());
    for name in names {
        if prog.proc(&name).is_some() {
            callee_keys.push(*done.get(&name)?);
        } else {
            callee_keys.push(store::UNDEFINED_CALLEE);
        }
    }
    Some(store::proc_key(opts_fp, ir, &callee_keys))
}

/// Summarize one procedure against the already-completed summaries of
/// strictly lower call-graph levels. When nothing reads the summary
/// (`read` is false) only the loops are analyzed and reported, and no
/// summary is returned.
///
/// The whole summarization runs under `catch_unwind` with this thread's
/// budget meter armed: exhaustion unwinds to here and is resolved per
/// the budget policy (degrade to [`degraded_summary`] or error); any
/// other panic becomes [`AnalysisError::Internal`].
fn analyze_proc(
    prog: &Program,
    idx: usize,
    co: &CallOrder,
    summaries: &HashMap<String, Arc<Summary>>,
    sess: &AnalysisSession,
    store_key: Option<u128>,
    read: bool,
) -> Result<(Option<Arc<Summary>>, Vec<LoopReport>), AnalysisError> {
    let proc = &prog.procedures[idx];
    // A whole-procedure store hit skips summarization entirely: the
    // entry carries both the summary and the loop reports derived while
    // computing it. Only unbudgeted, non-recursive procedures get here
    // (see `proc_store_key`), so no budget meter state is skipped.
    if let (Some(key), Some(s)) = (store_key, sess.store()) {
        if let Some((summary, reports)) = s.get_proc(key) {
            flight::instant(flight::EventKind::StoreHit, &proc.name, 1);
            return Ok((Some(Arc::new(summary)), reports));
        }
    }
    budget::install(&sess.opts.budget);
    let queries_before = sess.queries();
    let mut proc_flight = flight::span(flight::EventKind::Summarize, proc.name.clone());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut az = Analyzer {
            prog,
            sess,
            proc_summaries: summaries,
            reports: Vec::new(),
        };
        let summary = if !read {
            az.report_block(proc, &proc.body);
            None
        } else if co.recursive.contains(&idx) {
            Some(conservative_summary(proc))
        } else {
            Some(az.analyze_block(proc, &proc.body, 0))
        };
        (summary, az.reports)
    }));
    let meter = budget::take();
    sess.note_proc_meter(&meter);
    proc_flight.set_value(meter.steps);
    drop(proc_flight);
    flight::instant(
        flight::EventKind::LatticeBatch,
        &proc.name,
        sess.queries() - queries_before,
    );
    match outcome {
        Ok((summary, reports)) => {
            if let (Some(key), Some(s), Some(summary)) = (store_key, sess.store(), &summary) {
                s.put_proc(key, summary, &reports);
            }
            Ok((summary.map(Arc::new), reports))
        }
        Err(payload) if payload.downcast_ref::<budget::Exhausted>().is_some() => {
            match sess.opts.budget.on_exhausted {
                OnExhausted::Error => Err(AnalysisError::BudgetExhausted {
                    proc: proc.name.clone(),
                    steps: meter.steps,
                }),
                OnExhausted::Degrade => {
                    sess.note_degraded();
                    Ok((
                        read.then(|| Arc::new(degraded_summary(proc))),
                        budget_reports(proc, meter.steps),
                    ))
                }
            }
        }
        Err(payload) => Err(AnalysisError::Internal(format!(
            "panic while analyzing '{}': {}",
            proc.name,
            panic_message(payload.as_ref())
        ))),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Reports for every loop of a budget-degraded procedure: sequential,
/// marked `not-parallel (budget)`. The degraded summary makes no claim
/// about these loops, so none may be parallelized. Each report's
/// provenance carries the [`BudgetEvent`] (with the step count at
/// exhaustion) as its concrete blocker.
fn budget_reports(proc: &Procedure, steps: u64) -> Vec<LoopReport> {
    fn walk(b: &Block, depth: usize, proc: &str, steps: u64, out: &mut Vec<LoopReport>) {
        for s in &b.stmts {
            match s {
                Stmt::For(l) => {
                    out.push(LoopReport {
                        id: l.id,
                        label: l.label.clone(),
                        proc: proc.to_string(),
                        depth,
                        not_candidate: Some(NotCandidateReason::BudgetExhausted),
                        outcome: Outcome::Sequential,
                        privatized: Vec::new(),
                        privatized_scalars: Vec::new(),
                        reductions: Vec::new(),
                        mechanisms: Mechanisms::default(),
                        provenance: Provenance {
                            budget: Some(BudgetEvent { steps }),
                            ..Provenance::default()
                        },
                    });
                    walk(&l.body, depth + 1, proc, steps, out);
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, depth, proc, steps, out);
                    walk(else_blk, depth, proc, steps, out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&proc.body, 0, &proc.name, steps, &mut out);
    out
}

struct Analyzer<'a> {
    prog: &'a Program,
    sess: &'a AnalysisSession,
    /// Summaries of the procedures finished so far — every defined
    /// callee of the procedure under analysis among them, unless the
    /// call closes a cycle.
    proc_summaries: &'a HashMap<String, Arc<Summary>>,
    reports: Vec<LoopReport>,
}

impl<'a> Analyzer<'a> {
    fn analyze_block(&mut self, proc: &Procedure, block: &Block, depth: usize) -> Summary {
        let mut acc = Summary::empty();
        for stmt in &block.stmts {
            let s = self.analyze_stmt(proc, stmt, depth);
            acc = acc.seq(&s, self.sess);
        }
        acc
    }

    /// Walk the top-level block of a procedure whose summary nothing
    /// reads: every loop, those in top-level `if` branches included, is
    /// analyzed and reported as [`Analyzer::analyze_block`] would, but
    /// nothing is folded.
    fn report_block(&mut self, proc: &Procedure, block: &Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::For(l) => {
                    self.handle_loop(proc, l, 0, false);
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    self.report_block(proc, then_blk);
                    self.report_block(proc, else_blk);
                }
                _ => {}
            }
        }
    }

    fn analyze_stmt(&mut self, proc: &Procedure, stmt: &Stmt, depth: usize) -> Summary {
        match stmt {
            Stmt::Assign { lhs, rhs } => {
                let mut reads = Summary::empty();
                add_expr_reads(&mut reads, proc, rhs);
                let mut writes = Summary::empty();
                match lhs {
                    padfa_ir::LValue::Scalar(v) => writes.write_scalar(*v),
                    padfa_ir::LValue::Elem(a, subs) => {
                        for s in subs {
                            add_expr_reads(&mut reads, proc, s);
                        }
                        let section = access_section(proc, *a, subs);
                        let arr = writes.array_mut(*a);
                        if section.is_exact() {
                            arr.w = PredComponent::unconditional(section.clone());
                        }
                        arr.mw = PredComponent::unconditional(section);
                    }
                }
                reads_then(reads, &writes, self.sess)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let mut cond_reads = Summary::empty();
                add_bool_reads(&mut cond_reads, proc, cond);
                let t = self.analyze_block(proc, then_blk, depth);
                let e = self.analyze_block(proc, else_blk, depth);
                let cond_pred = Pred::from_bool(cond);
                let merged = Summary::if_merge(&cond_pred, &t, &e, self.sess);
                reads_then(cond_reads, &merged, self.sess)
            }
            Stmt::For(l) => self.handle_loop(proc, l, depth, true),
            Stmt::Call { callee, args } => {
                let Some(callee_proc) = self.prog.proc(callee) else {
                    return Summary::empty();
                };
                let callee_summary = self
                    .proc_summaries
                    .get(callee)
                    .cloned()
                    .unwrap_or_else(|| Arc::new(conservative_summary(callee_proc)));
                let mut mech = Mechanisms::default();
                translate_call(
                    &callee_summary,
                    callee_proc,
                    proc,
                    args,
                    self.sess,
                    &mut mech,
                )
            }
            Stmt::Read(v) => {
                let mut s = Summary::empty();
                s.write_scalar(*v);
                s.has_io = true;
                s
            }
            Stmt::Print(e) => {
                let mut s = Summary::empty();
                add_expr_reads(&mut s, proc, e);
                s.has_io = true;
                s
            }
            Stmt::ExitWhen(c) => {
                let mut s = Summary::empty();
                add_bool_reads(&mut s, proc, c);
                s.has_exit = true;
                s
            }
        }
    }

    /// Test one loop and, when the enclosing region reads it (`read`),
    /// summarize it. An unread loop returns an empty summary, except a
    /// strided one: its summary draws `$lat` names, from which later
    /// loops number their existentials, so it is always formed.
    fn handle_loop(&mut self, proc: &Procedure, l: &Loop, depth: usize, read: bool) -> Summary {
        let sess = self.sess;
        let opts = &sess.opts;
        let loop_name = l.label.clone().unwrap_or_else(|| format!("L{}", l.id.0));
        let _loop_flight = flight::span(flight::EventKind::Loop, loop_name);

        let body = self.analyze_block(proc, &l.body, depth + 1);

        // Attribution baselines, taken *after* the body so inner loops
        // self-attribute their own cap-hits.
        let limit_base = padfa_omega::limit_stats::thread_overflows();
        let lat_base = sess.lat_overflow_for(&proc.name);

        // Iteration-space context.
        let lo_lin = affine::to_linexpr(&l.lo);
        let hi_lin = affine::to_linexpr(&l.hi);
        let mut ctx = System::universe();
        let mut aux_vars: Vec<Var> = Vec::new();
        // Bounds: for a negative step the loop runs downward from lo to
        // hi, so lo is the *upper* bound of the iteration range.
        let (lower, upper) = if l.step > 0 {
            (&lo_lin, &hi_lin)
        } else {
            (&hi_lin, &lo_lin)
        };
        if let Some(b) = lower {
            ctx.push(Constraint::geq(LinExpr::var(l.var), b.clone()));
        }
        if let Some(b) = upper {
            ctx.push(Constraint::leq(LinExpr::var(l.var), b.clone()));
        }
        if l.step.abs() > 1 {
            if let Some(lo) = &lo_lin {
                let t = l.var.derived(Derived::Step(&proc.name));
                ctx.push(Constraint::eq(
                    LinExpr::var(l.var),
                    lo.clone() + LinExpr::term(t, l.step),
                ));
                ctx.push(Constraint::geq(LinExpr::var(t), LinExpr::constant(0)));
                aux_vars.push(t);
            }
        }
        let read = read || !aux_vars.is_empty();

        // Loop-variant scalars: anything the body may modify.
        let writes = body.scalar_writes.clone();
        let loop_var = l.var;
        let unstable = move |v: Var| writes.contains(&v);
        let writes2 = body.scalar_writes.clone();
        let is_symbolic = move |v: Var| !v.is_synthetic() && v != loop_var && !writes2.contains(&v);

        // Sanitize and embed the per-iteration summary. Embedding is
        // attributed per array (a fresh `Mechanisms` per array) so the
        // provenance tree can name which arrays had guards embedded.
        let mut mechanisms = Mechanisms::default();
        let mut embedded_arrays: Vec<Var> = Vec::new();
        let mut iter = Summary::empty();
        iter.scalars = body.scalars.clone();
        iter.scalar_writes = body.scalar_writes.clone();
        iter.has_io = body.has_io;
        iter.has_exit = body.has_exit;
        for (&a, s) in &body.arrays {
            let mut amech = Mechanisms::default();
            let mut embed = |c: &PredComponent, may: bool| {
                let sane = c.degrade_unstable(&unstable, may);
                embed_index_preds(&sane, l.var, may, sess, &mut amech)
            };
            let mut arr = crate::summary::ArraySummary {
                w: embed(&s.w, false),
                mw: embed(&s.mw, true),
                r: embed(&s.r, true),
                e: embed(&s.e, true),
            };
            if amech.embedding {
                mechanisms.embedding = true;
                embedded_arrays.push(a);
            }
            arr.normalize(sess);
            iter.arrays.insert(a, arr);
        }

        // Two-or-more-iterations predicate (suppresses degenerate tests).
        let trip2 = trip2_pred(&l.lo, &l.hi, &lo_lin, &hi_lin, l.step);

        let decision = test_loop(&iter, &l.body, l.var, &ctx, sess, &is_symbolic, &trip2);
        mechanisms.predicates |= decision.mechanisms.predicates;
        mechanisms.embedding |= decision.mechanisms.embedding;
        mechanisms.extraction |= decision.mechanisms.extraction;
        mechanisms.runtime_test |= decision.mechanisms.runtime_test;
        let mut prov = decision.provenance;
        prov.embedded = embedded_arrays;

        let not_candidate = if body.has_io {
            Some(NotCandidateReason::ReadIo)
        } else if body.has_exit {
            Some(NotCandidateReason::InternalExit)
        } else {
            None
        };
        let outcome = decision.outcome;

        // ---- Loop-level summary for the enclosing region. ----
        let with_ctx = |c: &PredComponent| -> PredComponent {
            let mut out = PredComponent::empty();
            for p in &c.pieces {
                let mut r = Disjunction::empty();
                for sys in p.region.systems() {
                    r.push(sys.and(&ctx));
                }
                if !p.region.is_exact() {
                    r.set_inexact();
                }
                out.push(p.pred.clone(), r);
            }
            out
        };
        // Only the loop index is projected; lattice counters (`$step...`)
        // stay inside the region systems as existentials — eliminating
        // them would lose the stride's divisibility facts (and drop
        // strided must-writes entirely). Each piece renames them to
        // fresh names so regions from different loops never conflate
        // their existentials.
        let project: Vec<Var> = vec![l.var];

        // Writes of earlier iterations, expressed over this iteration's i.
        // Loop-varying synthetic context variables (the step lattice
        // counter) get fresh names too, so the earlier iteration is not
        // pinned to this iteration's lattice point.
        let prev = l.var.derived(Derived::Prev);
        let mut ctx_prev = ctx.rename(l.var, prev);
        for v in &aux_vars {
            ctx_prev = ctx_prev.rename(*v, v.derived(Derived::Prev));
        }
        // "Earlier iteration" follows execution order: smaller index for
        // upward loops, larger for downward loops.
        if l.step > 0 {
            ctx_prev.push(Constraint::lt(LinExpr::var(prev), LinExpr::var(l.var)));
        } else {
            ctx_prev.push(Constraint::gt(LinExpr::var(prev), LinExpr::var(l.var)));
        }
        let prev_project: Vec<Var> = vec![prev];
        let prev_aux: Vec<Var> = aux_vars.iter().map(|v| v.derived(Derived::Prev)).collect();
        let w_prev_of_i = |w: &PredComponent| -> PredComponent {
            let mut out = PredComponent::empty();
            for p in &w.pieces {
                let renamed = p.region.rename(l.var, prev);
                let mut r = Disjunction::empty();
                for sys in renamed.systems() {
                    r.push(sys.and(&ctx_prev));
                }
                if !renamed.is_exact() {
                    r.set_inexact();
                }
                out.push(p.pred.clone(), r);
            }
            existentialize(
                out.project_out(&prev_project, false, sess),
                &prev_aux,
                sess,
                &proc.name,
            )
        };

        let preds = opts.predicates_enabled();
        let extract_fn: Option<&dyn Fn(Var) -> bool> = if opts.extraction {
            Some(&is_symbolic)
        } else {
            None
        };
        let mut loop_sum = Summary::empty();
        for (&a, s) in &iter.arrays {
            // `E − W_prev` is the loop's exposed read, and its extraction
            // is a mechanism the report names (and `winner` weighs), so
            // it runs unread too whenever extraction is on.
            if !read && extract_fn.is_none() {
                continue;
            }
            let mut fired = false;
            let e_ctx = with_ctx(&s.e);
            // Nothing is subtracted from an empty E, so `W_prev` is not
            // formed — unless forming it draws `$lat` names.
            let e_inner = if e_ctx.is_empty() && prev_aux.is_empty() {
                e_ctx
            } else {
                e_ctx.pred_subtract(&w_prev_of_i(&s.w), preds, extract_fn, sess, &mut fired)
            };
            if fired {
                mechanisms.extraction = true;
            }
            if !read {
                continue;
            }
            // MW equals W in most (loop, array) pairs: project it once,
            // and W keeps the exact pieces, as a must projection would.
            let (w, mw) = if s.mw == s.w {
                let mw = with_ctx(&s.mw).project_out(&project, true, sess);
                (mw.exact_pieces(), mw)
            } else {
                (
                    with_ctx(&s.w).project_out(&project, false, sess),
                    with_ctx(&s.mw).project_out(&project, true, sess),
                )
            };
            let mut arr = crate::summary::ArraySummary {
                w: existentialize(w, &aux_vars, sess, &proc.name),
                mw: existentialize(mw, &aux_vars, sess, &proc.name),
                r: existentialize(
                    with_ctx(&s.r).project_out(&project, true, sess),
                    &aux_vars,
                    sess,
                    &proc.name,
                ),
                e: existentialize(
                    e_inner.project_out(&project, true, sess),
                    &aux_vars,
                    sess,
                    &proc.name,
                ),
            };
            arr.normalize(sess);
            if !arr.is_empty() {
                loop_sum.arrays.insert(a, arr);
            }
        }

        // Attribute this loop's cap-hit deltas, settle the winning
        // mechanism, and emit the report (after loop-level summarization
        // so extraction fired there is included).
        prov.limit_overflows = padfa_omega::limit_stats::thread_overflows() - limit_base;
        prov.lat_overflow = sess.lat_overflow_for(&proc.name) - lat_base;
        let parallelized = not_candidate.is_none() && outcome.is_parallelizable();
        prov.winner = if parallelized {
            Some(Mechanism::winner(&mechanisms))
        } else {
            None
        };
        self.reports.push(LoopReport {
            id: l.id,
            label: l.label.clone(),
            proc: proc.name.clone(),
            depth,
            not_candidate,
            outcome,
            privatized: decision.privatized,
            privatized_scalars: decision.privatized_scalars,
            reductions: decision.reductions,
            mechanisms,
            provenance: prov,
        });
        if !read {
            return Summary::empty();
        }

        loop_sum.has_io = body.has_io;
        loop_sum.has_exit = false; // exits are local to this loop
        loop_sum.scalar_writes = body.scalar_writes.clone();
        loop_sum.scalar_writes.remove(&l.var);
        // A constant-trip loop provably executes (for scalar must-writes).
        let trip_proven = match (&lo_lin, &hi_lin) {
            (Some(lo), Some(hi)) => {
                let diff = hi.clone() - lo.clone();
                diff.is_const() && diff.konst() >= 0
            }
            _ => false,
        };
        for (&sv, sc) in &body.scalars {
            if sv == l.var {
                continue;
            }
            loop_sum.scalars.insert(
                sv,
                crate::summary::ScalarSummary {
                    must_write: sc.must_write && trip_proven,
                    may_write: sc.may_write,
                    exposed_read: sc.exposed_read,
                },
            );
        }
        // Bound expressions are read at loop entry.
        let mut bound_reads = Summary::empty();
        add_expr_reads(&mut bound_reads, proc, &l.lo);
        add_expr_reads(&mut bound_reads, proc, &l.hi);
        reads_then(bound_reads, &loop_sum, sess)
    }
}

/// Rename lattice existentials to fresh names, per piece, so regions
/// from different loop summarizations never share an existential. The
/// replacement names are drawn from the session's per-procedure pool
/// (`$lat.<proc>.<k>`) in traversal order, which keeps them
/// deterministic.
fn existentialize(
    comp: PredComponent,
    aux: &[Var],
    sess: &AnalysisSession,
    proc: &str,
) -> PredComponent {
    if aux.is_empty() {
        return comp;
    }
    let mut out = PredComponent::empty();
    for p in comp.pieces {
        let mut region = (*p.region).clone();
        for &v in aux {
            if region.vars().contains(&v) {
                region = region.rename(v, sess.lat_var(proc));
            }
        }
        out.push(p.pred, region);
    }
    out
}

/// `reads ; rest`, where `reads` was assembled from raw access sections
/// by [`add_expr_reads`] / [`add_bool_reads`]. [`Summary::seq`] carries
/// the slots `rest` does not mention forward as they are and expects
/// them normalized, so those — and only those: a slot `rest` does
/// mention is normalized after the merge — are normalized here first.
fn reads_then(mut reads: Summary, rest: &Summary, sess: &AnalysisSession) -> Summary {
    for (a, arr) in &mut reads.arrays {
        if !rest.arrays.contains_key(a) {
            arr.normalize(sess);
        }
    }
    reads.seq(rest, sess)
}

/// Add the reads of an arithmetic expression to a summary.
fn add_expr_reads(sum: &mut Summary, proc: &Procedure, e: &Expr) {
    let mut scalars = Vec::new();
    e.scalar_vars(&mut scalars);
    for v in scalars {
        sum.read_scalar(v);
    }
    e.for_each_access(&mut |a, subs| {
        let section = access_section(proc, a, subs);
        let arr = sum.array_mut(a);
        arr.r = arr.r.union(&PredComponent::unconditional(section.clone()));
        arr.e = arr.e.union(&PredComponent::unconditional(section));
    });
}

/// Add the reads of a boolean expression to a summary.
fn add_bool_reads(sum: &mut Summary, proc: &Procedure, b: &BoolExpr) {
    let mut scalars = Vec::new();
    b.scalar_vars(&mut scalars);
    for v in scalars {
        sum.read_scalar(v);
    }
    b.for_each_access(&mut |a, subs| {
        let section = access_section(proc, a, subs);
        let arr = sum.array_mut(a);
        arr.r = arr.r.union(&PredComponent::unconditional(section.clone()));
        arr.e = arr.e.union(&PredComponent::unconditional(section));
    });
}

/// Predicate **embedding** at loop summarization: pieces whose guard
/// mentions the loop index have the guard translated into constraints on
/// the region (so projection over the index sees it). Pieces with
/// index-dependent guards that cannot be embedded are degraded (weakened
/// for may components, dropped from must components).
fn embed_index_preds(
    comp: &PredComponent,
    loop_var: Var,
    may: bool,
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
) -> PredComponent {
    let mut out = PredComponent::empty();
    for piece in &comp.pieces {
        if !piece.pred.scalar_vars().contains(&loop_var) {
            out.push(piece.pred.clone(), piece.region.clone());
            continue;
        }
        if sess.opts.embedding {
            if let Some(systems) = piece.pred.to_systems(8) {
                let pred_region = Disjunction::from_systems(systems);
                let embedded = sess.intersect(&piece.region, &pred_region);
                if may || embedded.is_exact() {
                    mechanisms.embedding = true;
                    out.push(Pred::True, embedded);
                    continue;
                }
            }
        }
        if may {
            out.push(Pred::True, piece.region.clone());
        }
        // must: drop.
    }
    out
}

/// A predicate that holds when the loop executes at least two iterations
/// (used to reject degenerate run-time tests that only pass for trivial
/// trip counts).
fn trip2_pred(
    lo: &Expr,
    hi: &Expr,
    lo_lin: &Option<LinExpr>,
    hi_lin: &Option<LinExpr>,
    step: i64,
) -> Pred {
    // Two iterations exist exactly when `lo + step` is still in range:
    // `lo + step <= hi` for upward loops, `lo + step >= hi` downward.
    match (lo_lin, hi_lin) {
        (Some(l), Some(h)) => {
            let slack = if step > 0 {
                h.clone() - l.clone() - LinExpr::constant(step)
            } else {
                l.clone() + LinExpr::constant(step) - h.clone()
            };
            Pred::atom(Atom::affine_geq(slack))
        }
        _ => {
            let op = if step > 0 {
                padfa_ir::CmpOp::Ge
            } else {
                padfa_ir::CmpOp::Le
            };
            let cond = BoolExpr::cmp(
                op,
                hi.clone(),
                Expr::Add(Box::new(lo.clone()), Box::new(Expr::int(step))),
            );
            if cond.is_scalar_only() {
                Pred::from_bool(&cond)
            } else {
                Pred::True
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;
    use padfa_ir::parse::parse_program;

    fn analyze(src: &str, opts: &Options) -> AnalysisResult {
        let p = parse_program(src).unwrap();
        analyze_program(&p, opts).unwrap()
    }

    #[test]
    fn independent_loop_is_parallel() {
        let r = analyze(
            "proc m(n: int) { array a[100];
             for i = 1 to n { a[i] = a[i] + 1.0; } }",
            &Options::predicated(),
        );
        assert!(matches!(r.loops[0].outcome, Outcome::Parallel));
    }

    #[test]
    fn true_dependence_is_sequential() {
        let r = analyze(
            "proc m(n: int) { array a[100];
             for i = 2 to n { a[i] = a[i - 1] + 1.0; } }",
            &Options::predicated(),
        );
        assert!(matches!(r.loops[0].outcome, Outcome::Sequential));
    }

    #[test]
    fn io_disqualifies() {
        let r = analyze(
            "proc m(n: int) { array a[100]; var x: int;
             for i = 1 to n { read x; a[i] = 1.0; } }",
            &Options::predicated(),
        );
        assert_eq!(r.loops[0].not_candidate, Some(NotCandidateReason::ReadIo));
    }

    #[test]
    fn exit_disqualifies() {
        let r = analyze(
            "proc m(n: int, x: int) { array a[100];
             for i = 1 to n { a[i] = 1.0; exit when (x > 0); } }",
            &Options::predicated(),
        );
        assert_eq!(
            r.loops[0].not_candidate,
            Some(NotCandidateReason::InternalExit)
        );
    }

    #[test]
    fn privatizable_temp_array() {
        // t is written then read each iteration: privatization removes
        // the cross-iteration WW/WR conflicts.
        let r = analyze(
            "proc m(n: int) { array a[100]; array t[4];
             for i = 1 to n {
                 for j = 1 to 4 { t[j] = a[i] * 2.0; }
                 a[i] = t[1] + t[2];
             } }",
            &Options::predicated(),
        );
        let outer = &r.loops[0];
        assert!(matches!(outer.outcome, Outcome::Parallel), "{outer}");
        assert_eq!(outer.privatized.len(), 1);
        assert_eq!(outer.privatized[0].array, Var::new("t"));
        assert!(!outer.privatized[0].copy_in, "t fully written first");
    }

    #[test]
    fn figure1a_guarded_write_then_guarded_read() {
        // if (x > 5) write help[1..n]; then guarded read: predicated
        // analysis parallelizes the outer loop; base does not.
        let src = "proc m(n: int, c: int, x: int) {
            array help[100]; array a[100, 100];
            for i = 1 to c {
                if (x > 5) {
                    for j = 1 to n { help[j] = 2.0; }
                }
                if (x > 5) {
                    for j = 1 to n { a[i, j] = help[j]; }
                }
            } }";
        let pr = analyze(src, &Options::predicated());
        assert!(
            pr.loops[0].outcome.is_parallelizable(),
            "predicated should parallelize: {}",
            pr.loops[0]
        );
        let br = analyze(src, &Options::base());
        assert!(
            matches!(br.loops[0].outcome, Outcome::Sequential),
            "base must stay sequential: {}",
            br.loops[0]
        );
    }

    #[test]
    fn figure1b_runtime_test_from_guards() {
        // The write to help[i] is guarded by a loop-invariant condition;
        // iteration i reads help[i+1], written by iteration i+1 when the
        // guard holds. Predicated analysis emits a run-time test on the
        // guard (the loop is parallel whenever x <= 5).
        let src = "proc m(c: int, x: int) {
            array help[101]; array a[100, 2];
            for i = 1 to c {
                if (x > 5) { help[i] = a[i, 1]; }
                a[i, 2] = help[i + 1];
            } }";
        let pr = analyze(src, &Options::predicated());
        match &pr.loops[0].outcome {
            Outcome::ParallelIf(t) => {
                assert!(t.is_runtime_testable());
                assert!(pr.loops[0].mechanisms.runtime_test);
                // x <= 5 must make the loop safe.
                let safe = Pred::from_bool(&padfa_ir::parse::parse_bool_expr("x <= 5").unwrap());
                assert!(
                    safe.implies(t, Options::predicated().limits),
                    "x <= 5 should satisfy the test {t}"
                );
            }
            other => panic!("expected run-time test, got {other}"),
        }
        // Guarded variant (no run-time tests) must stay sequential.
        let gr = analyze(src, &Options::guarded());
        assert!(matches!(gr.loops[0].outcome, Outcome::Sequential));
    }

    #[test]
    fn boundary_condition_runtime_test_from_extraction() {
        // Iteration i writes help[i] and reads help[m] (m symbolic): a
        // cross-iteration flow dependence exists only when another
        // iteration writes element m, i.e. when m falls inside the
        // iteration range. Extraction derives the boundary-condition
        // test; no predicate guards are involved (Figure 1(b,d) style).
        let src = "proc m(c: int, m: int) {
            array help[100]; array a[100];
            for i = 1 to c {
                help[i] = a[i] * 2.0;
                a[i] = help[m];
            } }";
        let pr = analyze(src, &Options::predicated());
        match &pr.loops[0].outcome {
            Outcome::ParallelIf(t) => {
                assert!(t.is_runtime_testable(), "test: {t}");
                assert!(pr.loops[0].mechanisms.extraction);
                // m outside any iteration range must satisfy the test.
                let outside =
                    Pred::from_bool(&padfa_ir::parse::parse_bool_expr("m > 100").unwrap());
                assert!(
                    outside.implies(t, Options::predicated().limits),
                    "m > 100 should satisfy {t}"
                );
            }
            other => panic!("expected run-time test, got {other}"),
        }
        // Base analysis: sequential.
        let br = analyze(src, &Options::base());
        assert!(matches!(br.loops[0].outcome, Outcome::Sequential));
    }

    #[test]
    fn zero_trip_guarded_privatization() {
        // Figure 1(d) shape: the write loop covers help[d..n]; the read
        // of help[1] is exposed only when d >= 2 — and in that case no
        // iteration ever writes it, so guarded analysis proves
        // privatization safe unconditionally. The base analysis also
        // succeeds here because the subtraction remainder regions carry
        // the contradiction; the discriminating cases are covered by the
        // guard/extraction tests above.
        let src = "proc m(c: int, n: int, d: int) {
            array help[200]; array a[100, 200];
            for i = 1 to c {
                for j = d to n { help[j] = 1.0; }
                for j = d to n { a[i, j] = help[j]; }
                a[i, 1] = help[1];
            } }";
        let pr = analyze(src, &Options::predicated());
        assert!(
            pr.loops[0].outcome.is_parallelizable(),
            "outer loop: {}",
            pr.loops[0]
        );
        assert!(pr.loops[0]
            .privatized
            .iter()
            .any(|p| p.array == Var::new("help")));
    }

    #[test]
    fn reduction_loop_parallel() {
        let r = analyze(
            "proc m(n: int) { var s: real; array a[1000];
             for i = 1 to n { s = s + a[i]; } }",
            &Options::predicated(),
        );
        assert!(matches!(r.loops[0].outcome, Outcome::Parallel));
        assert_eq!(r.loops[0].reductions.len(), 1);
        // Base SUIF also recognizes reductions.
        let rb = analyze(
            "proc m(n: int) { var s: real; array a[1000];
             for i = 1 to n { s = s + a[i]; } }",
            &Options::base(),
        );
        assert!(matches!(rb.loops[0].outcome, Outcome::Parallel));
    }

    #[test]
    fn exposed_scalar_is_sequential() {
        let r = analyze(
            "proc m(n: int) { var s: real; array a[100];
             for i = 1 to n { a[i] = s; s = a[i] * 2.0; } }",
            &Options::predicated(),
        );
        assert!(matches!(r.loops[0].outcome, Outcome::Sequential));
    }

    #[test]
    fn privatizable_scalar() {
        let r = analyze(
            "proc m(n: int) { var t: real; array a[100];
             for i = 1 to n { t = a[i] * 2.0; a[i] = t + 1.0; } }",
            &Options::predicated(),
        );
        assert!(matches!(r.loops[0].outcome, Outcome::Parallel));
        assert_eq!(r.loops[0].privatized_scalars, vec![Var::new("t")]);
    }

    #[test]
    fn interprocedural_independent() {
        let r = analyze(
            "proc init(row: array[100], n: int) {
                 for j = 1 to n { row[j] = 0.0; }
             }
             proc m(n: int) { array b[100];
                 for i = 1 to n { b[i] = 1.0; }
                 call init(b, n);
             }",
            &Options::predicated(),
        );
        // Both loops parallel (callee loop and caller loop).
        assert!(r.loops.iter().all(|l| l.outcome.is_parallelizable()));
    }

    #[test]
    fn degenerate_test_suppressed() {
        // a[i] = a[i-1]: the only "test" would be n <= 1 (0 or 1 trips),
        // which must be suppressed, leaving the loop sequential.
        let r = analyze(
            "proc m(n: int) { array a[100];
             for i = 2 to n { a[i] = a[i - 1]; } }",
            &Options::predicated(),
        );
        assert!(matches!(r.loops[0].outcome, Outcome::Sequential));
    }

    #[test]
    fn nested_loops_each_reported() {
        let r = analyze(
            "proc m(n: int) { array a[64, 64];
             for i = 1 to n { for j = 1 to n { a[i, j] = 1.0; } } }",
            &Options::predicated(),
        );
        assert_eq!(r.loops.len(), 2);
        assert_eq!(r.loops[0].depth, 0);
        assert_eq!(r.loops[1].depth, 1);
        assert!(r.loops.iter().all(|l| l.outcome.is_parallelizable()));
    }

    fn analyzer<'a>(
        prog: &'a Program,
        sess: &'a AnalysisSession,
        summaries: &'a HashMap<String, Arc<Summary>>,
    ) -> Analyzer<'a> {
        Analyzer {
            prog,
            sess,
            proc_summaries: summaries,
            reports: Vec::new(),
        }
    }

    /// Fold `block` (and, recursively, every block nested in it) with
    /// `Summary::seq` and with the all-keys reference side by side,
    /// asserting equality after every statement. Returns the number of
    /// prefixes checked.
    fn check_block_prefixes(
        az: &mut Analyzer<'_>,
        proc: &Procedure,
        block: &Block,
        depth: usize,
    ) -> usize {
        let mut acc = Summary::empty();
        let mut reference = Summary::empty();
        let mut checked = 0;
        for (i, stmt) in block.stmts.iter().enumerate() {
            let s = az.analyze_stmt(proc, stmt, depth);
            reference = reference.seq_all_keys(&s, az.sess);
            acc = acc.seq(&s, az.sess);
            assert_eq!(
                acc, reference,
                "{}: statement {i} of a depth-{depth} block",
                proc.name
            );
            checked += 1;
            match stmt {
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    // The raw-left composition, against the reference
                    // applied to the un-normalized operand.
                    let mut cond_reads = Summary::empty();
                    add_bool_reads(&mut cond_reads, proc, cond);
                    let t = az.analyze_block(proc, then_blk, depth);
                    let e = az.analyze_block(proc, else_blk, depth);
                    let merged = Summary::if_merge(&Pred::from_bool(cond), &t, &e, az.sess);
                    assert_eq!(
                        reads_then(cond_reads.clone(), &merged, az.sess),
                        cond_reads.seq_all_keys(&merged, az.sess),
                        "{}: condition reads of statement {i}",
                        proc.name
                    );
                    checked += check_block_prefixes(az, proc, then_blk, depth);
                    checked += check_block_prefixes(az, proc, else_blk, depth);
                }
                Stmt::For(l) => checked += check_block_prefixes(az, proc, &l.body, depth + 1),
                _ => {}
            }
        }
        checked
    }

    /// [`check_block_prefixes`] over every procedure of `prog`, with
    /// call statements resolved against a finished whole-program run.
    fn check_program_prefixes(prog: &Program, opts: &Options) -> usize {
        let sess = AnalysisSession::new(opts.clone());
        let (_, summaries) = analyze_program_session(prog, &sess).unwrap();
        let mut az = analyzer(prog, &sess, &summaries);
        prog.procedures
            .iter()
            .map(|p| check_block_prefixes(&mut az, p, &p.body, 0))
            .sum()
    }

    #[test]
    fn reads_then_matches_all_keys_reference_on_dead_sections() {
        // `m[0, k[1]]` reads a provably empty, inexact section. Whether
        // the rest mentions `m` (the slot is merged, then normalized)
        // or not (the slot is carried), the result is the reference's.
        let prog = parse_program(
            "proc main(n: int) {
                 array m[10, 10]; array k[10] of int; array b[10]; var x: real;
                 x = m[0, k[1]];
                 x = m[1, 1];
                 b[1] = 1.0;
             }",
        )
        .unwrap();
        let proc = &prog.procedures[0];
        for opts in [Options::base(), Options::guarded(), Options::predicated()] {
            let sess = AnalysisSession::new(opts);
            let no_callees = HashMap::new();
            let mut az = analyzer(&prog, &sess, &no_callees);
            let Stmt::Assign { rhs, .. } = &proc.body.stmts[0] else {
                panic!("statement 0 is an assignment");
            };
            let mut reads = Summary::empty();
            add_expr_reads(&mut reads, proc, rhs);
            let m = Var::new("m");
            assert!(!reads.arrays[&m].r.is_empty(), "raw: {reads}");
            for rest in &proc.body.stmts[1..] {
                let rest = az.analyze_stmt(proc, rest, 0);
                let got = reads_then(reads.clone(), &rest, &sess);
                assert_eq!(got, reads.seq_all_keys(&rest, &sess));
                if !rest.arrays.contains_key(&m) {
                    assert!(got.arrays[&m].r.is_empty(), "dead section carried: {got}");
                }
            }
        }
    }

    #[test]
    fn seq_matches_all_keys_reference_on_corpus() {
        let mut checked = 0;
        for bench in padfa_suite::build_corpus() {
            for opts in [Options::base(), Options::guarded(), Options::predicated()] {
                checked += check_program_prefixes(&bench.program, &opts);
            }
        }
        assert!(checked > 10_000, "only {checked} block prefixes checked");
    }

    #[test]
    fn seq_matches_all_keys_reference_on_generated_programs() {
        use padfa_ir::testgen::{random_program, GenConfig};
        for seed in 0..240 {
            let prog = random_program(seed, GenConfig::default());
            for opts in [Options::base(), Options::guarded(), Options::predicated()] {
                check_program_prefixes(&prog, &opts);
            }
        }
    }

    #[test]
    fn base_variant_no_runtime_tests_anywhere() {
        let src = "proc m(c: int, n: int, x: int) {
            array help[100]; array a[100, 100];
            for i = 1 to c {
                if (x > 5) { for j = 1 to n { help[j] = 1.0; } }
                for j = 1 to n { a[i, j] = help[j]; }
            } }";
        let r = analyze(src, &Options::base());
        assert_eq!(r.num_runtime_tested(), 0);
    }
}
