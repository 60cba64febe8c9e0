//! Interprocedural machinery: call graph ordering and translation of
//! callee summaries to call sites, including the `Reshape` operation
//! with its divisibility-predicate extraction.

use crate::component::PredComponent;
use crate::region::{dim_var, whole_array};
use crate::report::Mechanisms;
use crate::session::AnalysisSession;
use crate::summary::{ArraySummary, Summary};
use padfa_ir::affine;
use padfa_ir::ast::{Arg, Block, BoolExpr, Expr, ParamTy, Procedure, Program, Stmt};
use padfa_omega::{Constraint, Disjunction, LinExpr, System, Var};
use padfa_pred::Pred;
use std::collections::HashMap;

/// Bottom-up (callees first) ordering of procedure indices. Procedures
/// on call-graph cycles are reported in `recursive` and receive fully
/// conservative summaries.
///
/// `levels` partitions `order` into topological levels: every procedure
/// in level `k` only calls procedures in levels `< k` (ignoring cycle
/// back-edges, whose members get conservative summaries anyway), so the
/// driver visits the levels in order. Each level lists its procedures
/// in ascending index, which makes (level, index) the visiting order.
/// The levels cover exactly the procedures of `order` (each appears in
/// exactly one level).
///
/// `called[i]` holds when some call site in the program names procedure
/// `i`: a caller then reads its summary.
pub struct CallOrder {
    pub order: Vec<usize>,
    pub recursive: Vec<usize>,
    pub levels: Vec<Vec<usize>>,
    pub called: Vec<bool>,
}

/// Direct callee names of a procedure, in syntactic order.
pub fn callees(p: &Procedure, out: &mut Vec<String>) {
    fn walk(b: &Block, out: &mut Vec<String>) {
        for s in &b.stmts {
            match s {
                Stmt::Call { callee, .. } => out.push(callee.clone()),
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, out);
                    walk(else_blk, out);
                }
                Stmt::For(l) => walk(&l.body, out),
                _ => {}
            }
        }
    }
    walk(&p.body, out);
}

/// Compute the call order by depth-first search.
pub fn call_order(prog: &Program) -> CallOrder {
    let index: HashMap<&str, usize> = prog
        .procedures
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();

    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = prog.procedures.len();
    let mut marks = vec![Mark::White; n];
    let mut order = Vec::new();
    let mut recursive = Vec::new();

    fn dfs(
        i: usize,
        prog: &Program,
        index: &HashMap<&str, usize>,
        marks: &mut Vec<Mark>,
        order: &mut Vec<usize>,
        recursive: &mut Vec<usize>,
    ) {
        marks[i] = Mark::Grey;
        let mut cs = Vec::new();
        callees(&prog.procedures[i], &mut cs);
        for c in cs {
            if let Some(&j) = index.get(c.as_str()) {
                match marks[j] {
                    Mark::White => dfs(j, prog, index, marks, order, recursive),
                    Mark::Grey => {
                        if !recursive.contains(&j) {
                            recursive.push(j);
                        }
                        if !recursive.contains(&i) {
                            recursive.push(i);
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        marks[i] = Mark::Black;
        order.push(i);
    }

    for i in 0..n {
        if marks[i] == Mark::White {
            dfs(i, prog, &index, &mut marks, &mut order, &mut recursive);
        }
    }

    // Assign topological levels along the postorder: a procedure sits one
    // level above its deepest already-levelled callee. Callees not yet
    // levelled are back-edges of a cycle; they are ignored, which is
    // sound because cycle members receive conservative summaries that
    // consult no callee summary at all, and the postorder still places
    // them before their external callers.
    let mut level = vec![usize::MAX; n];
    let mut levels: Vec<Vec<usize>> = Vec::new();
    let mut called = vec![false; n];
    for &i in &order {
        let mut cs = Vec::new();
        callees(&prog.procedures[i], &mut cs);
        let mut lv = 0;
        for c in cs {
            if let Some(&j) = index.get(c.as_str()) {
                called[j] = true;
                if j != i && level[j] != usize::MAX {
                    lv = lv.max(level[j] + 1);
                }
            }
        }
        level[i] = lv;
        if levels.len() <= lv {
            levels.resize(lv + 1, Vec::new());
        }
        levels[lv].push(i);
    }
    for level in &mut levels {
        level.sort_unstable();
    }
    CallOrder {
        order,
        recursive,
        levels,
        called,
    }
}

/// Fully conservative summary for a procedure (used for recursion):
/// every array parameter may be read and written anywhere, with exposed
/// reads; the region performs I/O so enclosing loops are disqualified.
pub fn conservative_summary(proc: &Procedure) -> Summary {
    let mut s = Summary::empty();
    for p in &proc.params {
        if let ParamTy::Array { .. } = p.ty {
            let region = whole_array(proc, p.name).inexact();
            let a = s.array_mut(p.name);
            a.mw = PredComponent::unconditional(region.clone());
            a.r = PredComponent::unconditional(region.clone());
            a.e = PredComponent::unconditional(region);
        } else {
            s.read_scalar(p.name);
        }
    }
    s.has_io = true;
    s
}

/// The sound degraded summary substituted for a procedure whose work
/// budget ran out: the conservative summary (may-read/may-write = the
/// whole declared extent of every array parameter, inexact; exposed
/// reads everywhere; no must-writes; `has_io` so enclosing loops are
/// disqualified) tagged `degraded`. Every component over-approximates
/// (W under-approximates as ∅), so replacing any exact summary with this
/// one can only *lose* parallel loops downstream — never invent one.
pub fn degraded_summary(proc: &Procedure) -> Summary {
    let mut s = conservative_summary(proc);
    s.degraded = true;
    s
}

fn subst_expr(e: &Expr, map: &HashMap<Var, Expr>) -> Expr {
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) => e.clone(),
        Expr::Scalar(v) => map.get(v).cloned().unwrap_or_else(|| e.clone()),
        Expr::Elem(a, idxs) => Expr::Elem(*a, idxs.iter().map(|i| subst_expr(i, map)).collect()),
        Expr::Add(a, b) => Expr::Add(Box::new(subst_expr(a, map)), Box::new(subst_expr(b, map))),
        Expr::Sub(a, b) => Expr::Sub(Box::new(subst_expr(a, map)), Box::new(subst_expr(b, map))),
        Expr::Mul(a, b) => Expr::Mul(Box::new(subst_expr(a, map)), Box::new(subst_expr(b, map))),
        Expr::Div(a, b) => Expr::Div(Box::new(subst_expr(a, map)), Box::new(subst_expr(b, map))),
        Expr::Mod(a, b) => Expr::Mod(Box::new(subst_expr(a, map)), Box::new(subst_expr(b, map))),
        Expr::Neg(a) => Expr::Neg(Box::new(subst_expr(a, map))),
        Expr::Call(i, args) => Expr::Call(*i, args.iter().map(|a| subst_expr(a, map)).collect()),
    }
}

fn subst_bool(b: &BoolExpr, map: &HashMap<Var, Expr>) -> BoolExpr {
    match b {
        BoolExpr::Lit(_) => b.clone(),
        BoolExpr::Cmp(op, x, y) => BoolExpr::Cmp(*op, subst_expr(x, map), subst_expr(y, map)),
        BoolExpr::And(x, y) => BoolExpr::and(subst_bool(x, map), subst_bool(y, map)),
        BoolExpr::Or(x, y) => BoolExpr::or(subst_bool(x, map), subst_bool(y, map)),
        BoolExpr::Not(x) => BoolExpr::not(subst_bool(x, map)),
    }
}

/// Substitute actual expressions for formal scalars inside a predicate.
pub fn subst_pred(p: &Pred, map: &HashMap<Var, Expr>) -> Pred {
    if map.is_empty() {
        return p.clone();
    }
    Pred::from_bool(&subst_bool(&p.to_bool_expr(), map))
}

/// Translate one component across the call boundary.
#[allow(clippy::too_many_arguments)]
fn translate_component(
    comp: &PredComponent,
    formal: Var,
    actual: Var,
    callee: &Procedure,
    caller: &Procedure,
    scalar_map: &HashMap<Var, Expr>,
    affine_map: &HashMap<Var, LinExpr>,
    non_affine_formals: &[Var],
    is_must: bool,
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
) -> PredComponent {
    // Callee extents in two forms: raw (over formal scalars, matching the
    // variables still present in non-substituted regions) and substituted
    // (caller-side expressions, used for shape comparison and run-time
    // guards).
    let callee_dims_raw: Vec<Expr> = callee
        .array_dims(formal)
        .map(|d| d.to_vec())
        .unwrap_or_default();
    let callee_dims: Vec<Expr> = callee_dims_raw
        .iter()
        .map(|e| subst_expr(e, scalar_map))
        .collect();
    let caller_dims: Vec<Expr> = caller
        .array_dims(actual)
        .map(|d| d.to_vec())
        .unwrap_or_default();

    let mut out = PredComponent::empty();
    for piece in &comp.pieces {
        let pred = subst_pred(&piece.pred, scalar_map);
        if pred.is_false() {
            continue;
        }
        // Substitute affine actuals for scalar formals inside the region.
        // Formals with non-affine actuals keep their own variable; the
        // reshape full-coverage case can still reason about them, and any
        // other path must degrade.
        let mut region = (*piece.region).clone();
        for (f, le) in affine_map {
            region = region.subst(*f, le);
        }
        let mentions_untranslatable = non_affine_formals.iter().any(|f| region.vars().contains(f));

        let same_shape = callee_dims.len() == caller_dims.len()
            && callee_dims.iter().zip(&caller_dims).all(|(a, b)| {
                match (affine::to_linexpr(a), affine::to_linexpr(b)) {
                    (Some(x), Some(y)) => x == y,
                    _ => a == b,
                }
            });

        if same_shape && !mentions_untranslatable {
            for d in 0..callee_dims.len().max(1) {
                region = region.rename(dim_var(formal, d), dim_var(actual, d));
            }
            out.push(pred, region);
            continue;
        }

        // Reshape.
        match reshape_region(
            &region,
            formal,
            actual,
            &callee_dims_raw,
            &callee_dims,
            &caller_dims,
            mentions_untranslatable,
            caller,
            sess,
            mechanisms,
        ) {
            ReshapeResult::Exact(r) => out.push(pred, r),
            ReshapeResult::Guarded { optimistic, guard } => {
                // Optimistic whole-array piece under the extracted
                // divisibility/size predicate, plus the conservative
                // default for may components.
                out.push(Pred::and(pred.clone(), guard), optimistic);
                if !is_must {
                    out.push(pred, whole_array(caller, actual).inexact());
                }
            }
            ReshapeResult::Conservative => {
                if !is_must {
                    out.push(pred, whole_array(caller, actual).inexact());
                }
            }
        }
    }
    out
}

/// The paper's `Reshape` extraction: when the callee accesses its whole
/// declared extent `[1..m]`, the caller's array is fully covered exactly
/// when the total sizes agree (`m == r*c` — the divisibility/size
/// condition). Returns an optimistic whole-array piece guarded by that
/// run-time-testable predicate.
///
/// The subset check runs in the callee's own terms (using the raw formal
/// extent, which may still appear as a variable in the region); the
/// guard is rendered in caller terms using the substituted extents.
#[allow(clippy::too_many_arguments)]
fn reshape_full_coverage(
    region: &Disjunction,
    formal: Var,
    actual: Var,
    callee_dims_raw: &[Expr],
    callee_dims: &[Expr],
    caller_dims: &[Expr],
    caller: &Procedure,
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
) -> ReshapeResult {
    if !sess.opts.extraction || callee_dims_raw.len() != 1 || caller_dims.len() != 2 {
        return ReshapeResult::Conservative;
    }
    let Some(m_raw) = affine::to_linexpr(&callee_dims_raw[0]) else {
        return ReshapeResult::Conservative;
    };
    let f0 = dim_var(formal, 0);
    let full = Disjunction::from_system(System::from_constraints([
        Constraint::geq(LinExpr::var(f0), LinExpr::constant(1)),
        Constraint::leq(LinExpr::var(f0), m_raw),
    ]));
    // Compare against the *unsubstituted* region so the formal extent
    // variable lines up.
    if region.is_exact() && sess.subset_of(&full, region) {
        mechanisms.extraction = true;
        let guard = Pred::from_bool(&BoolExpr::cmp(
            padfa_ir::CmpOp::Eq,
            callee_dims[0].clone(),
            Expr::Mul(
                Box::new(caller_dims[0].clone()),
                Box::new(caller_dims[1].clone()),
            ),
        ));
        return ReshapeResult::Guarded {
            optimistic: whole_array(caller, actual),
            guard,
        };
    }
    ReshapeResult::Conservative
}

enum ReshapeResult {
    Exact(Disjunction),
    Guarded {
        optimistic: Disjunction,
        guard: Pred,
    },
    Conservative,
}

/// Translate a region across an array-shape change (`Reshape`).
///
/// Arrays are row-major and 1-based, so the linearized offset of
/// `A[a0, a1]` (shape `[r, c]`) is `(a0-1)*c + (a1-1)`. Three cases:
///
/// 1. rank 1 ↔ rank 1: offsets coincide; rename and re-bound.
/// 2. rank change with *constant* minor extent: the linearization is an
///    affine relation; translate exactly by constraint + projection.
/// 3. full-coverage with symbolic sizes: if the callee accesses its
///    entire declared extent `[1..m]`, the caller's whole array is
///    covered exactly when `m == r*c` — an extracted, run-time-testable
///    predicate (the paper's divisibility test from delinearization).
#[allow(clippy::too_many_arguments)]
fn reshape_region(
    region: &Disjunction,
    formal: Var,
    actual: Var,
    callee_dims_raw: &[Expr],
    callee_dims: &[Expr],
    caller_dims: &[Expr],
    mentions_untranslatable: bool,
    caller: &Procedure,
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
) -> ReshapeResult {
    let limits = sess.opts.limits;
    // The affine translation cases require the region to be fully in
    // caller terms already.
    if mentions_untranslatable {
        return reshape_full_coverage(
            region,
            formal,
            actual,
            callee_dims_raw,
            callee_dims,
            caller_dims,
            caller,
            sess,
            mechanisms,
        );
    }
    // Case 1: rank 1 -> rank 1 (different extents).
    if callee_dims.len() == 1 && caller_dims.len() == 1 {
        let mut r = region.rename(dim_var(formal, 0), dim_var(actual, 0));
        let mut clamped = Disjunction::empty();
        for sys in r.systems() {
            let mut s = sys.clone();
            for c in crate::region::decl_bounds(caller, actual) {
                s.push(c);
            }
            clamped.push(s);
        }
        if !r.is_exact() {
            clamped.set_inexact();
        }
        r = clamped;
        return ReshapeResult::Exact(r);
    }

    // Case 2: rank 1 -> rank 2 with constant minor extent.
    if callee_dims.len() == 1 && caller_dims.len() == 2 {
        if let Some(c_ext) = affine::to_linexpr(&caller_dims[1]).filter(|l| l.is_const()) {
            let c = c_ext.konst();
            if c > 0 {
                let f0 = dim_var(formal, 0);
                let a0 = dim_var(actual, 0);
                let a1 = dim_var(actual, 1);
                let mut out = Disjunction::empty();
                let mut exact = region.is_exact();
                for sys in region.systems() {
                    let mut s = sys.clone();
                    // f0 == (a0-1)*c + a1
                    s.push(Constraint::eq(
                        LinExpr::var(f0),
                        LinExpr::term(a0, c) - LinExpr::constant(c) + LinExpr::var(a1),
                    ));
                    for cb in crate::region::decl_bounds(caller, actual) {
                        s.push(cb);
                    }
                    let p = s.project_out(&[f0], limits);
                    exact &= p.exact;
                    out.push(p.system);
                }
                if !exact {
                    out.set_inexact();
                }
                return ReshapeResult::Exact(out);
            }
        }
        // Case 3: full coverage under a size-equality predicate.
        return reshape_full_coverage(
            region,
            formal,
            actual,
            callee_dims_raw,
            callee_dims,
            caller_dims,
            caller,
            sess,
            mechanisms,
        );
    }

    // Case 1': rank 2 -> rank 2 with the same minor extent (a common
    // Fortran idiom: pass a larger/smaller matrix with identical row
    // length). The row-major offsets coincide coordinate-wise, so both
    // dimension variables rename directly; caller bounds clamp the rows.
    if callee_dims.len() == 2 && caller_dims.len() == 2 {
        let minor_equal = match (
            affine::to_linexpr(&callee_dims[1]),
            affine::to_linexpr(&caller_dims[1]),
        ) {
            (Some(a), Some(b)) => a == b,
            _ => callee_dims[1] == caller_dims[1],
        };
        if minor_equal {
            let mut r = region
                .rename(dim_var(formal, 0), dim_var(actual, 0))
                .rename(dim_var(formal, 1), dim_var(actual, 1));
            let mut clamped = Disjunction::empty();
            for sys in r.systems() {
                let mut s = sys.clone();
                for c in crate::region::decl_bounds(caller, actual) {
                    s.push(c);
                }
                clamped.push(s);
            }
            if !r.is_exact() {
                clamped.set_inexact();
            }
            r = clamped;
            return ReshapeResult::Exact(r);
        }
        return ReshapeResult::Conservative;
    }

    // Case 2': rank 2 -> rank 1 with constant minor extent on the callee.
    if callee_dims.len() == 2 && caller_dims.len() == 1 {
        if let Some(c_ext) = affine::to_linexpr(&callee_dims[1]).filter(|l| l.is_const()) {
            let c = c_ext.konst();
            if c > 0 {
                let f0 = dim_var(formal, 0);
                let f1 = dim_var(formal, 1);
                let a0 = dim_var(actual, 0);
                let mut out = Disjunction::empty();
                let mut exact = region.is_exact();
                for sys in region.systems() {
                    let mut s = sys.clone();
                    s.push(Constraint::eq(
                        LinExpr::var(a0),
                        LinExpr::term(f0, c) - LinExpr::constant(c) + LinExpr::var(f1),
                    ));
                    for cb in crate::region::decl_bounds(caller, actual) {
                        s.push(cb);
                    }
                    let p = s.project_out(&[f0, f1], limits);
                    exact &= p.exact;
                    out.push(p.system);
                }
                if !exact {
                    out.set_inexact();
                }
                return ReshapeResult::Exact(out);
            }
        }
        return ReshapeResult::Conservative;
    }

    ReshapeResult::Conservative
}

/// Translate a callee's procedure summary to a call site.
pub fn translate_call(
    callee_summary: &Summary,
    callee: &Procedure,
    caller: &Procedure,
    args: &[Arg],
    sess: &AnalysisSession,
    mechanisms: &mut Mechanisms,
) -> Summary {
    let mut out = Summary::empty();
    out.has_io = callee_summary.has_io;
    // Internal exits are local to the callee's own loops.
    out.has_exit = false;
    // A degraded callee taints the call-site summary so the imprecision
    // stays visible (soundness needs nothing more: the degraded summary
    // already carries ⊤ may-regions and `has_io`).
    out.degraded = callee_summary.degraded;

    // Bind scalar formals.
    let mut scalar_map: HashMap<Var, Expr> = HashMap::new();
    let mut affine_map: HashMap<Var, LinExpr> = HashMap::new();
    let mut non_affine: Vec<Var> = Vec::new();
    let mut array_binding: HashMap<Var, Var> = HashMap::new();
    for (param, arg) in callee.params.iter().zip(args) {
        match (&param.ty, arg) {
            (ParamTy::Scalar(_), Arg::Scalar(e)) => {
                scalar_map.insert(param.name, e.clone());
                match affine::to_linexpr(e) {
                    Some(l) => {
                        affine_map.insert(param.name, l);
                    }
                    None => non_affine.push(param.name),
                }
                // The call reads the actual's scalars.
                let mut vs = Vec::new();
                e.scalar_vars(&mut vs);
                for v in vs {
                    out.read_scalar(v);
                }
            }
            (ParamTy::Scalar(_), Arg::Array(v)) => {
                // Parser ambiguity: a bare scalar name.
                scalar_map.insert(param.name, Expr::Scalar(*v));
                affine_map.insert(param.name, LinExpr::var(*v));
                out.read_scalar(*v);
            }
            (ParamTy::Array { .. }, Arg::Array(v)) => {
                array_binding.insert(param.name, *v);
            }
            (ParamTy::Array { .. }, Arg::Scalar(_)) => {
                // Rejected by the resolver; ignore defensively.
            }
        }
    }

    for (&formal, asum) in &callee_summary.arrays {
        let Some(&actual) = array_binding.get(&formal) else {
            // Local array of the callee: invisible to the caller.
            continue;
        };
        let tr = |comp: &PredComponent, is_must: bool, mech: &mut Mechanisms| {
            translate_component(
                comp,
                formal,
                actual,
                callee,
                caller,
                &scalar_map,
                &affine_map,
                &non_affine,
                is_must,
                sess,
                mech,
            )
        };
        let mut a = ArraySummary {
            w: tr(&asum.w, true, mechanisms),
            mw: tr(&asum.mw, false, mechanisms),
            r: tr(&asum.r, false, mechanisms),
            e: tr(&asum.e, false, mechanisms),
        };
        a.normalize(sess);
        out.arrays.insert(actual, a);
    }

    // Exposed scalar reads of formals become reads of the actual's vars
    // (already recorded above when binding).
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use padfa_ir::parse::parse_program;

    fn sess() -> AnalysisSession {
        AnalysisSession::new(Options::predicated())
    }

    #[test]
    fn call_order_bottom_up() {
        let p = parse_program(
            "proc a() { call b(); call c(); }
             proc b() { call c(); }
             proc c() { }",
        )
        .unwrap();
        let co = call_order(&p);
        assert!(co.recursive.is_empty());
        let pos = |name: &str| {
            let idx = p.procedures.iter().position(|x| x.name == name).unwrap();
            co.order.iter().position(|&i| i == idx).unwrap()
        };
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn recursion_detected() {
        let p = parse_program(
            "proc a() { call b(); }
             proc b() { call a(); }",
        )
        .unwrap();
        let co = call_order(&p);
        assert_eq!(co.recursive.len(), 2);
    }

    #[test]
    fn levels_partition_topologically() {
        let p = parse_program(
            "proc a() { call b(); call c(); }
             proc b() { call c(); }
             proc c() { }
             proc d() { }",
        )
        .unwrap();
        let co = call_order(&p);
        let idx = |name: &str| p.procedures.iter().position(|x| x.name == name).unwrap();
        let level_of = |i: usize| co.levels.iter().position(|l| l.contains(&i)).unwrap();
        // The levels partition exactly the procedures of `order`.
        let mut flat: Vec<usize> = co.levels.iter().flatten().copied().collect();
        flat.sort_unstable();
        let mut all = co.order.clone();
        all.sort_unstable();
        assert_eq!(flat, all);
        assert_eq!(level_of(idx("c")), 0);
        assert_eq!(level_of(idx("d")), 0, "leaf with no callees is level 0");
        assert_eq!(level_of(idx("b")), 1);
        assert_eq!(level_of(idx("a")), 2);
        let called: Vec<&str> = (0..p.procedures.len())
            .filter(|&i| co.called[i])
            .map(|i| p.procedures[i].name.as_str())
            .collect();
        assert_eq!(called, ["b", "c"], "a and d are named by no call site");
        // Every callee sits strictly below its caller.
        for (i, proc) in p.procedures.iter().enumerate() {
            let mut cs = Vec::new();
            callees(proc, &mut cs);
            for c in cs {
                let j = idx(&c);
                assert!(level_of(j) < level_of(i), "{c} not below {}", proc.name);
            }
        }
    }

    #[test]
    fn self_recursion_detected_and_levelled_once() {
        let p = parse_program(
            "proc a() { call a(); }
             proc main() { call a(); }",
        )
        .unwrap();
        let co = call_order(&p);
        let ia = p.procedures.iter().position(|x| x.name == "a").unwrap();
        assert!(
            co.recursive.contains(&ia),
            "self-recursion must be detected"
        );
        // Each procedure appears exactly once across all levels.
        let mut flat: Vec<usize> = co.levels.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(flat, vec![0, 1]);
        // The caller of the cycle still sits above it.
        let level_of = |i: usize| co.levels.iter().position(|l| l.contains(&i)).unwrap();
        let im = p.procedures.iter().position(|x| x.name == "main").unwrap();
        assert!(level_of(im) > level_of(ia));
    }

    #[test]
    fn mutual_recursion_levels_stay_below_external_caller() {
        let p = parse_program(
            "proc a() { call b(); }
             proc b() { call a(); }
             proc main() { call a(); call b(); }",
        )
        .unwrap();
        let co = call_order(&p);
        assert_eq!(co.recursive.len(), 2);
        let flat: Vec<usize> = co.levels.iter().flatten().copied().collect();
        assert_eq!(flat.len(), 3, "each procedure levelled exactly once");
        let level_of = |i: usize| co.levels.iter().position(|l| l.contains(&i)).unwrap();
        let idx = |name: &str| p.procedures.iter().position(|x| x.name == name).unwrap();
        assert!(level_of(idx("main")) > level_of(idx("a")));
        assert!(level_of(idx("main")) > level_of(idx("b")));
    }

    #[test]
    fn conservative_summary_shape() {
        let p = parse_program("proc f(n: int, a: array[10]) { }").unwrap();
        let s = conservative_summary(&p.procedures[0]);
        assert!(s.has_io);
        let a = &s.arrays[&Var::new("a")];
        assert!(a.w.is_empty());
        assert!(!a.mw.is_empty());
        assert!(!a.mw.pieces[0].region.is_exact());
    }

    #[test]
    fn same_shape_translation_renames() {
        // Callee writes b[1..m]; caller passes a (same shape [10]), m=10.
        let p = parse_program(
            "proc callee(b: array[10], m: int) {
                 for j = 1 to m { b[j] = 0.0; }
             }
             proc main() { array a[10]; call callee(a, 10); }",
        )
        .unwrap();
        let callee = p.proc("callee").unwrap();
        let caller = p.proc("main").unwrap();
        // Build the callee summary by hand: W = {1 <= $b.0 <= m}.
        let mut cs = Summary::empty();
        let region = Disjunction::from_system(System::from_constraints([
            Constraint::geq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::constant(1),
            ),
            Constraint::leq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::var(Var::new("m")),
            ),
        ]));
        cs.array_mut(Var::new("b")).w = PredComponent::unconditional(region.clone());
        cs.array_mut(Var::new("b")).mw = PredComponent::unconditional(region);

        let args = vec![Arg::Array(Var::new("a")), Arg::Scalar(Expr::int(10))];
        let mut mech = Mechanisms::default();
        let s = sess();
        let t = translate_call(&cs, callee, caller, &args, &s, &mut mech);
        let w = t.arrays[&Var::new("a")].w.must_region(&Pred::True, &s);
        let d = dim_var(Var::new("a"), 0);
        assert_eq!(
            w.contains(&|v| if v == d { Some(10) } else { None }),
            Some(true)
        );
        assert_eq!(
            w.contains(&|v| if v == d { Some(11) } else { None }),
            Some(false)
        );
    }

    #[test]
    fn reshape_constant_minor_extent_is_exact() {
        // Callee linear b[1..20] onto caller a[4, 5] covers everything.
        let p = parse_program(
            "proc callee(b: array[20]) { for j = 1 to 20 { b[j] = 0.0; } }
             proc main() { array a[4, 5]; call callee(a); }",
        )
        .unwrap();
        let callee = p.proc("callee").unwrap();
        let caller = p.proc("main").unwrap();
        let mut cs = Summary::empty();
        let region = Disjunction::from_system(System::from_constraints([
            Constraint::geq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::constant(1),
            ),
            Constraint::leq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::constant(20),
            ),
        ]));
        cs.array_mut(Var::new("b")).w = PredComponent::unconditional(region);
        let args = vec![Arg::Array(Var::new("a"))];
        let mut mech = Mechanisms::default();
        let s = sess();
        let t = translate_call(&cs, callee, caller, &args, &s, &mut mech);
        let w = t.arrays[&Var::new("a")].w.must_region(&Pred::True, &s);
        let d0 = dim_var(Var::new("a"), 0);
        let d1 = dim_var(Var::new("a"), 1);
        let at = |i: i64, j: i64| {
            w.contains(&|v| {
                if v == d0 {
                    Some(i)
                } else if v == d1 {
                    Some(j)
                } else {
                    None
                }
            })
            .unwrap()
        };
        assert!(at(1, 1));
        assert!(at(4, 5));
        assert!(at(2, 3));
        assert!(!at(5, 1));
    }

    #[test]
    fn reshape_symbolic_full_coverage_extracts_divisibility_guard() {
        // Callee covers b[1..m] fully; caller array a[r, c] with symbolic
        // r, c: optimistic piece guarded by m == r * c.
        let p = parse_program(
            "proc callee(b: array[m], m: int) { for j = 1 to m { b[j] = 0.0; } }
             proc main(r: int, c: int, m: int) { array a[r, c]; call callee(a, m); }",
        )
        .unwrap();
        let callee = p.proc("callee").unwrap();
        let caller = p.proc("main").unwrap();
        let mut cs = Summary::empty();
        let region = Disjunction::from_system(System::from_constraints([
            Constraint::geq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::constant(1),
            ),
            Constraint::leq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::var(Var::new("m")),
            ),
        ]));
        cs.array_mut(Var::new("b")).w = PredComponent::unconditional(region);
        let args = vec![Arg::Array(Var::new("a")), Arg::Scalar(Expr::scalar("m"))];
        let mut mech = Mechanisms::default();
        let t = translate_call(&cs, callee, caller, &args, &sess(), &mut mech);
        assert!(mech.extraction, "divisibility guard must be extracted");
        let w = &t.arrays[&Var::new("a")].w;
        assert_eq!(w.pieces.len(), 1);
        let guard = &w.pieces[0].pred;
        assert!(!guard.is_true());
        assert!(guard.is_runtime_testable());
        // Guard references m, r, c.
        let vars = guard.scalar_vars();
        for name in ["m", "r", "c"] {
            assert!(
                vars.contains(&Var::new(name)),
                "guard {guard} missing {name}"
            );
        }
    }

    #[test]
    fn reshape_rank2_equal_minor_extent_is_exact() {
        // Callee sees the first 3 rows of the caller's 8x5 matrix.
        let p = parse_program(
            "proc top(b: array[3, 5]) { for j = 1 to 3 { b[j, 1] = 0.0; } }
             proc main() { array a[8, 5]; call top(a); }",
        )
        .unwrap();
        let callee = p.proc("top").unwrap();
        let caller = p.proc("main").unwrap();
        let mut cs = Summary::empty();
        let region = Disjunction::from_system(System::from_constraints([
            Constraint::geq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::constant(1),
            ),
            Constraint::leq(
                LinExpr::var(dim_var(Var::new("b"), 0)),
                LinExpr::constant(3),
            ),
            Constraint::eq(
                LinExpr::var(dim_var(Var::new("b"), 1)),
                LinExpr::constant(1),
            ),
        ]));
        cs.array_mut(Var::new("b")).w = PredComponent::unconditional(region);
        let args = vec![Arg::Array(Var::new("a"))];
        let mut mech = Mechanisms::default();
        let s = sess();
        let t = translate_call(&cs, callee, caller, &args, &s, &mut mech);
        let w = t.arrays[&Var::new("a")].w.must_region(&Pred::True, &s);
        let d0 = dim_var(Var::new("a"), 0);
        let d1 = dim_var(Var::new("a"), 1);
        let at = |i: i64, j: i64| {
            w.contains(&|v| {
                if v == d0 {
                    Some(i)
                } else if v == d1 {
                    Some(j)
                } else {
                    None
                }
            })
            .unwrap()
        };
        assert!(at(1, 1));
        assert!(at(3, 1));
        assert!(!at(4, 1), "rows beyond the callee view are untouched");
        assert!(!at(1, 2));
    }

    #[test]
    fn non_affine_actual_degrades() {
        let p = parse_program(
            "proc callee(b: array[10], k: int) { b[k] = 0.0; }
             proc main() { array a[10]; array idx[4] of int;
                           call callee(a, idx[1]); }",
        )
        .unwrap();
        let callee = p.proc("callee").unwrap();
        let caller = p.proc("main").unwrap();
        let mut cs = Summary::empty();
        let region = Disjunction::from_system(System::from_constraints([Constraint::eq(
            LinExpr::var(dim_var(Var::new("b"), 0)),
            LinExpr::var(Var::new("k")),
        )]));
        cs.array_mut(Var::new("b")).w = PredComponent::unconditional(region.clone());
        cs.array_mut(Var::new("b")).mw = PredComponent::unconditional(region);
        let args = vec![
            Arg::Array(Var::new("a")),
            Arg::Scalar(Expr::elem("idx", vec![Expr::int(1)])),
        ];
        let mut mech = Mechanisms::default();
        let t = translate_call(&cs, callee, caller, &args, &sess(), &mut mech);
        let a = &t.arrays[&Var::new("a")];
        assert!(a.w.is_empty(), "must-write must drop");
        assert!(!a.mw.is_empty(), "may-write survives conservatively");
        assert!(!a.mw.pieces[0].region.is_exact());
    }
}
