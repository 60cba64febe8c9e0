//! Structural byte codec for store payloads.
//!
//! A payload is the encoding of one procedure's entry: its [`Summary`]
//! when the writer folded one, and the [`LoopReport`]s derived with it,
//! their evidence included when the writer built it ([`Parts`]).
//! Round-tripping must be bit-exact — a decoded region must equal the
//! freshly-computed one including constraint order — which is why
//! [`System::from_raw_parts`] / [`Disjunction::from_raw_parts`] exist:
//! the ordinary constructors re-normalize and may reorder or drop parts.
//!
//! Variables are encoded **by name** and numbered on decode in the
//! reading session's table. A `Var`'s number belongs to its program's
//! numbering ([`padfa_omega::VarTable`]), so it never touches the disk;
//! names are the cross-process identity. Floats
//! are encoded via [`f64::to_bits`] so `-0.0`/NaN payloads survive.
//!
//! Every `decode_*` returns `Option`: any malformed byte stream — a
//! truncated buffer, an unknown tag, a length that overruns — decodes to
//! `None`, which the store treats as a corrupt entry (quarantine + cache
//! miss), never as an error the analysis can observe.

use crate::component::{GuardedRegion, PredComponent};
use crate::provenance::{
    ArrayEvidence, ArrayVerdict, BudgetEvent, Mechanism, PairEvidence, PairKind, PairOutcome,
    Provenance, RejectReason, ScalarEvidence, ScalarVerdict,
};
use crate::report::{
    LoopReport, Mechanisms, NotCandidateReason, Outcome, PrivArray, ReduceOp, Reduction,
};
use crate::summary::{ArraySummary, ScalarSummary, Summary};
use crate::varmap::{VarMap, VarSet};
use padfa_ir::ast::{BoolExpr, CmpOp, Expr, Intrinsic};
use padfa_ir::LoopId;
use padfa_omega::{CKind, Constraint, Disjunction, LinExpr, System, Var};
use padfa_pred::{Atom, AtomKind, Pred};
use std::sync::Arc;

// ------------------------------------------------------------------
// Primitive writers
// ------------------------------------------------------------------

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_flag(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ------------------------------------------------------------------
// Primitive reader
// ------------------------------------------------------------------

/// Cursor over a decode buffer. All reads are bounds-checked and return
/// `None` past the end — decoding never panics on corrupt input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed (decoders of complete
    /// payloads check this so trailing garbage counts as corruption).
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub fn boolean(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        // A bit-flipped length would otherwise ask for gigabytes.
        if n > self.buf.len().saturating_sub(self.pos) {
            return None;
        }
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Bounded element count for a `Vec` about to be decoded: each
    /// element needs at least one byte, so any count beyond the
    /// remaining bytes is corrupt.
    fn count(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return None;
        }
        Some(n)
    }
}

// ------------------------------------------------------------------
// omega / pred encodings
// ------------------------------------------------------------------

pub fn put_var(out: &mut Vec<u8>, v: Var) {
    put_str(out, &v.name());
}

pub fn get_var(r: &mut Reader) -> Option<Var> {
    Some(Var::new(&r.str()?))
}

pub fn put_linexpr(out: &mut Vec<u8>, e: &LinExpr) {
    put_i64(out, e.konst());
    put_u32(out, e.num_terms() as u32);
    for (v, c) in e.terms() {
        put_var(out, v);
        put_i64(out, c);
    }
}

pub fn get_linexpr(r: &mut Reader) -> Option<LinExpr> {
    let konst = r.i64()?;
    let n = r.count()?;
    let mut e = LinExpr::constant(konst);
    for _ in 0..n {
        let v = get_var(r)?;
        let c = r.i64()?;
        e.add_term(v, c);
    }
    Some(e)
}

pub fn put_constraint(out: &mut Vec<u8>, c: &Constraint) {
    put_u8(
        out,
        match c.kind {
            CKind::Eq => 0,
            CKind::Geq => 1,
        },
    );
    put_linexpr(out, &c.expr);
}

pub fn get_constraint(r: &mut Reader) -> Option<Constraint> {
    let kind = match r.u8()? {
        0 => CKind::Eq,
        1 => CKind::Geq,
        _ => return None,
    };
    let expr = get_linexpr(r)?;
    Some(Constraint { expr, kind })
}

pub fn put_system(out: &mut Vec<u8>, s: &System) {
    put_flag(out, s.is_contradiction());
    put_u32(out, s.constraints().len() as u32);
    for c in s.constraints() {
        put_constraint(out, c);
    }
}

pub fn get_system(r: &mut Reader) -> Option<System> {
    let contradiction = r.boolean()?;
    let n = r.count()?;
    let mut cs = Vec::with_capacity(n);
    for _ in 0..n {
        cs.push(get_constraint(r)?);
    }
    Some(System::from_raw_parts(cs, contradiction))
}

pub fn put_region(out: &mut Vec<u8>, d: &Disjunction) {
    put_flag(out, d.is_exact());
    put_u32(out, d.systems().len() as u32);
    for s in d.systems() {
        put_system(out, s);
    }
}

pub fn get_region(r: &mut Reader) -> Option<Disjunction> {
    let exact = r.boolean()?;
    let n = r.count()?;
    let mut systems = Vec::with_capacity(n);
    for _ in 0..n {
        systems.push(get_system(r)?);
    }
    Some(Disjunction::from_raw_parts(systems, exact))
}

pub fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::IntLit(v) => {
            put_u8(out, 0);
            put_i64(out, *v);
        }
        Expr::RealLit(v) => {
            put_u8(out, 1);
            put_u64(out, v.to_bits());
        }
        Expr::Scalar(v) => {
            put_u8(out, 2);
            put_var(out, *v);
        }
        Expr::Elem(a, subs) => {
            put_u8(out, 3);
            put_var(out, *a);
            put_u32(out, subs.len() as u32);
            for s in subs {
                put_expr(out, s);
            }
        }
        Expr::Add(a, b) => put_bin(out, 4, a, b),
        Expr::Sub(a, b) => put_bin(out, 5, a, b),
        Expr::Mul(a, b) => put_bin(out, 6, a, b),
        Expr::Div(a, b) => put_bin(out, 7, a, b),
        Expr::Mod(a, b) => put_bin(out, 8, a, b),
        Expr::Neg(a) => {
            put_u8(out, 9);
            put_expr(out, a);
        }
        Expr::Call(intr, args) => {
            put_u8(out, 10);
            put_u8(out, *intr as u8);
            put_u32(out, args.len() as u32);
            for a in args {
                put_expr(out, a);
            }
        }
    }
}

fn put_bin(out: &mut Vec<u8>, tag: u8, a: &Expr, b: &Expr) {
    put_u8(out, tag);
    put_expr(out, a);
    put_expr(out, b);
}

pub fn get_expr(r: &mut Reader) -> Option<Expr> {
    Some(match r.u8()? {
        0 => Expr::IntLit(r.i64()?),
        1 => Expr::RealLit(f64::from_bits(r.u64()?)),
        2 => Expr::Scalar(get_var(r)?),
        3 => {
            let a = get_var(r)?;
            let n = r.count()?;
            let mut subs = Vec::with_capacity(n);
            for _ in 0..n {
                subs.push(get_expr(r)?);
            }
            Expr::Elem(a, subs)
        }
        4 => Expr::Add(Box::new(get_expr(r)?), Box::new(get_expr(r)?)),
        5 => Expr::Sub(Box::new(get_expr(r)?), Box::new(get_expr(r)?)),
        6 => Expr::Mul(Box::new(get_expr(r)?), Box::new(get_expr(r)?)),
        7 => Expr::Div(Box::new(get_expr(r)?), Box::new(get_expr(r)?)),
        8 => Expr::Mod(Box::new(get_expr(r)?), Box::new(get_expr(r)?)),
        9 => Expr::Neg(Box::new(get_expr(r)?)),
        10 => {
            let intr = match r.u8()? {
                0 => Intrinsic::Sin,
                1 => Intrinsic::Cos,
                2 => Intrinsic::Sqrt,
                3 => Intrinsic::Exp,
                4 => Intrinsic::Abs,
                5 => Intrinsic::Min,
                6 => Intrinsic::Max,
                _ => return None,
            };
            let n = r.count()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_expr(r)?);
            }
            Expr::Call(intr, args)
        }
        _ => return None,
    })
}

pub fn put_bexpr(out: &mut Vec<u8>, b: &BoolExpr) {
    match b {
        BoolExpr::Lit(v) => {
            put_u8(out, 0);
            put_flag(out, *v);
        }
        BoolExpr::Cmp(op, a, c) => {
            put_u8(out, 1);
            put_u8(out, *op as u8);
            put_expr(out, a);
            put_expr(out, c);
        }
        BoolExpr::And(a, c) => {
            put_u8(out, 2);
            put_bexpr(out, a);
            put_bexpr(out, c);
        }
        BoolExpr::Or(a, c) => {
            put_u8(out, 3);
            put_bexpr(out, a);
            put_bexpr(out, c);
        }
        BoolExpr::Not(a) => {
            put_u8(out, 4);
            put_bexpr(out, a);
        }
    }
}

pub fn get_bexpr(r: &mut Reader) -> Option<BoolExpr> {
    Some(match r.u8()? {
        0 => BoolExpr::Lit(r.boolean()?),
        1 => {
            let op = match r.u8()? {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                5 => CmpOp::Ge,
                _ => return None,
            };
            let a = get_expr(r)?;
            let c = get_expr(r)?;
            BoolExpr::Cmp(op, a, c)
        }
        2 => BoolExpr::And(Box::new(get_bexpr(r)?), Box::new(get_bexpr(r)?)),
        3 => BoolExpr::Or(Box::new(get_bexpr(r)?), Box::new(get_bexpr(r)?)),
        4 => BoolExpr::Not(Box::new(get_bexpr(r)?)),
        _ => return None,
    })
}

pub fn put_pred(out: &mut Vec<u8>, p: &Pred) {
    match p {
        Pred::True => put_u8(out, 0),
        Pred::False => put_u8(out, 1),
        Pred::Atom(a) => {
            put_u8(out, 2);
            match a {
                Atom::Affine { expr, kind } => {
                    put_u8(out, 0);
                    put_u8(
                        out,
                        match kind {
                            AtomKind::Geq => 0,
                            AtomKind::Eq => 1,
                        },
                    );
                    put_linexpr(out, expr);
                }
                Atom::Opaque(b) => {
                    put_u8(out, 1);
                    put_bexpr(out, b);
                }
            }
        }
        Pred::And(ps) => {
            put_u8(out, 3);
            put_u32(out, ps.len() as u32);
            for q in ps {
                put_pred(out, q);
            }
        }
        Pred::Or(ps) => {
            put_u8(out, 4);
            put_u32(out, ps.len() as u32);
            for q in ps {
                put_pred(out, q);
            }
        }
    }
}

pub fn get_pred(r: &mut Reader) -> Option<Pred> {
    Some(match r.u8()? {
        0 => Pred::True,
        1 => Pred::False,
        2 => match r.u8()? {
            0 => {
                let kind = match r.u8()? {
                    0 => AtomKind::Geq,
                    1 => AtomKind::Eq,
                    _ => return None,
                };
                let expr = get_linexpr(r)?;
                Pred::Atom(Atom::Affine { expr, kind })
            }
            1 => Pred::Atom(Atom::Opaque(get_bexpr(r)?)),
            _ => return None,
        },
        3 => {
            let n = r.count()?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(get_pred(r)?);
            }
            Pred::And(ps)
        }
        4 => {
            let n = r.count()?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(get_pred(r)?);
            }
            Pred::Or(ps)
        }
        _ => return None,
    })
}

fn put_vars(out: &mut Vec<u8>, vs: &[Var]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_var(out, v);
    }
}

// ------------------------------------------------------------------
// Summary encodings
// ------------------------------------------------------------------

fn put_component(out: &mut Vec<u8>, c: &PredComponent) {
    put_u32(out, c.pieces.len() as u32);
    for p in &c.pieces {
        put_pred(out, &p.pred);
        put_region(out, &p.region);
    }
}

/// Decode a component by direct construction. [`PredComponent::push`]
/// merges same-pred pieces and drops empty ones, so it cannot round-trip
/// an arbitrary stored component bit-exactly.
fn get_component(r: &mut Reader) -> Option<PredComponent> {
    let n = r.count()?;
    let mut pieces = Vec::with_capacity(n);
    for _ in 0..n {
        let pred = get_pred(r)?;
        let region = Arc::new(get_region(r)?);
        pieces.push(GuardedRegion { pred, region });
    }
    Some(PredComponent { pieces })
}

pub fn put_summary(out: &mut Vec<u8>, s: &Summary) {
    put_u32(out, s.arrays.len() as u32);
    for (v, a) in &s.arrays {
        put_var(out, *v);
        put_component(out, &a.w);
        put_component(out, &a.mw);
        put_component(out, &a.r);
        put_component(out, &a.e);
    }
    put_u32(out, s.scalars.len() as u32);
    for (v, sc) in &s.scalars {
        put_var(out, *v);
        put_flag(out, sc.must_write);
        put_flag(out, sc.may_write);
        put_flag(out, sc.exposed_read);
    }
    put_u32(out, s.scalar_writes.len() as u32);
    for &v in &s.scalar_writes {
        put_var(out, v);
    }
    put_flag(out, s.has_io);
    put_flag(out, s.has_exit);
    put_flag(out, s.degraded);
}

/// Decode a summary. Keys are inserted, not appended: the writer listed
/// them in its own process's `Var` order, and this process may have
/// interned the names in another.
pub fn get_summary(r: &mut Reader) -> Option<Summary> {
    let mut arrays = VarMap::default();
    let n = r.count()?;
    for _ in 0..n {
        let v = get_var(r)?;
        let w = get_component(r)?;
        let mw = get_component(r)?;
        let rr = get_component(r)?;
        let e = get_component(r)?;
        arrays.insert(v, ArraySummary { w, mw, r: rr, e });
    }
    let mut scalars = VarMap::default();
    let n = r.count()?;
    for _ in 0..n {
        let v = get_var(r)?;
        let must_write = r.boolean()?;
        let may_write = r.boolean()?;
        let exposed_read = r.boolean()?;
        scalars.insert(
            v,
            ScalarSummary {
                must_write,
                may_write,
                exposed_read,
            },
        );
    }
    let mut scalar_writes = VarSet::default();
    let n = r.count()?;
    for _ in 0..n {
        scalar_writes.insert(get_var(r)?);
    }
    Some(Summary {
        arrays,
        scalars,
        scalar_writes,
        has_io: r.boolean()?,
        has_exit: r.boolean()?,
        degraded: r.boolean()?,
    })
}

// ------------------------------------------------------------------
// Report / provenance encodings
// ------------------------------------------------------------------

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, f: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            f(out, x);
        }
    }
}

fn get_opt<T>(r: &mut Reader, f: impl FnOnce(&mut Reader) -> Option<T>) -> Option<Option<T>> {
    match r.u8()? {
        0 => Some(None),
        1 => Some(Some(f(r)?)),
        _ => None,
    }
}

fn put_mechanism(out: &mut Vec<u8>, m: Mechanism) {
    put_u8(
        out,
        match m {
            Mechanism::Base => 0,
            Mechanism::Predicates => 1,
            Mechanism::Embedding => 2,
            Mechanism::Extraction => 3,
            Mechanism::RuntimeTest => 4,
        },
    );
}

fn get_mechanism(r: &mut Reader) -> Option<Mechanism> {
    Some(match r.u8()? {
        0 => Mechanism::Base,
        1 => Mechanism::Predicates,
        2 => Mechanism::Embedding,
        3 => Mechanism::Extraction,
        4 => Mechanism::RuntimeTest,
        _ => return None,
    })
}

fn put_pair(out: &mut Vec<u8>, p: &PairEvidence) {
    put_u8(
        out,
        match p.kind {
            PairKind::WriteWrite => 0,
            PairKind::WriteRead => 1,
            PairKind::ExposedWrite => 2,
        },
    );
    put_pred(out, &p.w_pred);
    put_pred(out, &p.x_pred);
    put_u8(
        out,
        match p.outcome {
            PairOutcome::GuardsExclude => 0,
            PairOutcome::RegionsDisjoint => 1,
            PairOutcome::Extracted => 2,
            PairOutcome::Assumed => 3,
        },
    );
    put_pred(out, &p.condition);
}

fn get_pair(r: &mut Reader) -> Option<PairEvidence> {
    let kind = match r.u8()? {
        0 => PairKind::WriteWrite,
        1 => PairKind::WriteRead,
        2 => PairKind::ExposedWrite,
        _ => return None,
    };
    let w_pred = Arc::new(get_pred(r)?);
    let x_pred = Arc::new(get_pred(r)?);
    let outcome = match r.u8()? {
        0 => PairOutcome::GuardsExclude,
        1 => PairOutcome::RegionsDisjoint,
        2 => PairOutcome::Extracted,
        3 => PairOutcome::Assumed,
        _ => return None,
    };
    let condition = get_pred(r)?;
    Some(PairEvidence {
        kind,
        w_pred,
        x_pred,
        outcome,
        condition,
    })
}

fn put_reject(out: &mut Vec<u8>, rr: RejectReason) {
    put_u8(
        out,
        match rr {
            RejectReason::Disabled => 0,
            RejectReason::Degenerate => 1,
            RejectReason::NotScalarTest => 2,
            RejectReason::OverCostBudget => 3,
        },
    );
}

fn get_reject(r: &mut Reader) -> Option<RejectReason> {
    Some(match r.u8()? {
        0 => RejectReason::Disabled,
        1 => RejectReason::Degenerate,
        2 => RejectReason::NotScalarTest,
        3 => RejectReason::OverCostBudget,
        _ => return None,
    })
}

fn put_array_evidence(out: &mut Vec<u8>, a: &ArrayEvidence) {
    put_var(out, a.array);
    match &a.verdict {
        ArrayVerdict::Reduction => put_u8(out, 0),
        ArrayVerdict::Independent => put_u8(out, 1),
        ArrayVerdict::Privatized { copy_in } => {
            put_u8(out, 2);
            put_flag(out, *copy_in);
        }
        ArrayVerdict::RuntimeTested {
            test,
            with_privatization,
        } => {
            put_u8(out, 3);
            put_pred(out, test);
            put_flag(out, *with_privatization);
        }
        ArrayVerdict::Blocking { dep, rejected } => {
            put_u8(out, 4);
            put_pred(out, dep);
            put_opt(out, rejected, |o, (p, rr)| {
                put_pred(o, p);
                put_reject(o, *rr);
            });
        }
    }
    put_u32(out, a.dep_pairs.len() as u32);
    for p in &a.dep_pairs {
        put_pair(out, p);
    }
    put_u32(out, a.priv_pairs.len() as u32);
    for p in &a.priv_pairs {
        put_pair(out, p);
    }
}

fn get_array_evidence(r: &mut Reader) -> Option<ArrayEvidence> {
    let array = get_var(r)?;
    let verdict = match r.u8()? {
        0 => ArrayVerdict::Reduction,
        1 => ArrayVerdict::Independent,
        2 => ArrayVerdict::Privatized {
            copy_in: r.boolean()?,
        },
        3 => {
            let test = get_pred(r)?;
            let with_privatization = r.boolean()?;
            ArrayVerdict::RuntimeTested {
                test,
                with_privatization,
            }
        }
        4 => {
            let dep = get_pred(r)?;
            let rejected = get_opt(r, |r| {
                let p = get_pred(r)?;
                let rr = get_reject(r)?;
                Some((p, rr))
            })?;
            ArrayVerdict::Blocking { dep, rejected }
        }
        _ => return None,
    };
    let n = r.count()?;
    let mut dep_pairs = Vec::with_capacity(n);
    for _ in 0..n {
        dep_pairs.push(get_pair(r)?);
    }
    let n = r.count()?;
    let mut priv_pairs = Vec::with_capacity(n);
    for _ in 0..n {
        priv_pairs.push(get_pair(r)?);
    }
    Some(ArrayEvidence {
        array,
        verdict,
        dep_pairs,
        priv_pairs,
    })
}

fn put_provenance(out: &mut Vec<u8>, p: &Provenance) {
    put_flag(out, p.mechanisms.predicates);
    put_flag(out, p.mechanisms.embedding);
    put_flag(out, p.mechanisms.extraction);
    put_flag(out, p.mechanisms.runtime_test);
    put_opt(out, &p.winner, |o, m| put_mechanism(o, *m));
    put_u32(out, p.arrays.len() as u32);
    for a in &p.arrays {
        put_array_evidence(out, a);
    }
    put_u32(out, p.scalars.len() as u32);
    for s in &p.scalars {
        put_var(out, s.scalar);
        put_u8(
            out,
            match s.verdict {
                ScalarVerdict::ExposedFlow => 0,
                ScalarVerdict::Privatized => 1,
                ScalarVerdict::Reduction => 2,
            },
        );
    }
    put_vars(out, &p.embedded);
    put_opt(out, &p.runtime_test, put_pred);
    put_opt(out, &p.budget, |o, b| put_u64(o, b.steps));
    put_u64(out, p.limit_overflows);
    put_u64(out, p.lat_overflow);
}

fn get_provenance(r: &mut Reader) -> Option<Provenance> {
    let mechanisms = Mechanisms {
        predicates: r.boolean()?,
        embedding: r.boolean()?,
        extraction: r.boolean()?,
        runtime_test: r.boolean()?,
    };
    let winner = get_opt(r, get_mechanism)?;
    let n = r.count()?;
    let mut arrays = Vec::with_capacity(n);
    for _ in 0..n {
        arrays.push(get_array_evidence(r)?);
    }
    let n = r.count()?;
    let mut scalars = Vec::with_capacity(n);
    for _ in 0..n {
        let scalar = get_var(r)?;
        let verdict = match r.u8()? {
            0 => ScalarVerdict::ExposedFlow,
            1 => ScalarVerdict::Privatized,
            2 => ScalarVerdict::Reduction,
            _ => return None,
        };
        scalars.push(ScalarEvidence { scalar, verdict });
    }
    let n = r.count()?;
    let mut embedded = Vec::with_capacity(n);
    for _ in 0..n {
        embedded.push(get_var(r)?);
    }
    let runtime_test = get_opt(r, get_pred)?;
    let budget = get_opt(r, |r| Some(BudgetEvent { steps: r.u64()? }))?;
    let limit_overflows = r.u64()?;
    let lat_overflow = r.u64()?;
    Some(Provenance {
        mechanisms,
        winner,
        arrays,
        scalars,
        embedded,
        runtime_test,
        budget,
        limit_overflows,
        lat_overflow,
    })
}

/// One report; its evidence only when `prov` is given (the entry's
/// evidence flag says which).
fn put_report(out: &mut Vec<u8>, rep: &LoopReport, prov: Option<&Provenance>) {
    put_u32(out, rep.id.0);
    put_opt(out, &rep.label, |o, s| put_str(o, s));
    put_str(out, &rep.proc);
    put_u64(out, rep.depth as u64);
    put_opt(out, &rep.not_candidate, |o, nc| {
        put_u8(
            o,
            match nc {
                NotCandidateReason::ReadIo => 0,
                NotCandidateReason::InternalExit => 1,
                NotCandidateReason::BudgetExhausted => 2,
            },
        )
    });
    match &rep.outcome {
        Outcome::Parallel => put_u8(out, 0),
        Outcome::ParallelIf(p) => {
            put_u8(out, 1);
            put_pred(out, p);
        }
        Outcome::Sequential => put_u8(out, 2),
    }
    put_u32(out, rep.privatized.len() as u32);
    for p in &rep.privatized {
        put_var(out, p.array);
        put_flag(out, p.copy_in);
        put_flag(out, p.copy_out);
    }
    put_vars(out, &rep.privatized_scalars);
    put_u32(out, rep.reductions.len() as u32);
    for red in &rep.reductions {
        put_var(out, red.target);
        put_flag(out, red.is_array);
        put_u8(
            out,
            match red.op {
                ReduceOp::Sum => 0,
                ReduceOp::Product => 1,
                ReduceOp::Min => 2,
                ReduceOp::Max => 3,
            },
        );
    }
    if let Some(prov) = prov {
        put_provenance(out, prov);
    }
}

fn get_report(r: &mut Reader, evidence: bool) -> Option<LoopReport> {
    let id = LoopId(r.u32()?);
    let label = get_opt(r, |r| r.str())?;
    let proc = r.str()?;
    let depth = r.u64()? as usize;
    let not_candidate = get_opt(r, |r| {
        Some(match r.u8()? {
            0 => NotCandidateReason::ReadIo,
            1 => NotCandidateReason::InternalExit,
            2 => NotCandidateReason::BudgetExhausted,
            _ => return None,
        })
    })?;
    let outcome = match r.u8()? {
        0 => Outcome::Parallel,
        1 => Outcome::ParallelIf(get_pred(r)?),
        2 => Outcome::Sequential,
        _ => return None,
    };
    let n = r.count()?;
    let mut privatized = Vec::with_capacity(n);
    for _ in 0..n {
        let array = get_var(r)?;
        let copy_in = r.boolean()?;
        let copy_out = r.boolean()?;
        privatized.push(PrivArray {
            array,
            copy_in,
            copy_out,
        });
    }
    let n = r.count()?;
    let mut privatized_scalars = Vec::with_capacity(n);
    for _ in 0..n {
        privatized_scalars.push(get_var(r)?);
    }
    let n = r.count()?;
    let mut reductions = Vec::with_capacity(n);
    for _ in 0..n {
        let target = get_var(r)?;
        let is_array = r.boolean()?;
        let op = match r.u8()? {
            0 => ReduceOp::Sum,
            1 => ReduceOp::Product,
            2 => ReduceOp::Min,
            3 => ReduceOp::Max,
            _ => return None,
        };
        reductions.push(Reduction {
            target,
            is_array,
            op,
        });
    }
    let provenance = if evidence {
        Some(get_provenance(r)?)
    } else {
        None
    };
    Some(LoopReport {
        id,
        label,
        proc,
        depth,
        not_candidate,
        outcome,
        privatized,
        privatized_scalars,
        reductions,
        provenance,
    })
}

// ------------------------------------------------------------------
// Store entry payloads
// ------------------------------------------------------------------

/// What a procedure entry holds beside its verdicts, or what a reader
/// needs from one: the procedure's interprocedural summary, and the
/// evidence behind each loop report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Parts {
    pub summary: bool,
    pub evidence: bool,
}

impl Parts {
    /// Does an entry holding `self` serve a reader needing `need`?
    pub fn covers(self, need: Parts) -> bool {
        (self.summary || !need.summary) && (self.evidence || !need.evidence)
    }
}

/// One decoded procedure entry: the summary, if the writer folded one,
/// and the loop reports derived while analyzing the procedure, with
/// their evidence if the writer built it.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcEntry {
    pub summary: Option<Summary>,
    pub reports: Vec<LoopReport>,
}

impl ProcEntry {
    pub fn parts(&self) -> Parts {
        Parts {
            summary: self.summary.is_some(),
            evidence: self.reports.iter().all(|rep| rep.provenance.is_some()),
        }
    }
}

/// Payload of one procedure entry: a hit skips the procedure's analysis
/// entirely, so the loop reports ride along. Two flags lead — "has
/// summary", "has evidence" — because a session computes only what its
/// readers need: an uncalled procedure's summary when someone asked for
/// every summary, the evidence when someone asked for it. The evidence
/// flag is set when every report carries its provenance (so always for
/// a procedure without loops), and then every report's is encoded.
pub fn encode_proc_entry(summary: Option<&Summary>, reports: &[LoopReport]) -> Vec<u8> {
    let evidence = reports.iter().all(|rep| rep.provenance.is_some());
    let mut out = Vec::new();
    put_flag(&mut out, summary.is_some());
    put_flag(&mut out, evidence);
    if let Some(summary) = summary {
        put_summary(&mut out, summary);
    }
    put_u32(&mut out, reports.len() as u32);
    for rep in reports {
        put_report(&mut out, rep, rep.provenance.as_ref().filter(|_| evidence));
    }
    out
}

pub fn decode_proc_entry(buf: &[u8]) -> Option<ProcEntry> {
    let mut r = Reader::new(buf);
    let has_summary = r.boolean()?;
    let evidence = r.boolean()?;
    let summary = if has_summary {
        Some(get_summary(&mut r)?)
    } else {
        None
    };
    let n = r.count()?;
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        reports.push(get_report(&mut r, evidence)?);
    }
    r.at_end().then_some(ProcEntry { summary, reports })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin(pairs: &[(&str, i64)], k: i64) -> LinExpr {
        let mut e = LinExpr::constant(k);
        for &(n, c) in pairs {
            e.add_term(Var::new(n), c);
        }
        e
    }

    #[test]
    fn region_round_trip_is_bit_exact() {
        let s1 = System::from_raw_parts(
            vec![
                Constraint::geq0(lin(&[("i", 1), ("n", -1)], -1)),
                Constraint::eq0(lin(&[("j", 2)], 4)),
            ],
            false,
        );
        let s2 = System::from_raw_parts(vec![], true);
        let d = Disjunction::from_raw_parts(vec![s1, s2], false);
        let mut buf = Vec::new();
        put_region(&mut buf, &d);
        let mut r = Reader::new(&buf);
        let back = get_region(&mut r).unwrap();
        assert!(r.at_end());
        assert_eq!(back, d);
        assert_eq!(back.systems().len(), d.systems().len());
        assert_eq!(back.is_exact(), d.is_exact());
        for (a, b) in back.systems().iter().zip(d.systems()) {
            assert_eq!(a.constraints(), b.constraints());
        }
    }

    #[test]
    fn pred_round_trip_covers_all_variants() {
        let p = Pred::And(vec![
            Pred::Atom(Atom::Affine {
                expr: lin(&[("i", 1)], -3),
                kind: AtomKind::Geq,
            }),
            Pred::Or(vec![
                Pred::True,
                Pred::False,
                Pred::Atom(Atom::Opaque(BoolExpr::Cmp(
                    CmpOp::Ne,
                    Expr::Scalar(Var::new("x")),
                    Expr::RealLit(-0.0),
                ))),
            ]),
        ]);
        let mut buf = Vec::new();
        put_pred(&mut buf, &p);
        let back = get_pred(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, p);
        // -0.0 must survive (to_bits round-trip), not collapse to 0.0.
        let mut buf = Vec::new();
        put_expr(&mut buf, &Expr::RealLit(-0.0));
        let Some(Expr::RealLit(v)) = get_expr(&mut Reader::new(&buf)) else {
            panic!("decode failed");
        };
        assert!(v.is_sign_negative());
    }

    #[test]
    fn truncated_and_corrupt_buffers_decode_to_none() {
        let piece = GuardedRegion {
            pred: Pred::True,
            region: Arc::new(Disjunction::from_raw_parts(
                vec![System::from_raw_parts(vec![], false)],
                true,
            )),
        };
        let mut summary = Summary::default();
        summary.arrays.insert(
            Var::new("a"),
            ArraySummary {
                w: PredComponent {
                    pieces: vec![piece],
                },
                ..ArraySummary::default()
            },
        );
        let buf = encode_proc_entry(Some(&summary), &[]);
        let entry = ProcEntry {
            summary: Some(summary),
            reports: Vec::new(),
        };
        assert_eq!(decode_proc_entry(&buf), Some(entry));
        for cut in 0..buf.len() {
            assert!(decode_proc_entry(&buf[..cut]).is_none(), "cut={cut}");
        }
        // Trailing garbage is corruption too.
        let mut extended = buf.clone();
        extended.push(0);
        assert!(decode_proc_entry(&extended).is_none());
        // Unknown tag.
        assert!(get_pred(&mut Reader::new(&[9])).is_none());
        // Bit-flipped length fields must not request huge allocations.
        assert!(get_linexpr(&mut Reader::new(&[
            0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff
        ]))
        .is_none());
    }

    #[test]
    fn system_dense_tag_round_trips() {
        // Nothing rides beside the value: a decoded system equals the
        // one encoded and encodes to the same bytes, normalized or raw.
        let built = System::from_constraints([
            Constraint::geq0(lin(&[("i", 1)], -1)),
            Constraint::eq0(lin(&[("j", 1), ("i", -2)], 3)),
        ]);
        let raw =
            System::from_raw_parts(built.constraints().iter().rev().cloned().collect(), false);
        for sys in [built, raw, System::empty()] {
            let mut buf = Vec::new();
            put_system(&mut buf, &sys);
            let mut r = Reader::new(&buf);
            let back = get_system(&mut r).unwrap();
            assert!(r.at_end());
            assert_eq!(back, sys);
            let mut again = Vec::new();
            put_system(&mut again, &back);
            assert_eq!(again, buf);
        }
    }
}
