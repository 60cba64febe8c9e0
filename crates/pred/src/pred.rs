//! Predicates in negation normal form, with embedding and extraction.

use crate::atom::{Atom, AtomKind};
use padfa_ir::{affine, BoolExpr, CmpOp};
use padfa_omega::{Constraint, Limits, System, Var};
use std::fmt;

/// A predicate in negation normal form.
///
/// Invariants maintained by the smart constructors:
/// * `And`/`Or` lists are flattened, deduplicated, and have length >= 2;
/// * constant atoms fold to `True`/`False`;
/// * a conjunction containing complementary atoms folds to `False` (and
///   dually for disjunctions);
/// * a fully-affine conjunction proven unsatisfiable folds to `False`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pred {
    True,
    False,
    Atom(Atom),
    And(Vec<Pred>),
    Or(Vec<Pred>),
}

impl Pred {
    /// Lower a boolean expression. Affine comparisons canonicalize into
    /// linear atoms; everything else stays opaque (still evaluable at run
    /// time). `Ne` over affine operands splits into a disjunction.
    pub fn from_bool(b: &BoolExpr) -> Pred {
        Pred::from_bool_polarity(b, false)
    }

    fn from_bool_polarity(b: &BoolExpr, neg: bool) -> Pred {
        match b {
            BoolExpr::Lit(v) => {
                if *v != neg {
                    Pred::True
                } else {
                    Pred::False
                }
            }
            BoolExpr::Not(inner) => Pred::from_bool_polarity(inner, !neg),
            BoolExpr::And(a, c) => {
                let l = Pred::from_bool_polarity(a, neg);
                let r = Pred::from_bool_polarity(c, neg);
                if neg {
                    Pred::or(l, r)
                } else {
                    Pred::and(l, r)
                }
            }
            BoolExpr::Or(a, c) => {
                let l = Pred::from_bool_polarity(a, neg);
                let r = Pred::from_bool_polarity(c, neg);
                if neg {
                    Pred::and(l, r)
                } else {
                    Pred::or(l, r)
                }
            }
            BoolExpr::Cmp(op, a, c) => {
                let op = if neg { op.negate() } else { *op };
                if op == CmpOp::Ne {
                    // Affine `!=` splits; opaque `!=` stays one atom.
                    if let (Some(_), Some(_)) = (affine::to_linexpr(a), affine::to_linexpr(c)) {
                        let lt = Atom::from_cmp(CmpOp::Lt, a, c).unwrap();
                        let gt = Atom::from_cmp(CmpOp::Gt, a, c).unwrap();
                        return Pred::or(Pred::Atom(lt), Pred::Atom(gt));
                    }
                    return Pred::Atom(Atom::Opaque(BoolExpr::Cmp(op, a.clone(), c.clone())));
                }
                match Atom::from_cmp(op, a, c) {
                    Some(atom) => Pred::atom(atom),
                    None => Pred::Atom(Atom::Opaque(BoolExpr::Cmp(op, a.clone(), c.clone()))),
                }
            }
        }
    }

    /// Wrap an atom, folding constants.
    pub fn atom(a: Atom) -> Pred {
        match a.const_value() {
            Some(true) => Pred::True,
            Some(false) => Pred::False,
            None => Pred::Atom(a),
        }
    }

    /// Conjunction with unit folding, flattening, dedup, complement and
    /// affine-contradiction detection.
    pub fn and(a: Pred, b: Pred) -> Pred {
        Pred::and_all(vec![a, b])
    }

    /// N-ary conjunction.
    pub fn and_all(ps: Vec<Pred>) -> Pred {
        let mut parts: Vec<Pred> = Vec::new();
        let mut stack = ps;
        while let Some(p) = stack.pop() {
            match p {
                Pred::True => {}
                Pred::False => return Pred::False,
                Pred::And(inner) => stack.extend(inner),
                other => parts.push(other),
            }
        }
        // Canonical order first, then drop adjacent duplicates:
        // O(n log n) where the old `contains` scan was quadratic in the
        // width of the conjunction.
        parts.sort_by(Pred::cmp_structural);
        parts.dedup();
        // Complementary atom pair => false.
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                if let (Pred::Atom(x), Pred::Atom(y)) = (&parts[i], &parts[j]) {
                    if x.is_complement_of(y) {
                        return Pred::False;
                    }
                }
            }
        }
        // Fully-affine conjunction: ask the linear engine.
        if parts.len() >= 2 {
            if let Some(cs) = parts
                .iter()
                .map(|p| match p {
                    Pred::Atom(a) => a.to_constraint(),
                    _ => None,
                })
                .collect::<Option<Vec<Constraint>>>()
            {
                if System::from_constraints(cs).is_empty(Limits::default()) {
                    return Pred::False;
                }
            }
        }
        // Implication pruning among affine atoms: in a conjunction, an
        // atom implied by another is redundant (x > 5 ∧ x > 3 → x > 5).
        prune_implied(&mut parts, /*conjunction=*/ true);
        match parts.len() {
            0 => Pred::True,
            1 => parts.pop().unwrap(),
            // Already sorted; `prune_implied` preserves relative order.
            _ => Pred::And(parts),
        }
    }

    /// Disjunction with unit folding, flattening, dedup, and complement
    /// detection.
    pub fn or(a: Pred, b: Pred) -> Pred {
        Pred::or_all(vec![a, b])
    }

    /// N-ary disjunction.
    pub fn or_all(ps: Vec<Pred>) -> Pred {
        let mut parts: Vec<Pred> = Vec::new();
        let mut stack = ps;
        while let Some(p) = stack.pop() {
            match p {
                Pred::False => {}
                Pred::True => return Pred::True,
                Pred::Or(inner) => stack.extend(inner),
                other => parts.push(other),
            }
        }
        // Same sort + adjacent-dedup canonicalization as `and_all`.
        parts.sort_by(Pred::cmp_structural);
        parts.dedup();
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                if let (Pred::Atom(x), Pred::Atom(y)) = (&parts[i], &parts[j]) {
                    if x.is_complement_of(y) {
                        return Pred::True;
                    }
                }
            }
        }
        // Dual pruning: in a disjunction, an atom that implies another
        // is redundant (x > 5 ∨ x > 3 → x > 3).
        prune_implied(&mut parts, /*conjunction=*/ false);
        match parts.len() {
            0 => Pred::False,
            1 => parts.pop().unwrap(),
            _ => Pred::Or(parts),
        }
    }

    /// Structural ordering for canonical operand lists: constants, then
    /// affine atoms (by expression), then opaque atoms (by rendering),
    /// then conjunctions, then disjunctions.
    pub fn cmp_structural(&self, other: &Pred) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(p: &Pred) -> u8 {
            match p {
                Pred::False => 0,
                Pred::True => 1,
                Pred::Atom(Atom::Affine { .. }) => 2,
                Pred::Atom(Atom::Opaque(_)) => 3,
                Pred::And(_) => 4,
                Pred::Or(_) => 5,
            }
        }
        rank(self)
            .cmp(&rank(other))
            .then_with(|| match (self, other) {
                (
                    Pred::Atom(Atom::Affine { expr: a, kind: ka }),
                    Pred::Atom(Atom::Affine { expr: b, kind: kb }),
                ) => {
                    // Eq before Geq, matching the old `{:?}`-string compare.
                    fn kind_rank(k: &crate::atom::AtomKind) -> u8 {
                        match k {
                            crate::atom::AtomKind::Eq => 0,
                            crate::atom::AtomKind::Geq => 1,
                        }
                    }
                    a.cmp_structural(b)
                        .then_with(|| kind_rank(ka).cmp(&kind_rank(kb)))
                }
                (Pred::Atom(Atom::Opaque(a)), Pred::Atom(Atom::Opaque(b))) => {
                    padfa_ir::pretty::bool_expr(a).cmp(&padfa_ir::pretty::bool_expr(b))
                }
                (Pred::And(xs), Pred::And(ys)) | (Pred::Or(xs), Pred::Or(ys)) => {
                    xs.len().cmp(&ys.len()).then_with(|| {
                        for (x, y) in xs.iter().zip(ys) {
                            let c = x.cmp_structural(y);
                            if c != Ordering::Equal {
                                return c;
                            }
                        }
                        Ordering::Equal
                    })
                }
                _ => Ordering::Equal,
            })
    }

    /// Logical negation (stays in negation normal form).
    pub fn negate(&self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::And(ps) => Pred::or_all(ps.iter().map(|p| p.negate()).collect()),
            Pred::Or(ps) => Pred::and_all(ps.iter().map(|p| p.negate()).collect()),
            Pred::Atom(a) => match a {
                Atom::Affine { expr, kind } => {
                    // ¬(e >= 0) is -e - 1 >= 0; e == 0 is e >= 0 and
                    // -e >= 0, whose complement is -e - 1 >= 0 or
                    // e - 1 >= 0.
                    let mut below = expr.scaled(-1);
                    below.add_const(-1);
                    let below = Pred::atom(Atom::affine_geq(below));
                    match kind {
                        AtomKind::Geq => below,
                        AtomKind::Eq => {
                            let mut above = expr.clone();
                            above.add_const(-1);
                            Pred::or(below, Pred::atom(Atom::affine_geq(above)))
                        }
                    }
                }
                Atom::Opaque(b) => Pred::from_bool_polarity(b, true),
            },
        }
    }

    /// True when this predicate is the constant `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Pred::True)
    }

    /// True when this predicate is the constant `false`.
    pub fn is_false(&self) -> bool {
        matches!(self, Pred::False)
    }

    /// Predicate **embedding**: the DNF of this predicate as constraint
    /// systems, when every atom is affine. Intersecting these systems
    /// into an array region expresses "this region is accessed only when
    /// the predicate holds" inside the linear domain.
    pub fn to_systems(&self, max_disjuncts: usize) -> Option<Vec<System>> {
        fn go(p: &Pred, cap: usize) -> Option<Vec<Vec<Constraint>>> {
            match p {
                Pred::True => Some(vec![vec![]]),
                Pred::False => Some(vec![]),
                Pred::Atom(a) => Some(vec![vec![a.to_constraint()?]]),
                Pred::And(ps) => {
                    let mut acc: Vec<Vec<Constraint>> = vec![vec![]];
                    for p in ps {
                        let d = go(p, cap)?;
                        let mut next = Vec::new();
                        for a in &acc {
                            for b in &d {
                                let mut c = a.clone();
                                c.extend(b.iter().cloned());
                                next.push(c);
                                if next.len() > cap {
                                    return None;
                                }
                            }
                        }
                        acc = next;
                    }
                    Some(acc)
                }
                Pred::Or(ps) => {
                    let mut acc = Vec::new();
                    for p in ps {
                        acc.extend(go(p, cap)?);
                        if acc.len() > cap {
                            return None;
                        }
                    }
                    Some(acc)
                }
            }
        }
        let dnf = go(self, max_disjuncts)?;
        Some(dnf.into_iter().map(System::from_constraints).collect())
    }

    /// Sound implication test (`true` is definite, `false` is unknown).
    pub fn implies(&self, other: &Pred, limits: Limits) -> bool {
        if self == other || other.is_true() || self.is_false() {
            return true;
        }
        // Conjunction superset: (a ∧ b ∧ c) ⇒ (a ∧ c).
        fn parts_of(p: &Pred) -> &[Pred] {
            match p {
                Pred::And(ps) => ps,
                other => std::slice::from_ref(other),
            }
        }
        let lhs = parts_of(self);
        let rhs = parts_of(other);
        if rhs.iter().all(|r| lhs.contains(r)) {
            return true;
        }
        // Affine check: lhs ∧ ¬rhs empty.
        let neg = other.negate();
        if let (Some(l), Some(n)) = (self.to_systems(8), neg.to_systems(8)) {
            return l
                .iter()
                .all(|ls| n.iter().all(|ns| ls.and(ns).is_empty(limits)));
        }
        false
    }

    /// Evaluate over an integer environment (used in tests and by the
    /// executor for affine predicates; opaque atoms are delegated).
    pub fn eval(&self, atom_eval: &dyn Fn(&Atom) -> Option<bool>) -> Option<bool> {
        match self {
            Pred::True => Some(true),
            Pred::False => Some(false),
            Pred::Atom(a) => atom_eval(a),
            Pred::And(ps) => {
                for p in ps {
                    if !p.eval(atom_eval)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Pred::Or(ps) => {
                for p in ps {
                    if p.eval(atom_eval)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
        }
    }

    /// Render into an evaluable boolean expression (for two-version loop
    /// code generation).
    pub fn to_bool_expr(&self) -> BoolExpr {
        match self {
            Pred::True => BoolExpr::Lit(true),
            Pred::False => BoolExpr::Lit(false),
            Pred::Atom(a) => a.to_bool_expr(),
            Pred::And(ps) => ps
                .iter()
                .map(|p| p.to_bool_expr())
                .reduce(BoolExpr::and)
                .unwrap_or(BoolExpr::Lit(true)),
            Pred::Or(ps) => ps
                .iter()
                .map(|p| p.to_bool_expr())
                .reduce(BoolExpr::or)
                .unwrap_or(BoolExpr::Lit(false)),
        }
    }

    /// Run-time evaluation cost: number of atoms, with opaque atoms
    /// counted double. The paper's tests are cheap scalar expressions;
    /// the analysis discards candidate tests whose cost exceeds a budget.
    pub fn cost(&self) -> u32 {
        match self {
            Pred::True | Pred::False => 0,
            Pred::Atom(Atom::Affine { .. }) => 1,
            Pred::Atom(Atom::Opaque(_)) => 2,
            Pred::And(ps) | Pred::Or(ps) => ps.iter().map(|p| p.cost()).sum(),
        }
    }

    /// True when the predicate can be evaluated before loop entry by
    /// reading scalars only (no array elements): the requirement for a
    /// low-cost run-time test.
    pub fn is_runtime_testable(&self) -> bool {
        match self {
            Pred::True | Pred::False => true,
            Pred::Atom(a) => a.is_scalar_only(),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().all(|p| p.is_runtime_testable()),
        }
    }

    /// The scalar variables the predicate reads.
    pub fn scalar_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        fn go(p: &Pred, out: &mut Vec<Var>) {
            match p {
                Pred::True | Pred::False => {}
                Pred::Atom(a) => a.scalar_vars(out),
                Pred::And(ps) | Pred::Or(ps) => {
                    for p in ps {
                        go(p, out);
                    }
                }
            }
        }
        go(self, &mut out);
        out
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Atom(a) => write!(f, "{a}"),
            Pred::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pred::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Drop operands subsumed by a sibling: in a conjunction a part implied
/// by another part is redundant; in a disjunction a part that implies
/// another is. Only affine-atom pairs are checked (cheap and exact).
fn prune_implied(parts: &mut Vec<Pred>, conjunction: bool) {
    if parts.len() < 2 || parts.len() > 8 {
        return;
    }
    let limits = Limits::default();
    let mut dead = vec![false; parts.len()];
    for i in 0..parts.len() {
        if dead[i] {
            continue;
        }
        let Pred::Atom(Atom::Affine { .. }) = &parts[i] else {
            continue;
        };
        for j in 0..parts.len() {
            if i == j || dead[j] {
                continue;
            }
            let Pred::Atom(Atom::Affine { .. }) = &parts[j] else {
                continue;
            };
            let redundant = if conjunction {
                // parts[j] implied by parts[i]: drop j.
                parts[i].implies(&parts[j], limits)
            } else {
                // parts[j] implies parts[i]: j is the stronger claim and
                // contributes nothing to the disjunction... drop j.
                parts[j].implies(&parts[i], limits)
            };
            if redundant {
                dead[j] = true;
            }
        }
    }
    let mut keep = dead.iter().map(|d| !d);
    parts.retain(|_| keep.next().unwrap());
}

/// Predicate **extraction**: split a constraint system into the part
/// whose constraints mention only variables satisfying `is_symbolic`
/// (loop-invariant scalars) — returned as a predicate — and the residual
/// system over the remaining variables.
///
/// This is the translation the paper applies during `PredSubtract` (the
/// extracted predicate is the condition under which a subtraction
/// remainder is empty) and during `Reshape` (divisibility conditions).
pub fn extract_symbolic(sys: &System, is_symbolic: &dyn Fn(Var) -> bool) -> (Pred, System) {
    if sys.is_contradiction() {
        return (Pred::False, System::universe());
    }
    let mut pred_parts = Vec::new();
    let mut residual = System::universe();
    for c in sys.constraints() {
        if c.expr.vars().all(is_symbolic) {
            pred_parts.push(Pred::atom(Atom::from_constraint(c)));
        } else {
            residual.push(c.clone());
        }
    }
    (Pred::and_all(pred_parts), residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_ir::parse::parse_bool_expr;
    use padfa_omega::LinExpr;

    fn p(src: &str) -> Pred {
        Pred::from_bool(&parse_bool_expr(src).unwrap())
    }

    fn lim() -> Limits {
        Limits::default()
    }

    #[test]
    fn units_fold() {
        assert_eq!(p("true and x > 1"), p("x > 1"));
        assert_eq!(p("false and x > 1"), Pred::False);
        assert_eq!(p("false or x > 1"), p("x > 1"));
        assert_eq!(p("true or x > 1"), Pred::True);
    }

    #[test]
    fn complements_fold() {
        assert_eq!(p("x > 5 and x <= 5"), Pred::False);
        assert_eq!(p("x > 5 or x <= 5"), Pred::True);
    }

    #[test]
    fn affine_contradiction_detected() {
        assert_eq!(p("x > 5 and x < 3"), Pred::False);
        assert_ne!(p("x > 5 and x < 9"), Pred::False);
    }

    #[test]
    fn dedup_and_flatten() {
        let q = p("x > 1 and (x > 1 and y > 2)");
        match q {
            Pred::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other}"),
        }
    }

    #[test]
    fn negate_round_trip() {
        let q = p("x > 5 and y <= 3");
        let n = q.negate();
        assert!(matches!(n, Pred::Or(_)));
        assert_eq!(n.negate(), q);
    }

    #[test]
    fn ne_splits_affine_only() {
        let q = p("i != n");
        assert!(matches!(q, Pred::Or(_)));
        let r = p("x != 0.5");
        assert!(matches!(r, Pred::Atom(Atom::Opaque(_))));
    }

    #[test]
    fn double_negation_via_not() {
        assert_eq!(p("not (not (x > 1))"), p("x > 1"));
        assert_eq!(p("not (x > 1)"), p("x <= 1"));
    }

    #[test]
    fn implication_syntactic_and_affine() {
        assert!(p("x > 5").implies(&Pred::True, lim()));
        assert!(Pred::False.implies(&p("x > 5"), lim()));
        assert!(p("x > 5 and y > 0").implies(&p("x > 5"), lim()));
        assert!(p("x > 5").implies(&p("x > 3"), lim()));
        assert!(!p("x > 3").implies(&p("x > 5"), lim()));
        assert!(p("x == 4").implies(&p("x >= 2 and x <= 7"), lim()));
    }

    #[test]
    fn opaque_implication_is_conservative() {
        let a = p("x > 0.5");
        let b = p("x > 0.1");
        // True over the reals, but we cannot prove it: must answer false.
        assert!(!a.implies(&b, lim()));
        // Reflexive case still works syntactically.
        assert!(a.implies(&a, lim()));
    }

    #[test]
    fn embedding_produces_systems() {
        let q = p("i >= 1 and i <= n");
        let sys = q.to_systems(8).unwrap();
        assert_eq!(sys.len(), 1);
        assert_eq!(sys[0].len(), 2);
        let r = p("i < 1 or i > n");
        assert_eq!(r.to_systems(8).unwrap().len(), 2);
        assert!(p("x > 0.5").to_systems(8).is_none());
    }

    #[test]
    fn eval_three_valued() {
        let q = p("x > 5 and y > 0");
        let eval_x_only = |a: &Atom| {
            let mut vars = Vec::new();
            a.scalar_vars(&mut vars);
            if vars == [Var::new("x")] {
                // x = 3: x > 5 is false.
                a.to_constraint().and_then(|c| c.eval(&|_| Some(3)))
            } else {
                None
            }
        };
        // Short-circuits on the false conjunct even though y is unknown.
        assert_eq!(q.eval(&eval_x_only), Some(false));
        let r = p("y > 0 and x > 5");
        assert_eq!(r.eval(&eval_x_only), Some(false), "order-insensitive");
    }

    #[test]
    fn cost_model() {
        assert_eq!(Pred::True.cost(), 0);
        assert_eq!(p("x > 1").cost(), 1);
        assert_eq!(p("x > 0.5").cost(), 2);
        assert_eq!(p("x > 1 and y > 2").cost(), 2);
        assert!(p("x > 1 and y > 2").is_runtime_testable());
        let arr = p("a[i] > 0.0");
        assert!(!arr.is_runtime_testable());
    }

    #[test]
    fn implication_pruning_in_conjunction() {
        assert_eq!(p("x > 5 and x > 3"), p("x > 5"));
        assert_eq!(p("x > 3 and x > 5"), p("x > 5"));
        assert_eq!(p("x >= 2 and x >= 2 and y > 0"), p("x >= 2 and y > 0"));
        // Unrelated atoms survive.
        match p("x > 5 and y > 3") {
            Pred::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other}"),
        }
    }

    #[test]
    fn implication_pruning_in_disjunction() {
        assert_eq!(p("x > 5 or x > 3"), p("x > 3"));
        assert_eq!(p("x > 3 or x > 5"), p("x > 3"));
        match p("x > 5 or y > 3") {
            Pred::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn wide_conjunction_dedup_is_canonical() {
        // Twelve distinct atoms over distinct variables, each appearing
        // twice, fed in two different orders. `prune_implied` skips lists
        // wider than 8, so the sort + adjacent-dedup canonicalization is
        // solely responsible for the result here.
        let atoms: Vec<Pred> = (0..12).map(|k| p(&format!("x{k} > {k}"))).collect();
        let fwd: Vec<Pred> = atoms.iter().chain(atoms.iter()).cloned().collect();
        let mut rev = fwd.clone();
        rev.reverse();
        let a = Pred::and_all(fwd.clone());
        let b = Pred::and_all(rev.clone());
        assert_eq!(a, b, "order-insensitive canonical form");
        match &a {
            Pred::And(parts) => assert_eq!(parts.len(), 12, "duplicates removed"),
            other => panic!("expected And, got {other}"),
        }
        let c = Pred::or_all(fwd);
        let d = Pred::or_all(rev);
        assert_eq!(c, d);
        match &c {
            Pred::Or(parts) => assert_eq!(parts.len(), 12),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn pruning_keeps_opaque_atoms() {
        let q = p("x > 0.5 and x > 0.1");
        match q {
            Pred::And(parts) => assert_eq!(parts.len(), 2, "opaque atoms not compared"),
            other => panic!("expected And, got {other}"),
        }
    }

    #[test]
    fn extraction_splits_symbolics() {
        // System: { i >= 1, i <= 10, n >= 10 } with n symbolic, i not.
        let sys = System::from_constraints([
            Constraint::geq(LinExpr::var(Var::new("i")), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(Var::new("i")), LinExpr::constant(10)),
            Constraint::geq(LinExpr::var(Var::new("n")), LinExpr::constant(10)),
        ]);
        let (pred, residual) = extract_symbolic(&sys, &|v| v == Var::new("n"));
        assert_eq!(format!("{pred}"), "n - 10 >= 0");
        assert_eq!(residual.len(), 2);
        assert!(!residual.mentions(Var::new("n")));
    }

    #[test]
    fn extraction_of_contradiction() {
        let (pred, _) = extract_symbolic(&System::empty(), &|_| true);
        assert!(pred.is_false());
    }

    #[test]
    fn to_bool_expr_round_trip() {
        let q = p("x > 5 and y <= 3");
        let b = q.to_bool_expr();
        let q2 = Pred::from_bool(&b);
        assert_eq!(q, q2);
    }
}
