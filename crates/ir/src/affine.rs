//! Affine extraction: the bridge from IR expressions into the
//! linear-inequality world of `padfa-omega`.

use crate::ast::{BoolExpr, CmpOp, Expr};
use padfa_omega::{Constraint, LinExpr};

/// The largest coefficient or constant magnitude [`to_linexpr`] returns.
/// Its callers form `a − b − 1` of two results unchecked
/// (`Constraint::lt`, `Atom::from_cmp`, a loop's bounds), and that stays
/// inside `i64` exactly when both operands stay inside ±(2⁶² − 1).
const MAX_MAGNITUDE: u64 = (i64::MAX / 2) as u64;

/// Convert an integer expression to a linear expression over its scalar
/// variables, if it is affine. Multiplication is allowed only when one
/// side folds to a constant; `/`, `%`, reals, array reads, and intrinsic
/// calls are not affine. An expression whose arithmetic leaves `i64`, or
/// whose result has a coefficient or constant above [`MAX_MAGNITUDE`], is
/// treated as not affine: the conservative answer.
pub fn to_linexpr(e: &Expr) -> Option<LinExpr> {
    let l = linexpr(e)?;
    let small = |c: i64| c.unsigned_abs() <= MAX_MAGNITUDE;
    (small(l.konst()) && l.terms().all(|(_, c)| small(c))).then_some(l)
}

/// [`to_linexpr`] without the magnitude bound, with checked arithmetic.
fn linexpr(e: &Expr) -> Option<LinExpr> {
    match e {
        Expr::IntLit(v) => Some(LinExpr::constant(*v)),
        Expr::RealLit(_) => None,
        Expr::Scalar(v) => Some(LinExpr::var(*v)),
        Expr::Elem(..) => None,
        Expr::Add(a, b) => linexpr(a)?.checked_add(&linexpr(b)?),
        Expr::Sub(a, b) => linexpr(a)?.checked_add(&linexpr(b)?.checked_scaled(-1)?),
        Expr::Mul(a, b) => {
            let la = linexpr(a)?;
            let lb = linexpr(b)?;
            if la.is_const() {
                lb.checked_scaled(la.konst())
            } else if lb.is_const() {
                la.checked_scaled(lb.konst())
            } else {
                None
            }
        }
        Expr::Div(a, b) => {
            // Exact constant division only (e.g. `4 * n / 2`).
            let la = linexpr(a)?;
            let lb = linexpr(b)?;
            let d = lb.konst();
            let divides = |c: i64| c.checked_rem(d) == Some(0);
            if lb.is_const() && divides(la.konst()) && la.terms().all(|(_, c)| divides(c)) {
                Some(la.exact_div(d))
            } else {
                None
            }
        }
        Expr::Mod(..) => None,
        Expr::Neg(a) => linexpr(a)?.checked_scaled(-1),
        Expr::Call(..) => None,
    }
}

/// A conjunction of linear constraints equivalent to a boolean condition,
/// when one exists (no disjunction, all comparisons affine).
pub fn cond_to_constraints(b: &BoolExpr) -> Option<Vec<Constraint>> {
    let dnf = cond_to_dnf(b, 1)?;
    dnf.into_iter().next()
}

/// Disjunctive normal form of an affine condition: a union of
/// constraint conjunctions, capped at `max_disjuncts` (returns `None`
/// above the cap or when any atom is non-affine).
pub fn cond_to_dnf(b: &BoolExpr, max_disjuncts: usize) -> Option<Vec<Vec<Constraint>>> {
    fn cmp_to_constraints(op: CmpOp, a: &Expr, b: &Expr) -> Option<Vec<Vec<Constraint>>> {
        let la = to_linexpr(a)?;
        let lb = to_linexpr(b)?;
        Some(match op {
            CmpOp::Eq => vec![vec![Constraint::eq(la, lb)]],
            CmpOp::Le => vec![vec![Constraint::leq(la, lb)]],
            CmpOp::Lt => vec![vec![Constraint::lt(la, lb)]],
            CmpOp::Ge => vec![vec![Constraint::geq(la, lb)]],
            CmpOp::Gt => vec![vec![Constraint::gt(la, lb)]],
            // a != b over the integers is (a < b) or (a > b).
            CmpOp::Ne => vec![
                vec![Constraint::lt(la.clone(), lb.clone())],
                vec![Constraint::gt(la, lb)],
            ],
        })
    }

    fn go(b: &BoolExpr, neg: bool, cap: usize) -> Option<Vec<Vec<Constraint>>> {
        match b {
            BoolExpr::Lit(v) => {
                if *v != neg {
                    Some(vec![vec![]]) // true: one empty conjunction
                } else {
                    Some(vec![]) // false: empty disjunction
                }
            }
            BoolExpr::Cmp(op, a, c) => {
                let op = if neg { op.negate() } else { *op };
                cmp_to_constraints(op, a, c)
            }
            BoolExpr::And(a, c) if !neg => conj(go(a, false, cap)?, go(c, false, cap)?, cap),
            BoolExpr::Or(a, c) if !neg => {
                let mut l = go(a, false, cap)?;
                let r = go(c, false, cap)?;
                l.extend(r);
                if l.len() > cap {
                    return None;
                }
                Some(l)
            }
            // De Morgan.
            BoolExpr::And(a, c) => {
                let mut l = go(a, true, cap)?;
                let r = go(c, true, cap)?;
                l.extend(r);
                if l.len() > cap {
                    return None;
                }
                Some(l)
            }
            BoolExpr::Or(a, c) => conj(go(a, true, cap)?, go(c, true, cap)?, cap),
            BoolExpr::Not(a) => go(a, !neg, cap),
        }
    }

    fn conj(
        l: Vec<Vec<Constraint>>,
        r: Vec<Vec<Constraint>>,
        cap: usize,
    ) -> Option<Vec<Vec<Constraint>>> {
        let mut out = Vec::new();
        for a in &l {
            for b in &r {
                let mut c = a.clone();
                c.extend(b.iter().cloned());
                out.push(c);
                if out.len() > cap {
                    return None;
                }
            }
        }
        Some(out)
    }

    go(b, false, max_disjuncts)
}

/// Logical negation of a condition, pushed through comparisons.
pub fn negate(b: &BoolExpr) -> BoolExpr {
    match b {
        BoolExpr::Lit(v) => BoolExpr::Lit(!v),
        BoolExpr::Cmp(op, a, c) => BoolExpr::Cmp(op.negate(), a.clone(), c.clone()),
        BoolExpr::And(a, c) => BoolExpr::or(negate(a), negate(c)),
        BoolExpr::Or(a, c) => BoolExpr::and(negate(a), negate(c)),
        BoolExpr::Not(a) => (**a).clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_bool_expr, parse_expr};
    use padfa_omega::Var;

    #[test]
    fn affine_extraction() {
        let e = parse_expr("2 * i + n - 3").unwrap();
        let l = to_linexpr(&e).unwrap();
        assert_eq!(l.coeff(Var::new("i")), 2);
        assert_eq!(l.coeff(Var::new("n")), 1);
        assert_eq!(l.konst(), -3);
    }

    #[test]
    fn non_affine_rejected() {
        assert!(to_linexpr(&parse_expr("i * j").unwrap()).is_none());
        assert!(to_linexpr(&parse_expr("i % 2").unwrap()).is_none());
        assert!(to_linexpr(&parse_expr("a[i]").unwrap()).is_none());
        assert!(to_linexpr(&parse_expr("sqrt(i)").unwrap()).is_none());
    }

    #[test]
    fn exact_constant_division() {
        let l = to_linexpr(&parse_expr("(4 * n + 8) / 2").unwrap()).unwrap();
        assert_eq!(l.coeff(Var::new("n")), 2);
        assert_eq!(l.konst(), 4);
        assert!(to_linexpr(&parse_expr("n / 2").unwrap()).is_none());
    }

    #[test]
    fn extreme_constants_are_not_affine() {
        for src in [
            "i + 9223372036854775807 + 2 - 9223372036854775807",
            "-9223372036854775807 - 1 - i",
            "-9223372036854775807 - 1",
            "4611686018427387904 * i",
            "(-9223372036854775807 - 1) / -1",
            "n / 0",
        ] {
            assert!(to_linexpr(&parse_expr(src).unwrap()).is_none(), "{src}");
        }
        let l = to_linexpr(&parse_expr("4611686018427387903 * i - 4611686018427387903").unwrap());
        assert_eq!(l.unwrap().konst(), -4611686018427387903);
    }

    #[test]
    fn simple_conjunction() {
        let b = parse_bool_expr("i >= 1 and i <= n").unwrap();
        let cs = cond_to_constraints(&b).unwrap();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn disjunction_needs_dnf() {
        let b = parse_bool_expr("i < 1 or i > n").unwrap();
        assert!(cond_to_constraints(&b).is_none());
        let dnf = cond_to_dnf(&b, 4).unwrap();
        assert_eq!(dnf.len(), 2);
    }

    #[test]
    fn ne_splits() {
        let b = parse_bool_expr("i != j").unwrap();
        let dnf = cond_to_dnf(&b, 4).unwrap();
        assert_eq!(dnf.len(), 2);
    }

    #[test]
    fn negation_through_not() {
        let b = parse_bool_expr("not (i <= n)").unwrap();
        let cs = cond_to_constraints(&b).unwrap();
        assert_eq!(cs.len(), 1);
        // i > n, i.e. i - n - 1 >= 0.
        let env = |v: Var| {
            if v == Var::new("i") {
                Some(5)
            } else if v == Var::new("n") {
                Some(4)
            } else {
                None
            }
        };
        assert_eq!(cs[0].eval(&env), Some(true));
    }

    #[test]
    fn de_morgan_negate() {
        let b = parse_bool_expr("x > 0 and y > 0").unwrap();
        let n = negate(&b);
        assert!(matches!(n, BoolExpr::Or(..)));
    }

    #[test]
    fn dnf_cap_respected() {
        // Each `!=` doubles the disjunct count: 2^3 = 8 > cap 4.
        let b = parse_bool_expr("i != 1 and j != 2 and k != 3").unwrap();
        assert!(cond_to_dnf(&b, 4).is_none());
        assert!(cond_to_dnf(&b, 8).is_some());
    }

    #[test]
    fn non_affine_condition_rejected() {
        let b = parse_bool_expr("a[i] > 0.0").unwrap();
        assert!(cond_to_dnf(&b, 4).is_none());
    }
}
