//! Single integer linear constraints.

use crate::{div_floor, LinExpr, Var};
use std::fmt;

/// Constraint kind: the expression is compared against zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CKind {
    /// `expr == 0`
    Eq,
    /// `expr >= 0`
    Geq,
}

/// An integer linear constraint `expr {==,>=} 0`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    pub expr: LinExpr,
    pub kind: CKind,
}

/// Result of normalizing a constraint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Norm {
    /// Constraint always holds; drop it.
    Tautology,
    /// Constraint can never hold; the whole system is empty.
    Contradiction,
    /// Simplified constraint.
    Keep(Constraint),
}

impl Constraint {
    /// `expr == 0`.
    pub fn eq0(expr: LinExpr) -> Constraint {
        Constraint {
            expr,
            kind: CKind::Eq,
        }
    }

    /// `expr >= 0`.
    pub fn geq0(expr: LinExpr) -> Constraint {
        Constraint {
            expr,
            kind: CKind::Geq,
        }
    }

    /// `a == b`.
    pub fn eq(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::eq0(a - b)
    }

    /// `a >= b`.
    pub fn geq(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::geq0(a - b)
    }

    /// `a <= b`.
    pub fn leq(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::geq0(b - a)
    }

    /// `a < b`, i.e. `a <= b - 1` over the integers.
    pub fn lt(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::geq0(b - a - LinExpr::constant(1))
    }

    /// `a > b`.
    pub fn gt(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::lt(b, a)
    }

    /// Integer normalization.
    ///
    /// * constants fold to tautology / contradiction;
    /// * `g*e + c >= 0` with `g = gcd` of coefficients tightens to
    ///   `e + floor(c/g) >= 0` (sound and complete over the integers);
    /// * `g*e + c == 0` with `g ∤ c` is a contradiction, otherwise
    ///   divides through.
    pub fn normalize(&self) -> Norm {
        self.clone().into_norm()
    }

    /// [`Constraint::normalize`] by value: the common already-normal
    /// constraint is handed back as it came, not copied.
    pub(crate) fn into_norm(self) -> Norm {
        if self.expr.is_const() {
            let c = self.expr.konst();
            let holds = match self.kind {
                CKind::Eq => c == 0,
                CKind::Geq => c >= 0,
            };
            return if holds {
                Norm::Tautology
            } else {
                Norm::Contradiction
            };
        }
        let g = self.expr.content();
        if g <= 1 {
            return Norm::Keep(self);
        }
        let c = self.expr.konst();
        let tightened = match self.kind {
            CKind::Eq if c % g != 0 => return Norm::Contradiction,
            CKind::Eq => c / g,
            CKind::Geq => div_floor(c, g),
        };
        Norm::Keep(Constraint {
            expr: self.expr.with_const(0).exact_div(g).with_const(tightened),
            kind: self.kind,
        })
    }

    /// Integer negation of an inequality: `¬(e >= 0)` is `-e - 1 >= 0`.
    ///
    /// Equalities have a disjunctive negation and are handled by
    /// [`crate::Disjunction::subtract`].
    pub fn negate_geq(&self) -> Constraint {
        debug_assert_eq!(self.kind, CKind::Geq);
        let mut e = self.expr.scaled(-1);
        e.add_const(-1);
        Constraint::geq0(e)
    }

    /// The two inequalities equivalent to an equality.
    pub fn as_geq_pair(&self) -> (Constraint, Constraint) {
        debug_assert_eq!(self.kind, CKind::Eq);
        (
            Constraint::geq0(self.expr.clone()),
            Constraint::geq0(self.expr.scaled(-1)),
        )
    }

    /// True when `v` occurs in the constraint.
    pub fn mentions(&self, v: Var) -> bool {
        self.expr.mentions(v)
    }

    /// Evaluate under a total assignment.
    pub fn eval(&self, env: &dyn Fn(Var) -> Option<i64>) -> Option<bool> {
        let x = self.expr.eval(env)?;
        Some(match self.kind {
            CKind::Eq => x == 0,
            CKind::Geq => x >= 0,
        })
    }

    /// Substitute `v := e` and renormalize lazily (caller normalizes).
    pub fn subst(&self, v: Var, e: &LinExpr) -> Constraint {
        Constraint {
            expr: self.expr.subst(v, e),
            kind: self.kind,
        }
    }

    /// Structural ordering: equalities first, then by expression.
    pub fn cmp_structural(&self, other: &Constraint) -> std::cmp::Ordering {
        let kind_rank = |k: CKind| match k {
            CKind::Eq => 0u8,
            CKind::Geq => 1,
        };
        kind_rank(self.kind)
            .cmp(&kind_rank(other.kind))
            .then_with(|| self.expr.cmp_structural(&other.expr))
    }

    /// Rename a variable.
    pub fn rename(&self, from: Var, to: Var) -> Constraint {
        Constraint {
            expr: self.expr.rename(from, to),
            kind: self.kind,
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CKind::Eq => write!(f, "{} = 0", self.expr),
            CKind::Geq => write!(f, "{} >= 0", self.expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    #[test]
    fn normalizing_a_minimal_constant_does_not_negate_it() {
        // 3x + i64::MIN >= 0 tightens to x + floor(i64::MIN / 3) >= 0.
        let c = Constraint::geq0(LinExpr::term(v("x"), 3) + LinExpr::constant(i64::MIN));
        let want = LinExpr::var(v("x")) + LinExpr::constant(-3_074_457_345_618_258_603);
        assert_eq!(c.normalize(), Norm::Keep(Constraint::geq0(want)));
    }

    #[test]
    fn constant_folding() {
        assert_eq!(
            Constraint::geq0(LinExpr::constant(3)).normalize(),
            Norm::Tautology
        );
        assert_eq!(
            Constraint::geq0(LinExpr::constant(-1)).normalize(),
            Norm::Contradiction
        );
        assert_eq!(
            Constraint::eq0(LinExpr::constant(0)).normalize(),
            Norm::Tautology
        );
        assert_eq!(
            Constraint::eq0(LinExpr::constant(2)).normalize(),
            Norm::Contradiction
        );
    }

    #[test]
    fn integer_tightening() {
        // 2i - 3 >= 0  =>  i - 2 >= 0  (i >= ceil(3/2) = 2)
        let c = Constraint::geq0(LinExpr::term(v("i"), 2) - LinExpr::constant(3));
        match c.normalize() {
            Norm::Keep(n) => {
                assert_eq!(n.expr.coeff(v("i")), 1);
                assert_eq!(n.expr.konst(), -2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_gcd_contradiction() {
        // 2i + 1 == 0 has no integer solution.
        let c = Constraint::eq0(LinExpr::term(v("i"), 2) + LinExpr::constant(1));
        assert_eq!(c.normalize(), Norm::Contradiction);
    }

    #[test]
    fn equality_gcd_division() {
        // 2i - 4 == 0  =>  i - 2 == 0
        let c = Constraint::eq0(LinExpr::term(v("i"), 2) - LinExpr::constant(4));
        match c.normalize() {
            Norm::Keep(n) => {
                assert_eq!(n.expr.coeff(v("i")), 1);
                assert_eq!(n.expr.konst(), -2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negation_is_strict_complement() {
        // i - 5 >= 0  negated is  -i + 4 >= 0, i.e. i <= 4.
        let c = Constraint::geq0(LinExpr::var(v("i")) - LinExpr::constant(5));
        let n = c.negate_geq();
        let at = |x: i64| n.eval(&|_| Some(x)).unwrap();
        assert!(at(4));
        assert!(!at(5));
    }

    #[test]
    fn comparison_builders() {
        let i = LinExpr::var(v("i"));
        let five = LinExpr::constant(5);
        let lt = Constraint::lt(i.clone(), five.clone());
        assert_eq!(lt.eval(&|_| Some(4)), Some(true));
        assert_eq!(lt.eval(&|_| Some(5)), Some(false));
        let gt = Constraint::gt(i, five);
        assert_eq!(gt.eval(&|_| Some(6)), Some(true));
        assert_eq!(gt.eval(&|_| Some(5)), Some(false));
    }
}
