//! Predicate atoms: affine comparisons canonicalized into the linear
//! domain, plus opaque residual comparisons.

use padfa_ir::{affine, BoolExpr, CmpOp, Expr};
use padfa_omega::{CKind, Constraint, LinExpr, Var};
use std::fmt;

/// Kind of an affine atom (the canonical comparisons against zero).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AtomKind {
    /// `expr >= 0`
    Geq,
    /// `expr == 0`
    Eq,
}

/// One indivisible predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Atom {
    /// An affine comparison, canonicalized so that syntactically
    /// different spellings (`i < n`, `n > i`, `i + 1 <= n`) compare equal.
    Affine { expr: LinExpr, kind: AtomKind },
    /// A comparison the linear engine cannot interpret (real-valued
    /// operands, array reads, `mod`, intrinsics). Still run-time
    /// evaluable.
    Opaque(BoolExpr),
}

impl Atom {
    /// Canonicalize a comparison. `Ne` is disjunctive and must be split
    /// by the caller; passing it returns `None` (as does any `Ne` the
    /// caller wants kept opaque).
    pub fn from_cmp(op: CmpOp, a: &Expr, b: &Expr) -> Option<Atom> {
        let la = affine::to_linexpr(a)?;
        let lb = affine::to_linexpr(b)?;
        Some(match op {
            CmpOp::Ge => Atom::affine_geq(la - lb),
            CmpOp::Gt => Atom::affine_geq(la - lb - LinExpr::constant(1)),
            CmpOp::Le => Atom::affine_geq(lb - la),
            CmpOp::Lt => Atom::affine_geq(lb - la - LinExpr::constant(1)),
            CmpOp::Eq => Atom::Affine {
                expr: la - lb,
                kind: AtomKind::Eq,
            },
            CmpOp::Ne => return None,
        })
    }

    /// `expr >= 0`.
    pub fn affine_geq(expr: LinExpr) -> Atom {
        Atom::Affine {
            expr,
            kind: AtomKind::Geq,
        }
    }

    /// The constraint equivalent (affine atoms only).
    pub fn to_constraint(&self) -> Option<Constraint> {
        match self {
            Atom::Affine { expr, kind } => Some(match kind {
                AtomKind::Geq => Constraint::geq0(expr.clone()),
                AtomKind::Eq => Constraint::eq0(expr.clone()),
            }),
            Atom::Opaque(_) => None,
        }
    }

    /// Build from a constraint.
    pub fn from_constraint(c: &Constraint) -> Atom {
        Atom::Affine {
            expr: c.expr.clone(),
            kind: match c.kind {
                CKind::Geq => AtomKind::Geq,
                CKind::Eq => AtomKind::Eq,
            },
        }
    }

    /// Fold to a boolean when the atom is variable-free.
    pub fn const_value(&self) -> Option<bool> {
        match self {
            Atom::Affine { expr, kind } if expr.is_const() => Some(match kind {
                AtomKind::Geq => expr.konst() >= 0,
                AtomKind::Eq => expr.konst() == 0,
            }),
            Atom::Opaque(BoolExpr::Lit(v)) => Some(*v),
            _ => None,
        }
    }

    /// True when the two atoms are exact logical complements.
    pub fn is_complement_of(&self, other: &Atom) -> bool {
        match (self, other) {
            (
                Atom::Affine {
                    expr: a,
                    kind: AtomKind::Geq,
                },
                Atom::Affine {
                    expr: b,
                    kind: AtomKind::Geq,
                },
            ) => {
                // ¬(a >= 0) is (-a - 1 >= 0): check b == -a - 1.
                b.konst() == -a.konst() - 1
                    && b.num_terms() == a.num_terms()
                    && a.terms()
                        .zip(b.terms())
                        .all(|((va, ca), (vb, cb))| va == vb && cb == -ca)
            }
            (
                Atom::Opaque(BoolExpr::Cmp(op1, x1, y1)),
                Atom::Opaque(BoolExpr::Cmp(op2, x2, y2)),
            ) => op1.negate() == *op2 && x1 == x2 && y1 == y2,
            _ => false,
        }
    }

    /// The scalar variables read by this atom.
    pub fn scalar_vars(&self, out: &mut Vec<Var>) {
        match self {
            Atom::Affine { expr, .. } => {
                for (v, _) in expr.terms() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            Atom::Opaque(b) => b.scalar_vars(out),
        }
    }

    /// True when evaluating the atom reads no array elements.
    pub fn is_scalar_only(&self) -> bool {
        match self {
            Atom::Affine { .. } => true,
            Atom::Opaque(b) => b.is_scalar_only(),
        }
    }

    /// Render back into an evaluable [`BoolExpr`].
    pub fn to_bool_expr(&self) -> BoolExpr {
        match self {
            Atom::Affine { expr, kind } => {
                let e = linexpr_to_expr(expr);
                match kind {
                    AtomKind::Geq => BoolExpr::cmp(CmpOp::Ge, e, Expr::int(0)),
                    AtomKind::Eq => BoolExpr::cmp(CmpOp::Eq, e, Expr::int(0)),
                }
            }
            Atom::Opaque(b) => b.clone(),
        }
    }
}

/// Render a linear expression back into IR syntax.
pub fn linexpr_to_expr(l: &LinExpr) -> Expr {
    let mut acc: Option<Expr> = None;
    for (v, c) in l.terms() {
        let term = if c == 1 {
            Expr::Scalar(v)
        } else if c == -1 {
            Expr::Neg(Box::new(Expr::Scalar(v)))
        } else {
            Expr::Mul(Box::new(Expr::int(c)), Box::new(Expr::Scalar(v)))
        };
        acc = Some(match acc {
            None => term,
            Some(a) => Expr::Add(Box::new(a), Box::new(term)),
        });
    }
    let k = l.konst();
    match acc {
        None => Expr::int(k),
        Some(a) if k == 0 => a,
        Some(a) if k > 0 => Expr::Add(Box::new(a), Box::new(Expr::int(k))),
        Some(a) => Expr::Sub(Box::new(a), Box::new(Expr::int(-k))),
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Affine { expr, kind } => match kind {
                AtomKind::Geq => write!(f, "{expr} >= 0"),
                AtomKind::Eq => write!(f, "{expr} == 0"),
            },
            Atom::Opaque(b) => write!(f, "{}", padfa_ir::pretty::bool_expr(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_ir::parse::parse_bool_expr;

    fn atom_of(src: &str) -> Atom {
        match parse_bool_expr(src).unwrap() {
            BoolExpr::Cmp(op, a, b) => Atom::from_cmp(op, &a, &b).unwrap(),
            other => panic!("not a comparison: {other:?}"),
        }
    }

    #[test]
    fn canonicalization_identifies_spellings() {
        // i < n  ==  i + 1 <= n  ==  n > i
        assert_eq!(atom_of("i < n"), atom_of("i + 1 <= n"));
        assert_eq!(atom_of("i < n"), atom_of("n > i"));
    }

    #[test]
    fn complement_detection_affine() {
        let a = atom_of("i < n");
        let b = atom_of("i >= n");
        assert!(a.is_complement_of(&b));
        assert!(b.is_complement_of(&a));
        assert!(!a.is_complement_of(&atom_of("i <= n")));
    }

    #[test]
    fn complement_detection_opaque() {
        let x = Expr::scalar("x");
        let a = Atom::Opaque(BoolExpr::cmp(CmpOp::Gt, x.clone(), Expr::real(0.5)));
        let b = Atom::Opaque(BoolExpr::cmp(CmpOp::Le, x, Expr::real(0.5)));
        assert!(a.is_complement_of(&b));
    }

    #[test]
    fn const_folding() {
        assert_eq!(atom_of("1 < 2").const_value(), Some(true));
        assert_eq!(atom_of("2 < 1").const_value(), Some(false));
        assert_eq!(atom_of("i < 2").const_value(), None);
    }

    #[test]
    fn round_trip_to_bool_expr() {
        let a = atom_of("2 * i + 1 <= n");
        let b = a.to_bool_expr();
        // Must be evaluable: i = 3, n = 7 => 7 <= 7: true.
        match &b {
            BoolExpr::Cmp(CmpOp::Ge, lhs, _) => {
                let l = affine::to_linexpr(lhs).unwrap();
                let env = |v: Var| {
                    if v == Var::new("i") {
                        Some(3)
                    } else if v == Var::new("n") {
                        Some(7)
                    } else {
                        None
                    }
                };
                assert_eq!(l.eval(&env), Some(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ne_is_rejected() {
        let b = parse_bool_expr("i != n").unwrap();
        if let BoolExpr::Cmp(op, a, c) = b {
            assert!(Atom::from_cmp(op, &a, &c).is_none());
        }
    }

    #[test]
    fn constraint_round_trip() {
        let a = atom_of("i <= n");
        let c = a.to_constraint().unwrap();
        assert_eq!(Atom::from_constraint(&c), a);
    }
}
