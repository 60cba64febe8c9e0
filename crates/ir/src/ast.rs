//! Abstract syntax = region graph of the mini-Fortran language.

use padfa_omega::{Var, VarTable};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Scalar element type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalarTy {
    Int,
    Real,
}

/// Comparison operators in boolean expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The comparison with operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation (`!(a op b)` ⇔ `a op.negate() b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    pub fn apply_i(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    pub fn apply_f(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Numeric intrinsic functions (used to give kernels realistic work).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    Sin,
    Cos,
    Sqrt,
    Exp,
    Abs,
    Min,
    Max,
}

impl Intrinsic {
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "sqrt" => Intrinsic::Sqrt,
            "exp" => Intrinsic::Exp,
            "abs" => Intrinsic::Abs,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Abs => "abs",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Min | Intrinsic::Max => 2,
            _ => 1,
        }
    }
}

/// Arithmetic expressions. Typing (int vs real) is resolved by the
/// declarations in scope; integer expressions are the only ones eligible
/// for subscripts and affine extraction.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    IntLit(i64),
    RealLit(f64),
    /// Scalar variable reference (loop index, parameter, or local).
    Scalar(Var),
    /// `a[e1, ..., ek]`
    Elem(Var, Vec<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    /// Integer remainder (Fortran `mod`).
    Mod(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Call(Intrinsic, Vec<Expr>),
}

impl Expr {
    pub fn scalar(name: &str) -> Expr {
        Expr::Scalar(Var::new(name))
    }

    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    pub fn real(v: f64) -> Expr {
        Expr::RealLit(v)
    }

    pub fn elem(array: &str, idxs: Vec<Expr>) -> Expr {
        Expr::Elem(Var::new(array), idxs)
    }

    /// All scalar variables read by this expression.
    pub fn scalar_vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::IntLit(_) | Expr::RealLit(_) => {}
            Expr::Scalar(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Elem(_, idxs) => {
                for e in idxs {
                    e.scalar_vars(out);
                }
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => {
                a.scalar_vars(out);
                b.scalar_vars(out);
            }
            Expr::Neg(a) => a.scalar_vars(out),
            Expr::Call(_, args) => {
                for e in args {
                    e.scalar_vars(out);
                }
            }
        }
    }

    /// Visit every array element access `(array, subscripts)` in the
    /// expression.
    pub fn for_each_access(&self, f: &mut dyn FnMut(Var, &[Expr])) {
        match self {
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::Scalar(_) => {}
            Expr::Elem(a, idxs) => {
                f(*a, idxs);
                for e in idxs {
                    e.for_each_access(f);
                }
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => {
                a.for_each_access(f);
                b.for_each_access(f);
            }
            Expr::Neg(a) => a.for_each_access(f),
            Expr::Call(_, args) => {
                for e in args {
                    e.for_each_access(f);
                }
            }
        }
    }
}

/// `Eq` cannot be derived because of the `f64` literal. The grammar has
/// no spelling for NaN, so every `RealLit` the parser (or the analysis)
/// produces is a finite number for which the derived `PartialEq` is
/// reflexive.
impl Eq for Expr {}

/// Boolean expressions used in `if` conditions, `exit when`, and derived
/// predicates.
#[derive(Clone, PartialEq, Debug)]
pub enum BoolExpr {
    Lit(bool),
    Cmp(CmpOp, Expr, Expr),
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> BoolExpr {
        BoolExpr::Cmp(op, a, b)
    }

    pub fn and(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::And(Box::new(a), Box::new(b))
    }

    pub fn or(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::Or(Box::new(a), Box::new(b))
    }

    #[allow(clippy::should_implement_trait)] // constructor mirroring `and`/`or`
    pub fn not(a: BoolExpr) -> BoolExpr {
        BoolExpr::Not(Box::new(a))
    }

    /// All scalar variables read.
    pub fn scalar_vars(&self, out: &mut Vec<Var>) {
        match self {
            BoolExpr::Lit(_) => {}
            BoolExpr::Cmp(_, a, b) => {
                a.scalar_vars(out);
                b.scalar_vars(out);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.scalar_vars(out);
                b.scalar_vars(out);
            }
            BoolExpr::Not(a) => a.scalar_vars(out),
        }
    }

    /// True when the expression reads no array elements (such conditions
    /// are candidates for cheap run-time tests).
    pub fn is_scalar_only(&self) -> bool {
        let mut scalar_only = true;
        self.for_each_access(&mut |_, _| scalar_only = false);
        scalar_only
    }

    /// Visit every array access.
    pub fn for_each_access(&self, f: &mut dyn FnMut(Var, &[Expr])) {
        match self {
            BoolExpr::Lit(_) => {}
            BoolExpr::Cmp(_, a, b) => {
                a.for_each_access(f);
                b.for_each_access(f);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.for_each_access(f);
                b.for_each_access(f);
            }
            BoolExpr::Not(a) => a.for_each_access(f),
        }
    }
}

/// See the note on [`Expr`]'s `Eq`: real literals are never NaN.
impl Eq for BoolExpr {}

/// Assignment target.
#[derive(Clone, PartialEq, Debug)]
pub enum LValue {
    Scalar(Var),
    Elem(Var, Vec<Expr>),
}

impl LValue {
    pub fn scalar(name: &str) -> LValue {
        LValue::Scalar(Var::new(name))
    }

    pub fn elem(array: &str, idxs: Vec<Expr>) -> LValue {
        LValue::Elem(Var::new(array), idxs)
    }
}

/// Unique loop identity within a [`Program`] (assigned by
/// [`Program::finalize`], in preorder per procedure).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LoopId(pub u32);

/// A counted `for` loop: `for v = lo to hi step s { body }`.
///
/// The step is a non-zero integer constant; a negative step iterates
/// downward (`for i = n to 1 step -1`), matching Fortran `DO` loops.
#[derive(Clone, PartialEq, Debug)]
pub struct Loop {
    pub id: LoopId,
    /// Optional source label (`for@L10 ...`), used by reports and tables.
    pub label: Option<String>,
    pub var: Var,
    pub lo: Expr,
    pub hi: Expr,
    pub step: i64,
    pub body: Block,
}

/// Statements.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    Assign {
        lhs: LValue,
        rhs: Expr,
    },
    If {
        cond: BoolExpr,
        then_blk: Block,
        else_blk: Block,
    },
    For(Loop),
    Call {
        callee: String,
        /// Actual arguments: scalar expressions or whole-array names.
        args: Vec<Arg>,
    },
    /// `read x;` — I/O: disqualifies enclosing loops from parallelization.
    Read(Var),
    /// `print e;` — I/O.
    Print(Expr),
    /// `exit when (c);` — internal loop exit: disqualifies the enclosing
    /// loop.
    ExitWhen(BoolExpr),
}

/// An actual argument at a call site.
#[derive(Clone, PartialEq, Debug)]
pub enum Arg {
    Scalar(Expr),
    /// Pass a whole array by reference.
    Array(Var),
}

/// A straight-line-or-nested sequence of statements (a region body).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

impl Block {
    pub fn new(stmts: Vec<Stmt>) -> Block {
        Block { stmts }
    }
}

/// Local or parameter array shape: one extent expression per dimension.
/// Extents may be symbolic (parameters) but must be affine.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayDecl {
    pub name: Var,
    pub dims: Vec<Expr>,
    pub ty: ScalarTy,
}

/// Formal parameter type.
#[derive(Clone, PartialEq, Debug)]
pub enum ParamTy {
    Scalar(ScalarTy),
    Array { dims: Vec<Expr>, ty: ScalarTy },
}

/// Formal parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct Param {
    pub name: Var,
    pub ty: ParamTy,
}

/// Scalar local declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct ScalarDecl {
    pub name: Var,
    pub ty: ScalarTy,
    pub init: Option<Expr>,
}

/// A procedure: the unit of interprocedural summarization.
#[derive(Clone, PartialEq, Debug)]
pub struct Procedure {
    pub name: String,
    pub params: Vec<Param>,
    pub arrays: Vec<ArrayDecl>,
    pub scalars: Vec<ScalarDecl>,
    pub body: Block,
}

impl Procedure {
    /// Look up the declared shape of an array visible in this procedure
    /// (local or formal parameter).
    pub fn array_dims(&self, name: Var) -> Option<&[Expr]> {
        for d in &self.arrays {
            if d.name == name {
                return Some(&d.dims);
            }
        }
        for p in &self.params {
            if p.name == name {
                if let ParamTy::Array { dims, .. } = &p.ty {
                    return Some(dims);
                }
            }
        }
        None
    }

    /// Element type of an array visible in this procedure.
    pub fn array_ty(&self, name: Var) -> Option<ScalarTy> {
        for d in &self.arrays {
            if d.name == name {
                return Some(d.ty);
            }
        }
        for p in &self.params {
            if p.name == name {
                if let ParamTy::Array { ty, .. } = &p.ty {
                    return Some(*ty);
                }
            }
        }
        None
    }

    /// Scalar type of a variable visible in this procedure, if declared.
    pub fn scalar_ty(&self, name: Var) -> Option<ScalarTy> {
        for d in &self.scalars {
            if d.name == name {
                return Some(d.ty);
            }
        }
        for p in &self.params {
            if p.name == name {
                if let ParamTy::Scalar(t) = p.ty {
                    return Some(t);
                }
            }
        }
        None
    }
}

/// A whole program. Call [`Program::finalize`] after construction to
/// assign [`LoopId`]s and build the procedure index.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    pub procedures: Vec<Procedure>,
    index: HashMap<String, usize>,
    next_loop: u32,
    /// The numbering the program's `Var`s are drawn from.
    vars: Arc<VarTable>,
}

impl Program {
    /// Assemble a program from procedures whose `Var`s the calling
    /// thread numbered; the program keeps that numbering.
    pub fn new(procedures: Vec<Procedure>) -> Program {
        let mut p = Program {
            procedures,
            index: HashMap::new(),
            next_loop: 0,
            vars: VarTable::current(),
        };
        p.finalize();
        p
    }

    /// The numbering of the program's `Var`s: what the thread that built
    /// it had numbered when [`Program::new`] ran. A session, or any thread
    /// that reads the program's names, adopts it first
    /// ([`VarTable::adopt`]).
    pub fn vars(&self) -> &Arc<VarTable> {
        &self.vars
    }

    /// Assign fresh `LoopId`s in preorder and (re)build the name index.
    pub fn finalize(&mut self) {
        self.index.clear();
        self.next_loop = 0;
        for (i, p) in self.procedures.iter().enumerate() {
            self.index.insert(p.name.clone(), i);
        }
        let mut next = 0u32;
        for p in &mut self.procedures {
            Self::number_block(&mut p.body, &mut next);
        }
        self.next_loop = next;
    }

    fn number_block(b: &mut Block, next: &mut u32) {
        for s in &mut b.stmts {
            match s {
                Stmt::For(l) => {
                    l.id = LoopId(*next);
                    *next += 1;
                    Self::number_block(&mut l.body, next);
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    Self::number_block(then_blk, next);
                    Self::number_block(else_blk, next);
                }
                _ => {}
            }
        }
    }

    /// Total number of loops (valid after `finalize`).
    pub fn num_loops(&self) -> u32 {
        self.next_loop
    }

    /// Find a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&Procedure> {
        self.index.get(name).map(|&i| &self.procedures[i])
    }

    /// The entry procedure: `main` if present, else the first.
    pub fn entry(&self) -> Option<&Procedure> {
        self.proc("main").or_else(|| self.procedures.first())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::program_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_tables() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert!(CmpOp::Le.apply_i(3, 3));
        assert!(!CmpOp::Lt.apply_i(3, 3));
        assert!(CmpOp::Ge.apply_f(2.5, 2.5));
    }

    #[test]
    fn intrinsic_round_trip() {
        for i in [
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Sqrt,
            Intrinsic::Exp,
            Intrinsic::Abs,
            Intrinsic::Min,
            Intrinsic::Max,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("tan"), None);
    }

    #[test]
    fn expr_scalar_vars_dedup() {
        let e = Expr::Add(
            Box::new(Expr::scalar("i")),
            Box::new(Expr::Mul(
                Box::new(Expr::scalar("i")),
                Box::new(Expr::scalar("n")),
            )),
        );
        let mut vs = Vec::new();
        e.scalar_vars(&mut vs);
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn bool_expr_scalar_only() {
        let c = BoolExpr::cmp(CmpOp::Gt, Expr::scalar("x"), Expr::int(5));
        assert!(c.is_scalar_only());
        let c2 = BoolExpr::cmp(
            CmpOp::Gt,
            Expr::elem("a", vec![Expr::scalar("i")]),
            Expr::int(0),
        );
        assert!(!c2.is_scalar_only());
    }

    #[test]
    fn loop_numbering_is_preorder() {
        let mk_loop = |var: &str, body: Vec<Stmt>| {
            Stmt::For(Loop {
                id: LoopId(999),
                label: None,
                var: Var::new(var),
                lo: Expr::int(1),
                hi: Expr::int(10),
                step: 1,
                body: Block::new(body),
            })
        };
        let inner = mk_loop(
            "j",
            vec![Stmt::Assign {
                lhs: LValue::elem("a", vec![Expr::scalar("j")]),
                rhs: Expr::real(0.0),
            }],
        );
        let outer = mk_loop("i", vec![inner]);
        let p = Program::new(vec![Procedure {
            name: "main".into(),
            params: vec![],
            arrays: vec![ArrayDecl {
                name: Var::new("a"),
                dims: vec![Expr::int(10)],
                ty: ScalarTy::Real,
            }],
            scalars: vec![],
            body: Block::new(vec![outer]),
        }]);
        assert_eq!(p.num_loops(), 2);
        if let Stmt::For(l) = &p.procedures[0].body.stmts[0] {
            assert_eq!(l.id, LoopId(0));
            if let Stmt::For(l2) = &l.body.stmts[0] {
                assert_eq!(l2.id, LoopId(1));
            } else {
                panic!("expected inner loop");
            }
        } else {
            panic!("expected outer loop");
        }
    }

    #[test]
    fn procedure_lookups() {
        let p = Procedure {
            name: "f".into(),
            params: vec![
                Param {
                    name: Var::new("n"),
                    ty: ParamTy::Scalar(ScalarTy::Int),
                },
                Param {
                    name: Var::new("b"),
                    ty: ParamTy::Array {
                        dims: vec![Expr::scalar("n")],
                        ty: ScalarTy::Real,
                    },
                },
            ],
            arrays: vec![ArrayDecl {
                name: Var::new("loc"),
                dims: vec![Expr::int(8)],
                ty: ScalarTy::Int,
            }],
            scalars: vec![ScalarDecl {
                name: Var::new("t"),
                ty: ScalarTy::Real,
                init: None,
            }],
            body: Block::default(),
        };
        assert_eq!(p.scalar_ty(Var::new("n")), Some(ScalarTy::Int));
        assert_eq!(p.scalar_ty(Var::new("t")), Some(ScalarTy::Real));
        assert_eq!(p.array_ty(Var::new("b")), Some(ScalarTy::Real));
        assert_eq!(p.array_ty(Var::new("loc")), Some(ScalarTy::Int));
        assert_eq!(p.array_dims(Var::new("b")).unwrap().len(), 1);
        assert!(p.array_dims(Var::new("zz")).is_none());
    }
}
