//! Traversal helpers and the name/shape resolver.

use crate::ast::*;
use padfa_omega::Var;

/// Count all loops in the program.
pub fn count_loops(p: &Program) -> usize {
    let mut n = 0;
    for_each_loop(p, &mut |_, _, _| n += 1);
    n
}

/// Count the loops of one procedure, nested ones included.
pub fn count_proc_loops(proc: &Procedure) -> usize {
    let mut n = 0;
    walk_loops(proc, &proc.body, 0, &mut |_, _, _| n += 1);
    n
}

/// Visit every loop with its enclosing procedure and nesting depth
/// (0 = outermost in its procedure).
pub fn for_each_loop<'p>(p: &'p Program, f: &mut dyn FnMut(&'p Procedure, &'p Loop, usize)) {
    for proc in &p.procedures {
        walk_loops(proc, &proc.body, 0, f);
    }
}

fn walk_loops<'p>(
    proc: &'p Procedure,
    b: &'p Block,
    depth: usize,
    f: &mut dyn FnMut(&'p Procedure, &'p Loop, usize),
) {
    for s in &b.stmts {
        match s {
            Stmt::For(l) => {
                f(proc, l, depth);
                walk_loops(proc, &l.body, depth + 1, f);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                walk_loops(proc, then_blk, depth, f);
                walk_loops(proc, else_blk, depth, f);
            }
            _ => {}
        }
    }
}

/// Find the loop with the given id.
pub fn find_loop(p: &Program, id: LoopId) -> Option<(&Procedure, &Loop)> {
    let mut found = None;
    for_each_loop(p, &mut |proc, l, _| {
        if l.id == id && found.is_none() {
            found = Some((proc, l));
        }
    });
    found
}

/// Find a loop by its source label.
pub fn find_loop_by_label<'p>(p: &'p Program, label: &str) -> Option<(&'p Procedure, &'p Loop)> {
    let mut found = None;
    for_each_loop(p, &mut |proc, l, _| {
        if l.label.as_deref() == Some(label) && found.is_none() {
            found = Some((proc, l));
        }
    });
    found
}

/// Map every loop to its immediate enclosing loop (within the same
/// procedure), if any.
pub fn loop_parents(p: &Program) -> std::collections::HashMap<LoopId, Option<LoopId>> {
    fn walk(
        b: &Block,
        parent: Option<LoopId>,
        out: &mut std::collections::HashMap<LoopId, Option<LoopId>>,
    ) {
        for s in &b.stmts {
            match s {
                Stmt::For(l) => {
                    out.insert(l.id, parent);
                    walk(&l.body, Some(l.id), out);
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, parent, out);
                    walk(else_blk, parent, out);
                }
                _ => {}
            }
        }
    }
    let mut out = std::collections::HashMap::new();
    for proc in &p.procedures {
        walk(&proc.body, None, &mut out);
    }
    out
}

struct Resolver<'p> {
    prog: &'p Program,
    errors: Vec<String>,
}

impl<'p> Resolver<'p> {
    fn err(&mut self, msg: String) {
        self.errors.push(msg);
    }

    fn check_expr(&mut self, proc: &Procedure, indices: &[Var], e: &Expr) {
        match e {
            Expr::IntLit(_) | Expr::RealLit(_) => {}
            Expr::Scalar(v) => {
                if proc.scalar_ty(*v).is_none() && !indices.contains(v) {
                    // Whole-array mention in scalar position is an error.
                    if proc.array_dims(*v).is_some() {
                        self.err(format!(
                            "{}: array '{v}' used without subscripts",
                            proc.name
                        ));
                    } else {
                        self.err(format!("{}: undeclared scalar '{v}'", proc.name));
                    }
                }
            }
            Expr::Elem(a, idxs) => {
                match proc.array_dims(*a) {
                    None => self.err(format!("{}: undeclared array '{a}'", proc.name)),
                    Some(dims) => {
                        if dims.len() != idxs.len() {
                            self.err(format!(
                                "{}: array '{a}' has {} dimension(s) but {} subscript(s) given",
                                proc.name,
                                dims.len(),
                                idxs.len()
                            ));
                        }
                    }
                }
                for i in idxs {
                    self.check_expr(proc, indices, i);
                }
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b) => {
                self.check_expr(proc, indices, a);
                self.check_expr(proc, indices, b);
            }
            Expr::Neg(a) => self.check_expr(proc, indices, a),
            Expr::Call(_, args) => {
                for a in args {
                    self.check_expr(proc, indices, a);
                }
            }
        }
    }

    fn check_bool(&mut self, proc: &Procedure, indices: &[Var], b: &BoolExpr) {
        match b {
            BoolExpr::Lit(_) => {}
            BoolExpr::Cmp(_, x, y) => {
                self.check_expr(proc, indices, x);
                self.check_expr(proc, indices, y);
            }
            BoolExpr::And(x, y) | BoolExpr::Or(x, y) => {
                self.check_bool(proc, indices, x);
                self.check_bool(proc, indices, y);
            }
            BoolExpr::Not(x) => self.check_bool(proc, indices, x),
        }
    }

    fn check_block(&mut self, proc: &Procedure, indices: &mut Vec<Var>, b: &Block) {
        for s in &b.stmts {
            match s {
                Stmt::Assign { lhs, rhs } => {
                    match lhs {
                        LValue::Scalar(v) => {
                            if indices.contains(v) {
                                self.err(format!(
                                    "{}: assignment to active loop index '{v}'",
                                    proc.name
                                ));
                            } else if proc.scalar_ty(*v).is_none() {
                                self.err(format!("{}: undeclared scalar '{v}'", proc.name));
                            }
                        }
                        LValue::Elem(a, idxs) => {
                            match proc.array_dims(*a) {
                                None => self.err(format!("{}: undeclared array '{a}'", proc.name)),
                                Some(dims) => {
                                    if dims.len() != idxs.len() {
                                        self.err(format!(
                                            "{}: array '{a}' subscript arity mismatch",
                                            proc.name
                                        ));
                                    }
                                }
                            }
                            for i in idxs {
                                self.check_expr(proc, indices, i);
                            }
                        }
                    }
                    self.check_expr(proc, indices, rhs);
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.check_bool(proc, indices, cond);
                    self.check_block(proc, indices, then_blk);
                    self.check_block(proc, indices, else_blk);
                }
                Stmt::For(l) => {
                    self.check_expr(proc, indices, &l.lo);
                    self.check_expr(proc, indices, &l.hi);
                    if indices.contains(&l.var) {
                        self.err(format!(
                            "{}: loop index '{}' shadows an enclosing loop index",
                            proc.name, l.var
                        ));
                    }
                    indices.push(l.var);
                    self.check_block(proc, indices, &l.body);
                    indices.pop();
                }
                Stmt::Call { callee, args } => {
                    let Some(target) = self.prog.proc(callee) else {
                        self.err(format!(
                            "{}: call to unknown procedure '{callee}'",
                            proc.name
                        ));
                        continue;
                    };
                    if target.params.len() != args.len() {
                        self.err(format!(
                            "{}: call to '{callee}' passes {} argument(s), expected {}",
                            proc.name,
                            args.len(),
                            target.params.len()
                        ));
                        continue;
                    }
                    for (arg, param) in args.iter().zip(&target.params) {
                        match (&param.ty, arg) {
                            (ParamTy::Array { .. }, Arg::Array(v)) => {
                                if proc.array_dims(*v).is_none() {
                                    self.err(format!(
                                        "{}: undeclared array '{v}' passed to '{callee}'",
                                        proc.name
                                    ));
                                }
                            }
                            (ParamTy::Array { .. }, Arg::Scalar(_)) => {
                                self.err(format!(
                                    "{}: scalar passed where '{callee}' expects an array",
                                    proc.name
                                ));
                            }
                            (ParamTy::Scalar(_), Arg::Array(v)) => {
                                // Parser ambiguity: a bare identifier.
                                // Accept if it names a scalar in scope.
                                if proc.scalar_ty(*v).is_none() && !indices.contains(v) {
                                    self.err(format!(
                                        "{}: '{v}' is not a scalar in scope for call to '{callee}'",
                                        proc.name
                                    ));
                                }
                            }
                            (ParamTy::Scalar(_), Arg::Scalar(e)) => {
                                self.check_expr(proc, indices, e);
                            }
                        }
                    }
                }
                Stmt::Read(v) => {
                    if proc.scalar_ty(*v).is_none() {
                        self.err(format!("{}: read into undeclared scalar '{v}'", proc.name));
                    }
                }
                Stmt::Print(e) => self.check_expr(proc, indices, e),
                Stmt::ExitWhen(c) => self.check_bool(proc, indices, c),
            }
        }
    }
}

/// Check name binding, subscript arity, and call signatures across the
/// whole program. Returns the first batch of errors joined together.
pub fn resolve(p: &Program) -> Result<(), String> {
    let mut r = Resolver {
        prog: p,
        errors: Vec::new(),
    };
    for proc in &p.procedures {
        let mut indices = Vec::new();
        r.check_block(proc, &mut indices, &proc.body);
    }
    if r.errors.is_empty() {
        Ok(())
    } else {
        Err(r.errors.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    #[test]
    fn counts_and_parents() {
        let src = "proc main(n: int) { array a[10, 10];
            for i = 1 to n {
                for j = 1 to n { a[i, j] = 0.0; }
            }
            for k = 1 to n { a[k, 1] = 1.0; }
        }";
        let p = parse_program(src).unwrap();
        assert_eq!(count_loops(&p), 3);
        let parents = loop_parents(&p);
        assert_eq!(parents[&LoopId(0)], None);
        assert_eq!(parents[&LoopId(1)], Some(LoopId(0)));
        assert_eq!(parents[&LoopId(2)], None);
    }

    #[test]
    fn find_by_label() {
        let src = "proc main(n: int) { array a[10];
            for@hot i = 1 to n { a[i] = 0.0; } }";
        let p = parse_program(src).unwrap();
        let (_, l) = find_loop_by_label(&p, "hot").unwrap();
        assert_eq!(l.id, LoopId(0));
        assert!(find_loop_by_label(&p, "cold").is_none());
    }

    #[test]
    fn rejects_undeclared_names() {
        assert!(parse_program("proc m() { x = 1; }").is_err());
        assert!(parse_program("proc m() { a[1] = 1.0; }").is_err());
        assert!(parse_program("proc m(n: int) { var x: int; x = n + q; }").is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(parse_program("proc m() { array a[10, 10]; a[1] = 0.0; }").is_err());
        let ok = parse_program("proc m() { array a[10, 10]; a[1, 2] = 0.0; }");
        assert!(ok.is_ok());
    }

    #[test]
    fn rejects_bad_calls() {
        assert!(parse_program("proc m() { call nosuch(); }").is_err());
        assert!(
            parse_program("proc f(n: int) { } proc m() { call f(); }").is_err(),
            "arg count mismatch"
        );
        assert!(
            parse_program("proc f(a: array[10]) { } proc m(n: int) { call f(n); }").is_err(),
            "scalar passed for array"
        );
    }

    #[test]
    fn accepts_scalar_actual_parsed_as_array_form() {
        let src = "proc f(n: int) { } proc m(k: int) { call f(k); }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn rejects_loop_index_abuse() {
        assert!(
            parse_program("proc m(n: int) { array a[9]; for i = 1 to n { i = 2; } }").is_err(),
            "assignment to loop index"
        );
        assert!(
            parse_program(
                "proc m(n: int) { array a[9]; for i = 1 to n { for i = 1 to n { a[i] = 0.0; } } }"
            )
            .is_err(),
            "shadowed loop index"
        );
    }

    #[test]
    fn whole_array_in_scalar_position_rejected() {
        assert!(parse_program("proc m() { array a[10]; var x: real; x = a; }").is_err());
    }
}
