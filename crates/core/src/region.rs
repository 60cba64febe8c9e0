//! Array section construction: canonical dimension variables and the
//! mapping from subscripted accesses to constraint systems.

use padfa_ir::{affine, Expr, Procedure};
use padfa_omega::{Constraint, Derived, Disjunction, LinExpr, System, Var};

/// The canonical variable naming dimension `d` (0-based) of `array`
/// (`$<array>.<d>`).
///
/// All sections of a given array use the same dimension variables, so
/// regions from different program points intersect and subtract directly.
pub fn dim_var(array: Var, d: usize) -> Var {
    array.derived(Derived::Dim(d as u32))
}

/// The primed copy of a loop index used for cross-iteration tests
/// (`$<v>'`).
pub fn primed(v: Var) -> Var {
    v.derived(Derived::Primed)
}

/// Declared-bounds constraints for an array: `1 <= $a.d <= extent_d` for
/// every dimension whose extent is affine.
pub fn decl_bounds(proc: &Procedure, array: Var) -> Vec<Constraint> {
    let mut out = Vec::new();
    if let Some(dims) = proc.array_dims(array) {
        for (d, ext) in dims.iter().enumerate() {
            let dv = dim_var(array, d);
            out.push(Constraint::geq(LinExpr::var(dv), LinExpr::constant(1)));
            if let Some(le) = affine::to_linexpr(ext) {
                out.push(Constraint::leq(LinExpr::var(dv), le));
            }
        }
    }
    out
}

/// The whole-array region (all declared elements). Exact when every
/// extent is affine.
pub fn whole_array(proc: &Procedure, array: Var) -> Disjunction {
    let dims = proc.array_dims(array).map(|d| d.len()).unwrap_or(0);
    let mut sys = System::universe();
    for c in decl_bounds(proc, array) {
        sys.push(c);
    }
    let mut d = Disjunction::from_system(sys);
    // If some extent was non-affine we could not bound that dimension;
    // the region is still a sound over-approximation but not exact.
    if let Some(exts) = proc.array_dims(array) {
        if exts.iter().any(|e| affine::to_linexpr(e).is_none()) {
            d.set_inexact();
        }
    }
    let _ = dims;
    d
}

/// The section for a single access `array[subs...]`.
///
/// Returns `(region, exact)`: when every subscript is affine the region
/// is the exact single element `{ $a.d == sub_d }` (within declared
/// bounds); otherwise the affine subscripts constrain their dimensions
/// and the region is flagged inexact (a may-region covering the whole
/// extent of the non-affine dimensions).
pub fn access_section(proc: &Procedure, array: Var, subs: &[Expr]) -> Disjunction {
    let mut sys = System::universe();
    let mut exact = true;
    for (d, s) in subs.iter().enumerate() {
        let dv = dim_var(array, d);
        match affine::to_linexpr(s) {
            Some(le) => sys.push(Constraint::eq(LinExpr::var(dv), le)),
            None => exact = false,
        }
    }
    for c in decl_bounds(proc, array) {
        sys.push(c);
    }
    let mut out = Disjunction::from_system(sys);
    if !exact {
        out.set_inexact();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_ir::parse::parse_program;
    use padfa_omega::Limits;

    fn proc_with(src: &str) -> padfa_ir::Program {
        parse_program(src).unwrap()
    }

    #[test]
    fn dim_vars_are_stable() {
        let a = Var::new("a");
        assert_eq!(dim_var(a, 0), dim_var(a, 0));
        assert_ne!(dim_var(a, 0), dim_var(a, 1));
        assert_ne!(dim_var(a, 0), dim_var(Var::new("b"), 0));
    }

    #[test]
    fn whole_array_bounds() {
        let p = proc_with("proc m() { array a[10, 20]; }");
        let proc = &p.procedures[0];
        let w = whole_array(proc, Var::new("a"));
        assert!(w.is_exact());
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
        assert!(at(10, 20));
        assert!(!at(0, 1));
        assert!(!at(11, 1));
        assert!(!at(1, 21));
    }

    #[test]
    fn affine_access_is_single_element() {
        let p = proc_with("proc m(n: int) { array a[100]; for i = 1 to n { a[i + 1] = 0.0; } }");
        let proc = &p.procedures[0];
        let sect = access_section(
            proc,
            Var::new("a"),
            &[Expr::Add(
                Box::new(Expr::scalar("i")),
                Box::new(Expr::int(1)),
            )],
        );
        assert!(sect.is_exact());
        let d0 = dim_var(Var::new("a"), 0);
        let iv = Var::new("i");
        // With i = 4: only element 5 is in the section.
        let at = |x: i64| {
            sect.contains(&|v| {
                if v == d0 {
                    Some(x)
                } else if v == iv {
                    Some(4)
                } else {
                    None
                }
            })
            .unwrap()
        };
        assert!(at(5));
        assert!(!at(4));
        assert!(!at(6));
    }

    #[test]
    fn non_affine_access_is_inexact_whole_extent() {
        let p = proc_with(
            "proc m(n: int) { array a[100]; array idx[100] of int;
             for i = 1 to n { a[idx[i]] = 0.0; } }",
        );
        let proc = &p.procedures[0];
        let sect = access_section(
            proc,
            Var::new("a"),
            &[Expr::elem("idx", vec![Expr::scalar("i")])],
        );
        assert!(!sect.is_exact());
        // Region must still be bounded by the declaration.
        let d0 = dim_var(Var::new("a"), 0);
        let at = |x: i64| {
            sect.contains(&|v| if v == d0 { Some(x) } else { None })
                .unwrap()
        };
        assert!(at(1));
        assert!(at(100));
        assert!(!at(101));
    }

    #[test]
    fn sections_of_same_array_interact() {
        // Write a[i], read a[i-1]: sections must overlap after shifting.
        let p = proc_with("proc m(n: int) { array a[100]; for i = 2 to n { a[i] = a[i - 1]; } }");
        let proc = &p.procedures[0];
        let w = access_section(proc, Var::new("a"), &[Expr::scalar("i")]);
        let r = access_section(
            proc,
            Var::new("a"),
            &[Expr::Sub(
                Box::new(Expr::scalar("i")),
                Box::new(Expr::int(1)),
            )],
        );
        // Rename i -> i' in the read and intersect: nonempty (dependence).
        let rp = r.rename(Var::new("i"), primed(Var::new("i")));
        let inter = w.intersect(&rp, Limits::default());
        assert!(!inter.is_empty(Limits::default()));
    }
}
