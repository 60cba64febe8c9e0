//! Pin the loop-level data-flow values themselves (not just outcomes):
//! the W/MW/R/E regions computed for canonical programs, via the
//! procedure summaries returned by `analyze_program_with_summaries`.

use padfa_core::region::dim_var;
use padfa_core::{analyze_program_with_summaries, AnalysisSession, Options, Summary};
use padfa_ir::parse::parse_program;
use padfa_omega::{Limits, Var};
use padfa_pred::Pred;

fn sess() -> AnalysisSession {
    AnalysisSession::new(Options::predicated())
}

fn summarize(src: &str) -> Summary {
    let prog = parse_program(src).unwrap();
    let (_, summaries) = analyze_program_with_summaries(&prog, &Options::predicated()).unwrap();
    summaries["main"].clone()
}

/// Membership of an element in a region given symbolic values.
/// Existential variables (stride lattice counters) are handled by
/// constraining the knowns and checking satisfiability.
fn contains(
    region: &padfa_omega::Disjunction,
    array: &str,
    elem: i64,
    sym: &[(&str, i64)],
) -> bool {
    use padfa_omega::{Constraint, LinExpr};
    let d0 = dim_var(Var::new(array), 0);
    let mut pinned = region.constrain(&Constraint::eq(LinExpr::var(d0), LinExpr::constant(elem)));
    for &(name, val) in sym {
        pinned = pinned.constrain(&Constraint::eq(
            LinExpr::var(Var::new(name)),
            LinExpr::constant(val),
        ));
    }
    !pinned.is_empty(Limits::default())
}

#[test]
fn write_loop_must_write_region_is_symbolic_interval() {
    let s = summarize(
        "proc main(n: int) { array a[100];
         for i = 1 to n { a[i] = 1.0; } }",
    );
    let w = s.arrays[&Var::new("a")].w.must_region(&Pred::True, &sess());
    // [1..n]: with n = 7, elements 1 and 7 in, 0 and 8 out.
    assert!(contains(&w, "a", 1, &[("n", 7)]));
    assert!(contains(&w, "a", 7, &[("n", 7)]));
    assert!(!contains(&w, "a", 8, &[("n", 7)]));
    assert!(!contains(&w, "a", 0, &[("n", 7)]));
    // Zero-trip: with n = 0 the region is empty.
    assert!(!contains(&w, "a", 1, &[("n", 0)]));
}

#[test]
fn exposed_reads_subtract_prior_writes() {
    // write [1..m]; read [1..n]: exposed = [m+1..n].
    let s = summarize(
        "proc main(n: int, m: int) { array a[100]; array out[100];
         for i = 1 to m { a[i] = 1.0; }
         for i = 1 to n { out[i] = a[i]; } }",
    );
    let e = s.arrays[&Var::new("a")].e.may_region(&sess());
    let env = [("n", 9), ("m", 5)];
    assert!(!contains(&e, "a", 3, &env), "covered by the write");
    assert!(contains(&e, "a", 6, &env), "beyond the write");
    assert!(contains(&e, "a", 9, &env));
    assert!(!contains(&e, "a", 10, &env), "beyond the read");
}

#[test]
fn guarded_write_appears_as_guarded_must_piece() {
    let s = summarize(
        "proc main(n: int, x: int) { array a[100];
         if (x > 5) {
             for i = 1 to n { a[i] = 1.0; }
         } }",
    );
    let w = &s.arrays[&Var::new("a")].w;
    // Unconditional must region is empty; under x > 5 the interval shows.
    assert!(w.must_region(&Pred::True, &sess()).is_empty_union());
    let guard = Pred::from_bool(&padfa_ir::parse::parse_bool_expr("x > 5").unwrap());
    let under = w.must_region(&guard, &sess());
    assert!(contains(&under, "a", 3, &[("n", 5)]));
}

#[test]
fn downward_loop_covers_same_interval() {
    let up = summarize(
        "proc main(n: int) { array a[100];
         for i = 1 to n { a[i] = 1.0; } }",
    );
    let down = summarize(
        "proc main(n: int) { array a[100];
         for i = n to 1 step -1 { a[i] = 1.0; } }",
    );
    for elem in [1i64, 4, 7] {
        let wu = up.arrays[&Var::new("a")]
            .w
            .must_region(&Pred::True, &sess());
        let wd = down.arrays[&Var::new("a")]
            .w
            .must_region(&Pred::True, &sess());
        assert_eq!(
            contains(&wu, "a", elem, &[("n", 7)]),
            contains(&wd, "a", elem, &[("n", 7)]),
            "element {elem}"
        );
    }
}

#[test]
fn strided_write_region_keeps_lattice() {
    let s = summarize(
        "proc main(n: int) { array a[100];
         for i = 1 to n step 2 { a[i] = 1.0; } }",
    );
    let w = s.arrays[&Var::new("a")].w.must_region(&Pred::True, &sess());
    // Odd elements written, even not.
    assert!(contains(&w, "a", 1, &[("n", 9)]));
    assert!(contains(&w, "a", 9, &[("n", 9)]));
    assert!(
        !contains(&w, "a", 4, &[("n", 9)]),
        "stride-2 lattice must exclude even elements"
    );
}

#[test]
fn call_effects_appear_in_caller_summary() {
    let s = summarize(
        "proc fill(b: array[50], m: int) {
             for j = 1 to m { b[j] = 0.0; }
         }
         proc main(n: int) { array a[50];
             call fill(a, n);
         }",
    );
    let w = s.arrays[&Var::new("a")].w.must_region(&Pred::True, &sess());
    assert!(contains(&w, "a", 1, &[("n", 10)]));
    assert!(contains(&w, "a", 10, &[("n", 10)]));
    assert!(!contains(&w, "a", 11, &[("n", 10)]));
}

#[test]
fn local_arrays_do_not_leak_into_proc_summary() {
    let prog = parse_program(
        "proc helper(n: int) { array tmp[8];
             for j = 1 to n { tmp[1] = tmp[1] + j; }
         }
         proc main(n: int) { call helper(n); }",
    )
    .unwrap();
    let (_, summaries) = analyze_program_with_summaries(&prog, &Options::predicated()).unwrap();
    assert!(
        summaries["main"].arrays.is_empty(),
        "callee-local arrays are invisible to the caller"
    );
}

#[test]
fn read_only_array_has_no_write_components() {
    let s = summarize(
        "proc main(n: int) { array a[64]; array b[64];
         for i = 1 to n { b[i] = a[i] * 2.0; } }",
    );
    let a = &s.arrays[&Var::new("a")];
    assert!(a.w.is_empty());
    assert!(a.mw.is_empty());
    assert!(!a.r.is_empty());
    assert!(!a.e.is_empty());
}

#[test]
fn provably_empty_reads_are_dropped_before_they_are_carried() {
    // Row 0 lies outside the declared bounds, so the sections read by
    // `a[0, k[1]]`, `c[0, k[1]]` and `m[0, k[1]]` are provably empty
    // (and, through the non-affine subscript, inexact). Normalization
    // drops them. In each of the three places a raw read summary is
    // composed with what follows — statement operands, an `if`
    // condition, a loop bound — what follows does not mention the
    // array, so `Summary::seq` carries the slot as it is: the drop must
    // have happened by then, or the block fold would merge the dead
    // section into the live `[1, 1]` read and flag it `(inexact)`.
    let s = summarize(
        "proc main(n: int) {
             array a[10, 10]; array c[10, 10]; array m[10, 10] of int;
             array k[10] of int; array b[10]; var x: real;
             x = a[1, 1] + c[1, 1] + m[1, 1];
             b[1] = 1.0;
             x = a[0, k[1]];
             b[2] = 2.0;
             if (c[0, k[1]] > 0.0) { b[3] = 3.0; }
             b[4] = 4.0;
             for i = m[0, k[1]] to n { b[i] = 5.0; }
             b[5] = 6.0;
         }",
    );
    let text = s.to_string();
    for x in ["a", "c", "m"] {
        let elem = format!(
            "[true -> {{${x}.0 - 1 = 0 && ${x}.1 - 1 = 0 && ${x}.0 - 1 >= 0 && \
             -${x}.0 + 10 >= 0 && ${x}.1 - 1 >= 0 && -${x}.1 + 10 >= 0}}]"
        );
        let line = format!("{x}: W=∅ MW=∅ R={elem} E={elem}\n");
        assert!(text.contains(&line), "missing {line:?} in:\n{text}");
    }
}
