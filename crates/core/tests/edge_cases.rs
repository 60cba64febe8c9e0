//! Edge-case tests for the analysis: strided loops, symbolic and
//! non-affine bounds, deep call chains, recursion, and conservative
//! fallbacks.

use padfa_core::{analyze_program, Options, Outcome};
use padfa_ir::parse::parse_program;

fn outcome(src: &str, label: &str, opts: &Options) -> Outcome {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
    analyze_program(&prog, opts)
        .unwrap()
        .by_label(label)
        .unwrap_or_else(|| panic!("no loop {label}"))
        .outcome
        .clone()
}

#[test]
fn strided_loop_independent() {
    // Writes a[i] for i = 1, 4, 7, ...: distinct elements.
    let src = "proc m(n: int) { array a[100];
        for@s i = 1 to n step 3 { a[i] = a[i] + 1.0; } }";
    assert!(matches!(
        outcome(src, "s", &Options::predicated()),
        Outcome::Parallel
    ));
}

#[test]
fn strided_write_read_offset_within_stride() {
    // Write a[i], read a[i+1] with step 3: iteration i writes i, another
    // iteration reads i' + 1 ∈ {i'+1}; i = i'+1 requires i ≡ 1 and
    // i' ≡ 0 (mod 3) from the same lattice — impossible, so independent.
    let src = "proc m(n: int) { array a[103];
        for@s i = 1 to n step 3 { a[i] = a[i + 1] * 0.5; } }";
    assert!(
        outcome(src, "s", &Options::predicated()).is_parallelizable(),
        "stride lattice must separate a[i] from a[i+1]"
    );
}

#[test]
fn strided_conflict_detected() {
    // Write a[i], read a[i+3] with step 3: these do collide.
    let src = "proc m(n: int) { array a[103];
        for@s i = 1 to n step 3 { a[i] = a[i + 3] * 0.5; } }";
    assert!(matches!(
        outcome(src, "s", &Options::predicated()),
        Outcome::Sequential
    ));
}

#[test]
fn symbolic_bounds_from_outer_loop() {
    // Triangular nest: inner bound is the outer index.
    let src = "proc m(n: int) { array a[64, 64];
        for@outer i = 1 to n {
            for@inner j = 1 to i { a[i, j] = i + j; }
        } }";
    assert!(outcome(src, "outer", &Options::predicated()).is_parallelizable());
    assert!(outcome(src, "inner", &Options::predicated()).is_parallelizable());
}

#[test]
fn non_affine_bound_conservative_but_usable() {
    // Upper bound reads an array element: the iteration space is
    // unknown, so must-writes vanish, but a self-update loop is still
    // independent.
    let src = "proc m(k: array[4] of int) { array a[100];
        var e: int;
        e = k[1];
        for@u i = 1 to e { a[i] = a[i] + 1.0; } }";
    assert!(outcome(src, "u", &Options::predicated()).is_parallelizable());
    // With a recurrence it must stay sequential.
    let src2 = "proc m(k: array[4] of int) { array a[100];
        var e: int;
        e = k[1];
        for@u i = 2 to e { a[i] = a[i - 1]; } }";
    assert!(matches!(
        outcome(src2, "u", &Options::predicated()),
        Outcome::Sequential
    ));
}

#[test]
fn three_deep_call_chain() {
    let src = "proc leaf(c: array[32], n: int) {
        for@lf j = 1 to n { c[j] = c[j] + 1.0; }
    }
    proc mid(b: array[32], n: int) { call leaf(b, n); }
    proc m(n: int) { array a[32];
        for@top i = 1 to n { a[i] = i * 1.0; }
        call mid(a, n);
    }";
    let prog = parse_program(src).unwrap();
    let r = analyze_program(&prog, &Options::predicated()).unwrap();
    assert!(r.by_label("lf").unwrap().outcome.is_parallelizable());
    assert!(r.by_label("top").unwrap().outcome.is_parallelizable());
}

#[test]
fn recursion_is_conservative() {
    let src = "proc rec(a: array[16], n: int) {
        for@inner j = 1 to n { a[j] = a[j] + 1.0; }
        call rec(a, n);
    }
    proc m(n: int) { array b[16];
        for@outer i = 1 to n { call rec(b, n); }
    }";
    let prog = parse_program(src).unwrap();
    let r = analyze_program(&prog, &Options::predicated()).unwrap();
    // The caller loop must not be parallelized (conservative summary
    // marks recursive callees as I/O).
    let outer = r.by_label("outer").unwrap();
    assert!(!outer.parallelized());
}

#[test]
fn guard_on_array_element_not_testable() {
    // The guard reads an array element: it cannot float out as a cheap
    // scalar run-time test, and the loop carries a potential dependence.
    let src = "proc m(n: int, f: array[100]) { array h[101]; array a[100];
        for@g i = 1 to n {
            if (f[i] > 0.5) { h[i] = a[i]; }
            a[i] = h[i + 1];
        } }";
    match outcome(src, "g", &Options::predicated()) {
        Outcome::Sequential => {}
        Outcome::ParallelIf(t) => {
            panic!("array-dependent guard must not become a test: {t}")
        }
        Outcome::Parallel => panic!("loop carries a potential dependence"),
    }
}

#[test]
fn loop_invariant_guard_from_outer_scope_is_testable() {
    // The guard reads the *outer* loop index: loop-invariant for the
    // inner loop, so the inner loop gets a run-time test even though the
    // outer cannot.
    let src = "proc m(n: int) { array h[101]; array a[64, 64];
        for@outer i = 1 to n {
            for@inner j = 1 to n {
                if (i > 5) { h[j] = a[i, j]; }
                a[i, j] = h[j + 1];
            }
        } }";
    match outcome(src, "inner", &Options::predicated()) {
        Outcome::ParallelIf(t) => {
            let vars = t.scalar_vars();
            assert!(
                vars.contains(&padfa_omega::Var::new("i")),
                "test should mention the outer index: {t}"
            );
        }
        other => panic!("expected run-time test on the inner loop, got {other}"),
    }
}

#[test]
fn empty_body_loop() {
    let src = "proc m(n: int) { for@e i = 1 to n { } }";
    assert!(matches!(
        outcome(src, "e", &Options::predicated()),
        Outcome::Parallel
    ));
}

#[test]
fn write_only_array_parallel_via_privatization_or_masking() {
    // All iterations write a[1]: an output dependence the ordered merge
    // handles via privatization.
    let src = "proc m(n: int) { array a[4];
        for@w i = 1 to n { a[1] = i * 1.0; } }";
    let prog = parse_program(src).unwrap();
    let r = analyze_program(&prog, &Options::predicated()).unwrap();
    let report = r.by_label("w").unwrap();
    assert!(report.outcome.is_parallelizable(), "{}", report.outcome);
    assert!(
        report
            .privatized
            .iter()
            .any(|p| p.array == padfa_omega::Var::new("a")),
        "write-only conflicts resolve by privatization"
    );
}

#[test]
fn if_else_complete_write_is_must() {
    // Both branches write a[i]: the element is definitely written, so a
    // later read in the same iteration is covered even in base analysis.
    let src = "proc m(n: int, x: int) { array a[100]; array b[100];
        for@c i = 1 to n {
            if (x > 0) { a[i] = 1.0; } else { a[i] = 2.0; }
            b[i] = a[i];
        } }";
    assert!(matches!(
        outcome(src, "c", &Options::base()),
        Outcome::Parallel
    ));
}

#[test]
fn max_pieces_one_still_sound() {
    // K = 1 must never produce unsound results, only weaker ones.
    let src = "proc m(n: int, x: int) { array h[11]; array a[10];
        for@mg i = 1 to n {
            if (x > 5) { h[i] = a[i]; }
            if (x <= 5) { h[i + 1] = a[i] * 2.0; }
            if (x > 5) { a[i] = h[i]; }
            if (x <= 5) { a[i] = h[i + 1]; }
        } }";
    let mut k1 = Options::predicated();
    k1.max_pieces = 1;
    assert!(matches!(outcome(src, "mg", &k1), Outcome::Sequential));
    assert!(matches!(
        outcome(src, "mg", &Options::predicated()),
        Outcome::Parallel
    ));
}

#[test]
fn variant_monotonicity_across_many_shapes() {
    // For a bag of loop shapes: base ⊆ guarded ⊆ predicated in terms of
    // parallelization (no variant may do worse than a weaker one).
    let shapes = [
        "for@l i = 1 to n { a[i] = a[i] + 1.0; }",
        "for@l i = 2 to n { a[i] = a[i - 1]; }",
        "for@l i = 1 to n { if (x > 0) { a[i] = 1.0; } }",
        "for@l i = 1 to n { if (x > 0) { a[i] = 1.0; } b[i] = a[i]; }",
        "for@l i = 1 to n { s = s + a[i]; }",
        "for@l i = 1 to n { a[i] = b[n + 1 - i]; }",
        "for@l i = 1 to n step 2 { a[i] = a[i + 1]; }",
    ];
    for shape in shapes {
        let src = format!(
            "proc m(n: int, x: int) {{ array a[101]; array b[101]; var s: real; {shape} }}"
        );
        let base = outcome(&src, "l", &Options::base()).is_parallelizable();
        let guarded = outcome(&src, "l", &Options::guarded()).is_parallelizable();
        let pred = outcome(&src, "l", &Options::predicated()).is_parallelizable();
        assert!(!base || guarded, "guarded regressed on {shape}");
        assert!(!guarded || pred, "predicated regressed on {shape}");
    }
}

#[test]
fn downward_loop_independent() {
    let src = "proc m(n: int) { array a[100];
        for@d i = n to 1 step -1 { a[i] = a[i] + 1.0; } }";
    assert!(matches!(
        outcome(src, "d", &Options::predicated()),
        Outcome::Parallel
    ));
}

#[test]
fn downward_recurrence_sequential() {
    // Reads the element the *next executed* iteration writes.
    let src = "proc m(n: int) { array a[101];
        for@d i = n to 2 step -1 { a[i] = a[i - 1] * 0.5; } }";
    assert!(matches!(
        outcome(src, "d", &Options::predicated()),
        Outcome::Sequential
    ));
}

#[test]
fn downward_loop_must_write_region() {
    // The downward write loop covers [1..n]; the following read is not
    // exposed at the outer level, so the outer loop privatizes.
    let src = "proc m(c: int, n: int) { array t[64]; array a[64, 64];
        for@outer i = 1 to c {
            for j = n to 1 step -1 { t[j] = i + j; }
            for j = 1 to n { a[i, j] = t[j]; }
        } }";
    let prog = padfa_ir::parse::parse_program(src).unwrap();
    let r = analyze_program(&prog, &Options::predicated()).unwrap();
    let outer = r.by_label("outer").unwrap();
    assert!(outer.outcome.is_parallelizable(), "{}", outer.outcome);
}

/// Constants at the edge of `i64` at the IR→omega bridge: each program
/// once overflowed forming its linear expressions (a debug build's
/// overflow check turned it into an internal error). Each is analyzed
/// under every variant and answers `Ok`: an expression whose arithmetic
/// leaves `i64` is not affine, and the loop around it is handled
/// conservatively.
#[test]
fn extreme_constants_at_the_affine_bridge_are_not_affine() {
    let programs = [
        // `LinExpr + LinExpr` of a subscript.
        "proc main(n: int) { array a[100];
            for i = 1 to n { a[i + 9223372036854775807 + 2 - 9223372036854775807] = 1.0; } }",
        // The subscript's equation with its dimension variable.
        "proc main(n: int) { array a[100];
            for i = 1 to n { a[-9223372036854775807 - 1 - i] = 1.0; } }",
        // A guard's atom.
        "proc main(n: int, x: int) { array a[100];
            for i = 1 to n { if (x > -9223372036854775807 - 1) { a[i] = 1.0; } } }",
        // A loop's lower bound.
        "proc main(n: int) { array a[100];
            for i = -9223372036854775807 - 1 to n { a[1] = 1.0; } }",
    ];
    for src in programs {
        let prog = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        for opts in [Options::base(), Options::guarded(), Options::predicated()] {
            let result = analyze_program(&prog, &opts);
            assert!(result.is_ok(), "{src}: {:?}", result.err());
        }
    }
}
