//! Watchdog-budget behavior: sound degradation, strict errors, and
//! loop marking.

use padfa_core::interproc::degraded_summary;
use padfa_core::{
    analyze_program, analyze_program_with_summaries, AnalysisError, AnalysisSession,
    NotCandidateReason, Options, Outcome, WorkBudget,
};
use padfa_ir::parse::parse_program;

/// A two-procedure fixture: the callee has guarded writes and an
/// affine read pattern, the caller parallelizes a loop of calls when
/// the callee summary is exact.
const INTERPROC_SRC: &str = "
proc init(a: array[100], lo: int, hi: int) {
    for i = lo to hi {
        if (lo > 1) { a[i] = 0.0; }
        a[i] = a[i] + 1.0;
    }
}
proc main(n: int, x: int) {
    array a[100];
    array b[100];
    for@outer j = 1 to n {
        b[j] = 2.0;
    }
    call init(a, 1, n);
}
";

/// The degraded summary must over-approximate any exact summary: every
/// exact may component (MW, R, E) is contained in the degraded one,
/// and the degraded must-write component is empty (the only sound
/// under-approximation without doing the work).
#[test]
fn degraded_summary_is_superset_of_exact() {
    let prog = parse_program(INTERPROC_SRC).unwrap();
    let opts = Options::predicated();
    let (_, summaries) = analyze_program_with_summaries(&prog, &opts).unwrap();
    let sess = AnalysisSession::new(opts);
    sess.pre_intern(&prog);

    let init = prog
        .procedures
        .iter()
        .find(|p| p.name.as_str() == "init")
        .unwrap();
    let exact = &summaries["init"];
    let degraded = degraded_summary(init);

    assert!(degraded.degraded, "degraded summary carries its tag");
    assert!(degraded.has_io, "degraded summary disqualifies callers");
    for (var, exact_arr) in &exact.arrays {
        let deg_arr = degraded
            .arrays
            .get(var)
            .unwrap_or_else(|| panic!("degraded summary drops array {var}"));
        // Every degraded may component covers the whole declared
        // extent. Compare point sets against the exact whole-array
        // region (the degraded one is flagged inexact, which makes
        // `subset_of` conservatively refuse the direct comparison).
        let whole = padfa_core::region::whole_array(init, *var);
        for (name, ex, deg) in [
            ("mw", &exact_arr.mw, &deg_arr.mw),
            ("r", &exact_arr.r, &deg_arr.r),
            ("e", &exact_arr.e, &deg_arr.e),
        ] {
            assert!(
                sess.subset_of(&ex.may_region(&sess), &whole),
                "exact {name} of {var} must be contained in the degraded {name}"
            );
            assert!(
                !deg.is_empty(),
                "degraded {name} of {var} must not be empty"
            );
        }
        // Must-direction component only shrinks (to nothing).
        assert!(
            deg_arr.w.is_empty(),
            "degraded summary must not claim must-writes"
        );
    }
}

/// A starved budget degrades instead of failing: the analysis still
/// returns `Ok`, loops of the exhausted procedure are reported
/// sequential with the budget reason, and the report line says so.
#[test]
fn starved_budget_degrades_and_marks_loops() {
    let prog = parse_program(INTERPROC_SRC).unwrap();
    let opts = Options::predicated().with_budget(WorkBudget::steps(1));
    let result = analyze_program(&prog, &opts).unwrap();

    assert!(result.stats.degraded_procs >= 1);
    assert!(result.stats.budget_steps >= 1);
    assert!(!result.loops.is_empty());
    for report in &result.loops {
        assert!(matches!(report.outcome, Outcome::Sequential));
        assert!(matches!(
            report.not_candidate,
            Some(NotCandidateReason::BudgetExhausted)
        ));
        let line = format!("{report}");
        assert!(
            line.contains("not-parallel (budget)"),
            "budget reason missing from report line: {line}"
        );
    }
}

/// The same program under a generous budget parallelizes normally and
/// reports zero degraded procedures.
#[test]
fn generous_budget_is_exact() {
    let prog = parse_program(INTERPROC_SRC).unwrap();
    let opts = Options::predicated().with_budget(WorkBudget::steps(1_000_000));
    let result = analyze_program(&prog, &opts).unwrap();
    assert_eq!(result.stats.degraded_procs, 0);
    assert!(result
        .by_label("outer")
        .unwrap()
        .outcome
        .is_parallelizable());
}

/// `--strict` budgets turn exhaustion into a typed error naming the
/// procedure.
#[test]
fn strict_budget_is_a_typed_error() {
    let prog = parse_program(INTERPROC_SRC).unwrap();
    let opts = Options::predicated().with_budget(WorkBudget::steps(1).strict());
    match analyze_program(&prog, &opts) {
        Err(AnalysisError::BudgetExhausted { proc, steps }) => {
            assert!(
                prog.procedures.iter().any(|p| p.name.as_str() == proc),
                "error names an unknown procedure '{proc}'"
            );
            assert!(steps >= 1);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

/// Degradation is monotone: every loop parallelized under a starved
/// budget is also parallelized under the unlimited budget. (Losing
/// parallelism is allowed; inventing it is not.)
#[test]
fn starved_parallel_set_is_subset_of_exact() {
    let prog = parse_program(INTERPROC_SRC).unwrap();
    let exact = analyze_program(&prog, &Options::predicated()).unwrap();
    for steps in [1, 5, 20, 100] {
        let opts = Options::predicated().with_budget(WorkBudget::steps(steps));
        let starved = analyze_program(&prog, &opts).unwrap();
        for (ex, st) in exact.loops.iter().zip(starved.loops.iter()) {
            assert_eq!(ex.id, st.id);
            if st.parallelized() {
                assert!(
                    ex.parallelized(),
                    "budget {steps}: loop {:?} parallel under starvation but not exactly",
                    st.id
                );
            }
        }
    }
}

/// One uncalled procedure: its loops are analyzed and reported in 74
/// steps, and summarizing it as well takes 171.
const TOP_LEVEL_FOLD_SRC: &str = "
proc main(n: int, m: int, x: int) {
    array a[100];
    array b[100];
    array c[100, 100];
    for i = 1 to n { a[i] = b[i] + 1.0; }
    if (x > 5) {
        for i = 1 to m { b[i] = a[i] * 2.0; }
    }
    for i = 2 to n { a[i] = a[i - 1] + b[i]; }
    for i = 1 to n {
        for j = 1 to m { c[i, j] = a[j] + b[i]; }
    }
    for i = 1 to m { b[i] = c[i, 1] + a[i + 1]; }
    if (x > 7) {
        for i = 1 to n { a[i] = b[n - i + 1]; }
    }
    for i = 1 to n { c[1, i] = a[i] + b[i]; }
}
";

/// A summary nothing reads is not charged: a budget that covers the
/// loops but not the summary completes with the unlimited reports.
/// Asking for the summary as well runs the same budget out.
#[test]
fn unread_top_level_fold_is_not_charged() {
    let prog = parse_program(TOP_LEVEL_FOLD_SRC).unwrap();
    let exact = analyze_program(&prog, &Options::predicated()).unwrap();
    assert_eq!(exact.num_parallelized(), 7);
    let opts = Options::predicated().with_budget(WorkBudget::steps(120));
    let budgeted = analyze_program(&prog, &opts).unwrap();
    assert_eq!(budgeted.stats.degraded_procs, 0);
    assert_eq!(budgeted.stats.budget_steps, 74);
    assert_eq!(budgeted.loops, exact.loops);

    let (read, summaries) = analyze_program_with_summaries(&prog, &opts).unwrap();
    assert_eq!(read.stats.degraded_procs, 1);
    assert!(summaries["main"].degraded);
    assert!(read.loops.iter().all(|r| !r.parallelized()));
}
