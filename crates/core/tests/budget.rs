//! Watchdog-budget behavior: sound degradation, strict errors, and
//! loop marking.

use padfa_core::interproc::degraded_summary;
use padfa_core::{
    analyze_program, analyze_program_session, analyze_program_with_summaries, AnalysisError,
    AnalysisSession, LoopReport, NotCandidateReason, Options, Outcome, WorkBudget,
};
use padfa_ir::parse::parse_program;

/// The budget contract: every budgeted report is the unlimited report
/// or sequential for the budget. Returns how many loops kept their
/// unlimited report.
fn kept(exact: &[LoopReport], budgeted: &[LoopReport]) -> usize {
    assert_eq!(exact.len(), budgeted.len(), "the budget changed the census");
    exact
        .iter()
        .zip(budgeted)
        .filter(|&(e, b)| {
            let same = e == b;
            assert!(
                same || (b.outcome == Outcome::Sequential
                    && b.not_candidate == Some(NotCandidateReason::BudgetExhausted)),
                "{b} is neither the unlimited report ({e}) nor the budget's"
            );
            same
        })
        .count()
}

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
/// returns `Ok`, and a loop reported after its procedure's trip is
/// sequential with the budget reason, and the report line says so. At
/// one step every procedure trips at its first query, before any loop
/// is finished; at 20, `main` finishes its loop first.
#[test]
fn starved_budget_degrades_and_marks_loops() {
    let prog = parse_program(INTERPROC_SRC).unwrap();
    let exact = analyze_program(&prog, &Options::predicated()).unwrap();
    for (steps, degraded, survivors) in [(1, 2, 0), (20, 1, 1)] {
        let opts = Options::predicated().with_budget(WorkBudget::steps(steps));
        let result = analyze_program(&prog, &opts).unwrap();
        assert_eq!(result.stats.degraded_procs, degraded, "{steps} steps");
        assert_eq!(
            kept(&exact.loops, &result.loops),
            survivors,
            "{steps} steps"
        );
        for report in result.loops.iter().filter(|r| r.not_candidate.is_some()) {
            let line = format!("{report}");
            assert!(
                line.contains("not-parallel (budget)"),
                "budget reason missing from report line: {line}"
            );
        }
    }
}

/// A loop around a call of a degraded procedure is sequential for the
/// budget, not for I/O: nothing in the program reads input. `work` runs
/// out between 20 and 60 steps; `main` does not.
const DEGRADED_CALLEE_SRC: &str = "
proc work(a: array[100], n: int) {
    for i = 1 to n { a[i] = a[i] + 1.0; }
    for i = 2 to n { a[i] = a[i - 1] * 2.0; }
    for i = 1 to n { a[i] = a[n - i + 1]; }
}
proc main(n: int) {
    array a[100];
    array b[100];
    for@outer j = 1 to n {
        call work(a, n);
        b[j] = 1.0;
    }
}
";

/// The same, with the call one loop further in: `nest` is sequential
/// for the budget too. `main` needs 50 steps here.
const DEGRADED_CALLEE_NESTED_SRC: &str = "
proc work(a: array[100], n: int) {
    for i = 1 to n { a[i] = a[i] + 1.0; }
    for i = 2 to n { a[i] = a[i - 1] * 2.0; }
    for i = 1 to n { a[i] = a[n - i + 1]; }
}
proc main(n: int) {
    array a[100];
    array b[100];
    for@outer j = 1 to n {
        call work(a, n);
        b[j] = 1.0;
    }
    for@nest j = 1 to n {
        for k = 1 to n { call work(a, n); }
        b[j] = 2.0;
    }
}
";

#[test]
fn loop_around_a_degraded_callee_is_reported_for_the_budget() {
    let rows: [(&str, &[u64], &[&str]); 2] = [
        (DEGRADED_CALLEE_SRC, &[20, 40, 60], &["outer"]),
        (DEGRADED_CALLEE_NESTED_SRC, &[50, 60], &["outer", "nest"]),
    ];
    for (src, ladder, labels) in rows {
        let prog = parse_program(src).unwrap();
        let exact = analyze_program(&prog, &Options::predicated()).unwrap();
        for &steps in ladder {
            let opts = Options::predicated().with_budget(WorkBudget::steps(steps));
            let result = analyze_program(&prog, &opts).unwrap();
            assert_eq!(result.stats.degraded_procs, 1, "{steps} steps");
            for label in labels {
                let r = result.by_label(label).unwrap();
                assert_eq!(
                    r.not_candidate,
                    Some(NotCandidateReason::BudgetExhausted),
                    "{steps} steps: {r}"
                );
            }
            // `work`'s first loop is finished before it runs out.
            assert!(kept(&exact.loops, &result.loops) >= 1, "{steps} steps");
        }
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

/// One uncalled procedure: its loops are analyzed and reported in 70
/// steps (72 when the session builds evidence), and summarizing it as
/// well takes 154.
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
    assert_eq!(budgeted.stats.budget_steps, 70);
    assert_eq!(budgeted.loops, exact.loops);

    let (read, summaries) = analyze_program_with_summaries(&prog, &opts).unwrap();
    assert_eq!(read.stats.degraded_procs, 1);
    assert!(summaries["main"].degraded);
    assert_eq!(kept(&exact.loops, &read.loops), KEPT_READ);
}

/// Loops of [`TOP_LEVEL_FOLD_SRC`] finished before the summarizing
/// session's 120 steps run out.
const KEPT_READ: usize = 6;

/// One uncalled procedure whose verdicts need less work than their
/// evidence: every loop reads an array at a symbolic index (an unread
/// loop's `E − W_prev` extracts its bounds only for the evidence), and
/// the last two are sequential at their first hard dependence.
const EVIDENCE_SRC: &str = "
proc main(n: int, m: int, k: int) {
    var s: real;
    array a[100]; array b[100]; array c[100]; array d[100];
    for i = 1 to n { b[i] = a[m] + a[k]; }
    for i = 1 to n { c[i] = a[m] * d[k]; }
    for i = 1 to n { d[i] = b[k] + c[m]; }
    for i = 2 to n { a[i] = a[i - 1] + d[m]; b[i] = c[i] * 2.0; }
    for i = 1 to n { c[i] = s; s = c[i] * 2.0; d[i] = b[m]; }
}
";

/// Evidence nothing reads is not built, and so not charged: at a budget
/// that covers the verdicts but not their evidence, a verdict-only
/// session completes with its unlimited reports, and a session that
/// asks for provenance runs the same budget out.
#[test]
fn unread_evidence_is_not_charged() {
    let prog = parse_program(EVIDENCE_SRC).unwrap();
    let exact = analyze_program(&prog, &Options::predicated()).unwrap();
    assert_eq!(exact.num_parallelized(), 3);
    let generous = Options::predicated().with_budget(WorkBudget::steps(1_000_000));
    let sess = AnalysisSession::new(generous).with_provenance();
    let (asked, _) = analyze_program_session(&prog, &sess).unwrap();
    assert_eq!(asked.stats.budget_steps, 57, "with evidence");

    let opts = Options::predicated().with_budget(WorkBudget::steps(50));
    let plain = analyze_program(&prog, &opts).unwrap();
    assert_eq!(plain.stats.degraded_procs, 0);
    assert_eq!(plain.stats.budget_steps, 47);
    assert_eq!(plain.loops, exact.loops);

    let sess = AnalysisSession::new(opts).with_provenance();
    let (asked, _) = analyze_program_session(&prog, &sess).unwrap();
    assert_eq!(asked.stats.degraded_procs, 1);
    let sess = AnalysisSession::new(Options::predicated()).with_provenance();
    let (exact, _) = analyze_program_session(&prog, &sess).unwrap();
    assert_eq!(kept(&exact.loops, &asked.loops), KEPT_EVIDENCE);
    for r in asked.loops.iter().filter(|r| r.not_candidate.is_some()) {
        assert_eq!(r.provenance.as_ref().unwrap().budget.unwrap().steps, 51);
    }
}

/// Loops of [`EVIDENCE_SRC`] finished, evidence and all, before the
/// evidence-building session's 50 steps run out.
const KEPT_EVIDENCE: usize = 4;

/// One light loop, then heavy ones: a budget that runs out in the first
/// loop leaves the rest of the procedure nothing to compute.
const AFTER_TRIP_HEAD: &str = "
proc main(n: int, m: int, x: int) {
    array a[100];
    array b[100];
    array c[100, 100];
    for i = 1 to n { a[i] = b[i] + 1.0; }
";
const AFTER_TRIP_TAIL: &str = "
    for i = 2 to n { a[i] = a[i - 1] + b[i]; }
    for i = 1 to n {
        for j = 1 to m { c[i, j] = a[j] + b[i]; }
    }
    if (x > 5) {
        for i = 1 to m { b[i] = c[i, 1] + a[i + 1]; }
    }
    for i = 1 to n { c[1, i] = a[i] + b[n - i + 1]; }
    for i = 1 to n { a[i] = b[i]; b[i] = a[i] * 2.0; }
";

/// Nothing is computed after the trip: a program that runs its budget
/// out in its first loop asks no query, runs no projection and interns
/// no region more than the same first loop alone, however much work
/// follows it.
#[test]
fn nothing_is_computed_after_the_trip() {
    let program = |tail: &str| parse_program(&format!("{AFTER_TRIP_HEAD}{tail}}}")).unwrap();
    let (head, whole) = (program(""), program(AFTER_TRIP_TAIL));
    let unlimited = analyze_program(&whole, &Options::predicated()).unwrap();
    let generous = Options::predicated().with_budget(WorkBudget::steps(1_000_000));
    let first = analyze_program(&head, &generous)
        .unwrap()
        .stats
        .budget_steps;
    let needed = analyze_program(&whole, &generous)
        .unwrap()
        .stats
        .budget_steps;
    assert!(
        needed > 10 * first,
        "{needed} steps after a first loop of {first}"
    );

    let max = first - 1;
    let opts = Options::predicated().with_budget(WorkBudget::steps(max));
    let (at_trip, after) = (
        analyze_program(&head, &opts).unwrap().stats,
        analyze_program(&whole, &opts).unwrap(),
    );
    let st = &after.stats;
    assert_eq!(st.budget_steps, max + 1);
    // Every step but the tripping one was a query or a pair-order
    // answered from the closure, refuted or not.
    let queries = |s: &padfa_core::StatsSnapshot| {
        [
            s.sys_empty,
            s.subset,
            s.subtract,
            s.intersect,
            s.union,
            s.project,
            s.implies,
        ]
        .iter()
        .map(|q| q.total())
        .sum::<u64>()
    };
    assert_eq!(queries(st) + st.orders_refuted + st.orders_closed, max);
    assert_eq!(queries(st), queries(&at_trip));
    assert_eq!(st.fm_projections, at_trip.fm_projections);
    assert_eq!(st.interned_regions, at_trip.interned_regions);
    assert_eq!(st.orders_total, at_trip.orders_total);
    assert_eq!(kept(&unlimited.loops, &after.loops), 0);
}
