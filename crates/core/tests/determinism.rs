//! A session belongs to one thread, and what it computes may not depend
//! on what other threads are doing, nor on what its own thread analysed
//! before: a program rendered alone must equal the same program rendered
//! while other threads run other sessions, or after other programs.
//! That fails if anything a result depends on is process-wide mutable
//! state — a global fresh-name counter, say — instead of the session's
//! own. These tests exercise hand-written programs (including recursive
//! call graphs); the full-corpus test lives in the suite crate.

use padfa_core::{analyze_program_session, par_map_jobs, AnalysisSession, Options};
use padfa_ir::parse::parse_program;

/// Render everything observable about one run: every loop report plus
/// every procedure summary, in a canonical order.
fn render(src: &str, opts: &Options) -> String {
    let prog = parse_program(src).unwrap();
    let sess = AnalysisSession::new(opts.clone());
    let (result, summaries) = analyze_program_session(&prog, &sess).unwrap();
    let mut out = String::new();
    for report in &result.loops {
        out.push_str(&format!("{report}\n"));
    }
    let mut names: Vec<&String> = summaries.keys().collect();
    names.sort();
    for name in names {
        out.push_str(&format!("== {name} ==\n{}", summaries[name]));
    }
    out
}

const WIDE_PROGRAM: &str = "
    proc leaf1(b: array[64], m: int) { for j = 1 to m { b[j] = 0.0; } }
    proc leaf2(b: array[64], m: int) { for j = 1 to m { b[j] = b[j] + 1.0; } }
    proc leaf3(b: array[64], m: int) {
        for j = 1 to m { if (m > 10) { b[j] = 2.0; } }
    }
    proc leaf4(b: array[64], m: int) { for j = 2 to m { b[j] = b[j - 1]; } }
    proc mid1(b: array[64], m: int) { call leaf1(b, m); call leaf2(b, m); }
    proc mid2(b: array[64], m: int) { call leaf3(b, m); call leaf4(b, m); }
    proc main(n: int, x: int) {
        array a[64];
        for i = 1 to n { call mid1(a, i); }
        for i = 1 to n { if (x > 0) { call mid2(a, i); } }
    }";

const RECURSIVE_PROGRAM: &str = "
    proc ping(b: array[32], k: int) { b[k] = 1.0; call pong(b, k); }
    proc pong(b: array[32], k: int) { if (k > 1) { call ping(b, k); } else { b[1] = 0.0; } }
    proc selfy(b: array[32], k: int) { b[k] = 2.0; call selfy(b, k); }
    proc main(n: int) {
        array a[32];
        for i = 1 to n { call ping(a, i); }
        for i = 1 to n { call selfy(a, i); }
        for i = 1 to n { a[i] = a[i] + 1.0; }
    }";

/// Every (program, variant) pair of the two fixtures, three times over,
/// so four threads stay busy with each other's work.
fn workload() -> Vec<(&'static str, Options)> {
    let mut items = Vec::new();
    for _ in 0..3 {
        for src in [WIDE_PROGRAM, RECURSIVE_PROGRAM] {
            for opts in [Options::base(), Options::guarded(), Options::predicated()] {
                items.push((src, opts));
            }
        }
    }
    items
}

#[test]
fn wide_call_graph_is_deterministic_across_worker_counts() {
    let items = workload();
    let alone: Vec<String> = items.iter().map(|(src, o)| render(src, o)).collect();
    let crowded = par_map_jobs(4, &items, |_, (src, o)| render(src, o));
    for (i, (a, c)) in alone.iter().zip(&crowded).enumerate() {
        assert_eq!(
            a, c,
            "item {i} ({:?}) diverged on 4 threads",
            items[i].1.variant
        );
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let items = vec![(WIDE_PROGRAM, Options::predicated()); 8];
    let runs = par_map_jobs(4, &items, |_, (src, o)| render(src, o));
    assert!(runs.iter().all(|r| *r == runs[0]));
}

#[test]
fn recursive_call_graphs_are_stable_under_parallel_driver() {
    // Recursive procedures get conservative summaries; that choice (and
    // everything downstream of it) must not depend on what else runs.
    let opts = Options::predicated();
    let baseline = render(RECURSIVE_PROGRAM, &opts);
    let items = vec![(RECURSIVE_PROGRAM, opts.clone()); 4];
    for crowded in par_map_jobs(4, &items, |_, (src, o)| render(src, o)) {
        assert_eq!(baseline, crowded);
    }
    // The conservative summaries disqualify the enclosing loops (has_io),
    // while the pure loop stays parallel.
    let prog = parse_program(RECURSIVE_PROGRAM).unwrap();
    let sess = AnalysisSession::new(opts);
    let (result, _) = analyze_program_session(&prog, &sess).unwrap();
    let main_loops: Vec<_> = result.loops.iter().filter(|l| l.proc == "main").collect();
    assert_eq!(main_loops.len(), 3);
    assert!(main_loops[0].not_candidate.is_some());
    assert!(main_loops[1].not_candidate.is_some());
    assert!(main_loops[2].parallelized());
}

#[test]
fn limit_overflows_count_only_the_sessions_own_cap_hits() {
    use std::sync::Barrier;
    let mut capped = Options::predicated();
    capped.limits = padfa_omega::Limits {
        max_constraints: 4,
        max_disjuncts: 1,
    };
    let free = Options::predicated();
    // Session made, both threads meet, program analyzed, both threads
    // meet again, counters read: when two of these run side by side,
    // each session's lifetime covers the whole of the other's analysis.
    let overflows = |opts: &Options, meet: &Barrier| {
        let prog = parse_program(WIDE_PROGRAM).unwrap();
        let sess = AnalysisSession::new(opts.clone());
        meet.wait();
        analyze_program_session(&prog, &sess).unwrap();
        meet.wait();
        sess.stats().limit_overflows
    };
    let nobody = Barrier::new(1);
    let solo = overflows(&capped, &nobody);
    assert!(solo > 0, "the tight limits were never hit");
    assert_eq!(overflows(&free, &nobody), 0);

    let both = Barrier::new(2);
    let (with_company, bystander) = std::thread::scope(|s| {
        let a = s.spawn(|| overflows(&capped, &both));
        let b = s.spawn(|| overflows(&free, &both));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(with_company, solo);
    assert_eq!(bystander, 0, "another session's cap-hits were counted");
}

/// A program, and one that declares the same names in the reverse order.
const HISTORY_X: &str = r#"proc main(ybn: int, ybx: int) {
    array ybhelp[101];
    array yba[100, 2];
    var ybs: real;
    for@hot ybi = 1 to ybn {
        if (ybx > 5) { ybhelp[ybi] = yba[ybi, 1]; }
        yba[ybi, 2] = ybhelp[ybi + 1] + ybi * 0.5;
    }
    for@sum ybi = 1 to ybn { ybs = ybs + yba[ybi, 2]; }
    print ybs;
}
"#;
const HISTORY_Y: &str = "proc main(ybi: int, ybs: int) {
    array yba[10]; array ybhelp[10]; var ybx: int; var ybn: int;
    ybn = ybx;
}";

/// `padfa analyze --all --summaries` of `HISTORY_X`, from a fresh process.
const HISTORY_X_FRESH: &str = r#"== summary of main ==
ybhelp: W=[ybx - 6 >= 0 -> {-$ybhelp.0 + 101 >= 0 && $ybhelp.0 - 1 >= 0 && ybn - $ybhelp.0 >= 0}] MW=[ybx - 6 >= 0 -> {-$ybhelp.0 + 101 >= 0 && $ybhelp.0 - 1 >= 0 && ybn - $ybhelp.0 >= 0}] R=[true -> {-$ybhelp.0 + 101 >= 0 && $ybhelp.0 - 2 >= 0 && ybn - $ybhelp.0 + 1 >= 0}] E=[(-ybn + 100 >= 0 && ybn - 1 >= 0 && ybx - 6 >= 0) -> {-ybn + $ybhelp.0 - 1 = 0 && -$ybhelp.0 + 101 >= 0 && $ybhelp.0 - 2 >= 0}], [(ybn - 2 >= 0 && ybx - 6 >= 0) -> {-$ybhelp.0 + 101 >= 0 && $ybhelp.0 - 2 >= 0 && ybn - $ybhelp.0 >= 0}], [(ybn - 1 >= 0 && -ybx + 5 >= 0) -> {-$ybhelp.0 + 101 >= 0 && $ybhelp.0 - 2 >= 0 && ybn - $ybhelp.0 + 1 >= 0}]
yba: W=[true -> {$yba.1 - 2 = 0 && -$yba.0 + 100 >= 0 && $yba.0 - 1 >= 0 && -$yba.1 + 2 >= 0 && $yba.1 - 1 >= 0 && ybn - $yba.0 >= 0}] MW=[true -> {$yba.1 - 2 = 0 && -$yba.0 + 100 >= 0 && $yba.0 - 1 >= 0 && -$yba.1 + 2 >= 0 && $yba.1 - 1 >= 0 && ybn - $yba.0 >= 0}] R=[true -> {$yba.1 - 2 = 0 && -$yba.0 + 100 >= 0 && $yba.0 - 1 >= 0 && -$yba.1 + 2 >= 0 && $yba.1 - 1 >= 0 && ybn - $yba.0 >= 0}], [ybx - 6 >= 0 -> {$yba.1 - 1 = 0 && -$yba.0 + 100 >= 0 && $yba.0 - 1 >= 0 && -$yba.1 + 2 >= 0 && $yba.1 - 1 >= 0 && ybn - $yba.0 >= 0}] E=[(ybn - 1 >= 0 && ybx - 6 >= 0) -> {-$yba.1 + 1 = 0 && $yba.1 - 1 = 0 && -$yba.0 + 100 >= 0 && $yba.0 - 1 >= 0 && ybn - $yba.0 >= 0}]
ybn: must=false may=false exposed=true
ybx: must=false may=false exposed=true
ybs: must=false may=true exposed=true

main:hot depth=0 -> parallel if (-ybn + 1 >= 0 || -ybx + 5 >= 0)
main:sum depth=0 -> parallel reduce(ybs:Sum)

2 loops: 2 parallelized (1 with run-time tests) under the predicated analysis
"#;

/// What a thread analysed before never reaches what it renders next: `X`
/// after `Y` — whose declarations number `X`'s names in reverse — renders
/// as a fresh process renders `X` alone. The names are this test's own,
/// so no other test of the binary numbered them first.
#[test]
fn a_program_renders_alike_whatever_the_thread_analysed_before() {
    let prog = parse_program(HISTORY_Y).unwrap();
    let sess = AnalysisSession::new(Options::predicated()).with_summaries();
    analyze_program_session(&prog, &sess).unwrap();

    let prog = parse_program(HISTORY_X).unwrap();
    let sess = AnalysisSession::new(Options::predicated()).with_summaries();
    let (result, summaries) = analyze_program_session(&prog, &sess).unwrap();
    // The report `analyze --all --summaries` prints.
    let mut out = String::new();
    let mut names: Vec<&String> = summaries.keys().collect();
    names.sort();
    for name in names {
        out.push_str(&format!("== summary of {name} ==\n{}\n", summaries[name]));
    }
    for report in &result.loops {
        out.push_str(&format!("{report}\n"));
    }
    let (loops, parallel) = (result.loops.len(), result.num_parallelized());
    let tested = result.num_runtime_tested();
    out.push_str(&format!(
        "\n{loops} loops: {parallel} parallelized ({tested} with run-time tests) \
         under the predicated analysis\n"
    ));
    assert_eq!(out, HISTORY_X_FRESH);
}
