//! A session belongs to one thread, and what it computes may not depend
//! on what other threads are doing: a program rendered alone must equal
//! the same program rendered while other threads run other sessions.
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
