//! Determinism test over the full benchmark corpus: the rendered
//! analysis output of a program must be byte-identical whether the
//! corpus is analyzed one program after another or four at a time, each
//! in a session of its own — what `padfa corpus --jobs 1` and
//! `--jobs 4` do — and whoever reads the procedure summaries. This is
//! the gate on those equivalences.

use padfa_core::{
    analyze_program_session, loop_json, par_map_jobs, AnalysisSession, Options, Store, StoreConfig,
};
use padfa_suite::corpus::build_corpus;
use std::sync::Arc;

/// Render every loop report and every procedure summary of one corpus
/// program in canonical order.
fn render(prog: &padfa_ir::Program) -> String {
    let sess = AnalysisSession::new(Options::predicated()).with_summaries();
    let (result, summaries) = analyze_program_session(prog, &sess).unwrap();
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

#[test]
fn corpus_reports_identical_across_worker_counts() {
    let corpus = build_corpus();
    let seq: Vec<String> = corpus.iter().map(|b| render(&b.program)).collect();
    for round in 0..2 {
        let par = par_map_jobs(4, &corpus, |_, b| render(&b.program));
        for ((bench, s), p) in corpus.iter().zip(&seq).zip(&par) {
            assert_eq!(
                s, p,
                "{}: diverged on 4 threads (round {round})",
                bench.name
            );
        }
    }
}

/// Lattice-work gate over the corpus, one session per program as
/// `padfa corpus` runs it without a store, which folds only the
/// summaries a call site reads. Every count is a property of
/// the programs and must not move: the distinct result regions
/// interned (a pair-order refuted from its operands' lists interns
/// nothing, and operands are not interned), the projections run (every
/// `project_out` computes), and the emptiness questions put to a system
/// (an interned region learns its verdict once, so only a region built
/// afresh for each test, such as a pair test's conjunction, or one that
/// needs elimination asks again).
#[test]
fn corpus_lattice_work_stays_linear() {
    let (mut sys_empty, mut regions, mut projections) = (0, 0, 0);
    for bench in build_corpus() {
        let sess = AnalysisSession::new(Options::predicated());
        let (result, _) = analyze_program_session(&bench.program, &sess).unwrap();
        sys_empty += result.stats.sys_empty.total();
        regions += result.stats.interned_regions as u64;
        projections += result.stats.fm_projections;
    }
    assert_eq!(regions, 6_204, "interned.regions");
    assert_eq!(projections, 8_445, "fm.projections");
    assert_eq!(sys_empty, 17_748, "query.sys_empty.total");
}

/// How one reader-independence run asks for summaries.
#[derive(Clone, Copy, Debug)]
enum Reader {
    /// Only call sites read summaries.
    Calls,
    /// The caller asks for every summary.
    All,
    /// A store puts every summary.
    Store,
}

/// One analysis of `prog` as `reader` asks for it: every loop report
/// rendered as text and as JSON, the names of the summaries returned,
/// and the projections run.
fn run_as(
    prog: &padfa_ir::Program,
    opts: &Options,
    reader: Reader,
    store: &Arc<Store>,
) -> (String, Vec<String>, u64) {
    let mut sess = AnalysisSession::new(opts.clone());
    match reader {
        Reader::Calls => {}
        Reader::All => sess = sess.with_summaries(),
        Reader::Store => sess = sess.with_store(Arc::clone(store)),
    }
    let (result, summaries) = analyze_program_session(prog, &sess).unwrap();
    let mut out = String::new();
    for report in &result.loops {
        out.push_str(&format!("{report}\n{}\n", loop_json(report)));
    }
    let mut names: Vec<String> = summaries.into_keys().collect();
    names.sort();
    (out, names, result.stats.fm_projections)
}

/// 61 step-2 loops and one unit-step loop at the top level of an
/// uncalled `main`. Each strided summary draws five `$lat` names, and
/// together they draw past the 256-name pool: which loops report
/// `lat_overflow`, and how many, depends on every draw before them —
/// including those of strided loops nothing reads, and the `W_prev` a
/// strided loop forms even for an empty E.
fn strided_top_level() -> String {
    let mut src = String::from("proc main(n: int) {\narray a[400]; array b[400];\n");
    for k in 0..60 {
        src.push_str(&format!("array w{k}[400]; array r{k}[400];\n"));
    }
    src.push_str("for i = 1 to n step 2 { a[i] = b[i + 1]; }\n");
    src.push_str("for i = 1 to n { a[i] = b[i] + 1.0; }\n");
    for k in 0..60 {
        src.push_str(&format!(
            "for k = 1 to n step 2 {{ w{k}[k] = r{k}[k] * 2.0; }}\n"
        ));
    }
    src.push('}');
    src
}

/// The `lat_overflow` fields of rendered reports, summed.
fn lat_overflows(rendered: &str) -> u64 {
    rendered
        .split("\"lat_overflow\":")
        .skip(1)
        .map(|t| t[..t.find('}').unwrap()].parse::<u64>().unwrap())
        .sum()
}

/// An uncalled `main` calling a helper: the helper is read, so it still
/// folds its top level and its summary is returned.
const MAIN_CALLS_HELPER: &str = "proc fill(row: array[100], n: int, x: int) {
    for j = 1 to n { row[j] = 0.0; }
    if (x > 5) { for j = 1 to n { row[j] = row[j] + 1.0; } }
}
proc main(n: int, x: int) {
    array b[100, 100]; array t[100];
    for i = 1 to n {
        call fill(t, n, x);
        for j = 1 to n { b[i, j] = t[j]; }
    }
    call fill(t, n, x);
}";

/// A summary nothing reads is not computed, and that changes no report:
/// over the corpus, `ir::testgen` seeds 0–99 and two hand-written
/// programs, under all three variants, the rendered reports are
/// byte-identical whether only call sites read summaries, the caller
/// asks for all of them, or a store puts them. Skipping the unread
/// folds must save projections.
#[test]
fn reports_do_not_depend_on_who_reads_summaries() {
    use padfa_ir::parse::parse_program;
    use padfa_ir::testgen::{random_program, GenConfig};
    let dir = std::env::temp_dir().join(format!("padfa_suite_readers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(StoreConfig::new(&dir, "readers")));
    let mut programs: Vec<(String, padfa_ir::Program)> = build_corpus()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program))
        .collect();
    for seed in 0..100 {
        programs.push((
            format!("testgen {seed}"),
            random_program(seed, GenConfig::default()),
        ));
    }
    for (name, src) in [
        ("strided top level", strided_top_level()),
        ("main calls helper", MAIN_CALLS_HELPER.to_string()),
    ] {
        programs.push((name.to_string(), parse_program(&src).unwrap()));
    }
    for opts in [Options::base(), Options::guarded(), Options::predicated()] {
        let (mut fm_calls, mut fm_all) = (0, 0);
        for (name, prog) in &programs {
            let (calls, called, fm_c) = run_as(prog, &opts, Reader::Calls, &store);
            let (all, every, fm_a) = run_as(prog, &opts, Reader::All, &store);
            let (stored, _, _) = run_as(prog, &opts, Reader::Store, &store);
            let ctx = format!("{name} under {:?}", opts.variant);
            assert_eq!(
                calls, all,
                "{ctx}: reports differ when every summary is asked for"
            );
            assert_eq!(calls, stored, "{ctx}: reports differ with a store");
            assert!(
                fm_c <= fm_a,
                "{ctx}: {fm_c} projections unread, {fm_a} read"
            );
            assert!(
                !called.contains(&"main".to_string()),
                "{ctx}: main was summarized"
            );
            assert_eq!(every.len(), prog.procedures.len(), "{ctx}");
            if name == "main calls helper" {
                assert_eq!(called, ["fill"], "{ctx}: the called helper folds");
            }
            if name == "strided top level" {
                assert_eq!(lat_overflows(&calls), 49, "{ctx}");
            }
            fm_calls += fm_c;
            fm_all += fm_a;
        }
        assert!(
            fm_calls < fm_all,
            "{:?}: {fm_calls} projections unread, {fm_all} read",
            opts.variant
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
