//! Determinism test over the full benchmark corpus: the rendered
//! analysis output of a program must be byte-identical whether the
//! corpus is analyzed one program after another or four at a time, each
//! in a session of its own — what `padfa corpus --jobs 1` and
//! `--jobs 4` do — whoever reads the procedure summaries, and whoever
//! reads the evidence behind the verdicts. This is the gate on those
//! equivalences.

use padfa_core::{
    analyze_program_session, loop_json, par_map_jobs, AnalysisSession, LoopReport, Options,
    Outcome, StatsSnapshot, Store, StoreConfig,
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

/// Lattice-work gate over the corpus, one verdict-only session per
/// program as `padfa analyze` runs it without a store, which folds only
/// the summaries a call site reads and builds no evidence (`padfa
/// corpus` builds it: 6,204 regions, 8,445 projections and 17,748
/// emptiness questions, pinned by the CLI's metrics test). Every count
/// is a property of the programs and must not move — whatever this
/// process interned before, since a loop tries its arrays in name
/// order: the distinct result regions interned (a pair-order refuted
/// from its operands' lists interns nothing, and operands are not
/// interned), the projections run (every `project_out` computes), and
/// the emptiness questions put to a system
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
    assert_eq!(regions, 3_687, "interned.regions");
    assert_eq!(projections, 4_953, "fm.projections");
    assert_eq!(sys_empty, 17_693, "query.sys_empty.total");
}

/// How one reader-independence run asks for summaries and evidence.
#[derive(Clone, Copy, Debug)]
enum Reader {
    /// Only call sites read summaries, and nothing reads evidence.
    Plain,
    /// Only call sites read summaries; the caller asks for evidence.
    Calls,
    /// The caller asks for every summary and for evidence.
    All,
    /// Only call sites read summaries, through a store; the caller
    /// asks for evidence when the flag is set. The store's entries hold
    /// what earlier runs asked for, and serve a run only what it asks.
    Store { evidence: bool },
}

/// One analysis of `prog` as `reader` asks for it.
fn session_as(
    prog: &padfa_ir::Program,
    opts: &Options,
    reader: Reader,
    store: &Arc<Store>,
) -> (Vec<LoopReport>, Vec<String>, StatsSnapshot) {
    let mut sess = AnalysisSession::new(opts.clone());
    match reader {
        Reader::Plain => {}
        Reader::Calls => sess = sess.with_provenance(),
        Reader::All => sess = sess.with_summaries().with_provenance(),
        Reader::Store { evidence } => {
            sess = sess.with_store(Arc::clone(store));
            if evidence {
                sess = sess.with_provenance();
            }
        }
    }
    let (result, summaries) = analyze_program_session(prog, &sess).unwrap();
    let mut names: Vec<String> = summaries.into_keys().collect();
    names.sort();
    (result.loops, names, result.stats)
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
    let (loops, names, stats) = session_as(prog, opts, reader, store);
    let mut out = String::new();
    for report in &loops {
        out.push_str(&format!("{report}\n{}\n", loop_json(report)));
    }
    (out, names, stats.fm_projections)
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

/// The corpus, `ir::testgen` seeds 0–99 and the hand-written `extra`
/// programs, each with its name.
fn programs(extra: &[(&str, &str)]) -> Vec<(String, padfa_ir::Program)> {
    use padfa_ir::testgen::{random_program, GenConfig};
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
    for (name, src) in extra {
        let prog = padfa_ir::parse::parse_program(src).unwrap();
        programs.push((name.to_string(), prog));
    }
    programs
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
/// asks for all of them, or a store serves them (returning the
/// summaries a storeless run returns). Skipping the unread folds must
/// save projections.
#[test]
fn reports_do_not_depend_on_who_reads_summaries() {
    let dir = std::env::temp_dir().join(format!("padfa_suite_readers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(StoreConfig::new(&dir, "readers")));
    let programs = programs(&[
        ("strided top level", &strided_top_level()),
        ("main calls helper", MAIN_CALLS_HELPER),
    ]);
    for opts in [Options::base(), Options::guarded(), Options::predicated()] {
        let (mut fm_calls, mut fm_all) = (0, 0);
        for (name, prog) in &programs {
            let (calls, called, fm_c) = run_as(prog, &opts, Reader::Calls, &store);
            let (all, every, fm_a) = run_as(prog, &opts, Reader::All, &store);
            let (stored, through_store, _) =
                run_as(prog, &opts, Reader::Store { evidence: true }, &store);
            let ctx = format!("{name} under {:?}", opts.variant);
            assert_eq!(
                calls, all,
                "{ctx}: reports differ when every summary is asked for"
            );
            assert_eq!(calls, stored, "{ctx}: reports differ with a store");
            assert_eq!(
                called, through_store,
                "{ctx}: summaries differ with a store"
            );
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

/// An uncalled `main` whose one loop reads `a` at a symbolic index:
/// nothing reads the loop's summary, but its `E − W_prev` extracts the
/// index's bounds, and that extraction is the mechanism that wins it.
const UNREAD_EXTRACTION: &str = "proc main(n: int, m: int) {
    array a[100]; array b[100];
    for i = 1 to n { b[i] = a[m]; }
}";

/// A sequential loop whose first array (`a`) blocks: the pair tests of
/// `b` decide nothing the verdict shows.
const FIRST_ARRAY_BLOCKS: &str = "proc main(n: int) {
    array a[100]; array b[100]; array c[100];
    for i = 2 to n { a[i] = a[i - 1] + 1.0; b[i] = c[i] * 2.0; }
}";

/// A loop-carried flow through the scalar `s`: sequential before any
/// array is tested.
const EXPOSED_SCALAR: &str = "proc main(n: int) {
    var s: real; array a[100];
    for i = 1 to n { a[i] = s; s = a[i] * 2.0; }
}";

/// The verdict of one loop as `padfa analyze` and `serve /analyze`
/// render it — the `Display` line, and what the `/analyze` body's loop
/// entry is made of — with the transformations in full.
fn verdict(r: &LoopReport) -> String {
    let test = match (&r.not_candidate, &r.outcome) {
        (None, Outcome::ParallelIf(p)) => p.to_string(),
        _ => String::new(),
    };
    format!(
        "{r}\n  id={} label={:?} test={test} privatized={:?} scalars={:?} reductions={:?}\n",
        r.id.0, r.label, r.privatized, r.privatized_scalars, r.reductions
    )
}

/// Evidence nothing reads is not built, and that changes no verdict:
/// over the corpus, `ir::testgen` seeds 0–99 and four hand-written
/// programs, under all three variants, every loop's verdict renders
/// byte-identically in a verdict-only session, one that asks for
/// provenance, and either of them with a store; evidence is present
/// exactly when asked for, with a store or without; and the verdict-only
/// sessions run no more
/// projections, and fewer in all (the base variant extracts nothing, so
/// it saves none).
#[test]
fn verdicts_do_not_depend_on_who_reads_evidence() {
    let dir = std::env::temp_dir().join(format!("padfa_suite_evidence_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(StoreConfig::new(&dir, "evidence")));
    let programs = programs(&[
        ("unread extraction", UNREAD_EXTRACTION),
        ("first array blocks", FIRST_ARRAY_BLOCKS),
        ("exposed scalar", EXPOSED_SCALAR),
        ("strided top level", &strided_top_level()),
    ]);
    let (mut fm_plain, mut fm_evidence) = (0, 0);
    for opts in [Options::base(), Options::guarded(), Options::predicated()] {
        for (name, prog) in &programs {
            let ctx = format!("{name} under {:?}", opts.variant);
            let (plain, _, plain_stats) = session_as(prog, &opts, Reader::Plain, &store);
            let (asked, _, asked_stats) = session_as(prog, &opts, Reader::Calls, &store);
            let render = |loops: &[LoopReport]| loops.iter().map(verdict).collect::<String>();
            assert_eq!(render(&plain), render(&asked), "{ctx}: verdicts differ");
            assert!(plain.iter().all(|r| r.provenance.is_none()), "{ctx}");
            assert!(asked.iter().all(|r| r.provenance.is_some()), "{ctx}");
            for evidence in [false, true] {
                let (stored, _, _) = session_as(prog, &opts, Reader::Store { evidence }, &store);
                assert_eq!(render(&plain), render(&stored), "{ctx}: verdicts differ");
                assert!(
                    stored.iter().all(|r| r.provenance.is_some() == evidence),
                    "{ctx}: evidence through a store, asked for: {evidence}"
                );
            }
            let predicated = opts.variant == padfa_core::Variant::Predicated;
            match name.as_str() {
                "unread extraction" if predicated => {
                    let p = asked[0].provenance.as_ref().unwrap();
                    assert!(p.mechanisms.extraction, "{ctx}: {p:?}");
                    assert_eq!(p.winner, Some(padfa_core::Mechanism::Extraction), "{ctx}");
                    assert!(plain_stats.fm_projections < asked_stats.fm_projections);
                }
                "first array blocks" => {
                    assert_eq!(plain[0].outcome, Outcome::Sequential, "{ctx}");
                    assert!(
                        plain_stats.orders_total < asked_stats.orders_total,
                        "{ctx}: {} pair orders verdict-only, {} with evidence",
                        plain_stats.orders_total,
                        asked_stats.orders_total
                    );
                }
                "exposed scalar" => {
                    assert_eq!(plain[0].outcome, Outcome::Sequential, "{ctx}");
                    assert_eq!(plain_stats.orders_total, 0, "{ctx}");
                    assert!(asked_stats.orders_total > 0, "{ctx}");
                }
                "strided top level" => {
                    let asked: String = asked.iter().map(loop_json).collect();
                    assert_eq!(lat_overflows(&asked), 49, "{ctx}");
                }
                _ => {}
            }
            assert!(
                plain_stats.fm_projections <= asked_stats.fm_projections,
                "{ctx}"
            );
            fm_plain += plain_stats.fm_projections;
            fm_evidence += asked_stats.fm_projections;
        }
    }
    assert!(
        fm_plain < fm_evidence,
        "{fm_plain} projections verdict-only, {fm_evidence} with evidence"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
