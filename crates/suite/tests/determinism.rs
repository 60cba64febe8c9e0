//! Determinism test over the full benchmark corpus: the rendered
//! analysis output of a program must be byte-identical whether the
//! corpus is analyzed one program after another or four at a time, each
//! in a session of its own — what `padfa corpus --jobs 1` and
//! `--jobs 4` do. This is the gate on that equivalence.

use padfa_core::{analyze_program_session, par_map_jobs, AnalysisSession, Options};
use padfa_suite::corpus::build_corpus;

/// Render every loop report and every procedure summary of one corpus
/// program in canonical order.
fn render(prog: &padfa_ir::Program) -> String {
    let sess = AnalysisSession::new(Options::predicated());
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
/// `padfa corpus` runs it without a store. Every count is a property of
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
    assert_eq!(regions, 14_986, "interned.regions");
    assert_eq!(projections, 25_029, "fm.projections");
    assert_eq!(sys_empty, 23_703, "query.sys_empty.total");
}
