//! Golden determinism test over the full benchmark corpus: the rendered
//! analysis output must be byte-identical regardless of the worker
//! count, and across repeated parallel runs.

use padfa_core::{analyze_program_session, AnalysisSession, Options};
use padfa_suite::corpus::build_corpus;

/// Render every loop report and every procedure summary of one corpus
/// program in canonical order.
fn render(prog: &padfa_ir::Program, jobs: usize) -> String {
    let sess = AnalysisSession::new(Options::predicated()).with_jobs(jobs);
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
    for bench in build_corpus() {
        let seq = render(&bench.program, 1);
        for jobs in [2, 4] {
            let par = render(&bench.program, jobs);
            assert_eq!(
                seq, par,
                "{}: --jobs 1 vs --jobs {jobs} diverged",
                bench.name
            );
        }
        let par_again = render(&bench.program, 4);
        assert_eq!(seq, par_again, "{}: two --jobs 4 runs diverged", bench.name);
    }
}

/// Lattice-work gate over the corpus, one single-threaded session per
/// program as `padfa corpus --jobs 1 --no-store` runs it. The number of
/// distinct systems, regions and projections is a property of the
/// programs and must not move; emptiness queries per distinct system
/// stay a small constant, which a block fold that re-proves every
/// array's regions non-empty at every statement (50× here) does not.
#[test]
fn corpus_lattice_work_stays_linear() {
    let (mut sys_empty, mut systems, mut regions, mut projections) = (0, 0, 0, 0);
    for bench in build_corpus() {
        let sess = AnalysisSession::new(Options::predicated()).with_jobs(1);
        let (result, _) = analyze_program_session(&bench.program, &sess).unwrap();
        sys_empty += result.stats.sys_empty.total();
        systems += result.stats.interned_systems as u64;
        regions += result.stats.interned_regions as u64;
        projections += result.stats.fm_projections;
    }
    assert_eq!(systems, 24_376, "interned.systems");
    assert_eq!(regions, 40_135, "interned.regions");
    assert_eq!(projections, 17_891, "fm.projections");
    assert!(
        sys_empty <= 8 * systems,
        "query.sys_empty.total {sys_empty} > 8 x interned.systems {systems}"
    );
}
