//! Generator integrity: the corpus's labeled loops behave as specified
//! across analysis variants, and the ELPD inspector agrees with the
//! labeled expectations on sample programs (the full sweep runs in the
//! `table1` binary).

use padfa_core::{analyze_program, analyze_program_session, AnalysisSession, Options};
use padfa_rt::elpd::elpd_inspect;
use padfa_suite::corpus::build_program;
use padfa_suite::stats::verify_expectations;
use padfa_suite::Expect;

#[test]
fn expectations_hold_on_representative_programs() {
    // One small, one improved (outer wins), one inner-wins, one with
    // reshape: covers every pattern family.
    for name in ["tomcatv", "cgm", "track", "su2cor"] {
        let bp = build_program(name).expect("program exists");
        verify_expectations(&bp).unwrap_or_else(|e| panic!("{name}:\n{e}"));
    }
}

#[test]
fn elpd_agrees_with_expectations_on_small_programs() {
    for name in ["tomcatv", "buk", "cgm", "addl"] {
        let bp = build_program(name).expect("program exists");
        let base = analyze_program(&bp.program, &Options::base()).unwrap();
        for h in &bp.hard {
            let report = base.by_label(&h.label).expect("labeled loop");
            if report.parallelized() {
                continue; // ELPD only instruments remaining loops
            }
            let exclude: Vec<_> = report.reductions.iter().map(|r| r.target).collect();
            let verdict = elpd_inspect(&bp.program, bp.args.clone(), report.id, &exclude)
                .unwrap_or_else(|e| panic!("{name}/{}: execution failed: {e}", h.label));
            assert_eq!(
                verdict.parallelizable,
                h.expect.elpd_parallel(),
                "{name}/{} ({:?}): ELPD said parallelizable={}",
                h.label,
                h.expect,
                verdict.parallelizable
            );
        }
    }
}

#[test]
fn corpus_programs_execute_cleanly() {
    // Every corpus program must run to completion on the standard
    // workload — sequentially and under the predicated plan.
    use padfa_rt::{run_main, ExecPlan, RunConfig};
    for name in ["tomcatv", "swim", "cgm", "qcd", "addl", "su2cor"] {
        let bp = build_program(name).expect("program exists");
        let seq = run_main(&bp.program, bp.args.clone(), &RunConfig::sequential())
            .unwrap_or_else(|e| panic!("{name}: sequential run failed: {e}"));
        let result = analyze_program(&bp.program, &Options::predicated()).unwrap();
        let plan = ExecPlan::from_analysis(&bp.program, &result);
        let par = run_main(&bp.program, bp.args.clone(), &RunConfig::parallel(4, plan))
            .unwrap_or_else(|e| panic!("{name}: parallel run failed: {e}"));
        let diff = seq.max_abs_diff(&par);
        assert!(diff == 0.0, "{name}: parallel diverged by {diff}");
        assert!(seq.total_work > 100, "{name}: trivial execution");
    }
}

#[test]
fn hard_loop_mechanisms_recorded() {
    // Loops expected to need embedding/extraction must have the flags.
    let bp = build_program("qcd").expect("program exists");
    let sess = AnalysisSession::new(Options::predicated()).with_provenance();
    let (pred, _) = analyze_program_session(&bp.program, &sess).unwrap();
    for h in &bp.hard {
        let report = pred.by_label(&h.label).expect("labeled loop");
        let m = report.provenance.as_ref().expect("evidence").mechanisms;
        match h.expect {
            Expect::EmbeddingCT => assert!(m.embedding, "{}: {m:?}", h.label),
            Expect::PredicatedRT => assert!(m.runtime_test, "{}: {m:?}", h.label),
            _ => {}
        }
    }
}

#[test]
fn sources_reparse_to_same_program() {
    // The generated text, pretty-printed and re-parsed, is stable.
    let bp = build_program("embar").expect("program exists");
    let pretty = padfa_ir::pretty::program_to_string(&bp.program);
    let reparsed = padfa_ir::parse::parse_program(&pretty).expect("round trip");
    // Each parse numbered the names in the order its text meets them, so
    // the two are compared spelled out, each by its own numbering.
    let spelled = |p: &padfa_ir::Program| {
        padfa_omega::VarTable::adopt(p.vars());
        format!("{:?}", p.procedures)
    };
    assert_eq!(spelled(&bp.program), spelled(&reparsed));
}
