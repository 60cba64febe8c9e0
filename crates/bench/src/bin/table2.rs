//! Table 2 regenerator: details of the loops newly parallelized by the
//! predicated analysis — coverage (% of sequential execution work),
//! granularity (work per invocation), the classification category, and
//! whether a compile-time result or a run-time test was needed.
//!
//! Loops nested inside other newly parallelized loops have coverage and
//! granularity omitted (SUIF exploits a single level of parallelism),
//! mirroring the paper's table.
//!
//! Usage: `cargo run --release -p padfa-bench --bin table2`

use padfa_bench::render_table;
use padfa_core::{analyze_program, analyze_program_session, AnalysisSession, Options, Outcome};
use padfa_rt::{run_main, RunConfig};

fn main() {
    let corpus = padfa_suite::build_corpus();
    let mut rows = Vec::new();
    for bp in &corpus {
        let base = analyze_program(&bp.program, &Options::base()).expect("analysis failed");
        // The category column reads the mechanisms: ask for the evidence.
        let sess = AnalysisSession::new(Options::predicated()).with_provenance();
        let (pred, _) = analyze_program_session(&bp.program, &sess).expect("analysis failed");
        let base_par: Vec<_> = base
            .loops
            .iter()
            .filter(|l| l.parallelized())
            .map(|l| l.id)
            .collect();
        let new: Vec<_> = pred
            .loops
            .iter()
            .filter(|l| l.parallelized() && !base_par.contains(&l.id))
            .collect();
        if new.is_empty() {
            continue;
        }
        // Sequential profile for coverage and granularity.
        let profile = run_main(&bp.program, bp.args.clone(), &RunConfig::sequential())
            .expect("corpus program executes");
        let parents = padfa_ir::visit::loop_parents(&bp.program);
        for report in new {
            // Nested inside another newly parallelized loop?
            let mut nested = false;
            let mut anc = parents.get(&report.id).copied().flatten();
            while let Some(a) = anc {
                if pred
                    .loop_report(a)
                    .map(|r| r.parallelized() && !base_par.contains(&a))
                    .unwrap_or(false)
                {
                    nested = true;
                    break;
                }
                anc = parents.get(&a).copied().flatten();
            }
            let (coverage, granularity) = if nested {
                ("-".to_string(), "-".to_string())
            } else {
                match profile.profile.get(&report.id) {
                    Some(p) if p.invocations > 0 => (
                        format!(
                            "{:.1}%",
                            100.0 * p.work as f64 / profile.total_work.max(1) as f64
                        ),
                        format!("{}", p.work / p.invocations),
                    ),
                    _ => ("0.0%".to_string(), "0".to_string()),
                }
            };
            let (kind, test) = match &report.outcome {
                Outcome::Parallel => ("CT".to_string(), String::new()),
                Outcome::ParallelIf(p) => ("RT".to_string(), format!("{p}")),
                Outcome::Sequential => continue,
            };
            // Category in the style of So/Moon/Hall's classification.
            let m = report.provenance.as_ref().expect("evidence").mechanisms;
            let category = if m.extraction && m.runtime_test {
                "BC" // breaking/boundary condition test
            } else if m.runtime_test {
                "CF-RT" // control-flow run-time test
            } else if m.embedding {
                "CF-EMB" // index-dependent control flow, embedded
            } else {
                "CF" // control flow handled at compile time
            };
            let mut label = report
                .label
                .clone()
                .unwrap_or_else(|| format!("L{}", report.id.0));
            label.truncate(12);
            let mut test_short = test;
            if test_short.len() > 44 {
                test_short.truncate(41);
                test_short.push_str("...");
            }
            rows.push(vec![
                bp.name.to_string(),
                label,
                report.depth.to_string(),
                coverage,
                granularity,
                category.to_string(),
                kind,
                if report.privatized.is_empty() {
                    String::new()
                } else {
                    "priv".to_string()
                },
                test_short,
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "program",
                "loop",
                "depth",
                "coverage",
                "gran",
                "category",
                "CT/RT",
                "xform",
                "run-time test",
            ],
            &rows,
        )
    );
    println!("{} newly parallelized loops across the corpus", rows.len());
}
