//! Integration tests for decision provenance: the `padfa explain`
//! subcommand (text + JSON), the Chrome trace-event writer, and
//! run-to-run determinism of provenance trees and metrics counters.

use std::process::Command;

fn padfa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_padfa"))
}

const DEMO: &str = "proc main(n: int, x: int) {
    array help[101];
    array a[100, 2];
    var s: real;
    for@hot i = 1 to n {
        if (x > 5) { help[i] = a[i, 1]; }
        a[i, 2] = help[i + 1] + i * 0.5;
    }
    for@sum i = 1 to n { s = s + a[i, 2]; }
    print s;
}";

/// Minimal temp-file helper (no external crates).
struct TempPath(std::path::PathBuf);

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp(tag: &str, contents: &str) -> TempPath {
    let path = std::env::temp_dir().join(format!("padfa-explain-{}-{tag}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    TempPath(path)
}

#[test]
fn explain_text_shows_evidence_tree() {
    let f = temp("demo.mf", DEMO);
    let out = padfa().arg("explain").arg(&f.0).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The two-version loop: winner, emitted test, and pair evidence.
    assert!(text.contains("main:hot depth=0 -> parallel if"), "{text}");
    assert!(text.contains("winner: runtime-test"), "{text}");
    assert!(text.contains("run-time test:"), "{text}");
    assert!(text.contains("array help: runtime-tested"), "{text}");
    assert!(text.contains("write/read"), "{text}");
    assert!(text.contains("guards-exclude"), "{text}");
    assert!(text.contains("regions-disjoint"), "{text}");
    // The reduction loop is attributed too.
    assert!(text.contains("main:sum"), "{text}");
    assert!(text.contains("reduction s"), "{text}");
}

#[test]
fn explain_loop_filter_selects_one_loop() {
    let f = temp("filter.mf", DEMO);
    let out = padfa()
        .args(["explain", "--loop", "sum"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("main:sum"), "{text}");
    assert!(!text.contains("main:hot"), "{text}");

    let out = padfa()
        .args(["explain", "--loop", "no-such-loop"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no analyzed loop"), "{err}");
}

#[test]
fn explain_json_is_structured() {
    let f = temp("json.mf", DEMO);
    let out = padfa()
        .args(["explain", "--json", "--loop", "hot"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"schema_version\":"), "{text}");
    assert!(text.trim_end().ends_with("]}"), "{text}");
    assert!(text.contains("\"label\":\"hot\""), "{text}");
    assert!(text.contains("\"winner\":\"runtime-test\""), "{text}");
    assert!(text.contains("\"mechanisms\":{\"predicates\":"), "{text}");
    assert!(
        text.contains("\"array\":\"help\",\"verdict\":\"runtime-tested\""),
        "{text}"
    );
    assert!(
        text.contains("\"dep_pairs\":[{\"kind\":\"write/write\""),
        "{text}"
    );
    assert!(text.contains("\"outcome\":\"parallel-if\""), "{text}");
    assert!(balanced(&text), "unbalanced JSON: {text}");
}

/// Brace/bracket balance check that skips string literals — a cheap
/// structural sanity check in lieu of a JSON parser.
fn balanced(s: &str) -> bool {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut esc = false;
    for c in s.chars() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_str
}

#[test]
fn analyze_trace_writes_chrome_trace_json() {
    let f = temp("trace.mf", DEMO);
    let trace =
        std::env::temp_dir().join(format!("padfa-explain-{}-trace.json", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let out = padfa()
        .args(["analyze", "--trace"])
        .arg(&trace)
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    // Chrome trace-event format: one top-level object with a
    // `traceEvents` array of complete ("X") and instant events.
    assert!(
        json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "{json}"
    );
    assert!(json.trim_end().ends_with("]}"), "{json}");
    assert!(balanced(&json), "unbalanced trace JSON");
    assert!(!json.contains(",]") && !json.contains(",}"), "{json}");
    for needle in [
        "\"cat\":\"parse\"",
        "\"name\":\"pre_intern\"",
        "\"name\":\"main\",\"cat\":\"summarize\"",
        "\"cat\":\"loop\"",
        "\"cat\":\"lattice-batch\"",
        "\"ph\":\"X\"",
        "\"pid\":1",
    ] {
        assert!(json.contains(needle), "missing {needle} in: {json}");
    }
}

/// `--profile` is the same stream folded per phase, parse included.
#[test]
fn analyze_profile_has_one_parse_span() {
    let f = temp("profile.mf", DEMO);
    let out = padfa()
        .args(["analyze", "--profile"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let row = text
        .lines()
        .find(|l| l.starts_with("parse "))
        .unwrap_or_else(|| panic!("no parse row in: {text}"));
    let spans = row.split_whitespace().nth(1);
    assert_eq!(spans, Some("1"), "{row}");
}

/// Provenance trees and every counter a session publishes must be
/// bit-identical whether the programs are analyzed one after another or
/// on four threads at once (what `corpus --jobs 1` and `--jobs 4` do).
#[test]
fn provenance_and_metrics_deterministic_across_jobs() {
    use padfa::analysis::{
        analyze_program_session, par_map_jobs, AnalysisSession, MetricsRegistry, Options,
    };

    let corpus = padfa::suite::build_corpus();
    // The programs with the most procedures have the most driver to
    // get wrong; twelve keep four threads busy.
    let mut by_procs: Vec<_> = corpus.iter().collect();
    by_procs.sort_by_key(|b| std::cmp::Reverse(b.program.procedures.len()));
    by_procs.truncate(12);
    let run = |jobs: usize| {
        par_map_jobs(jobs, &by_procs, |_, bench| {
            let reg = MetricsRegistry::new();
            let sess = AnalysisSession::new(Options::predicated()).with_provenance();
            let (result, _) = analyze_program_session(&bench.program, &sess).unwrap();
            result.stats.publish(&reg);
            let trees: String = result
                .loops
                .iter()
                .map(padfa::analysis::loop_json)
                .collect();
            (trees, reg.counters_snapshot())
        })
    };
    for ((bench, one), four) in by_procs.iter().zip(run(1)).zip(run(4)) {
        assert_eq!(one.0, four.0, "provenance differs ({})", bench.name);
        assert_eq!(one.1, four.1, "counters differ ({})", bench.name);
        assert!(one.1["query.sys_empty.total"] > 0, "{}", bench.name);
    }
}

/// The ISSUE acceptance criterion: every parallelized corpus loop is
/// attributed to exactly one winning mechanism, and every sequential
/// candidate to a concrete blocking dependence, exposed read, or budget
/// event.
#[test]
fn corpus_attribution_is_total() {
    use padfa::analysis::{analyze_program_session, AnalysisSession, Options};

    for bench in &padfa::suite::build_corpus() {
        let sess = AnalysisSession::new(Options::predicated()).with_provenance();
        let (result, _) = analyze_program_session(&bench.program, &sess).unwrap();
        for r in &result.loops {
            let p = r.provenance.as_ref().expect("evidence was asked for");
            if r.parallelized() {
                assert!(
                    p.winner.is_some(),
                    "{}: parallelized loop {:?} (id {}) has no winning mechanism",
                    bench.name,
                    r.label,
                    r.id.0
                );
            } else {
                assert!(
                    p.winner.is_none(),
                    "{}: sequential loop {:?} (id {}) claims a winner",
                    bench.name,
                    r.label,
                    r.id.0
                );
                if r.not_candidate.is_none() {
                    assert!(
                        p.has_blocker(),
                        "{}: sequential candidate {:?} (id {}) has no concrete blocker",
                        bench.name,
                        r.label,
                        r.id.0
                    );
                }
            }
        }
    }
}
