//! Integration tests for the `padfa` command-line driver.

use std::io::Write;
use std::process::Command;

fn padfa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_padfa"))
}

fn demo_file() -> temppath::TempPath {
    temppath::write(
        "proc main(n: int, x: int) {
            array help[101];
            array a[100, 2];
            var s: real;
            for@hot i = 1 to n {
                if (x > 5) { help[i] = a[i, 1]; }
                a[i, 2] = help[i + 1] + i * 0.5;
            }
            for@sum i = 1 to n { s = s + a[i, 2]; }
            print s;
        }",
    )
}

/// Minimal temp-file helper (no external crates).
mod temppath {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    static N: AtomicU32 = AtomicU32::new(0);

    pub fn write(contents: &str) -> TempPath {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("padfa-cli-test-{}-{n}.mf", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        TempPath(path)
    }
}

#[test]
fn analyze_reports_two_version_loop() {
    let f = demo_file();
    let out = padfa().arg("analyze").arg(&f.0).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hot"), "{text}");
    assert!(text.contains("parallel if"), "{text}");
    assert!(
        text.contains("2 parallelized (1 with run-time tests)"),
        "{text}"
    );
}

#[test]
fn analyze_variants_differ() {
    let f = demo_file();
    let base = padfa()
        .args(["analyze", "--variant", "base"])
        .arg(&f.0)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&base.stdout);
    assert!(
        text.contains("1 parallelized (0 with run-time tests)"),
        "{text}"
    );
}

#[test]
fn run_executes_and_prints() {
    let f = demo_file();
    let out = padfa()
        .args(["run"])
        .arg(&f.0)
        .args(["100", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // s = sum of i * 0.5 for i = 1..100 = 2525.
    assert!(stdout.trim().starts_with("2525"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parallel region"), "{stderr}");
}

#[test]
fn elpd_inspects_by_label() {
    let f = demo_file();
    let out = padfa()
        .args(["elpd"])
        .arg(&f.0)
        .args(["hot", "50", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("parallelizable=true"), "{text}");
}

#[test]
fn fmt_round_trips() {
    let f = demo_file();
    let out = padfa().arg("fmt").arg(&f.0).output().unwrap();
    assert!(out.status.success());
    // The pretty output must itself parse.
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    padfa_ir::parse::parse_program(&text).expect("fmt output parses");
}

#[test]
fn bad_file_fails_cleanly() {
    let f = temppath::write("proc broken( {");
    let out = padfa().arg("analyze").arg(&f.0).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "parse errors exit with code 3");
    let err = String::from_utf8_lossy(&out.stderr);
    // Diagnostics carry a file:line:col span for editor integration.
    assert!(err.contains(&format!("{}:1:", f.0.display())), "{err}");
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn missing_args_reported() {
    let f = demo_file();
    let out = padfa().arg("run").arg(&f.0).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing value"), "{err}");
    let _ = std::io::stderr().flush();
}

/// Assert a failed invocation exits nonzero with a one-line `padfa:`
/// diagnostic and no panic backtrace leaking to the user.
fn assert_clean_failure(out: &std::process::Output, needle: &str) {
    assert!(!out.status.success(), "expected failure");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("padfa: execution failed:"), "{err}");
    assert!(err.contains(needle), "wanted '{needle}' in: {err}");
    assert!(
        !err.contains("panicked at") && !err.contains("RUST_BACKTRACE"),
        "raw panic output leaked: {err}"
    );
}

#[test]
fn fuel_exhaustion_fails_cleanly_sequential() {
    let f = temppath::write(
        "proc main(n: int) { var s: real;
            for i = 1 to n { s = s + 1.0; } }",
    );
    let out = padfa()
        .args(["run", "--seq", "--fuel", "100"])
        .arg(&f.0)
        .arg("1000000000")
        .output()
        .unwrap();
    assert_clean_failure(&out, "fuel budget exhausted");
}

#[test]
fn fuel_exhaustion_fails_cleanly_parallel() {
    let f = temppath::write(
        "proc main(n: int) { var s: real;
            for i = 1 to n { s = s + 1.0; } }",
    );
    let out = padfa()
        .args(["run", "--workers", "4", "--fuel", "100"])
        .arg(&f.0)
        .arg("1000000000")
        .output()
        .unwrap();
    assert_clean_failure(&out, "fuel budget exhausted");
}

#[test]
fn out_of_bounds_fails_cleanly() {
    let f = temppath::write(
        "proc main(n: int) { array a[8];
            for i = 1 to n { a[i] = 1.0; } }",
    );
    let out = padfa()
        .args(["run", "--seq"])
        .arg(&f.0)
        .arg("9")
        .output()
        .unwrap();
    assert_clean_failure(&out, "out of bounds");
}

#[test]
fn division_by_zero_fails_cleanly() {
    let f = temppath::write("proc main(n: int) { var s: int; s = n / (n - n); print s; }");
    let out = padfa()
        .args(["run", "--seq"])
        .arg(&f.0)
        .arg("4")
        .output()
        .unwrap();
    assert_clean_failure(&out, "division by zero");
}

/// An injected worker panic with the fallback enabled: the run succeeds,
/// prints the right answer, and the summary reports the recovery.
#[test]
fn injected_panic_recovers_and_reports() {
    let f = temppath::write(
        "proc main(n: int) { array a[128]; var s: real;
            for i = 1 to n { a[i] = i * 2.0; }
            for i = 1 to n { s = s + a[i]; }
            print s; }",
    );
    let out = padfa()
        .args(["run", "--workers", "4", "--inject", "0:2:panic"])
        .arg(&f.0)
        .arg("128")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim().starts_with("16512"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fallback(s)"), "{stderr}");
    assert!(stderr.contains("recovered from"), "{stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "isolated panic leaked a backtrace: {stderr}"
    );
}

/// The same injection with `--no-fallback`: a clean typed diagnostic.
#[test]
fn injected_panic_without_fallback_fails_cleanly() {
    let f = temppath::write(
        "proc main(n: int) { array a[128];
            for i = 1 to n { a[i] = i * 2.0; } }",
    );
    let out = padfa()
        .args([
            "run",
            "--workers",
            "4",
            "--no-fallback",
            "--inject",
            "1:2:panic",
        ])
        .arg(&f.0)
        .arg("128")
        .output()
        .unwrap();
    assert_clean_failure(&out, "worker 1 panicked");
}

#[test]
fn injected_error_without_fallback_fails_cleanly() {
    let f = temppath::write(
        "proc main(n: int) { array a[128];
            for i = 1 to n { a[i] = i * 2.0; } }",
    );
    let out = padfa()
        .args([
            "run",
            "--workers",
            "4",
            "--no-fallback",
            "--inject",
            "0:2:error",
        ])
        .arg(&f.0)
        .arg("128")
        .output()
        .unwrap();
    assert_clean_failure(&out, "division by zero");
}

#[test]
fn injected_corruption_without_fallback_fails_cleanly() {
    let f = temppath::write(
        "proc main(n: int) { array a[128];
            for i = 1 to n { a[i] = i * 2.0; } }",
    );
    let out = padfa()
        .args([
            "run",
            "--workers",
            "4",
            "--no-fallback",
            "--inject",
            "2:2:corrupt",
        ])
        .arg(&f.0)
        .arg("128")
        .output()
        .unwrap();
    assert_clean_failure(&out, "corrupted state");
}

#[test]
fn deadline_fails_cleanly() {
    let f = temppath::write(
        "proc main(n: int) { var s: real;
            for i = 1 to n { s = s + 1.0; } }",
    );
    let out = padfa()
        .args(["run", "--seq", "--deadline-ms", "0"])
        .arg(&f.0)
        .arg("1000000000")
        .output()
        .unwrap();
    assert_clean_failure(&out, "deadline exceeded");
}

#[test]
fn bad_inject_spec_shows_usage_error() {
    let f = temppath::write("proc main(n: int) { print n; }");
    let out = padfa()
        .args(["run", "--inject", "zero:two:bang"])
        .arg(&f.0)
        .arg("1")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --inject spec"), "{err}");
}

#[test]
fn elpd_fuel_budget_reported() {
    let f = temppath::write(
        "proc main(n: int) { array a[64];
            for@hot i = 1 to n { a[1] = a[1] + 1.0; } }",
    );
    let out = padfa()
        .args(["elpd"])
        .arg(&f.0)
        .args(["hot", "--fuel", "100", "1000000"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("padfa: inspection failed:"), "{err}");
    assert!(err.contains("fuel budget exhausted"), "{err}");
}

#[test]
fn run_summary_includes_fallback_count() {
    let f = demo_file();
    let out = padfa()
        .args(["run"])
        .arg(&f.0)
        .args(["100", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 fallback(s)"), "{stderr}");
}

#[test]
fn analyze_summaries_prints_dataflow_values() {
    let f = demo_file();
    let out = padfa()
        .args(["analyze", "--summaries"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("summary of main"), "{text}");
    assert!(text.contains("W="), "{text}");
    assert!(text.contains("E="), "{text}");
}

/// `analyze` and `explain` write their report in one call; when that
/// write fails the command says so and exits 1.
#[test]
fn failed_report_write_exits_1() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let f = demo_file();
    for cmd in ["analyze", "explain"] {
        let sink = std::fs::OpenOptions::new().write(true).open(full).unwrap();
        let out = padfa().arg(cmd).arg(&f.0).stdout(sink).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains("cannot write the report"),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn usage_errors_exit_2() {
    let out = padfa().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = padfa().arg("analyze").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = padfa().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // One program is one thread: `--jobs` exists on `corpus` only
    // (programs at a time) and the scheduler's threshold flag nowhere.
    // (Spelled in two pieces so a grep for the removed flag finds no
    // code.)
    let f = demo_file();
    let file = f.0.to_str().unwrap();
    let threshold = ["--spawn", "threshold"].join("-");
    let rows: [&[&str]; 16] = [
        &["analyze", file, "--jobs", "2"],
        &["explain", file, "--jobs", "2"],
        &["serve", "--queue", "1", "--jobs"],
        &["analyze", file, &threshold, "0"],
        &["corpus", "--keep-going", &threshold, "0"],
        // An unknown `--flag` is a usage error, never the input file or
        // an entry argument.
        &["analyze", "--profle"],
        &["run", file, "--bogus", "3", "4"],
        &["elpd", file, "hot", "--bogus"],
        &["fmt", file, "--bogus"],
        // Settings that were removed because nothing set them.
        &["analyze", file, "--no-store"],
        &["corpus", "--no-store"],
        &["serve", "--no-store"],
        &["serve", "--write-timeout-ms", "100"],
        &["serve", "--max-body-bytes", "100"],
        &["explain", file, "--max-steps", "100"],
        &["explain", file, "--deadline-ms", "100"],
    ];
    for args in rows {
        let out = padfa().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage:"), "{args:?}: {err}");
    }
}

/// A word with a single dash is positional: a negative entry argument.
#[test]
fn negative_entry_arguments_stay_positional() {
    let f = demo_file();
    let out = padfa()
        .args(["run", "--seq"])
        .arg(&f.0)
        .args(["100", "-3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// No environment variable attaches a store: only `--store DIR` does.
#[test]
fn store_env_var_attaches_no_store() {
    let f = demo_file();
    let dir = store_dir("env");
    let out = padfa()
        .env("PADFA_STORE", &dir)
        .arg("analyze")
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(!dir.exists(), "PADFA_STORE created {}", dir.display());
}

#[test]
fn unreadable_file_exits_3() {
    let out = padfa()
        .arg("analyze")
        .arg("/nonexistent/padfa-no-such-file.mf")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn strict_budget_exhaustion_exits_4() {
    let f = demo_file();
    let out = padfa()
        .args(["analyze", "--max-steps", "1", "--strict"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("work budget exhausted"), "{err}");
}

#[test]
fn degrading_budget_still_succeeds_and_marks_loops() {
    let f = demo_file();
    let out = padfa()
        .args(["analyze", "--max-steps", "1"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("not-parallel (budget)"), "{text}");
    assert!(text.contains("degraded to conservative"), "{text}");
}

#[test]
fn corpus_classifies_every_program_and_resumes() {
    let ledger = std::env::temp_dir().join(format!(
        "padfa-cli-test-{}-corpus.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ledger);
    let out = padfa()
        .args(["corpus", "--max-steps", "1000", "--keep-going", "--ledger"])
        .arg(&ledger)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error, 0 panic"), "{text}");
    assert!(text.contains("per-suite loop attribution"), "{text}");

    let lines: Vec<String> = std::fs::read_to_string(&ledger)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    // Line 0 is the run stamp; every other line is one program row.
    assert!(lines.len() >= 2);
    assert!(
        lines[0].starts_with("{\"meta\":{\"schema_version\":"),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"git_rev\":"), "{}", lines[0]);
    assert!(lines[0].contains("\"host\":"), "{}", lines[0]);
    for line in &lines[1..] {
        assert!(line.starts_with("{\"name\":\""), "{line}");
        assert!(
            line.contains("\"outcome\":\"ok\"") || line.contains("\"outcome\":\"degraded\""),
            "{line}"
        );
        assert!(line.contains("\"won\":{\"base\":"), "{line}");
        assert!(line.contains("\"blocked\":"), "{line}");
    }

    // A resumed run skips everything already in the ledger and appends
    // nothing new.
    let out = padfa()
        .args([
            "corpus",
            "--max-steps",
            "1000",
            "--keep-going",
            "--resume",
            "--ledger",
        ])
        .arg(&ledger)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("skipped via --resume"), "{text}");
    let after: usize = std::fs::read_to_string(&ledger).unwrap().lines().count();
    assert_eq!(after, lines.len());
    let _ = std::fs::remove_file(&ledger);
}

/// `--resume` has nothing to resume from without a ledger: a usage
/// error, not a silent full run.
#[test]
fn corpus_resume_without_ledger_is_a_usage_error() {
    let out = padfa().args(["corpus", "--resume"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("padfa: --resume needs --ledger PATH"), "{err}");
}

/// A run killed mid-row leaves a truncated trailing ledger line.
/// `--resume` must not trust it: the partial row is dropped with a
/// warning and its program redone, leaving a complete ledger. Two cuts:
/// half-way through the row's fields, and just before `,"blocked":N}`,
/// where the cut row still ends in the `won` object's `}`.
#[test]
fn corpus_resume_redoes_truncated_ledger_row() {
    let ledger = std::env::temp_dir().join(format!(
        "padfa-cli-test-{}-truncated.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ledger);
    let corpus = |resume: bool| {
        let mut cmd = padfa();
        cmd.args(["corpus", "--max-steps", "1000", "--keep-going"]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.arg("--ledger").arg(&ledger).output().unwrap();
        assert_eq!(out.status.code(), Some(0));
        out
    };
    corpus(false);
    let full = std::fs::read_to_string(&ledger).unwrap();
    let complete_lines = full.lines().count();
    let last_line = full.lines().last().unwrap().to_string();
    let victim = last_line
        .strip_prefix("{\"name\":\"")
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();
    let mid_row = full.len() - last_line.len() / 2 - 1;
    let before_blocked = full.rfind(",\"blocked\":").unwrap();
    assert!(full[..before_blocked].ends_with('}'));

    for cut in [mid_row, before_blocked] {
        // Simulate the crash: keep the victim's name but cut the row,
        // with no trailing newline.
        std::fs::write(&ledger, &full.as_bytes()[..cut]).unwrap();
        let out = corpus(true);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("truncated row"), "{err}");
        assert!(err.contains(&victim), "{err}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("skipped via --resume"), "{text}");
        // The victim reran: it appears in the resumed run's console output.
        assert!(text.contains(&victim), "victim not redone: {text}");

        // The ledger is whole again: same row count, every row complete,
        // exactly one row per program name.
        let after = std::fs::read_to_string(&ledger).unwrap();
        assert_eq!(after.lines().count(), complete_lines, "cut at {cut}");
        assert!(after.ends_with('\n'));
        let mut names = Vec::new();
        for line in after.lines().skip(1) {
            assert!(line.starts_with("{\"name\":\""), "{line}");
            assert!(line.contains(",\"blocked\":"), "incomplete row: {line}");
            names.push(line.split('"').nth(3).unwrap().to_string());
        }
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate rows after resume");
    }
    let _ = std::fs::remove_file(&ledger);
}

/// The ledger does not depend on how many programs run at once: rows
/// from `--jobs 1` and `--jobs 4` are byte-identical once the meta line
/// is dropped and `"ms"` is zeroed.
#[test]
fn corpus_ledger_is_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("padfa-cli-test-{}-jobs", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = |jobs: &str| {
        let path = dir.join(format!("ledger_j{jobs}.jsonl"));
        let out = padfa()
            .args(["corpus", "--keep-going", "--jobs", jobs, "--ledger"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(out.status.success(), "--jobs {jobs}");
        let text = std::fs::read_to_string(&path).unwrap();
        let rows: Vec<String> = text
            .lines()
            .filter(|l| !l.starts_with("{\"meta\":"))
            .map(|l| {
                let at = l.find(",\"ms\":").expect("every row has ms") + 6;
                let digits = l[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
                format!("{}0{}", &l[..at], &l[at + digits..])
            })
            .collect();
        assert_eq!(rows.len(), 30, "--jobs {jobs}");
        rows
    };
    assert_eq!(ledger("1"), ledger("4"));
    let _ = std::fs::remove_dir_all(&dir);
}

fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("padfa-cli-test-{}-store-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Warm store reruns must be byte-identical on stdout (reports and
/// verdicts), with persistence fully transparent.
#[test]
fn analyze_store_warm_rerun_is_identical() {
    let f = demo_file();
    let dir = store_dir("warm");
    let run = || {
        padfa()
            .args(["analyze", "--all", "--store"])
            .arg(&dir)
            .arg(&f.0)
            .output()
            .unwrap()
    };
    let cold = run();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert!(cold.stderr.is_empty(), "cold run warned");
    let warm = run();
    assert!(warm.status.success());
    assert!(warm.stderr.is_empty(), "warm run warned");
    assert_eq!(cold.stdout, warm.stdout, "warm output differs from cold");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two processes started together on one store directory both run with
/// persistence — nothing turns one of them in-memory-only — and print
/// what a storeless run prints. A third run finds every entry.
#[test]
fn concurrent_analyze_processes_share_one_store() {
    use std::process::Stdio;
    let f = demo_file();
    let dir = store_dir("concurrent");
    let metrics = store_dir("concurrent-metrics.json");
    let plain = padfa().arg("analyze").arg(&f.0).output().unwrap();
    assert!(plain.status.success());
    let spawn = || {
        padfa()
            .args(["analyze", "--store"])
            .arg(&dir)
            .arg(&f.0)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    for child in [spawn(), spawn()] {
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        assert_eq!(out.stdout, plain.stdout, "a store run printed otherwise");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("warning:"), "{err}");
    }
    let third = padfa()
        .args(["analyze", "--store"])
        .arg(&dir)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(third.status.success());
    let counters = metrics_counters(&metrics);
    assert_eq!(counters["store.misses"], 0);
    assert!(counters["store.hits"] > 0);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&metrics);
}

/// An injected bit flip over a warmed store must quarantine the entry,
/// warn on stderr, and still produce identical results with exit 0.
#[test]
fn analyze_store_bitflip_degrades_soundly() {
    let f = demo_file();
    let dir = store_dir("bitflip");
    let base = padfa()
        .args(["analyze", "--all"])
        .arg(&f.0)
        .output()
        .unwrap();
    let warmup = padfa()
        .args(["analyze", "--all", "--store"])
        .arg(&dir)
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(warmup.status.success());
    let flipped = padfa()
        .args(["analyze", "--all", "--inject", "store-bitflip", "--store"])
        .arg(&dir)
        .arg(&f.0)
        .output()
        .unwrap();
    assert_eq!(flipped.status.code(), Some(0), "fault must not change exit");
    assert_eq!(flipped.stdout, base.stdout, "fault changed results");
    let err = String::from_utf8_lossy(&flipped.stderr);
    assert!(err.contains("quarantined"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store stamp is the build's, not the working directory's: one
/// binary run from inside the checkout and then from a directory outside
/// any checkout reads back what it wrote. (When the stamp was asked of
/// `git` at run time, the second run saw a different revision, deleted
/// the first run's entries as stale and missed.)
#[test]
fn store_stamp_does_not_depend_on_the_working_directory() {
    let f = demo_file();
    let dir = store_dir("cwd");
    let elsewhere = store_dir("cwd-elsewhere");
    std::fs::create_dir_all(&elsewhere).unwrap();
    let metrics = elsewhere.join("m.json");
    let run = |cwd: &std::path::Path| {
        let out = padfa()
            .current_dir(cwd)
            .args(["analyze", "--store"])
            .arg(&dir)
            .arg("--metrics-out")
            .arg(&metrics)
            .arg(&f.0)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        metrics_counters(&metrics)
    };
    let cold = run(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    assert_eq!((cold["store.hits"], cold["store.puts"]), (0, 1));
    let warm = run(&elsewhere);
    assert_eq!(warm["store.hits"], 1);
    assert_eq!(warm["store.stale"], 0);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&elsewhere);
}

/// No command spawns `git`: the build id and the revision label are
/// compiled in. A `git` first on `PATH` that leaves a marker when run
/// must never leave it.
#[cfg(unix)]
#[test]
fn no_command_runs_git() {
    use std::os::unix::fs::PermissionsExt;
    let f = demo_file();
    let dir = store_dir("nogit");
    let bin = dir.join("bin");
    std::fs::create_dir_all(&bin).unwrap();
    let marker = dir.join("git-was-run");
    let fake = bin.join("git");
    std::fs::write(
        &fake,
        format!("#!/bin/sh\ntouch '{}'\nexit 1\n", marker.display()),
    )
    .unwrap();
    std::fs::set_permissions(&fake, std::fs::Permissions::from_mode(0o755)).unwrap();
    let path = format!(
        "{}:{}",
        bin.display(),
        std::env::var("PATH").unwrap_or_default()
    );
    let s = |p: &std::path::Path| p.to_str().unwrap().to_owned();
    let (file, store) = (s(&f.0), s(&dir.join("store")));
    let (metrics, ledger) = (s(&dir.join("m.json")), s(&dir.join("l.jsonl")));
    for args in [
        vec!["analyze", &file, "--store", &store],
        vec!["analyze", &file, "--metrics-out", &metrics],
        vec![
            "corpus",
            "--store",
            &store,
            "--ledger",
            &ledger,
            "--metrics-out",
            &metrics,
        ],
    ] {
        let out = padfa().env("PATH", &path).args(&args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        assert!(!marker.exists(), "{args:?} ran git");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budgeted runs bypass the store (cached hits would skew step
/// accounting), with a warning rather than silent divergence.
#[test]
fn store_is_disabled_under_budget_with_warning() {
    let f = demo_file();
    let dir = store_dir("budget");
    let out = padfa()
        .args(["analyze", "--max-steps", "100000", "--store"])
        .arg(&dir)
        .arg(&f.0)
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("disabled under a work budget"), "{err}");
    assert!(!dir.exists(), "store dir created despite budget bypass");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_store_inject_spec_exits_2() {
    let f = demo_file();
    let out = padfa()
        .args(["analyze", "--inject", "store-seeded:notanumber:3"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --inject spec"), "{err}");

    let out = padfa()
        .args(["analyze", "--inject", "W:S:panic"])
        .arg(&f.0)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("only injects store-"), "{err}");
}

/// The closed-form emptiness test (the difference-bound closure) must
/// never change a byte of output, whether it is asked of a system or —
/// before anything is built — of the borrowed lists of a pair test, a
/// subtraction piece or an implication (the kill switch disables those
/// fronts too, so this is also the front-vs-materialized oracle): every
/// corpus source through `explain --json` (per-pair evidence, 240 KB for
/// `wave5` alone) and through `analyze --all --summaries` under the two
/// variants `explain` does not run, and 300 generated programs through
/// `analyze --all --summaries`, each with and without the switch. It is
/// read once per process, so each side is a spawn of the built binary.
#[test]
fn forced_general_tier_changes_no_output_byte() {
    use padfa_ir::testgen::{random_program, GenConfig};

    let dir = std::env::temp_dir().join(format!("padfa-cli-test-{}-tiers", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut inputs: Vec<(std::path::PathBuf, &[&str])> = Vec::new();
    let mut add = |name: String, source: &str, runs: &[&'static [&'static str]]| {
        let path = dir.join(name);
        std::fs::write(&path, source).unwrap();
        inputs.extend(runs.iter().map(|&args| (path.clone(), args)));
    };
    for bench in padfa_suite::corpus::build_corpus() {
        add(
            format!("{}.mf", bench.name),
            &bench.source,
            &[
                &["explain", "--json"],
                &["analyze", "--all", "--summaries", "--variant", "base"],
                &["analyze", "--all", "--summaries", "--variant", "guarded"],
            ],
        );
    }
    for seed in 0..300 {
        let source =
            padfa_ir::pretty::program_to_string(&random_program(seed, GenConfig::default()));
        add(
            format!("gen{seed}.mf"),
            &source,
            &[&["analyze", "--all", "--summaries"]],
        );
    }
    assert_eq!(inputs.len(), 390);

    for (path, args) in &inputs {
        let run = |forced: bool| {
            let mut cmd = padfa();
            cmd.args(*args)
                .arg(path)
                .env_remove("PADFA_FORCE_GENERAL_TIER");
            if forced {
                cmd.env("PADFA_FORCE_GENERAL_TIER", "1");
            }
            let out = cmd.output().unwrap();
            assert!(
                out.status.success(),
                "{args:?} {} (forced general: {forced}): {}",
                path.display(),
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let (tiered, general) = (run(false), run(true));
        assert!(
            !tiered.is_empty(),
            "{args:?} {} printed nothing",
            path.display()
        );
        assert!(
            tiered == general,
            "{args:?} {}: output differs under PADFA_FORCE_GENERAL_TIER=1",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `"counters"` object of a `--metrics-out` file.
fn metrics_counters(path: &std::path::Path) -> std::collections::BTreeMap<String, u64> {
    let json = std::fs::read_to_string(path).unwrap();
    let needle = "\"counters\":{";
    let start = json.find(needle).expect("no counters object") + needle.len();
    let body = &json[start..start + json[start..].find('}').unwrap()];
    body.split(',')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once(':').unwrap();
            (k.trim_matches('"').to_string(), v.parse().unwrap())
        })
        .collect()
}

/// `corpus --metrics-out` is the fold of what `analyze --metrics-out`
/// reports per program: counters add up, `peak.*` keeps the maximum.
#[test]
fn corpus_metrics_are_the_fold_of_per_program_metrics() {
    let dir = std::env::temp_dir().join(format!("padfa-cli-test-{}-fold", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut folded = std::collections::BTreeMap::<String, u64>::new();
    for bench in padfa_suite::corpus::build_corpus() {
        let (src, out) = (dir.join(format!("{}.mf", bench.name)), dir.join("one.json"));
        std::fs::write(&src, &bench.source).unwrap();
        let run = padfa()
            .args(["analyze", "--metrics-out"])
            .arg(&out)
            .arg(&src)
            .output()
            .unwrap();
        assert!(run.status.success(), "{}", bench.name);
        for (k, v) in metrics_counters(&out) {
            let slot = folded.entry(k.clone()).or_insert(0);
            *slot = if k.starts_with("peak.") {
                (*slot).max(v)
            } else {
                *slot + v
            };
        }
    }
    let out = dir.join("corpus.json");
    let run = padfa()
        .args(["corpus", "--metrics-out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(run.status.success());
    let corpus = metrics_counters(&out);
    assert_eq!(corpus, folded);
    assert_eq!(corpus["query.sys_empty.total"], 17_748);
    assert_eq!(corpus["fm.projections"], 8_445);
    assert_eq!(corpus["interned.regions"], 6_204);
    // The tier census: every emptiness question a corpus pass asks is a
    // difference-bound system. A new input shape that reaches
    // elimination shows up here first.
    assert_eq!(corpus["tier.sys_empty.dense"], 17_748);
    assert_eq!(corpus["tier.sys_empty.general"], 0);
    assert_eq!(corpus["tier.intersect.dense"], 0);
    assert_eq!(corpus["tier.intersect.general"], 3_292);
    assert_eq!(corpus["tier.subset.general"], 8);
    // The materialization census: of the pair-orders the dependence and
    // privatization tests decide, the ones refuted from the borrowed
    // lists, for which no intersection was built.
    assert_eq!(corpus["deptest.orders.total"], 13_814);
    assert_eq!(corpus["deptest.orders.refuted"], 10_840);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec that names a fault site but breaks its grammar is a usage
/// error naming that grammar, before anything runs or binds.
#[test]
fn bad_inject_specs_name_their_grammar() {
    let f = demo_file();
    let file = f.0.to_str().unwrap();
    let rows: [(&[&str], &str); 4] = [
        (
            &["analyze", file, "--inject", "store-bitflip:x"],
            "store-bitflip[:N]",
        ),
        (
            &["corpus", "--inject", "store-seeded:1"],
            "store-seeded:SEED:COUNT",
        ),
        (
            &["serve", "--inject", "worker-panic:1:2"],
            "worker-panic[:K]",
        ),
        (
            &["run", file, "--inject", "0:1:explode"],
            "WORKER:STMT:panic|error|corrupt",
        ),
    ];
    for (args, grammar) in rows {
        let out = padfa().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad --inject spec"), "{args:?}: {err}");
        assert!(err.contains(grammar), "{args:?}: {err}");
    }
}

/// The daemon end to end, from the built binary: an injected worker
/// panic costs one 500 that names its flight dump, the next request is
/// served, the `/metrics` scrape passes the exposition checker, and
/// SIGTERM drains cleanly with exit 0.
#[cfg(unix)]
#[test]
fn serve_survives_an_injected_panic_and_drains_on_sigterm() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let f = temppath::write(
        "proc main(n: int, x: int) {
            array help[101];
            var s: real;
            for@hot i = 1 to n {
                if (x > 5) { help[i] = 0.5; }
                s = s + help[i + 1];
            }
            print s;
        }",
    );
    let program = std::fs::read(&f.0).unwrap();
    let dumps = store_dir("serve-dumps");
    let mut child = padfa()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .args(["--inject", "worker-panic:1", "--flight-dump-dir"])
        .arg(&dumps)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    /// Kills the daemon if an assertion fails before the drain.
    struct Reap(Option<std::process::Child>);
    impl Drop for Reap {
        fn drop(&mut self) {
            if let Some(c) = &mut self.0 {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let child_pid = child.id();
    let mut daemon = Reap(Some(child));
    let port = banner
        .split("http://127.0.0.1:")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no port in banner: {banner}"));
    let addr = format!("127.0.0.1:{port}");
    let request = |method: &str, path: &str, body: &[u8]| {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let (head, body) = reply.split_once("\r\n\r\n").unwrap();
        let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
        (status, body.to_string())
    };

    let (status, body) = request("POST", "/analyze", &program);
    assert_eq!(status, 500, "{body}");
    let dump = body
        .split("\"flight_dump\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("500 names no flight dump: {body}"));
    assert!(
        dump.ends_with(&format!("padfa-flight-{child_pid}-panic-1.json")),
        "{dump}"
    );
    let dumped = std::fs::read_to_string(dump).unwrap();
    assert!(dumped.contains("\"events\":["), "{dump}");

    let (status, body) = request("POST", "/analyze", &program);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"outcome\":\"parallel-if\""), "{body}");

    let (status, metrics) = request("GET", "/metrics", b"");
    assert_eq!(status, 200);
    if let Err(violations) = padfa::service::check_exposition(&metrics) {
        panic!("/metrics failed the exposition checker: {violations:?}\n{metrics}");
    }

    let child = daemon.0.take().unwrap();
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("panics=1"), "{err}");
    assert!(err.contains("clean=true"), "{err}");
    let _ = std::fs::remove_dir_all(&dumps);
}
