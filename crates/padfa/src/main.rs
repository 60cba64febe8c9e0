//! `padfa` — command-line driver for the predicated array data-flow
//! analysis. Run it without arguments for the usage; README.md walks
//! through each command.
//!
//! Every command reads its words with one cursor ([`parse_args`]): flags
//! may come in any order among the positional words, a word that starts
//! with `--` but is no flag of the command is a usage error, and a word
//! with a single dash (a negative entry argument) stays positional. The
//! flag groups several commands share — the analysis variant, the work
//! budget, the store, `--metrics-out` and `--inject` — are each parsed
//! by one function. `--inject` arms a [`padfa::analysis::FaultPlan`] at
//! one of the three fault sites (executor, store, daemon), and each site
//! owns its spec grammar.
//!
//! ## Exit codes
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | success (degraded summaries still count as success)  |
//! | 1    | runtime/execution failure (`run`, `elpd`), or the    |
//! |      | report could not be written to stdout                |
//! | 2    | usage error                                          |
//! | 3    | unreadable input or parse/malformed-IR error         |
//! | 4    | work budget exhausted under `--strict`               |
//! | 5    | internal invariant failure (analyzer bug or panic)   |

use padfa::analysis::{flight, json_escape, FaultPlan, SpecError, Store, StoreFault};
use padfa::prelude::*;
use padfa::rt::WorkerFault;
use padfa::service::ServiceFault;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  padfa analyze <file.mf> [--variant base|guarded|predicated] [--all]\n               \
         [--summaries] [--stats] [--profile] [--max-steps N] [--deadline-ms N]\n               \
         [--strict] [--trace PATH] [--metrics-out PATH] [--store DIR]\n               \
         [--inject store-FAULT]\n  \
         padfa explain <file.mf> [--loop <label-or-id>] [--json] [--variant V]\n  \
         padfa run <file.mf> [--workers N] [--seq] [--fuel N] [--deadline-ms N]\n            \
         [--no-fallback] [--inject W:S:panic|error|corrupt] [ARG...]\n  \
         padfa elpd <file.mf> <loop-label-or-id> [--fuel N] [ARG...]\n  \
         padfa fmt <file.mf>\n  \
         padfa corpus [--variant V] [--jobs N] [--max-steps N] [--deadline-ms N]\n               \
         [--ledger PATH] [--resume] [--keep-going] [--metrics-out PATH]\n               \
         [--store DIR] [--inject store-FAULT]\n  \
         padfa serve [--addr HOST:PORT] [--workers N] [--queue N]\n              \
         [--default-max-steps N] [--max-steps-ceiling N]\n              \
         [--default-deadline-ms N] [--deadline-ms-ceiling N]\n              \
         [--read-timeout-ms N] [--drain-deadline-ms N]\n              \
         [--slow-ms N] [--slow-log PATH] [--flight-dump-dir DIR]\n              \
         [--store DIR] [--inject FAULT]"
    );
    exit(2)
}

/// Ledger / snapshot schema version. Bump when a field changes meaning.
const SCHEMA_VERSION: u32 = 3;

/// Coarse host identification for run stamps.
fn host_info() -> String {
    let host = std::env::var("HOSTNAME")
        .or_else(|_| std::env::var("HOST"))
        .unwrap_or_else(|_| "unknown-host".to_string());
    format!(
        "{host} ({} {})",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Map a typed analysis error to the documented exit code.
fn exit_code(e: &AnalysisError) -> i32 {
    match e {
        AnalysisError::Parse(_) | AnalysisError::MalformedIr(_) => 3,
        AnalysisError::BudgetExhausted { .. } => 4,
        AnalysisError::Internal(_) => 5,
    }
}

fn load(path: &str) -> Program {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("padfa: cannot read {path}: {e}");
        exit(3)
    });
    let _parse = flight::span(flight::EventKind::Parse, path);
    parse_program(&src).unwrap_or_else(|e| {
        eprintln!("{path}:{}:{}: error: {}", e.line, e.col, e.msg);
        exit(3)
    })
}

/// Build entry arguments from CLI words, zero-filling array parameters.
fn entry_args(prog: &Program, words: &[&str]) -> Vec<ArgValue> {
    let Some(entry) = prog.entry() else {
        eprintln!("padfa: program has no entry procedure");
        exit(1)
    };
    let mut out = Vec::new();
    let mut word = 0usize;
    for param in &entry.params {
        match &param.ty {
            padfa::ir::ParamTy::Scalar(ty) => {
                let w = words.get(word).unwrap_or_else(|| {
                    eprintln!(
                        "padfa: missing value for scalar parameter '{}' of '{}'",
                        param.name, entry.name
                    );
                    exit(1)
                });
                word += 1;
                match ty {
                    padfa::ir::ScalarTy::Int => match w.parse::<i64>() {
                        Ok(v) => out.push(ArgValue::Int(v)),
                        Err(_) => {
                            eprintln!(
                                "padfa: '{w}' is not an integer (parameter '{}')",
                                param.name
                            );
                            exit(1)
                        }
                    },
                    padfa::ir::ScalarTy::Real => match w.parse::<f64>() {
                        Ok(v) => out.push(ArgValue::Real(v)),
                        Err(_) => {
                            eprintln!("padfa: '{w}' is not a number (parameter '{}')", param.name);
                            exit(1)
                        }
                    },
                }
            }
            padfa::ir::ParamTy::Array { dims, ty } => {
                let mut extents = Vec::new();
                for d in dims {
                    match padfa::ir::affine::to_linexpr(d).filter(|l| l.is_const()) {
                        Some(l) if l.konst() >= 0 => extents.push(l.konst() as usize),
                        _ => {
                            eprintln!(
                                "padfa: array parameter '{}' needs constant extents to be \
                                 zero-filled from the command line",
                                param.name
                            );
                            exit(1)
                        }
                    }
                }
                out.push(ArgValue::Array(padfa::rt::ArrayStore::zeros(extents, *ty)));
            }
        }
    }
    if word < words.len() {
        eprintln!("padfa: {} extra argument(s)", words.len() - word);
        exit(1)
    }
    out
}

fn variant_options(name: &str) -> Options {
    match name {
        "base" => Options::base(),
        "guarded" => Options::guarded(),
        "predicated" => Options::predicated(),
        other => {
            eprintln!("padfa: unknown variant '{other}'");
            exit(2)
        }
    }
}

/// A cursor over one command's words, for the flag the command is
/// reading to take its value from.
struct Args<'a> {
    cmd: &'static str,
    words: std::slice::Iter<'a, String>,
}

impl Args<'_> {
    /// The next word as the value of the flag just read; a missing or
    /// unparsable value is a usage error.
    fn value<T: std::str::FromStr>(&mut self) -> T {
        self.words
            .next()
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| usage())
    }
}

/// Walk command `cmd`'s words. `flag(args, word)` consumes a flag it
/// knows, reading any value from `args`, and says whether it did. The
/// words no flag takes are returned as the positional words, except that
/// one starting with `--` is a usage error: an unknown flag is never read
/// as an input file or an entry argument.
fn parse_args<'a>(
    cmd: &'static str,
    words: &'a [String],
    mut flag: impl FnMut(&mut Args<'a>, &str) -> bool,
) -> Vec<&'a str> {
    let mut args = Args {
        cmd,
        words: words.iter(),
    };
    let mut positional = Vec::new();
    while let Some(w) = args.words.next() {
        if !flag(&mut args, w) {
            if w.starts_with("--") {
                usage()
            }
            positional.push(w.as_str());
        }
    }
    positional
}

/// The variant group: `--variant V`.
fn variant_flag(a: &mut Args, w: &str, variant: &mut String) -> bool {
    let known = w == "--variant";
    if known {
        *variant = a.value();
    }
    known
}

/// The budget group: `--max-steps N`, `--deadline-ms N`, `--strict`.
fn budget_flag(a: &mut Args, w: &str, budget: &mut WorkBudget) -> bool {
    match w {
        "--max-steps" => budget.max_steps = Some(a.value()),
        "--deadline-ms" => budget.deadline_ms = Some(a.value()),
        "--strict" => budget.on_exhausted = OnExhausted::Error,
        _ => return false,
    }
    true
}

/// The store group: `--store DIR`. Without it a command runs with no
/// store.
fn store_flag(a: &mut Args, w: &str, dir: &mut Option<String>) -> bool {
    let known = w == "--store";
    if known {
        *dir = Some(a.value());
    }
    known
}

/// The metrics group: `--metrics-out PATH`.
fn metrics_flag(a: &mut Args, w: &str, out: &mut Option<String>) -> bool {
    let known = w == "--metrics-out";
    if known {
        *out = Some(a.value());
    }
    known
}

/// The inject group: `--inject SPEC`. `arm` offers the spec to the
/// command's fault sites (the ones `sites` names) in turn; a spec none
/// of them claims, or one that breaks its site's grammar, is a usage
/// error.
fn inject_flag(
    a: &mut Args,
    w: &str,
    sites: &str,
    arm: impl FnOnce(&str) -> Result<bool, SpecError>,
) -> bool {
    if w != "--inject" {
        return false;
    }
    let spec: String = a.value();
    match arm(&spec) {
        Ok(true) => true,
        Ok(false) => {
            eprintln!("padfa: {} only injects {sites} faults, got '{spec}'", a.cmd);
            exit(2)
        }
        Err(e) => {
            eprintln!("padfa: {e}");
            exit(2)
        }
    }
}

/// Open the store `--store` named, if any. Opening never fails: an
/// unusable directory yields a degraded (in-memory-only) store whose
/// warnings the caller drains.
fn open_store(
    dir: Option<&str>,
    faults: FaultPlan<StoreFault>,
    budget: &WorkBudget,
) -> Option<Arc<Store>> {
    let dir = dir?;
    if !budget.is_unlimited() {
        eprintln!(
            "padfa: warning: persistent store disabled under a work budget \
             (cached results would change step accounting)"
        );
        return None;
    }
    let cfg = padfa::analysis::StoreConfig::new(dir, padfa::analysis::BUILD_ID).with_faults(faults);
    Some(Arc::new(Store::open(cfg)))
}

/// Print every pending store warning (corruption, IO degradation) to
/// stderr. Warnings never affect results or exit codes.
fn drain_store_warnings(store: &Store) {
    for w in store.take_warnings() {
        eprintln!("padfa: warning: {w}");
    }
}

fn cmd_analyze(args: &[String]) {
    let mut variant = "predicated".to_string();
    let (mut show_all, mut show_summaries, mut show_stats, mut show_profile) =
        (false, false, false, false);
    let mut budget = WorkBudget::UNLIMITED;
    let mut store_dir = None;
    let mut store_faults = FaultPlan::none();
    let mut trace_out: Option<String> = None;
    let mut metrics_out = None;
    let [path] = parse_args("analyze", args, |a, w| {
        match w {
            "--all" => show_all = true,
            "--summaries" => show_summaries = true,
            "--stats" => show_stats = true,
            "--profile" => show_profile = true,
            "--trace" => trace_out = Some(a.value()),
            _ => {
                return variant_flag(a, w, &mut variant)
                    || budget_flag(a, w, &mut budget)
                    || store_flag(a, w, &mut store_dir)
                    || metrics_flag(a, w, &mut metrics_out)
                    || inject_flag(a, w, "store-*", |s| store_faults.arm(s))
            }
        }
        true
    })[..] else {
        usage()
    };
    // Mark the flight-recorder high-water mark now so `--profile` and
    // `--trace` cover exactly this run's events (parse included).
    let flight_wm = flight::watermark();
    let prog = load(path);
    let opts = variant_options(&variant).with_budget(budget);
    let store = open_store(store_dir.as_deref(), store_faults, &opts.budget);
    let mut sess = padfa::analysis::AnalysisSession::new(opts);
    if let Some(s) = &store {
        sess = sess.with_store(Arc::clone(s));
    }
    if show_summaries {
        sess = sess.with_summaries();
    }
    let (mut result, summaries) = match padfa::analysis::analyze_program_session(&prog, &sess) {
        Ok(out) => out,
        Err(e) => {
            if let Some(s) = &store {
                drain_store_warnings(s);
            }
            eprintln!("padfa: {path}: {e}");
            exit(exit_code(&e))
        }
    };
    if let Some(s) = &store {
        result.stats.store = Some(s.stats());
        drain_store_warnings(s);
    }
    if let Some(out_path) = &trace_out {
        let json = flight::chrome_json(&flight::select(flight_wm, None));
        if let Err(e) = std::fs::write(out_path, json) {
            eprintln!("padfa: cannot write trace {out_path}: {e}");
            exit(1)
        }
        eprintln!("trace written to {out_path} (load in Perfetto or chrome://tracing)");
        if let Some(note) = ring_wrapped_note() {
            eprintln!("{note}");
        }
    }
    if let Some(out_path) = &metrics_out {
        let reg = padfa::analysis::MetricsRegistry::new();
        result.stats.publish(&reg);
        let json = format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"git_rev\":\"{}\",\"host\":\"{}\",\
             \"variant\":\"{}\",\"metrics\":{}}}",
            json_escape(padfa::analysis::GIT_REV),
            json_escape(&host_info()),
            json_escape(&variant),
            reg.snapshot_json()
        );
        if let Err(e) = std::fs::write(out_path, json) {
            eprintln!("padfa: cannot write metrics {out_path}: {e}");
            exit(1)
        }
    }
    let mut out = String::new();
    if show_summaries {
        let mut names: Vec<&String> = summaries.keys().collect();
        names.sort();
        for name in names {
            let _ = writeln!(out, "== summary of {name} ==\n{}", summaries[name]);
        }
    }
    let mut parallel = 0;
    let mut rt = 0;
    for report in &result.loops {
        if report.parallelized() {
            parallel += 1;
        }
        if matches!(report.outcome, Outcome::ParallelIf(_)) {
            rt += 1;
        }
        if show_all || report.parallelized() || report.not_candidate.is_some() {
            let _ = writeln!(out, "{report}");
        }
    }
    let _ = writeln!(
        out,
        "\n{} loops: {} parallelized ({} with run-time tests) under the {} analysis",
        result.loops.len(),
        parallel,
        rt,
        variant
    );
    if result.stats.degraded_procs > 0 {
        let _ = writeln!(
            out,
            "note: {} procedure(s) hit the work budget and were degraded to \
             conservative (sequential) summaries",
            result.stats.degraded_procs
        );
    }
    if show_stats {
        let _ = write!(out, "\n== session statistics ==\n{}", result.stats);
    }
    if show_profile {
        write_flight_profile(&mut out, flight_wm);
    }
    emit(&out);
    finish_without_teardown((sess, prog, result, summaries));
}

/// Write a command's whole report to stdout in one call (stdout is line
/// buffered: printing line by line was one `write(2)` per line). A
/// failed write ends the process with exit code 1.
fn emit(report: &str) {
    if let Err(e) = std::io::stdout().lock().write_all(report.as_bytes()) {
        eprintln!("padfa: cannot write the report to stdout: {e}");
        exit(1)
    }
}

/// End a one-shot command whose report is printed: flush stdout and
/// return to `main` with the analysis state leaked. Freeing the session,
/// the AST and the result tables node by node just before `exit` was
/// ~5 % of `analyze`. Nothing leaked has an effect outside the process:
/// every store entry was complete on disk when its put returned.
fn finish_without_teardown<T>(state: T) {
    // Nothing is printed after this; a closed pipe is the reader's
    // choice, not an analysis failure.
    let _ = std::io::stdout().flush();
    std::mem::forget(state);
}

/// Append the per-phase self-time table reconstructed from the flight
/// recorder (`analyze --profile`). `watermark` bounds the table to the
/// current run's events.
fn write_flight_profile(out: &mut String, watermark: u64) {
    let prof = flight::profile(&flight::select(watermark, None));
    let _ = writeln!(out, "\n== flight profile (per phase) ==");
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "phase", "spans", "instants", "total_us", "self_us", "max_us", "value"
    );
    for (kind, st) in &prof {
        let _ = writeln!(
            out,
            "{:<18} {:>6} {:>8} {:>12} {:>12} {:>10} {:>10}",
            kind.name(),
            st.spans,
            st.instants,
            st.total_us,
            st.self_us,
            st.max_us,
            st.value
        );
    }
    if let Some(note) = ring_wrapped_note() {
        let _ = writeln!(out, "{note}");
    }
}

/// What `--profile` and `--trace` say when the run recorded more events
/// than the flight ring holds: they were folded from the survivors.
fn ring_wrapped_note() -> Option<String> {
    let dropped = flight::overflows();
    (dropped > 0).then(|| {
        format!(
            "note: ring wrapped ({dropped} event(s) overwritten); \
             totals cover surviving events only"
        )
    })
}

/// `padfa explain`: print the decision-provenance tree behind every
/// loop verdict (or one loop selected by `--loop <label-or-id>`).
fn cmd_explain(args: &[String]) {
    let mut variant = "predicated".to_string();
    let mut target: Option<String> = None;
    let mut json = false;
    let [path] = parse_args("explain", args, |a, w| {
        match w {
            "--loop" => target = Some(a.value()),
            "--json" => json = true,
            _ => return variant_flag(a, w, &mut variant),
        }
        true
    })[..] else {
        usage()
    };
    let prog = load(path);
    let sess = padfa::analysis::AnalysisSession::new(variant_options(&variant));
    let (result, _) = match padfa::analysis::analyze_program_session(&prog, &sess) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("padfa: {path}: {e}");
            exit(exit_code(&e))
        }
    };
    let selected: Vec<_> = match &target {
        Some(t) => {
            let hits: Vec<_> = result
                .loops
                .iter()
                .filter(|r| {
                    r.label.as_deref() == Some(t.as_str())
                        || t.parse::<u32>().is_ok_and(|n| r.id.0 == n)
                })
                .collect();
            if hits.is_empty() {
                eprintln!("padfa: no analyzed loop labeled or numbered '{t}'");
                exit(1)
            }
            hits
        }
        None => result.loops.iter().collect(),
    };
    let mut out = String::new();
    if json {
        let loops: Vec<String> = selected
            .iter()
            .map(|r| padfa::analysis::loop_json(r))
            .collect();
        let _ = writeln!(
            out,
            "{{\"schema_version\":{SCHEMA_VERSION},\"file\":\"{}\",\"variant\":\"{}\",\
             \"loops\":[{}]}}",
            json_escape(path),
            json_escape(&variant),
            loops.join(",")
        );
    } else {
        for (i, r) in selected.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&padfa::analysis::render_text(r));
        }
    }
    emit(&out);
    finish_without_teardown((sess, prog, result));
}

/// One corpus-run outcome, serialized as a ledger line.
#[derive(Default)]
struct CorpusRow {
    name: String,
    suite: &'static str,
    outcome: &'static str,
    ms: u128,
    loops: usize,
    parallel: usize,
    steps: u64,
    peak_disjuncts: usize,
    peak_constraints: usize,
    degraded_procs: u64,
    limit_overflows: u64,
    /// Parallelized loops won by each mechanism, indexed by
    /// [`padfa::analysis::Mechanism`] discriminant order.
    won: [u64; 5],
    /// Sequential candidate loops attributed to a concrete blocking
    /// dependence, exposed read, or budget event.
    blocked: u64,
    error: Option<String>,
}

impl CorpusRow {
    fn to_jsonl(&self) -> String {
        let mut line = format!(
            "{{\"name\":\"{}\",\"suite\":\"{}\",\"outcome\":\"{}\",\"ms\":{},\
             \"loops\":{},\"parallel\":{},\"steps\":{},\"peak_disjuncts\":{},\
             \"peak_constraints\":{},\"degraded_procs\":{},\"limit_overflows\":{}",
            json_escape(&self.name),
            json_escape(self.suite),
            self.outcome,
            self.ms,
            self.loops,
            self.parallel,
            self.steps,
            self.peak_disjuncts,
            self.peak_constraints,
            self.degraded_procs,
            self.limit_overflows,
        );
        line.push_str(",\"won\":{");
        for (i, m) in padfa::analysis::Mechanism::ALL.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{}", m.label(), self.won[i]));
        }
        line.push_str(&format!("}},\"blocked\":{}", self.blocked));
        if let Some(err) = &self.error {
            line.push_str(&format!(",\"error\":\"{}\"", json_escape(err)));
        }
        line.push('}');
        line
    }
}

/// Names already present in an existing ledger (for `--resume`). The
/// ledger is our own output format, so a plain prefix scan of each
/// line's `"name":"..."` field is sufficient — no JSON parser needed.
///
/// A run killed mid-write can leave a truncated final row. Such a row
/// must not count as done — the program's result never made it to disk
/// — so only rows that end in a newline are trusted (the runner writes
/// whole lines; a cut can still end in the `won` object's `}`); a
/// partial row is reported and its program redone.
fn ledger_names(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut names = Vec::new();
    for l in text.split_inclusive('\n') {
        let Some(rest) = l.strip_prefix("{\"name\":\"") else {
            continue;
        };
        let Some(name) = rest.split('"').next() else {
            continue;
        };
        if !l.ends_with('\n') {
            eprintln!(
                "padfa: warning: ledger {path}: truncated row for '{name}' \
                 (interrupted run?); it will be redone"
            );
            continue;
        }
        names.push(name.to_string());
    }
    names
}

/// Drop a truncated trailing line (one with no terminating newline) left
/// by an interrupted run, so resumed rows start on a fresh line instead
/// of being glued onto the partial row. Complete rows always end in a
/// newline (the runner writes and flushes whole lines).
fn trim_partial_ledger_line(path: &str) {
    let Ok(bytes) = std::fs::read(path) else {
        return;
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return;
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    eprintln!(
        "padfa: warning: ledger {path}: dropping {} byte(s) of truncated trailing row",
        bytes.len() - keep
    );
    match std::fs::OpenOptions::new().write(true).open(path) {
        Ok(f) => {
            if let Err(e) = f.set_len(keep as u64) {
                eprintln!("padfa: cannot truncate ledger {path}: {e}");
                exit(1)
            }
        }
        Err(e) => {
            eprintln!("padfa: cannot open ledger {path}: {e}");
            exit(1)
        }
    }
}

fn cmd_corpus(args: &[String]) {
    let mut variant = "predicated".to_string();
    let mut jobs = 1usize;
    let mut budget = WorkBudget::UNLIMITED;
    let mut ledger: Option<String> = None;
    let (mut resume, mut keep_going) = (false, false);
    let mut metrics_out = None;
    let mut store_dir = None;
    let mut store_faults = FaultPlan::none();
    let positional = parse_args("corpus", args, |a, w| {
        match w {
            "--jobs" => jobs = a.value::<std::num::NonZeroUsize>().get(),
            "--ledger" => ledger = Some(a.value()),
            "--resume" => resume = true,
            "--keep-going" => keep_going = true,
            _ => {
                return variant_flag(a, w, &mut variant)
                    || budget_flag(a, w, &mut budget)
                    || store_flag(a, w, &mut store_dir)
                    || metrics_flag(a, w, &mut metrics_out)
                    || inject_flag(a, w, "store-*", |s| store_faults.arm(s))
            }
        }
        true
    });
    if !positional.is_empty() {
        usage()
    }
    if resume && ledger.is_none() {
        eprintln!("padfa: --resume needs --ledger PATH");
        exit(2)
    }
    let opts = variant_options(&variant).with_budget(budget);
    let store = open_store(store_dir.as_deref(), store_faults, &opts.budget);
    if let Some(s) = &store {
        drain_store_warnings(s); // surface open-time problems up front
    }

    let done: Vec<String> = match (&ledger, resume) {
        (Some(path), true) => {
            let names = ledger_names(path);
            trim_partial_ledger_line(path);
            names
        }
        _ => Vec::new(),
    };
    let mut ledger_file = ledger.as_ref().map(|path| {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(resume)
            .truncate(!resume)
            .write(true)
            .open(path)
            .unwrap_or_else(|e| {
                eprintln!("padfa: cannot open ledger {path}: {e}");
                exit(1)
            });
        std::io::BufWriter::new(f)
    });
    // Stamp fresh ledgers so rows stay attributable to a revision and
    // host. `--resume` scans only `{"name":"` prefixes, so the meta
    // line is invisible to it.
    if let (Some(f), false) = (&mut ledger_file, resume) {
        let meta = format!(
            "{{\"meta\":{{\"schema_version\":{SCHEMA_VERSION},\"git_rev\":\"{}\",\
             \"host\":\"{}\",\"variant\":\"{}\",\"jobs\":{jobs}}}}}",
            json_escape(padfa::analysis::GIT_REV),
            json_escape(&host_info()),
            json_escape(&variant),
        );
        if let Err(e) = writeln!(f, "{meta}") {
            eprintln!("padfa: cannot write ledger: {e}");
            exit(1)
        }
    }

    let corpus = padfa::suite::build_corpus();
    let total = corpus.len();
    let mut counts = [0usize; 4]; // ok, degraded, error, panic
    let mut first_failure: Option<i32> = None;
    // Winning-mechanism attribution per suite (the paper's table): how
    // many parallelized loops each technique won, plus the sequential
    // candidates pinned to a concrete blocker.
    let mut attribution: std::collections::BTreeMap<&'static str, ([u64; 5], u64)> =
        std::collections::BTreeMap::new();
    let aggregate = metrics_out
        .as_ref()
        .map(|_| padfa::analysis::MetricsRegistry::new());
    let started = std::time::Instant::now();
    let pending: Vec<&padfa::suite::BenchProgram> = corpus
        .iter()
        .filter(|bp| !done.iter().any(|n| n == bp.name))
        .collect();
    let skipped = total - pending.len();
    // Up to `jobs` programs run concurrently, each in a session of its
    // own against the shared store. Rows come back in input order, so
    // the ledger is byte-identical to the sequential run.
    let results = padfa::analysis::par_map_jobs(jobs, &pending, |_, bp| {
        let t0 = std::time::Instant::now();
        // Each program runs behind its own unwind boundary: a panicking
        // program must not take the rest of the corpus down with it.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sess = padfa::analysis::AnalysisSession::new(opts.clone());
            if let Some(s) = &store {
                sess = sess.with_store(Arc::clone(s));
            }
            padfa::analysis::analyze_program_session(&bp.program, &sess)
        }));
        let ms = t0.elapsed().as_millis();
        let row = |outcome, error| CorpusRow {
            name: bp.name.to_string(),
            suite: bp.suite.label(),
            outcome,
            ms,
            error,
            ..CorpusRow::default()
        };
        match run {
            Ok(Ok((result, _))) => {
                let mut won = [0u64; 5];
                let mut blocked = 0u64;
                for r in &result.loops {
                    if let Some(w) = r.provenance.winner {
                        won[w as usize] += 1;
                    } else if r.not_candidate.is_none() && r.provenance.has_blocker() {
                        blocked += 1;
                    }
                }
                let outcome = if result.stats.degraded_procs > 0 {
                    "degraded"
                } else {
                    "ok"
                };
                let row = CorpusRow {
                    loops: result.loops.len(),
                    parallel: result.loops.iter().filter(|r| r.parallelized()).count(),
                    steps: result.stats.budget_steps,
                    peak_disjuncts: result.stats.peak_disjuncts,
                    peak_constraints: result.stats.peak_constraints,
                    degraded_procs: result.stats.degraded_procs,
                    limit_overflows: result.stats.limit_overflows,
                    won,
                    blocked,
                    ..row(outcome, None)
                };
                (row, Some(result.stats))
            }
            Ok(Err(e)) => (row("error", Some(e.to_string())), None),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                (row("panic", Some(msg)), None)
            }
        }
    });
    if let Some(s) = &store {
        drain_store_warnings(s);
    }
    // Merge in input order: emission, counting, attribution, and the
    // metrics fold all see exactly the sequential order (and, without
    // --keep-going, stop at the first failure exactly as before — later
    // programs already ran, but their rows are not emitted).
    for (row, stats) in results {
        let idx = match row.outcome {
            "ok" => 0,
            "degraded" => 1,
            "error" => 2,
            _ => 3,
        };
        counts[idx] += 1;
        if idx <= 1 {
            // Counters add up, `peak.*` keeps the per-program maximum,
            // and `store.*` (totals of the shared store) is overwritten
            // — last of all by the store's final totals, below.
            if let (Some(agg), Some(stats)) = (&aggregate, &stats) {
                stats.publish(agg);
            }
            let entry = attribution.entry(row.suite).or_default();
            for (slot, n) in entry.0.iter_mut().zip(row.won) {
                *slot += n;
            }
            entry.1 += row.blocked;
        }
        if idx >= 2 && first_failure.is_none() {
            first_failure = Some(match &row.error {
                _ if row.outcome == "panic" => 5,
                Some(msg) if msg.contains("work budget exhausted") => 4,
                _ => 5,
            });
        }
        println!(
            "{:<28} {:>9} {:>6} ms  {} loops, {} parallel{}",
            row.name,
            row.outcome,
            row.ms,
            row.loops,
            row.parallel,
            row.error
                .as_deref()
                .map(|e| format!("  ({e})"))
                .unwrap_or_default()
        );
        if let Some(f) = &mut ledger_file {
            if let Err(e) = writeln!(f, "{}", row.to_jsonl()) {
                eprintln!("padfa: cannot write ledger: {e}");
                exit(1)
            }
            // Flush per row so a crashed run leaves a usable ledger for
            // `--resume`.
            let _ = f.flush();
        }
        if idx >= 2 && !keep_going {
            break;
        }
    }
    if !attribution.is_empty() {
        println!("\nper-suite loop attribution (winning mechanism):");
        print!("{:<12}", "suite");
        for m in padfa::analysis::Mechanism::ALL {
            print!(" {:>12}", m.label());
        }
        println!(" {:>12}", "blocked");
        let mut totals = ([0u64; 5], 0u64);
        for (suite, (won, blocked)) in &attribution {
            print!("{suite:<12}");
            for (slot, n) in totals.0.iter_mut().zip(won) {
                *slot += n;
            }
            totals.1 += blocked;
            for n in won {
                print!(" {n:>12}");
            }
            println!(" {blocked:>12}");
        }
        print!("{:<12}", "total");
        for n in totals.0 {
            print!(" {n:>12}");
        }
        println!(" {:>12}", totals.1);
    }
    println!(
        "\ncorpus: {total} program(s): {} ok, {} degraded, {} error, {} panic{} in {:.1}s",
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        if skipped > 0 {
            format!(" ({skipped} skipped via --resume)")
        } else {
            String::new()
        },
        started.elapsed().as_secs_f64()
    );
    if let Some(s) = &store {
        drain_store_warnings(s);
        let st = s.stats();
        println!(
            "store: {} hits, {} misses ({:.1}% hit rate), {} puts, {} quarantined",
            st.hits,
            st.misses,
            100.0 * st.hit_rate(),
            st.puts,
            st.quarantined
        );
        if st.degraded {
            println!("store: degraded — ran in-memory only");
        } else if st.writes_degraded {
            println!("store: persistence disabled mid-run; reads still served");
        }
        // The aggregate registry carries the store's final totals: a
        // program's snapshot was taken while others were still running.
        if let Some(agg) = &aggregate {
            st.publish(agg);
        }
    }
    if let (Some(out_path), Some(agg)) = (&metrics_out, &aggregate) {
        let mut attr = String::from("{");
        for (i, (suite, (won, blocked))) in attribution.iter().enumerate() {
            if i > 0 {
                attr.push(',');
            }
            attr.push_str(&format!("\"{}\":{{", json_escape(suite)));
            for (j, m) in padfa::analysis::Mechanism::ALL.iter().enumerate() {
                attr.push_str(&format!("\"{}\":{},", m.label(), won[j]));
            }
            attr.push_str(&format!("\"blocked\":{blocked}}}"));
        }
        attr.push('}');
        let json = format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"git_rev\":\"{}\",\"host\":\"{}\",\
             \"variant\":\"{}\",\"jobs\":{jobs},\"programs\":{total},\
             \"attribution\":{attr},\"metrics\":{}}}",
            json_escape(padfa::analysis::GIT_REV),
            json_escape(&host_info()),
            json_escape(&variant),
            agg.snapshot_json()
        );
        if let Err(e) = std::fs::write(out_path, json) {
            eprintln!("padfa: cannot write metrics {out_path}: {e}");
            exit(1)
        }
        println!("metrics snapshot written to {out_path}");
    }
    match first_failure {
        Some(code) if !keep_going => exit(code),
        _ => {}
    }
}

fn cmd_run(args: &[String]) {
    let mut workers = 4usize;
    let mut seq = false;
    let mut fuel: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut no_fallback = false;
    let mut faults = FaultPlan::<WorkerFault>::none();
    let positional = parse_args("run", args, |a, w| {
        match w {
            "--workers" => workers = a.value(),
            "--seq" => seq = true,
            "--fuel" => fuel = Some(a.value()),
            "--deadline-ms" => deadline_ms = Some(a.value()),
            "--no-fallback" => no_fallback = true,
            _ => return inject_flag(a, w, "WORKER:STMT", |s| faults.arm(s)),
        }
        true
    });
    let Some((path, rest)) = positional.split_first() else {
        usage()
    };
    let prog = load(path);
    let args = entry_args(&prog, rest);
    let mut cfg = if seq || workers <= 1 {
        RunConfig::sequential()
    } else {
        let result = match analyze_program(&prog, &Options::predicated()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("padfa: {path}: {e}");
                exit(exit_code(&e))
            }
        };
        RunConfig::parallel(workers, ExecPlan::from_analysis(&prog, &result))
    };
    cfg.fuel = fuel;
    if let Some(ms) = deadline_ms {
        cfg = cfg.with_deadline(std::time::Duration::from_millis(ms));
    }
    cfg.faults = faults;
    if no_fallback {
        cfg = cfg.no_fallback();
    }
    match run_main(&prog, args, &cfg) {
        Ok(out) => {
            for v in &out.printed {
                match v {
                    Value::Int(x) => println!("{x}"),
                    Value::Real(x) => println!("{x}"),
                }
            }
            eprintln!(
                "-- {} statements, {} iterations, {} parallel region(s), \
                 {} fallback(s), tests {}/{} passed",
                out.total_work,
                out.stats.iterations,
                out.stats.parallel_loops,
                out.stats.fallbacks,
                out.stats.tests_passed,
                out.stats.tests_passed + out.stats.tests_failed,
            );
            if out.stats.fallbacks > 0 {
                eprintln!(
                    "-- recovered from {} worker failure(s) ({} panic(s)) by sequential re-run",
                    out.stats.fallbacks, out.stats.worker_panics,
                );
            }
        }
        Err(e) => {
            eprintln!("padfa: execution failed: {e}");
            exit(1)
        }
    }
}

fn cmd_elpd(args: &[String]) {
    let mut fuel: Option<u64> = None;
    let positional = parse_args("elpd", args, |a, w| {
        let known = w == "--fuel";
        if known {
            fuel = Some(a.value());
        }
        known
    });
    let [path, target, rest @ ..] = &positional[..] else {
        usage()
    };
    let prog = load(path);
    let loop_id = padfa::ir::visit::find_loop_by_label(&prog, target)
        .map(|(_, l)| l.id)
        .or_else(|| {
            target
                .parse::<u32>()
                .ok()
                .map(LoopId)
                .filter(|id| padfa::ir::visit::find_loop(&prog, *id).is_some())
        })
        .unwrap_or_else(|| {
            eprintln!("padfa: no loop labeled or numbered '{target}'");
            exit(1)
        });
    let argv = entry_args(&prog, rest);
    match padfa::rt::elpd::elpd_inspect_budgeted(&prog, argv, loop_id, &[], fuel) {
        Ok(v) => {
            println!(
                "loop {target}: parallelizable={} privatization={} ({} invocation(s), {} iteration(s))",
                v.parallelizable, v.needs_privatization, v.invocations, v.iterations
            );
            let mut arrays: Vec<_> = v.arrays.iter().collect();
            arrays.sort_by_key(|(name, _)| (*name).clone());
            for (name, class) in arrays {
                println!("  {name}: {class:?}");
            }
            for s in &v.scalar_deps {
                println!("  scalar {s}: flow dependence");
            }
        }
        Err(e) => {
            eprintln!("padfa: inspection failed: {e}");
            exit(1)
        }
    }
}

fn cmd_fmt(args: &[String]) {
    let [path] = parse_args("fmt", args, |_, _| false)[..] else {
        usage()
    };
    let prog = load(path);
    print!("{}", padfa::ir::pretty::program_to_string(&prog));
}

/// Set by the SIGINT/SIGTERM handlers; `cmd_serve` polls it and drains.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn request_shutdown(_sig: i32) {
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Install drain-on-signal handlers via libc's `signal` (std already
/// links libc; no new dependency). The handler only flips an atomic —
/// async-signal-safe by construction.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, request_shutdown);
        signal(SIGTERM, request_shutdown);
    }
}

/// `padfa serve`: run the analysis as a long-lived HTTP daemon until
/// SIGINT/SIGTERM, then drain gracefully and exit 0.
fn cmd_serve(args: &[String]) {
    use padfa::service::{Server, ServiceDeps, ServicePolicy};
    use std::time::Duration;
    let mut addr = "127.0.0.1:7117".to_string();
    let mut policy = ServicePolicy::default();
    let mut store_dir = None;
    let mut store_faults = FaultPlan::none();
    let mut faults = FaultPlan::<ServiceFault>::none();
    let positional = parse_args("serve", args, |a, w| {
        match w {
            "--addr" => addr = a.value(),
            "--workers" => policy.workers = a.value(),
            "--queue" => policy.queue_depth = a.value(),
            "--default-max-steps" => policy.default_max_steps = Some(a.value()),
            "--max-steps-ceiling" => policy.max_steps_ceiling = Some(a.value()),
            "--default-deadline-ms" => policy.default_deadline_ms = Some(a.value()),
            "--deadline-ms-ceiling" => policy.deadline_ms_ceiling = Some(a.value()),
            "--read-timeout-ms" => policy.read_timeout = Duration::from_millis(a.value()),
            "--drain-deadline-ms" => policy.drain_deadline = Duration::from_millis(a.value()),
            "--slow-ms" => policy.slow_request_ms = a.value(),
            "--slow-log" => policy.slow_log = Some(a.value()),
            "--flight-dump-dir" => policy.flight_dump_dir = Some(a.value()),
            _ => {
                return store_flag(a, w, &mut store_dir)
                    || inject_flag(a, w, "service or store-*", |s| {
                        Ok(faults.arm(s)? || store_faults.arm(s)?)
                    })
            }
        }
        true
    });
    if !positional.is_empty() {
        usage()
    }
    install_signal_handlers();
    // Per-request budgets are applied by the server from headers and
    // policy; the store itself is always eligible here (budgeted
    // requests bypass it per request, not per process).
    let store = open_store(store_dir.as_deref(), store_faults, &WorkBudget::UNLIMITED);
    let store_desc = store_dir.unwrap_or_else(|| "none".to_string());
    let deps = ServiceDeps {
        store,
        faults,
        ..ServiceDeps::default()
    };
    let workers = policy.workers.max(1);
    let queue = policy.queue_depth.max(1);
    let server = match Server::start(&addr, policy, deps) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("padfa: cannot bind {addr}: {e}");
            exit(1)
        }
    };
    // Machine-parseable banner (callers read the resolved ephemeral port).
    println!(
        "padfa: serving on http://{} (workers={workers} queue={queue} store={store_desc})",
        server.addr()
    );
    let _ = std::io::stdout().flush();
    while !SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("padfa: draining...");
    let report = server.shutdown();
    eprintln!(
        "padfa: drained (admitted={} completed={} shed={} drained_in_queue={} panics={} clean={})",
        report.admitted,
        report.completed,
        report.shed,
        report.drained_in_queue,
        report.panics,
        report.clean
    );
    if let Some(dump) = &report.flight_dump {
        eprintln!("padfa: unclean drain; flight ring dumped to {dump}");
    }
    exit(if report.clean { 0 } else { 1 })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "analyze" => cmd_analyze(rest),
            "explain" => cmd_explain(rest),
            "run" => cmd_run(rest),
            "elpd" => cmd_elpd(rest),
            "fmt" => cmd_fmt(rest),
            "corpus" => cmd_corpus(rest),
            "serve" => cmd_serve(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
