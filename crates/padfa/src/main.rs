//! `padfa` — command-line driver for the predicated array data-flow
//! analysis.
//!
//! ```text
//! padfa analyze <file.mf> [--variant base|guarded|predicated] [--all] [--summaries]
//!                         [--stats] [--profile] [--max-steps N] [--deadline-ms N]
//!                         [--strict] [--trace PATH] [--metrics-out PATH]
//!                         [--store DIR] [--no-store] [--inject store-FAULT]
//! padfa explain <file.mf> [--loop <label-or-id>] [--json] [--variant V]
//! padfa run     <file.mf> [--workers N] [--seq] [--fuel N] [--deadline-ms N]
//!                         [--no-fallback] [--inject W:S:KIND] [ARG...]
//! padfa elpd    <file.mf> <loop-label-or-id> [--fuel N] [ARG...]
//! padfa fmt     <file.mf>
//! padfa corpus  [--variant V] [--jobs N] [--max-steps N] [--deadline-ms N]
//!               [--ledger PATH] [--resume] [--keep-going] [--metrics-out PATH]
//!               [--store DIR] [--no-store] [--inject store-FAULT]
//! padfa serve   [--addr HOST:PORT] [--workers N] [--queue N]
//!               [--default-max-steps N] [--max-steps-ceiling N]
//!               [--default-deadline-ms N] [--deadline-ms-ceiling N]
//!               [--read-timeout-ms N] [--drain-deadline-ms N]
//!               [--slow-ms N] [--slow-log PATH] [--debug-ring N]
//!               [--flight-dump-dir DIR]
//!               [--store DIR] [--no-store] [--inject FAULT]
//! padfa promcheck [FILE]
//! ```
//!
//! Scalar entry arguments are given positionally (`8 3 50`); integer
//! parameters take integers, real parameters accept either form. Array
//! parameters are zero-filled with their declared extents (which must
//! then be constant).
//!
//! `run` exposes the fault-tolerance controls of the executor: `--fuel`
//! bounds the statement budget (runaway programs exit with a clean
//! diagnostic), `--deadline-ms` bounds wall-clock time, `--inject
//! WORKER:STMT:panic|error|corrupt` arms the deterministic
//! fault-injection harness, and `--no-fallback` turns the transparent
//! sequential re-run into a hard error (useful for scripting around
//! failures).
//!
//! `analyze` exposes the analysis-side watchdog: `--max-steps` bounds
//! the lattice-operation count per procedure (deterministic),
//! `--deadline-ms` bounds per-procedure wall time, and `--strict` turns
//! budget exhaustion into a hard error (exit 4) instead of degrading
//! the procedure to a sound conservative summary.
//!
//! One program is analyzed on one thread. Parallelism is between
//! programs: `corpus --jobs N` analyzes up to `N` programs at a time and
//! `serve --workers N` serves up to `N` requests at a time, each in an
//! analysis session of its own; the ledger and the responses are
//! byte-identical at any `N`.
//!
//! `explain` prints the decision-provenance tree behind every loop
//! verdict — the dependence pair or exposed read that blocked
//! parallelism, the query outcome that discharged it, the decisive
//! predicate, the emitted run-time test, and any budget or cap-hit
//! degradation — as a human-readable tree or (`--json`) machine JSON.
//!
//! `analyze --store DIR` (or the `PADFA_STORE` environment variable)
//! attaches the crash-safe persistent store: whole-procedure summaries
//! are content-addressed on disk, so a warm rerun skips every unchanged
//! procedure while producing bit-identical output. A
//! corrupt, locked, or failing store degrades to recomputation with a
//! typed warning — it can never change results or crash the run.
//! `--no-store` overrides the environment; `--inject store-write-fail[:N]`,
//! `store-read-fail[:N]`, `store-torn-write[:N]`, `store-bitflip[:N]`,
//! and `store-seeded:SEED:COUNT` deterministically exercise the store's
//! failure paths. Budgeted runs (`--max-steps`/`--deadline-ms`) bypass
//! the store: replaying cached results would change step accounting and
//! with it degradation decisions.
//!
//! `analyze --trace PATH` writes a Chrome trace-event JSON file
//! (loadable in Perfetto / `chrome://tracing`) with spans for parse,
//! the driver, per-procedure summarization and loop classification,
//! and an instant per procedure carrying its lattice-query count;
//! `--profile` prints a per-phase self-time table. Both are read from
//! the always-on flight recorder: the events this run recorded.
//! `--metrics-out PATH` writes the run's session counters as a
//! metrics-registry snapshot.
//!
//! `serve` runs the analysis as a long-lived HTTP daemon (`POST
//! /analyze`, `POST /explain`, `GET /healthz`, `GET /readyz`, `GET
//! /metrics`, `GET /debug/requests`, `GET /debug/flight`) with bounded
//! admission, per-request isolation, request-scoped tracing, and
//! graceful drain — see the `padfa-service` crate docs. `SIGINT` or
//! `SIGTERM` drains in-flight work, flushes the store, and exits 0.
//! `--slow-ms` sets the slow-request threshold (0 disables),
//! `--slow-log` appends slow-request forensics records to a file,
//! `--debug-ring` sizes the `/debug/requests` ring, and
//! `--flight-dump-dir` is where flight-ring sidecars land on a worker
//! panic or unclean drain. `--inject` additionally accepts the
//! service-layer faults `worker-panic[:K]`, `torn-response[:K]`,
//! `slow-request[:K[:MS]]`, `recorder-overflow[:K]`, and
//! `service-seeded:SEED:COUNT` (keyed on admission order).
//!
//! `promcheck` validates a Prometheus text-exposition scrape (a file,
//! or stdin when no path is given) against the same checker the test
//! suite uses: every sample typed, histogram buckets cumulative, `+Inf`
//! consistent with `_count`. CI scrapes `/metrics` and pipes it here.
//!
//! `corpus` runs the analysis over the full synthetic benchmark corpus,
//! isolating each program behind `catch_unwind`, and streams one JSON
//! line per program to a ledger for offline triage. Each row carries the
//! per-mechanism loop attribution (which technique won each parallelized
//! loop), and the run ends with the paper-style per-suite attribution
//! table. Fresh ledgers start with a `{"meta":...}` stamp line
//! (`schema_version`, the git revision the binary was built from, host)
//! so trajectories across revisions stay comparable.
//!
//! ## Exit codes
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | success (degraded summaries still count as success)  |
//! | 1    | runtime/execution failure (`run`, `elpd`)            |
//! | 2    | usage error                                          |
//! | 3    | unreadable input or parse/malformed-IR error         |
//! | 4    | work budget exhausted under `--strict`               |
//! | 5    | internal invariant failure (analyzer bug or panic)   |

use padfa::analysis::flight;
use padfa::prelude::*;
use std::io::Write as _;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  padfa analyze <file.mf> [--variant base|guarded|predicated] [--all]\n               \
         [--summaries] [--stats] [--profile] [--max-steps N] [--deadline-ms N]\n               \
         [--strict] [--trace PATH] [--metrics-out PATH] [--store DIR] [--no-store]\n               \
         [--inject store-FAULT]\n  \
         padfa explain <file.mf> [--loop <label-or-id>] [--json] [--variant V]\n  \
         padfa run <file.mf> [--workers N] [--seq] [--fuel N] [--deadline-ms N]\n            \
         [--no-fallback] [--inject W:S:panic|error|corrupt] [ARG...]\n  \
         padfa elpd <file.mf> <loop-label-or-id> [--fuel N] [ARG...]\n  \
         padfa fmt <file.mf>\n  \
         padfa corpus [--variant V] [--jobs N] [--max-steps N] [--deadline-ms N]\n               \
         [--ledger PATH] [--resume] [--keep-going] [--metrics-out PATH]\n               \
         [--store DIR] [--no-store] [--inject store-FAULT]\n  \
         padfa serve [--addr HOST:PORT] [--workers N] [--queue N]\n              \
         [--default-max-steps N] [--max-steps-ceiling N]\n              \
         [--default-deadline-ms N] [--deadline-ms-ceiling N]\n              \
         [--read-timeout-ms N] [--drain-deadline-ms N]\n              \
         [--slow-ms N] [--slow-log PATH] [--debug-ring N] [--flight-dump-dir DIR]\n              \
         [--store DIR] [--no-store] [--inject FAULT]\n  \
         padfa promcheck [FILE]"
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
fn entry_args(prog: &Program, words: &[String]) -> Vec<ArgValue> {
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

/// Shared budget-flag state for `analyze` and `corpus`.
#[derive(Default)]
struct BudgetFlags {
    max_steps: Option<u64>,
    deadline_ms: Option<u64>,
    strict: bool,
}

impl BudgetFlags {
    fn to_budget(&self) -> WorkBudget {
        WorkBudget {
            max_steps: self.max_steps,
            deadline_ms: self.deadline_ms,
            on_exhausted: if self.strict {
                OnExhausted::Error
            } else {
                OnExhausted::Degrade
            },
        }
    }
}

/// Shared persistent-store flag state for `analyze` and `corpus`.
#[derive(Default)]
struct StoreFlags {
    dir: Option<String>,
    disabled: bool,
    faults: padfa::analysis::IoFaultPlan,
}

impl StoreFlags {
    /// Resolve `--store` / `--no-store` / `PADFA_STORE` into an opened
    /// store handle. `None` means the session runs without persistence.
    /// Opening never fails: an unusable directory yields a degraded
    /// (in-memory-only) store whose warnings the caller drains.
    fn open(&self, budget: &WorkBudget) -> Option<std::sync::Arc<padfa::analysis::Store>> {
        if self.disabled {
            return None;
        }
        let dir = self
            .dir
            .clone()
            .or_else(|| std::env::var("PADFA_STORE").ok().filter(|s| !s.is_empty()))?;
        if !budget.is_unlimited() {
            eprintln!(
                "padfa: warning: persistent store disabled under a work budget \
                 (cached results would change step accounting)"
            );
            return None;
        }
        let cfg = padfa::analysis::StoreConfig::new(&dir, padfa::analysis::BUILD_ID)
            .with_faults(self.faults.clone());
        Some(std::sync::Arc::new(padfa::analysis::Store::open(cfg)))
    }
}

/// Print every pending store warning (corruption, IO degradation, lock
/// contention) to stderr. Warnings never affect results or exit codes.
fn drain_store_warnings(store: &padfa::analysis::Store) {
    for w in store.take_warnings() {
        eprintln!("padfa: warning: {w}");
    }
}

/// Parse a `store-*` spec from `--inject` into the fault plan. Returns
/// false when the spec is not store-related (so callers can reject it).
fn parse_store_fault(spec: &str, plan: &mut padfa::analysis::IoFaultPlan) -> bool {
    use padfa::analysis::{IoFaultKind, IoFaultSpec};
    let bad = || -> ! {
        eprintln!(
            "padfa: bad --inject spec '{spec}' (want store-write-fail[:N], \
             store-read-fail[:N], store-torn-write[:N], store-bitflip[:N], \
             or store-seeded:SEED:COUNT)"
        );
        exit(2)
    };
    let mut parts = spec.split(':');
    let kind = match parts.next().unwrap_or("") {
        "store-write-fail" => IoFaultKind::WriteFail,
        "store-read-fail" => IoFaultKind::ReadFail,
        "store-torn-write" => IoFaultKind::TornWrite,
        "store-bitflip" => IoFaultKind::BitFlip,
        "store-seeded" => {
            let (Some(seed), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
                bad()
            };
            let seed: u64 = seed.parse().unwrap_or_else(|_| bad());
            let count: usize = count.parse().unwrap_or_else(|_| bad());
            // Draw faults from the first 32 store operations of each
            // kind: early enough to hit any realistic run.
            for f in padfa::analysis::IoFaultPlan::seeded(seed, count, 32).faults {
                plan.faults.push(f);
            }
            return true;
        }
        _ => return false,
    };
    let at_op = match parts.next() {
        None => 1,
        Some(n) if parts.next().is_none() => n.parse().unwrap_or_else(|_| bad()),
        Some(_) => bad(),
    };
    plan.faults.push(IoFaultSpec { at_op, kind });
    true
}

fn cmd_analyze(args: &[String]) {
    let mut file = None;
    let mut variant = "predicated".to_string();
    let mut show_all = false;
    let mut show_summaries = false;
    let mut show_stats = false;
    let mut show_profile = false;
    let mut budget = BudgetFlags::default();
    let mut store_flags = StoreFlags::default();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--variant" => variant = it.next().cloned().unwrap_or_else(|| usage()),
            "--all" => show_all = true,
            "--summaries" => show_summaries = true,
            "--stats" => show_stats = true,
            "--profile" => show_profile = true,
            "--store" => store_flags.dir = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--no-store" => store_flags.disabled = true,
            "--inject" => {
                let spec = it.next().cloned().unwrap_or_else(|| usage());
                if !parse_store_fault(&spec, &mut store_flags.faults) {
                    eprintln!("padfa: analyze only injects store-* faults, got '{spec}'");
                    exit(2)
                }
            }
            "--trace" => trace_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--max-steps" => {
                budget.max_steps = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                budget.deadline_ms = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--strict" => budget.strict = true,
            _ if file.is_none() => file = Some(a.clone()),
            _ => usage(),
        }
    }
    let path = file.unwrap_or_else(|| usage());
    // Mark the flight-recorder high-water mark now so `--profile` and
    // `--trace` cover exactly this run's events (parse included).
    let flight_wm = flight::watermark();
    let prog = load(&path);
    let opts = variant_options(&variant).with_budget(budget.to_budget());
    let store = store_flags.open(&opts.budget);
    let mut sess = padfa::analysis::AnalysisSession::new(opts);
    if let Some(s) = &store {
        sess = sess.with_store(std::sync::Arc::clone(s));
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
        // Seal before reporting, so `--stats` and `--metrics-out` count
        // the seal's cost and a failed seal is warned about.
        s.flush();
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
    if show_summaries {
        let mut names: Vec<&String> = summaries.keys().collect();
        names.sort();
        for name in names {
            println!("== summary of {name} ==");
            print!("{}", summaries[name]);
            println!();
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
            println!("{report}");
        }
    }
    println!(
        "\n{} loops: {} parallelized ({} with run-time tests) under the {} analysis",
        result.loops.len(),
        parallel,
        rt,
        variant
    );
    if result.stats.degraded_procs > 0 {
        println!(
            "note: {} procedure(s) hit the work budget and were degraded to \
             conservative (sequential) summaries",
            result.stats.degraded_procs
        );
    }
    if show_stats {
        println!("\n== session statistics ==");
        print!("{}", result.stats);
    }
    if show_profile {
        print_flight_profile(flight_wm);
    }
    finish_without_teardown((sess, prog, result, summaries), store.as_deref());
}

/// End a one-shot command whose report is printed: flush stdout, close
/// the store, and return to `main` with the analysis state leaked.
/// Freeing the session, the AST and the result tables node by node just
/// before `exit` was ~5 % of `analyze`. The store is the one part whose
/// `Drop` has an effect outside the process (seal, unlock), and the
/// leaked session holds a handle to it, so it is closed by name.
fn finish_without_teardown<T>(state: T, store: Option<&padfa::analysis::Store>) {
    use std::io::Write;
    // Nothing is printed after this; a closed pipe is the reader's
    // choice, not an analysis failure.
    let _ = std::io::stdout().flush();
    if let Some(s) = store {
        s.close();
    }
    std::mem::forget(state);
}

/// Print the per-phase self-time table reconstructed from the flight
/// recorder (`analyze --profile`). `watermark` bounds the table to the
/// current run's events.
fn print_flight_profile(watermark: u64) {
    let prof = flight::profile(&flight::select(watermark, None));
    println!("\n== flight profile (per phase) ==");
    println!(
        "{:<18} {:>6} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "phase", "spans", "instants", "total_us", "self_us", "max_us", "value"
    );
    for (kind, st) in &prof {
        println!(
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
        println!("{note}");
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
    let mut file = None;
    let mut variant = "predicated".to_string();
    let mut target: Option<String> = None;
    let mut json = false;
    let mut budget = BudgetFlags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--variant" => variant = it.next().cloned().unwrap_or_else(|| usage()),
            "--loop" => target = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--json" => json = true,
            "--max-steps" => {
                budget.max_steps = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                budget.deadline_ms = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ if file.is_none() => file = Some(a.clone()),
            _ => usage(),
        }
    }
    let path = file.unwrap_or_else(|| usage());
    let prog = load(&path);
    let opts = variant_options(&variant).with_budget(budget.to_budget());
    let sess = padfa::analysis::AnalysisSession::new(opts);
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
    if json {
        let loops: Vec<String> = selected
            .iter()
            .map(|r| padfa::analysis::loop_json(r))
            .collect();
        println!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"file\":\"{}\",\"variant\":\"{}\",\
             \"loops\":[{}]}}",
            json_escape(&path),
            json_escape(&variant),
            loops.join(",")
        );
    } else {
        for (i, r) in selected.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", padfa::analysis::render_text(r));
        }
    }
    finish_without_teardown((sess, prog, result), None);
}

/// Minimal JSON string escaping for the corpus ledger.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One corpus-run outcome, serialized as a ledger line.
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
/// — so only rows that close their JSON object (`}`) are trusted; a
/// partial row is reported and its program redone.
fn ledger_names(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut names = Vec::new();
    for l in text.lines() {
        let Some(rest) = l.strip_prefix("{\"name\":\"") else {
            continue;
        };
        let Some(name) = rest.split('"').next() else {
            continue;
        };
        if !l.trim_end().ends_with('}') {
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
    let mut budget = BudgetFlags::default();
    let mut ledger: Option<String> = None;
    let mut resume = false;
    let mut keep_going = false;
    let mut metrics_out: Option<String> = None;
    let mut store_flags = StoreFlags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--variant" => variant = it.next().cloned().unwrap_or_else(|| usage()),
            "--store" => store_flags.dir = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--no-store" => store_flags.disabled = true,
            "--inject" => {
                let spec = it.next().cloned().unwrap_or_else(|| usage());
                if !parse_store_fault(&spec, &mut store_flags.faults) {
                    eprintln!("padfa: corpus only injects store-* faults, got '{spec}'");
                    exit(2)
                }
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--max-steps" => {
                budget.max_steps = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                budget.deadline_ms = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--strict" => budget.strict = true,
            "--ledger" => ledger = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--resume" => resume = true,
            "--keep-going" => keep_going = true,
            "--metrics-out" => metrics_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if resume && ledger.is_none() {
        eprintln!("padfa: --resume needs --ledger PATH");
        exit(2)
    }
    let opts = variant_options(&variant).with_budget(budget.to_budget());
    let store = store_flags.open(&opts.budget);
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
                sess = sess.with_store(std::sync::Arc::clone(s));
            }
            padfa::analysis::analyze_program_session(&bp.program, &sess)
        }));
        let ms = t0.elapsed().as_millis();
        let mut stats = None;
        let row = match run {
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
                    name: bp.name.to_string(),
                    suite: bp.suite.label(),
                    outcome,
                    ms,
                    loops: result.loops.len(),
                    parallel: result.loops.iter().filter(|r| r.parallelized()).count(),
                    steps: result.stats.budget_steps,
                    peak_disjuncts: result.stats.peak_disjuncts,
                    peak_constraints: result.stats.peak_constraints,
                    degraded_procs: result.stats.degraded_procs,
                    limit_overflows: result.stats.limit_overflows,
                    won,
                    blocked,
                    error: None,
                };
                stats = Some(result.stats);
                row
            }
            Ok(Err(e)) => CorpusRow {
                name: bp.name.to_string(),
                suite: bp.suite.label(),
                outcome: "error",
                ms,
                loops: 0,
                parallel: 0,
                steps: 0,
                peak_disjuncts: 0,
                peak_constraints: 0,
                degraded_procs: 0,
                limit_overflows: 0,
                won: [0; 5],
                blocked: 0,
                error: Some(e.to_string()),
            },
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                CorpusRow {
                    name: bp.name.to_string(),
                    suite: bp.suite.label(),
                    outcome: "panic",
                    ms,
                    loops: 0,
                    parallel: 0,
                    steps: 0,
                    peak_disjuncts: 0,
                    peak_constraints: 0,
                    degraded_procs: 0,
                    limit_overflows: 0,
                    won: [0; 5],
                    blocked: 0,
                    error: Some(msg),
                }
            }
        };
        (row, stats)
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
        s.flush();
        drain_store_warnings(s);
        let st = s.stats();
        println!(
            "store: {} hits, {} misses ({:.1}% hit rate), {} puts, {} loaded, {} quarantined",
            st.hits,
            st.misses,
            100.0 * st.hit_rate(),
            st.puts,
            st.loaded,
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

/// Parse a `WORKER:STMT:KIND` fault-injection spec from `--inject`.
fn parse_fault(spec: &str) -> padfa::rt::FaultSpec {
    use padfa::rt::{ExecError, FaultKind, FaultSpec};
    fn bad(spec: &str) -> ! {
        eprintln!("padfa: bad --inject spec '{spec}' (want WORKER:STMT:panic|error|corrupt)");
        exit(2)
    }
    let parts: Vec<&str> = spec.split(':').collect();
    let [worker, at_stmt, kind] = parts[..] else {
        bad(spec)
    };
    let worker: usize = worker.parse().unwrap_or_else(|_| bad(spec));
    let at_stmt: u64 = at_stmt.parse().unwrap_or_else(|_| bad(spec));
    let kind = match kind {
        "panic" => FaultKind::Panic,
        "error" => FaultKind::Error(ExecError::DivisionByZero),
        "corrupt" => FaultKind::CorruptStamp,
        _ => bad(spec),
    };
    FaultSpec {
        worker,
        at_stmt,
        kind,
    }
}

fn cmd_run(args: &[String]) {
    let mut file = None;
    let mut workers = 4usize;
    let mut seq = false;
    let mut fuel: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut no_fallback = false;
    let mut faults = padfa::rt::FaultPlan::none();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|w| w.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seq" => seq = true,
            "--fuel" => {
                fuel = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--no-fallback" => no_fallback = true,
            "--inject" => {
                let spec = it.next().unwrap_or_else(|| usage());
                faults = faults.with(parse_fault(spec));
            }
            _ if file.is_none() => file = Some(a.clone()),
            _ => rest.push(a.clone()),
        }
    }
    let path = file.unwrap_or_else(|| usage());
    let prog = load(&path);
    let args = entry_args(&prog, &rest);
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
    let mut pos: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fuel" => {
                fuel = Some(
                    it.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => pos.push(a.clone()),
        }
    }
    if pos.len() < 2 {
        usage()
    }
    let prog = load(&pos[0]);
    let target = &pos[1];
    let rest = &pos[2..];
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
    if args.len() != 1 {
        usage()
    }
    let prog = load(&args[0]);
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

/// Parse a service-layer `--inject` spec (`worker-panic[:K]`,
/// `torn-response[:K]`, `slow-request[:K[:MS]]`, `recorder-overflow[:K]`,
/// `service-seeded:SEED:COUNT`). Returns false for non-service specs so
/// `store-*` can be tried next.
fn parse_service_fault(spec: &str, plan: &mut padfa::rt::ServiceFaultPlan) -> bool {
    use padfa::rt::{ServiceFaultKind, ServiceFaultSpec};
    let bad = || -> ! {
        eprintln!(
            "padfa: bad --inject spec '{spec}' (want worker-panic[:K], torn-response[:K], \
             slow-request[:K[:MS]], recorder-overflow[:K], service-seeded:SEED:COUNT, \
             or a store-* fault)"
        );
        exit(2)
    };
    let mut parts = spec.split(':');
    let kind = match parts.next().unwrap_or("") {
        "worker-panic" => ServiceFaultKind::WorkerPanic,
        "torn-response" => ServiceFaultKind::TornResponse,
        "recorder-overflow" => ServiceFaultKind::RecorderOverflow,
        "slow-request" => {
            // slow-request[:K[:MS]] — K-th admitted request sleeps MS
            // milliseconds (default: just over the default slow-request
            // threshold, so the forensics path fires out of the box).
            let at_request: u64 = match parts.next() {
                None => 1,
                Some(n) => n.parse().unwrap_or_else(|_| bad()),
            };
            let ms: u64 = match parts.next() {
                None => 1500,
                Some(n) if parts.next().is_none() => n.parse().unwrap_or_else(|_| bad()),
                Some(_) => bad(),
            };
            plan.faults.push(ServiceFaultSpec {
                at_request,
                kind: ServiceFaultKind::SlowRequest { ms },
            });
            return true;
        }
        "service-seeded" => {
            let (Some(seed), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
                bad()
            };
            let seed: u64 = seed.parse().unwrap_or_else(|_| bad());
            let count: usize = count.parse().unwrap_or_else(|_| bad());
            // Draw from the first 32 admissions — early enough to hit
            // any realistic smoke run.
            for f in padfa::rt::ServiceFaultPlan::seeded(seed, count, 32).faults {
                plan.faults.push(f);
            }
            return true;
        }
        _ => return false,
    };
    let at_request = match parts.next() {
        None => 1,
        Some(n) if parts.next().is_none() => n.parse().unwrap_or_else(|_| bad()),
        Some(_) => bad(),
    };
    plan.faults.push(ServiceFaultSpec { at_request, kind });
    true
}

/// `padfa serve`: run the analysis as a long-lived HTTP daemon until
/// SIGINT/SIGTERM, then drain gracefully and exit 0.
fn cmd_serve(args: &[String]) {
    use padfa::service::{Server, ServiceDeps, ServicePolicy};
    let mut addr = "127.0.0.1:7117".to_string();
    let mut policy = ServicePolicy::default();
    let mut store_flags = StoreFlags::default();
    let mut faults = padfa::rt::ServiceFaultPlan::none();
    let mut it = args.iter();
    let parse_u64 =
        |w: Option<&String>| -> u64 { w.and_then(|w| w.parse().ok()).unwrap_or_else(|| usage()) };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--workers" => policy.workers = parse_u64(it.next()) as usize,
            "--queue" => policy.queue_depth = parse_u64(it.next()) as usize,
            "--default-max-steps" => policy.default_max_steps = Some(parse_u64(it.next())),
            "--max-steps-ceiling" => policy.max_steps_ceiling = Some(parse_u64(it.next())),
            "--default-deadline-ms" => policy.default_deadline_ms = Some(parse_u64(it.next())),
            "--deadline-ms-ceiling" => policy.deadline_ms_ceiling = Some(parse_u64(it.next())),
            "--read-timeout-ms" => {
                policy.read_timeout = std::time::Duration::from_millis(parse_u64(it.next()))
            }
            "--write-timeout-ms" => {
                policy.write_timeout = std::time::Duration::from_millis(parse_u64(it.next()))
            }
            "--max-body-bytes" => policy.max_body_bytes = parse_u64(it.next()) as usize,
            "--drain-deadline-ms" => {
                policy.drain_deadline = std::time::Duration::from_millis(parse_u64(it.next()))
            }
            "--slow-ms" => policy.slow_request_ms = parse_u64(it.next()),
            "--slow-log" => {
                policy.slow_log = Some(std::path::PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| usage()),
                ))
            }
            "--debug-ring" => policy.debug_ring = parse_u64(it.next()) as usize,
            "--flight-dump-dir" => {
                policy.flight_dump_dir = Some(std::path::PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| usage()),
                ))
            }
            "--store" => store_flags.dir = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--no-store" => store_flags.disabled = true,
            "--inject" => {
                let spec = it.next().cloned().unwrap_or_else(|| usage());
                if !parse_service_fault(&spec, &mut faults)
                    && !parse_store_fault(&spec, &mut store_flags.faults)
                {
                    eprintln!("padfa: unknown --inject spec '{spec}'");
                    exit(2)
                }
            }
            _ => usage(),
        }
    }
    install_signal_handlers();
    // Per-request budgets are applied by the server from headers and
    // policy; the store itself is always eligible here (budgeted
    // requests bypass it per request, not per process).
    let store = store_flags.open(&WorkBudget::UNLIMITED);
    let store_desc = match (&store, &store_flags.dir) {
        (Some(_), Some(dir)) => dir.clone(),
        _ => "none".to_string(),
    };
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
    // Machine-parseable banner (CI reads the resolved ephemeral port).
    println!(
        "padfa: serving on http://{} (workers={workers} queue={queue} store={store_desc})",
        server.addr()
    );
    let _ = std::io::stdout().flush();
    while !SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
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

/// `padfa promcheck [FILE]`: validate a Prometheus text exposition (a
/// scrape of `/metrics`) with the in-repo checker. Reads stdin when no
/// file is given. Exit 0 on a clean exposition, 1 with the violation
/// list otherwise.
fn cmd_promcheck(args: &[String]) {
    let text = match args {
        [] => {
            let mut buf = String::new();
            if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf) {
                eprintln!("padfa: cannot read stdin: {e}");
                exit(3)
            }
            buf
        }
        [path] => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("padfa: cannot read {path}: {e}");
            exit(3)
        }),
        _ => usage(),
    };
    match padfa::service::check_exposition(&text) {
        Ok(()) => {
            let samples = text
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count();
            println!("promcheck: ok ({samples} sample(s))");
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("promcheck: {v}");
            }
            eprintln!("promcheck: {} violation(s)", violations.len());
            exit(1)
        }
    }
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
            "promcheck" => cmd_promcheck(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
