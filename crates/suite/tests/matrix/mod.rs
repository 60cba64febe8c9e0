//! The differential matrix: the paper's contract, that a verdict does
//! not depend on how it was computed, checked across three axes.
//!
//! * *Sources*: the corpus, `ir::testgen` seeds 0–99, and hand-written
//!   programs that each pin one mechanism.
//! * *Variants*: base, guarded, predicated.
//! * *Configurations*, one row each: who reads the summaries and the
//!   evidence ([`readers_summaries`], [`readers_evidence`],
//!   [`corpus_counters`]), 4 lanes against 1 ([`lanes`]), what the store
//!   holds ([`store_pairs`], [`store_warm`], [`store_edit`],
//!   [`store_bit_flip`]), how many steps the budget allows ([`budgets`]),
//!   and every distinct plan of a generated program run by the
//!   interpreter ([`plans`]).
//!
//! Every run is compared with the storeless run of its (source, variant,
//! reader), computed at most once per process ([`Case::run`]), by the
//! oracles below. The test files `determinism.rs`, `store_differential.rs`,
//! `budget_degradation.rs`, `fuzz_smoke.rs` and `soundness_fuzz.rs` call
//! the rows, one `#[test]` per slice of a row. A new mechanism adds a row
//! or an oracle here, and a call in one of those files, not a test file.

// Each test file calls some of the rows.
#![allow(dead_code)]

use padfa_core::interproc::{call_order, callees};
use padfa_core::store::{hash_procedure, Parts};
use padfa_core::{
    analyze_program_session, flight, loop_json, par_map_jobs, AnalysisResult, AnalysisSession,
    FaultPlan, Mechanism, NotCandidateReason, Options, Outcome, Store, StoreConfig, StoreError,
    StoreFault, StoreStatsSnapshot, Summary, Variant, WorkBudget,
};
use padfa_ir::parse::parse_program;
use padfa_ir::testgen::{random_program, GenConfig};
use padfa_ir::Program;
use padfa_omega::{difference, VarTable};
use padfa_rt::{run_main, ArgValue, ExecPlan, RunConfig};
use padfa_suite::corpus::build_corpus;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

// ------------------------------------------------------------------
// Sources
// ------------------------------------------------------------------

/// Where a source comes from, and the rows only it takes part in.
enum Kind {
    /// A corpus program and its text, which the one-line edit rewrites.
    Corpus(String),
    /// A generated program: execution-safe, so the interpreter runs it.
    Generated,
    /// A hand-written program, the facts pinned on its storeless runs,
    /// and the readers row that checks them.
    HandWritten(Aspect, Pin),
}

/// Which half of the readers row a pin belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Aspect {
    Summaries,
    Evidence,
}

/// Asserts what must hold on one hand-written case's storeless runs.
type Pin = fn(&Case);

/// The slice of the source axis a row runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sources {
    /// The corpus and the hand-written programs.
    Written,
    /// `ir::testgen` seeds 0–99.
    Generated,
}

/// One program of the source axis.
struct Source {
    name: String,
    program: Program,
    kind: Kind,
}

impl Source {
    fn is_in(&self, sources: Sources) -> bool {
        matches!(self.kind, Kind::Generated) == (sources == Sources::Generated)
    }
}

/// The corpus, `ir::testgen` seeds 0–99, then the hand-written programs.
fn sources() -> Vec<Source> {
    let mut out: Vec<Source> = build_corpus()
        .into_iter()
        .map(|b| Source {
            name: b.name.to_string(),
            program: b.program,
            kind: Kind::Corpus(b.source),
        })
        .collect();
    out.extend((0..100).map(|seed| Source {
        name: format!("testgen {seed}"),
        program: random_program(seed, GenConfig::default()),
        kind: Kind::Generated,
    }));
    use Aspect::{Evidence, Summaries};
    let hand_written: [(&str, String, Aspect, Pin); 9] = [
        (
            "strided top level",
            strided_top_level(),
            Summaries,
            pin_lat_overflow,
        ),
        (
            "main calls helper",
            MAIN_CALLS_HELPER.into(),
            Summaries,
            pin_called_helper,
        ),
        (
            "degraded callee",
            DEGRADED_CALLEE.into(),
            Summaries,
            pin_degraded_callee,
        ),
        (
            "unread extraction",
            UNREAD_EXTRACTION.into(),
            Evidence,
            pin_extraction,
        ),
        (
            "first array blocks",
            FIRST_ARRAY_BLOCKS.into(),
            Evidence,
            pin_first_block,
        ),
        (
            "exposed scalar",
            EXPOSED_SCALAR.into(),
            Evidence,
            pin_exposed_scalar,
        ),
        (
            "extreme constants",
            EXTREME_CONSTANTS.into(),
            Evidence,
            pin_overflow,
        ),
        (
            "overflowing summary",
            OVERFLOWING_SUMMARY.into(),
            Summaries,
            pin_overflow,
        ),
        (
            "strided output",
            STRIDED_OUTPUT.into(),
            Evidence,
            pin_strided_output,
        ),
    ];
    out.extend(
        (hand_written.into_iter()).map(|(name, text, aspect, pin)| Source {
            name: name.to_string(),
            program: parse_program(&text).unwrap(),
            kind: Kind::HandWritten(aspect, pin),
        }),
    );
    out
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

/// Every reader that builds evidence reports 49 `lat_overflow`s.
fn pin_lat_overflow(case: &Case) {
    for run in [EVIDENCE, ALL].map(|r| case.run(r)) {
        let overflows: u64 = (run.reports().split("\"lat_overflow\":").skip(1))
            .map(|t| t[..t.find('}').unwrap()].parse::<u64>().unwrap())
            .sum();
        assert_eq!(overflows, 49, "{}", case.ctx());
    }
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

fn pin_called_helper(case: &Case) {
    assert_eq!(case.run(PLAIN).summaries(), ["fill"], "{}", case.ctx());
}

/// `work` needs more steps than the budget ladder's 25 and 50, `main`
/// fewer: there the loop around the call of the degraded `work` is
/// sequential for the budget — not for I/O, which nothing reads.
const DEGRADED_CALLEE: &str = "proc work(a: array[100], n: int) {
    for i = 1 to n { a[i] = a[i] + 1.0; }
    for i = 2 to n { a[i] = a[i - 1] * 2.0; }
    for i = 1 to n { a[i] = a[n - i + 1]; }
}
proc main(n: int) {
    array a[100]; array b[100];
    for j = 1 to n {
        call work(a, n);
        b[j] = 1.0;
    }
}";

fn pin_degraded_callee(case: &Case) {
    assert_eq!(case.run(PLAIN).summaries(), ["work"], "{}", case.ctx());
}

/// An uncalled `main` whose one loop reads `a` at a symbolic index:
/// nothing reads the loop's summary, but its `E − W_prev` extracts the
/// index's bounds, and that extraction is the mechanism that wins it.
const UNREAD_EXTRACTION: &str = "proc main(n: int, m: int) {
    array a[100]; array b[100];
    for i = 1 to n { b[i] = a[m]; }
}";

fn pin_extraction(case: &Case) {
    if case.opts.variant != Variant::Predicated {
        return;
    }
    let ctx = case.ctx();
    let p = case.run(EVIDENCE).result.loops[0].provenance.as_ref();
    let p = p.unwrap();
    assert!(p.mechanisms.extraction, "{ctx}: {p:?}");
    assert_eq!(p.winner, Some(Mechanism::Extraction), "{ctx}");
    assert!(case.fm(PLAIN) < case.fm(EVIDENCE), "{ctx}");
}

/// A sequential loop whose first array (`a`) blocks: the pair tests of
/// `b` decide nothing the verdict shows.
const FIRST_ARRAY_BLOCKS: &str = "proc main(n: int) {
    array a[100]; array b[100]; array c[100];
    for i = 2 to n { a[i] = a[i - 1] + 1.0; b[i] = c[i] * 2.0; }
}";

fn pin_first_block(case: &Case) {
    let (plain, asked) = (&case.run(PLAIN).result, &case.run(EVIDENCE).result);
    assert_eq!(
        plain.loops[0].outcome,
        Outcome::Sequential,
        "{}",
        case.ctx()
    );
    assert!(
        plain.stats.orders_total < asked.stats.orders_total,
        "{}: {} pair orders verdict-only, {} with evidence",
        case.ctx(),
        plain.stats.orders_total,
        asked.stats.orders_total
    );
}

/// A loop-carried flow through the scalar `s`: sequential before any
/// array is tested.
const EXPOSED_SCALAR: &str = "proc main(n: int) {
    var s: real; array a[100];
    for i = 1 to n { a[i] = s; s = a[i] * 2.0; }
}";

fn pin_exposed_scalar(case: &Case) {
    let (plain, asked) = (&case.run(PLAIN).result, &case.run(EVIDENCE).result);
    assert_eq!(
        plain.loops[0].outcome,
        Outcome::Sequential,
        "{}",
        case.ctx()
    );
    assert_eq!(plain.stats.orders_total, 0, "{}", case.ctx());
    assert!(asked.stats.orders_total > 0, "{}", case.ctx());
}

/// Subscripts whose Fourier–Motzkin combinations leave the `i64` range,
/// with the largest magnitudes the affine bridge accepts (2⁶² − 1).
const EXTREME_CONSTANTS: &str = "proc main(n: int, m: int) {
    array a[m];
    for i = 1 to n {
        a[4611686018427387903 * i + 4611686018427387903] = a[4611686018427387902 * i - 4611686018427387903] + 1.0;
    }
}";

/// Extreme constants whose loop summary overflows as well: its
/// projections, which only a summary reader runs, add nothing to the
/// loop's `limit_overflows`.
const OVERFLOWING_SUMMARY: &str = "proc main(n: int) {
    array a[100];
    for i = 1 to n {
        a[4611686018427387903 * i + n] = a[4611686018427387902 * i - n] + 1.0;
    }
}";

/// The overflowing combinations are dropped and counted like a cap.
fn pin_overflow(case: &Case) {
    for r in 0..READERS.len() {
        let run = case.run(r);
        assert!(run.result.stats.limit_overflows > 0, "{}", case.ctx());
    }
}

/// Iterations `i` and `i + 2` of `outer` both write `a[i + 2]`, through
/// different points of the strided inner loop: an output dependence that
/// only a pair test giving each iteration its own lattice point sees.
/// Privatizing `a` removes it. Run in parallel without privatization,
/// the interpreter still prints the sequential `a[5]`, so no plan row
/// sees the difference.
const STRIDED_OUTPUT: &str = "proc main(n: int) {
    array a[100];
    for@outer i = 1 to 10 { for@inner j = 0 to 10 step 2 { a[i + j] = i; } }
    print a[5];
}";

fn pin_strided_output(case: &Case) {
    for r in [PLAIN, EVIDENCE] {
        let reports = case.run(r).reports();
        assert!(
            reports.contains("main:outer depth=0 -> parallel private(a)\n"),
            "{}: {reports}",
            case.ctx()
        );
    }
}

// ------------------------------------------------------------------
// Runs and the storeless baseline
// ------------------------------------------------------------------

/// The four readers: summaries of called procedures only or of every
/// procedure, without or with the evidence behind the verdicts.
const READERS: [Parts; 4] = [
    Parts {
        summary: false,
        evidence: false,
    },
    Parts {
        summary: true,
        evidence: false,
    },
    Parts {
        summary: false,
        evidence: true,
    },
    Parts {
        summary: true,
        evidence: true,
    },
];
/// `padfa analyze`: verdicts, and summaries only where a call reads them.
const PLAIN: usize = 0;
/// `analyze --summaries`.
const SUMMARIES: usize = 1;
/// `padfa corpus` and `explain`: the evidence too.
const EVIDENCE: usize = 2;
/// Every summary and the evidence.
const ALL: usize = 3;

/// What one session returned.
struct Run {
    result: AnalysisResult,
    /// Every summary returned, in name order.
    summaries: Vec<(String, Arc<Summary>)>,
    /// The session's numbering, which names the `Var`s of both.
    vars: Arc<VarTable>,
}

impl Run {
    fn summaries(&self) -> Vec<&str> {
        self.summaries
            .iter()
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Every loop report as text and as JSON (evidence included when
    /// built).
    fn reports(&self) -> String {
        VarTable::adopt(&self.vars);
        (self.result.loops.iter())
            .map(|r| format!("{r}\n{}\n", loop_json(r)))
            .collect()
    }

    /// The reports, then every summary returned.
    fn render(&self) -> String {
        let reports = self.reports();
        let summaries = self.summaries.iter();
        let summaries = summaries.map(|(name, s)| format!("== {name} ==\n{s}"));
        reports + &summaries.collect::<String>()
    }
}

/// One analysis of `prog` as `reader` asks for it, through `store` if
/// one is given. Every row must return `Ok`.
fn analyze(
    ctx: &str,
    prog: &Program,
    opts: &Options,
    reader: Parts,
    store: Option<&Arc<Store>>,
) -> Run {
    let mut sess = AnalysisSession::new(opts.clone());
    if reader.summary {
        sess = sess.with_summaries();
    }
    if reader.evidence {
        sess = sess.with_provenance();
    }
    if let Some(s) = store {
        sess = sess.with_store(Arc::clone(s));
    }
    let (result, summaries) =
        analyze_program_session(prog, &sess).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut summaries: Vec<_> = summaries.into_iter().collect();
    summaries.sort_by(|a, b| a.0.cmp(&b.0));
    let vars = VarTable::current();
    Run {
        result,
        summaries,
        vars,
    }
}

/// One (source, variant) and its storeless run as each reader asks.
struct Case {
    src: &'static Source,
    opts: Options,
    runs: [OnceLock<Run>; 4],
}

/// How a failing row names its (source, variant).
fn ctx(src: &Source, opts: &Options) -> String {
    format!("{} under {:?}", src.name, opts.variant)
}

impl Case {
    fn ctx(&self) -> String {
        ctx(self.src, &self.opts)
    }

    /// The storeless run as `READERS[reader]` asks for it: computed by
    /// the first row that needs it, then shared by every row.
    fn run(&self, reader: usize) -> &Run {
        self.runs[reader].get_or_init(|| {
            let (prog, opts) = (&self.src.program, &self.opts);
            analyze(&self.ctx(), prog, opts, READERS[reader], None)
        })
    }

    fn fm(&self, reader: usize) -> u64 {
        self.run(reader).result.stats.fm_projections
    }
}

/// Every (source, variant) in source-major order.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let sources: &'static [Source] = Vec::leak(sources());
        let variants = [Options::base(), Options::guarded(), Options::predicated()];
        (sources.iter())
            .flat_map(|src| variants.clone().map(|opts| (src, opts)))
            .map(|(src, opts)| Case {
                src,
                opts,
                runs: Default::default(),
            })
            .collect()
    })
}

/// The cases of one slice of the source axis.
fn cases_of(sources: Sources) -> Vec<&'static Case> {
    cases().iter().filter(|c| c.src.is_in(sources)).collect()
}

// ------------------------------------------------------------------
// Oracles
// ------------------------------------------------------------------

/// Byte equality with the storeless run: its reports and summaries, so
/// every rendering of them (compared, and shown, only when they differ).
/// Two sessions that numbered their names alike are compared value for
/// value. A session that met a name the other did not (a `$lat` name past
/// the pool, drawn by one and read from a store entry by the other)
/// numbers it elsewhere, and then only the renderings are comparable.
fn same_bytes(ctx: &str, want: &Run, got: &Run) {
    let alike = want.vars == got.vars;
    if !alike || want.result.loops != got.result.loops || want.summaries != got.summaries {
        assert_eq!(want.render(), got.render(), "{ctx}: output differs");
        assert!(
            !alike,
            "{ctx}: the reports or summaries differ where no rendering shows"
        );
    }
}

/// Evidence is present exactly when the reader asked for it.
fn evidence_as_asked(ctx: &str, reader: Parts, run: &Run) {
    assert!(
        (run.result.loops.iter()).all(|r| r.provenance.is_some() == reader.evidence),
        "{ctx}: evidence present where {reader:?} did not ask, or missing"
    );
}

/// Each loop's verdict in full — outcome, run-time test, privatized
/// arrays and scalars, reductions — without its evidence, named by the
/// run's own numbering (the run may have been computed on another
/// thread, whose table this one does not hold).
fn verdicts(run: &Run) -> String {
    VarTable::adopt(&run.vars);
    (run.result.loops.iter())
        .map(|r| {
            let mut r = r.clone();
            r.provenance = None;
            format!("{r:?}\n")
        })
        .collect()
}

/// The exact store traffic of one run: hits, misses, puts and
/// quarantines since `before`.
fn traffic(ctx: &str, store: &Store, before: StoreStatsSnapshot, want: [u64; 4]) {
    let st = store.stats();
    let got = [
        st.hits - before.hits,
        st.misses - before.misses,
        st.puts - before.puts,
        st.quarantined - before.quarantined,
    ];
    assert_eq!(got, want, "{ctx}: store hits, misses, puts, quarantines");
}

/// The budget census: the loop count is unchanged, every loop's report
/// is its unlimited report or sequential for the budget, each procedure
/// that ran out recorded one `budget-exhausted` instant (`trips`), and a
/// budget that never runs out changes nothing.
fn budget_census(ctx: &str, unlimited: &Run, budgeted: &Run, trips: Option<u64>, generous: bool) {
    let (u, b) = (&unlimited.result.loops, &budgeted.result.loops);
    assert_eq!(
        u.len(),
        b.len(),
        "{ctx}: the budget changed the loop census"
    );
    for (u, b) in u.iter().zip(b) {
        assert!(
            u == b
                || (b.id == u.id
                    && b.outcome == Outcome::Sequential
                    && b.not_candidate == Some(NotCandidateReason::BudgetExhausted)),
            "{ctx}: {b} is neither the unlimited report ({u}) nor the budget's"
        );
    }
    if let Some(trips) = trips {
        assert_eq!(
            trips, budgeted.result.stats.degraded_procs,
            "{ctx}: budget-exhausted instants"
        );
    }
    if generous {
        assert_eq!(budgeted.result.stats.degraded_procs, 0, "{ctx}");
        same_bytes(ctx, unlimited, budgeted);
    }
}

// ------------------------------------------------------------------
// Rows
// ------------------------------------------------------------------

/// Who reads the summaries changes no report: the readers that differ
/// only in the summaries they ask for get the same reports, summaries
/// come back exactly for the procedures something reads (for every
/// procedure when asked for), and a summary nothing reads is not
/// computed, so it saves projections.
pub fn readers_summaries() {
    // Projections per variant of the two readers that ask for evidence.
    let mut fm = [[0u64; 2]; 3];
    for case in cases() {
        let ctx = case.ctx();
        let prog = &case.src.program;
        let called = call_order(prog).called;
        let read: Vec<&str> = (prog.procedures.iter().zip(&called))
            .filter(|(_, &c)| c)
            .map(|(p, _)| p.name.as_str())
            .collect();
        let mut every: Vec<&str> = prog.procedures.iter().map(|p| p.name.as_str()).collect();
        every.sort();
        for (r, reader) in READERS.iter().enumerate() {
            let names = if reader.summary { &every } else { &read };
            let got = case.run(r).summaries();
            assert_eq!(&got, names, "{ctx}, {reader:?}: summaries returned");
        }
        let reports = |r: usize| case.run(r).reports();
        assert_eq!(reports(PLAIN), reports(SUMMARIES), "{ctx}");
        assert_eq!(reports(EVIDENCE), reports(ALL), "{ctx}");
        for (less, more) in [(PLAIN, SUMMARIES), (EVIDENCE, ALL)] {
            assert!(case.fm(less) <= case.fm(more), "{ctx}: {less} vs {more}");
        }
        let v = case.opts.variant as usize;
        fm[v][0] += case.fm(EVIDENCE);
        fm[v][1] += case.fm(ALL);
        check_pin(case, Aspect::Summaries);
    }
    for (v, [evidence, all]) in fm.iter().enumerate() {
        assert!(evidence < all, "variant {v}: {fm:?}");
    }
}

/// Who reads the evidence changes no verdict: every reader gets the same
/// verdicts, evidence is built exactly when asked for, and evidence
/// nothing asks for is not built, so it saves projections.
pub fn readers_evidence() {
    let mut fm = [0u64; 4];
    for case in cases() {
        let ctx = case.ctx();
        let want = verdicts(case.run(PLAIN));
        for (r, reader) in READERS.iter().enumerate() {
            let ctx = format!("{ctx}, {reader:?}");
            let run = case.run(r);
            evidence_as_asked(&ctx, *reader, run);
            assert_eq!(verdicts(run), want, "{ctx}: verdicts differ");
            fm[r] += case.fm(r);
        }
        for (less, more) in [(PLAIN, EVIDENCE), (SUMMARIES, ALL)] {
            assert!(case.fm(less) <= case.fm(more), "{ctx}: {less} vs {more}");
        }
        check_pin(case, Aspect::Evidence);
    }
    assert!(fm[PLAIN] < fm[EVIDENCE], "{fm:?}");
}

/// Runs the pin of a hand-written case if it belongs to `aspect`.
fn check_pin(case: &Case, aspect: Aspect) {
    if let Kind::HandWritten(at, pin) = case.src.kind {
        if at == aspect {
            pin(case);
        }
    }
}

/// The corpus's lattice work, verdict-only under the predicated variant,
/// is pinned: the distinct result regions interned, the projections run,
/// and the emptiness questions put to a system (DESIGN.md §3.5). Each
/// count is a property of the programs and of what the analysis builds
/// to answer them; it moves only with a change that names the move and
/// its reason (CHANGES.md), never to make this pass.
pub fn corpus_counters() {
    let (mut regions, mut projections, mut sys_empty) = (0, 0, 0);
    for case in cases() {
        if matches!(case.src.kind, Kind::Corpus(_)) && case.opts.variant == Variant::Predicated {
            let stats = &case.run(PLAIN).result.stats;
            regions += stats.interned_regions as u64;
            projections += stats.fm_projections;
            sys_empty += stats.sys_empty.total();
        }
    }
    assert_eq!(regions, 1_679, "interned.regions");
    assert_eq!(projections, 4_964, "fm.projections");
    assert_eq!(sys_empty, 14_960, "query.sys_empty.total");
}

/// How many projections of that pass `difference::project` answers in
/// closed form instead of eliminating: a count per thread, so the pass
/// runs again here rather than reading the shared runs.
pub fn corpus_closed_projections() {
    let before = difference::projections();
    for case in cases() {
        if matches!(case.src.kind, Kind::Corpus(_)) && case.opts.variant == Variant::Predicated {
            let (prog, opts) = (&case.src.program, &case.opts);
            analyze(&case.ctx(), prog, opts, READERS[PLAIN], None);
        }
    }
    assert_eq!(
        difference::projections() - before,
        2_866,
        "closed-form projections"
    );
}

/// Four lanes render what one does: every case of `sources` analyzed by
/// `par_map_jobs(4, …)` as the reader that asks for everything, twice.
pub fn lanes(sources: Sources) {
    let cases = cases_of(sources);
    for round in 0..2 {
        let runs = par_map_jobs(4, &cases, |_, case| {
            let (prog, opts) = (&case.src.program, &case.opts);
            analyze(&case.ctx(), prog, opts, READERS[ALL], None)
        });
        for (case, run) in cases.iter().zip(&runs) {
            let ctx = format!("{}, round {round}", case.ctx());
            same_bytes(&ctx, case.run(ALL), run);
        }
    }
}

fn open(dir: &Path) -> Arc<Store> {
    Arc::new(Store::open(StoreConfig::new(dir, "matrix")))
}

/// Which procedures of `prog` the store keys: the non-recursive ones
/// whose defined callees are all keyed.
fn keyed(prog: &Program) -> Vec<bool> {
    let co = call_order(prog);
    let mut keyed = vec![false; prog.procedures.len()];
    for &idx in co.levels.iter().flatten() {
        let mut names = Vec::new();
        callees(&prog.procedures[idx], &mut names);
        keyed[idx] = !co.recursive.contains(&idx)
            && names.iter().all(|n| {
                let at = prog.procedures.iter().position(|p| &p.name == n);
                at.is_none_or(|at| keyed[at])
            });
    }
    keyed
}

/// Decrement the constant bound of the middle `to N {` loop header with
/// `N >= 3` (so the loop keeps iterating).
fn edit_one_loop_bound(source: &str) -> String {
    let bounds: Vec<(usize, usize, u64)> = (source.match_indices(" to "))
        .filter_map(|(at, pat)| {
            let start = at + pat.len();
            let len = source[start..].find(|c: char| !c.is_ascii_digit())?;
            let n: u64 = source[start..start + len].parse().ok()?;
            (n >= 3 && source[start + len..].starts_with(" {")).then_some((start, len, n))
        })
        .collect();
    let (start, len, n) = bounds[bounds.len() / 2];
    format!("{}{}{}", &source[..start], n - 1, &source[start + len..])
}

/// The procedures an edit forces to recompute: those whose IR changed
/// and their transitive callers (a Merkle key covers the callee keys).
fn must_recompute(before: &Program, after: &Program) -> u64 {
    let mut dirty: BTreeSet<&str> = (before.procedures.iter().zip(&after.procedures))
        .filter(|(a, b)| hash_procedure(a) != hash_procedure(b))
        .map(|(_, b)| b.name.as_str())
        .collect();
    loop {
        let callers: Vec<&str> = (after.procedures.iter())
            .filter(|p| !dirty.contains(p.name.as_str()))
            .filter(|p| {
                let mut names = Vec::new();
                callees(p, &mut names);
                names.iter().any(|c| dirty.contains(c.as_str()))
            })
            .map(|p| p.name.as_str())
            .collect();
        if callers.is_empty() {
            return dirty.len() as u64;
        }
        dirty.extend(callers);
    }
}

/// A fresh directory for one store row of this process.
fn store_dir(row: &str) -> PathBuf {
    let name = format!("padfa_matrix_{}_{row}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store never changes what a reader sees, and its traffic is exact:
/// every writer→reader pair of every case ([`pairs`]), with some hits
/// and some misses overall.
pub fn store_pairs() {
    let root = store_dir("pairs");
    // Cases are independent: two at a time, each in a directory of its own.
    let counts = par_map_jobs(2, cases(), |k, case| pairs(case, &root.join(k.to_string())));
    let (hits, misses) = (counts.iter()).fold((0, 0), |(h, m), c| (h + c.0, m + c.1));
    assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
    let _ = std::fs::remove_dir_all(&root);
}

/// The number of procedures of `prog` the store keys.
fn n_keyed(prog: &Program) -> u64 {
    keyed(prog).iter().filter(|&&k| k).count() as u64
}

/// Every writer→reader pair of one case. The writer fills a fresh store
/// (the cold row), and each reader runs against a copy of it (the warm
/// row when it is the writer). A reader hits exactly the entries that
/// hold what it needs: the summary of a procedure it reads, and the
/// evidence if it asks for it (a procedure without loops holds all of
/// its evidence). Returns the hits and misses of the readers.
fn pairs(case: &Case, dir: &Path) -> (u64, u64) {
    let prog = &case.src.program;
    let called = call_order(prog).called;
    let keyed = keyed(prog);
    let n_keyed = n_keyed(prog);
    let loops = &case.run(PLAIN).result.loops;
    let has_loops: Vec<bool> = (prog.procedures.iter())
        .map(|p| loops.iter().any(|r| r.proc == p.name))
        .collect();
    let (wdir, rdir) = (dir.join("writer"), dir.join("reader"));
    let (mut all_hits, mut all_misses) = (0, 0);
    for (w, writer) in READERS.into_iter().enumerate() {
        let ctx = format!("{}, {writer:?} cold", case.ctx());
        let _ = std::fs::remove_dir_all(&wdir);
        let store = open(&wdir);
        let cold = analyze(&ctx, prog, &case.opts, writer, Some(&store));
        same_bytes(&ctx, case.run(w), &cold);
        evidence_as_asked(&ctx, writer, &cold);
        traffic(&ctx, &store, Default::default(), [0, n_keyed, n_keyed, 0]);
        assert!(store.take_warnings().is_empty(), "{ctx}");
        drop(store);
        for (r, reader) in READERS.into_iter().enumerate() {
            let ctx = format!("{}, {writer:?} then {reader:?}", case.ctx());
            let hits = (0..prog.procedures.len())
                .filter(|&p| {
                    let held = Parts {
                        summary: called[p] || writer.summary,
                        evidence: writer.evidence || !has_loops[p],
                    };
                    let need = Parts {
                        summary: called[p] || reader.summary,
                        evidence: reader.evidence,
                    };
                    keyed[p] && held.covers(need)
                })
                .count() as u64;
            let misses = n_keyed - hits;
            // A reader that misses puts, so it reads a copy; one that
            // only hits (as `traffic` checks) leaves the entries as they are.
            let at = if misses == 0 {
                &wdir
            } else {
                let (from, to) = (wdir.join("matrix"), rdir.join("matrix"));
                let _ = std::fs::remove_dir_all(&to);
                std::fs::create_dir_all(&to).unwrap();
                for file in std::fs::read_dir(&from).unwrap() {
                    let name = file.unwrap().file_name();
                    std::fs::copy(from.join(&name), to.join(name)).unwrap();
                }
                &rdir
            };
            let store = open(at);
            let warm = analyze(&ctx, prog, &case.opts, reader, Some(&store));
            same_bytes(&ctx, case.run(r), &warm);
            evidence_as_asked(&ctx, reader, &warm);
            traffic(&ctx, &store, Default::default(), [hits, misses, misses, 0]);
            all_hits += hits;
            all_misses += misses;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    (all_hits, all_misses)
}

/// One pass of every case through a store shared by all of them, as
/// `analyze --summaries --store` reads it: each run renders as the
/// storeless one, and `want` gives its exact traffic from the number of
/// procedures the store keys.
fn shared_pass(row: &str, store: &Arc<Store>, want: &dyn Fn(u64) -> [u64; 4]) {
    for case in cases() {
        let ctx = format!("{}, shared store {row}", case.ctx());
        let before = store.stats();
        let prog = &case.src.program;
        let run = analyze(&ctx, prog, &case.opts, READERS[SUMMARIES], Some(store));
        same_bytes(&ctx, case.run(SUMMARIES), &run);
        traffic(&ctx, store, before, want(n_keyed(prog)));
    }
}

/// A fresh store for `row`, filled by the cold pass: every case misses
/// and puts each procedure it keys, with no warning, and the store holds
/// one entry per procedure and nothing else (the gate against per-query
/// entries creeping back into the store).
fn filled_store(row: &str) -> PathBuf {
    let dir = store_dir(row);
    let store = open(&dir);
    shared_pass("cold", &store, &|n| [0, n, n, 0]);
    assert!(store.take_warnings().is_empty(), "the cold pass warned");
    let entries = std::fs::read_dir(dir.join("matrix")).unwrap().count() as u64;
    assert_eq!(entries, store.stats().puts, "entry files");
    dir
}

/// The filled store, reopened, serves every case from its entries alone.
pub fn store_warm() {
    let dir = filled_store("warm");
    let store = open(&dir);
    shared_pass("warm", &store, &|n| [n, 0, 0, 0]);
    let st = store.stats();
    assert!(!st.degraded && !st.writes_degraded, "{st:?}");
    assert!(store.take_warnings().is_empty(), "the warm pass warned");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-line edit of each corpus program, against the filled store,
/// recomputes only the edited procedure and its callers.
pub fn store_edit() {
    let dir = filled_store("edit");
    let store = open(&dir);
    for case in cases() {
        let Kind::Corpus(text) = &case.src.kind else {
            continue;
        };
        let ctx = format!("{}, one-line edit", case.ctx());
        // No corpus program is recursive, so the store keys every procedure.
        assert_eq!(
            n_keyed(&case.src.program),
            case.src.program.procedures.len() as u64
        );
        let edited = parse_program(&edit_one_loop_bound(text)).unwrap();
        let dirty = must_recompute(&case.src.program, &edited);
        assert!(dirty >= 1, "{ctx}: the edit changed no procedure");
        let before = store.stats();
        let want = analyze(&ctx, &edited, &case.opts, READERS[SUMMARIES], None);
        let got = analyze(&ctx, &edited, &case.opts, READERS[SUMMARIES], Some(&store));
        same_bytes(&ctx, &want, &got);
        let clean = n_keyed(&edited) - dirty;
        traffic(&ctx, &store, before, [clean, dirty, dirty, 0]);
    }
    let st = store.stats();
    assert!(!st.degraded && !st.writes_degraded, "{st:?}");
    assert!(store.take_warnings().is_empty(), "the edit pass warned");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `store-bitflip:1` on the filled store: one bit of the first entry
/// read flips, and that entry alone is quarantined and recomputed.
pub fn store_bit_flip() {
    let dir = filled_store("bit_flip");
    let faults = FaultPlan::at(StoreFault::BitFlip, 1);
    let store = Arc::new(Store::open(
        StoreConfig::new(&dir, "matrix").with_faults(faults),
    ));
    let flipped = std::cell::Cell::new(false);
    shared_pass("bit flip", &store, &|n| {
        if n == 0 || flipped.replace(true) {
            return [n, 0, 0, 0];
        }
        [n - 1, 1, 1, 1]
    });
    assert!(store
        .take_warnings()
        .iter()
        .any(|w| matches!(w, StoreError::Corrupt { .. })));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rungs of the budget ladder that may run out.
pub const STARVED: [u64; 6] = [1, 25, 50, 500, 1_000, 10_000];
/// The rung that never runs out.
pub const GENEROUS: u64 = 50_000_000;

/// The budget ladder on the cases of `sources`: every run returns `Ok`
/// with its loop census, a starved budget only ever loses parallel
/// loops, and [`GENEROUS`] steps is the unlimited run.
pub fn budgets(sources: Sources, ladder: &[u64]) {
    for case in cases_of(sources) {
        for &steps in ladder {
            let ctx = format!("{} at {steps} steps", case.ctx());
            let opts = case.opts.clone().with_budget(WorkBudget::steps(steps));
            let since = flight::watermark();
            let run = analyze(&ctx, &case.src.program, &opts, READERS[PLAIN], None);
            // The instants are counted unless the shared ring may have
            // wrapped over some of them.
            let trips = (flight::watermark() - since <= flight::capacity() as u64).then(|| {
                let events = flight::select(since, Some(flight::thread_id()));
                let trip = |e: &&flight::Event| e.kind == flight::EventKind::BudgetExhausted;
                events.iter().filter(trip).count() as u64
            });
            budget_census(&ctx, case.run(PLAIN), &run, trips, steps == GENEROUS);
        }
    }
}

/// How the interpreter runs a plan.
#[derive(Clone, Copy)]
pub enum Schedule {
    /// Every planned loop on 4 workers.
    Workers,
    /// 3 workers taking chunks of 1 and of 3 iterations.
    Chunked,
    /// 4 workers, and the inspector on every outermost loop the plan
    /// leaves sequential.
    Inspector,
}

/// Every distinct plan of a generated program reproduces the sequential
/// run under `schedule`.
pub fn plans(schedule: Schedule) {
    // n below the generator's extent keeps `idx + 1` subscripts legal.
    let args = || vec![ArgValue::Int(12), ArgValue::Int(3)];
    let (mut generated, mut planned) = (0, 0);
    for variants in cases_of(Sources::Generated).chunks(3) {
        let src = variants[0].src;
        generated += 1;
        let prog = &src.program;
        let seq = run_main(prog, args(), &RunConfig::sequential())
            .unwrap_or_else(|e| panic!("{}: sequential run failed: {e}\n{prog}", src.name));
        let parents = padfa_ir::visit::loop_parents(prog);
        // A plan is a function of the parallelized loops' verdicts.
        let mut seen = BTreeSet::new();
        for case in variants {
            let run = case.run(PLAIN);
            let result = &run.result;
            VarTable::adopt(&run.vars);
            let parallel = (result.loops.iter())
                .filter(|r| r.parallelized())
                .map(|r| format!("{r:?}"));
            if !seen.insert(parallel.collect::<String>()) {
                continue;
            }
            let plan = ExecPlan::from_analysis(prog, result);
            planned += plan.len();
            let configs = match schedule {
                Schedule::Workers => vec![("4 workers", RunConfig::parallel(4, plan))],
                Schedule::Chunked => vec![
                    ("chunk 1", RunConfig::chunked(3, plan.clone(), 1)),
                    ("chunk 3", RunConfig::chunked(3, plan, 3)),
                ],
                Schedule::Inspector => {
                    let mut inspect = Vec::new();
                    padfa_ir::visit::for_each_loop(prog, &mut |_, l, _| {
                        let outermost = parents.get(&l.id).copied().flatten().is_none();
                        if outermost && plan.get(l.id).is_none() {
                            inspect.push(l.id);
                        }
                    });
                    let cfg = RunConfig {
                        inspect,
                        ..RunConfig::parallel(4, plan)
                    };
                    vec![("inspector", cfg)]
                }
            };
            for (name, cfg) in configs {
                let ctx = format!("{}, {name}", case.ctx());
                let par = run_main(prog, args(), &cfg).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let d = seq.max_abs_diff(&par);
                assert!(d <= 1e-9, "{ctx}: diverged by {d}:\n{prog}");
            }
        }
    }
    assert!(
        planned > generated,
        "the plans must parallelize something ({planned} loops)"
    );
}
