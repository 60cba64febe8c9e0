//! Store differential over the full benchmark corpus: every program
//! rendered against a shared persistent store — cold (populating), warm
//! (replaying from disk), warm after a one-line edit, and warm under
//! injected corruption — must be byte-identical to the storeless render,
//! and the store must hold exactly one entry per procedure.

use padfa_core::interproc::{call_order, callees};
use padfa_core::store::hash_procedure;
use padfa_core::{
    analyze_program_session, AnalysisSession, FaultPlan, Options, Store, StoreConfig, StoreError,
    StoreFault,
};
use padfa_ir::parse::parse_program;
use padfa_ir::Program;
use padfa_suite::corpus::{build_corpus, BenchProgram};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Render every loop report and every procedure summary of one corpus
/// program in canonical order, optionally against a store.
fn render(prog: &Program, store: Option<&Arc<Store>>) -> String {
    let mut sess = AnalysisSession::new(Options::predicated()).with_summaries();
    if let Some(s) = store {
        sess = sess.with_store(Arc::clone(s));
    }
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

fn config(dir: &Path) -> StoreConfig {
    StoreConfig::new(dir, "suite-diff")
}

/// A fresh store directory populated by one cold pass over the corpus,
/// sealed. Returns it with the storeless render of every program (which
/// the cold pass is checked against) and the number of entries put.
fn warm_store(tag: &str, corpus: &[BenchProgram]) -> (PathBuf, Vec<String>, u64) {
    let dir = std::env::temp_dir().join(format!(
        "padfa_suite_store_diff_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(config(&dir)));
    let mut plain = Vec::new();
    for bench in corpus {
        let p = render(&bench.program, None);
        let cold = render(&bench.program, Some(&store));
        assert_eq!(p, cold, "{}: cold store pass diverged", bench.name);
        plain.push(p);
    }
    assert!(
        store.take_warnings().is_empty(),
        "cold pass must be warning-free"
    );
    let puts = store.stats().puts;
    drop(store); // seal the journal
    (dir, plain, puts)
}

#[test]
fn warm_corpus_rerun_is_bit_identical_and_mostly_hits() {
    let corpus = build_corpus();
    let (dir, plain, puts) = warm_store("warm", &corpus);

    // One entry per procedure and nothing else: the gate against
    // per-query entries creeping back into the store. (No corpus
    // program is recursive, so every procedure is store-eligible.)
    assert!(corpus
        .iter()
        .all(|b| call_order(&b.program).recursive.is_empty()));
    let procedures: usize = corpus.iter().map(|b| b.program.procedures.len()).sum();
    assert_eq!(puts, procedures as u64);

    // Warm pass from a fresh process-like reopen.
    let warm_store = Arc::new(Store::open(config(&dir)));
    for (bench, plain) in corpus.iter().zip(&plain) {
        let warm = render(&bench.program, Some(&warm_store));
        assert_eq!(*plain, warm, "{}: warm store pass diverged", bench.name);
    }
    let st = warm_store.stats();
    assert_eq!((st.hits, st.misses, st.puts), (puts, 0, 0));
    assert_eq!(st.quarantined, 0);
    assert!(!st.degraded && !st.writes_degraded);
    assert!(warm_store.take_warnings().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decrement the constant bound of the middle `to N {` loop header with
/// `N >= 3` (so the loop keeps iterating).
fn edit_one_loop_bound(source: &str) -> String {
    let bounds: Vec<(usize, usize, u64)> = source
        .match_indices(" to ")
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
fn must_recompute(before: &Program, after: &Program) -> BTreeSet<String> {
    let mut dirty: BTreeSet<String> = before
        .procedures
        .iter()
        .zip(&after.procedures)
        .filter(|(a, b)| hash_procedure(a) != hash_procedure(b))
        .map(|(_, b)| b.name.clone())
        .collect();
    loop {
        let callers: Vec<String> = after
            .procedures
            .iter()
            .filter(|p| {
                let mut names = Vec::new();
                callees(p, &mut names);
                !dirty.contains(&p.name) && names.iter().any(|c| dirty.contains(c))
            })
            .map(|p| p.name.clone())
            .collect();
        if callers.is_empty() {
            return dirty;
        }
        dirty.extend(callers);
    }
}

#[test]
fn one_line_edit_recomputes_only_the_edited_procedure_and_its_callers() {
    let corpus = build_corpus();
    let (dir, _, _) = warm_store("edit", &corpus);
    let store = Arc::new(Store::open(config(&dir)));
    for bench in &corpus {
        let edited = parse_program(&edit_one_loop_bound(&bench.source)).unwrap();
        let dirty = must_recompute(&bench.program, &edited).len() as u64;
        assert!(dirty >= 1, "{}: the edit changed no procedure", bench.name);
        let before = store.stats();
        let with_store = render(&edited, Some(&store));
        assert_eq!(
            render(&edited, None),
            with_store,
            "{}: edited program diverged on a warm store",
            bench.name
        );
        let after = store.stats();
        let clean = edited.procedures.len() as u64 - dirty;
        assert_eq!(
            (
                after.puts - before.puts,
                after.misses - before.misses,
                after.hits - before.hits
            ),
            (dirty, dirty, clean),
            "{}: puts/misses/hits after the edit",
            bench.name
        );
    }
    assert!(store.take_warnings().is_empty());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bitflipped_warm_store_renders_like_cold_and_quarantines() {
    let corpus = build_corpus();
    let (dir, plain, _) = warm_store("bitflip", &corpus);
    // `store-bitflip:1`: one bit of the first segment read flips.
    let faults = FaultPlan::at(StoreFault::BitFlip, 1);
    let store = Arc::new(Store::open(config(&dir).with_faults(faults)));
    for (bench, plain) in corpus.iter().zip(&plain) {
        let faulted = render(&bench.program, Some(&store));
        assert_eq!(*plain, faulted, "{}: corrupt store leaked", bench.name);
    }
    let st = store.stats();
    assert!(st.quarantined > 0, "the flipped record must be quarantined");
    assert!(
        st.misses > 0 && st.puts == st.misses,
        "and recomputed: {st:?}"
    );
    assert!(store
        .take_warnings()
        .iter()
        .any(|w| matches!(w, StoreError::Corrupt { .. })));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
