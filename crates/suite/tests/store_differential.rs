//! Store differential over the full benchmark corpus: every program
//! rendered against a shared persistent store — cold (populating), warm
//! (replaying from disk), warm after a one-line edit, and warm under
//! injected corruption — must be byte-identical to the storeless render,
//! and the store must hold exactly one entry per procedure. Entries
//! written for one reader serve another exactly when they hold what it
//! needs.

use padfa_core::interproc::{call_order, callees};
use padfa_core::store::{codec, hash_procedure, journal, Parts};
use padfa_core::{
    analyze_program_session, loop_json, AnalysisSession, FaultPlan, Options, Store, StoreConfig,
    StoreError, StoreFault,
};
use padfa_ir::parse::parse_program;
use padfa_ir::Program;
use padfa_suite::corpus::{build_corpus, BenchProgram};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Render every loop report and every procedure summary of one corpus
/// program in canonical order, optionally against a store.
fn render(prog: &Program, store: Option<&Arc<Store>>) -> String {
    let every_summary = Parts {
        summary: true,
        evidence: false,
    };
    render_as(prog, &Options::predicated(), every_summary, store)
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

/// Everything one session returns, as `reader` asks for it: each loop
/// report as text and as JSON (evidence included when built), then the
/// summaries returned.
fn render_as(prog: &Program, opts: &Options, reader: Parts, store: Option<&Arc<Store>>) -> String {
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
    let (result, summaries) = analyze_program_session(prog, &sess).unwrap();
    let mut out = String::new();
    for report in &result.loops {
        out.push_str(&format!("{report}\n{}\n", loop_json(report)));
    }
    let summaries: BTreeMap<_, _> = summaries.into_iter().collect();
    for (name, summary) in summaries {
        out.push_str(&format!("== {name} ==\n{summary}"));
    }
    out
}

/// What each entry file in `dir` holds, by file name.
fn entry_parts(dir: &Path) -> BTreeMap<String, Parts> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|f| {
            let f = f.unwrap();
            let name = f.file_name().to_string_lossy().into_owned();
            let key = u128::from_str_radix(&name, 16).unwrap();
            let bytes = std::fs::read(f.path()).unwrap();
            let payload = journal::open(&bytes, key).unwrap();
            (name, codec::decode_proc_entry(payload).unwrap().parts())
        })
        .collect()
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

/// Every writer/reader pair of the four readers, over the corpus and
/// `ir::testgen` seeds 0–49 under all three variants. The writer fills
/// a fresh store with one program; the reader then runs against a copy.
/// The reader's output is its storeless output; it hits exactly the
/// entries that hold what it needs (the summary of a procedure it reads,
/// the evidence if it asks for it — a procedure without loops holds all
/// of its evidence).
#[test]
fn every_reader_gets_its_storeless_output_from_any_writers_entries() {
    use padfa_ir::testgen::{random_program, GenConfig};
    let mut programs: Vec<(String, Program)> = build_corpus()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program))
        .collect();
    for seed in 0..50 {
        programs.push((
            format!("testgen {seed}"),
            random_program(seed, GenConfig::default()),
        ));
    }
    let root = std::env::temp_dir().join(format!("padfa_suite_matrix_{}", std::process::id()));
    let (wdir, rdir) = (root.join("writer"), root.join("reader"));
    let (mut hits, mut misses) = (0, 0);
    for opts in [Options::base(), Options::guarded(), Options::predicated()] {
        for (name, prog) in &programs {
            let plain: Vec<String> = READERS
                .iter()
                .map(|&r| render_as(prog, &opts, r, None))
                .collect();
            let co = call_order(prog);
            let keyed = keyed(prog);
            let has_loops: Vec<bool> = prog
                .procedures
                .iter()
                .map(|p| plain[0].contains(&format!("\"proc\":\"{}\"", p.name)))
                .collect();
            for writer in READERS {
                let _ = std::fs::remove_dir_all(&wdir);
                let store = Arc::new(Store::open(StoreConfig::new(&wdir, "matrix")));
                render_as(prog, &opts, writer, Some(&store));
                drop(store);
                let written = entry_parts(&wdir.join("matrix"));
                for (r, reader) in READERS.into_iter().enumerate() {
                    let ctx = format!(
                        "{name} under {:?}, {writer:?} then {reader:?}",
                        opts.variant
                    );
                    let _ = std::fs::remove_dir_all(&rdir);
                    std::fs::create_dir_all(rdir.join("matrix")).unwrap();
                    for file in written.keys() {
                        let at = |d: &Path| d.join("matrix").join(file);
                        std::fs::copy(at(&wdir), at(&rdir)).unwrap();
                    }
                    let store = Arc::new(Store::open(StoreConfig::new(&rdir, "matrix")));
                    let out = render_as(prog, &opts, reader, Some(&store));
                    assert_eq!(
                        out, plain[r],
                        "{ctx}: output differs from the storeless run"
                    );
                    let want_hits = (0..prog.procedures.len())
                        .filter(|&p| {
                            let read = co.called[p];
                            let held = Parts {
                                summary: read || writer.summary,
                                evidence: writer.evidence || !has_loops[p],
                            };
                            let need = Parts {
                                summary: read || reader.summary,
                                evidence: reader.evidence,
                            };
                            keyed[p] && held.covers(need)
                        })
                        .count() as u64;
                    let st = store.stats();
                    let want_misses = keyed.iter().filter(|&&k| k).count() as u64 - want_hits;
                    assert_eq!((st.hits, st.misses), (want_hits, want_misses), "{ctx}");
                    assert_eq!(st.quarantined, 0, "{ctx}");
                    drop(store);
                    hits += st.hits;
                    misses += st.misses;
                }
            }
        }
    }
    assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
    let _ = std::fs::remove_dir_all(&root);
}
