//! End-to-end tests for the persistent store: warm-vs-cold output
//! identity, crash consistency under injected faults, Merkle-key
//! invalidation, and a randomized codec round-trip property.

use padfa_core::store::{codec, Parts};
use padfa_core::{
    analyze_program_session, AnalysisSession, FaultPlan, Options, Store, StoreConfig, StoreError,
    StoreFault,
};
use padfa_ir::parse::parse_program;
use padfa_omega::{Constraint, Disjunction, LinExpr, System, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn test_dir(suffix: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("padfa_store_e2e_{}_{suffix}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &Path) -> StoreConfig {
    StoreConfig::new(dir, "e2e-rev")
}

const PROGRAM: &str = "
proc init(row: array[100], n: int) {
    for j = 1 to n { row[j] = 0.0; }
}
proc work(n: int, x: int) {
    array a[100, 100]; array help[100];
    call init(help, n);
    for i = 1 to n {
        if (x > 5) {
            for j = 1 to n { help[j] = 2.0; }
        }
        if (x > 5) {
            for j = 1 to n { a[i, j] = help[j]; }
        }
    }
}
proc main(n: int) {
    array b[100]; var s: real;
    for i = 1 to n { b[i] = 1.0; }
    call init(b, n);
    for i = 2 to n { b[i] = b[i - 1] + 1.0; }
    for i = 1 to n { s = s + b[i]; }
}
";

fn run_with_store(store: Option<Arc<Store>>) -> padfa_core::AnalysisResult {
    run_source(PROGRAM, store)
}

fn run_source(src: &str, store: Option<Arc<Store>>) -> padfa_core::AnalysisResult {
    let prog = parse_program(src).unwrap();
    // Reports are compared whole, evidence included, so every session
    // here asks for it.
    let mut sess = AnalysisSession::new(Options::predicated()).with_provenance();
    if let Some(s) = store {
        sess = sess.with_store(s);
    }
    let (result, _) = analyze_program_session(&prog, &sess).unwrap();
    result
}

#[test]
fn warm_run_is_bit_identical_and_mostly_hits() {
    let dir = test_dir("warmcold");
    let baseline = run_with_store(None);

    // Cold: populates the store.
    let cold_store = Arc::new(Store::open(cfg(&dir)));
    let cold = run_with_store(Some(Arc::clone(&cold_store)));
    assert_eq!(cold.loops, baseline.loops, "store must not change results");
    assert!(cold_store.take_warnings().is_empty());
    assert_eq!(cold_store.stats().puts, 3, "one entry per procedure");
    drop(cold_store);

    // Warm: every procedure summary should come from disk.
    let warm_store = Arc::new(Store::open(cfg(&dir)));
    let warm = run_with_store(Some(Arc::clone(&warm_store)));
    assert_eq!(warm.loops, baseline.loops, "warm must be bit-identical");
    let st = warm_store.stats();
    assert_eq!((st.hits, st.misses, st.puts), (3, 0, 0));
    assert!(warm_store.take_warnings().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn store_written_under_forced_general_tier_is_a_full_hit_for_a_plain_run() {
    // A stored summary does not record which tier answered, so the two
    // modes share entries. The switch is read once per process: the
    // writer is this test run again in a child with the switch on and
    // the directory handed over in `PADFA_STORE`.
    const ME: &str = "store_written_under_forced_general_tier_is_a_full_hit_for_a_plain_run";
    if padfa_omega::difference::force_general() {
        if let Some(dir) = std::env::var_os("PADFA_STORE") {
            let store = Arc::new(Store::open(cfg(Path::new(&dir))));
            run_with_store(Some(Arc::clone(&store)));
            assert_eq!(store.stats().puts, 3);
        }
        return;
    }
    let dir = test_dir("forcedgeneral");
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", ME])
        .env("PADFA_FORCE_GENERAL_TIER", "1")
        .env("PADFA_STORE", &dir)
        .output()
        .unwrap();
    assert!(child.status.success(), "{child:?}");

    let store = Arc::new(Store::open(cfg(&dir)));
    let warm = run_with_store(Some(Arc::clone(&store)));
    assert_eq!(warm.loops, run_with_store(None).loops);
    let st = store.stats();
    assert_eq!((st.hits, st.misses, st.puts), (3, 0, 0));
    assert!(store.take_warnings().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_write_then_reopen_is_sound() {
    let dir = test_dir("crash");
    let baseline = run_with_store(None);

    // "Crash" while persisting: the third procedure's entry is torn
    // mid-write. Results must be unaffected.
    let faults = FaultPlan::at(StoreFault::TornWrite, 3);
    let crashing = Arc::new(Store::open(cfg(&dir).with_faults(faults)));
    let during = run_with_store(Some(Arc::clone(&crashing)));
    assert_eq!(during.loops, baseline.loops);
    assert!(crashing.stats().writes_degraded);
    let warnings = crashing.take_warnings();
    assert!(
        warnings.iter().any(|w| matches!(w, StoreError::Io { .. })),
        "torn write must surface a typed Io warning"
    );
    drop(crashing);

    // Reopen: the torn entry is missing, not corrupt. Nothing is
    // quarantined, the two complete entries hit, and the run puts the
    // third.
    let reopened = Arc::new(Store::open(cfg(&dir)));
    let after = run_with_store(Some(Arc::clone(&reopened)));
    assert_eq!(after.loops, baseline.loops);
    let st = reopened.stats();
    assert_eq!((st.hits, st.misses, st.puts, st.quarantined), (2, 1, 1, 0));
    assert!(reopened.take_warnings().is_empty());
    let warm = Arc::new(Store::open(cfg(&dir)));
    run_with_store(Some(Arc::clone(&warm)));
    assert_eq!(warm.stats().hits, 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_fault_kind_degrades_without_changing_results() {
    let baseline = run_with_store(None);
    // Every run of the 3-procedure program reads one entry file per
    // procedure (read ops 1..=3, misses included); a cold run also
    // writes one per procedure (write ops 1..=3), a warm run none. Each
    // row names the side its fault lives on.
    let seeded = || FaultPlan::seeded(0xC0FFEE, 6, 4);
    let plans = [
        ("write-fail", FaultPlan::at(StoreFault::WriteFail, 1), false),
        (
            "write-fail-late",
            FaultPlan::at(StoreFault::WriteFail, 3),
            false,
        ),
        ("torn-write", FaultPlan::at(StoreFault::TornWrite, 3), false),
        ("read-fail", FaultPlan::at(StoreFault::ReadFail, 1), true),
        ("bitflip", FaultPlan::at(StoreFault::BitFlip, 1), true),
        ("seeded-cold", seeded(), false),
        ("seeded-warm", seeded(), true),
    ];
    for (name, plan, warm) in plans {
        let dir = test_dir(&format!("fault_{name}"));
        if warm {
            let s = Arc::new(Store::open(cfg(&dir)));
            let r = run_with_store(Some(s));
            assert_eq!(r.loops, baseline.loops, "warming run, plan {name}");
        }
        let s = Arc::new(Store::open(cfg(&dir).with_faults(plan)));
        let r = run_with_store(Some(Arc::clone(&s)));
        assert_eq!(r.loops, baseline.loops, "plan {name} changed results");
        // A row whose fault never fires proves nothing.
        let st = s.stats();
        let fired = !s.take_warnings().is_empty()
            || st.writes_degraded
            || st.quarantined > 0
            || st.retries > 0;
        assert!(fired, "plan {name} never fired: {st:?}");
        drop(s);
        // And a clean follow-up run over whatever state the fault left.
        let s = Arc::new(Store::open(cfg(&dir)));
        let r = run_with_store(Some(Arc::clone(&s)));
        assert_eq!(r.loops, baseline.loops, "post-fault reopen, plan {name}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn editing_a_procedure_misses_with_its_callers_and_siblings_still_hit() {
    let dir = test_dir("edit");
    let edits = [
        // `init` is called by `work` and `main`: all three Merkle keys
        // change, so all three recompute.
        ("row[j] = 0.0;", "row[j] = 1.0;", 0, 3),
        // `work` has no callers: `init` and `main` still hit.
        ("help[j] = 2.0;", "help[j] = 3.0;", 2, 1),
    ];
    for (from, to, hits, misses) in edits {
        {
            let s = Arc::new(Store::open(cfg(&dir)));
            run_with_store(Some(s));
        }
        let edited = PROGRAM.replace(from, to);
        assert_ne!(edited, PROGRAM);
        let s = Arc::new(Store::open(cfg(&dir)));
        let with_store = run_source(&edited, Some(Arc::clone(&s)));
        assert_eq!(with_store.loops, run_source(&edited, None).loops);
        let st = s.stats();
        assert_eq!((st.hits, st.misses), (hits, misses), "edit {from:?}");
        assert_eq!(
            st.puts, misses,
            "only the missed procedures are re-persisted"
        );
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn second_session_sharing_one_store_stays_consistent() {
    // The corpus runner shares one Arc<Store> across many programs;
    // interleaved sessions must not corrupt each other.
    let dir = test_dir("shared");
    let s = Arc::new(Store::open(cfg(&dir)));
    let r1 = run_with_store(Some(Arc::clone(&s)));
    let r2 = run_with_store(Some(Arc::clone(&s)));
    assert_eq!(r1.loops, r2.loops);
    let st = s.stats();
    assert!(st.hits > 0, "second session should hit the first's entries");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_summary_stored_in_another_var_order_decodes_sorted() {
    // A writer lists a summary's arrays in its own process's `Var`
    // order; this process may have interned the names the other way
    // round. Hand-build an entry file that lists `second` before
    // `first`, where `first` is interned here first.
    use padfa_core::store::journal;
    use padfa_core::{PredComponent, Summary};
    let (first, second) = (Var::new("order_first"), Var::new("order_second"));
    let one_array = |a: Var, hi: i64| {
        let mut s = Summary::default();
        let d = Var::new("order_d");
        s.array_mut(a).w =
            PredComponent::unconditional(Disjunction::from_system(System::from_constraints([
                Constraint::geq(LinExpr::var(d), LinExpr::constant(1)),
                Constraint::leq(LinExpr::var(d), LinExpr::constant(hi)),
            ])));
        s
    };
    let encoded = |s: &Summary| {
        let mut out = Vec::new();
        codec::put_summary(&mut out, s);
        out
    };
    // A one-array summary is the array count, the array's record, and
    // the same tail an empty summary has after its count.
    let tail = encoded(&Summary::default()).split_off(4);
    let record = |s: &Summary| {
        let bytes = encoded(s);
        bytes[4..bytes.len() - tail.len()].to_vec()
    };
    let (a, b) = (one_array(first, 10), one_array(second, 20));
    // The entry's header: it has a summary and, having no loop reports,
    // all of their evidence.
    let mut payload = Vec::new();
    codec::put_flag(&mut payload, true);
    codec::put_flag(&mut payload, true);
    codec::put_u32(&mut payload, 2);
    payload.extend(record(&b));
    payload.extend(record(&a));
    payload.extend(&tail);
    codec::put_u32(&mut payload, 0); // no loop reports

    let dir = test_dir("order");
    fs::create_dir_all(dir.join("e2e-rev")).unwrap();
    let entry = dir.join("e2e-rev").join(format!("{:032x}", 7));
    fs::write(entry, journal::encode(7, &payload)).unwrap();

    let store = Store::open(cfg(&dir));
    let need = Parts {
        summary: true,
        evidence: true,
    };
    let entry = store.get_proc(7, need).expect("the entry decodes");
    assert!(entry.reports.is_empty());
    let summary = entry.summary.expect("the entry holds a summary");
    assert_eq!(
        summary.arrays.keys().copied().collect::<Vec<_>>(),
        [first, second]
    );
    let mut both = a;
    both.arrays.insert(second, b.arrays[&second].clone());
    assert_eq!(summary, both);
    assert_eq!(store.stats().quarantined, 0);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Randomized codec round-trip property
// ---------------------------------------------------------------------

fn random_linexpr(rng: &mut StdRng) -> LinExpr {
    let mut e = LinExpr::constant(rng.gen_range(-50..50));
    for _ in 0..rng.gen_range(0..4) {
        let v = Var::new(&format!("v{}", rng.gen_range(0..6)));
        e = e + LinExpr::term(v, rng.gen_range(-9..10));
    }
    e
}

fn random_system(rng: &mut StdRng) -> System {
    let mut cs = Vec::new();
    for _ in 0..rng.gen_range(0..5) {
        let a = random_linexpr(rng);
        let b = random_linexpr(rng);
        cs.push(if rng.gen_bool(0.5) {
            Constraint::geq(a, b)
        } else {
            Constraint::eq(a, b)
        });
    }
    System::from_constraints(cs)
}

fn random_region(rng: &mut StdRng) -> Disjunction {
    let mut d = Disjunction::empty();
    for _ in 0..rng.gen_range(0..4) {
        d.push(random_system(rng));
    }
    if rng.gen_bool(0.3) {
        d.set_inexact();
    }
    d
}

fn encode_region(region: &Disjunction) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::put_region(&mut bytes, region);
    bytes
}

/// Decode a buffer holding exactly one region (trailing bytes are
/// corruption, as for a whole store payload).
fn decode_region(bytes: &[u8]) -> Option<Disjunction> {
    let mut r = codec::Reader::new(bytes);
    let region = codec::get_region(&mut r)?;
    r.at_end().then_some(region)
}

#[test]
fn region_codec_round_trips_random_values() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for case in 0..500 {
        let region = random_region(&mut rng);
        let bytes = encode_region(&region);
        let decoded = decode_region(&bytes).unwrap_or_else(|| panic!("case {case} undecodable"));
        assert_eq!(decoded, region, "case {case} changed value");
        // Re-encoding the decoded value must be byte-stable.
        assert_eq!(
            encode_region(&decoded),
            bytes,
            "case {case} not byte-stable"
        );
    }
}

#[test]
fn region_codec_rejects_random_mutations() {
    let mut rng = StdRng::seed_from_u64(0x0BAD_5EED);
    for case in 0..300 {
        let region = random_region(&mut rng);
        let bytes = encode_region(&region);
        // Truncation anywhere must decode to None, never panic.
        let cut = rng.gen_range(0..bytes.len());
        assert!(
            decode_region(&bytes[..cut]).is_none(),
            "case {case}: truncation at {cut} decoded"
        );
        // A random byte mutation must either fail to decode or decode to
        // *some* value without panicking (the entry checksum is the
        // integrity layer; the codec only has to be crash-safe).
        let mut m = bytes.clone();
        let i = rng.gen_range(0..m.len());
        m[i] = m[i].wrapping_add(rng.gen_range(1..=255u8));
        let _ = decode_region(&m);
    }
}
