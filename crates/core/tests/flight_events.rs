//! The flight recorder is one ring for the whole process, written by
//! every session on every thread. The *set* of structured events one
//! run emits (kinds, begin/end/instant phases, labels, values, and
//! their counts) is part of the deterministic output surface: it must
//! be the same for a run that had the process to itself and a run that
//! shared it with other sessions. Only timing fields (`ts_us`,
//! `dur_us`, `tid`, `seq`) may differ.

use std::collections::BTreeMap;

use padfa_core::{analyze_program_session, flight, AnalysisSession, Options};
use padfa_ir::parse::parse_program;

const PROGRAM: &str = "
    proc leaf1(b: array[64], m: int) { for j = 1 to m { b[j] = 0.0; } }
    proc leaf2(b: array[64], m: int) { for j = 1 to m { b[j] = b[j] + 1.0; } }
    proc leaf3(b: array[64], m: int) {
        for j = 1 to m { if (m > 10) { b[j] = 2.0; } }
    }
    proc mid(b: array[64], m: int) { call leaf1(b, m); call leaf2(b, m); }
    proc main(n: int, x: int) {
        array a[64];
        for@one i = 1 to n { call mid(a, i); }
        for@two i = 1 to n { if (x > 0) { call leaf3(a, i); } }
        for@tri i = 1 to n { a[i] = a[i] + 1.0; }
    }";

type EventCounts = BTreeMap<(String, char, String, u64), usize>;

/// Run the analysis and return this run's events as `(kind, phase,
/// label, value) -> count`. A session belongs to its thread, so this
/// run's events are the ones on this thread since the watermark.
fn event_counts() -> EventCounts {
    let wm = flight::watermark();
    let prog = parse_program(PROGRAM).unwrap();
    let sess = AnalysisSession::new(Options::predicated());
    analyze_program_session(&prog, &sess).unwrap();
    let mut counts = BTreeMap::new();
    for e in &flight::select(wm, Some(flight::thread_id())) {
        *counts
            .entry((
                e.kind.name().to_string(),
                e.phase.code(),
                e.label.clone(),
                e.value,
            ))
            .or_insert(0usize) += 1;
    }
    counts
}

#[test]
fn event_kinds_and_counts_are_identical_across_worker_counts() {
    let baseline = event_counts();
    assert!(
        !baseline.is_empty(),
        "recorder produced no events for a full analysis run"
    );
    // The run must have hit the interesting phases, not just one span.
    for kind in ["driver", "summarize", "loop", "lattice-batch"] {
        assert!(
            baseline.keys().any(|(k, ..)| k == kind),
            "no '{kind}' events recorded: {baseline:?}"
        );
    }
    // Four sessions at once, each on its own thread, all writing the
    // one ring.
    for crowded in padfa_core::par_map_jobs(4, &[(); 4], |_, _| event_counts()) {
        assert_eq!(
            baseline, crowded,
            "flight event multiset changed when other sessions ran alongside"
        );
    }
}
