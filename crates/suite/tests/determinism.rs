//! Determinism of the analysis over the full corpus and the hand-written
//! programs of the differential matrix (`matrix/mod.rs`): who reads the
//! summaries or the evidence, and how many lanes run, change nothing a
//! reader sees, and the corpus's lattice work stays pinned, down to the
//! projections the closed form answers.

mod matrix;

use matrix::Sources;

/// Every (source, variant) on 4 lanes renders what it does alone, twice.
#[test]
fn corpus_reports_identical_across_worker_counts() {
    matrix::lanes(Sources::Written);
}

/// The corpus's interned regions, projections and emptiness questions.
#[test]
fn corpus_lattice_work_stays_linear() {
    matrix::corpus_counters();
}

/// How much of that work the difference-bound closed form answers.
#[test]
fn corpus_projections_in_closed_form_stay_pinned() {
    matrix::corpus_closed_projections();
}

#[test]
fn reports_do_not_depend_on_who_reads_summaries() {
    matrix::readers_summaries();
}

#[test]
fn verdicts_do_not_depend_on_who_reads_evidence() {
    matrix::readers_evidence();
}
