//! Soundness on the generated programs of the differential matrix
//! (`matrix/mod.rs`, `ir::testgen` seeds 0–99): every distinct plan the
//! variants produce reproduces the sequential run in the interpreter,
//! under every schedule, and the analysis is deterministic.

mod matrix;

use matrix::{Schedule, Sources};

#[test]
fn all_variants_match_sequential_on_random_programs() {
    matrix::plans(Schedule::Workers);
}

#[test]
fn chunked_schedules_match_on_random_programs() {
    matrix::plans(Schedule::Chunked);
}

#[test]
fn inspector_matches_on_random_programs() {
    matrix::plans(Schedule::Inspector);
}

/// Every generated case on 4 lanes renders what it does alone, twice.
#[test]
fn analysis_is_deterministic_on_random_programs() {
    matrix::lanes(Sources::Generated);
}
