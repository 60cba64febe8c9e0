//! The budget ladder of the differential matrix (`matrix/mod.rs`) on the
//! generated programs (`ir::testgen` seeds 0–99, every variant): the
//! analysis returns `Ok` on every one, possibly degraded, and a starved
//! budget only ever loses parallel loops.

mod matrix;

use matrix::{Sources, GENEROUS, STARVED};

/// The unlimited run, and a budget that never runs out equal to it.
#[test]
fn analysis_is_total_over_random_programs() {
    matrix::budgets(Sources::Generated, &[GENEROUS]);
}

#[test]
fn random_programs_degrade_monotonically() {
    matrix::budgets(Sources::Generated, &STARVED);
}
