//! The budget ladder of the differential matrix (`matrix/mod.rs`) on the
//! corpus and the hand-written programs: every budget returns `Ok` with
//! the loop census kept and only ever loses parallel loops, and a budget
//! that never runs out is the unlimited run.

mod matrix;

use matrix::{Sources, GENEROUS, STARVED};

#[test]
fn starved_corpus_degrades_monotonically() {
    matrix::budgets(Sources::Written, &STARVED);
}

#[test]
fn generous_budget_matches_unlimited() {
    matrix::budgets(Sources::Written, &[GENEROUS]);
}
