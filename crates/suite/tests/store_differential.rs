//! Store differential over every source of the differential matrix
//! (`matrix/mod.rs`): a store, cold, warm, after a one-line edit or under
//! a flipped bit, renders what the storeless run does, with exact
//! traffic; entries written for one reader serve another exactly when
//! they hold what it needs.

mod matrix;

#[test]
fn warm_corpus_rerun_is_bit_identical_and_mostly_hits() {
    matrix::store_warm();
}

#[test]
fn one_line_edit_recomputes_only_the_edited_procedure_and_its_callers() {
    matrix::store_edit();
}

#[test]
fn bitflipped_warm_store_renders_like_cold_and_quarantines() {
    matrix::store_bit_flip();
}

#[test]
fn every_reader_gets_its_storeless_output_from_any_writers_entries() {
    matrix::store_pairs();
}
