//! # padfa-core
//!
//! Predicated array data-flow analysis for automatic parallelization —
//! the primary contribution of Moon & Hall (PPoPP 1999), built on the
//! SUIF interprocedural array data-flow framework (Hall et al.).
//!
//! For every program region the analysis computes, per array, four
//! summary components, each a set of *guarded* regions
//! `(predicate, region)`:
//!
//! * `W` — must-write regions (under-approximate),
//! * `MW` — may-write regions (over-approximate),
//! * `R` — may-read regions,
//! * `E` — upward-exposed may-read regions (reads not preceded by a
//!   must-write within the region).
//!
//! Regions are unions of integer linear inequality systems
//! (`padfa-omega`); predicates are arbitrary evaluable boolean
//! expressions (`padfa-pred`). The predicated analysis adds, relative to
//! the unpredicated SUIF baseline:
//!
//! * **guarded values** at control-flow merges (instead of intersecting
//!   must-writes and unioning exposed reads);
//! * **predicate embedding** — affine predicates over the loop index are
//!   pushed into the linear systems before iteration projection;
//! * **predicate extraction** — symbolic-only constraints are pulled out
//!   of regions into predicates during subtraction (emptiness
//!   conditions), dependence testing (breaking conditions), and
//!   interprocedural reshape (divisibility conditions);
//! * **run-time test derivation** — when independence or privatization
//!   holds only under a predicate, and that predicate is a low-cost
//!   scalar test, the loop is reported [`Outcome::ParallelIf`] and the
//!   executor guards a two-version loop with it.
//!
//! Entry point: [`analyze_program`]. Three analysis variants reproduce
//! the paper's comparisons: [`Variant::Base`] (unpredicated SUIF),
//! [`Variant::Guarded`] (compile-time predicates only, the Gu/Li/Lee
//! comparator), and [`Variant::Predicated`] (full system).
//!
//! All failure modes are typed ([`AnalysisError`]): the analysis never
//! panics on user input, and per-procedure [`budget::WorkBudget`]s bound
//! its work, degrading exhausted procedures to sound conservative
//! summaries instead of hanging or crashing.
//!
//! ```
//! use padfa_core::{analyze_program, AnalysisError, Options, Outcome};
//!
//! # fn main() -> Result<(), AnalysisError> {
//! let src = "proc main(n: int, x: int) {
//!     array a[100];
//!     for i = 1 to n { a[i] = a[i] + 1.0; }
//! }";
//! let prog = padfa_ir::parse::parse_program(src)?;
//! let result = analyze_program(&prog, &Options::predicated())?;
//! assert!(matches!(result.loops[0].outcome, padfa_core::Outcome::Parallel));
//! # Ok(())
//! # }
//! ```

// The analysis must stay total on arbitrary input: every failure,
// budget exhaustion included, returns `AnalysisError`, and the
// per-procedure `catch_unwind` is only the fence that turns an analyzer
// bug into `AnalysisError::Internal`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod analyze;
pub mod budget;
pub mod component;
pub mod deptest;
pub mod error;
pub mod faults;
pub mod flight;
pub mod interproc;
pub mod metrics;
pub mod options;
pub(crate) mod pool;
pub mod provenance;
pub mod reduce;
pub mod region;
pub mod report;
pub mod session;
pub mod store;
pub mod summary;
pub(crate) mod tables;
pub mod varmap;

pub use analyze::{
    analyze_program, analyze_program_session, analyze_program_with_summaries, panic_message,
};
pub use budget::{OnExhausted, WorkBudget};
pub use component::{GuardedRegion, PredComponent};
pub use error::{AnalysisError, StoreError};
pub use faults::{Fault, FaultPlan, FaultSite, SpecError};
pub use flight::FlightRecorder;
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use options::{Options, Variant};
pub use pool::par_map_jobs;
pub use provenance::{
    loop_json, render_text, ArrayEvidence, ArrayVerdict, BudgetEvent, Mechanism, PairEvidence,
    PairKind, PairOutcome, Provenance, RejectReason, ScalarEvidence, ScalarVerdict,
};
pub use report::{
    AnalysisResult, LoopReport, Mechanisms, NotCandidateReason, Outcome, PrivArray, ReduceOp,
    Reduction,
};
pub use session::{AnalysisSession, QueryStats, StatsSnapshot};
pub use store::{RetryPolicy, Sleeper, Store, StoreConfig, StoreFault, StoreStatsSnapshot};
pub use summary::{ArraySummary, ScalarSummary, Summary};

/// Identity of the analysis this binary runs: a hash of the sources of
/// the crates that decide a result (core, omega, pred, ir) and the
/// workspace lock file, computed by `build.rs`. It names the store's
/// build directory, so an entry is reused exactly when the code that
/// wrote it is the code reading it — wherever either process runs.
pub const BUILD_ID: &str = env!("PADFA_SOURCE_HASH");

/// The git revision the binary was built from (`+dirty` for a modified
/// tree, `unknown` outside a checkout), read once at build time. A label
/// for ledgers, metrics and `padfa_build_info`; nothing keys on it.
pub const GIT_REV: &str = env!("PADFA_GIT_REV");

/// Version of the JSON the CLI and the daemon write: ledgers, snapshots
/// and response bodies. Bump when a field changes meaning.
pub const SCHEMA_VERSION: u32 = 3;

/// FNV-1a 64 over a byte stream: the store's frame checksum and the
/// service's request-body digest. (`build.rs` keeps its own copy: a
/// build script cannot link the crate it builds.)
pub fn fnv1a64<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Escape `s` for the inside of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
