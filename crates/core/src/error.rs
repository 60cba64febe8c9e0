//! Typed analysis errors.
//!
//! The analysis pipeline never panics on user input: every failure mode
//! is classified into one [`AnalysisError`] variant so drivers (the
//! `padfa` CLI, the corpus runner, tests) can react with distinct exit
//! codes and keep batch runs alive. Budget exhaustion only surfaces as
//! an error under [`OnExhausted::Error`]; the default policy degrades
//! the affected procedure to a sound conservative summary instead (see
//! [`crate::budget`]).
//!
//! [`OnExhausted::Error`]: crate::budget::OnExhausted::Error

use padfa_ir::parse::ParseError;
use std::fmt;

/// Why an analysis run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The source text failed to parse. Carries the span so drivers can
    /// render `file:line:col` diagnostics.
    Parse(ParseError),
    /// The program parsed but violates an IR invariant the analysis
    /// relies on.
    MalformedIr(String),
    /// A procedure exhausted its [`crate::budget::WorkBudget`] and the
    /// budget policy was [`crate::budget::OnExhausted::Error`].
    BudgetExhausted {
        /// Procedure under analysis when the budget ran out.
        proc: String,
        /// Lattice-operation steps charged before exhaustion.
        steps: u64,
    },
    /// An internal invariant failed (a bug in the analysis, surfaced as
    /// a typed error instead of a crash).
    Internal(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Parse(e) => write!(f, "{e}"),
            AnalysisError::MalformedIr(m) => write!(f, "malformed IR: {m}"),
            AnalysisError::BudgetExhausted { proc, steps } => {
                write!(f, "work budget exhausted in '{proc}' after {steps} steps")
            }
            AnalysisError::Internal(m) => write!(f, "internal analysis error: {m}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<ParseError> for AnalysisError {
    fn from(e: ParseError) -> AnalysisError {
        AnalysisError::Parse(e)
    }
}

/// A persistent-store failure. Never fatal: every variant is collected
/// as a warning while the session degrades to recomputation (in-memory
/// analysis is always available), so a broken cache can slow a run down
/// but can never change its output or crash it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An IO operation on the store directory failed; the session
    /// continues without persistence (or without the affected side).
    Io {
        /// Which operation failed (`open`, `read` or `write`).
        op: &'static str,
        /// Path involved.
        path: String,
        /// OS error text (or the injected-fault label).
        msg: String,
    },
    /// An entry file failed validation (broken frame, checksum mismatch,
    /// undecodable payload) and was moved into `corrupt/`; its key falls
    /// through to recomputation.
    Corrupt {
        /// The entry file and where it was moved.
        path: String,
        /// What failed to validate.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, msg } => {
                write!(
                    f,
                    "store {op} failed on {path}: {msg}; continuing without persistence"
                )
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "store entry quarantined ({path}): {detail}; recomputing")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = AnalysisError::BudgetExhausted {
            proc: "main".into(),
            steps: 42,
        };
        assert_eq!(
            e.to_string(),
            "work budget exhausted in 'main' after 42 steps"
        );
        let p: AnalysisError = ParseError {
            msg: "boom".into(),
            line: 3,
            col: 7,
        }
        .into();
        assert!(p.to_string().contains("3:7"));
        assert!(AnalysisError::Internal("x".into())
            .to_string()
            .contains("x"));
        assert!(AnalysisError::MalformedIr("y".into())
            .to_string()
            .contains("y"));
    }

    #[test]
    fn store_error_display_names_degradation() {
        let io = StoreError::Io {
            op: "write",
            path: "/tmp/s".into(),
            msg: "disk full".into(),
        };
        assert!(io.to_string().contains("continuing without persistence"));
        let c = StoreError::Corrupt {
            path: "corrupt/q-1.bin".into(),
            detail: "checksum mismatch".into(),
        };
        assert!(c.to_string().contains("recomputing"));
    }
}
