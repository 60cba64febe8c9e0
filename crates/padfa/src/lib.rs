//! # padfa
//!
//! Predicated array data-flow analysis for automatic parallelization — a
//! from-scratch reproduction of Moon & Hall, *Evaluation of Predicated
//! Array Data-Flow Analysis for Automatic Parallelization* (PPoPP 1999).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`ir`] — the mini-Fortran IR, parser, and pretty printer;
//! * [`omega`] — integer linear inequality systems (regions);
//! * [`pred`] — the predicate domain (embedding/extraction);
//! * [`analysis`] — the predicated array data-flow analysis and its
//!   baseline variants;
//! * [`rt`] — the interpreter, parallel executor, and ELPD inspector;
//! * [`suite`] — the synthetic benchmark corpus and kernels;
//! * [`service`] — the analysis-as-a-service HTTP daemon.
//!
//! ## Quick start
//!
//! ```
//! use padfa::prelude::*;
//!
//! let src = "proc main(n: int, x: int) {
//!     array help[101];
//!     array a[100, 2];
//!     for@hot i = 1 to n {
//!         if (x > 5) { help[i] = a[i, 1]; }
//!         a[i, 2] = help[i + 1];
//!     }
//! }";
//! let prog = parse_program(src).unwrap();
//!
//! // Analyze: the hot loop needs a run-time test.
//! let result = analyze_program(&prog, &Options::predicated()).unwrap();
//! let hot = result.by_label("hot").unwrap();
//! assert!(matches!(hot.outcome, Outcome::ParallelIf(_)));
//!
//! // Execute as a two-version loop and check against the sequential oracle.
//! let plan = ExecPlan::from_analysis(&prog, &result);
//! let args = vec![ArgValue::Int(100), ArgValue::Int(3)];
//! let seq = run_main(&prog, args.clone(), &RunConfig::sequential()).unwrap();
//! let par = run_main(&prog, args, &RunConfig::parallel(4, plan)).unwrap();
//! assert_eq!(seq.max_abs_diff(&par), 0.0);
//! ```

pub use padfa_core as analysis;
pub use padfa_ir as ir;
pub use padfa_omega as omega;
pub use padfa_pred as pred;
pub use padfa_rt as rt;
pub use padfa_service as service;
pub use padfa_suite as suite;

/// The most common imports.
pub mod prelude {
    pub use padfa_core::{
        analyze_program, analyze_program_session, AnalysisError, AnalysisResult, AnalysisSession,
        OnExhausted, Options, Outcome, StatsSnapshot, Variant, WorkBudget,
    };
    pub use padfa_ir::parse::{parse_bool_expr, parse_expr, parse_program};
    pub use padfa_ir::{LoopId, Program, Var};
    pub use padfa_pred::Pred;
    pub use padfa_rt::elpd::elpd_inspect;
    pub use padfa_rt::{run_main, ArgValue, ArrayStore, ExecPlan, RunConfig, Value};
}
