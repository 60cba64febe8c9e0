//! # padfa-rt
//!
//! The execution substrate for the predicated-analysis evaluation: a
//! tree-walking interpreter for the mini-Fortran IR, a parallel loop
//! executor driving worker threads over iteration blocks, and the ELPD
//! (Extended Lazy Privatizing Doall) run-time inspector used by the
//! paper to identify the *inherently parallel* loops a compiler misses.
//!
//! The paper ran SUIF-generated SPMD code on SGI multiprocessors; here
//! the same roles are played by:
//!
//! * [`machine::Machine`] — sequential reference execution (the oracle
//!   every parallel run is compared against);
//! * [`plan::ExecPlan`] — built from a [`padfa_core::AnalysisResult`],
//!   selecting the outermost parallelizable loop of every nest (SUIF
//!   exploits a single level of parallelism) and carrying privatization,
//!   reduction, and two-version run-time test information;
//! * [`parallel`] — the block-partitioned worker-pool executor. Each
//!   worker runs on a private copy of the machine arrays with write
//!   tracking; merging the copies in block order reproduces the exact
//!   sequential final state for independent and privatized loops
//!   (last-value semantics), and reductions combine per-worker partial
//!   results in block order;
//! * [`elpd`] — shadow-array instrumentation classifying each candidate
//!   loop, on a concrete input, as independent / privatizable /
//!   sequential;
//! * [`faults`] — deterministic fault injection for proving the
//!   executor's panic isolation, state validation, and transactional
//!   sequential fallback (see the "Fault tolerance" notes on
//!   [`parallel`]).
//!
//! ```
//! use padfa_rt::{run_main, RunConfig, ArgValue};
//!
//! let src = "proc main(n: int) { array a[8];
//!     for i = 1 to n { a[i] = a[i] + 1.0; } }";
//! let prog = padfa_ir::parse::parse_program(src).unwrap();
//! let out = run_main(&prog, vec![ArgValue::Int(8)], &RunConfig::sequential()).unwrap();
//! assert_eq!(out.array("a").unwrap().as_f64()[7], 1.0);
//! ```

pub mod elpd;
pub mod faults;
pub mod inspector;
pub mod machine;
pub mod parallel;
pub mod plan;
pub mod value;

pub use faults::{FaultKind, WorkerFault};
pub use machine::{run_main, ExecError, ExecStats, LoopProfile, RunConfig, RunResult};
pub use plan::{ExecPlan, LoopPlan, ParallelKind, PlanError};
pub use value::{ArgValue, ArrayStore, Value};
