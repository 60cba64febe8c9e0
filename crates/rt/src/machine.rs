//! The sequential interpreter and its instrumentation hooks.

use crate::elpd::ElpdState;
use crate::faults::{FaultKind, WorkerFault};
use crate::plan::{ExecPlan, ParallelKind};
use crate::value::{ArgValue, ArrayStore, Value};
use padfa_core::faults::{Fault, FaultPlan};
use padfa_ir::ast::{Arg, Block, BoolExpr, Expr, Intrinsic, LValue, Loop, Procedure, Stmt};
use padfa_ir::{LoopId, Program, ScalarTy, Var};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Execution errors (bounds violations, bad arguments, arithmetic,
/// resource budgets, and worker failures surfaced by the fault-tolerant
/// parallel executor).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    UnknownProcedure(String),
    NoEntryProcedure,
    BadArgument(String),
    OutOfBounds {
        array: String,
        idxs: Vec<i64>,
    },
    DivisionByZero,
    UnboundScalar(String),
    UnboundArray(String),
    /// A parallel worker panicked and sequential fallback was disabled
    /// (or the panic escaped a context with no fallback).
    WorkerPanicked {
        worker: usize,
        message: String,
    },
    /// The configured statement budget ran out (see
    /// [`RunConfig::with_fuel`]).
    FuelExhausted,
    /// The configured wall-clock deadline passed (see
    /// [`RunConfig::with_deadline`]).
    DeadlineExceeded,
    /// A worker's write-tracker metadata failed validation on join and
    /// sequential fallback was disabled.
    StateCorrupted {
        worker: usize,
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownProcedure(n) => write!(f, "unknown procedure '{n}'"),
            ExecError::NoEntryProcedure => write!(f, "program has no entry procedure"),
            ExecError::BadArgument(m) => write!(f, "bad argument: {m}"),
            ExecError::OutOfBounds { array, idxs } => {
                write!(f, "index {idxs:?} out of bounds for array '{array}'")
            }
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::UnboundScalar(n) => write!(f, "unbound scalar '{n}'"),
            ExecError::UnboundArray(n) => write!(f, "unbound array '{n}'"),
            ExecError::WorkerPanicked { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            ExecError::FuelExhausted => write!(f, "fuel budget exhausted"),
            ExecError::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
            ExecError::StateCorrupted { worker, detail } => {
                write!(f, "worker {worker} produced corrupted state: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Parallel region entries.
    pub parallel_loops: u64,
    /// Two-version tests evaluated true (parallel version taken).
    pub tests_passed: u64,
    /// Two-version tests evaluated false (sequential fallback).
    pub tests_failed: u64,
    /// Total loop iterations executed.
    pub iterations: u64,
    /// Inspector/executor: inspections performed.
    pub inspections: u64,
    /// Inspector/executor: inspections that chose the parallel path.
    pub inspections_parallel: u64,
    /// Parallel regions that failed mid-flight and were transparently
    /// re-run sequentially (transactional two-version fallback).
    pub fallbacks: u64,
    /// Worker panics caught and isolated (whether or not a fallback
    /// followed).
    pub worker_panics: u64,
}

impl ExecStats {
    pub fn merge(&mut self, other: &ExecStats) {
        self.parallel_loops += other.parallel_loops;
        self.tests_passed += other.tests_passed;
        self.tests_failed += other.tests_failed;
        self.iterations += other.iterations;
        self.inspections += other.inspections;
        self.inspections_parallel += other.inspections_parallel;
        self.fallbacks += other.fallbacks;
        self.worker_panics += other.worker_panics;
    }
}

/// Per-loop profile used for coverage/granularity tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopProfile {
    pub invocations: u64,
    pub iterations: u64,
    /// Statements executed within the loop (including nested loops).
    pub work: u64,
}

/// Run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker count; 1 disables all parallel execution.
    pub workers: usize,
    pub plan: ExecPlan,
    /// Values consumed by `read` statements (recycled when exhausted).
    pub input: Vec<f64>,
    /// Scheduling granularity: `None` = one contiguous block per worker
    /// (static); `Some(c)` = chunks of `c` iterations dealt round-robin
    /// (interleaved), as in `schedule(static, c)`.
    pub chunk: Option<usize>,
    /// Loops run under the inspector/executor comparator instead of a
    /// compile-time plan (see [`crate::inspector`]).
    pub inspect: Vec<padfa_ir::LoopId>,
    /// Statement budget for the whole run: `Some(n)` makes execution
    /// fail with [`ExecError::FuelExhausted`] after `n` statements, on
    /// both the sequential and parallel paths (workers split the
    /// remaining budget). `None` = unlimited.
    pub fuel: Option<u64>,
    /// Wall-clock budget for the whole run: execution fails with
    /// [`ExecError::DeadlineExceeded`] once it has been running longer.
    pub deadline: Option<Duration>,
    /// Deterministic faults to inject into parallel workers (testing).
    pub faults: FaultPlan<WorkerFault>,
    /// Whether a failed parallel region is transparently re-run
    /// sequentially (the transactional two-version fallback). When
    /// `false` the failure surfaces as a typed [`ExecError`] instead.
    pub fallback: bool,
}

impl RunConfig {
    pub fn sequential() -> RunConfig {
        RunConfig {
            workers: 1,
            plan: ExecPlan::sequential(),
            input: Vec::new(),
            chunk: None,
            inspect: Vec::new(),
            fuel: None,
            deadline: None,
            faults: FaultPlan::none(),
            fallback: true,
        }
    }

    pub fn parallel(workers: usize, plan: ExecPlan) -> RunConfig {
        RunConfig {
            workers,
            plan,
            ..RunConfig::sequential()
        }
    }

    /// Round-robin chunked scheduling with the given chunk size.
    pub fn chunked(workers: usize, plan: ExecPlan, chunk: usize) -> RunConfig {
        RunConfig {
            chunk: Some(chunk.max(1)),
            ..RunConfig::parallel(workers, plan)
        }
    }

    /// Cap the run at `fuel` interpreted statements.
    pub fn with_fuel(mut self, fuel: u64) -> RunConfig {
        self.fuel = Some(fuel);
        self
    }

    /// Cap the run at `deadline` of wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> RunConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Inject the given fault plan into parallel workers.
    pub fn with_faults(mut self, faults: FaultPlan<WorkerFault>) -> RunConfig {
        self.faults = faults;
        self
    }

    /// Disable the sequential fallback: worker failures surface as
    /// typed errors instead of being recovered from.
    pub fn no_fallback(mut self) -> RunConfig {
        self.fallback = false;
        self
    }
}

/// Final state of an execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    arrays: HashMap<String, ArrayStore>,
    scalars: HashMap<String, Value>,
    pub printed: Vec<Value>,
    pub stats: ExecStats,
    pub profile: HashMap<LoopId, LoopProfile>,
    /// Total statements executed (coverage denominators).
    pub total_work: u64,
    /// Simulated execution time in work units: like `total_work`, but a
    /// parallel region contributes the *maximum* over its workers plus a
    /// fork/join and private-copy overhead, instead of the sum. The
    /// speedup figure is computed from this model (the development host
    /// may have a single CPU; see DESIGN.md "Substitutions").
    pub sim_time: u64,
}

impl RunResult {
    /// Final contents of an entry-frame array (parameter or local).
    pub fn array(&self, name: &str) -> Option<&ArrayStore> {
        self.arrays.get(name)
    }

    /// Final value of an entry-frame scalar.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        self.scalars.get(name).copied()
    }

    /// Whether the final machine state (arrays and scalars) is
    /// bit-identical to `other`'s. Stricter than [`Self::max_abs_diff`]:
    /// `-0.0` vs `0.0` and NaN payloads count as differences, which is
    /// exactly the guarantee the two-version fallback makes — recovery
    /// reproduces the sequential result, not an approximation of it.
    pub fn bits_eq(&self, other: &RunResult) -> bool {
        if self.arrays.len() != other.arrays.len() || self.scalars.len() != other.scalars.len() {
            return false;
        }
        for (name, a) in &self.arrays {
            match other.arrays.get(name) {
                Some(b) if a.bits_eq(b) => {}
                _ => return false,
            }
        }
        for (name, a) in &self.scalars {
            match other.scalars.get(name) {
                Some(b) if a.bits_eq(*b) => {}
                _ => return false,
            }
        }
        true
    }

    /// Maximum absolute difference across all arrays against another
    /// result (both must come from the same program).
    pub fn max_abs_diff(&self, other: &RunResult) -> f64 {
        let mut worst: f64 = 0.0;
        for (name, a) in &self.arrays {
            if let Some(b) = other.arrays.get(name) {
                worst = worst.max(a.max_abs_diff(b));
            }
        }
        for (name, a) in &self.scalars {
            if let Some(b) = other.scalars.get(name) {
                worst = worst.max((a.as_f64() - b.as_f64()).abs());
            }
        }
        worst
    }
}

/// Control flow escaping a statement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    Normal,
    /// `exit when` fired: unwind to the nearest loop.
    Exit,
}

/// An array visible in a frame: the storage handle plus the *view*
/// shape this procedure declared for it. Passing an array to a callee
/// with a different declared shape reinterprets the same row-major
/// storage (Fortran reshape semantics) — subscripts are resolved against
/// the view, offsets against the shared store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayBinding {
    pub handle: usize,
    /// Index of the view shape in [`Frame::shapes`].
    pub shape: usize,
}

/// One procedure activation.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    pub scalars: HashMap<Var, Value>,
    /// Array name -> binding (handle + view shape).
    pub arrays: HashMap<Var, ArrayBinding>,
    /// View shapes referenced by bindings.
    pub shapes: Vec<Vec<usize>>,
}

impl Frame {
    /// Bind `name` to `handle` viewed with `dims`.
    pub fn bind_array(&mut self, name: Var, handle: usize, dims: Vec<usize>) {
        let shape = self.shapes.len();
        self.shapes.push(dims);
        self.arrays.insert(name, ArrayBinding { handle, shape });
    }

    /// The storage handle for `name`, if bound.
    pub fn array_handle(&self, name: Var) -> Option<usize> {
        self.arrays.get(&name).map(|b| b.handle)
    }
}

/// Per-worker write tracking (for ordered merges).
#[derive(Clone, Debug, Default)]
pub struct Tracker {
    /// Per-handle element write stamps: 0 = untouched, otherwise the
    /// 1-based index of the last chunk that wrote the element. Merging
    /// in descending-stamp order reproduces sequential last-value
    /// semantics under any chunk-to-worker assignment.
    pub masks: HashMap<usize, Vec<u32>>,
    /// Last writing chunk per scalar (same stamp discipline).
    pub scalar_writes: HashMap<Var, u32>,
    /// Stamp of the chunk currently executing (set by the executor).
    pub stamp: u32,
}

/// The interpreter.
pub struct Machine<'p> {
    pub prog: &'p Program,
    pub cfg: &'p RunConfig,
    pub arrays: Vec<ArrayStore>,
    pub stats: ExecStats,
    pub profile: HashMap<LoopId, LoopProfile>,
    pub printed: Vec<Value>,
    pub(crate) input_pos: usize,
    /// True inside a parallel worker: suppresses nested parallelism.
    pub in_worker: bool,
    pub tracker: Option<Tracker>,
    pub(crate) elpd: Option<ElpdState>,
    pub work: u64,
    /// Simulated-time counter (see [`RunResult::sim_time`]).
    pub sim: u64,
    /// Remaining statement budget; `None` = unlimited. Initialized from
    /// [`RunConfig::fuel`]; workers are handed a split of the parent's
    /// remaining budget by the parallel executor.
    pub fuel: Option<u64>,
    /// Absolute wall-clock deadline (checked every few hundred
    /// statements to keep the hot path cheap).
    pub deadline: Option<Instant>,
    /// Armed fault injections (workers only; see [`crate::faults`]).
    pub pending_faults: Vec<Fault<WorkerFault>>,
}

impl<'p> Machine<'p> {
    pub fn new(prog: &'p Program, cfg: &'p RunConfig) -> Machine<'p> {
        Machine {
            prog,
            cfg,
            arrays: Vec::new(),
            stats: ExecStats::default(),
            profile: HashMap::new(),
            printed: Vec::new(),
            input_pos: 0,
            in_worker: false,
            tracker: None,
            elpd: None,
            work: 0,
            sim: 0,
            fuel: cfg.fuel,
            deadline: cfg.deadline.map(|d| Instant::now() + d),
            pending_faults: Vec::new(),
        }
    }

    pub fn alloc_array(&mut self, store: ArrayStore) -> usize {
        self.arrays.push(store);
        self.arrays.len() - 1
    }

    fn scalar(&self, frame: &Frame, v: Var) -> Result<Value, ExecError> {
        frame
            .scalars
            .get(&v)
            .copied()
            .ok_or_else(|| ExecError::UnboundScalar(v.name()))
    }

    fn handle(&self, frame: &Frame, a: Var) -> Result<usize, ExecError> {
        frame
            .array_handle(a)
            .ok_or_else(|| ExecError::UnboundArray(a.name()))
    }

    fn index(&self, frame: &Frame, a: Var, subs: &[Expr]) -> Result<(usize, usize), ExecError> {
        let binding = *frame
            .arrays
            .get(&a)
            .ok_or_else(|| ExecError::UnboundArray(a.name()))?;
        let dims = &frame.shapes[binding.shape];
        // Hot path: no heap allocation per access (ranks are small).
        let mut idxs = [0i64; 8];
        if subs.len() > idxs.len() || subs.len() != dims.len() {
            return Err(ExecError::OutOfBounds {
                array: a.name(),
                idxs: Vec::new(),
            });
        }
        for (slot, s) in idxs.iter_mut().zip(subs) {
            *slot = self.eval(frame, s)?.as_i64();
        }
        // Resolve against the view shape (row-major, 1-based), then
        // bound-check the flat offset against the shared store.
        let mut off: usize = 0;
        for (&i, &d) in idxs.iter().zip(dims) {
            if i < 1 || i as usize > d {
                return Err(ExecError::OutOfBounds {
                    array: a.name(),
                    idxs: idxs[..subs.len()].to_vec(),
                });
            }
            off = off * d + (i as usize - 1);
        }
        if off >= self.arrays[binding.handle].len() {
            return Err(ExecError::OutOfBounds {
                array: a.name(),
                idxs: idxs[..subs.len()].to_vec(),
            });
        }
        Ok((binding.handle, off))
    }

    /// Evaluate an arithmetic expression.
    pub fn eval(&self, frame: &Frame, e: &Expr) -> Result<Value, ExecError> {
        Ok(match e {
            Expr::IntLit(v) => Value::Int(*v),
            Expr::RealLit(v) => Value::Real(*v),
            Expr::Scalar(v) => self.scalar(frame, *v)?,
            Expr::Elem(a, subs) => {
                let (h, off) = self.index(frame, *a, subs)?;
                self.arrays[h].get(off)
            }
            Expr::Add(a, b) => num2(
                self.eval(frame, a)?,
                self.eval(frame, b)?,
                |x, y| x + y,
                |x, y| x.wrapping_add(y),
            ),
            Expr::Sub(a, b) => num2(
                self.eval(frame, a)?,
                self.eval(frame, b)?,
                |x, y| x - y,
                |x, y| x.wrapping_sub(y),
            ),
            Expr::Mul(a, b) => num2(
                self.eval(frame, a)?,
                self.eval(frame, b)?,
                |x, y| x * y,
                |x, y| x.wrapping_mul(y),
            ),
            Expr::Div(a, b) => {
                let x = self.eval(frame, a)?;
                let y = self.eval(frame, b)?;
                match (x, y) {
                    (Value::Int(p), Value::Int(q)) => {
                        if q == 0 {
                            return Err(ExecError::DivisionByZero);
                        }
                        Value::Int(p / q)
                    }
                    _ => {
                        let q = y.as_f64();
                        Value::Real(x.as_f64() / q)
                    }
                }
            }
            Expr::Mod(a, b) => {
                let x = self.eval(frame, a)?.as_i64();
                let y = self.eval(frame, b)?.as_i64();
                if y == 0 {
                    return Err(ExecError::DivisionByZero);
                }
                Value::Int(x.rem_euclid(y))
            }
            Expr::Neg(a) => match self.eval(frame, a)? {
                Value::Int(v) => Value::Int(-v),
                Value::Real(v) => Value::Real(-v),
            },
            Expr::Call(intr, args) => {
                let x = self.eval(frame, &args[0])?;
                match intr {
                    Intrinsic::Sin => Value::Real(x.as_f64().sin()),
                    Intrinsic::Cos => Value::Real(x.as_f64().cos()),
                    Intrinsic::Sqrt => Value::Real(x.as_f64().sqrt()),
                    Intrinsic::Exp => Value::Real(x.as_f64().exp()),
                    Intrinsic::Abs => match x {
                        Value::Int(v) => Value::Int(v.abs()),
                        Value::Real(v) => Value::Real(v.abs()),
                    },
                    Intrinsic::Min | Intrinsic::Max => {
                        let y = self.eval(frame, &args[1])?;
                        match (x, y) {
                            (Value::Int(p), Value::Int(q)) => {
                                Value::Int(if *intr == Intrinsic::Min {
                                    p.min(q)
                                } else {
                                    p.max(q)
                                })
                            }
                            _ => {
                                let (p, q) = (x.as_f64(), y.as_f64());
                                Value::Real(if *intr == Intrinsic::Min {
                                    p.min(q)
                                } else {
                                    p.max(q)
                                })
                            }
                        }
                    }
                }
            }
        })
    }

    /// Evaluate a boolean expression.
    pub fn eval_bool(&self, frame: &Frame, b: &BoolExpr) -> Result<bool, ExecError> {
        Ok(match b {
            BoolExpr::Lit(v) => *v,
            BoolExpr::Cmp(op, a, c) => {
                let x = self.eval(frame, a)?;
                let y = self.eval(frame, c)?;
                match (x, y) {
                    (Value::Int(p), Value::Int(q)) => op.apply_i(p, q),
                    _ => op.apply_f(x.as_f64(), y.as_f64()),
                }
            }
            BoolExpr::And(a, c) => self.eval_bool(frame, a)? && self.eval_bool(frame, c)?,
            BoolExpr::Or(a, c) => self.eval_bool(frame, a)? || self.eval_bool(frame, c)?,
            BoolExpr::Not(a) => !self.eval_bool(frame, a)?,
        })
    }

    /// Record reads for the ELPD inspector.
    fn note_reads(&mut self, frame: &Frame, e: &Expr) -> Result<(), ExecError> {
        if self.elpd.is_none() {
            return Ok(());
        }
        // Collect accesses first (cannot call hooks during traversal due
        // to borrow rules).
        let mut accesses: Vec<(usize, usize)> = Vec::new();
        let mut scalars: Vec<Var> = Vec::new();
        collect_reads(self, frame, e, &mut accesses, &mut scalars)?;
        if let Some(elpd) = &mut self.elpd {
            for (h, off) in accesses {
                elpd.on_array_read(h, off);
            }
            for v in scalars {
                elpd.on_scalar_read(v);
            }
        }
        Ok(())
    }

    fn note_bool_reads(&mut self, frame: &Frame, b: &BoolExpr) -> Result<(), ExecError> {
        if self.elpd.is_none() {
            return Ok(());
        }
        match b {
            BoolExpr::Lit(_) => Ok(()),
            BoolExpr::Cmp(_, x, y) => {
                self.note_reads(frame, x)?;
                self.note_reads(frame, y)
            }
            BoolExpr::And(x, y) | BoolExpr::Or(x, y) => {
                self.note_bool_reads(frame, x)?;
                self.note_bool_reads(frame, y)
            }
            BoolExpr::Not(x) => self.note_bool_reads(frame, x),
        }
    }

    /// Execute one statement.
    pub fn exec_stmt(&mut self, frame: &mut Frame, stmt: &Stmt) -> Result<Flow, ExecError> {
        if let Some(fuel) = &mut self.fuel {
            if *fuel == 0 {
                return Err(ExecError::FuelExhausted);
            }
            *fuel -= 1;
        }
        self.work += 1;
        self.sim += 1;
        // Amortize the clock read: a syscall per statement would dwarf
        // the interpreter itself.
        if self.deadline.is_some() && self.work & 0x1FF == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() > deadline {
                    return Err(ExecError::DeadlineExceeded);
                }
            }
        }
        if !self.pending_faults.is_empty() {
            self.fire_faults()?;
        }
        match stmt {
            Stmt::Assign { lhs, rhs } => {
                self.note_reads(frame, rhs)?;
                let val = self.eval(frame, rhs)?;
                match lhs {
                    LValue::Scalar(v) => {
                        // Preserve the declared type of the target.
                        let stored = match frame.scalars.get(v) {
                            Some(Value::Int(_)) => Value::Int(val.as_i64()),
                            Some(Value::Real(_)) => Value::Real(val.as_f64()),
                            None => val,
                        };
                        frame.scalars.insert(*v, stored);
                        if let Some(t) = &mut self.tracker {
                            t.scalar_writes.insert(*v, t.stamp);
                        }
                        if let Some(e) = &mut self.elpd {
                            e.on_scalar_write(*v);
                        }
                    }
                    LValue::Elem(a, subs) => {
                        for s in subs {
                            self.note_reads(frame, s)?;
                        }
                        let (h, off) = self.index(frame, *a, subs)?;
                        self.arrays[h].set(off, val);
                        if let Some(t) = &mut self.tracker {
                            let stamp = t.stamp;
                            t.masks
                                .entry(h)
                                .or_insert_with(|| vec![0; self.arrays[h].len()])[off] = stamp;
                        }
                        if let Some(e) = &mut self.elpd {
                            e.on_array_write(h, off);
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.note_bool_reads(frame, cond)?;
                if self.eval_bool(frame, cond)? {
                    self.exec_block(frame, then_blk)
                } else {
                    self.exec_block(frame, else_blk)
                }
            }
            Stmt::For(l) => self.exec_loop(frame, l),
            Stmt::Call { callee, args } => {
                self.exec_call(frame, callee, args)?;
                Ok(Flow::Normal)
            }
            Stmt::Read(v) => {
                let raw = if self.cfg.input.is_empty() {
                    0.0
                } else {
                    let x = self.cfg.input[self.input_pos % self.cfg.input.len()];
                    self.input_pos += 1;
                    x
                };
                let stored = match frame.scalars.get(v) {
                    Some(Value::Int(_)) => Value::Int(raw as i64),
                    _ => Value::Real(raw),
                };
                frame.scalars.insert(*v, stored);
                Ok(Flow::Normal)
            }
            Stmt::Print(e) => {
                self.note_reads(frame, e)?;
                let v = self.eval(frame, e)?;
                self.printed.push(v);
                Ok(Flow::Normal)
            }
            Stmt::ExitWhen(c) => {
                self.note_bool_reads(frame, c)?;
                if self.eval_bool(frame, c)? {
                    Ok(Flow::Exit)
                } else {
                    Ok(Flow::Normal)
                }
            }
        }
    }

    /// Fire any armed fault whose statement count has been reached.
    /// Statements are counted per machine, so inside a worker `work`
    /// is the worker-local count a [`WorkerFault`]'s `at` refers to.
    fn fire_faults(&mut self) -> Result<(), ExecError> {
        let stmt_no = self.work;
        let mut fired_err = None;
        self.pending_faults.retain(|f| {
            if f.at != stmt_no || fired_err.is_some() {
                return f.at > stmt_no;
            }
            match &f.kind.kind {
                FaultKind::Panic => {
                    panic!("injected fault: panic at statement {stmt_no}");
                }
                FaultKind::Error(e) => {
                    fired_err = Some(e.clone());
                }
                FaultKind::CorruptStamp => {
                    // Silent metadata corruption: keep executing with a
                    // stamp no chunk assignment could have produced.
                    if let Some(t) = &mut self.tracker {
                        t.stamp = u32::MAX;
                    }
                }
            }
            false
        });
        match fired_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    pub fn exec_block(&mut self, frame: &mut Frame, block: &Block) -> Result<Flow, ExecError> {
        for s in &block.stmts {
            if self.exec_stmt(frame, s)? == Flow::Exit {
                return Ok(Flow::Exit);
            }
        }
        Ok(Flow::Normal)
    }

    /// Execute one loop (choosing sequential or parallel execution).
    pub(crate) fn exec_loop(&mut self, frame: &mut Frame, l: &Loop) -> Result<Flow, ExecError> {
        let lo = self.eval(frame, &l.lo)?.as_i64();
        let hi = self.eval(frame, &l.hi)?.as_i64();
        let trip = if l.step > 0 {
            if hi >= lo {
                ((hi - lo) / l.step + 1) as u64
            } else {
                0
            }
        } else if lo >= hi {
            ((lo - hi) / (-l.step) + 1) as u64
        } else {
            0
        };
        let work_before = self.work;
        {
            let p = self.profile.entry(l.id).or_default();
            p.invocations += 1;
            p.iterations += trip;
        }
        self.stats.iterations += trip;

        let elpd_target = self.elpd.as_ref().map(|e| e.target) == Some(l.id);
        if elpd_target {
            if let Some(e) = &mut self.elpd {
                e.begin_invocation(self.arrays.len());
            }
        }

        // Inspector/executor path (the run-time comparator the paper
        // argues against: per-invocation inspection whose cost scales
        // with the aggregate size of the accessed arrays).
        if !self.in_worker
            && self.cfg.workers > 1
            && trip >= 2
            && self.elpd.is_none()
            && self.cfg.inspect.contains(&l.id)
        {
            crate::inspector::run_inspected_loop(self, frame, l)?;
            let delta = self.work - work_before;
            self.profile.entry(l.id).or_default().work += delta;
            return Ok(Flow::Normal);
        }

        // Parallel path.
        if !self.in_worker && self.cfg.workers > 1 && trip >= 2 && self.elpd.is_none() {
            if let Some(plan) = self.cfg.plan.get(l.id) {
                let go = match &plan.kind {
                    ParallelKind::Always => true,
                    ParallelKind::If(test) => {
                        let ok = self.eval_bool(frame, test)?;
                        if ok {
                            self.stats.tests_passed += 1;
                        } else {
                            self.stats.tests_failed += 1;
                        }
                        ok
                    }
                };
                if go {
                    self.stats.parallel_loops += 1;
                    let plan = plan.clone();
                    crate::parallel::run_parallel_loop(self, frame, l, &plan, lo, hi)?;
                    let delta = self.work - work_before;
                    self.profile.entry(l.id).or_default().work += delta;
                    return Ok(Flow::Normal);
                }
            }
        }

        // Sequential path.
        let saved = frame.scalars.get(&l.var).copied();
        let mut i = lo;
        while (l.step > 0 && i <= hi) || (l.step < 0 && i >= hi) {
            frame.scalars.insert(l.var, Value::Int(i));
            if elpd_target {
                if let Some(e) = &mut self.elpd {
                    e.set_iteration(i);
                }
            }
            let flow = self.exec_block(frame, &l.body)?;
            if flow == Flow::Exit {
                break;
            }
            i += l.step;
        }
        match saved {
            Some(v) => {
                frame.scalars.insert(l.var, v);
            }
            None => {
                frame.scalars.remove(&l.var);
            }
        }
        if elpd_target {
            if let Some(e) = &mut self.elpd {
                e.end_invocation();
            }
        }
        let delta = self.work - work_before;
        self.profile.entry(l.id).or_default().work += delta;
        Ok(Flow::Normal)
    }

    /// Execute a procedure call.
    fn exec_call(&mut self, frame: &Frame, callee: &str, args: &[Arg]) -> Result<(), ExecError> {
        let proc = self
            .prog
            .proc(callee)
            .ok_or_else(|| ExecError::UnknownProcedure(callee.to_string()))?;
        let mut callee_frame = Frame::default();
        // First pass: bind scalar parameters, so array extents that
        // reference sibling scalar parameters can be evaluated.
        for (param, arg) in proc.params.iter().zip(args) {
            match (&param.ty, arg) {
                (padfa_ir::ParamTy::Scalar(ty), Arg::Scalar(e)) => {
                    let v = self.eval(frame, e)?;
                    self.note_reads_frame(frame, e)?;
                    let stored = match ty {
                        ScalarTy::Int => Value::Int(v.as_i64()),
                        ScalarTy::Real => Value::Real(v.as_f64()),
                    };
                    callee_frame.scalars.insert(param.name, stored);
                }
                (padfa_ir::ParamTy::Scalar(ty), Arg::Array(v)) => {
                    // Bare-identifier scalar actual.
                    let val = self.scalar(frame, *v)?;
                    let stored = match ty {
                        ScalarTy::Int => Value::Int(val.as_i64()),
                        ScalarTy::Real => Value::Real(val.as_f64()),
                    };
                    callee_frame.scalars.insert(param.name, stored);
                }
                _ => {}
            }
        }
        // Second pass: bind arrays with the callee's declared view shape.
        for (param, arg) in proc.params.iter().zip(args) {
            match (&param.ty, arg) {
                (padfa_ir::ParamTy::Array { dims, .. }, Arg::Array(v)) => {
                    let h = self.handle(frame, *v)?;
                    let mut view = Vec::with_capacity(dims.len());
                    for e in dims {
                        let n = self.eval(&callee_frame, e)?.as_i64();
                        if n < 0 {
                            return Err(ExecError::BadArgument(format!(
                                "negative extent for parameter '{}' of '{callee}'",
                                param.name
                            )));
                        }
                        view.push(n as usize);
                    }
                    callee_frame.bind_array(param.name, h, view);
                }
                (padfa_ir::ParamTy::Array { .. }, Arg::Scalar(_)) => {
                    return Err(ExecError::BadArgument(format!(
                        "scalar passed for array parameter of '{callee}'"
                    )));
                }
                _ => {}
            }
        }
        self.init_locals(proc, &mut callee_frame)?;
        self.exec_block(&mut callee_frame, &proc.body)?;
        Ok(())
    }

    fn note_reads_frame(&mut self, frame: &Frame, e: &Expr) -> Result<(), ExecError> {
        self.note_reads(frame, e)
    }

    /// Allocate locals (arrays + scalars) for a procedure activation.
    pub fn init_locals(&mut self, proc: &Procedure, frame: &mut Frame) -> Result<(), ExecError> {
        for d in &proc.arrays {
            let mut dims = Vec::with_capacity(d.dims.len());
            for e in &d.dims {
                let n = self.eval(frame, e)?.as_i64();
                if n < 0 {
                    return Err(ExecError::BadArgument(format!(
                        "negative extent for array '{}'",
                        d.name
                    )));
                }
                dims.push(n as usize);
            }
            let h = self.alloc_array(ArrayStore::zeros(dims.clone(), d.ty));
            frame.bind_array(d.name, h, dims);
        }
        for s in &proc.scalars {
            let v = match &s.init {
                Some(e) => {
                    let val = self.eval(frame, e)?;
                    match s.ty {
                        ScalarTy::Int => Value::Int(val.as_i64()),
                        ScalarTy::Real => Value::Real(val.as_f64()),
                    }
                }
                None => Value::zero(s.ty),
            };
            frame.scalars.insert(s.name, v);
        }
        Ok(())
    }
}

fn collect_reads(
    m: &Machine<'_>,
    frame: &Frame,
    e: &Expr,
    accesses: &mut Vec<(usize, usize)>,
    scalars: &mut Vec<Var>,
) -> Result<(), ExecError> {
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) => {}
        Expr::Scalar(v) => scalars.push(*v),
        Expr::Elem(a, subs) => {
            for s in subs {
                collect_reads(m, frame, s, accesses, scalars)?;
            }
            let (h, off) = m.index(frame, *a, subs)?;
            accesses.push((h, off));
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Mod(a, b) => {
            collect_reads(m, frame, a, accesses, scalars)?;
            collect_reads(m, frame, b, accesses, scalars)?;
        }
        Expr::Neg(a) => collect_reads(m, frame, a, accesses, scalars)?,
        Expr::Call(_, args) => {
            for a in args {
                collect_reads(m, frame, a, accesses, scalars)?;
            }
        }
    }
    Ok(())
}

#[inline]
fn num2(a: Value, b: Value, f: fn(f64, f64) -> f64, g: fn(i64, i64) -> i64) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(g(x, y)),
        _ => Value::Real(f(a.as_f64(), b.as_f64())),
    }
}

/// Build the entry frame from arguments.
pub(crate) fn build_entry_frame(
    machine: &mut Machine<'_>,
    proc: &Procedure,
    args: Vec<ArgValue>,
) -> Result<Frame, ExecError> {
    if args.len() != proc.params.len() {
        return Err(ExecError::BadArgument(format!(
            "entry '{}' expects {} argument(s), got {}",
            proc.name,
            proc.params.len(),
            args.len()
        )));
    }
    let mut frame = Frame::default();
    for (param, arg) in proc.params.iter().zip(args) {
        match (&param.ty, arg) {
            (padfa_ir::ParamTy::Scalar(ScalarTy::Int), ArgValue::Int(v)) => {
                frame.scalars.insert(param.name, Value::Int(v));
            }
            (padfa_ir::ParamTy::Scalar(ScalarTy::Real), ArgValue::Real(v)) => {
                frame.scalars.insert(param.name, Value::Real(v));
            }
            (padfa_ir::ParamTy::Scalar(ScalarTy::Real), ArgValue::Int(v)) => {
                frame.scalars.insert(param.name, Value::Real(v as f64));
            }
            (padfa_ir::ParamTy::Array { .. }, ArgValue::Array(store)) => {
                let dims = store.dims.clone();
                let h = machine.alloc_array(store);
                frame.bind_array(param.name, h, dims);
            }
            (_, arg) => {
                return Err(ExecError::BadArgument(format!(
                    "argument for '{}' has wrong kind: {arg:?}",
                    param.name
                )));
            }
        }
    }
    machine.init_locals(proc, &mut frame)?;
    Ok(frame)
}

/// Run the entry procedure (`main`, or the first procedure).
pub fn run_main(
    prog: &Program,
    args: Vec<ArgValue>,
    cfg: &RunConfig,
) -> Result<RunResult, ExecError> {
    let proc = prog.entry().ok_or(ExecError::NoEntryProcedure)?;
    let mut machine = Machine::new(prog, cfg);
    let mut frame = build_entry_frame(&mut machine, proc, args)?;
    machine.exec_block(&mut frame, &proc.body)?;
    let mut arrays = HashMap::new();
    for (v, b) in &frame.arrays {
        arrays.insert(v.name(), machine.arrays[b.handle].clone());
    }
    let scalars = frame
        .scalars
        .iter()
        .map(|(v, &val)| (v.name(), val))
        .collect();
    Ok(RunResult {
        arrays,
        scalars,
        printed: machine.printed,
        stats: machine.stats,
        profile: machine.profile,
        total_work: machine.work,
        sim_time: machine.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_ir::parse::parse_program;

    fn run(src: &str, args: Vec<ArgValue>) -> RunResult {
        let prog = parse_program(src).unwrap();
        run_main(&prog, args, &RunConfig::sequential()).unwrap()
    }

    #[test]
    fn arithmetic_and_assignment() {
        let r = run(
            "proc main() { var x: int; var y: real;
             x = 2 + 3 * 4; y = 10.0 / 4.0; }",
            vec![],
        );
        assert_eq!(r.scalar("x"), Some(Value::Int(14)));
        assert_eq!(r.scalar("y"), Some(Value::Real(2.5)));
    }

    #[test]
    fn integer_division_and_mod() {
        let r = run(
            "proc main() { var a: int; var b: int;
             a = 7 / 2; b = 7 % 3; }",
            vec![],
        );
        assert_eq!(r.scalar("a"), Some(Value::Int(3)));
        assert_eq!(r.scalar("b"), Some(Value::Int(1)));
    }

    #[test]
    fn loop_fills_array() {
        let r = run(
            "proc main(n: int) { array a[10];
             for i = 1 to n { a[i] = i * 2; } }",
            vec![ArgValue::Int(10)],
        );
        let a = r.array("a").unwrap().as_f64();
        assert_eq!(a[0], 2.0);
        assert_eq!(a[9], 20.0);
    }

    #[test]
    fn loop_step() {
        let r = run(
            "proc main() { array a[10];
             for i = 1 to 10 step 3 { a[i] = 1.0; } }",
            vec![],
        );
        let a = r.array("a").unwrap().as_f64();
        assert_eq!(a, vec![1., 0., 0., 1., 0., 0., 1., 0., 0., 1.]);
    }

    #[test]
    fn zero_trip_loop() {
        let r = run(
            "proc main(n: int) { array a[4];
             for i = 1 to n { a[i] = 9.0; } }",
            vec![ArgValue::Int(0)],
        );
        assert_eq!(r.array("a").unwrap().as_f64(), vec![0.0; 4]);
        assert_eq!(r.stats.iterations, 0);
    }

    #[test]
    fn conditionals() {
        let r = run(
            "proc main(x: int) { var y: int;
             if (x > 5) { y = 1; } else { y = 2; } }",
            vec![ArgValue::Int(7)],
        );
        assert_eq!(r.scalar("y"), Some(Value::Int(1)));
    }

    #[test]
    fn exit_when_breaks_loop() {
        let r = run(
            "proc main() { array a[10]; var k: int;
             for i = 1 to 10 {
                 a[i] = 1.0;
                 exit when (i >= 4);
             }
             k = 0; }",
            vec![],
        );
        let a = r.array("a").unwrap().as_f64();
        assert_eq!(a.iter().filter(|&&x| x == 1.0).count(), 4);
        assert_eq!(r.scalar("k"), Some(Value::Int(0)), "execution continues");
    }

    #[test]
    fn procedure_call_by_reference_arrays() {
        let r = run(
            "proc addone(b: array[5], n: int) {
                 for j = 1 to n { b[j] = b[j] + 1.0; }
             }
             proc main() { array a[5];
                 call addone(a, 5);
                 call addone(a, 3);
             }",
            vec![],
        );
        assert_eq!(r.array("a").unwrap().as_f64(), vec![2., 2., 2., 1., 1.]);
    }

    #[test]
    fn scalar_params_by_value() {
        let r = run(
            "proc inc(x: int) { x = x + 1; }
             proc main() { var y: int; y = 5; call inc(y); }",
            vec![],
        );
        assert_eq!(r.scalar("y"), Some(Value::Int(5)));
    }

    #[test]
    fn two_d_arrays() {
        let r = run(
            "proc main() { array a[3, 3];
             for i = 1 to 3 { for j = 1 to 3 { a[i, j] = i * 10 + j; } } }",
            vec![],
        );
        let a = r.array("a").unwrap();
        assert_eq!(a.get(a.offset(&[2, 3]).unwrap()).as_f64(), 23.0);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let prog = parse_program("proc main() { array a[3]; a[4] = 1.0; }").unwrap();
        let err = run_main(&prog, vec![], &RunConfig::sequential()).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }));
    }

    #[test]
    fn read_and_print() {
        let prog = parse_program("proc main() { var x: real; read x; print x * 2.0; }").unwrap();
        let cfg = RunConfig {
            input: vec![21.0],
            ..RunConfig::sequential()
        };
        let r = run_main(&prog, vec![], &cfg).unwrap();
        assert_eq!(r.printed, vec![Value::Real(42.0)]);
    }

    #[test]
    fn intrinsics() {
        let r = run(
            "proc main() { var a: real; var b: real; var c: int;
             a = sqrt(16.0); b = max(2.5, 1.0); c = abs(0 - 7); }",
            vec![],
        );
        assert_eq!(r.scalar("a"), Some(Value::Real(4.0)));
        assert_eq!(r.scalar("b"), Some(Value::Real(2.5)));
        assert_eq!(r.scalar("c"), Some(Value::Int(7)));
    }

    #[test]
    fn profile_counts_loops() {
        let r = run(
            "proc main(n: int) { array a[100];
             for i = 1 to n { a[i] = 1.0; }
             for i = 1 to n { a[i] = a[i] + 1.0; } }",
            vec![ArgValue::Int(50)],
        );
        assert_eq!(r.profile[&LoopId(0)].iterations, 50);
        assert_eq!(r.profile[&LoopId(1)].iterations, 50);
        assert_eq!(r.profile[&LoopId(0)].invocations, 1);
        assert!(r.profile[&LoopId(0)].work >= 50);
        assert!(r.total_work > 100);
    }

    #[test]
    fn symbolic_dims_from_params() {
        let r = run(
            "proc main(n: int) { array a[n];
             for i = 1 to n { a[i] = 1.0; } }",
            vec![ArgValue::Int(6)],
        );
        assert_eq!(r.array("a").unwrap().len(), 6);
    }

    #[test]
    fn declared_int_scalar_keeps_type() {
        let r = run("proc main() { var k: int; k = 5 / 2; k = k + 1; }", vec![]);
        assert_eq!(r.scalar("k"), Some(Value::Int(3)));
    }
}
