//! The parallel loop executor.
//!
//! Iterations are partitioned into contiguous blocks, one per worker.
//! Each worker runs on a private copy of the machine's arrays with write
//! tracking; after the scope joins, copies are merged back **in block
//! order**:
//!
//! * plain arrays: elements the worker wrote overwrite the shared value
//!   (block-ordered masking reproduces exact sequential last-value
//!   semantics for independent and privatized loops);
//! * reduction targets: workers start from the operator identity and
//!   partial results combine with the operator, again in block order;
//! * scalars: values written by a worker win over earlier blocks
//!   (last-value semantics for privatized scalars).
//!
//! This scheme doubles as a safety oracle: if the analysis ever declared
//! a loop parallel unsoundly, the merged state would differ from the
//! sequential run and the differential tests would catch it.
//!
//! # Fault tolerance
//!
//! Workers run on private state, so the pre-loop machine is untouched
//! until the merge — the region is *transactional*. Three layers exploit
//! that:
//!
//! 1. **Panic isolation**: each worker body runs under `catch_unwind`;
//!    a panic becomes a [`WorkerFailure`], never a process abort.
//! 2. **Validation**: a surviving worker's tracker stamps must all come
//!    from its chunk assignment; anything else is detected as silent
//!    state corruption *before* the merge can consume it.
//! 3. **Sequential fallback**: on any worker failure (panic, error,
//!    corruption) the private copies are discarded and the loop re-runs
//!    sequentially on the intact pre-loop state — the dynamic analogue
//!    of the paper's two-version dispatch. The recovery is counted in
//!    [`crate::ExecStats::fallbacks`] and the wasted parallel work stays
//!    billed in the cost model. Only resource-budget errors
//!    ([`ExecError::FuelExhausted`], [`ExecError::DeadlineExceeded`])
//!    propagate instead of falling back: re-running a loop that just
//!    exhausted its budget cannot terminate, and budgets exist to
//!    guarantee termination.

use crate::machine::{ExecError, Flow, Frame, Machine, Tracker};
use crate::plan::{LoopPlan, PlannedReduction};
use crate::value::Value;
use padfa_core::{panic_message, ReduceOp};
use padfa_ir::ast::Loop;
use padfa_ir::ScalarTy;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Simulated fork/join cost of one parallel region (work units; one
/// unit = one interpreted statement).
pub const FORK_JOIN_COST: u64 = 300;
/// Simulated cost of initializing/merging *privatized* array copies, in
/// array elements per work unit. Shared arrays are modeled as accessed
/// in place (as in SUIF's SPMD code); the executor's whole-machine
/// cloning is only its safety oracle and is not billed.
pub const PRIV_ELEMS_PER_UNIT: u64 = 16;

/// Identity element for a reduction over the given scalar type.
fn identity(op: ReduceOp, ty: ScalarTy) -> Value {
    match (op, ty) {
        (ReduceOp::Sum, ScalarTy::Int) => Value::Int(0),
        (ReduceOp::Sum, ScalarTy::Real) => Value::Real(0.0),
        (ReduceOp::Product, ScalarTy::Int) => Value::Int(1),
        (ReduceOp::Product, ScalarTy::Real) => Value::Real(1.0),
        (ReduceOp::Min, ScalarTy::Int) => Value::Int(i64::MAX),
        (ReduceOp::Min, ScalarTy::Real) => Value::Real(f64::INFINITY),
        (ReduceOp::Max, ScalarTy::Int) => Value::Int(i64::MIN),
        (ReduceOp::Max, ScalarTy::Real) => Value::Real(f64::NEG_INFINITY),
    }
}

/// Combine two values with a reduction operator.
fn combine(op: ReduceOp, a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(match op {
            ReduceOp::Sum => x.wrapping_add(y),
            ReduceOp::Product => x.wrapping_mul(y),
            ReduceOp::Min => x.min(y),
            ReduceOp::Max => x.max(y),
        }),
        _ => {
            let (x, y) = (a.as_f64(), b.as_f64());
            Value::Real(match op {
                ReduceOp::Sum => x + y,
                ReduceOp::Product => x * y,
                ReduceOp::Min => x.min(y),
                ReduceOp::Max => x.max(y),
            })
        }
    }
}

/// Why a worker did not complete its chunks cleanly.
#[derive(Debug, Clone)]
enum WorkerFailure {
    /// The worker panicked (caught by `catch_unwind` or at join).
    Panicked(String),
    /// The loop body returned an error (organic or injected).
    Failed(ExecError),
    /// Tracker stamps outside the worker's chunk assignment.
    Corrupted(String),
}

struct WorkerOutcome {
    arrays: Vec<crate::value::ArrayStore>,
    tracker: Tracker,
    frame: Frame,
    stats: crate::machine::ExecStats,
    work: u64,
    sim: u64,
    /// Fuel left from the worker's share of the budget.
    fuel_left: Option<u64>,
    failure: Option<WorkerFailure>,
}

impl WorkerOutcome {
    /// Outcome for a worker whose thread died before producing one
    /// (a panic that escaped `catch_unwind`, e.g. during setup).
    fn dead(message: String) -> WorkerOutcome {
        WorkerOutcome {
            arrays: Vec::new(),
            tracker: Tracker::default(),
            frame: Frame::default(),
            stats: crate::machine::ExecStats::default(),
            work: 0,
            sim: 0,
            fuel_left: None,
            failure: Some(WorkerFailure::Panicked(message)),
        }
    }
}

thread_local! {
    /// Set while a worker body runs: tells the quiet panic hook that a
    /// panic here is isolated and reported through [`ExecError`], so the
    /// default "thread panicked at ..." noise must not reach stderr.
    static PANIC_IS_ISOLATED: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Install (once, process-wide) a panic hook that stays silent for
/// panics the executor catches and reports itself, and defers to the
/// previous hook for everything else.
fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !PANIC_IS_ISOLATED.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Execute `l` in parallel with the machine's configured worker count.
pub fn run_parallel_loop(
    machine: &mut Machine<'_>,
    frame: &mut Frame,
    l: &Loop,
    plan: &LoopPlan,
    lo: i64,
    hi: i64,
) -> Result<(), ExecError> {
    let trip = ((hi - lo) / l.step + 1).max(0) as usize;
    let workers = machine.cfg.workers.min(trip).max(1);

    // Resolve reduction targets to handles / scalar vars.
    let mut red_arrays: Vec<(usize, ReduceOp)> = Vec::new();
    let mut red_scalars: Vec<(padfa_ir::Var, ReduceOp)> = Vec::new();
    for PlannedReduction {
        target,
        is_array,
        op,
    } in &plan.reductions
    {
        if *is_array {
            if let Some(h) = frame.array_handle(*target) {
                red_arrays.push((h, *op));
            }
        } else if frame.scalars.contains_key(target) {
            red_scalars.push((*target, *op));
        }
    }

    // Chunked partition: iterations split into chunks of `chunk_size`
    // consecutive iterations, dealt round-robin. The default (no chunk
    // size configured) uses one block per worker, i.e. static blocking.
    let chunk_size = machine
        .cfg
        .chunk
        .unwrap_or_else(|| trip.div_ceil(workers))
        .max(1);
    let num_chunks = trip.div_ceil(chunk_size);
    // chunks[k] = (first iteration value, last iteration value, stamp).
    let chunks: Vec<(i64, i64, u32)> = (0..num_chunks)
        .map(|k| {
            let begin = k * chunk_size;
            let len = chunk_size.min(trip - begin);
            let s = lo + (begin as i64) * l.step;
            let e = lo + ((begin + len) as i64 - 1) * l.step;
            (s, e, k as u32 + 1)
        })
        .collect();
    // Worker w executes chunks w, w+workers, w+2*workers, ...
    let assignments: Vec<Vec<(i64, i64, u32)>> = (0..workers)
        .map(|w| chunks.iter().copied().skip(w).step_by(workers).collect())
        .collect();

    let prog = machine.prog;
    let cfg = machine.cfg;
    let base_arrays = machine.arrays.clone();
    // Workers split the remaining statement budget evenly; the parent is
    // billed for what they actually consume after the join.
    let worker_budget = machine.fuel.map(|f| f / workers as u64);
    let parent_deadline = machine.deadline;

    if !cfg.faults.is_empty() || cfg.fallback {
        install_quiet_panic_hook();
    }

    let mut outcomes: Vec<WorkerOutcome> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (w, my_chunks) in assignments.iter().enumerate() {
            let mut worker_arrays = base_arrays.clone();
            // Reduction targets start from the identity.
            for &(h, op) in &red_arrays {
                let ty = worker_arrays[h].ty;
                worker_arrays[h].fill(identity(op, ty));
            }
            let mut worker_frame = frame.clone();
            for &(v, op) in &red_scalars {
                let ty = if worker_frame.scalars[&v].is_int() {
                    ScalarTy::Int
                } else {
                    ScalarTy::Real
                };
                worker_frame.scalars.insert(v, identity(op, ty));
            }
            let body = &l.body;
            let var = l.var;
            let step = l.step;
            handles.push(scope.spawn(move || {
                // Errors name arrays, so the worker reads the program's
                // numbering, not its own thread's empty one.
                padfa_omega::VarTable::adopt(prog.vars());
                let mut m = Machine::new(prog, cfg);
                m.arrays = worker_arrays;
                m.in_worker = true;
                m.tracker = Some(Tracker::default());
                m.fuel = worker_budget;
                m.deadline = parent_deadline;
                m.pending_faults = cfg
                    .faults
                    .faults
                    .iter()
                    .filter(|f| f.kind.worker == w)
                    .cloned()
                    .collect();
                PANIC_IS_ISOLATED.with(|c| c.set(true));
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let mut first_err = None;
                    'chunks: for &(s, e, stamp) in my_chunks {
                        if let Some(t) = &mut m.tracker {
                            t.stamp = stamp;
                        }
                        let mut i = s;
                        while (step > 0 && i <= e) || (step < 0 && i >= e) {
                            worker_frame.scalars.insert(var, Value::Int(i));
                            match m.exec_block(&mut worker_frame, body) {
                                Ok(_) => {}
                                Err(e) => {
                                    first_err = Some(e);
                                    break 'chunks;
                                }
                            }
                            i += step;
                        }
                    }
                    first_err
                }));
                PANIC_IS_ISOLATED.with(|c| c.set(false));
                let failure = match caught {
                    Ok(None) => None,
                    Ok(Some(e)) => Some(WorkerFailure::Failed(e)),
                    Err(payload) => Some(WorkerFailure::Panicked(
                        panic_message(payload.as_ref()).to_string(),
                    )),
                };
                WorkerOutcome {
                    arrays: m.arrays,
                    tracker: m.tracker.take().unwrap_or_default(),
                    frame: worker_frame,
                    stats: m.stats,
                    work: m.work,
                    sim: m.sim,
                    fuel_left: m.fuel,
                    failure,
                }
            }));
        }
        for h in handles {
            outcomes.push(match h.join() {
                Ok(outcome) => outcome,
                // A panic that escaped catch_unwind (worker setup).
                Err(payload) => WorkerOutcome::dead(panic_message(payload.as_ref()).to_string()),
            });
        }
    });

    // Validate surviving workers before anything is merged: every stamp
    // a worker recorded must come from its own chunk assignment, or its
    // private state cannot be trusted.
    for (w, outcome) in outcomes.iter_mut().enumerate() {
        if outcome.failure.is_some() {
            continue;
        }
        if let Some(detail) = validate_stamps(&outcome.tracker, &assignments[w]) {
            outcome.failure = Some(WorkerFailure::Corrupted(detail));
        }
    }

    // Billing happens regardless of failures: the simulated-cost model
    // charges the region its critical path plus fork/join and
    // private-copy traffic, and a failed region's work is exactly the
    // waste the fallback pays for.
    let priv_elems: u64 = plan
        .privatized
        .iter()
        .filter_map(|v| frame.array_handle(*v))
        .map(|h| base_arrays[h].len() as u64)
        .sum();
    let clone_cost = priv_elems * workers as u64 / PRIV_ELEMS_PER_UNIT;
    let max_worker_sim = outcomes.iter().map(|o| o.sim).max().unwrap_or(0);
    machine.sim += FORK_JOIN_COST + clone_cost + max_worker_sim;
    for outcome in &outcomes {
        machine.stats.merge(&outcome.stats);
        machine.work += outcome.work;
    }
    if let (Some(fuel), Some(budget)) = (machine.fuel.as_mut(), worker_budget) {
        let consumed: u64 = outcomes
            .iter()
            .map(|o| budget - o.fuel_left.unwrap_or(budget))
            .sum();
        *fuel = fuel.saturating_sub(consumed);
    }

    // Failure policy. Resource exhaustion propagates (a sequential
    // re-run of a loop that ran out of budget cannot terminate either);
    // everything else either falls back or surfaces as a typed error.
    let failures: Vec<(usize, WorkerFailure)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(w, o)| o.failure.clone().map(|f| (w, f)))
        .collect();
    if !failures.is_empty() {
        machine.stats.worker_panics += failures
            .iter()
            .filter(|(_, f)| matches!(f, WorkerFailure::Panicked(_)))
            .count() as u64;
        for (_, f) in &failures {
            if let WorkerFailure::Failed(
                e @ (ExecError::FuelExhausted | ExecError::DeadlineExceeded),
            ) = f
            {
                return Err(e.clone());
            }
        }
        if !machine.cfg.fallback {
            let (w, f) = failures.into_iter().next().expect("non-empty failures");
            return Err(match f {
                WorkerFailure::Panicked(message) => {
                    ExecError::WorkerPanicked { worker: w, message }
                }
                WorkerFailure::Failed(e) => e,
                WorkerFailure::Corrupted(detail) => ExecError::StateCorrupted { worker: w, detail },
            });
        }
        // Transactional fallback: drop every private copy (nothing was
        // merged) and re-run the loop sequentially on the intact
        // pre-loop state — the two-version dispatch, taken dynamically.
        drop(outcomes);
        machine.stats.fallbacks += 1;
        return run_sequential_fallback(machine, frame, l, lo, hi);
    }

    // Merge by descending write stamp: for every element (and scalar)
    // the chunk with the highest stamp that wrote it is the sequentially
    // last writer, so its value is the sequential final value.
    let mut best_stamp: std::collections::HashMap<usize, Vec<u32>> =
        std::collections::HashMap::new();
    let mut best_scalar: std::collections::HashMap<padfa_ir::Var, u32> =
        std::collections::HashMap::new();
    for outcome in outcomes {
        for (h, store) in outcome.arrays.into_iter().enumerate() {
            if let Some(&(_, op)) = red_arrays.iter().find(|&&(rh, _)| rh == h) {
                // Elementwise combine into the shared array.
                for off in 0..store.len() {
                    let merged = combine(op, machine.arrays[h].get(off), store.get(off));
                    machine.arrays[h].set(off, merged);
                }
            } else if let Some(mask) = outcome.tracker.masks.get(&h) {
                let best = best_stamp.entry(h).or_insert_with(|| vec![0; mask.len()]);
                if best.len() < mask.len() {
                    best.resize(mask.len(), 0);
                }
                for (off, &stamp) in mask.iter().enumerate() {
                    if stamp > best[off] {
                        best[off] = stamp;
                        machine.arrays[h].set(off, store.get(off));
                    }
                }
            }
        }
        for (v, &stamp) in &outcome.tracker.scalar_writes {
            if *v == l.var {
                continue;
            }
            if let Some(&(_, op)) = red_scalars.iter().find(|&&(rv, _)| rv == *v) {
                let merged = combine(op, frame.scalars[v], outcome.frame.scalars[v]);
                frame.scalars.insert(*v, merged);
            } else if stamp > best_scalar.get(v).copied().unwrap_or(0) {
                best_scalar.insert(*v, stamp);
                if let Some(val) = outcome.frame.scalars.get(v) {
                    frame.scalars.insert(*v, *val);
                }
            }
        }
    }
    // Arrays newly allocated inside workers (callee locals) are dropped
    // with the worker machines; shared handles were merged above.
    Ok(())
}

/// Check that every stamp a worker recorded belongs to its chunk
/// assignment; returns a description of the first violation.
fn validate_stamps(tracker: &Tracker, my_chunks: &[(i64, i64, u32)]) -> Option<String> {
    let allowed: Vec<u32> = my_chunks.iter().map(|&(_, _, s)| s).collect();
    for (h, mask) in &tracker.masks {
        for &stamp in mask {
            if stamp != 0 && !allowed.contains(&stamp) {
                return Some(format!(
                    "array handle {h} carries write stamp {stamp} outside chunk assignment {allowed:?}"
                ));
            }
        }
    }
    for (v, &stamp) in &tracker.scalar_writes {
        if stamp != 0 && !allowed.contains(&stamp) {
            return Some(format!(
                "scalar '{v}' carries write stamp {stamp} outside chunk assignment {allowed:?}"
            ));
        }
    }
    None
}

/// Re-run the failed region sequentially on the parent machine. The
/// parent's arrays and frame are exactly the pre-loop state (workers
/// only ever touched private copies), so this reproduces the sequential
/// semantics — including any genuine program error, which surfaces
/// again here deterministically.
fn run_sequential_fallback(
    machine: &mut Machine<'_>,
    frame: &mut Frame,
    l: &Loop,
    lo: i64,
    hi: i64,
) -> Result<(), ExecError> {
    let saved = frame.scalars.get(&l.var).copied();
    let mut i = lo;
    while (l.step > 0 && i <= hi) || (l.step < 0 && i >= hi) {
        frame.scalars.insert(l.var, Value::Int(i));
        let flow = machine.exec_block(frame, &l.body)?;
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(identity(ReduceOp::Sum, ScalarTy::Real), Value::Real(0.0));
        assert_eq!(identity(ReduceOp::Product, ScalarTy::Int), Value::Int(1));
        assert_eq!(
            identity(ReduceOp::Min, ScalarTy::Real),
            Value::Real(f64::INFINITY)
        );
        assert_eq!(identity(ReduceOp::Max, ScalarTy::Int), Value::Int(i64::MIN));
    }

    #[test]
    fn combines() {
        assert_eq!(
            combine(ReduceOp::Sum, Value::Int(2), Value::Int(3)),
            Value::Int(5)
        );
        assert_eq!(
            combine(ReduceOp::Min, Value::Real(2.0), Value::Real(3.0)),
            Value::Real(2.0)
        );
        assert_eq!(
            combine(ReduceOp::Max, Value::Int(2), Value::Real(3.0)),
            Value::Real(3.0)
        );
    }

    #[test]
    fn stamp_validation_flags_foreign_stamps() {
        let chunks = [(1, 4, 1u32), (9, 12, 3u32)];
        let mut t = Tracker::default();
        t.masks.insert(0, vec![0, 1, 3, 0]);
        assert!(validate_stamps(&t, &chunks).is_none());
        t.masks.get_mut(&0).unwrap()[1] = 2; // another worker's chunk
        assert!(validate_stamps(&t, &chunks).is_some());
        let mut t = Tracker::default();
        t.scalar_writes.insert(padfa_ir::Var::new("vs"), u32::MAX);
        assert!(validate_stamps(&t, &chunks).is_some());
    }

    #[test]
    fn panic_messages_extracted() {
        install_quiet_panic_hook();
        PANIC_IS_ISOLATED.with(|c| c.set(true));
        let p = catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p = catch_unwind(|| panic!("{} {}", "fmt", 1)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "fmt 1");
        PANIC_IS_ISOLATED.with(|c| c.set(false));
    }
}
