//! Differential fault-injection tests: a parallel run in which workers
//! panic, fail, or corrupt their tracker state must either recover to a
//! result *bit-identical* to the sequential oracle (the transactional
//! fallback) or surface a typed [`ExecError`] — never abort the process
//! or return wrong data.

use padfa_core::{analyze_program, Fault, FaultPlan, Options};
use padfa_ir::parse::parse_program;
use padfa_rt::machine::ExecError;
use padfa_rt::{run_main, ArgValue, ExecPlan, FaultKind, RunConfig, WorkerFault};

/// The matrix program: privatized array `t`, last-value scalar `last`,
/// and plain element writes — everything merges bit-exactly, so both
/// the normal parallel path and the fallback path must match the
/// sequential oracle down to the float bit pattern.
const MATRIX_SRC: &str = "proc main(n: int) {
    array a[256]; array t[8]; var last: real;
    for i = 1 to n {
        for j = 1 to 8 { t[j] = i * 0.5 + j; }
        a[i] = t[1] + t[8];
        last = a[i];
    } }";

const TRIP: i64 = 64;
/// Statements one outer iteration costs a worker: the inner `for`
/// statement, its 8 assignments, and the two outer assignments.
const STMTS_PER_ITER: u64 = 11;

fn matrix_plan(prog: &padfa_ir::Program) -> ExecPlan {
    let result = analyze_program(prog, &Options::predicated()).unwrap();
    let plan = ExecPlan::from_analysis(prog, &result);
    assert!(!plan.is_empty(), "matrix loop must be planned parallel");
    plan
}

/// `kind` fires in `worker` at its `at_stmt`-th statement.
fn fault_at(worker: usize, at_stmt: u64, kind: FaultKind) -> FaultPlan<WorkerFault> {
    FaultPlan::at(WorkerFault { worker, kind }, at_stmt)
}

fn seq_oracle(prog: &padfa_ir::Program) -> padfa_rt::RunResult {
    run_main(prog, vec![ArgValue::Int(TRIP)], &RunConfig::sequential()).unwrap()
}

/// The full fault matrix: every fault kind x first/middle/last chunk of
/// the victim worker's statement stream x 1/2/4 workers. Injected
/// panics, errors, and corruptions recover bit-identically via the
/// fallback; injected fuel exhaustion surfaces as the typed error
/// (re-running a loop that ran out of budget cannot terminate).
#[test]
fn fault_matrix_recovers_or_fails_typed() {
    let prog = parse_program(MATRIX_SRC).unwrap();
    let oracle = seq_oracle(&prog);
    let kinds = [
        FaultKind::Panic,
        FaultKind::Error(ExecError::DivisionByZero),
        FaultKind::CorruptStamp,
        FaultKind::Error(ExecError::FuelExhausted),
    ];
    for workers in [1usize, 2, 4] {
        // Chunked scheduling gives every worker several chunks; the
        // three positions land in its first, a middle, and its last
        // chunk.
        let per_worker = TRIP as u64 / workers as u64 * STMTS_PER_ITER;
        for at_stmt in [1, per_worker / 2, per_worker] {
            for kind in &kinds {
                let faults = fault_at(workers - 1, at_stmt, kind.clone());
                let plan = matrix_plan(&prog);
                let cfg = RunConfig::chunked(workers, plan, 8).with_faults(faults);
                let label = format!("workers={workers} at_stmt={at_stmt} kind={kind:?}");
                let out = run_main(&prog, vec![ArgValue::Int(TRIP)], &cfg);
                if workers == 1 {
                    // Sequential path: no workers exist, nothing fires.
                    let out = out.unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(oracle.bits_eq(&out), "{label}");
                    assert_eq!(out.stats.fallbacks, 0, "{label}");
                    continue;
                }
                match kind {
                    FaultKind::Error(ExecError::FuelExhausted) => {
                        // Budget exhaustion is not recoverable by
                        // re-running: it must propagate, typed.
                        let err = out.expect_err(&label);
                        assert!(
                            matches!(err, ExecError::FuelExhausted),
                            "{label}: got {err:?}"
                        );
                    }
                    FaultKind::CorruptStamp => {
                        // A corruption whose evidence is later
                        // overwritten by the same worker is transient
                        // and harmless (the overwrite re-stamps the
                        // entry); one that persists must be caught.
                        // Either way the result is bit-exact.
                        let out = out.unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert!(
                            oracle.bits_eq(&out),
                            "{label}: corrupted state reached the results"
                        );
                        assert!(out.stats.fallbacks <= 1, "{label}");
                    }
                    _ => {
                        let out = out.unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert!(
                            oracle.bits_eq(&out),
                            "{label}: recovered state differs from oracle"
                        );
                        assert_eq!(out.stats.fallbacks, 1, "{label}");
                        let expect_panics = u64::from(matches!(kind, FaultKind::Panic));
                        assert_eq!(out.stats.worker_panics, expect_panics, "{label}");
                    }
                }
            }
        }
    }
}

/// Several faults across several workers in the same region still
/// recover with a single fallback re-run.
#[test]
fn multiple_simultaneous_faults_one_fallback() {
    let prog = parse_program(MATRIX_SRC).unwrap();
    let oracle = seq_oracle(&prog);
    let faults = fault_at(0, 7, FaultKind::Panic)
        .with(Fault {
            at: 30,
            kind: WorkerFault {
                worker: 1,
                kind: FaultKind::Error(ExecError::DivisionByZero),
            },
        })
        .with(Fault {
            at: 3,
            kind: WorkerFault {
                worker: 2,
                kind: FaultKind::CorruptStamp,
            },
        });
    let cfg = RunConfig::parallel(4, matrix_plan(&prog)).with_faults(faults);
    let out = run_main(&prog, vec![ArgValue::Int(TRIP)], &cfg).unwrap();
    assert!(oracle.bits_eq(&out));
    assert_eq!(out.stats.fallbacks, 1);
    assert_eq!(out.stats.worker_panics, 1);
}

/// Seeded pseudo-random plans: whatever combination the seed produces,
/// the run either matches the oracle bit-for-bit or fails typed.
#[test]
fn seeded_fault_plans_always_recover() {
    let prog = parse_program(MATRIX_SRC).unwrap();
    let oracle = seq_oracle(&prog);
    for seed in 0..32u64 {
        let faults = FaultPlan::seeded(seed, 3, (4, 170));
        let cfg = RunConfig::parallel(4, matrix_plan(&prog)).with_faults(faults.clone());
        let out = run_main(&prog, vec![ArgValue::Int(TRIP)], &cfg)
            .unwrap_or_else(|e| panic!("seed {seed} ({faults:?}): {e}"));
        assert!(oracle.bits_eq(&out), "seed {seed}: {faults:?}");
        // At least one fault lands in a live worker's statement range,
        // so some recovery must have happened.
        assert_eq!(out.stats.fallbacks, 1, "seed {seed}: {faults:?}");
    }
}

/// With the fallback disabled every fault kind surfaces as its typed
/// error: the caller opted out of transparent recovery, not of safety.
#[test]
fn no_fallback_surfaces_typed_errors() {
    let prog = parse_program(MATRIX_SRC).unwrap();
    let run = |faults: FaultPlan<WorkerFault>| {
        let cfg = RunConfig::parallel(4, matrix_plan(&prog))
            .with_faults(faults)
            .no_fallback();
        run_main(&prog, vec![ArgValue::Int(TRIP)], &cfg).unwrap_err()
    };
    let err = run(fault_at(1, 5, FaultKind::Panic));
    match err {
        ExecError::WorkerPanicked {
            worker,
            ref message,
        } => {
            assert_eq!(worker, 1);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let err = run(fault_at(0, 5, FaultKind::Error(ExecError::DivisionByZero)));
    assert!(matches!(err, ExecError::DivisionByZero), "got {err:?}");
    let err = run(fault_at(2, 5, FaultKind::CorruptStamp));
    match err {
        ExecError::StateCorrupted { worker, .. } => assert_eq!(worker, 2),
        other => panic!("expected StateCorrupted, got {other:?}"),
    }
}

/// A fault aimed past the worker's last statement never fires; the run
/// is a plain successful parallel run.
#[test]
fn unreached_faults_are_harmless() {
    let prog = parse_program(MATRIX_SRC).unwrap();
    let oracle = seq_oracle(&prog);
    let faults = fault_at(0, 1_000_000, FaultKind::Panic);
    let cfg = RunConfig::parallel(4, matrix_plan(&prog)).with_faults(faults);
    let out = run_main(&prog, vec![ArgValue::Int(TRIP)], &cfg).unwrap();
    assert!(oracle.bits_eq(&out));
    assert_eq!(out.stats.fallbacks, 0);
    assert_eq!(out.stats.worker_panics, 0);
}

/// Pre-loop state must survive a failed region untouched: statements
/// *before* the faulted loop keep their effect, and the fallback re-runs
/// only the loop.
#[test]
fn pre_loop_state_is_transactional() {
    let src = "proc main(n: int) {
        array a[64]; var setup: real;
        setup = 41.0 + 1.0;
        for i = 1 to n { a[i] = i * 2.0; }
        } ";
    let prog = parse_program(src).unwrap();
    let oracle = run_main(&prog, vec![ArgValue::Int(32)], &RunConfig::sequential()).unwrap();
    let cfg = RunConfig::parallel(4, matrix_plan_for(&prog)).with_faults(fault_at(
        1,
        2,
        FaultKind::Panic,
    ));
    let out = run_main(&prog, vec![ArgValue::Int(32)], &cfg).unwrap();
    assert_eq!(out.scalar("setup").unwrap().as_f64(), 42.0);
    assert!(oracle.bits_eq(&out));
    assert_eq!(out.stats.fallbacks, 1);
}

fn matrix_plan_for(prog: &padfa_ir::Program) -> ExecPlan {
    let result = analyze_program(prog, &Options::predicated()).unwrap();
    ExecPlan::from_analysis(prog, &result)
}

/// The failed parallel attempt is billed: simulated time of a recovered
/// run strictly exceeds the plain sequential run (wasted parallel work
/// plus the re-run), and statement work counts both attempts.
#[test]
fn wasted_work_is_billed() {
    let prog = parse_program(MATRIX_SRC).unwrap();
    let seq = seq_oracle(&prog);
    let faults = fault_at(0, 100, FaultKind::Panic);
    let cfg = RunConfig::parallel(4, matrix_plan(&prog)).with_faults(faults);
    let out = run_main(&prog, vec![ArgValue::Int(TRIP)], &cfg).unwrap();
    assert_eq!(out.stats.fallbacks, 1);
    assert!(
        out.sim_time > seq.sim_time,
        "recovered run must cost more than a clean sequential run \
         ({} vs {})",
        out.sim_time,
        seq.sim_time
    );
    assert!(
        out.total_work > seq.total_work,
        "wasted worker statements must be counted ({} vs {})",
        out.total_work,
        seq.total_work
    );
}

/// Corrupt-stamp detection: without validation the corrupted merge
/// would silently lose writes; with it, the run recovers exactly.
#[test]
fn stamp_corruption_never_reaches_results() {
    let prog = parse_program(MATRIX_SRC).unwrap();
    let oracle = seq_oracle(&prog);
    for worker in 0..4usize {
        let faults = fault_at(worker, 10, FaultKind::CorruptStamp);
        let cfg = RunConfig::parallel(4, matrix_plan(&prog)).with_faults(faults);
        let out = run_main(&prog, vec![ArgValue::Int(TRIP)], &cfg).unwrap();
        assert!(oracle.bits_eq(&out), "worker {worker}");
        assert_eq!(out.stats.fallbacks, 1, "worker {worker}");
    }
}
