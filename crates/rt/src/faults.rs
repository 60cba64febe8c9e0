//! The parallel executor's fault site. A fault names a worker and a
//! statement count at which it fires: the worker panics, returns an
//! injected [`ExecError`], or silently corrupts its write-tracker stamp.
//! Plans are wired through [`crate::RunConfig`] and consumed by
//! `run_parallel_loop`, which hands each worker its pending faults.
//! Because workers execute a fixed chunk assignment and statements are
//! counted deterministically, the same plan always produces the same
//! failure — which is what lets the differential tests assert that
//! recovery yields state bit-identical to the sequential oracle.

use crate::machine::ExecError;
use padfa_core::faults::{Fault, FaultSite, Rng};

/// What happens when an injected fault fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The worker thread panics mid-iteration.
    Panic,
    /// The worker's loop body returns this error.
    Error(ExecError),
    /// The worker's write tracker switches to a stamp outside its chunk
    /// assignment: a silent metadata corruption that an unprotected
    /// merge would turn into wrong results. The executor detects it by
    /// validating stamps against the chunk assignment on join.
    CorruptStamp,
}

/// An executor fault: `kind` fires in `worker` once it has executed the
/// fault's `at` statements (1-based, so `at = 1` fires on the worker's
/// first statement).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerFault {
    pub worker: usize,
    pub kind: FaultKind,
}

impl FaultSite for WorkerFault {
    const GRAMMAR: &'static str = "WORKER:STMT:panic|error|corrupt";
    /// Worker indices `0..workers` and statement counts `1..=max_stmt`.
    type Bound = (usize, u64);

    fn draw(rng: &mut Rng, (workers, max_stmt): (usize, u64)) -> Fault<Self> {
        let worker = rng.below(workers as u64) as usize;
        let at = rng.below(max_stmt) + 1;
        let kind = match rng.below(3) {
            0 => FaultKind::Panic,
            1 => FaultKind::Error(ExecError::DivisionByZero),
            _ => FaultKind::CorruptStamp,
        };
        Fault {
            at,
            kind: WorkerFault { worker, kind },
        }
    }

    /// Every spec: the kind name comes last.
    fn claims(_: &str) -> bool {
        true
    }

    fn read(words: &[&str]) -> Option<Vec<Fault<Self>>> {
        let [worker, at, kind] = words else {
            return None;
        };
        let kind = match *kind {
            "panic" => FaultKind::Panic,
            "error" => FaultKind::Error(ExecError::DivisionByZero),
            "corrupt" => FaultKind::CorruptStamp,
            _ => return None,
        };
        let worker = worker.parse().ok()?;
        Some(vec![Fault {
            at: at.parse().ok()?,
            kind: WorkerFault { worker, kind },
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_core::FaultPlan;

    fn on(worker: usize, kind: FaultKind) -> WorkerFault {
        WorkerFault { worker, kind }
    }

    fn rows(plan: &FaultPlan<WorkerFault>) -> Vec<(usize, u64, FaultKind)> {
        let row = |f: &Fault<WorkerFault>| (f.kind.worker, f.at, f.kind.kind.clone());
        plan.faults.iter().map(row).collect()
    }

    fn plan(spec: &str) -> Vec<(usize, u64, FaultKind)> {
        let mut plan = FaultPlan::none();
        assert_eq!(plan.arm(spec), Ok(true), "{spec}");
        rows(&plan)
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::at(on(0, FaultKind::Panic), 5)
            .with(Fault {
                at: 9,
                kind: on(1, FaultKind::CorruptStamp),
            })
            .with(Fault {
                at: 2,
                kind: on(0, FaultKind::Error(ExecError::DivisionByZero)),
            });
        let aimed_at = |w| plan.faults.iter().filter(|f| f.kind.worker == w).count();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!((aimed_at(0), aimed_at(1), aimed_at(2)), (2, 1, 0));
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::<WorkerFault>::seeded(42, 8, (4, 100));
        assert_eq!(a, FaultPlan::seeded(42, 8, (4, 100)));
        assert_eq!(a.faults.len(), 8);
        for f in &a.faults {
            assert!(f.kind.worker < 4);
            assert!((1..=100).contains(&f.at));
        }
        // Different seed, different plan (overwhelmingly likely).
        assert_ne!(a, FaultPlan::seeded(43, 8, (4, 100)));
    }

    /// Pinned: a seed or spec names the same faults in every build, so a
    /// recorded plan reproduces.
    #[test]
    fn worker_plans_are_unchanged() {
        let seeded = |seed| rows(&FaultPlan::seeded(seed, 4, (4, 100)));
        let (p, c) = (FaultKind::Panic, FaultKind::CorruptStamp);
        let e = FaultKind::Error(ExecError::DivisionByZero);
        assert_eq!(
            seeded(0),
            [
                (1, 79, c.clone()),
                (0, 77, p.clone()),
                (3, 99, e.clone()),
                (2, 78, c.clone())
            ]
        );
        assert_eq!(
            seeded(7),
            [
                (2, 7, p.clone()),
                (3, 51, e.clone()),
                (2, 99, c.clone()),
                (3, 41, e.clone())
            ]
        );
        assert_eq!(
            seeded(42),
            [
                (3, 66, e.clone()),
                (0, 75, p.clone()),
                (0, 5, e.clone()),
                (3, 99, e.clone())
            ]
        );
        assert_eq!(plan("0:2:panic"), [(0, 2, p)]);
        assert_eq!(plan("0:2:error"), [(0, 2, e)]);
        assert_eq!(plan("1:9:corrupt"), [(1, 9, c)]);
        for bad in [
            "0:1:explode",
            "zero:two:bang",
            "0:1",
            "store-bitflip",
            "0:1:panic:2",
        ] {
            let err = FaultPlan::<WorkerFault>::none().arm(bad).unwrap_err();
            assert_eq!(err.grammar, WorkerFault::GRAMMAR, "{bad}");
        }
    }
}
