//! Analysis results: per-loop outcomes and aggregate statistics.

use padfa_ir::LoopId;
use padfa_omega::Var;
use padfa_pred::Pred;
use std::fmt;

/// Why a loop is not a parallelization candidate at all.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NotCandidateReason {
    /// Contains read I/O (directly or through calls).
    ReadIo,
    /// Contains an internal exit.
    InternalExit,
    /// The enclosing procedure exhausted its work budget; the loop is
    /// covered only by the degraded conservative summary.
    BudgetExhausted,
}

impl fmt::Display for NotCandidateReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotCandidateReason::ReadIo => write!(f, "read-io"),
            NotCandidateReason::InternalExit => write!(f, "internal-exit"),
            NotCandidateReason::BudgetExhausted => write!(f, "budget"),
        }
    }
}

/// Parallelization decision for one loop.
#[derive(Clone, PartialEq, Debug)]
pub enum Outcome {
    /// Independent (or made independent by privatization/reduction)
    /// unconditionally: parallelize at compile time.
    Parallel,
    /// Parallelizable exactly when the predicate evaluates true at loop
    /// entry: emit a two-version loop guarded by this low-cost run-time
    /// test.
    ParallelIf(Pred),
    /// A dependence remains.
    Sequential,
}

impl Outcome {
    pub fn is_parallel(&self) -> bool {
        matches!(self, Outcome::Parallel)
    }

    pub fn is_parallelizable(&self) -> bool {
        !matches!(self, Outcome::Sequential)
    }
}

/// Reduction operators recognized by the analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    Sum,
    Product,
    Min,
    Max,
}

/// A recognized reduction: all accesses to the target inside the loop
/// are self-updates with this operator.
#[derive(Clone, PartialEq, Debug)]
pub struct Reduction {
    pub target: Var,
    /// True when the target is an array (element-wise reduction).
    pub is_array: bool,
    pub op: ReduceOp,
}

/// A privatized array and the transformations it needs.
#[derive(Clone, PartialEq, Debug)]
pub struct PrivArray {
    pub array: Var,
    /// Exposed reads at loop entry: private copies must be initialized
    /// from the shared array.
    pub copy_in: bool,
    /// Final values must be merged back (last-value assignment).
    pub copy_out: bool,
}

/// Which of the paper's mechanisms the decision needed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Mechanisms {
    /// Guarded data-flow values participated in the decision.
    pub predicates: bool,
    /// Predicate embedding (affine guards pushed into regions).
    pub embedding: bool,
    /// Predicate extraction (conditions pulled out of regions).
    pub extraction: bool,
    /// A run-time test was emitted.
    pub runtime_test: bool,
}

/// The analysis verdict for one loop.
#[derive(Clone, PartialEq, Debug)]
pub struct LoopReport {
    pub id: LoopId,
    pub label: Option<String>,
    pub proc: String,
    /// Nesting depth within its procedure (0 = outermost).
    pub depth: usize,
    /// `None` when the loop is a candidate; otherwise why not.
    pub not_candidate: Option<NotCandidateReason>,
    pub outcome: Outcome,
    pub privatized: Vec<PrivArray>,
    pub privatized_scalars: Vec<Var>,
    pub reductions: Vec<Reduction>,
    /// The evidence behind the verdict — the mechanisms it needed and the
    /// chain of tests that decided it (see [`crate::provenance`]). `Some`
    /// exactly when the session was built
    /// [`crate::AnalysisSession::with_provenance`]; a verdict-only
    /// session builds none.
    pub provenance: Option<crate::provenance::Provenance>,
}

impl LoopReport {
    /// A loop counts as parallelized when it is a candidate and the
    /// outcome is not sequential.
    pub fn parallelized(&self) -> bool {
        self.not_candidate.is_none() && self.outcome.is_parallelizable()
    }
}

/// Whole-program analysis result.
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// One report per loop, in `LoopId` order.
    pub loops: Vec<LoopReport>,
    /// Session query/caching statistics captured when the analysis run
    /// finished (all zeros for a default-constructed result).
    pub stats: crate::session::StatsSnapshot,
}

impl AnalysisResult {
    pub fn loop_report(&self, id: LoopId) -> Option<&LoopReport> {
        self.loops.iter().find(|l| l.id == id)
    }

    pub fn by_label(&self, label: &str) -> Option<&LoopReport> {
        self.loops
            .iter()
            .find(|l| l.label.as_deref() == Some(label))
    }

    /// The loops `target` names: by label, or by id when it is a
    /// number.
    pub fn select(&self, target: &str) -> Vec<&LoopReport> {
        let id = target.parse::<u32>().ok();
        self.loops
            .iter()
            .filter(|r| r.label.as_deref() == Some(target) || id == Some(r.id.0))
            .collect()
    }

    pub fn num_parallelized(&self) -> usize {
        self.loops.iter().filter(|l| l.parallelized()).count()
    }

    pub fn num_candidates(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| l.not_candidate.is_none())
            .count()
    }

    pub fn num_runtime_tested(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| matches!(l.outcome, Outcome::ParallelIf(_)))
            .count()
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Parallel => write!(f, "parallel"),
            Outcome::ParallelIf(p) => write!(f, "parallel if {p}"),
            Outcome::Sequential => write!(f, "sequential"),
        }
    }
}

impl fmt::Display for LoopReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} depth={} -> {}",
            self.proc,
            self.label
                .clone()
                .unwrap_or_else(|| format!("L{}", self.id.0)),
            self.depth,
            self.outcome
        )?;
        if let Some(r) = self.not_candidate {
            write!(f, " [not-parallel ({r})]")?;
        }
        if !self.privatized.is_empty() {
            let names: Vec<String> = self.privatized.iter().map(|p| p.array.name()).collect();
            write!(f, " private({})", names.join(","))?;
        }
        if !self.reductions.is_empty() {
            let names: Vec<String> = self
                .reductions
                .iter()
                .map(|r| format!("{}:{:?}", r.target, r.op))
                .collect();
            write!(f, " reduce({})", names.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Parallel.is_parallel());
        assert!(Outcome::Parallel.is_parallelizable());
        assert!(Outcome::ParallelIf(Pred::True).is_parallelizable());
        assert!(!Outcome::ParallelIf(Pred::True).is_parallel());
        assert!(!Outcome::Sequential.is_parallelizable());
    }

    #[test]
    fn report_counting() {
        let mk = |id: u32, outcome: Outcome, nc: Option<NotCandidateReason>| LoopReport {
            id: LoopId(id),
            label: None,
            proc: "p".into(),
            depth: 0,
            not_candidate: nc,
            outcome,
            privatized: vec![],
            privatized_scalars: vec![],
            reductions: vec![],
            provenance: None,
        };
        let r = AnalysisResult {
            loops: vec![
                mk(0, Outcome::Parallel, None),
                mk(1, Outcome::ParallelIf(Pred::True), None),
                mk(2, Outcome::Sequential, None),
                mk(3, Outcome::Parallel, Some(NotCandidateReason::ReadIo)),
            ],
            stats: Default::default(),
        };
        assert_eq!(r.num_parallelized(), 2);
        assert_eq!(r.num_candidates(), 3);
        assert_eq!(r.num_runtime_tested(), 1);
    }
}
