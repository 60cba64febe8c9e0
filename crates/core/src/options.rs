//! Analysis configuration: variants and feature toggles.

use crate::budget::WorkBudget;
use padfa_omega::Limits;

/// Which analysis the driver runs. The three variants reproduce the
/// paper's comparison axes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Unpredicated SUIF array data-flow analysis: control-flow merges
    /// intersect must-writes and union exposed reads; no predicates
    /// anywhere.
    Base,
    /// Guarded array data-flow analysis in the style of Gu, Li & Lee:
    /// predicates improve compile-time precision but no run-time tests
    /// are emitted and no embedding/extraction is performed.
    Guarded,
    /// Full predicated array data-flow analysis (the paper).
    Predicated,
}

/// Analysis options. The toggles exist for the ablation study; the
/// constructors give the three named configurations.
#[derive(Clone, Debug)]
pub struct Options {
    pub variant: Variant,
    /// Push affine predicates into the linear systems before loop
    /// projection (Figure 1(c) mechanism).
    pub embedding: bool,
    /// Pull symbolic-only constraints out of regions into predicates
    /// (Figure 1(d) / reshape mechanism).
    pub extraction: bool,
    /// Emit `ParallelIf` run-time tests (Figure 1(b,d) mechanism).
    pub runtime_tests: bool,
    /// Maximum guarded pieces kept per component before merging into the
    /// conservative default (the paper keeps optimistic values plus a
    /// default; K bounds analysis cost).
    pub max_pieces: usize,
    /// Maximum run-time test cost (number of atoms) accepted; beyond
    /// this a candidate test is discarded as not "low-cost".
    pub test_cost_budget: u32,
    /// Combinatorial limits for the linear engine.
    pub limits: Limits,
    /// Per-procedure work budget (steps / wall deadline) and the policy
    /// on exhaustion. Unlimited by default.
    pub budget: WorkBudget,
}

impl Options {
    /// Full predicated analysis.
    pub fn predicated() -> Options {
        Options {
            variant: Variant::Predicated,
            embedding: true,
            extraction: true,
            runtime_tests: true,
            max_pieces: 4,
            test_cost_budget: 16,
            limits: Limits::default(),
            budget: WorkBudget::UNLIMITED,
        }
    }

    /// Unpredicated baseline (base SUIF).
    pub fn base() -> Options {
        Options {
            variant: Variant::Base,
            embedding: false,
            extraction: false,
            runtime_tests: false,
            max_pieces: 1,
            test_cost_budget: 0,
            limits: Limits::default(),
            budget: WorkBudget::UNLIMITED,
        }
    }

    /// Compile-time-only guarded analysis (Gu/Li/Lee comparator).
    pub fn guarded() -> Options {
        Options {
            variant: Variant::Guarded,
            embedding: false,
            extraction: false,
            runtime_tests: false,
            max_pieces: 4,
            test_cost_budget: 0,
            limits: Limits::default(),
            budget: WorkBudget::UNLIMITED,
        }
    }

    /// The named configuration: `base`, `guarded` or `predicated`.
    pub fn named(name: &str) -> Option<Options> {
        match name {
            "base" => Some(Options::base()),
            "guarded" => Some(Options::guarded()),
            "predicated" => Some(Options::predicated()),
            _ => None,
        }
    }

    /// Replace the work budget (builder style).
    pub fn with_budget(mut self, budget: WorkBudget) -> Options {
        self.budget = budget;
        self
    }

    /// Whether predicates are tracked at all.
    pub fn predicates_enabled(&self) -> bool {
        self.variant != Variant::Base
    }
}

impl Default for Options {
    fn default() -> Options {
        Options::predicated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configurations() {
        let p = Options::predicated();
        assert!(p.embedding && p.extraction && p.runtime_tests);
        assert!(p.predicates_enabled());
        let b = Options::base();
        assert!(!b.embedding && !b.extraction && !b.runtime_tests);
        assert!(!b.predicates_enabled());
        let g = Options::guarded();
        assert!(g.predicates_enabled());
        assert!(!g.runtime_tests);
    }
}
