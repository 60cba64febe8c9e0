//! Watchdog work budgets for the per-procedure analysis.
//!
//! Predicated array data-flow over Fourier–Motzkin regions can blow up
//! combinatorially. The `omega` layer already caps representation size
//! ([`padfa_omega::Limits`]); this module caps *work*: a [`WorkBudget`]
//! bounds the number of lattice-operation steps and (optionally) the
//! wall-clock time one procedure's summarization may consume.
//!
//! ## Mechanics
//!
//! The budget is metered by the [`crate::session::AnalysisSession`]
//! itself: a session analyzes its procedures one after another on one
//! thread, and its `Meter` restarts at each. Every lattice query
//! charges one step before it computes, every time it is asked. An
//! emptiness verdict a region already carries is not a query and costs
//! no step: a procedure's step count can depend on the verdicts the
//! procedures analyzed before it in the same session left on shared
//! regions. That is still a function of the program and options alone —
//! the session visits procedures in a fixed order — so step exhaustion
//! triggers at the same operation on every run. The wall deadline is
//! inherently non-deterministic and only checked when explicitly
//! configured.
//!
//! Exhaustion stops the lattice, not the walk. The query that runs the
//! budget out computes nothing, and neither does any query after it
//! until the procedure ends: each returns at once, interning nothing and
//! counting nothing. The walk keeps its shape, so every loop whose
//! report was pushed before the trip keeps its exact verdict; a loop
//! reported after it is `not-parallel (budget)`, and a statement started
//! after it does no work. At the end the driver replaces the procedure's
//! summary with a *sound* degraded conservative summary and continues
//! (or, under [`OnExhausted::Error`], aborts the run with
//! [`crate::AnalysisError::BudgetExhausted`]).
//!
//! The meter additionally records peak operand sizes (disjuncts per
//! region, constraints per system), surfaced through
//! [`crate::StatsSnapshot`] and the corpus ledger.

use padfa_omega::Disjunction;
use std::cell::Cell;
use std::time::Instant;

/// What to do when a procedure exhausts its budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OnExhausted {
    /// Replace the procedure's summary with a sound conservative
    /// (degraded) summary and keep analyzing. Downstream this forces the
    /// sequential version or a runtime test — never a wrong "parallel".
    #[default]
    Degrade,
    /// Abort the whole analysis with
    /// [`crate::AnalysisError::BudgetExhausted`].
    Error,
}

/// Per-procedure resource limits for the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkBudget {
    /// Maximum lattice-operation steps per procedure (deterministic).
    pub max_steps: Option<u64>,
    /// Wall-clock deadline per procedure in milliseconds (checked
    /// periodically; non-deterministic — leave unset for reproducible
    /// degradation decisions).
    pub deadline_ms: Option<u64>,
    /// Policy on exhaustion.
    pub on_exhausted: OnExhausted,
}

impl WorkBudget {
    /// No limits: the analysis runs to completion.
    pub const UNLIMITED: WorkBudget = WorkBudget {
        max_steps: None,
        deadline_ms: None,
        on_exhausted: OnExhausted::Degrade,
    };

    /// A step-limited budget with the default (degrade) policy.
    pub fn steps(max_steps: u64) -> WorkBudget {
        WorkBudget {
            max_steps: Some(max_steps),
            ..WorkBudget::UNLIMITED
        }
    }

    /// Switch the exhaustion policy to hard errors.
    pub fn strict(mut self) -> WorkBudget {
        self.on_exhausted = OnExhausted::Error;
        self
    }

    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.deadline_ms.is_none()
    }
}

impl Default for WorkBudget {
    fn default() -> WorkBudget {
        WorkBudget::UNLIMITED
    }
}

/// Check the wall deadline only every this many steps (keeps
/// `Instant::now` off the hot path).
const DEADLINE_STRIDE: u64 = 256;

/// One session's step meter. The session arms it at the start of every
/// procedure ([`Meter::start`]) and charges it once per lattice query;
/// an unlimited budget charges nothing and never trips.
pub(crate) struct Meter {
    budget: WorkBudget,
    /// Steps charged so far by the session's procedures.
    steps: Cell<u64>,
    /// `steps` when the current procedure started.
    start: Cell<u64>,
    deadline: Cell<Option<Instant>>,
    tripped: Cell<bool>,
    peak_disjuncts: Cell<usize>,
    peak_constraints: Cell<usize>,
}

impl Meter {
    pub(crate) fn new(budget: WorkBudget) -> Meter {
        Meter {
            budget,
            steps: Cell::new(0),
            start: Cell::new(0),
            deadline: Cell::new(None),
            tripped: Cell::new(false),
            peak_disjuncts: Cell::new(0),
            peak_constraints: Cell::new(0),
        }
    }

    /// Start metering a procedure: a fresh step count and deadline.
    pub(crate) fn start(&self) {
        self.start.set(self.steps.get());
        self.tripped.set(false);
        self.deadline.set(
            (self.budget.deadline_ms)
                .map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
        );
    }

    /// Charge one step. `false` means the budget has run out — at this
    /// step or an earlier one — and the caller must compute nothing.
    /// Once tripped, the meter stays tripped and charges no more steps
    /// until the next [`Meter::start`].
    #[inline]
    pub(crate) fn charge(&self) -> bool {
        if self.budget.is_unlimited() {
            return true;
        }
        if self.tripped.get() {
            return false;
        }
        self.steps.set(self.steps.get() + 1);
        let steps = self.proc_steps();
        let reason = if steps > self.budget.max_steps.unwrap_or(u64::MAX) {
            "max-steps"
        } else if steps.is_multiple_of(DEADLINE_STRIDE)
            && self.deadline.get().is_some_and(|dl| Instant::now() > dl)
        {
            "deadline"
        } else {
            return true;
        };
        self.tripped.set(true);
        crate::flight::instant(crate::flight::EventKind::BudgetExhausted, reason, steps);
        false
    }

    /// Whether the current procedure has run out of budget.
    #[inline]
    pub(crate) fn exhausted(&self) -> bool {
        self.tripped.get()
    }

    /// Steps the current procedure has charged.
    pub(crate) fn proc_steps(&self) -> u64 {
        self.steps.get() - self.start.get()
    }

    /// Steps charged by every procedure so far (0 when unbudgeted).
    pub(crate) fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Record an operand's size for peak accounting (budgeted only).
    pub(crate) fn note_region(&self, d: &Disjunction) {
        if self.budget.is_unlimited() {
            return;
        }
        let widest = d.systems().iter().map(|s| s.len()).max().unwrap_or(0);
        self.peak_disjuncts
            .set(self.peak_disjuncts.get().max(d.systems().len()));
        self.peak_constraints
            .set(self.peak_constraints.get().max(widest));
    }

    /// The largest operand seen: disjuncts per region, constraints per
    /// system.
    pub(crate) fn peaks(&self) -> (usize, usize) {
        (self.peak_disjuncts.get(), self.peak_constraints.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_omega::{Constraint, LinExpr, System, Var};

    #[test]
    fn unarmed_charging_is_free() {
        let m = Meter::new(WorkBudget::UNLIMITED);
        m.start();
        assert!((0..1_000).all(|_| m.charge()));
        assert!(!m.exhausted());
        assert_eq!(m.steps(), 0);
    }

    #[test]
    fn steps_exhaust_deterministically() {
        let m = Meter::new(WorkBudget::steps(10));
        m.start();
        assert!((0..10).all(|_| m.charge()));
        assert!(!m.charge(), "the 11th step must exhaust");
        assert!(m.exhausted());
        // Exhaustion is sticky and charges nothing more.
        assert!(!m.charge());
        assert_eq!(m.proc_steps(), 11);
        // The next procedure starts afresh; the session total keeps both.
        m.start();
        assert!(m.charge() && !m.exhausted());
        assert_eq!((m.proc_steps(), m.steps()), (1, 12));
    }

    #[test]
    fn peaks_track_operand_sizes() {
        let m = Meter::new(WorkBudget::steps(1000));
        let v = Var::new("bp");
        let sys = System::from_constraints([
            Constraint::geq(LinExpr::var(v), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(v), LinExpr::constant(9)),
        ]);
        let mut d = Disjunction::from_system(sys.clone());
        d.push(sys);
        m.note_region(&d);
        assert_eq!(m.peaks(), (2, 2));
        let free = Meter::new(WorkBudget::UNLIMITED);
        free.note_region(&d);
        assert_eq!(free.peaks(), (0, 0));
    }

    #[test]
    fn budget_constructors() {
        assert!(WorkBudget::UNLIMITED.is_unlimited());
        let b = WorkBudget::steps(5);
        assert!(!b.is_unlimited());
        assert_eq!(b.on_exhausted, OnExhausted::Degrade);
        assert_eq!(b.strict().on_exhausted, OnExhausted::Error);
    }
}
