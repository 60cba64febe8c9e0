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
//! The budget is metered through a thread-local installed by the driver
//! around each procedure ([`install`]/[`take`]). A procedure is
//! analyzed from start to finish on its session's one thread, so that
//! thread's meter sees every step of it and nothing else. Every
//! lattice query on the [`crate::session::AnalysisSession`] charges one
//! step before it computes, every time it is asked. An emptiness verdict a region already carries is not a
//! query and costs no step: a procedure's step count can depend on the
//! verdicts the procedures analyzed before it in the same session left
//! on shared regions. That is still a function of the program and
//! options alone — the session visits procedures in a fixed order — so
//! step exhaustion triggers at the same operation on every run. The
//! wall deadline is inherently non-deterministic and only checked when
//! explicitly configured.
//!
//! Exhaustion unwinds the procedure via [`std::panic::panic_any`] with a
//! private [`Exhausted`] payload; the driver catches it at the procedure
//! boundary, replaces the summary with a *sound* degraded conservative
//! summary, and continues (or, under [`OnExhausted::Error`], aborts the
//! run with [`crate::AnalysisError::BudgetExhausted`]). Steps are
//! charged before the session's interner is borrowed, so the unwind
//! never leaves it half-updated and the session stays usable for the
//! procedures that follow.
//!
//! The meter additionally records peak operand sizes (disjuncts per
//! region, constraints per system), surfaced through
//! [`crate::StatsSnapshot`] and the corpus ledger.

use padfa_omega::Disjunction;
use std::cell::RefCell;
use std::sync::Once;
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

/// Panic payload used to unwind out of an exhausted procedure. Private
/// to the crate: the driver downcasts to it at the `catch_unwind`
/// boundary.
pub(crate) struct Exhausted;

/// What one procedure's meter measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct MeterReport {
    pub steps: u64,
    pub peak_disjuncts: usize,
    pub peak_constraints: usize,
}

/// Check the wall deadline only every this many steps (keeps
/// `Instant::now` off the hot path).
const DEADLINE_STRIDE: u64 = 256;

struct Meter {
    steps: u64,
    max_steps: u64,
    deadline: Option<Instant>,
    peak_disjuncts: usize,
    peak_constraints: usize,
}

thread_local! {
    static METER: RefCell<Option<Meter>> = const { RefCell::new(None) };
}

static QUIET_HOOK: Once = Once::new();

/// Install (once, process-wide) a panic hook that stays silent for the
/// budget-exhaustion unwind — it is control flow the driver always
/// catches, not a crash — and defers to the previous hook otherwise.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Exhausted>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Arm this thread's meter for one procedure. The driver pairs every
/// `install` with a [`take`].
pub(crate) fn install(budget: &WorkBudget) {
    if budget.is_unlimited() {
        return;
    }
    install_quiet_hook();
    let meter = Meter {
        steps: 0,
        max_steps: budget.max_steps.unwrap_or(u64::MAX),
        deadline: budget
            .deadline_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
        peak_disjuncts: 0,
        peak_constraints: 0,
    };
    METER.with(|m| *m.borrow_mut() = Some(meter));
}

/// Disarm the meter and return what it measured (zeros when unarmed).
pub(crate) fn take() -> MeterReport {
    METER.with(|m| {
        m.borrow_mut()
            .take()
            .map_or(MeterReport::default(), |mt| MeterReport {
                steps: mt.steps,
                peak_disjuncts: mt.peak_disjuncts,
                peak_constraints: mt.peak_constraints,
            })
    })
}

/// Charge `n` steps against this thread's meter (no-op when unarmed).
/// Unwinds with [`Exhausted`] when the budget runs out.
pub(crate) fn charge(n: u64) {
    let exhausted = METER.with(|m| {
        let mut borrow = m.borrow_mut();
        let mt = borrow.as_mut()?;
        mt.steps = mt.steps.saturating_add(n);
        if mt.steps > mt.max_steps {
            return Some(("max-steps", mt.steps));
        }
        if let Some(dl) = mt.deadline {
            if mt.steps % DEADLINE_STRIDE == 0 && Instant::now() > dl {
                return Some(("deadline", mt.steps));
            }
        }
        None
    });
    if let Some((reason, steps)) = exhausted {
        // The flight recorder sees the exhaustion at the exact
        // operation (with the reason the meter tripped on); the trace
        // instant with the procedure name follows at the catch site.
        crate::flight::instant(crate::flight::EventKind::BudgetExhausted, reason, steps);
        // The one sanctioned unwind in this crate: the watchdog raises
        // `Exhausted` here and `analyze_proc` catches it at the
        // procedure boundary, where it becomes a degraded summary or a
        // typed `BudgetExhausted` error — it cannot escape the crate.
        #[allow(clippy::panic)]
        std::panic::panic_any(Exhausted);
    }
}

/// Record operand sizes for peak accounting (no-op when unarmed).
pub(crate) fn note_region(d: &Disjunction) {
    METER.with(|m| {
        let mut borrow = m.borrow_mut();
        if let Some(mt) = borrow.as_mut() {
            mt.peak_disjuncts = mt.peak_disjuncts.max(d.systems().len());
            let widest = d.systems().iter().map(|s| s.len()).max().unwrap_or(0);
            mt.peak_constraints = mt.peak_constraints.max(widest);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_omega::{Constraint, LinExpr, System, Var};

    #[test]
    fn unarmed_charging_is_free() {
        charge(1_000_000);
        let r = take();
        assert_eq!(r, MeterReport::default());
    }

    #[test]
    fn steps_exhaust_deterministically() {
        install(&WorkBudget::steps(10));
        for _ in 0..10 {
            charge(1);
        }
        let caught = std::panic::catch_unwind(|| charge(1));
        let payload = caught.expect_err("11th step must exhaust");
        assert!(payload.downcast_ref::<Exhausted>().is_some());
        let r = take();
        assert_eq!(r.steps, 11);
    }

    #[test]
    fn peaks_track_operand_sizes() {
        install(&WorkBudget::steps(1000));
        let v = Var::new("bp");
        let sys = System::from_constraints([
            Constraint::geq(LinExpr::var(v), LinExpr::constant(1)),
            Constraint::leq(LinExpr::var(v), LinExpr::constant(9)),
        ]);
        let mut d = Disjunction::from_system(sys.clone());
        d.push(sys);
        note_region(&d);
        let r = take();
        assert_eq!(r.peak_disjuncts, 2);
        assert_eq!(r.peak_constraints, 2);
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
