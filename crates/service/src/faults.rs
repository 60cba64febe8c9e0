//! The daemon's fault site. Faults are keyed on the *admission order* of
//! requests, which the server assigns under its queue lock, so the same
//! plan always hits the same request.

use padfa_core::faults::{spec_at, spec_seeded, Fault, FaultSite, Rng};

/// What an injected service fault does to the request it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// The worker thread handling the request panics mid-analysis. The
    /// server must answer 500 with a typed error body, and the worker
    /// serves on.
    WorkerPanic,
    /// The server writes only a prefix of the response and drops the
    /// connection (a torn response / mid-write disconnect as seen from
    /// the client). Subsequent requests must be unaffected.
    TornResponse,
    /// The worker sleeps `ms` milliseconds inside the request's span
    /// before handling it: a deterministic stall that holds the span open
    /// and shows as request self-time in its `/debug/requests` record.
    SlowRequest { ms: u64 },
    /// The worker floods the flight-recorder ring past capacity before
    /// handling the request, forcing wraparound so overflow accounting
    /// and End-without-Begin profile recovery are observable.
    RecorderOverflow,
}

impl ServiceFault {
    /// The kind's `--inject` name.
    pub fn label(self) -> &'static str {
        match self {
            ServiceFault::WorkerPanic => "worker-panic",
            ServiceFault::TornResponse => "torn-response",
            ServiceFault::SlowRequest { .. } => "slow-request",
            ServiceFault::RecorderOverflow => "recorder-overflow",
        }
    }
}

impl FaultSite for ServiceFault {
    const GRAMMAR: &'static str = "worker-panic[:K], torn-response[:K], \
         slow-request[:K[:MS]], recorder-overflow[:K], or service-seeded:SEED:COUNT";
    /// Admission counts `1..=max_request`.
    type Bound = u64;

    /// Only `WorkerPanic` and `TornResponse` are drawn: `SlowRequest`
    /// and `RecorderOverflow` are targeted diagnostics, armed explicitly.
    fn draw(rng: &mut Rng, max_request: u64) -> Fault<Self> {
        let at = rng.below(max_request) + 1;
        let kind = match rng.below(2) {
            0 => ServiceFault::WorkerPanic,
            _ => ServiceFault::TornResponse,
        };
        Fault { at, kind }
    }

    fn claims(name: &str) -> bool {
        matches!(
            name,
            "worker-panic"
                | "torn-response"
                | "slow-request"
                | "recorder-overflow"
                | "service-seeded"
        )
    }

    fn read(words: &[&str]) -> Option<Vec<Fault<Self>>> {
        let kind = match words {
            ["service-seeded", seed, count] => return spec_seeded(seed, count),
            // The K-th admitted request sleeps MS milliseconds (default
            // 1500).
            ["slow-request", at, ms] => {
                let kind = ServiceFault::SlowRequest {
                    ms: ms.parse().ok()?,
                };
                return Some(vec![Fault {
                    at: at.parse().ok()?,
                    kind,
                }]);
            }
            ["slow-request", ..] => ServiceFault::SlowRequest { ms: 1500 },
            ["worker-panic", ..] => ServiceFault::WorkerPanic,
            ["torn-response", ..] => ServiceFault::TornResponse,
            ["recorder-overflow", ..] => ServiceFault::RecorderOverflow,
            _ => return None,
        };
        Some(vec![Fault {
            at: spec_at(&words[1..])?,
            kind,
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_core::FaultPlan;
    use ServiceFault::*;

    fn plan(spec: &str) -> Vec<(u64, ServiceFault)> {
        let mut plan = FaultPlan::none();
        assert_eq!(plan.arm(spec), Ok(true), "{spec}");
        plan.faults.iter().map(|f| (f.at, f.kind)).collect()
    }

    #[test]
    fn service_plan_builders_and_lookup() {
        let plan = FaultPlan::at(WorkerPanic, 3).with(Fault {
            at: 5,
            kind: TornResponse,
        });
        let first = |n| plan.armed(n).next().copied();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(first(3), Some(WorkerPanic));
        assert_eq!(first(5), Some(TornResponse));
        assert_eq!(first(4), None);
        assert!(FaultPlan::<ServiceFault>::none().is_empty());
        assert_eq!(FaultPlan::<ServiceFault>::none().armed(1).next(), None);
    }

    #[test]
    fn service_seeded_plans_are_deterministic() {
        let a = FaultPlan::<ServiceFault>::seeded(7, 6, 50);
        assert_eq!(a, FaultPlan::seeded(7, 6, 50));
        assert_eq!(a.faults.len(), 6);
        for f in &a.faults {
            assert!((1..=50).contains(&f.at));
        }
        assert_ne!(a, FaultPlan::seeded(8, 6, 50));
    }

    #[test]
    fn service_kind_labels() {
        assert_eq!(WorkerPanic.label(), "worker-panic");
        assert_eq!(TornResponse.label(), "torn-response");
        assert_eq!(SlowRequest { ms: 40 }.label(), "slow-request");
        assert_eq!(RecorderOverflow.label(), "recorder-overflow");
    }

    /// Pinned: a seed or spec names the same faults in every build, so a
    /// recorded `--inject` reproduces.
    #[test]
    fn service_plans_are_unchanged() {
        let seeded = |seed| plan(&format!("service-seeded:{seed}:4"));
        let (p, t) = (WorkerPanic, TornResponse);
        assert_eq!(seeded(0), [(26, p), (31, p), (29, t), (20, p)]);
        assert_eq!(seeded(7), [(3, p), (6, t), (23, p), (7, p)]);
        assert_eq!(seeded(42), [(12, t), (29, p), (23, p), (13, p)]);
        assert_eq!(plan("worker-panic"), [(1, p)]);
        assert_eq!(plan("worker-panic:4"), [(4, p)]);
        assert_eq!(plan("torn-response:2"), [(2, t)]);
        assert_eq!(plan("recorder-overflow:3"), [(3, RecorderOverflow)]);
        assert_eq!(plan("slow-request"), [(1, SlowRequest { ms: 1500 })]);
        assert_eq!(plan("slow-request:2"), [(2, SlowRequest { ms: 1500 })]);
        assert_eq!(plan("slow-request:2:300"), [(2, SlowRequest { ms: 300 })]);
        for bad in [
            "worker-panic:1:2",
            "worker-panic:x",
            "slow-request:1:2:3",
            "service-seeded:1",
        ] {
            let err = FaultPlan::<ServiceFault>::none().arm(bad).unwrap_err();
            assert_eq!(err.grammar, ServiceFault::GRAMMAR, "{bad}");
        }
        assert_eq!(
            FaultPlan::<ServiceFault>::none().arm("store-bitflip"),
            Ok(false)
        );
    }
}
