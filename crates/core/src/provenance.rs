//! Decision provenance: the evidence chain behind a loop verdict.
//!
//! The paper's evaluation attributes each parallelized loop to the
//! mechanism that won it and each sequential loop to the dependence that
//! blocked it. A [`Provenance`] tree records exactly that chain:
//!
//! * the [`Mechanisms`] the decision needed, and the single winner
//!   among them;
//! * per array, the dependence / privatization **pair tests** that were
//!   run ([`PairEvidence`]) — which guarded pieces were compared, and
//!   whether the pair was discharged by complementary guards, by region
//!   emptiness, by an extracted symbolic condition, or assumed to
//!   conflict;
//! * the per-array **verdict** ([`ArrayVerdict`]) including the emitted
//!   run-time test or the concrete blocking condition (with the reason a
//!   candidate test was rejected);
//! * scalar dataflow verdicts, applied predicate **embedding**, the
//!   loop-level **run-time test**, any **budget** degradation event, and
//!   the `omega` cap-hit / `$lat`-pool-overflow counts attributed to
//!   this specific loop.
//!
//! Only a session built [`crate::AnalysisSession::with_provenance`]
//! builds the tree, and [`crate::LoopReport::provenance`] is `Some`
//! exactly then: the readers are `padfa explain` and `/explain` (which
//! render it via [`render_text`] / [`loop_json`]), `padfa corpus` (whose
//! ledger folds `winner` and [`Provenance::has_blocker`]). A store
//! entry holds the tree only if its writer built it, and serves an
//! evidence reader only then. A verdict-only session skips the work only
//! the tree needs; its verdicts are the same.
//!
//! The tree is deterministic: array evidence follows the summary's
//! `BTreeMap` order, pair evidence follows the fixed piece iteration
//! order of the dependence test, and the cap-hit counters are deltas of
//! thread-local counters (a session runs on exactly one thread).

use crate::json_escape;
use crate::report::{LoopReport, Mechanisms, Outcome};
use padfa_omega::Var;
use padfa_pred::Pred;
use std::sync::Arc;

/// The single mechanism credited with a parallelized loop, in the
/// paper's attribution order: a run-time test outranks extraction, which
/// outranks embedding, which outranks plain predicated (guarded) values;
/// loops needing none of them are credited to the base analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mechanism {
    Base,
    Predicates,
    Embedding,
    Extraction,
    RuntimeTest,
}

impl Mechanism {
    /// Attribute a parallelized loop to exactly one winning mechanism.
    pub fn winner(m: &Mechanisms) -> Mechanism {
        if m.runtime_test {
            Mechanism::RuntimeTest
        } else if m.extraction {
            Mechanism::Extraction
        } else if m.embedding {
            Mechanism::Embedding
        } else if m.predicates {
            Mechanism::Predicates
        } else {
            Mechanism::Base
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Base => "base",
            Mechanism::Predicates => "predicates",
            Mechanism::Embedding => "embedding",
            Mechanism::Extraction => "extraction",
            Mechanism::RuntimeTest => "runtime-test",
        }
    }

    pub const ALL: [Mechanism; 5] = [
        Mechanism::Base,
        Mechanism::Predicates,
        Mechanism::Embedding,
        Mechanism::Extraction,
        Mechanism::RuntimeTest,
    ];
}

/// Which two access classes a pair test compared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairKind {
    /// May-write vs may-write (output dependence).
    WriteWrite,
    /// May-write vs may-read (flow/anti dependence).
    WriteRead,
    /// Exposed read vs may-write (privatization safety).
    ExposedWrite,
}

impl PairKind {
    pub fn label(self) -> &'static str {
        match self {
            PairKind::WriteWrite => "write/write",
            PairKind::WriteRead => "write/read",
            PairKind::ExposedWrite => "exposed/write",
        }
    }
}

/// How one pair test was decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairOutcome {
    /// The two guards are complementary: the accesses never co-occur.
    GuardsExclude,
    /// The intersected regions are empty in both iteration orders.
    RegionsDisjoint,
    /// Extraction projected the intersection onto symbolics: the
    /// recorded condition characterizes exactly when the pair conflicts.
    Extracted,
    /// The conflict could not be characterized; it is assumed to exist
    /// whenever both guards hold.
    Assumed,
}

impl PairOutcome {
    pub fn label(self) -> &'static str {
        match self {
            PairOutcome::GuardsExclude => "guards-exclude",
            PairOutcome::RegionsDisjoint => "regions-disjoint",
            PairOutcome::Extracted => "extracted",
            PairOutcome::Assumed => "assumed",
        }
    }
}

/// One cross-iteration pair test: the subtraction/emptiness query that
/// discharged (or failed to discharge) a potential dependence.
///
/// The piece guards are `Arc`-shared: one piece participates in
/// O(pieces) pairs, and deep-cloning its predicate tree per pair showed
/// up as a measurable fraction of corpus wall time.
#[derive(Clone, PartialEq, Debug)]
pub struct PairEvidence {
    pub kind: PairKind,
    /// Guard of the write-side piece.
    pub w_pred: Arc<Pred>,
    /// Guard of the other piece (write, read, or exposed read).
    pub x_pred: Arc<Pred>,
    pub outcome: PairOutcome,
    /// Condition under which this pair conflicts (`False` = discharged).
    pub condition: Pred,
}

/// Why a derived run-time test was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// Run-time tests are disabled in this variant.
    Disabled,
    /// The test only passes for trivial trip counts (0 or 1 iteration).
    Degenerate,
    /// The condition is not a scalar-evaluable run-time test.
    NotScalarTest,
    /// The test's evaluation cost exceeds the configured budget.
    OverCostBudget,
}

impl RejectReason {
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Disabled => "tests-disabled",
            RejectReason::Degenerate => "degenerate",
            RejectReason::NotScalarTest => "not-scalar-testable",
            RejectReason::OverCostBudget => "over-cost-budget",
        }
    }
}

/// The per-array verdict within one loop.
#[derive(Clone, PartialEq, Debug)]
pub enum ArrayVerdict {
    /// All accesses are recognized self-updates with one operator.
    Reduction,
    /// No cross-iteration conflict exists.
    Independent,
    /// Conflicts exist but privatization removes them unconditionally.
    Privatized { copy_in: bool },
    /// Parallel only under the recorded run-time test.
    RuntimeTested {
        test: Pred,
        with_privatization: bool,
    },
    /// A dependence remains; `dep` is the concrete blocking condition
    /// and `rejected` records the candidate test that was refused.
    Blocking {
        dep: Pred,
        rejected: Option<(Pred, RejectReason)>,
    },
}

/// Evidence for one array of the loop body.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayEvidence {
    pub array: Var,
    pub verdict: ArrayVerdict,
    /// Cross-iteration dependence pair tests, in test order.
    pub dep_pairs: Vec<PairEvidence>,
    /// Privatization-safety pair tests (empty when not attempted).
    pub priv_pairs: Vec<PairEvidence>,
}

/// The per-scalar verdict within one loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalarVerdict {
    /// Exposed read of a written scalar: a loop-carried flow dependence.
    ExposedFlow,
    /// Written but never exposed: privatizable.
    Privatized,
    /// Recognized reduction target.
    Reduction,
}

impl ScalarVerdict {
    pub fn label(self) -> &'static str {
        match self {
            ScalarVerdict::ExposedFlow => "exposed-flow",
            ScalarVerdict::Privatized => "privatized",
            ScalarVerdict::Reduction => "reduction",
        }
    }
}

/// Evidence for one scalar of the loop body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScalarEvidence {
    pub scalar: Var,
    pub verdict: ScalarVerdict,
}

/// A budget-degradation event covering this loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BudgetEvent {
    /// Steps the enclosing procedure had consumed when it exhausted.
    pub steps: u64,
}

/// The full evidence chain behind one [`LoopReport`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Provenance {
    /// Which of the paper's mechanisms the decision needed.
    pub mechanisms: Mechanisms,
    /// The single winning mechanism — `Some` exactly for parallelized
    /// candidate loops.
    pub winner: Option<Mechanism>,
    pub arrays: Vec<ArrayEvidence>,
    pub scalars: Vec<ScalarEvidence>,
    /// Arrays whose index-dependent guards were embedded into regions at
    /// loop summarization.
    pub embedded: Vec<Var>,
    /// The emitted loop-level run-time test (conjunction of per-array
    /// tests), when the outcome is `ParallelIf`.
    pub runtime_test: Option<Pred>,
    /// Set when the enclosing procedure exhausted its work budget and
    /// this loop was conservatively sequentialized.
    pub budget: Option<BudgetEvent>,
    /// `omega` `Limits` cap-hits (truncated eliminations / disjunct-cap
    /// fallbacks) attributed to this loop's classification and
    /// summarization.
    pub limit_overflows: u64,
    /// `$lat` existential requests beyond the pre-interned pool,
    /// attributed to this loop.
    pub lat_overflow: u64,
}

impl Provenance {
    /// Does the evidence name a concrete blocker (a blocking array
    /// dependence, an exposed scalar flow, or a budget event)?
    pub fn has_blocker(&self) -> bool {
        self.budget.is_some()
            || self
                .arrays
                .iter()
                .any(|a| matches!(a.verdict, ArrayVerdict::Blocking { .. }))
            || self
                .scalars
                .iter()
                .any(|s| s.verdict == ScalarVerdict::ExposedFlow)
    }
}

// ---------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------

struct Node {
    text: String,
    children: Vec<Node>,
}

impl Node {
    fn leaf(text: String) -> Node {
        Node {
            text,
            children: Vec::new(),
        }
    }
}

fn glue(out: &mut String, nodes: &[Node], prefix: &str) {
    for (i, n) in nodes.iter().enumerate() {
        let last = i + 1 == nodes.len();
        out.push_str(prefix);
        out.push_str(if last { "`- " } else { "|- " });
        out.push_str(&n.text);
        out.push('\n');
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "|  " });
        glue(out, &n.children, &child_prefix);
    }
}

fn pair_node(p: &PairEvidence) -> Node {
    let mut text = format!(
        "{} [{}] x [{}]: {}",
        p.kind.label(),
        p.w_pred,
        p.x_pred,
        p.outcome.label()
    );
    if matches!(p.outcome, PairOutcome::Extracted | PairOutcome::Assumed) {
        text.push_str(&format!(" -> conflict when {}", p.condition));
    }
    Node::leaf(text)
}

fn array_node(a: &ArrayEvidence) -> Node {
    let text = match &a.verdict {
        ArrayVerdict::Reduction => format!("array {}: reduction", a.array),
        ArrayVerdict::Independent => format!("array {}: independent", a.array),
        ArrayVerdict::Privatized { copy_in } => format!(
            "array {}: privatized{}",
            a.array,
            if *copy_in { " (copy-in)" } else { "" }
        ),
        ArrayVerdict::RuntimeTested {
            test,
            with_privatization,
        } => format!(
            "array {}: runtime-tested{} -> {}",
            a.array,
            if *with_privatization {
                " (privatizing)"
            } else {
                ""
            },
            test
        ),
        ArrayVerdict::Blocking { dep, rejected } => {
            let mut t = format!("array {}: BLOCKING, dependence when {}", a.array, dep);
            if let Some((test, why)) = rejected {
                t.push_str(&format!(" (test {} rejected: {})", test, why.label()));
            }
            t
        }
    };
    let mut node = Node::leaf(text);
    node.children.extend(a.dep_pairs.iter().map(pair_node));
    node.children.extend(a.priv_pairs.iter().map(pair_node));
    node
}

fn mechanisms_list(m: &Mechanisms) -> String {
    let mut names = Vec::new();
    if m.predicates {
        names.push("predicates");
    }
    if m.embedding {
        names.push("embedding");
    }
    if m.extraction {
        names.push("extraction");
    }
    if m.runtime_test {
        names.push("runtime-test");
    }
    if names.is_empty() {
        "none".to_string()
    } else {
        names.join("+")
    }
}

/// Render one loop's provenance as a human-readable tree. A report
/// without evidence renders its verdict line and a note saying so.
pub fn render_text(report: &LoopReport) -> String {
    let mut out = format!(
        "{}:{} depth={} -> {}",
        report.proc,
        report
            .label
            .clone()
            .unwrap_or_else(|| format!("L{}", report.id.0)),
        report.depth,
        report.outcome
    );
    if let Some(r) = report.not_candidate {
        out.push_str(&format!(" [not-parallel ({r})]"));
    }
    out.push('\n');
    let Some(p) = &report.provenance else {
        glue(
            &mut out,
            &[Node::leaf("evidence: not built".to_string())],
            "",
        );
        return out;
    };

    let mut nodes: Vec<Node> = Vec::new();
    match p.winner {
        Some(w) => nodes.push(Node::leaf(format!(
            "winner: {} (mechanisms: {})",
            w.label(),
            mechanisms_list(&p.mechanisms)
        ))),
        None if report.not_candidate.is_none() => {
            nodes.push(Node::leaf("winner: none (sequential)".to_string()))
        }
        None => {}
    }
    if let Some(t) = &p.runtime_test {
        nodes.push(Node::leaf(format!("run-time test: {t}")));
    }
    nodes.extend(p.arrays.iter().map(array_node));
    for s in &p.scalars {
        nodes.push(Node::leaf(format!(
            "scalar {}: {}",
            s.scalar,
            s.verdict.label()
        )));
    }
    for r in &report.reductions {
        nodes.push(Node::leaf(format!(
            "reduction {} ({:?}{})",
            r.target,
            r.op,
            if r.is_array { ", array" } else { "" }
        )));
    }
    if !p.embedded.is_empty() {
        let names: Vec<String> = p.embedded.iter().map(|v| v.name()).collect();
        nodes.push(Node::leaf(format!("embedded guards: {}", names.join(", "))));
    }
    if p.limit_overflows > 0 {
        nodes.push(Node::leaf(format!(
            "omega cap-hits: {} (capped operations degraded regions of this loop)",
            p.limit_overflows
        )));
    }
    if p.lat_overflow > 0 {
        nodes.push(Node::leaf(format!(
            "lat-pool overflow: {} request(s) beyond the pre-interned pool",
            p.lat_overflow
        )));
    }
    if let Some(b) = &p.budget {
        nodes.push(Node::leaf(format!(
            "budget: procedure exhausted after {} step(s); conservative sequential verdict",
            b.steps
        )));
    }
    glue(&mut out, &nodes, "");
    out
}

// ---------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------

fn pred_json(p: &Pred) -> String {
    format!("\"{}\"", json_escape(&p.to_string()))
}

fn pair_json(p: &PairEvidence) -> String {
    format!(
        "{{\"kind\":\"{}\",\"w_pred\":{},\"x_pred\":{},\"outcome\":\"{}\",\"condition\":{}}}",
        p.kind.label(),
        pred_json(&p.w_pred),
        pred_json(&p.x_pred),
        p.outcome.label(),
        pred_json(&p.condition),
    )
}

fn array_json(a: &ArrayEvidence) -> String {
    let verdict = match &a.verdict {
        ArrayVerdict::Reduction => "\"verdict\":\"reduction\"".to_string(),
        ArrayVerdict::Independent => "\"verdict\":\"independent\"".to_string(),
        ArrayVerdict::Privatized { copy_in } => {
            format!("\"verdict\":\"privatized\",\"copy_in\":{copy_in}")
        }
        ArrayVerdict::RuntimeTested {
            test,
            with_privatization,
        } => format!(
            "\"verdict\":\"runtime-tested\",\"test\":{},\"with_privatization\":{}",
            pred_json(test),
            with_privatization
        ),
        ArrayVerdict::Blocking { dep, rejected } => {
            let mut s = format!("\"verdict\":\"blocking\",\"dependence\":{}", pred_json(dep));
            if let Some((test, why)) = rejected {
                s.push_str(&format!(
                    ",\"rejected_test\":{},\"reject_reason\":\"{}\"",
                    pred_json(test),
                    why.label()
                ));
            }
            s
        }
    };
    let dep: Vec<String> = a.dep_pairs.iter().map(pair_json).collect();
    let prv: Vec<String> = a.priv_pairs.iter().map(pair_json).collect();
    format!(
        "{{\"array\":\"{}\",{verdict},\"dep_pairs\":[{}],\"priv_pairs\":[{}]}}",
        json_escape(&a.array.name()),
        dep.join(","),
        prv.join(","),
    )
}

/// Render one loop's report (verdict + provenance) as a JSON object. A
/// report without evidence has `"evidence":null` in place of every
/// evidence field (`winner` through `lat_overflow`, `reductions` kept).
pub fn loop_json(report: &LoopReport) -> String {
    let mut out = format!(
        "{{\"id\":{},\"label\":{},\"proc\":\"{}\",\"depth\":{}",
        report.id.0,
        report
            .label
            .as_deref()
            .map(|l| format!("\"{}\"", json_escape(l)))
            .unwrap_or_else(|| "null".to_string()),
        json_escape(&report.proc),
        report.depth,
    );
    out.push_str(&format!(
        ",\"outcome\":\"{}\"",
        match &report.outcome {
            Outcome::Parallel => "parallel",
            Outcome::ParallelIf(_) => "parallel-if",
            Outcome::Sequential => "sequential",
        }
    ));
    if let Outcome::ParallelIf(t) = &report.outcome {
        out.push_str(&format!(",\"outcome_test\":{}", pred_json(t)));
    }
    out.push_str(&format!(
        ",\"not_candidate\":{}",
        report
            .not_candidate
            .map(|r| format!("\"{r}\""))
            .unwrap_or_else(|| "null".to_string())
    ));
    let reductions: Vec<String> = report
        .reductions
        .iter()
        .map(|r| {
            format!(
                "{{\"target\":\"{}\",\"op\":\"{:?}\",\"is_array\":{}}}",
                json_escape(&r.target.name()),
                r.op,
                r.is_array
            )
        })
        .collect();
    let reductions = format!(",\"reductions\":[{}]", reductions.join(","));
    let Some(p) = &report.provenance else {
        out.push_str(",\"evidence\":null");
        out.push_str(&reductions);
        out.push('}');
        return out;
    };
    out.push_str(&format!(
        ",\"winner\":{}",
        p.winner
            .map(|w| format!("\"{}\"", w.label()))
            .unwrap_or_else(|| "null".to_string())
    ));
    let m = &p.mechanisms;
    out.push_str(&format!(
        ",\"mechanisms\":{{\"predicates\":{},\"embedding\":{},\"extraction\":{},\"runtime_test\":{}}}",
        m.predicates, m.embedding, m.extraction, m.runtime_test
    ));
    out.push_str(&format!(
        ",\"runtime_test\":{}",
        p.runtime_test
            .as_ref()
            .map(pred_json)
            .unwrap_or_else(|| "null".to_string())
    ));
    let arrays: Vec<String> = p.arrays.iter().map(array_json).collect();
    out.push_str(&format!(",\"arrays\":[{}]", arrays.join(",")));
    let scalars: Vec<String> = p
        .scalars
        .iter()
        .map(|s| {
            format!(
                "{{\"scalar\":\"{}\",\"verdict\":\"{}\"}}",
                json_escape(&s.scalar.name()),
                s.verdict.label()
            )
        })
        .collect();
    out.push_str(&format!(",\"scalars\":[{}]", scalars.join(",")));
    out.push_str(&reductions);
    let embedded: Vec<String> = p
        .embedded
        .iter()
        .map(|v| format!("\"{}\"", json_escape(&v.name())))
        .collect();
    out.push_str(&format!(",\"embedded\":[{}]", embedded.join(",")));
    out.push_str(&format!(
        ",\"budget\":{}",
        p.budget
            .map(|b| format!("{{\"steps\":{}}}", b.steps))
            .unwrap_or_else(|| "null".to_string())
    ));
    out.push_str(&format!(
        ",\"limit_overflows\":{},\"lat_overflow\":{}}}",
        p.limit_overflows, p.lat_overflow
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winner_priority_order() {
        let m = |p, e, x, r| Mechanisms {
            predicates: p,
            embedding: e,
            extraction: x,
            runtime_test: r,
        };
        assert_eq!(
            Mechanism::winner(&m(false, false, false, false)),
            Mechanism::Base
        );
        assert_eq!(
            Mechanism::winner(&m(true, false, false, false)),
            Mechanism::Predicates
        );
        assert_eq!(
            Mechanism::winner(&m(true, true, false, false)),
            Mechanism::Embedding
        );
        assert_eq!(
            Mechanism::winner(&m(true, true, true, false)),
            Mechanism::Extraction
        );
        assert_eq!(
            Mechanism::winner(&m(true, true, true, true)),
            Mechanism::RuntimeTest
        );
    }

    #[test]
    fn blocker_detection() {
        let mut p = Provenance::default();
        assert!(!p.has_blocker());
        p.scalars.push(ScalarEvidence {
            scalar: Var::new("s"),
            verdict: ScalarVerdict::ExposedFlow,
        });
        assert!(p.has_blocker());
        let q = Provenance {
            budget: Some(BudgetEvent { steps: 7 }),
            ..Provenance::default()
        };
        assert!(q.has_blocker());
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
