//! What every workload shares: its name and reason, the run context,
//! the failure tally and the measured window the end-to-end metrics
//! are read from.

use crate::child::{self, Finished};
use crate::speed::Speed;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use std::path::PathBuf;

/// Why each workload exists: which layers it loads and which it
/// bypasses. `BENCHMARK.json` carries the same reasons.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "analyze_cold",
        "padfa analyze once per seeded program, no store: the paper's compile-time cost; core+omega do >95% of it, store and service none",
    ),
    (
        "corpus_cold",
        "padfa corpus into a fresh empty store: the same analysis plus the store write path (always the built-in corpus: --seed is recorded but has no effect)",
    ),
    (
        "corpus_warm",
        "padfa corpus against a populated store: store read path and process floor, ~no lattice work (always the built-in corpus: --seed is recorded but has no effect)",
    ),
    (
        "store_edit",
        "seeded one-line edit per program, analyze --store from a warm snapshot: procedure-level miss, lattice-level hits, puts beside gets",
    ),
    (
        "serve_mix",
        "padfa serve --workers 1, all 30 seeded programs, 80% /analyze 20% /explain, closed loop then open loop at 6 req/s: analysis, provenance JSON and queueing all count",
    ),
    (
        "serve_small",
        "same daemon, the 12 smallest seeded programs, 75% /analyze 25% /healthz, open loop at 60 req/s: connection set-up, HTTP and worker hand-off dominate",
    ),
];

/// Times set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A CLI median is taken over at least this many passes, however long
/// they take.
pub const MIN_PASSES: usize = 9;

pub struct Ctx {
    /// The `padfa` binary under test.
    pub padfa: PathBuf,
    /// `benchmark/out/work/<workload>`: scratch, wiped by set-up.
    pub work: PathBuf,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    pub tracer: Tracer,
    /// Every reported duration is scaled through this (`speed.rs`).
    pub speed: Speed,
}

impl Ctx {
    /// A path under the work directory, as the string a child gets.
    pub fn path(&self, rel: &str) -> String {
        self.work.join(rel).to_string_lossy().into_owned()
    }

    /// Run `padfa <args>` to completion under a span. A non-zero exit is
    /// a failed operation; the child is returned either way.
    pub fn padfa(
        &self,
        span: &'static str,
        parent: SpanId,
        op: u64,
        args: &[String],
        tally: &mut Tally,
    ) -> Result<Finished, String> {
        let done = {
            let _span = self.tracer.span(span, parent, op);
            child::run(&self.padfa, args)?
        };
        tally.check(done.status.success(), || {
            format!("padfa {args:?} exited with {}", done.status)
        });
        Ok(done)
    }
}

/// Operations attempted and failed, with the first few reasons. An
/// operation is a child process, an HTTP request, or one oracle
/// comparison; any failure makes the run incorrect.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }
}

/// One program's (or command's) samples in the closed-loop passes.
pub struct Row {
    pub name: String,
    /// Scaled to the reference host speed.
    pub samples_ms: Vec<f64>,
    pub raw_ms: Vec<f64>,
}

/// What the measured window produced. Durations are scaled to the
/// reference host speed (`speed.rs`) unless named `raw`.
#[derive(Default)]
pub struct Window {
    /// Closed-loop cost of one pass, as the workload family defines it
    /// (`Cli::window`, `Serve::window`).
    pub wall_ms: f64,
    /// The same statistic over the unscaled samples, for the table.
    pub raw_wall_ms: f64,
    /// Wall of each closed-loop pass (CLI: sum of its children's walls;
    /// serve: one sweep of the request list).
    pub pass_ms: Vec<f64>,
    /// Per-unit samples across the passes, in pass order.
    pub rows: Vec<Row>,
    /// Latency of each operation: CLI children spawn-to-exit, serve
    /// open-loop requests due-time-to-last-byte.
    pub op_ms: Vec<f64>,
    /// Operations completed in the closed-loop phase, and its length.
    pub closed_ops: u64,
    pub closed_s: f64,
    pub peak_rss_kb: u64,
    /// Traced run only: cost of the recorder, from the traced and the
    /// untraced half of the window's operations.
    pub trace_overhead_pct: Option<f64>,
    /// Serve only: how late the open-loop generator sent, p95.
    pub gen_late_p95_ms: Option<f64>,
    /// Serve only: every open-loop request as (what, due, sent, done),
    /// ms from the phase's start.
    pub requests: Vec<(String, f64, f64, f64)>,
    /// Serve only: the mean host-speed probe around each slice of the
    /// open-loop phase as (slice start ms, probe ms).
    pub host_probes: Vec<(f64, f64)>,
}

/// Traced run: what the span recorder costs. Passes alternate between
/// recorder off (even) and on (odd); this is the odd passes' median over
/// the even passes' median, minus one, in percent.
pub fn trace_overhead_pct(ctx: &Ctx, pass_ms: &[f64]) -> Option<f64> {
    let side =
        |first: usize| -> Vec<f64> { pass_ms.iter().skip(first).step_by(2).copied().collect() };
    (ctx.trace && pass_ms.len() >= 2)
        .then(|| (stats::median(&side(1)) / stats::median(&side(0)) - 1.0) * 100.0)
}

impl Window {
    /// The end-to-end numbers of a run, in `report::END_TO_END` order.
    pub fn end_to_end(&self, setup_s: &[f64]) -> [f64; 6] {
        let ops = stats::sorted(&self.op_ms);
        [
            self.wall_ms,
            stats::percentile(&ops, 0.50),
            stats::percentile(&ops, 0.95),
            self.closed_ops as f64 / self.closed_s,
            self.peak_rss_kb as f64 / 1024.0,
            stats::median(setup_s),
        ]
    }
}

/// The phases the driver in `main` runs a workload through. Set-up is
/// timed and repeated (`teardown` between repeats and at the end); the
/// window is the measured part; `verify` runs the oracles that need
/// extra work, outside every timed region.
pub trait Workload {
    fn setup(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String>;
    fn teardown(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String>;
    fn window(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<Window, String>;
    fn verify(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String>;
    /// The counts and rates the harness fixes for this workload, for
    /// the report.
    fn constants(&self) -> Vec<(&'static str, f64)>;
}
