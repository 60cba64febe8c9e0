//! The four CLI workloads: every operation is one `padfa` process.

use crate::inputs::{self, Input};
use crate::oracle;
use crate::speed::Series;
use crate::stats;
use crate::trace::SpanId;
use crate::workload::{
    trace_overhead_pct, Ctx, Row, Tally, Window, Workload, MIN_PASSES, SETUP_REPS,
};
use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    AnalyzeCold,
    CorpusCold,
    CorpusWarm,
    StoreEdit,
}

/// `store_edit` cycles through this many distinct seeded edits per
/// program (pass `p` applies edit `p % EDIT_SETS`), so every edit gets
/// at least three passes and the no-store reference runs stay few.
const EDIT_SETS: usize = 3;

/// What one child cost: its wall (spawn to exit, stdout drained) raw
/// and scaled to the reference host speed, and its peak resident set.
struct Sample {
    raw_ms: f64,
    ms: f64,
    peak_rss_kb: u64,
}

/// One child process of a pass.
struct Op {
    /// Row the sample lands in (a program name, or `corpus`).
    unit: String,
    args: Vec<String>,
    span: &'static str,
    /// Outputs of operations with the same key must be byte-identical.
    same_as: String,
}

pub struct Cli {
    kind: Kind,
    inputs: Vec<Input>,
    /// First-seen (normalised) stdout per `Op::same_as`.
    reference: HashMap<String, Vec<u8>>,
    /// Normalised ledger of the cold corpus run (corpus workloads).
    cold_ledger: Option<String>,
}

pub fn wipe(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// Byte copy of a flat directory (a store: segment files plus an empty
/// `corrupt/` sidecar).
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries = fs::read_dir(from).map_err(|e| format!("cannot read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)
                .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

impl Cli {
    pub fn new(kind: Kind, seed: u64) -> Cli {
        // `padfa corpus` always analyses the built-in corpus, which is
        // seed 0 of the generator; the explain oracle reads the same.
        let input_seed = match kind {
            Kind::CorpusCold | Kind::CorpusWarm => 0,
            Kind::AnalyzeCold | Kind::StoreEdit => seed,
        };
        Cli {
            kind,
            inputs: inputs::generate(input_seed),
            reference: HashMap::new(),
            cold_ledger: None,
        }
    }

    fn corpus_op(&self, ctx: &Ctx) -> Op {
        Op {
            unit: "corpus".to_string(),
            args: [
                "corpus",
                "--store",
                &ctx.path("store"),
                "--ledger",
                &ctx.path("ledger.jsonl"),
            ]
            .map(String::from)
            .to_vec(),
            span: "child.corpus",
            same_as: "corpus".to_string(),
        }
    }

    /// The children of pass `pass`, in order.
    fn ops(&self, ctx: &Ctx, pass: usize) -> Vec<Op> {
        match self.kind {
            Kind::CorpusCold | Kind::CorpusWarm => vec![self.corpus_op(ctx)],
            Kind::AnalyzeCold => self
                .inputs
                .iter()
                .map(|i| Op {
                    unit: i.name.to_string(),
                    args: vec![
                        "analyze".to_string(),
                        ctx.path(&format!("in/{}.mf", i.name)),
                    ],
                    span: "child.analyze",
                    same_as: i.name.to_string(),
                })
                .collect(),
            Kind::StoreEdit => {
                let set = pass % EDIT_SETS;
                self.inputs
                    .iter()
                    .map(|i| Op {
                        unit: i.name.to_string(),
                        args: vec![
                            "analyze".to_string(),
                            "--store".to_string(),
                            ctx.path("store"),
                            ctx.path(&format!("edit{set}/{}.mf", i.name)),
                        ],
                        span: "child.analyze_store",
                        same_as: format!("edit{set}/{}", i.name),
                    })
                    .collect()
            }
        }
    }

    /// State every pass starts from, restored outside the timed region.
    fn before_pass(&self, ctx: &Ctx) -> Result<(), String> {
        match self.kind {
            Kind::CorpusCold => wipe(&ctx.work.join("store")),
            Kind::StoreEdit => {
                wipe(&ctx.work.join("store"))?;
                copy_dir(&ctx.work.join("snapshot"), &ctx.work.join("store"))
            }
            Kind::AnalyzeCold | Kind::CorpusWarm => Ok(()),
        }
    }

    /// Run one child, check it, and return its timing. The first
    /// output seen for an `Op::same_as` key becomes the reference for
    /// the rest.
    fn run_op(
        &mut self,
        ctx: &Ctx,
        op: &Op,
        parent: SpanId,
        pass: u64,
        series: &mut Series,
        tally: &mut Tally,
    ) -> Result<Sample, String> {
        let (done, raw_ms, ms) = series.time(|| ctx.padfa(op.span, parent, pass, &op.args, tally));
        let done = done?;
        let sample = Sample {
            raw_ms,
            ms,
            peak_rss_kb: done.peak_rss_kb,
        };
        let output = match self.kind {
            Kind::CorpusCold | Kind::CorpusWarm => {
                oracle::normalize_corpus_stdout(&String::from_utf8_lossy(&done.stdout)).into_bytes()
            }
            Kind::AnalyzeCold | Kind::StoreEdit => done.stdout.clone(),
        };
        let reference = self
            .reference
            .entry(op.same_as.clone())
            .or_insert_with(|| output.clone());
        tally.check(*reference == output, || {
            format!("stdout of padfa {:?} differs from the first run's", op.args)
        });
        if matches!(self.kind, Kind::CorpusCold | Kind::CorpusWarm) {
            let ledger = fs::read_to_string(ctx.work.join("ledger.jsonl")).unwrap_or_default();
            let ledger = oracle::normalize_ledger(&ledger);
            let cold = self.cold_ledger.get_or_insert_with(|| ledger.clone());
            tally.check(*cold == ledger && !ledger.is_empty(), || {
                format!("ledger of padfa {:?} differs from the cold run's", op.args)
            });
        }
        Ok(sample)
    }

    fn run_pass(
        &mut self,
        ctx: &Ctx,
        pass: usize,
        tally: &mut Tally,
    ) -> Result<Vec<(String, Sample)>, String> {
        self.before_pass(ctx)?;
        let span = ctx.tracer.span("pass", SpanId::NONE, pass as u64);
        let mut series = ctx.speed.series();
        let mut out = Vec::new();
        for op in self.ops(ctx, pass) {
            let done = self.run_op(ctx, &op, span.id(), pass as u64, &mut series, tally)?;
            out.push((op.unit, done));
        }
        Ok(out)
    }
}

impl Workload for Cli {
    /// Inputs on disk, the store state the workload starts from, and
    /// one warm-up pass (page cache, lazy set-up; its outputs become
    /// the byte-identity references).
    fn setup(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        wipe(&ctx.work)?;
        self.reference.clear();
        self.cold_ledger = None;
        inputs::write(&ctx.work.join("in"), &self.inputs, |i| i.source.clone())?;
        match self.kind {
            Kind::AnalyzeCold | Kind::CorpusCold => {
                self.run_pass(ctx, 0, tally)?;
            }
            Kind::CorpusWarm => {
                // Populate (the cold run, whose ledger every warm pass
                // must reproduce), then one warm pass.
                self.run_pass(ctx, 0, tally)?;
                self.run_pass(ctx, 0, tally)?;
            }
            Kind::StoreEdit => {
                for set in 0..EDIT_SETS {
                    inputs::write(&ctx.work.join(format!("edit{set}")), &self.inputs, |i| {
                        inputs::edited(i, ctx.seed, set)
                    })?;
                }
                // The warm snapshot: every unedited program analysed
                // into one store.
                let span = ctx.tracer.span("populate", SpanId::NONE, 0);
                for input in &self.inputs {
                    let args = [
                        "analyze",
                        "--store",
                        &ctx.path("snapshot"),
                        &ctx.path(&format!("in/{}.mf", input.name)),
                    ]
                    .map(String::from);
                    ctx.padfa("child.analyze_store", span.id(), 0, &args, tally)?;
                }
            }
        }
        Ok(())
    }

    fn teardown(&mut self, _ctx: &Ctx, _tally: &mut Tally) -> Result<(), String> {
        Ok(())
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        let mut c = vec![
            ("setup_reps", SETUP_REPS as f64),
            ("min_passes", MIN_PASSES as f64),
        ];
        if self.kind == Kind::StoreEdit {
            c.push(("edit_sets", EDIT_SETS as f64));
        }
        c
    }

    fn window(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<Window, String> {
        let mut window = Window::default();
        let mut rows: Vec<Row> = Vec::new();
        let started = Instant::now();
        let mut pass = 0;
        while pass < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
            ctx.tracer.set_enabled(ctx.trace && pass % 2 == 1);
            let children = self.run_pass(ctx, pass, tally)?;
            window
                .pass_ms
                .push(children.iter().map(|(_, c)| c.ms).sum());
            for (unit, child) in children {
                window.op_ms.push(child.ms);
                window.peak_rss_kb = window.peak_rss_kb.max(child.peak_rss_kb);
                let row = match rows.iter().position(|r| r.name == unit) {
                    Some(at) => &mut rows[at],
                    None => {
                        rows.push(Row {
                            name: unit,
                            samples_ms: Vec::new(),
                            raw_ms: Vec::new(),
                        });
                        rows.last_mut().expect("just pushed")
                    }
                };
                row.samples_ms.push(child.ms);
                row.raw_ms.push(child.raw_ms);
            }
            pass += 1;
        }
        ctx.tracer.set_enabled(ctx.trace);
        window.trace_overhead_pct = trace_overhead_pct(ctx, &window.pass_ms);
        // Closed-loop cost of one pass: the sum over its units of each
        // unit's median across the passes. Slowdowns also come in short
        // bursts that hit a few children of every pass, so the median
        // of pass sums carries the bursts' mean while the sum of
        // per-unit medians does not (README, "Steadiness").
        window.wall_ms = rows.iter().map(|r| stats::median(&r.samples_ms)).sum();
        window.raw_wall_ms = rows.iter().map(|r| stats::median(&r.raw_ms)).sum();
        window.rows = rows;
        window.closed_ops = window.op_ms.len() as u64;
        window.closed_s = window.pass_ms.iter().sum::<f64>() / 1e3;
        Ok(window)
    }

    fn verify(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        let span = ctx.tracer.span("verify", SpanId::NONE, 0);
        if self.kind == Kind::StoreEdit {
            // The store must not change a single byte of any answer.
            for set in 0..EDIT_SETS {
                for input in &self.inputs {
                    let key = format!("edit{set}/{}", input.name);
                    let args = ["analyze".to_string(), ctx.path(&format!("{key}.mf"))];
                    let done = ctx.padfa("child.analyze", span.id(), 0, &args, tally)?;
                    tally.check(self.reference.get(&key) == Some(&done.stdout), || {
                        format!("{key}: output with the store differs from the no-store output")
                    });
                }
            }
            return Ok(());
        }
        // The generator's expectations, read from `explain --json`.
        for input in &self.inputs {
            let args = [
                "explain".to_string(),
                "--json".to_string(),
                ctx.path(&format!("in/{}.mf", input.name)),
            ];
            let done = ctx.padfa("child.explain", span.id(), 0, &args, tally)?;
            let errors = oracle::check_loops(&String::from_utf8_lossy(&done.stdout), &input.hard);
            tally.check(errors.is_empty(), || {
                format!("{}: {}", input.name, errors.join("; "))
            });
        }
        if self.kind == Kind::CorpusCold {
            // Writing the store must not change the ledger either.
            let args = ["corpus", "--ledger", &ctx.path("nostore.jsonl")].map(String::from);
            ctx.padfa("child.corpus_nostore", span.id(), 0, &args, tally)?;
            let ledger = fs::read_to_string(ctx.work.join("nostore.jsonl")).unwrap_or_default();
            tally.check(
                Some(oracle::normalize_ledger(&ledger)) == self.cold_ledger,
                || "corpus ledger with a store differs from the no-store ledger".to_string(),
            );
        }
        Ok(())
    }
}
