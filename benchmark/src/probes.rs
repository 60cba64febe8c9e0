//! The per-layer probe battery of a traced run: every layer measured
//! from outside, on this run's seeded inputs. In-process probes call
//! only the surface listed in the README ("Probe surface"); everything
//! else is a child process or an HTTP request.
//!
//! The battery does not depend on which workload is being traced: a
//! per-layer metric has one definition, so its value is comparable
//! across the six traced runs of a set.

use crate::child::Server;
use crate::cli;
use crate::inputs::{self, Input};
use crate::json::{self, Value};
use crate::oracle;
use crate::rng::Rng;
use crate::serve::{self, Client, Endpoint, Request};
use crate::stats;
use crate::trace::SpanId;
use crate::workload::{Ctx, Tally};
use padfa::analysis::region::access_section;
use padfa::ir::{affine, Block, BoolExpr, Expr, LValue, Procedure, Stmt};
use padfa::omega::{Constraint, Disjunction, Limits, LinExpr, System, Var};
use padfa::pred::Pred;
use padfa::prelude::{analyze_program_session, parse_program, AnalysisSession, Options};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Repeats of a timed in-process sweep; the per-program median is kept.
const REPEATS: usize = 3;
/// Same-array region pairs replayed per program, at most.
const PAIRS_PER_PROGRAM: usize = 40;

/// Per-item medians over `REPEATS` sweeps of `f` across `items`.
fn sweep_medians<T>(
    items: &[T],
    mut f: impl FnMut(&T) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut samples = vec![Vec::with_capacity(REPEATS); items.len()];
    for _ in 0..REPEATS {
        for (item, s) in items.iter().zip(&mut samples) {
            s.push(f(item)?);
        }
    }
    Ok(samples.iter().map(|s| stats::median(s)).collect())
}

// ---------------------------------------------------------------- layers in process

/// One array access with the bounds of the loops around it conjoined,
/// and those loops' index variables.
struct Region {
    array: Var,
    region: Disjunction,
    indices: Vec<Var>,
}

/// Walks a procedure collecting the replay mix: a region per array
/// access, in source order, and every `if` condition.
struct Harvester<'p> {
    proc: &'p Procedure,
    bounds: Vec<Constraint>,
    indices: Vec<Var>,
    regions: Vec<Region>,
    conditions: Vec<BoolExpr>,
}

impl Harvester<'_> {
    fn access(&mut self, array: Var, subs: &[Expr]) {
        let enclosing =
            Disjunction::from_system(System::from_constraints(self.bounds.iter().cloned()));
        self.regions.push(Region {
            array,
            region: access_section(self.proc, array, subs).intersect(&enclosing, Limits::default()),
            indices: self.indices.clone(),
        });
    }

    fn expr(&mut self, e: &Expr) {
        e.for_each_access(&mut |array, subs| self.access(array, subs));
    }

    fn cond(&mut self, c: &BoolExpr) {
        c.for_each_access(&mut |array, subs| self.access(array, subs));
    }

    fn block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Assign { lhs, rhs } => {
                    if let LValue::Elem(array, subs) = lhs {
                        self.access(*array, subs);
                    }
                    self.expr(rhs);
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.cond(cond);
                    self.conditions.push(cond.clone());
                    self.block(then_blk);
                    self.block(else_blk);
                }
                Stmt::For(l) => {
                    let (lo, hi) = if l.step > 0 {
                        (&l.lo, &l.hi)
                    } else {
                        (&l.hi, &l.lo)
                    };
                    let outer = self.bounds.len();
                    if let Some(lo) = affine::to_linexpr(lo) {
                        self.bounds.push(Constraint::geq(LinExpr::var(l.var), lo));
                    }
                    if let Some(hi) = affine::to_linexpr(hi) {
                        self.bounds.push(Constraint::leq(LinExpr::var(l.var), hi));
                    }
                    self.indices.push(l.var);
                    self.block(&l.body);
                    self.indices.pop();
                    self.bounds.truncate(outer);
                }
                Stmt::Print(e) => self.expr(e),
                Stmt::ExitWhen(c) => self.cond(c),
                Stmt::Call { .. } | Stmt::Read(_) => {}
            }
        }
    }
}

/// Two regions of one array and the loop indices around the second.
type Pair = (Disjunction, Disjunction, Vec<Var>);

/// The lattice operations replayed: same-array region pairs in source
/// order (a seeded sample of at most `PAIRS_PER_PROGRAM` per program)
/// and adjacent pairs of `if` conditions.
struct ReplayMix {
    pairs: Vec<Pair>,
    conditions: Vec<BoolExpr>,
}

fn replay_mix(programs: &[padfa::ir::Program], seed: u64) -> ReplayMix {
    let mut mix = ReplayMix {
        pairs: Vec::new(),
        conditions: Vec::new(),
    };
    for (n, program) in programs.iter().enumerate() {
        let mut pairs = Vec::new();
        for proc in &program.procedures {
            let mut h = Harvester {
                proc,
                bounds: Vec::new(),
                indices: Vec::new(),
                regions: Vec::new(),
                conditions: Vec::new(),
            };
            h.block(&proc.body);
            let mut last: HashMap<Var, usize> = HashMap::new();
            for (i, r) in h.regions.iter().enumerate() {
                if let Some(prev) = last.insert(r.array, i) {
                    pairs.push((
                        h.regions[prev].region.clone(),
                        r.region.clone(),
                        r.indices.clone(),
                    ));
                }
            }
            mix.conditions.extend(h.conditions);
        }
        Rng::new(seed, &format!("replay/{n}")).shuffle(&mut pairs);
        pairs.truncate(PAIRS_PER_PROGRAM);
        mix.pairs.extend(pairs);
    }
    mix
}

/// Time `op` over every item, `REPEATS` times; returns (ns per call,
/// calls per repeat) with the median repeat.
fn ns_per_op<T>(
    ctx: &Ctx,
    parent: SpanId,
    span: &'static str,
    items: &[T],
    mut op: impl FnMut(&T),
) -> (f64, usize) {
    let mut per_op = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let ((), _, ms) = ctx.speed.time(|| {
            let _span = ctx.tracer.span(span, parent, 0);
            items.iter().for_each(&mut op)
        });
        per_op.push(ms * 1e6 / items.len().max(1) as f64);
    }
    (stats::median(&per_op), items.len())
}

/// What the in-process probes hand to the later sections.
pub struct InProcess {
    /// Per program: parse + analyze, ms.
    pub program_ms: Vec<f64>,
    /// ns per lattice operation, by the session's query-kind names.
    omega_ns: BTreeMap<&'static str, f64>,
}

fn in_process(
    ctx: &Ctx,
    parent: SpanId,
    inputs: &[Input],
    m: &mut Metrics,
) -> Result<InProcess, String> {
    let generate: Vec<f64> = (0..REPEATS + 2)
        .map(|_| {
            ctx.speed
                .time(|| {
                    let _s = ctx.tracer.span("suite.generate", parent, 0);
                    black_box(inputs::generate(black_box(ctx.seed)))
                })
                .2
        })
        .collect();
    m.insert("suite.generate_ms", stats::median(&generate));

    let parse_ms = sweep_medians(inputs, |i| {
        let (parsed, _, ms) = ctx.speed.time(|| {
            let _s = ctx.tracer.span("ir.parse", parent, 0);
            parse_program(black_box(&i.source))
        });
        black_box(parsed.map_err(|e| format!("{}: {}", i.name, e.msg))?);
        Ok(ms)
    })?;
    let parse_total: f64 = parse_ms.iter().sum();
    let bytes: usize = inputs.iter().map(|i| i.source.len()).sum();
    m.insert("ir.parse_ms", parse_total);
    m.insert("ir.parse_mb_s", bytes as f64 / 1e6 / (parse_total / 1e3));

    let programs: Vec<padfa::ir::Program> = inputs
        .iter()
        .map(|i| parse_program(&i.source).map_err(|e| format!("{}: {}", i.name, e.msg)))
        .collect::<Result<_, _>>()?;
    let analyze_ms = sweep_medians(&programs, |p| {
        // A fresh session per program, as every CLI process and every
        // request gets.
        let (analyzed, _, ms) = ctx.speed.time(|| {
            let _s = ctx.tracer.span("core.analyze", parent, 0);
            let session = AnalysisSession::new(Options::predicated());
            analyze_program_session(black_box(p), &session)
        });
        black_box(analyzed.map_err(|e| e.to_string())?);
        Ok(ms)
    })?;
    m.insert("core.analyze_ms", analyze_ms.iter().sum());

    let mix = replay_mix(&programs, ctx.seed);
    let limits = Limits::default();
    let mut omega_ns = BTreeMap::new();
    let mut replayed = 0;
    let mut omega = |name: &'static str,
                     metric: &'static str,
                     span: &'static str,
                     op: &mut dyn FnMut(&Pair)| {
        let (ns, calls) = ns_per_op(ctx, parent, span, &mix.pairs, op);
        omega_ns.insert(name, ns);
        m.insert(metric, ns);
        replayed += calls;
    };
    omega(
        "intersect",
        "omega.intersect_ns",
        "omega.replay.intersect",
        &mut |(a, b, _)| {
            black_box(a.intersect(b, limits));
        },
    );
    omega(
        "subtract",
        "omega.subtract_ns",
        "omega.replay.subtract",
        &mut |(a, b, _)| {
            black_box(a.subtract(b, limits));
        },
    );
    omega(
        "subset",
        "omega.subset_ns",
        "omega.replay.subset",
        &mut |(a, b, _)| {
            black_box(a.subset_of(b, limits));
        },
    );
    omega(
        "union",
        "omega.union_ns",
        "omega.replay.union",
        &mut |(a, b, _)| {
            black_box(a.union(b, limits));
        },
    );
    omega(
        "project",
        "omega.project_ns",
        "omega.replay.project",
        &mut |(_, b, indices)| {
            black_box(b.project_out(indices, limits));
        },
    );
    // Emptiness is asked of systems, so replay it over the systems the
    // intersections produce.
    let systems: Vec<System> = mix
        .pairs
        .iter()
        .flat_map(|(a, b, _)| a.intersect(b, limits).systems().to_vec())
        .collect();
    let (ns, calls) = ns_per_op(ctx, parent, "omega.replay.sys_empty", &systems, |s| {
        black_box(s.is_empty(limits));
    });
    omega_ns.insert("sys_empty", ns);
    m.insert("omega.sys_empty_ns", ns);
    m.insert("omega.replay_ops", (replayed + calls) as f64);

    let (ns, _) = ns_per_op(ctx, parent, "pred.replay.from_bool", &mix.conditions, |c| {
        black_box(Pred::from_bool(c));
    });
    m.insert("pred.from_bool_ns", ns);
    let preds: Vec<Pred> = mix.conditions.iter().map(Pred::from_bool).collect();
    let adjacent: Vec<(Pred, Pred)> = preds
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    // `and` consumes its operands; the clones are part of what a
    // caller pays.
    let (ns, _) = ns_per_op(ctx, parent, "pred.replay.and", &adjacent, |(a, b)| {
        black_box(Pred::and(a.clone(), b.clone()));
    });
    m.insert("pred.and_ns", ns);
    let (ns, _) = ns_per_op(ctx, parent, "pred.replay.implies", &adjacent, |(a, b)| {
        black_box(a.implies(b, limits));
    });
    m.insert("pred.implies_ns", ns);
    let (ns, _) = ns_per_op(ctx, parent, "pred.replay.negate", &preds, |p| {
        black_box(p.negate());
    });
    m.insert("pred.negate_ns", ns);

    Ok(InProcess {
        program_ms: parse_ms
            .iter()
            .zip(&analyze_ms)
            .map(|(p, a)| p + a)
            .collect(),
        omega_ns,
    })
}

// ---------------------------------------------------------------- the CLI, the store

/// Counters summed over the `--metrics-out` files of several children.
/// A key the program no longer emits reads 0.
#[derive(Default)]
struct Counters(BTreeMap<String, f64>);

impl Counters {
    fn add_file(&mut self, path: &Path) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(Value::Obj(counters)) = doc.get("metrics").and_then(|m| m.get("counters")) {
            for (key, value) in counters {
                *self.0.entry(key.clone()).or_default() += value.as_f64().unwrap_or(0.0);
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum of `<prefix><kind><suffix>` over the query kinds.
    fn sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run `padfa <args>` (`Ctx::padfa`) and return its scaled wall.
fn padfa(
    ctx: &Ctx,
    parent: SpanId,
    span: &'static str,
    tally: &mut Tally,
    args: &[&str],
) -> Result<f64, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let (done, _, ms) = ctx.speed.time(|| ctx.padfa(span, parent, 0, &args, tally));
    done.map(|_| ms)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            if e.path().is_dir() {
                dir_bytes(&e.path())
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

fn cli_and_store(
    ctx: &Ctx,
    parent: SpanId,
    inputs: &[Input],
    inproc: &InProcess,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = |rel: &str| ctx.path(&format!("probe/{rel}"));
    let file = |sub: &str, i: &Input| dir(&format!("{sub}/{}.mf", i.name));
    inputs::write(Path::new(&dir("in")), inputs, |i| i.source.clone())?;
    inputs::write(Path::new(&dir("edit")), inputs, |i| {
        inputs::edited(i, ctx.seed, 0)
    })?;
    std::fs::write(dir("one.mf"), inputs::ONE_LOOP)
        .map_err(|e| format!("cannot write one.mf: {e}"))?;
    std::fs::create_dir_all(dir("m")).map_err(|e| format!("cannot create metrics dir: {e}"))?;

    // Process floor, and what the CLI adds around parse + analyze.
    let startup: Vec<f64> = (0..20)
        .map(|_| {
            padfa(
                ctx,
                parent,
                "child.startup",
                tally,
                &["analyze", &dir("one.mf")],
            )
        })
        .collect::<Result<_, _>>()?;
    m.insert("padfa.startup_ms", stats::median(&startup));
    let analyze_ms = sweep_medians(inputs, |i| {
        padfa(
            ctx,
            parent,
            "child.analyze",
            tally,
            &["analyze", &file("in", i)],
        )
    })?;
    m.insert(
        "padfa.cli_overhead_ms",
        analyze_ms.iter().sum::<f64>() - inproc.program_ms.iter().sum::<f64>(),
    );

    // Provenance: what `explain --json` costs beyond `analyze`, on the
    // five largest programs.
    let mut largest: Vec<usize> = (0..inputs.len()).collect();
    largest.sort_by_key(|&i| std::cmp::Reverse(inputs[i].source.len()));
    largest.truncate(5);
    let explain_ms = sweep_medians(&largest, |&i| {
        padfa(
            ctx,
            parent,
            "child.explain",
            tally,
            &["explain", "--json", &file("in", &inputs[i])],
        )
    })?;
    m.insert(
        "core.provenance_ms",
        explain_ms
            .iter()
            .zip(&largest)
            .map(|(e, &i)| e - analyze_ms[i])
            .sum(),
    );

    // The session's own counters, summed over one analyze per program.
    let mut counters = Counters::default();
    for i in inputs {
        let out = dir(&format!("m/{}.json", i.name));
        padfa(
            ctx,
            parent,
            "child.analyze_metrics",
            tally,
            &["analyze", &file("in", i), "--metrics-out", &out],
        )?;
        counters.add_file(Path::new(&out))?;
    }
    let queries = counters.sum("query.", ".total");
    m.insert("core.query_total", queries);
    m.insert(
        "core.sys_empty_total",
        counters.get("query.sys_empty.total"),
    );
    m.insert("core.interned_systems", counters.get("interned.systems"));
    m.insert("core.interned_regions", counters.get("interned.regions"));
    m.insert("core.fm_projections", counters.get("fm.projections"));
    m.insert(
        "core.memo_hit_rate",
        ratio(counters.sum("memo.", ".hits"), queries),
    );
    m.insert(
        "core.queries_per_system",
        ratio(
            counters.get("query.sys_empty.total"),
            counters.get("interned.systems"),
        ),
    );
    m.insert("core.sched_spawned", counters.sum("sched.spawned.", ""));
    m.insert("core.sched_inlined", counters.sum("sched.inlined.", ""));
    m.insert(
        "omega.dense_rate",
        ratio(
            counters.get("tier.sys_empty.dense"),
            counters.get("query.sys_empty.total"),
        ),
    );
    // PR 9's attributed cost: what the lattice work of this input set
    // is worth at the replay's unit costs (memo misses x ns per op).
    let attributed_ns: f64 = inproc
        .omega_ns
        .iter()
        .map(|(kind, ns)| counters.get(&format!("memo.{kind}.misses")) * ns)
        .sum();
    m.insert("omega.attributed_ms", attributed_ns / 1e6);

    // `--jobs`: the only place the benchmark passes it. Alternate the
    // two sides so drift hits both.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ledger = dir("ledger.jsonl");
    let (mut jobs1, mut jobs_n) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        jobs1.push(padfa(
            ctx,
            parent,
            "child.corpus_jobs1",
            tally,
            &["corpus", "--jobs", "1", "--ledger", &ledger],
        )?);
        jobs_n.push(padfa(
            ctx,
            parent,
            "child.corpus_jobsN",
            tally,
            &["corpus", "--jobs", &cores.to_string(), "--ledger", &ledger],
        )?);
    }
    m.insert(
        "core.jobsN_speedup",
        stats::median(&jobs1) / stats::median(&jobs_n),
    );
    m.insert("bench.host_cores", cores as f64);
    // Normalised, so the count repeats exactly (rows carry their own `ms`).
    let rows = oracle::normalize_ledger(&std::fs::read_to_string(&ledger).unwrap_or_default());
    m.insert("padfa.ledger_bytes", rows.len() as f64);

    // The store, written cold and read warm.
    let store = dir("store");
    let mut cold = Vec::new();
    for _ in 0..2 {
        cli::wipe(Path::new(&store))?;
        cold.push(padfa(
            ctx,
            parent,
            "child.corpus_cold",
            tally,
            &["corpus", "--store", &store, "--ledger", &ledger],
        )?);
    }
    m.insert(
        "store.write_overhead_ms",
        stats::median(&cold) - stats::median(&jobs1),
    );
    m.insert("store.bytes", dir_bytes(Path::new(&store)) as f64);
    let warm_metrics = dir("m/warm.json");
    padfa(
        ctx,
        parent,
        "child.corpus_warm",
        tally,
        &[
            "corpus",
            "--store",
            &store,
            "--ledger",
            &ledger,
            "--metrics-out",
            &warm_metrics,
        ],
    )?;
    let mut warm = Counters::default();
    warm.add_file(Path::new(&warm_metrics))?;
    m.insert("store.entries_loaded", warm.get("store.loaded"));
    m.insert("store.warm_hits", warm.get("store.hits"));
    m.insert("store.warm_misses", warm.get("store.misses"));
    // Opening and loading that store, seen from the smallest program.
    let smallest = inputs
        .iter()
        .min_by_key(|i| i.source.len())
        .expect("inputs");
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        with.push(padfa(
            ctx,
            parent,
            "child.analyze_store",
            tally,
            &["analyze", "--store", &store, &file("in", smallest)],
        )?);
        without.push(padfa(
            ctx,
            parent,
            "child.analyze",
            tally,
            &["analyze", &file("in", smallest)],
        )?);
    }
    m.insert(
        "store.open_load_ms",
        stats::median(&with) - stats::median(&without),
    );

    // The edit cycle: a snapshot of every unedited program, then each
    // edited program against it, and the same files with no store.
    let snapshot = dir("snapshot");
    for i in inputs {
        padfa(
            ctx,
            parent,
            "child.analyze_store",
            tally,
            &["analyze", "--store", &snapshot, &file("in", i)],
        )?;
    }
    let mut edit = Counters::default();
    let mut with_store = 0.0;
    let mut no_store = 0.0;
    for i in inputs {
        let out = dir(&format!("m/edit-{}.json", i.name));
        with_store += padfa(
            ctx,
            parent,
            "child.analyze_store",
            tally,
            &[
                "analyze",
                "--store",
                &snapshot,
                &file("edit", i),
                "--metrics-out",
                &out,
            ],
        )?;
        edit.add_file(Path::new(&out))?;
        no_store += padfa(
            ctx,
            parent,
            "child.analyze",
            tally,
            &["analyze", &file("edit", i)],
        )?;
    }
    m.insert("store.edit_hits", edit.get("store.hits"));
    m.insert("store.edit_puts", edit.get("store.puts"));
    m.insert("store.edit_vs_nostore", with_store / no_store);
    Ok(())
}

// ---------------------------------------------------------------- the service

/// Open-loop length of the service probe, seconds, at `serve_mix`'s rate.
const SERVICE_OPEN_S: f64 = 5.0;

fn service(
    ctx: &Ctx,
    parent: SpanId,
    inputs: &[Input],
    inproc: &InProcess,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let server = Server::start(&ctx.padfa, Path::new(&ctx.path("probe/serve.stderr")))?;
    let reference = Mutex::new(HashMap::new());
    let shared = Mutex::new(std::mem::take(tally));
    let client = Client {
        addr: server.addr,
        programs: inputs,
        tracer: &ctx.tracer,
        speed: &ctx.speed,
        reference: &reference,
        tally: &shared,
        shed: AtomicU64::new(0),
    };

    let healthz = vec![
        Request {
            endpoint: Endpoint::Healthz,
            program: 0
        };
        200
    ];
    // A round trip is shorter than a speed probe, so the batch is
    // scaled as one.
    let (records, raw_ms, ms) = ctx.speed.time(|| client.closed(&healthz, 1, parent, 0));
    m.insert(
        "service.healthz_ms",
        stats::median(&records.iter().map(|r| r.latency_ms).collect::<Vec<_>>()) * ms / raw_ms,
    );

    // Calibration: every program once per endpoint, one at a time, so
    // a latency here is a service time.
    let calibration: Vec<Request> = [Endpoint::Analyze, Endpoint::Explain]
        .into_iter()
        .flat_map(|endpoint| (0..inputs.len()).map(move |program| Request { endpoint, program }))
        .collect();
    let mut series = ctx.speed.series();
    let svc: HashMap<Request, f64> = calibration
        .iter()
        .enumerate()
        .map(|(i, &request)| {
            let (_, _, ms) = series.time(|| client.closed(&[request], 1, parent, 1000 + i as u64));
            (request, ms)
        })
        .collect();
    m.insert(
        "service.svc_ms",
        svc.values().sum::<f64>() / svc.len() as f64,
    );
    let analyze_svc: f64 = svc
        .iter()
        .filter(|(r, _)| r.endpoint == Endpoint::Analyze)
        .map(|(_, ms)| ms)
        .sum();
    m.insert(
        "service.http_overhead_ms",
        (analyze_svc - inproc.program_ms.iter().sum::<f64>()) / inputs.len() as f64,
    );
    let bytes: usize = reference
        .lock()
        .expect("reference map poisoned")
        .values()
        .map(Vec::len)
        .sum();
    m.insert("service.resp_bytes", bytes as f64);
    let rss_before = server.vm_kb("VmRSS").unwrap_or(0);

    let shape = serve::Kind::Mix.shape();
    let n = (shape.rate_rps * SERVICE_OPEN_S).round() as usize;
    let requests: Vec<Request> = (0..)
        .flat_map(|s| serve::sweep(serve::Kind::Mix, inputs.len(), s))
        .take(n)
        .collect();
    let due_s = serve::arrivals(n, SERVICE_OPEN_S);
    let (records, _) = client.open(&requests, &due_s, serve::connections(), parent);
    // Whatever a request took beyond its own calibrated service time.
    // Not floored at zero: most requests of this light phase wait for
    // nothing, and a median clamped to exactly 0 would hide that the
    // number is measured.
    let waits = stats::sorted(
        &records
            .iter()
            .map(|r| r.latency_ms - svc[&r.request])
            .collect::<Vec<_>>(),
    );
    m.insert("service.queue_wait_p50_ms", stats::percentile(&waits, 0.50));
    m.insert("service.queue_wait_p95_ms", stats::percentile(&waits, 0.95));
    let busy_ms: f64 = requests.iter().map(|r| svc[r]).sum();
    m.insert("service.utilization", busy_ms / (SERVICE_OPEN_S * 1e3));
    m.insert("service.shed", client.shed.load(Ordering::Relaxed) as f64);
    let late = stats::sorted(
        &records
            .iter()
            .map(|r| r.sent_ms - r.due_ms)
            .collect::<Vec<_>>(),
    );
    m.insert("service.gen_late_p95_ms", stats::percentile(&late, 0.95));
    let rss_after = server.vm_kb("VmRSS").unwrap_or(0);
    m.insert(
        "service.rss_growth_mb",
        (rss_after as f64 - rss_before as f64) / 1024.0,
    );

    *tally = shared.into_inner().expect("tally poisoned");
    let stopped = server.stop();
    tally.check(stopped.is_ok(), || stopped.unwrap_err());
    Ok(())
}

/// Run every probe. `ctx.work/probe` is its scratch directory.
pub fn battery(ctx: &Ctx, tally: &mut Tally) -> Result<Metrics, String> {
    let root = ctx.tracer.span("probes", SpanId::NONE, 0);
    let inputs = inputs::generate(ctx.seed);
    cli::wipe(&ctx.work.join("probe"))?;
    std::fs::create_dir_all(ctx.work.join("probe"))
        .map_err(|e| format!("cannot create probe dir: {e}"))?;
    let mut m = Metrics::new();
    let inproc = in_process(ctx, root.id(), &inputs, &mut m)?;
    cli_and_store(ctx, root.id(), &inputs, &inproc, tally, &mut m)?;
    service(ctx, root.id(), &inputs, &inproc, tally, &mut m)?;
    Ok(m)
}
