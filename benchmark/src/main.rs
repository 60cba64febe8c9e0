//! The repo benchmark. One command runs named workloads against the
//! `padfa` binary as a subprocess (the CLI and `padfa serve`, default
//! flags only), prints every metric by name with its unit, checks the
//! outputs, and exits non-zero on any correctness failure. See
//! `benchmark/README.md`.

mod child;
mod cli;
mod http;
mod inputs;
mod json;
mod oracle;
mod probes;
mod report;
mod rng;
mod serve;
mod speed;
mod stats;
mod trace;
mod workload;

use report::{Run, Stamp, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{SpanId, Tracer};
use workload::{Ctx, Tally, Workload, SETUP_REPS, WORKLOADS};

struct Config {
    padfa: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--repeat K]\n       benchmark/run.sh gen --seed N --out DIR";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        padfa: PathBuf::from("target/release/padfa"),
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 0,
        seconds: 12.0,
        trace: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--padfa" => cfg.padfa = PathBuf::from(value("a path")?),
            "--out" => cfg.out = PathBuf::from(value("a directory")?),
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                    return Err(format!(
                        "unknown workload '{name}' (known: {})",
                        known.join(", ")
                    ));
                }
                cfg.workload = Some(name);
            }
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--repeat" => {
                cfg.repeat = value("a count")?
                    .parse()
                    .map_err(|_| "--repeat needs a count")?;
                if cfg.repeat == 0 {
                    return Err("--repeat needs at least 1".to_string());
                }
            }
            // `--trace` alone means on; the driver passes 0 or 1.
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(cfg)
}

/// `gen --seed S --out DIR`: write the seeded inputs and each program's
/// label -> expectation table, for reading or for driving `padfa` by hand.
fn generate(args: &[String]) -> Result<(), String> {
    let mut seed = 0u64;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?
            }
            "--out" => out = it.next().cloned(),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let out = PathBuf::from(out.ok_or("gen needs --out DIR")?);
    let inputs = inputs::generate(seed);
    inputs::write(&out, &inputs, |i| i.source.clone())?;
    for input in &inputs {
        let table: String = input
            .hard
            .iter()
            .map(|h| format!("{}\t{:?}\n", h.label, h.expect))
            .collect();
        let path = out.join(format!("{}.expect", input.name));
        std::fs::write(&path, table)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} programs for seed {seed} to {}",
        inputs.len(),
        out.display()
    );
    Ok(())
}

fn run_workload(cfg: &Config, name: &'static str, stamp: &Stamp) -> Result<Run, String> {
    let ctx = Ctx {
        padfa: cfg.padfa.clone(),
        work: cfg.out.join("work").join(name),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        tracer: Tracer::new(cfg.trace),
        speed: speed::Speed::default(),
    };
    let mut workload: Box<dyn Workload> = match name {
        "analyze_cold" => Box::new(cli::Cli::new(cli::Kind::AnalyzeCold, cfg.seed)),
        "corpus_cold" => Box::new(cli::Cli::new(cli::Kind::CorpusCold, cfg.seed)),
        "corpus_warm" => Box::new(cli::Cli::new(cli::Kind::CorpusWarm, cfg.seed)),
        "store_edit" => Box::new(cli::Cli::new(cli::Kind::StoreEdit, cfg.seed)),
        "serve_mix" => Box::new(serve::Serve::new(serve::Kind::Mix, cfg.seed)),
        "serve_small" => Box::new(serve::Serve::new(serve::Kind::Small, cfg.seed)),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            workload.teardown(&ctx, &mut tally)?;
        }
        let (done, _raw_ms, ms) = ctx.speed.time(|| {
            let _span = ctx.tracer.span("setup", SpanId::NONE, rep as u64);
            workload.setup(&ctx, &mut tally)
        });
        done?;
        setup_s.push(ms / 1e3);
    }
    let window = workload.window(&ctx, &mut tally)?;
    workload.verify(&ctx, &mut tally)?;
    workload.teardown(&ctx, &mut tally)?;

    let metrics = if cfg.trace {
        let mut layers = probes::battery(&ctx, &mut tally)?;
        layers.insert(
            "bench.trace_overhead_pct",
            window.trace_overhead_pct.unwrap_or(0.0),
        );
        PER_LAYER
            .iter()
            .map(|&(metric, unit)| {
                let value = layers
                    .get(metric)
                    .copied()
                    .ok_or(format!("no probe produced {metric}"))?;
                Ok((metric, value, unit))
            })
            .collect::<Result<Vec<_>, String>>()?
    } else {
        Run::end_to_end(&window, &setup_s)
    };
    let self_times = trace::self_times(&ctx.tracer.spans());
    let run = Run {
        workload: name,
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        tally,
        window,
        setup_s,
        host_probe_ms: ctx.speed.median_probe_ms(),
        constants: workload.constants(),
        metrics,
        self_times,
    };
    let write = |file: String, text: String| {
        let path = cfg.out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{name}.json"), run.to_json(stamp))?;
    if cfg.trace {
        write(format!("{name}.trace.json"), ctx.tracer.to_json())?;
    }
    if run.correct() {
        // Keep the scratch of a failed run for the post-mortem.
        cli::wipe(&ctx.work)?;
    }
    Ok(run)
}

fn run(cfg: &Config) -> Result<bool, String> {
    std::fs::create_dir_all(&cfg.out)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out.display()))?;
    let stamp = Stamp::take();
    println!(
        "host: nproc={} available_parallelism={} git={} rustc=\"{}\"",
        stamp.nproc, stamp.available_parallelism, stamp.git_rev, stamp.rustc
    );
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| cfg.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let mut sets: Vec<Vec<Run>> = Vec::new();
    for _ in 0..cfg.repeat {
        let mut set = Vec::new();
        for &name in &names {
            let run = run_workload(cfg, name, &stamp)?;
            run.print();
            set.push(run);
        }
        sets.push(set);
    }
    let correct = sets.iter().flatten().all(Run::correct);
    if cfg.repeat > 1 {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        if !report::print_repeats(&sets, &report::bounds(&text)?) {
            println!("some spreads are outside their bounds");
        }
    }
    // Last line of stdout: the result object. One workload gives the
    // contract's shape exactly; several are merged under
    // `<workload>.<metric>` names.
    let last = sets.last().expect("at least one set");
    if let [only] = last.as_slice() {
        println!("{}", only.result_line());
    } else {
        let merged: Vec<String> = last
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(move |(m, v, u)| {
                    format!(
                        "\"{}.{m}\":{{\"value\":{},\"unit\":\"{u}\"}}",
                        r.workload,
                        json::number(*v)
                    )
                })
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            last.iter().map(|r| r.tally.attempted).sum::<u64>().max(1),
            last.iter().map(|r| r.tally.failed).sum::<u64>(),
            merged.join(",")
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("gen") => generate(&args[1..]).map(|()| true),
        _ => parse_args(&args).and_then(|cfg| run(&cfg)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
