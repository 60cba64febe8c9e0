//! What a run prints and writes: the metric tables, the host stamp,
//! `out/<workload>.json`, and the contract's one-line result.

use crate::child;
use crate::json;
use crate::stats;
use crate::trace::NameTotals;
use crate::workload::{Tally, Window};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit. `BENCHMARK.json` fixes each one's
/// direction and bound; a test keeps the two lists equal.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_ms", "ms"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name, unit. The layer is the name's prefix.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("suite.generate_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("ir.parse_mb_s", "MB/s"),
    ("core.analyze_ms", "ms"),
    ("core.provenance_ms", "ms"),
    ("core.query_total", "count"),
    ("core.sys_empty_total", "count"),
    ("core.interned_systems", "count"),
    ("core.interned_regions", "count"),
    ("core.fm_projections", "count"),
    ("core.memo_hit_rate", "ratio"),
    ("core.queries_per_system", "ratio"),
    ("core.sched_spawned", "count"),
    ("core.sched_inlined", "count"),
    ("core.jobsN_speedup", "ratio"),
    ("omega.sys_empty_ns", "ns"),
    ("omega.project_ns", "ns"),
    ("omega.intersect_ns", "ns"),
    ("omega.subtract_ns", "ns"),
    ("omega.subset_ns", "ns"),
    ("omega.union_ns", "ns"),
    ("omega.replay_ops", "count"),
    ("omega.attributed_ms", "ms"),
    ("omega.dense_rate", "ratio"),
    ("pred.from_bool_ns", "ns"),
    ("pred.and_ns", "ns"),
    ("pred.implies_ns", "ns"),
    ("pred.negate_ns", "ns"),
    ("store.write_overhead_ms", "ms"),
    ("store.open_load_ms", "ms"),
    ("store.bytes", "count"),
    ("store.entries_loaded", "count"),
    ("store.warm_hits", "count"),
    ("store.warm_misses", "count"),
    ("store.edit_hits", "count"),
    ("store.edit_puts", "count"),
    ("store.edit_vs_nostore", "ratio"),
    ("padfa.startup_ms", "ms"),
    ("padfa.cli_overhead_ms", "ms"),
    ("padfa.ledger_bytes", "count"),
    ("service.healthz_ms", "ms"),
    ("service.svc_ms", "ms"),
    ("service.http_overhead_ms", "ms"),
    ("service.resp_bytes", "count"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p95_ms", "ms"),
    ("service.utilization", "ratio"),
    ("service.shed", "count"),
    ("service.gen_late_p95_ms", "ms"),
    ("service.rss_growth_mb", "MB"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_cores", "count"),
];

/// Where and on what the numbers were taken.
pub struct Stamp {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub git_rev: String,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Stamp {
    pub fn take() -> Stamp {
        let git_rev = match command_line("git", &["rev-parse", "--short=12", "HEAD"]) {
            Some(rev) if !rev.is_empty() => match command_line("git", &["status", "--porcelain"]) {
                Some(dirty) if !dirty.is_empty() => format!("{rev}+dirty"),
                _ => rev,
            },
            _ => "unknown".to_string(),
        };
        Stamp {
            nproc: std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
                s.lines().filter(|l| l.starts_with("processor")).count()
            }),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"git_rev\":\"{}\",\"rustc\":\"{}\"}}",
            self.nproc,
            self.available_parallelism,
            json::escape(&self.git_rev),
            json::escape(&self.rustc)
        )
    }
}

/// One finished run of one workload.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tally: Tally,
    pub window: Window,
    pub setup_s: Vec<f64>,
    /// Median of the host-speed probe over the run (`speed.rs`); the
    /// reference is `speed::REFERENCE_MS`.
    pub host_probe_ms: f64,
    /// Rates and counts the harness fixed for this workload.
    pub constants: Vec<(&'static str, f64)>,
    /// The reported metrics, in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Traced run: self time per span name.
    pub self_times: BTreeMap<String, NameTotals>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    pub fn end_to_end(window: &Window, setup_s: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
        let values = window.end_to_end(setup_s);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// The human-readable table.
    pub fn print(&self) {
        let w = &self.window;
        println!(
            "== {} seed={} seconds={} trace={} ==",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        for &(name, value, unit) in &self.metrics {
            let note = match name {
                "wall_ms" => format!(
                    "{} closed-loop passes; median of pass walls {:.3} ms; unscaled {:.3} ms",
                    w.pass_ms.len(),
                    stats::median(&w.pass_ms),
                    w.raw_wall_ms
                ),
                "p50_ms" => format!("{} operations", w.op_ms.len()),
                "p95_ms" => format!(
                    "{} operations, {} beyond p95{}",
                    w.op_ms.len(),
                    stats::samples_beyond(w.op_ms.len(), 0.95),
                    if stats::supported(w.op_ms.len(), 0.95) {
                        ""
                    } else {
                        " (fewer than ten: read with care)"
                    }
                ),
                "capacity_rps" => format!(
                    "{} operations in {:.3} s, closed loop",
                    w.closed_ops, w.closed_s
                ),
                "peak_rss_mb" => format!(
                    "harness peak {:.1} MB",
                    child::own_peak_rss_kb().unwrap_or(0) as f64 / 1024.0
                ),
                "setup_s" => format!(
                    "median of {}: {}",
                    self.setup_s.len(),
                    self.setup_s
                        .iter()
                        .map(|s| format!("{s:.3}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
                _ => String::new(),
            };
            println!("{name:<28} {value:>14.4} {unit:<6} {note}");
        }
        println!(
            "{:<28} {:>14.6}        {} failed of {} attempted",
            "fail_rate",
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
            self.tally.failed,
            self.tally.attempted
        );
        println!(
            "{:<28} {:>14.4} ms     median host-speed probe; times are scaled to {} ms",
            "host_probe_ms",
            self.host_probe_ms,
            crate::speed::REFERENCE_MS
        );
        if let Some(late) = w.gen_late_p95_ms {
            println!(
                "{:<28} {late:>14.4} ms     open-loop generator lateness, p95",
                "gen_late_p95_ms"
            );
        }
        for message in &self.tally.messages {
            println!("FAILED: {message}");
        }
        if !self.self_times.is_empty() {
            println!(
                "{:<28} {:>8} {:>14} {:>14}",
                "span", "count", "total_ms", "self_ms"
            );
            for (name, t) in &self.self_times {
                println!(
                    "{name:<28} {:>8} {:>14.3} {:>14.3}",
                    t.count,
                    t.total_us / 1e3,
                    t.self_us / 1e3
                );
            }
        }
    }

    /// `{"name":{"value":v,"unit":"u"},...}`
    fn metrics_json(&self, prefix: &str) -> String {
        self.metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{prefix}{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json::number(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The contract's result object.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            self.metrics_json("")
        )
    }

    /// `out/<workload>.json`: stamp, constants, metrics, and a row per
    /// program (or command) with the geometric mean beside the sum.
    pub fn to_json(&self, stamp: &Stamp) -> String {
        let w = &self.window;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"host\": {},", stamp.to_json());
        let _ = writeln!(
            out,
            "  \"seed\": {}, \"seconds\": {}, \"trace\": {},",
            self.seed, self.seconds, self.trace
        );
        let constants: Vec<String> = self
            .constants
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json::number(*v)))
            .collect();
        let _ = writeln!(out, "  \"constants\": {{{}}},", constants.join(","));
        let _ = writeln!(
            out,
            "  \"correct\": {}, \"attempted\": {}, \"failed\": {},",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        let failures: Vec<String> = self
            .tally
            .messages
            .iter()
            .map(|m| format!("\"{}\"", json::escape(m)))
            .collect();
        let _ = writeln!(out, "  \"failures\": [{}],", failures.join(","));
        let _ = writeln!(out, "  \"metrics\": {{{}}},", self.metrics_json(""));
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| json::number(*x))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(out, "  \"setup_s\": [{}],", list(&self.setup_s));
        let _ = writeln!(
            out,
            "  \"host_probe_ms\": {}, \"reference_probe_ms\": {}, \"raw_wall_ms\": {},",
            json::number(self.host_probe_ms),
            crate::speed::REFERENCE_MS,
            json::number(w.raw_wall_ms)
        );
        let _ = writeln!(out, "  \"pass_ms\": [{}],", list(&w.pass_ms));
        let _ = writeln!(
            out,
            "  \"operations\": {{\"count\":{},\"beyond_p95\":{}}},",
            w.op_ms.len(),
            stats::samples_beyond(w.op_ms.len(), 0.95)
        );
        let medians: Vec<f64> = w
            .rows
            .iter()
            .map(|r| stats::median(&r.samples_ms))
            .collect();
        if !medians.is_empty() {
            let _ = writeln!(
                out,
                "  \"rows_sum_ms\": {}, \"rows_geomean_ms\": {},",
                json::number(medians.iter().sum()),
                json::number(stats::geomean(&medians))
            );
        }
        out.push_str("  \"rows\": [\n");
        for (i, (row, median)) in w.rows.iter().zip(&medians).enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\":\"{}\",\"samples\":{},\"median_ms\":{},\"min_ms\":{}}}{}",
                json::escape(&row.name),
                row.samples_ms.len(),
                json::number(*median),
                json::number(row.samples_ms.iter().copied().fold(f64::INFINITY, f64::min)),
                if i + 1 < w.rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"open_loop_requests\": [\n");
        for (i, (what, due, sent, done)) in w.requests.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"what\":\"{}\",\"due_ms\":{due:.3},\"sent_ms\":{sent:.3},\"done_ms\":{done:.3}}}{}",
                json::escape(what),
                if i + 1 < w.requests.len() { "," } else { "" }
            );
        }
        let probes: Vec<String> = w
            .host_probes
            .iter()
            .map(|(t, ms)| format!("[{t:.1},{ms:.4}]"))
            .collect();
        let _ = writeln!(
            out,
            "  ],\n  \"open_loop_host_probes\": [{}],",
            probes.join(",")
        );
        out.push_str("  \"self_times\": {");
        let spans: Vec<String> = self
            .self_times
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                    json::escape(name),
                    t.count,
                    json::number(t.total_us / 1e3),
                    json::number(t.self_us / 1e3)
                )
            })
            .collect();
        out.push_str(&spans.join(","));
        out.push_str("}\n}\n");
        out
    }
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(benchmark_json)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(json::Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// `--repeat K`: per (workload, metric) the K values, their spread as a
/// share of their median (interquartile from four values up, full range
/// below that), and whether that is inside the metric's bound.
pub fn print_repeats(sets: &[Vec<Run>], bounds: &BTreeMap<String, f64>) -> bool {
    let mut all_inside = true;
    println!("== {} sets of runs ==", sets.len());
    println!(
        "{:<14} {:<14} {:>9} {:>7} {:>7}  values",
        "workload", "metric", "median", "spread", "bound"
    );
    for (w, first) in sets[0].iter().enumerate() {
        for (m, &(name, _, _)) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|set| set[w].metrics[m].1).collect();
            let median = stats::median(&values);
            let spread = if values.len() >= 4 {
                stats::spread(&values)
            } else {
                (stats::sorted(&values)[values.len() - 1] - stats::sorted(&values)[0]) / median
            };
            let bound = bounds.get(name).copied();
            let inside = bound.is_none_or(|b| spread <= b);
            all_inside &= inside;
            println!(
                "{:<14} {:<14} {:>9.3} {:>6.1}% {:>7} {} {}",
                first.workload,
                name,
                median,
                spread * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                values
                    .iter()
                    .map(|v| format!("{v:.3}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                if inside { "" } else { "OUTSIDE" }
            );
        }
    }
    all_inside
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` and the harness must name the same workloads
    /// and metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(json::Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), ours(&END_TO_END));
        assert_eq!(names("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(json::Value::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        assert_eq!(workloads, ours(&WORKLOADS));
        assert!(workloads.iter().all(|(_, why)| why.len() <= 200));
        let bounds = bounds(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.values().all(|b| *b > 0.0 && *b <= 0.25));
    }
}
