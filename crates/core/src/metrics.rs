//! A metrics registry: named counters and log₂-bucketed latency
//! histograms, snapshotted to JSON per run.
//!
//! The analysis never sees a registry. A finished run's
//! [`StatsSnapshot`] — the session's own counters — is folded into one
//! by [`StatsSnapshot::publish`], under one rule: counters **add**
//! (`query.*`, `tier.*`, `interned.regions`, `fm.projections`,
//! `deptest.orders.*`, budget and overflow counts), `peak.*` keeps the
//! **maximum**, and
//! `store.*` — totals of a store every session of the process shares —
//! is **set**. Published into a fresh registry that is one run's
//! numbers (`analyze --metrics-out`); published into a shared one it is
//! the running total over runs (`corpus --metrics-out`, `/metrics`).
//!
//! ## Determinism
//!
//! Counter *names* and JSON field order are deterministic (`BTreeMap`).
//! Every counter *value* a session publishes is too: a session runs on
//! one thread, so two runs of one program with the same options (and
//! the same on-disk store state, for the `store.*` counters) publish
//! identical snapshots. Latency histograms (the service's per-endpoint
//! request latencies) are inherently timing-dependent.
//!
//! The registry itself is shared between threads — `padfa serve`
//! hands one `Arc<MetricsRegistry>` to every worker — which is why its
//! maps are behind a lock and its counters are atomics.

use crate::session::StatsSnapshot;
use crate::store::StoreStatsSnapshot;
use padfa_omega::sync::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An atomic counter: monotone under [`Counter::add`] and
/// [`Counter::max`], last-write-wins under [`Counter::set`].
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the counter to `v` if it is below it.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets.
pub const BUCKETS: usize = 64;

/// A latency histogram over power-of-two nanosecond buckets: bucket `k`
/// holds samples in `[2^(k-1), 2^k)` (bucket 0 holds 0 ns).
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let idx = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts, in bucket order (see [`BUCKETS`]).
    /// The basis for cumulative Prometheus `_bucket{le=...}` series.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Inclusive upper bound (ns) of bucket `idx`: 0 for bucket 0,
    /// `2^idx - 1` otherwise. The last bucket is open-ended — render
    /// it as `+Inf`.
    pub const fn bucket_bound_ns(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else if idx >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in 0..=1); 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if idx == 0 {
                    0
                } else {
                    (1u64 << idx.min(63)) - 1
                };
            }
        }
        self.max_ns()
    }
}

/// A named registry of counters and histograms. Shareable across
/// threads; handles are `Arc`s so hot paths never re-hash names.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::default())
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = lock(&self.counters);
        if let Some(c) = m.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        m.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = lock(&self.histograms);
        if let Some(h) = m.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        m.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// All histograms, by name. Handles are shared, so a caller can
    /// render summaries (count/sum/quantiles) without holding the
    /// registry lock.
    pub fn histograms_snapshot(&self) -> BTreeMap<String, Arc<Histogram>> {
        lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// All counters, by name.
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Serialize every counter and histogram to one JSON object.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let counters = self.counters_snapshot();
        let mut first = true;
        for (k, v) in &counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"histograms\":{");
        let hists = lock(&self.histograms);
        let mut first = true;
        for (k, h) in hists.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{k}\":{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\
                 \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                h.count(),
                h.sum_ns(),
                h.max_ns(),
                h.quantile_ns(0.50),
                h.quantile_ns(0.90),
                h.quantile_ns(0.99),
            ));
        }
        out.push_str("}}");
        out
    }
}

impl StatsSnapshot {
    /// Fold this run's counters into `reg` (see the module docs for the
    /// add / max / set rule). Counter names follow
    /// `query.<kind>.total` and `tier.<kind>.dense|general`, plus
    /// structural and budget counters.
    pub fn publish(&self, reg: &MetricsRegistry) {
        for (kind, q) in self.kinds() {
            reg.counter(&format!("query.{kind}.total")).add(q.total());
            reg.counter(&format!("tier.{kind}.dense")).add(q.dense);
            reg.counter(&format!("tier.{kind}.general")).add(q.general);
        }
        reg.counter("fm.projections").add(self.fm_projections);
        reg.counter("deptest.orders.total").add(self.orders_total);
        reg.counter("deptest.orders.refuted")
            .add(self.orders_refuted);
        reg.counter("deptest.orders.closed").add(self.orders_closed);
        reg.counter("interned.regions")
            .add(self.interned_regions as u64);
        reg.counter("budget.steps").add(self.budget_steps);
        reg.counter("degraded.procs").add(self.degraded_procs);
        reg.counter("lat.overflow").add(self.lat_overflow);
        reg.counter("limit.overflows").add(self.limit_overflows);
        reg.counter("peak.disjuncts")
            .max(self.peak_disjuncts as u64);
        reg.counter("peak.constraints")
            .max(self.peak_constraints as u64);
        if let Some(store) = &self.store {
            store.publish(reg);
        }
    }
}

impl StoreStatsSnapshot {
    /// Set the `store.*` counters of `reg` to these totals.
    pub fn publish(&self, reg: &MetricsRegistry) {
        reg.counter("store.hits").set(self.hits);
        reg.counter("store.misses").set(self.misses);
        reg.counter("store.puts").set(self.puts);
        reg.counter("store.quarantined").set(self.quarantined);
        reg.counter("store.stale").set(self.stale);
        reg.counter("store.retries").set(self.retries);
        reg.counter("store.open_us").set(self.open_us);
        reg.counter("store.put_us").set(self.put_us);
        reg.counter("store.degraded").set(u64::from(self.degraded));
        reg.counter("store.writes_degraded")
            .set(u64::from(self.writes_degraded));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_adds_counters_keeps_peak_maxima_and_sets_store_totals() {
        let reg = MetricsRegistry::new();
        let mut st = StatsSnapshot {
            peak_disjuncts: 9,
            fm_projections: 5,
            store: Some(StoreStatsSnapshot {
                hits: 4,
                ..StoreStatsSnapshot::default()
            }),
            ..StatsSnapshot::default()
        };
        st.union.general = 3;
        st.sys_empty.dense = 2;
        st.sys_empty.general = 1;
        st.publish(&reg);
        st.peak_disjuncts = 7;
        st.publish(&reg);
        let c = reg.counters_snapshot();
        assert_eq!(c["query.union.total"], 6);
        assert_eq!(c["query.sys_empty.total"], 6);
        assert_eq!(c["tier.sys_empty.dense"], 4);
        assert!(c.keys().all(|k| !k.starts_with("memo.")));
        assert_eq!(c["fm.projections"], 10);
        assert_eq!(c["peak.disjuncts"], 9);
        assert_eq!(c["store.hits"], 4);
    }

    #[test]
    fn counters_accumulate_and_set() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.set(2);
        assert_eq!(reg.counter("a.b").get(), 2);
        assert_eq!(reg.counters_snapshot().get("a.b"), Some(&2));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for ns in [1u64, 2, 3, 100, 1000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 1106);
        assert_eq!(h.max_ns(), 1000);
        // p50 falls in the bucket holding 3 (bucket [2,4) -> bound 3).
        assert_eq!(h.quantile_ns(0.5), 3);
        assert!(h.quantile_ns(0.99) >= 1000);
        assert_eq!(Histogram::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn snapshot_json_is_well_formed_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b").set(2);
        reg.counter("a").set(1);
        reg.histogram("lat.x").record_ns(5);
        let j = reg.snapshot_json();
        assert!(j.starts_with("{\"counters\":{\"a\":1,\"b\":2}"));
        assert!(j.contains("\"lat.x\":{\"count\":1"));
        assert!(j.ends_with("}}"));
    }
}
