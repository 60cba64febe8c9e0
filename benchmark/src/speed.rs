//! Host-speed normalisation.
//!
//! The sandbox this benchmark runs in is a small VM whose *memory
//! system* speed moves by up to 2x, for seconds or for minutes
//! (README, "Steadiness"): allocation and page faults slow down, plain
//! arithmetic does not. `padfa` — a fresh process that faults in and
//! allocates 13-26 MB, or a daemon building a fresh session per
//! request — slows with it, and no amount of repeating inside a 12 s
//! window averages that out.
//!
//! So the harness runs a fixed allocation-and-hashing probe right
//! before and right after what it times, on the timing thread, and
//! scales the duration by `REFERENCE_MS / (mean of the two probes)`:
//! times read as "ms on a host where the probe takes `REFERENCE_MS`".
//! The slowdown is local in time, so only adjacent probes work (a
//! trailing window of 20 probes is twice as bad as the last one, their
//! minimum five times). An open-loop phase is cut into slices with
//! the probes between them (`serve::Client::open`). Measured on the sandbox over 31 twelve-second
//! windows, the window medians of `padfa analyze wave5` spread 39 % raw
//! and 3.9 % scaled (range 1.90x vs 1.09x), a `/analyze` round trip
//! 1.52x vs 1.22x. Unscaled times are printed beside the scaled ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Probe time on the sandbox in a calm minute (taken, as the harness
/// takes it, on a thread that has just been woken), so that scaled and
/// raw times agree there.
pub const REFERENCE_MS: f64 = 1.3;

/// Fixed work with `padfa`'s profile: many small allocations through a
/// hash map, growth by reallocation, a sort per bucket, short strings.
fn work() -> usize {
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 1u64;
    for i in 0..30_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        buckets.entry(x % 4096).or_default().push(i);
    }
    let mut total = 0;
    for bucket in buckets.values_mut() {
        bucket.sort_unstable_by(|a, b| b.cmp(a));
        total += bucket.len();
    }
    let names: Vec<String> = (0..3000).map(|i| format!("v{i}")).collect();
    total + names.len()
}

/// Every probe taken in a run, for the report.
#[derive(Default)]
pub struct Speed {
    probes_ms: Mutex<Vec<f64>>,
}

/// `raw_ms` scaled to the reference speed given the probes around it.
pub fn scale(raw_ms: f64, probes_ms: &[f64]) -> f64 {
    raw_ms * REFERENCE_MS * probes_ms.len() as f64 / probes_ms.iter().sum::<f64>()
}

impl Speed {
    /// One probe, in ms. The thread has usually just woken (a child
    /// exited, a reply arrived), so the work runs once untimed first.
    pub fn probe(&self) -> f64 {
        black_box(work());
        let t0 = Instant::now();
        black_box(work());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.probes_ms.lock().expect("probe list poisoned").push(ms);
        ms
    }

    /// Mean of `n` probes.
    fn probes(&self, n: usize) -> f64 {
        (0..n).map(|_| self.probe()).sum::<f64>() / n as f64
    }

    /// Start timing a run of back-to-back operations on this thread.
    pub fn series(&self) -> Series<'_> {
        Series {
            speed: self,
            last_ms: self.probes(3),
        }
    }

    /// Time one operation: `(result, raw ms, scaled ms)`.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        self.series().time(f)
    }

    /// Median probe so far: how fast the host was during the run.
    pub fn median_probe_ms(&self) -> f64 {
        crate::stats::median(&self.probes_ms.lock().expect("probe list poisoned"))
    }
}

/// Back-to-back operations share the probes between them: some before
/// the first, some after each. A single probe jitters by ~10 %, which
/// is nothing against a 30 ms child but would be the largest error in a
/// 900 ms `padfa corpus`, so an operation is followed by one probe plus
/// one per 100 ms it took, five at most.
pub struct Series<'s> {
    speed: &'s Speed,
    last_ms: f64,
}

impl Series<'_> {
    /// Time the next operation: `(result, raw ms, scaled ms)`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t0 = Instant::now();
        let out = f();
        let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = self.speed.probes(1 + ((raw_ms / 100.0) as usize).min(4));
        let before = std::mem::replace(&mut self.last_ms, after);
        (out, raw_ms, scale(raw_ms, &[before, self.last_ms]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_mean_probe() {
        assert_eq!(scale(100.0, &[REFERENCE_MS]), 100.0);
        assert_eq!(
            scale(100.0, &[REFERENCE_MS * 2.0, REFERENCE_MS * 2.0]),
            50.0
        );
        assert_eq!(scale(100.0, &[REFERENCE_MS, REFERENCE_MS * 3.0]), 50.0);
    }

    #[test]
    fn a_series_probes_after_each_operation_and_more_after_a_long_one() {
        let speed = Speed::default();
        let count = |speed: &Speed| speed.probes_ms.lock().unwrap().len();
        let mut series = speed.series();
        assert_eq!(count(&speed), 3);
        let (value, raw, scaled) = series.time(|| 7);
        assert_eq!(value, 7);
        assert!(raw >= 0.0 && scaled >= 0.0);
        assert_eq!(count(&speed), 4);
        series.time(|| std::thread::sleep(std::time::Duration::from_millis(250)));
        assert_eq!(count(&speed), 7);
        assert!(speed.median_probe_ms() > 0.0);
    }
}
