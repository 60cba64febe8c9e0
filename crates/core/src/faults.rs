//! Deterministic fault injection: one plan type for the three sites that
//! take faults — the parallel executor (`padfa_rt::faults`), the
//! persistent store ([`crate::store::faults`]) and the service daemon
//! (`padfa_service::faults`).
//!
//! A [`FaultPlan`] lists [`Fault`]s, each firing on the `at`-th event
//! (1-based) its site counts: statements a worker executed, store reads
//! or writes, requests the daemon admitted. Every site counts its
//! events deterministically on the paths that matter, so one plan always
//! produces one failure — which is what lets the differential tests
//! assert that every failure is survived with unchanged results.
//!
//! A site is its kind type, implementing [`FaultSite`]: what a fault does
//! there, how a seeded plan draws one, and the `--inject` spec names that
//! arm it. [`FaultPlan::arm`] reads a spec for any site.

use std::fmt;

/// One fault: `kind` fires on the `at`-th event its site counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault<K> {
    pub at: u64,
    pub kind: K,
}

/// A deterministic set of faults to inject at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan<K> {
    pub faults: Vec<Fault<K>>,
}

impl<K> Default for FaultPlan<K> {
    fn default() -> Self {
        FaultPlan { faults: Vec::new() }
    }
}

impl<K> FaultPlan<K> {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add a fault to the plan (builder-style).
    pub fn with(mut self, fault: Fault<K>) -> Self {
        self.faults.push(fault);
        self
    }

    /// `kind` fires on the `at`-th event.
    pub fn at(kind: K, at: u64) -> Self {
        Self::none().with(Fault { at, kind })
    }

    /// The kinds armed for the `n`-th event, in plan order.
    pub fn armed(&self, n: u64) -> impl Iterator<Item = &K> {
        self.faults
            .iter()
            .filter(move |f| f.at == n)
            .map(|f| &f.kind)
    }
}

impl<K: FaultSite> FaultPlan<K> {
    /// A pseudo-random plan of `count` faults within `bound`. The same
    /// seed always yields the same plan.
    pub fn seeded(seed: u64, count: usize, bound: K::Bound) -> Self {
        let mut rng = Rng::new(seed);
        FaultPlan {
            faults: (0..count).map(|_| K::draw(&mut rng, bound)).collect(),
        }
    }

    /// Arm the faults one `--inject` spec names: `Ok(false)` when the
    /// spec is not this site's.
    pub fn arm(&mut self, spec: &str) -> Result<bool, SpecError> {
        let words: Vec<&str> = spec.split(':').collect();
        if !K::claims(words[0]) {
            return Ok(false);
        }
        let faults = K::read(&words).ok_or_else(|| SpecError {
            spec: spec.to_string(),
            grammar: K::GRAMMAR,
        })?;
        self.faults.extend(faults);
        Ok(true)
    }
}

/// A place faults fire, named by the type of what fires there.
pub trait FaultSite: Sized {
    /// The `--inject` forms the site reads, as a usage error names them.
    const GRAMMAR: &'static str;
    /// What bounds a seeded draw besides the seed.
    type Bound: Copy;
    /// Draw one fault of a seeded plan.
    fn draw(rng: &mut Rng, bound: Self::Bound) -> Fault<Self>;
    /// Whether a spec whose first `:`-separated word is `name` is
    /// addressed to this site.
    fn claims(name: &str) -> bool;
    /// The faults a claimed spec (split at `:`) arms, or `None` when it
    /// breaks [`Self::GRAMMAR`].
    fn read(words: &[&str]) -> Option<Vec<Fault<Self>>>;
}

/// The event of a `NAME[:AT]` spec, given the words after `NAME`: `AT`,
/// or the first event when absent.
pub fn spec_at(rest: &[&str]) -> Option<u64> {
    match rest {
        [] => Some(1),
        [at] => at.parse().ok(),
        _ => None,
    }
}

/// The faults of a `NAME-seeded:SEED:COUNT` spec: `COUNT` faults drawn
/// from the site's first 32 events — early enough to hit any realistic
/// run.
pub fn spec_seeded<K: FaultSite<Bound = u64>>(seed: &str, count: &str) -> Option<Vec<Fault<K>>> {
    Some(FaultPlan::<K>::seeded(seed.parse().ok()?, count.parse().ok()?, 32).faults)
}

/// A spec its site claims but cannot read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    pub spec: String,
    pub grammar: &'static str,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad --inject spec '{}' (want {})",
            self.spec, self.grammar
        )
    }
}

/// The xorshift64* generator behind every seeded plan and the store's
/// bit flips: cheap, deterministic, no dependencies.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A draw in `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::faults::flip_bit;
    use crate::StoreFault::{self, *};

    fn plan(spec: &str) -> Vec<(u64, StoreFault)> {
        let mut plan = FaultPlan::none();
        assert_eq!(plan.arm(spec), Ok(true), "{spec}");
        plan.faults.iter().map(|f| (f.at, f.kind)).collect()
    }

    #[test]
    fn empty_plan_arms_nothing() {
        assert!(FaultPlan::<StoreFault>::none().is_empty());
        assert_eq!(FaultPlan::<StoreFault>::none().armed(1).next(), None);
    }

    #[test]
    fn armed_lists_every_kind_at_an_event_in_plan_order() {
        let plan = FaultPlan::at(ReadFail, 2)
            .with(Fault {
                at: 1,
                kind: BitFlip,
            })
            .with(Fault {
                at: 2,
                kind: TornWrite,
            });
        assert_eq!(plan.armed(2).collect::<Vec<_>>(), [&ReadFail, &TornWrite]);
        assert_eq!(plan.armed(3).next(), None);
    }

    /// Pinned: a seed or spec names the same faults in every build, so a
    /// recorded `--inject` reproduces. This pins the generator, the
    /// store's seeded plans, bit flips and spec readings; the executor
    /// and service sites pin theirs beside their kinds.
    #[test]
    fn store_plans_are_unchanged() {
        let seeded = |seed| plan(&format!("store-seeded:{seed}:4"));
        let (w, r, t, b) = (WriteFail, ReadFail, TornWrite, BitFlip);
        assert_eq!(seeded(0), [(26, t), (31, w), (29, r), (20, t)]);
        assert_eq!(seeded(7), [(3, t), (6, b), (23, w), (7, t)]);
        assert_eq!(seeded(42), [(12, r), (29, w), (23, t), (13, w)]);
        let mut bytes = [0u8; 16];
        for op in [1, 5, 9] {
            flip_bit(&mut bytes, op);
        }
        assert_eq!(bytes, [0, 0, 0, 0, 32, 0, 0, 0, 32, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(plan("store-write-fail"), [(1, w)]);
        assert_eq!(plan("store-read-fail:2"), [(2, r)]);
        assert_eq!(plan("store-torn-write:3"), [(3, t)]);
        assert_eq!(plan("store-bitflip"), [(1, b)]);
        for bad in [
            "store-bitflip:x",
            "store-bitflip:1:2",
            "store-seeded:1",
            "store-seeded:notanumber:3",
            "store-explode",
        ] {
            let err = FaultPlan::<StoreFault>::none().arm(bad).unwrap_err();
            assert_eq!(err.grammar, StoreFault::GRAMMAR, "{bad}");
            assert!(err.to_string().starts_with("bad --inject spec"), "{err}");
        }
        for other in ["0:1:panic", "worker-panic"] {
            assert_eq!(FaultPlan::<StoreFault>::none().arm(other), Ok(false));
        }
    }
}
