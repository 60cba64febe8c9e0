//! The store's fault site. Counting is per *category*: the N-th entry-file
//! read (or write) attempt the store makes fires the fault armed at
//! `at = N`. The crash-consistency tests drive single-threaded sessions,
//! whose reads and writes come in program order, so a plan pins down one
//! concrete failure.

use crate::faults::{spec_at, spec_seeded, Fault, FaultSite, Rng};

/// What kind of IO fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// An entry-file write fails with an injected IO error.
    WriteFail,
    /// An entry-file read fails with an injected IO error.
    ReadFail,
    /// An entry-file write persists only a prefix of the frame, under its
    /// temporary name, and then the "process" dies: subsequent writes
    /// stop. The key is left missing — what a crash mid-write leaves.
    TornWrite,
    /// An entry-file read succeeds but one deterministic bit of the returned
    /// bytes is flipped (silent media corruption).
    BitFlip,
}

impl StoreFault {
    const ALL: [StoreFault; 4] = [
        StoreFault::WriteFail,
        StoreFault::ReadFail,
        StoreFault::TornWrite,
        StoreFault::BitFlip,
    ];

    /// The kind's `--inject` name.
    pub fn label(self) -> &'static str {
        match self {
            StoreFault::WriteFail => "store-write-fail",
            StoreFault::ReadFail => "store-read-fail",
            StoreFault::TornWrite => "store-torn-write",
            StoreFault::BitFlip => "store-bitflip",
        }
    }

    /// Whether the kind counts writes (otherwise reads).
    pub fn is_write(self) -> bool {
        matches!(self, StoreFault::WriteFail | StoreFault::TornWrite)
    }
}

impl FaultSite for StoreFault {
    const GRAMMAR: &'static str = "store-write-fail[:N], store-read-fail[:N], \
         store-torn-write[:N], store-bitflip[:N], or store-seeded:SEED:COUNT";
    /// Operation counts `1..=max_op`.
    type Bound = u64;

    fn draw(rng: &mut Rng, max_op: u64) -> Fault<Self> {
        let at = rng.below(max_op) + 1;
        Fault {
            at,
            kind: StoreFault::ALL[rng.below(4) as usize],
        }
    }

    fn claims(name: &str) -> bool {
        name.starts_with("store-")
    }

    fn read(words: &[&str]) -> Option<Vec<Fault<Self>>> {
        match words {
            ["store-seeded", seed, count] => spec_seeded(seed, count),
            [name, rest @ ..] => {
                let kind = *StoreFault::ALL.iter().find(|k| k.label() == *name)?;
                Some(vec![Fault {
                    at: spec_at(rest)?,
                    kind,
                }])
            }
            [] => None,
        }
    }
}

/// Flip one `op`-determined bit of `bytes` in place (the `BitFlip`
/// payload mutation). No-op on an empty slice.
pub fn flip_bit(bytes: &mut [u8], op: u64) {
    if bytes.is_empty() {
        return;
    }
    let r = Rng::new(op).next_u64();
    let idx = (r % bytes.len() as u64) as usize;
    let bit = (r >> 32) % 8;
    bytes[idx] ^= 1 << bit;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    #[test]
    fn bit_flips_are_deterministic_and_single_bit() {
        let orig = [0u8; 16];
        let mut a = orig;
        let mut b = orig;
        flip_bit(&mut a, 5);
        flip_bit(&mut b, 5);
        assert_eq!(a, b);
        let diff: u32 = orig
            .iter()
            .zip(a.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(diff, 1);
        flip_bit(&mut [], 1); // must not panic
    }

    /// The store's two lookups: reads and writes are counted apart.
    fn faults(plan: &FaultPlan<StoreFault>, n: u64) -> (Option<StoreFault>, Option<StoreFault>) {
        let find = |write: bool| plan.armed(n).copied().find(|k| k.is_write() == write);
        (find(false), find(true))
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::at(StoreFault::WriteFail, 3).with(Fault {
            at: 1,
            kind: StoreFault::BitFlip,
        });
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(faults(&plan, 3), (None, Some(StoreFault::WriteFail)));
        assert_eq!(faults(&plan, 1), (Some(StoreFault::BitFlip), None));
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::<StoreFault>::seeded(42, 8, 100);
        assert_eq!(a, FaultPlan::seeded(42, 8, 100));
        assert_eq!(a.faults.len(), 8);
        for f in &a.faults {
            assert!((1..=100).contains(&f.at));
        }
        assert_ne!(a, FaultPlan::seeded(43, 8, 100));
    }

    #[test]
    fn empty_plan_arms_nothing() {
        assert!(FaultPlan::<StoreFault>::none().is_empty());
        assert_eq!(faults(&FaultPlan::none(), 1), (None, None));
    }
}
