//! Seeded randomness for the harness: SplitMix64. Everything the
//! benchmark draws (program variants, edits, request order, arrival
//! gaps) comes from `--seed` through this, so the same seed gives the
//! same inputs.

/// SplitMix64's output finaliser. `mix(0) == 0`, which is what makes
/// seed 0 reproduce the built-in corpus byte for byte.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`; distinct purposes never share draws.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = mix(h ^ u64::from(b)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fixes_zero() {
        assert_eq!(mix(0), 0);
        assert_ne!(mix(1), 1);
    }

    #[test]
    fn streams_repeat_and_differ_by_purpose() {
        let draw = |seed, purpose| {
            let mut r = Rng::new(seed, purpose);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "gaps"), draw(7, "gaps"));
        assert_ne!(draw(7, "gaps"), draw(8, "gaps"));
        assert_ne!(draw(7, "gaps"), draw(7, "order"));
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut r = Rng::new(3, "exp");
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }
}
