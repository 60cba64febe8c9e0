//! A fixed-seed Fx-style multiply-xor hasher for the workspace's hash
//! tables: the variable-name table here, the analysis session's region
//! interner in `padfa-core`.
//!
//! Far cheaper than SipHash on the small keys those tables hold (names,
//! `(base, kind)` pairs, constraint vectors), and deterministic within a
//! process. Not DoS-resistant, which is fine: keys are analysis-internal
//! structures, not user-controlled table inputs in an adversarial sense.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Fx-style multiply-xor hasher with a fixed seed (the well-known
/// `0x51_7c_c1_b7_27_22_0a_95` odd constant).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for `HashMap<K, V, FxBuild>`.
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// Hash one value with [`FxHasher`].
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}
