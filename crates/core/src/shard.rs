//! Lock-striped hash tables for the analysis session.
//!
//! The session's interners and memo tables are shared by every worker
//! thread; with a single `Mutex<HashMap>` per table, the hot
//! `sys_empty` path (90%+ of all lattice queries) serializes on one
//! lock and `--jobs 2` can be *slower* than `--jobs 1`. Each table is
//! therefore split into [`SHARDS`] independently locked shards selected
//! by key hash, with per-shard hit/miss atomics that are summed at
//! snapshot time.
//!
//! Hashing uses a fixed-seed Fx-style multiply-xor hasher: far cheaper
//! than SipHash on the small structural keys interned here (ids,
//! id-pairs, constraint vectors), and deterministic within a process —
//! which the shard *selection* doesn't need, but costs nothing. An
//! interned value is hashed once, on the way in: the interner's tables
//! are keyed by that hash, so the same word picks the shard, finds the
//! bucket, and survives table growth without the value being walked
//! again.
//!
//! ## Determinism
//!
//! Interner ids number values per shard (`id = local_len * SHARDS +
//! shard`), so ids depend on arrival order exactly as they did with one
//! global table. Ids never reach the output: they only key memo
//! entries, and every memoized operation is a pure function of the
//! *values* behind the ids, so a cache hit returns exactly what a fresh
//! computation would regardless of numbering.

use padfa_omega::sync::lock;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::session::QueryStats;

/// Shard count; a power of two so selection is a mask. 16 shards keeps
/// contention negligible at any plausible `--jobs` while the per-table
/// footprint (16 mutexes + maps) stays small.
pub(crate) const SHARDS: usize = 16;

/// Fx-style multiply-xor hasher with a fixed seed (the well-known
/// `0x51_7c_c1_b7_27_22_0a_95` odd constant). Not DoS-resistant, which
/// is fine: keys are analysis-internal structures, not user-controlled
/// table inputs in an adversarial sense, and the tables are rebuilt per
/// session.
#[derive(Default)]
pub(crate) struct FxHasher {
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

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

#[inline]
fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Shard index for a hash: take the *high* bits, which the final
/// multiply mixes best, so shard choice and in-map bucket choice (low
/// bits) stay decorrelated.
#[inline]
fn shard_of(hash: u64) -> usize {
    (hash >> (64 - 4)) as usize & (SHARDS - 1)
}

/// One interner shard. Values are filed under their own hash, computed
/// once on the way in: the table's keys are those 64-bit words, so
/// growing it moves words instead of re-walking every stored constraint
/// list to hash it again.
struct InternShard<T> {
    /// hash → the first value interned under it, and that value's id.
    by_hash: HashMap<u64, (Arc<T>, u32), FxBuild>,
    /// Values whose hash was already taken by a different value. A full
    /// 64-bit collision between two live analysis values is not
    /// expected; this list is what keeps one from merging them.
    collided: Vec<(u64, Arc<T>, u32)>,
}

impl<T: Eq> InternShard<T> {
    fn len(&self) -> usize {
        self.by_hash.len() + self.collided.len()
    }

    fn find(&self, hash: u64, value: &T) -> Option<(&Arc<T>, u32)> {
        let (first, id) = self.by_hash.get(&hash)?;
        if **first == *value {
            return Some((first, *id));
        }
        self.collided
            .iter()
            .find(|(h, v, _)| *h == hash && **v == *value)
            .map(|(_, v, id)| (v, *id))
    }

    fn insert(&mut self, hash: u64, value: Arc<T>, id: u32) {
        match self.by_hash.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert((value, id));
            }
            Entry::Occupied(_) => self.collided.push((hash, value, id)),
        }
    }
}

/// A hash-consing interner: equal values share one `Arc` and one id.
/// Lock-striped; ids are unique across shards but *not* dense.
pub(crate) struct Interner<T> {
    shards: [Mutex<InternShard<T>>; SHARDS],
}

impl<T: Eq + Hash> Interner<T> {
    pub(crate) fn new() -> Interner<T> {
        Interner {
            shards: std::array::from_fn(|_| {
                Mutex::new(InternShard {
                    by_hash: HashMap::default(),
                    collided: Vec::new(),
                })
            }),
        }
    }

    /// Intern by reference; clones into a fresh `Arc` only on a miss.
    pub(crate) fn intern(&self, value: &T) -> (Arc<T>, u32)
    where
        T: Clone,
    {
        self.intern_with(value, |v| Arc::new(v.clone()))
    }

    /// Intern a value the caller is done with: a miss moves it into its
    /// `Arc`, a hit drops it. Same handle and id as [`Interner::intern`]
    /// gives an equal value.
    pub(crate) fn intern_owned(&self, value: T) -> (Arc<T>, u32) {
        self.intern_with(value, Arc::new)
    }

    fn intern_with<Q: Borrow<T>>(
        &self,
        value: Q,
        into_arc: impl FnOnce(Q) -> Arc<T>,
    ) -> (Arc<T>, u32) {
        let hash = fx_hash(value.borrow());
        let shard = shard_of(hash);
        let mut m = lock(&self.shards[shard]);
        if let Some((k, id)) = m.find(hash, value.borrow()) {
            return (Arc::clone(k), id);
        }
        let id = (m.len() * SHARDS + shard) as u32;
        let arc = into_arc(value);
        m.insert(hash, Arc::clone(&arc), id);
        (arc, id)
    }

    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Visit every interned value (order unspecified).
    #[cfg(test)]
    pub(crate) fn for_each(&self, mut f: impl FnMut(&T)) {
        for s in &self.shards {
            let s = lock(s);
            s.by_hash.values().for_each(|(v, _)| f(v));
            s.collided.iter().for_each(|(_, v, _)| f(v));
        }
    }
}

/// One shard of a memo table, with its own hit/miss counters so stat
/// updates don't share a cache line across shards.
struct MemoShard<K, V> {
    map: Mutex<HashMap<K, V, FxBuild>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A lock-striped memo table over interned-id keys.
pub(crate) struct Memo<K, V> {
    shards: [MemoShard<K, V>; SHARDS],
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    pub(crate) fn new() -> Memo<K, V> {
        Memo {
            shards: std::array::from_fn(|_| MemoShard {
                map: Mutex::new(HashMap::default()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Look up `key`, computing with `f` on a miss. The computation runs
    /// *outside* the lock: two workers may race to compute the same
    /// entry, which is benign (the operations are pure and
    /// deterministic, so both produce the same value).
    pub(crate) fn get_or(&self, key: K, f: impl FnOnce() -> V) -> V {
        let s = &self.shards[shard_of(fx_hash(&key))];
        if let Some(v) = lock(&s.map).get(&key) {
            s.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        s.misses.fetch_add(1, Ordering::Relaxed);
        let v = f();
        lock(&s.map).entry(key).or_insert_with(|| v.clone());
        v
    }

    /// Hit/miss counters summed over all shards.
    pub(crate) fn counters(&self) -> QueryStats {
        let mut q = QueryStats::default();
        for s in &self.shards {
            q.hits += s.hits.load(Ordering::Relaxed);
            q.misses += s.misses.load(Ordering::Relaxed);
        }
        q
    }

    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.map).len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups_and_ids_are_unique() {
        let int: Interner<String> = Interner::new();
        let mut ids = std::collections::HashSet::new();
        for k in 0..100 {
            let (_, id) = int.intern(&format!("value-{k}"));
            assert!(ids.insert(id), "duplicate id {id}");
        }
        for k in 0..100 {
            let (arc, id) = int.intern(&format!("value-{k}"));
            assert!(ids.contains(&id), "re-intern changed id");
            assert_eq!(*arc, format!("value-{k}"));
        }
        assert_eq!(int.len(), 100);
    }

    /// A value that counts its clones.
    #[derive(PartialEq, Eq, Hash, Debug)]
    struct Counted(u32);

    static CLONES: AtomicU64 = AtomicU64::new(0);

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Counted(self.0)
        }
    }

    #[test]
    fn owned_intern_agrees_with_by_reference_and_never_clones() {
        let int: Interner<Counted> = Interner::new();
        // Misses by value move; hits by value drop.
        let owned: Vec<_> = (0..200).map(|k| int.intern_owned(Counted(k))).collect();
        for (k, (arc, id)) in owned.iter().enumerate() {
            let (again, same_id) = int.intern_owned(Counted(k as u32));
            assert!(Arc::ptr_eq(arc, &again));
            assert_eq!(*id, same_id);
        }
        assert_eq!(CLONES.load(Ordering::Relaxed), 0);
        // By reference finds the same handles and ids (hits: no clone),
        // and a value first seen by reference is found again by value.
        for (k, (arc, id)) in owned.iter().enumerate() {
            let (by_ref, ref_id) = int.intern(&Counted(k as u32));
            assert!(Arc::ptr_eq(arc, &by_ref));
            assert_eq!(*id, ref_id);
        }
        assert_eq!(CLONES.load(Ordering::Relaxed), 0);
        let (by_ref, ref_id) = int.intern(&Counted(1000));
        assert_eq!(CLONES.load(Ordering::Relaxed), 1, "a by-reference miss");
        let (by_val, val_id) = int.intern_owned(Counted(1000));
        assert!(Arc::ptr_eq(&by_ref, &by_val));
        assert_eq!(ref_id, val_id);
        assert_eq!(CLONES.load(Ordering::Relaxed), 1);
        assert_eq!(int.len(), 201);
    }

    /// Every value hashes alike, so all but the first land on the
    /// collision list of one shard.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(7);
        }
    }

    #[test]
    fn interner_keeps_colliding_values_apart() {
        let int: Interner<Colliding> = Interner::new();
        let first: Vec<_> = (0..20).map(|k| int.intern_owned(Colliding(k))).collect();
        let mut ids = std::collections::HashSet::new();
        for (k, (arc, id)) in first.iter().enumerate() {
            assert_eq!(**arc, Colliding(k as u32));
            assert!(ids.insert(*id), "duplicate id {id}");
            let (again, same_id) = int.intern(&Colliding(k as u32));
            assert!(Arc::ptr_eq(arc, &again));
            assert_eq!(*id, same_id);
        }
        assert_eq!(int.len(), 20);
    }

    #[test]
    fn memo_counts_hits_and_misses_across_shards() {
        let memo: Memo<u32, u64> = Memo::new();
        for k in 0..64u32 {
            assert_eq!(memo.get_or(k, || u64::from(k) * 3), u64::from(k) * 3);
        }
        for k in 0..64u32 {
            assert_eq!(memo.get_or(k, || unreachable!()), u64::from(k) * 3);
        }
        let q = memo.counters();
        assert_eq!((q.hits, q.misses), (64, 64));
        assert_eq!(memo.len(), 64);
    }

    #[test]
    fn fx_hash_spreads_small_ids_across_shards() {
        let mut used = std::collections::HashSet::new();
        for id in 0u32..256 {
            used.insert(shard_of(fx_hash(&id)));
        }
        assert!(used.len() >= SHARDS / 2, "ids landed in {used:?}");
    }
}
