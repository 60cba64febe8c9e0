//! The session's hash tables: a hash-consing [`Interner`] and a
//! [`Memo`] table, each owned by one [`crate::AnalysisSession`] and so
//! by one thread.
//!
//! A session is never shared between threads (see the `session` module
//! docs), so the tables are plain maps behind a `RefCell`, with `Cell`
//! counters — no locks, no atomics. The `RefCell` is only there because
//! the session hands out `&self`; no borrow is ever held across a call
//! back into the session ([`Memo::get_or`] looks up, lets go, computes,
//! then inserts).
//!
//! Hashing is [`padfa_omega::fx`]'s fixed-seed multiply-xor hasher.
//! An interned value is hashed once, on the way in: the interner's
//! table is keyed by that hash, so the same word finds the bucket and
//! survives table growth without the value being walked again.
//!
//! Interner ids are dense and number values in arrival order. They
//! never reach the output: they only key memo entries, and every
//! memoized operation is a pure function of the *values* behind the
//! ids, so a cache hit returns exactly what a fresh computation would.

use padfa_omega::fx::{fx_hash, FxBuild};
use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use crate::session::QueryStats;

/// The interner's table. Values are filed under their own hash,
/// computed once on the way in: the table's keys are those 64-bit
/// words, so growing it moves words instead of re-walking every stored
/// constraint list to hash it again.
struct InternTable<T> {
    /// hash → the first value interned under it, and that value's id.
    by_hash: HashMap<u64, (Arc<T>, u32), FxBuild>,
    /// Values whose hash was already taken by a different value. A full
    /// 64-bit collision between two live analysis values is not
    /// expected; this list is what keeps one from merging them.
    collided: Vec<(u64, Arc<T>, u32)>,
}

impl<T: Eq> InternTable<T> {
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
/// Ids are dense, in arrival order.
pub(crate) struct Interner<T> {
    table: RefCell<InternTable<T>>,
}

impl<T: Eq + Hash> Interner<T> {
    pub(crate) fn new() -> Interner<T> {
        Interner {
            table: RefCell::new(InternTable {
                by_hash: HashMap::default(),
                collided: Vec::new(),
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
        let mut t = self.table.borrow_mut();
        if let Some((k, id)) = t.find(hash, value.borrow()) {
            return (Arc::clone(k), id);
        }
        let id = t.len() as u32;
        let arc = into_arc(value);
        t.insert(hash, Arc::clone(&arc), id);
        (arc, id)
    }

    pub(crate) fn len(&self) -> usize {
        self.table.borrow().len()
    }

    /// Visit every interned value (order unspecified).
    #[cfg(test)]
    pub(crate) fn for_each(&self, mut f: impl FnMut(&T)) {
        let t = self.table.borrow();
        t.by_hash.values().for_each(|(v, _)| f(v));
        t.collided.iter().for_each(|(_, v, _)| f(v));
    }
}

/// A memo table over interned-id keys, with its hit/miss counters.
pub(crate) struct Memo<K, V> {
    map: RefCell<HashMap<K, V, FxBuild>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    pub(crate) fn new() -> Memo<K, V> {
        Memo {
            map: RefCell::new(HashMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Look up `key`, computing with `f` on a miss. The borrow of the
    /// map ends before `f` runs: the miss computations call back into
    /// the session (they intern their result).
    pub(crate) fn get_or(&self, key: K, f: impl FnOnce() -> V) -> V {
        if let Some(v) = self.map.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return v.clone();
        }
        self.misses.set(self.misses.get() + 1);
        let v = f();
        self.map.borrow_mut().insert(key, v.clone());
        v
    }

    pub(crate) fn counters(&self) -> QueryStats {
        QueryStats {
            memoized: true,
            hits: self.hits.get(),
            misses: self.misses.get(),
            ..QueryStats::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn interner_dedups_and_ids_are_unique() {
        let int: Interner<String> = Interner::new();
        for k in 0..100 {
            let (_, id) = int.intern(&format!("value-{k}"));
            assert_eq!(id, k);
        }
        for k in 0..100 {
            let (arc, id) = int.intern(&format!("value-{k}"));
            assert_eq!(id, k, "re-intern changed id");
            assert_eq!(*arc, format!("value-{k}"));
        }
        assert_eq!(int.len(), 100);
    }

    /// A value that counts its clones.
    #[derive(PartialEq, Eq, Hash, Debug)]
    struct Counted(u32);

    thread_local! {
        static CLONES: Cell<u64> = const { Cell::new(0) };
    }

    fn clones() -> u64 {
        CLONES.with(Cell::get)
    }

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            CLONES.with(|c| c.set(c.get() + 1));
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
        assert_eq!(clones(), 0);
        // By reference finds the same handles and ids (hits: no clone),
        // and a value first seen by reference is found again by value.
        for (k, (arc, id)) in owned.iter().enumerate() {
            let (by_ref, ref_id) = int.intern(&Counted(k as u32));
            assert!(Arc::ptr_eq(arc, &by_ref));
            assert_eq!(*id, ref_id);
        }
        assert_eq!(clones(), 0);
        let (by_ref, ref_id) = int.intern(&Counted(1000));
        assert_eq!(clones(), 1, "a by-reference miss");
        let (by_val, val_id) = int.intern_owned(Counted(1000));
        assert!(Arc::ptr_eq(&by_ref, &by_val));
        assert_eq!(ref_id, val_id);
        assert_eq!(clones(), 1);
        assert_eq!(int.len(), 201);
    }

    /// Every value hashes alike, so all but the first land on the
    /// collision list.
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
        for (k, (arc, id)) in first.iter().enumerate() {
            assert_eq!(**arc, Colliding(k as u32));
            assert_eq!(*id, k as u32);
            let (again, same_id) = int.intern(&Colliding(k as u32));
            assert!(Arc::ptr_eq(arc, &again));
            assert_eq!(*id, same_id);
        }
        assert_eq!(int.len(), 20);
    }

    #[test]
    fn memo_counts_hits_and_misses() {
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
    fn memo_miss_may_use_the_table_it_fills() {
        // The borrow is released before the miss closure runs.
        let memo: Memo<u32, u64> = Memo::new();
        let v = memo.get_or(1, || memo.get_or(2, || 20) + 1);
        assert_eq!(v, 21);
        assert_eq!(memo.get_or(2, || unreachable!()), 20);
        assert_eq!(memo.len(), 2);
    }
}
