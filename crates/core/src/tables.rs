//! The session's hash-consing [`Interner`], owned by one
//! [`crate::AnalysisSession`] and so by one thread.
//!
//! A session is never shared between threads (see the `session` module
//! docs), so the table is a plain map behind a `RefCell` — no locks, no
//! atomics. The `RefCell` is only there because the session hands out
//! `&self`; no borrow is held past one lookup-or-insert.
//!
//! Hashing is [`padfa_omega::fx`]'s fixed-seed multiply-xor hasher.
//! An interned value is hashed once, on the way in: the interner's
//! table is keyed by that hash, so the same word finds the bucket and
//! survives table growth without the value being walked again.
//!
//! The interner hands out shared `Arc`s and nothing else: no id, no
//! order. Which handle a value gets never reaches the output, only what
//! the handle carries with it (a region's emptiness verdict cell, see
//! the `session` module docs).

use padfa_omega::fx::{fx_hash, FxBuild};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// The interner's table. Values are filed under their own hash,
/// computed once on the way in: the table's keys are those 64-bit
/// words, so growing it moves words instead of re-walking every stored
/// constraint list to hash it again.
struct InternTable<T> {
    /// hash → the first value interned under it.
    by_hash: HashMap<u64, Arc<T>, FxBuild>,
    /// Values whose hash was already taken by a different value. A full
    /// 64-bit collision between two live analysis values is not
    /// expected; this list is what keeps one from merging them.
    collided: Vec<(u64, Arc<T>)>,
}

impl<T: Eq> InternTable<T> {
    fn find(&self, hash: u64, value: &T) -> Option<&Arc<T>> {
        let first = self.by_hash.get(&hash)?;
        if **first == *value {
            return Some(first);
        }
        self.collided
            .iter()
            .find(|(h, v)| *h == hash && **v == *value)
            .map(|(_, v)| v)
    }

    fn insert(&mut self, hash: u64, value: Arc<T>) {
        match self.by_hash.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
            Entry::Occupied(_) => self.collided.push((hash, value)),
        }
    }
}

/// A hash-consing interner: equal values share one `Arc`.
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

    /// The shared handle for `value`: the one interned first among the
    /// values equal to it. A miss moves `value` into its `Arc`, a hit
    /// drops it.
    pub(crate) fn intern(&self, value: T) -> Arc<T> {
        let hash = fx_hash(&value);
        let mut t = self.table.borrow_mut();
        if let Some(k) = t.find(hash, &value) {
            return Arc::clone(k);
        }
        let arc = Arc::new(value);
        t.insert(hash, Arc::clone(&arc));
        arc
    }

    pub(crate) fn len(&self) -> usize {
        let t = self.table.borrow();
        t.by_hash.len() + t.collided.len()
    }

    /// Visit every interned value (order unspecified).
    #[cfg(test)]
    pub(crate) fn for_each(&self, mut f: impl FnMut(&T)) {
        let t = self.table.borrow();
        t.by_hash.values().for_each(|v| f(v));
        t.collided.iter().for_each(|(_, v)| f(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn interner_dedups_and_handles_are_unique() {
        let int: Interner<String> = Interner::new();
        let first: Vec<_> = (0..100).map(|k| int.intern(format!("value-{k}"))).collect();
        for (k, arc) in first.iter().enumerate() {
            let again = int.intern(format!("value-{k}"));
            assert!(Arc::ptr_eq(arc, &again), "re-intern changed handle");
            assert_eq!(*again, format!("value-{k}"));
        }
        for (k, a) in first.iter().enumerate() {
            assert!(first[k + 1..].iter().all(|b| !Arc::ptr_eq(a, b)));
        }
        assert_eq!(int.len(), 100);
    }

    /// Every value hashes alike, so all but the first land on the
    /// collision list.
    #[derive(PartialEq, Eq, Debug)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(7);
        }
    }

    #[test]
    fn interner_keeps_colliding_values_apart() {
        let int: Interner<Colliding> = Interner::new();
        let first: Vec<_> = (0..20).map(|k| int.intern(Colliding(k))).collect();
        for (k, arc) in first.iter().enumerate() {
            assert_eq!(**arc, Colliding(k as u32));
            assert!(Arc::ptr_eq(arc, &int.intern(Colliding(k as u32))));
            assert!(first[k + 1..].iter().all(|b| !Arc::ptr_eq(arc, b)));
        }
        assert_eq!(int.len(), 20);
    }
}
