//! The map and set a [`crate::summary::Summary`] keeps per variable:
//! sorted vectors keyed by [`Var`].
//!
//! A summary holds one to ten arrays and a handful of scalars, and the
//! statement fold builds and drops one per statement. A `BTreeMap<Var,
//! ArraySummary>` leaf is about 1.1 KB, above glibc's 1,032-byte thread
//! cache, so every new map took `malloc`'s slow path; a sorted `Vec` is
//! one allocation the size of what it holds. Both iterate in `Var`
//! order, so everything rendered or encoded from a summary is the same.
//!
//! Only what the summary code asks of a map is here.

use padfa_omega::Var;
use std::fmt;
use std::ops::Index;

/// A map from [`Var`] to `V`, iterated in `Var` order.
#[derive(Clone, PartialEq)]
pub struct VarMap<V>(Vec<(Var, V)>);

impl<V> Default for VarMap<V> {
    fn default() -> VarMap<V> {
        VarMap(Vec::new())
    }
}

/// The slot [`VarMap::entry`] found for a key: its index, or where it
/// would be inserted.
pub struct Entry<'a, V> {
    map: &'a mut VarMap<V>,
    key: Var,
    at: Result<usize, usize>,
}

impl<'a, V: Default> Entry<'a, V> {
    /// The value under the key, inserting `V::default()` if there is none.
    pub fn or_default(self) -> &'a mut V {
        let at = match self.at {
            Ok(at) => at,
            Err(at) => {
                self.map.0.insert(at, (self.key, V::default()));
                at
            }
        };
        &mut self.map.0[at].1
    }
}

/// Iterator over a [`VarMap`]'s entries, in key order.
pub type Iter<'a, V> = std::iter::Map<std::slice::Iter<'a, (Var, V)>, fn(&(Var, V)) -> (&Var, &V)>;

impl<V> VarMap<V> {
    fn find(&self, key: Var) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(&key))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, key: &Var) -> Option<&V> {
        self.find(*key).ok().map(|at| &self.0[at].1)
    }

    pub fn contains_key(&self, key: &Var) -> bool {
        self.find(*key).is_ok()
    }

    /// Put `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: Var, value: V) -> Option<V> {
        match self.find(key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    pub fn entry(&mut self, key: Var) -> Entry<'_, V> {
        let at = self.find(key);
        Entry { map: self, key, at }
    }

    pub fn iter(&self) -> Iter<'_, V> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &Var> {
        self.0.iter().map(|(k, _)| k)
    }
}

impl<'a, V> IntoIterator for &'a VarMap<V> {
    type Item = (&'a Var, &'a V);
    type IntoIter = Iter<'a, V>;

    fn into_iter(self) -> Iter<'a, V> {
        self.iter()
    }
}

impl<'a, V> IntoIterator for &'a mut VarMap<V> {
    type Item = (&'a Var, &'a mut V);
    type IntoIter =
        std::iter::Map<std::slice::IterMut<'a, (Var, V)>, fn(&mut (Var, V)) -> (&Var, &mut V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter_mut().map(|(k, v)| (&*k, v))
    }
}

impl<V> Index<&Var> for VarMap<V> {
    type Output = V;

    /// The value under `key`; panics if there is none, as indexing a
    /// `BTreeMap` does.
    #[allow(clippy::expect_used)]
    fn index(&self, key: &Var) -> &V {
        self.get(key).expect("no entry for the key")
    }
}

impl<V: fmt::Debug> fmt::Debug for VarMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A set of [`Var`]s, iterated in `Var` order.
#[derive(Clone, PartialEq, Default)]
pub struct VarSet(Vec<Var>);

impl VarSet {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn contains(&self, v: &Var) -> bool {
        self.0.binary_search(v).is_ok()
    }

    /// Add `v`; `false` if it was already there.
    pub fn insert(&mut self, v: Var) -> bool {
        match self.0.binary_search(&v) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, v);
                true
            }
        }
    }

    /// Take `v` out; `false` if it was not there.
    pub fn remove(&mut self, v: &Var) -> bool {
        match self.0.binary_search(v) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Var> {
        self.0.iter()
    }

    /// The variables in either set.
    pub fn union(&self, other: &VarSet) -> VarSet {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let v = a[i].min(b[j]);
            i += usize::from(a[i] == v);
            j += usize::from(b[j] == v);
            out.push(v);
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        VarSet(out)
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = &'a Var;
    type IntoIter = std::slice::Iter<'a, Var>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// Keys from a pool of twelve, interned in a shuffled order so that
    /// `Var` order is not name order.
    fn pool(rng: &mut StdRng) -> Vec<Var> {
        let mut names: Vec<usize> = (0..12).collect();
        for i in (1..names.len()).rev() {
            names.swap(i, rng.gen_range(0..=i));
        }
        names
            .into_iter()
            .map(|n| Var::new(&format!("vm{n}")))
            .collect()
    }

    fn same_map(ours: &VarMap<u32>, reference: &BTreeMap<Var, u32>) {
        let got: Vec<(Var, u32)> = ours.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(Var, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        assert_eq!(
            ours.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>()
        );
        assert_eq!(ours.len(), reference.len());
        assert_eq!(ours.is_empty(), reference.is_empty());
        assert_eq!(format!("{ours:?}"), format!("{reference:?}"));
    }

    fn same_set(ours: &VarSet, reference: &BTreeSet<Var>) {
        assert_eq!(
            ours.iter().collect::<Vec<_>>(),
            reference.iter().collect::<Vec<_>>()
        );
        assert_eq!(ours.len(), reference.len());
        assert_eq!(format!("{ours:?}"), format!("{reference:?}"));
    }

    #[test]
    fn map_agrees_with_btreemap_step_by_step() {
        let mut rng = StdRng::seed_from_u64(0x7a2_4a9);
        for case in 0..300 {
            let keys = pool(&mut rng);
            let mut ours = VarMap::default();
            let mut reference = BTreeMap::new();
            for step in 0..40 {
                let k = keys[rng.gen_range(0..keys.len())];
                let v: u32 = rng.gen_range(0..100);
                match rng.gen_range(0..5) {
                    0 => assert_eq!(ours.insert(k, v), reference.insert(k, v)),
                    1 => {
                        *ours.entry(k).or_default() += v;
                        *reference.entry(k).or_default() += v;
                    }
                    2 => assert_eq!(ours.get(&k), reference.get(&k)),
                    3 => assert_eq!(ours.contains_key(&k), reference.contains_key(&k)),
                    _ => {
                        for ((_, a), (_, b)) in (&mut ours).into_iter().zip(reference.iter_mut()) {
                            *a += v;
                            *b += v;
                        }
                    }
                }
                same_map(&ours, &reference);
                if let Some(k) = reference.keys().next() {
                    assert_eq!(ours[k], reference[k], "case {case} step {step}");
                }
            }
        }
    }

    #[test]
    fn set_agrees_with_btreeset_step_by_step() {
        let mut rng = StdRng::seed_from_u64(0x5e7_5e7);
        for _ in 0..300 {
            let keys = pool(&mut rng);
            let (mut ours, mut other) = (VarSet::default(), VarSet::default());
            let (mut reference, mut other_ref) = (BTreeSet::new(), BTreeSet::new());
            for _ in 0..40 {
                let k = keys[rng.gen_range(0..keys.len())];
                match rng.gen_range(0..4) {
                    0 => assert_eq!(ours.insert(k), reference.insert(k)),
                    1 => assert_eq!(ours.remove(&k), reference.remove(&k)),
                    2 => assert_eq!(other.insert(k), other_ref.insert(k)),
                    _ => assert_eq!(ours.contains(&k), reference.contains(&k)),
                }
                same_set(&ours, &reference);
                let union: BTreeSet<Var> = reference.union(&other_ref).copied().collect();
                same_set(&ours.union(&other), &union);
            }
        }
    }
}
