//! Globally interned variable names.
//!
//! Array data-flow values refer to loop indices, symbolic program
//! variables, and synthetic subscript positions by name. A process-wide
//! interner keeps comparisons cheap (`u32` equality) while letting every
//! crate in the workspace agree on variable identity without threading a
//! context through the whole API.
//!
//! The synthetic names the analysis derives from another variable —
//! dimension positions, primed and previous-iteration copies, step
//! counters ([`Derived`]) — are found by number: `(base, kind)` is looked
//! up in the table, and the name is spelled and interned only the first
//! time it is asked for, at the moment [`Var::new`] of that spelling
//! would have interned it.

use crate::fx::FxBuild;
use crate::sync;
use std::collections::HashMap;
use std::fmt;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned variable name.
///
/// `Var` is `Copy` and ordered by interning index, giving deterministic
/// (but arbitrary) iteration orders within a single process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

/// A synthetic name derived from a base variable ([`Var::derived`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Derived<'a> {
    /// `$<array>.<d>`: dimension `d` (0-based) of an array.
    Dim(u32),
    /// `$<v>'`: the primed copy of a loop index.
    Primed,
    /// `$prev.<v>`: the copy of `v` an earlier iteration sees.
    Prev,
    /// `$step.<proc>.<v>`: the step-lattice counter of a strided loop
    /// over `v` in procedure `proc`.
    Step(&'a str),
}

impl Derived<'_> {
    /// The derived name of `base`.
    fn spell(self, base: &str) -> String {
        match self {
            Derived::Dim(d) => format!("${base}.{d}"),
            Derived::Primed => format!("${base}'"),
            Derived::Prev => format!("$prev.{base}"),
            Derived::Step(proc) => format!("$step.{proc}.{base}"),
        }
    }
}

/// [`Derived`] as the table keys it: a step counter's procedure by the
/// number [`Interner::procs`] gave its name.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Dim(u32),
    Primed,
    Prev,
    Step(u32),
}

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    map: HashMap<String, u32, FxBuild>,
    /// `(base, kind)` → the derived variable.
    derived: HashMap<(u32, Kind), u32, FxBuild>,
    /// Procedure names [`Derived::Step`] has seen, numbered in arrival
    /// order. They name no variable.
    procs: HashMap<Box<str>, u32, FxBuild>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), id);
        id
    }

    /// The table key of `kind`; `None` for a step counter of a
    /// procedure never seen (so not derived yet either).
    fn kind(&self, kind: Derived) -> Option<Kind> {
        Some(match kind {
            Derived::Dim(d) => Kind::Dim(d),
            Derived::Primed => Kind::Primed,
            Derived::Prev => Kind::Prev,
            Derived::Step(proc) => Kind::Step(*self.procs.get(proc)?),
        })
    }
}

static INTERNER: RwLock<Option<Interner>> = RwLock::new(None);

/// Crate-internal filler for fixed-size term buffers (`LinExpr`'s inline
/// representation); never observable through the public API.
pub(crate) const PLACEHOLDER: Var = Var(u32::MAX);

/// The interner must stay usable even after a thread panicked while
/// holding the lock (worker panics are caught and recovered from, see
/// `padfa-rt`); the map is append-only, so a poisoned guard is still
/// structurally sound and can be adopted ([`crate::sync`]).
fn read_interner() -> RwLockReadGuard<'static, Option<Interner>> {
    sync::read(&INTERNER)
}

fn write_interner() -> RwLockWriteGuard<'static, Option<Interner>> {
    sync::write(&INTERNER)
}

impl Var {
    /// Intern `name`, returning the same `Var` for the same string.
    pub fn new(name: &str) -> Var {
        {
            let guard = read_interner();
            if let Some(int) = guard.as_ref() {
                if let Some(&id) = int.map.get(name) {
                    return Var(id);
                }
            }
        }
        let mut guard = write_interner();
        Var(guard.get_or_insert_with(Interner::default).intern(name))
    }

    /// The variable `kind` derives from `self`: the same `Var` as
    /// `Var::new` of its spelling (`Derived::Dim(1)` of `a` is `$a.1`),
    /// looked up by number once it has been asked for.
    pub fn derived(self, kind: Derived) -> Var {
        {
            let guard = read_interner();
            if let Some(int) = guard.as_ref() {
                let known = int.kind(kind).and_then(|k| int.derived.get(&(self.0, k)));
                if let Some(&id) = known {
                    return Var(id);
                }
            }
        }
        let mut guard = write_interner();
        let int = guard.get_or_insert_with(Interner::default);
        if let Derived::Step(proc) = kind {
            let n = int.procs.len() as u32;
            int.procs.entry(proc.into()).or_insert(n);
        }
        let key = int.kind(kind).expect("the procedure was numbered above");
        if let Some(&id) = int.derived.get(&(self.0, key)) {
            return Var(id);
        }
        let name = kind.spell(&int.names[self.0 as usize]);
        let id = int.intern(&name);
        int.derived.insert((self.0, key), id);
        Var(id)
    }

    /// The interned name.
    pub fn name(self) -> String {
        let guard = read_interner();
        guard
            .as_ref()
            .and_then(|int| int.names.get(self.0 as usize).cloned())
            .unwrap_or_else(|| format!("?{}", self.0))
    }

    /// Sort `items` by the name of their `var`: an order that is a
    /// function of the names alone, where `Ord` (interning order) depends
    /// on what the process interned before. One lock for the whole sort,
    /// and no name copied; `var` must not intern.
    pub fn sort_by_name<T>(items: &mut [T], var: impl Fn(&T) -> Var) {
        let guard = read_interner();
        if let Some(int) = guard.as_ref() {
            let name = |t: &T| int.names.get(var(t).0 as usize);
            items.sort_by(|a, b| name(a).cmp(&name(b)));
        }
    }

    /// Raw interning index (stable within a process).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Whether this is a synthetic name — one the analysis made up, not
    /// one from the source: every such name starts with `$` ([`Derived`]
    /// names, `$lat.*` existentials), which no source identifier can.
    /// Reads the name's first byte under the guard: classification filters call
    /// this per variable, and [`Var::name`] would copy the string out.
    pub fn is_synthetic(self) -> bool {
        let guard = read_interner();
        guard
            .as_ref()
            .and_then(|int| int.names.get(self.0 as usize))
            .is_some_and(|name| name.starts_with('$'))
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Var::new("i");
        let b = Var::new("i");
        let c = Var::new("j");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "i");
        assert_eq!(c.name(), "j");
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let a = Var::new("$s0");
        let b = Var::new("$s1");
        assert_ne!(a, b);
        assert!(a.is_synthetic() && b.is_synthetic());
        assert!(!Var::new("x").is_synthetic());
    }

    #[test]
    fn derived_names_are_the_spelled_names() {
        let a = Var::new("dv_a");
        let rows: [(Derived, &str); 5] = [
            (Derived::Dim(0), "$dv_a.0"),
            (Derived::Dim(12), "$dv_a.12"),
            (Derived::Primed, "$dv_a'"),
            (Derived::Prev, "$prev.dv_a"),
            (Derived::Step("dv_p"), "$step.dv_p.dv_a"),
        ];
        for (kind, spelled) in rows {
            // Asked first by number, then by name, then by number again.
            let by_number = a.derived(kind);
            assert_eq!(by_number, Var::new(spelled), "{kind:?}");
            assert_eq!(a.derived(kind), by_number);
            assert_eq!(by_number.name(), spelled);
        }
        // A name interned by spelling first is the one found by number.
        let b = Var::new("dv_b");
        let spelled = Var::new("$step.dv_q.dv_b");
        assert_eq!(b.derived(Derived::Step("dv_q")), spelled);
        assert_ne!(b.derived(Derived::Step("dv_p")), spelled);
    }

    #[test]
    fn from_str_interns() {
        let v: Var = "n".into();
        assert_eq!(v, Var::new("n"));
    }
}
