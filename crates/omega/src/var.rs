//! Globally interned variable names.
//!
//! Array data-flow values refer to loop indices, symbolic program
//! variables, and synthetic subscript positions by name. A process-wide
//! interner keeps comparisons cheap (`u32` equality) while letting every
//! crate in the workspace agree on variable identity without threading a
//! context through the whole API.

use crate::sync;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned variable name.
///
/// `Var` is `Copy` and ordered by interning index, giving deterministic
/// (but arbitrary) iteration orders within a single process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

struct Interner {
    names: Vec<String>,
    map: HashMap<String, u32>,
}

static INTERNER: RwLock<Option<Interner>> = RwLock::new(None);
static FRESH: AtomicU32 = AtomicU32::new(0);

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
        let int = guard.get_or_insert_with(|| Interner {
            names: Vec::new(),
            map: HashMap::new(),
        });
        if let Some(&id) = int.map.get(name) {
            return Var(id);
        }
        let id = int.names.len() as u32;
        int.names.push(name.to_string());
        int.map.insert(name.to_string(), id);
        Var(id)
    }

    /// A fresh variable that cannot collide with any source-level name.
    ///
    /// Used for existentials introduced during projection and for the
    /// per-dimension subscript positions of array sections.
    pub fn fresh(prefix: &str) -> Var {
        let n = FRESH.fetch_add(1, Ordering::Relaxed);
        Var::new(&format!("${prefix}{n}"))
    }

    /// The interned name.
    pub fn name(self) -> String {
        let guard = read_interner();
        guard
            .as_ref()
            .and_then(|int| int.names.get(self.0 as usize).cloned())
            .unwrap_or_else(|| format!("?{}", self.0))
    }

    /// Raw interning index (stable within a process).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Whether this variable was created by [`Var::fresh`]. Reads the
    /// name's first byte under the guard: classification filters call
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
        let a = Var::fresh("s");
        let b = Var::fresh("s");
        assert_ne!(a, b);
        assert!(a.is_synthetic());
        assert!(!Var::new("x").is_synthetic());
    }

    #[test]
    fn from_str_interns() {
        let v: Var = "n".into();
        assert_eq!(v, Var::new("n"));
    }
}
