//! Variable names, numbered per program.
//!
//! Array data-flow values refer to loop indices, symbolic program
//! variables, and synthetic subscript positions by name. A [`Var`] is a
//! name's number in a [`VarTable`], so comparing two is comparing two
//! `u32`s, and `Var: Ord` is numbering order.
//!
//! The table belongs to the calling thread and is read without a lock.
//! Parsing a program starts the thread on an empty table
//! ([`VarTable::start`]), so source names are numbered in source order,
//! and the program keeps the numbering it ends with
//! ([`VarTable::current`]). An analysis session adopts its program's
//! numbering ([`VarTable::adopt`]) before it numbers any synthetic name,
//! so a program's `Var`s — and every order they give constraints, maps
//! and disjuncts — are a function of the program alone, not of what the
//! thread or the process numbered before.
//!
//! A `Var` means something only against the numbering that made it. One
//! from another table names whatever the current table gives its number,
//! and one past the current table's end is spelled `?N`; neither panics.
//!
//! The synthetic names the analysis derives from another variable —
//! dimension positions, primed and previous-iteration copies, step
//! counters ([`Derived`]) — are found by number: `(base, kind)` is looked
//! up in the table, and the name is spelled and numbered only the first
//! time it is asked for, at the moment [`Var::new`] of that spelling
//! would have numbered it.

use crate::fx::FxBuild;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::sync::Arc;

/// A numbered variable name.
///
/// `Var` is `Copy` and ordered by its number in the program's
/// [`VarTable`]: source names in source order, then the synthetic names
/// in the order the analysis first asked for them.
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
    /// Write the derived name of `base` into `out`.
    fn spell(self, base: &dyn fmt::Display, out: &mut String) {
        out.clear();
        let _ = match self {
            Derived::Dim(d) => write!(out, "${base}.{d}"),
            Derived::Primed => write!(out, "${base}'"),
            Derived::Prev => write!(out, "$prev.{base}"),
            Derived::Step(proc) => write!(out, "$step.{proc}.{base}"),
        };
    }
}

/// [`Derived`] as the table keys it: a step counter's procedure by the
/// number [`VarTable::procs`] gave its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Dim(u32),
    Primed,
    Prev,
    Step(u32),
}

/// A numbering of variable names: `Var(k)` is `names[k]`.
///
/// A program keeps the table its construction ended with
/// ([`VarTable::current`]) behind an `Arc`; a thread that adopts it
/// shares it until it numbers a new name, and then copies it once. The
/// names are `Arc<str>`, so that copy allocates nothing per name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VarTable {
    names: Vec<Arc<str>>,
    map: HashMap<Arc<str>, u32, FxBuild>,
    /// `(base, kind)` → the derived variable.
    derived: HashMap<(u32, Kind), u32, FxBuild>,
    /// Procedure names [`Derived::Step`] has seen, numbered in arrival
    /// order. They name no variable.
    procs: HashMap<Arc<str>, u32, FxBuild>,
}

thread_local! {
    /// The calling thread's numbering.
    static TABLE: RefCell<Arc<VarTable>> = RefCell::new(Arc::default());
    /// Where [`Var::derived`] spells a new name: only the table's own
    /// copy of it allocates.
    static SPELLING: RefCell<String> = const { RefCell::new(String::new()) };
}

impl VarTable {
    /// Start the calling thread on an empty numbering.
    pub fn start() {
        TABLE.with(|t| *t.borrow_mut() = Arc::default());
    }

    /// The calling thread's numbering as it stands. It shares storage
    /// with the thread's table until either numbers another name.
    pub fn current() -> Arc<VarTable> {
        TABLE.with(|t| Arc::clone(&t.borrow()))
    }

    /// Make `table` the calling thread's numbering. Nothing restores the
    /// one it replaces.
    pub fn adopt(table: &Arc<VarTable>) {
        TABLE.with(|t| *t.borrow_mut() = Arc::clone(table));
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.map.insert(name, id);
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

/// Crate-internal filler for fixed-size term buffers (`LinExpr`'s inline
/// representation); never observable through the public API.
pub(crate) const PLACEHOLDER: Var = Var(u32::MAX);

impl Var {
    /// Number `name` in the calling thread's table, returning the same
    /// `Var` for the same string.
    pub fn new(name: &str) -> Var {
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            match t.map.get(name) {
                Some(&id) => Var(id),
                None => Var(Arc::make_mut(&mut t).intern(name)),
            }
        })
    }

    /// The variable `kind` derives from `self`: the same `Var` as
    /// `Var::new` of its spelling (`Derived::Dim(1)` of `a` is `$a.1`),
    /// looked up by number once it has been asked for. The base of a
    /// `Var` the table does not hold is spelled `?N`.
    pub fn derived(self, kind: Derived) -> Var {
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            let known = t.kind(kind).and_then(|k| t.derived.get(&(self.0, k)));
            if let Some(&id) = known {
                return Var(id);
            }
            let t = Arc::make_mut(&mut t);
            if let Derived::Step(proc) = kind {
                let n = t.procs.len() as u32;
                t.procs.entry(proc.into()).or_insert(n);
            }
            let key = t.kind(kind).expect("the procedure was numbered above");
            SPELLING.with(|name| {
                let name = &mut name.borrow_mut();
                match t.names.get(self.0 as usize) {
                    Some(base) => kind.spell(base, name),
                    None => kind.spell(&format_args!("?{}", self.0), name),
                }
                let id = t.intern(name);
                t.derived.insert((self.0, key), id);
                Var(id)
            })
        })
    }

    /// The name, or `?N` for a number the calling thread's table does not
    /// hold.
    pub fn name(self) -> String {
        TABLE.with(|t| match t.borrow().names.get(self.0 as usize) {
            Some(name) => name.to_string(),
            None => format!("?{}", self.0),
        })
    }

    /// Whether this is a synthetic name — one the analysis made up, not
    /// one from the source: every such name starts with `$` ([`Derived`]
    /// names, `$lat.*` existentials), which no source identifier can.
    /// Reads the name's first byte in place: classification filters call
    /// this per variable, and [`Var::name`] would copy the string out.
    pub fn is_synthetic(self) -> bool {
        TABLE.with(|t| {
            t.borrow()
                .names
                .get(self.0 as usize)
                .is_some_and(|name| name.starts_with('$'))
        })
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
    fn each_parse_numbers_from_zero_and_a_session_adopts() {
        VarTable::start();
        let (x, y) = (Var::new("nt_x"), Var::new("nt_y"));
        let program = VarTable::current();
        VarTable::start();
        // A second program that declares the names in reverse.
        assert_eq!(Var::new("nt_y"), x);
        assert_eq!(Var::new("nt_x"), y);
        VarTable::adopt(&program);
        assert_eq!((Var::new("nt_x"), Var::new("nt_y")), (x, y));
        // The thread copies the adopted table before it numbers more.
        let z = Var::new("$nt_z");
        assert_eq!(program.names.len(), 2);
        assert_eq!(z.name(), "$nt_z");
    }

    #[test]
    fn the_table_belongs_to_the_thread() {
        VarTable::start();
        let x = Var::new("tt_x");
        let program = VarTable::current();
        let elsewhere = std::thread::spawn(move || {
            let before = x.name();
            VarTable::adopt(&program);
            (before, x.name())
        });
        assert_eq!(
            elsewhere.join().unwrap(),
            ("?0".to_string(), "tt_x".to_string())
        );
    }

    #[test]
    fn a_foreign_var_does_not_panic() {
        VarTable::start();
        let far = Var(7);
        assert_eq!(far.name(), "?7");
        assert!(!far.is_synthetic());
        assert_eq!(far.derived(Derived::Dim(0)).name(), "$?7.0");
    }

    #[test]
    fn from_str_interns() {
        let v: Var = "n".into();
        assert_eq!(v, Var::new("n"));
    }
}
