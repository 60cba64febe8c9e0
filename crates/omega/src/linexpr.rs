//! Linear expressions over interned variables.

use crate::{gcd, Var};
use std::cell::Cell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Mul, Neg, Sub};

/// Terms stored inline before spilling to the heap.
///
/// Chosen from a measured term-count histogram (`padfa-core`'s
/// `term_count_histogram_backs_the_inline_capacity` test reprints it):
/// over the 30 corpus programs and 240 `ir::testgen` seeds under all
/// three variants, the 570,671 interned constraints have one term
/// (70.1 %), two (29.8 %) or three (175 of them); only transient
/// Fourier–Motzkin combinations in the generated programs reach four,
/// 0.02 % of what is pushed. Three inline slots therefore keep the
/// corpus entirely, and all but a handful of generated expressions,
/// off the heap. Subscripts that mention more variables than that
/// (tiled or skewed accesses) take the spill path, which every
/// operation handles.
const INLINE_TERMS: usize = 3;

// Three is the floor (a subscript over two loop indices and a symbolic
// must not spill); the inline count is kept in a `u8`.
const _: () = assert!(INLINE_TERMS >= 3 && INLINE_TERMS <= u8::MAX as usize);

/// One `coeff * var` term in 12 bytes. `(Var, i64)` pads the 4-byte
/// variable index out to 16; packing to the index's alignment is what
/// lets three terms, their count and the constant fit a 48-byte
/// [`LinExpr`]. Fields are only ever copied out or assigned, never
/// borrowed, so the reduced alignment needs no `unsafe`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(4))]
struct Term {
    var: Var,
    coeff: i64,
}

/// Sorted term storage: a fixed inline buffer for small expressions, a
/// `Vec` past [`INLINE_TERMS`]. The logical value is the sorted slice
/// of non-zero terms; equality, ordering and hashing read only that
/// slice. A value is on the heap exactly when it has more than
/// [`INLINE_TERMS`] terms: an expression that spilled and later shrank
/// moves back inline, so it stops paying an allocation per clone.
enum Terms {
    Inline { len: u8, buf: [Term; INLINE_TERMS] },
    Heap(Vec<Term>),
}

thread_local! {
    static SPILLS: Cell<u64> = const { Cell::new(0) };
}

/// Heap buffers the calling thread has allocated for terms so far: an
/// expression growing past the inline capacity, or a clone of one that
/// is past it. Bumped only where the allocation happens, so the inline
/// path pays nothing; the spill-boundary property tests and the
/// histogram test that guards the capacity read deltas of it.
pub fn spills() -> u64 {
    SPILLS.with(Cell::get)
}

#[cold]
fn note_spill() {
    SPILLS.with(|c| c.set(c.get() + 1));
}

impl Clone for Terms {
    #[inline]
    fn clone(&self) -> Terms {
        match self {
            Terms::Inline { len, buf } => Terms::Inline {
                len: *len,
                buf: *buf,
            },
            Terms::Heap(v) => {
                note_spill();
                Terms::Heap(v.clone())
            }
        }
    }
}

impl Terms {
    const FILLER: Term = Term {
        var: crate::var::PLACEHOLDER,
        coeff: 0,
    };

    const EMPTY: Terms = Terms::Inline {
        len: 0,
        buf: [Terms::FILLER; INLINE_TERMS],
    };

    #[inline]
    fn as_slice(&self) -> &[Term] {
        match self {
            Terms::Inline { len, buf } => &buf[..*len as usize],
            Terms::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Term] {
        match self {
            Terms::Inline { len, buf } => &mut buf[..*len as usize],
            Terms::Heap(v) => v,
        }
    }

    /// Insert `term` at sorted position `idx`, spilling to the heap when
    /// the inline buffer is full.
    fn insert_at(&mut self, idx: usize, term: Term) {
        match self {
            Terms::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_TERMS {
                    buf.copy_within(idx..n, idx + 1);
                    buf[idx] = term;
                    *len += 1;
                } else {
                    note_spill();
                    let mut v = Vec::with_capacity(2 * INLINE_TERMS);
                    v.extend_from_slice(&buf[..idx]);
                    v.push(term);
                    v.extend_from_slice(&buf[idx..]);
                    *self = Terms::Heap(v);
                }
            }
            Terms::Heap(v) => v.insert(idx, term),
        }
    }

    /// Remove the term at `idx`, moving back inline once the rest fits.
    fn remove_at(&mut self, idx: usize) {
        match self {
            Terms::Inline { len, buf } => {
                let n = *len as usize;
                buf.copy_within(idx + 1..n, idx);
                *len -= 1;
            }
            Terms::Heap(v) => {
                v.remove(idx);
                if v.len() <= INLINE_TERMS {
                    let mut buf = [Terms::FILLER; INLINE_TERMS];
                    buf[..v.len()].copy_from_slice(v);
                    *self = Terms::Inline {
                        len: v.len() as u8,
                        buf,
                    };
                }
            }
        }
    }
}

/// A linear expression `konst + Σ coeff_v * v` with integer coefficients.
///
/// Terms are kept sorted by variable and never store zero coefficients,
/// so structural equality is semantic equality.
#[derive(Clone)]
pub struct LinExpr {
    terms: Terms,
    konst: i64,
}

impl Default for LinExpr {
    fn default() -> LinExpr {
        LinExpr {
            terms: Terms::EMPTY,
            konst: 0,
        }
    }
}

impl PartialEq for LinExpr {
    fn eq(&self, other: &LinExpr) -> bool {
        self.konst == other.konst && self.terms.as_slice() == other.terms.as_slice()
    }
}

impl Eq for LinExpr {}

impl Hash for LinExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the logical content only, so inline and spilled
        // representations of the same expression hash identically.
        self.terms.as_slice().hash(state);
        self.konst.hash(state);
    }
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> LinExpr {
        LinExpr {
            terms: Terms::EMPTY,
            konst: c,
        }
    }

    /// The expression `1 * v`.
    pub fn var(v: impl Into<Var>) -> LinExpr {
        LinExpr::term(v, 1)
    }

    /// The expression `coeff * v`.
    pub fn term(v: impl Into<Var>, coeff: i64) -> LinExpr {
        let mut e = LinExpr::zero();
        e.add_term(v.into(), coeff);
        e
    }

    /// Index of `v` in the sorted term slice.
    #[inline]
    fn find(&self, v: Var) -> Result<usize, usize> {
        self.terms.as_slice().binary_search_by_key(&v, |t| t.var)
    }

    /// Add `coeff * v` in place.
    pub fn add_term(&mut self, v: Var, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match self.find(v) {
            Ok(i) => {
                let term = &mut self.terms.as_mut_slice()[i];
                term.coeff += coeff;
                if term.coeff == 0 {
                    self.terms.remove_at(i);
                }
            }
            Err(i) => self.terms.insert_at(i, Term { var: v, coeff }),
        }
    }

    /// Add a constant in place.
    pub fn add_const(&mut self, c: i64) {
        self.konst += c;
    }

    /// The constant part.
    pub fn konst(&self) -> i64 {
        self.konst
    }

    /// The coefficient of `v` (0 when absent).
    pub fn coeff(&self, v: Var) -> i64 {
        match self.find(v) {
            Ok(i) => self.terms.as_slice()[i].coeff,
            Err(_) => 0,
        }
    }

    /// Iterate over `(var, coeff)` pairs with non-zero coefficients, in
    /// variable order.
    pub fn terms(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.terms.as_slice().iter().map(|t| (t.var, t.coeff))
    }

    /// Number of variables with non-zero coefficients.
    pub fn num_terms(&self) -> usize {
        self.terms.as_slice().len()
    }

    /// True when the expression is a constant.
    pub fn is_const(&self) -> bool {
        self.terms.as_slice().is_empty()
    }

    /// All variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.as_slice().iter().map(|t| t.var)
    }

    /// True when `v` occurs with a non-zero coefficient.
    pub fn mentions(&self, v: Var) -> bool {
        self.find(v).is_ok()
    }

    /// Multiply every coefficient and the constant by `k`.
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        let mut out = self.clone();
        for t in out.terms.as_mut_slice() {
            t.coeff *= k;
        }
        out.konst *= k;
        out
    }

    /// [`LinExpr::scaled`], or `None` when a coefficient or the constant
    /// leaves the `i64` range.
    pub fn checked_scaled(&self, k: i64) -> Option<LinExpr> {
        if k == 0 {
            return Some(LinExpr::zero());
        }
        let mut out = self.clone();
        for t in out.terms.as_mut_slice() {
            t.coeff = t.coeff.checked_mul(k)?;
        }
        out.konst = out.konst.checked_mul(k)?;
        Some(out)
    }

    /// `self + rhs`, or `None` when a coefficient or the constant leaves
    /// the `i64` range.
    pub fn checked_add(mut self, rhs: &LinExpr) -> Option<LinExpr> {
        for (v, c) in rhs.terms() {
            match self.find(v) {
                Ok(i) => {
                    let term = &mut self.terms.as_mut_slice()[i];
                    term.coeff = term.coeff.checked_add(c)?;
                    if term.coeff == 0 {
                        self.terms.remove_at(i);
                    }
                }
                Err(i) => self.terms.insert_at(i, Term { var: v, coeff: c }),
            }
        }
        self.konst = self.konst.checked_add(rhs.konst)?;
        Some(self)
    }

    /// The expression with `v`'s term dropped: `self − coeff(v)·v`,
    /// formed without arithmetic.
    pub fn without(&self, v: Var) -> LinExpr {
        let mut out = self.clone();
        if let Ok(i) = out.find(v) {
            out.terms.remove_at(i);
        }
        out
    }

    /// The same variable part with the constant replaced by `c`.
    pub fn with_const(mut self, c: i64) -> LinExpr {
        self.konst = c;
        self
    }

    /// GCD of all variable coefficients (0 for a constant expression).
    pub fn content(&self) -> i64 {
        self.terms.as_slice().iter().fold(0, |g, t| gcd(g, t.coeff))
    }

    /// Divide all coefficients and the constant by `d`, which must divide
    /// them exactly (checked in debug builds).
    pub fn exact_div(&self, d: i64) -> LinExpr {
        debug_assert!(d != 0);
        debug_assert!(self.terms.as_slice().iter().all(|t| t.coeff % d == 0));
        debug_assert!(self.konst % d == 0);
        let mut out = self.clone();
        for t in out.terms.as_mut_slice() {
            t.coeff /= d;
        }
        out.konst /= d;
        out
    }

    /// Substitute `v := e`, i.e. replace each occurrence `c * v` with `c * e`.
    pub fn subst(&self, v: Var, e: &LinExpr) -> LinExpr {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        self.without(v) + e.scaled(c)
    }

    /// [`LinExpr::subst`], or `None` when a coefficient or the constant
    /// leaves the `i64` range.
    pub fn checked_subst(&self, v: Var, e: &LinExpr) -> Option<LinExpr> {
        let c = self.coeff(v);
        if c == 0 {
            return Some(self.clone());
        }
        self.without(v).checked_add(&e.checked_scaled(c)?)
    }

    /// Rename variable `from` to `to`.
    pub fn rename(&self, from: Var, to: Var) -> LinExpr {
        let c = self.coeff(from);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        if let Ok(i) = out.find(from) {
            out.terms.remove_at(i);
        }
        out.add_term(to, c);
        out
    }

    /// Structural ordering (deterministic within a process): term count,
    /// then `(var, coeff)` pairs, then the constant. Used to keep
    /// constraint lists and predicate operand lists canonically sorted
    /// without formatting.
    pub fn cmp_structural(&self, other: &LinExpr) -> std::cmp::Ordering {
        let (a, b) = (self.terms.as_slice(), other.terms.as_slice());
        a.len()
            .cmp(&b.len())
            .then_with(|| a.cmp(b))
            .then_with(|| self.konst.cmp(&other.konst))
    }

    /// Evaluate under a total assignment; `None` if some variable is
    /// unbound.
    pub fn eval(&self, env: &dyn Fn(Var) -> Option<i64>) -> Option<i64> {
        let mut acc = self.konst;
        for (v, c) in self.terms() {
            acc += c * env(v)?;
        }
        Some(acc)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        let mut out = self;
        for (v, c) in rhs.terms() {
            out.add_term(v, c);
        }
        out.konst += rhs.konst;
        out
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    #[allow(clippy::suspicious_arithmetic_impl)] // a - b == a + (-b)
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + rhs.neg()
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-1)
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: i64) -> LinExpr {
        self.scaled(k)
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}{v}")?;
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", c.unsigned_abs())?;
            }
        }
        if first {
            write!(f, "{}", self.konst)?;
        } else if self.konst > 0 {
            write!(f, " + {}", self.konst)?;
        } else if self.konst < 0 {
            write!(f, " - {}", self.konst.unsigned_abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    #[test]
    fn checked_arithmetic_refuses_to_wrap() {
        let e = LinExpr::term(v("i"), i64::MAX) + LinExpr::constant(1);
        assert_eq!(e.checked_scaled(2), None);
        assert_eq!(e.checked_scaled(-1), Some(e.scaled(-1)));
        assert_eq!(e.clone().checked_add(&LinExpr::term(v("i"), 1)), None);
        assert_eq!(e.clone().checked_add(&LinExpr::constant(i64::MAX)), None);
        let sum = e.clone().checked_add(&LinExpr::term(v("i"), -i64::MAX));
        assert_eq!(sum, Some(LinExpr::constant(1)));
        let r = LinExpr::term(v("j"), 3) + LinExpr::constant(i64::MIN / 2);
        assert_eq!(e.checked_subst(v("i"), &r), None);
        assert_eq!(e.without(v("i")), LinExpr::constant(1));
    }

    #[test]
    fn construction_and_zero_pruning() {
        let mut e = LinExpr::term(v("i"), 2);
        e.add_term(v("i"), -2);
        assert!(e.is_const());
        assert_eq!(e, LinExpr::zero());
    }

    #[test]
    fn arithmetic() {
        let e = LinExpr::var(v("i")) + LinExpr::term(v("j"), 3) + LinExpr::constant(5);
        let f = e.clone() - LinExpr::var(v("i"));
        assert_eq!(f.coeff(v("i")), 0);
        assert_eq!(f.coeff(v("j")), 3);
        assert_eq!(f.konst(), 5);
        let g = f * 2;
        assert_eq!(g.coeff(v("j")), 6);
        assert_eq!(g.konst(), 10);
    }

    #[test]
    fn substitution() {
        // i + 2j, with j := i + 1  =>  3i + 2
        let e = LinExpr::var(v("i")) + LinExpr::term(v("j"), 2);
        let repl = LinExpr::var(v("i")) + LinExpr::constant(1);
        let s = e.subst(v("j"), &repl);
        assert_eq!(s.coeff(v("i")), 3);
        assert_eq!(s.konst(), 2);
        assert!(!s.mentions(v("j")));
    }

    #[test]
    fn rename_merges_coefficients() {
        let e = LinExpr::var(v("a")) + LinExpr::term(v("b"), 4);
        let r = e.rename(v("a"), v("b"));
        assert_eq!(r.coeff(v("b")), 5);
    }

    #[test]
    fn eval_total_and_partial() {
        let e = LinExpr::term(v("i"), 2) + LinExpr::constant(1);
        let env = |x: Var| if x == v("i") { Some(10) } else { None };
        assert_eq!(e.eval(&env), Some(21));
        let e2 = e + LinExpr::var(v("q"));
        assert_eq!(e2.eval(&env), None);
    }

    #[test]
    fn content_and_exact_div() {
        let e = LinExpr::term(v("i"), 4) + LinExpr::term(v("j"), 6) + LinExpr::constant(2);
        assert_eq!(e.content(), 2);
        let d = e.exact_div(2);
        assert_eq!(d.coeff(v("i")), 2);
        assert_eq!(d.coeff(v("j")), 3);
        assert_eq!(d.konst(), 1);
    }

    #[test]
    fn display_formats() {
        let e = LinExpr::var(v("i")) - LinExpr::term(v("j"), 2) + LinExpr::constant(-3);
        assert_eq!(format!("{e}"), "i - 2j - 3");
        assert_eq!(format!("{}", LinExpr::constant(0)), "0");
    }

    impl LinExpr {
        fn is_inline(&self) -> bool {
            matches!(self.terms, Terms::Inline { .. })
        }
    }

    fn hash_of(e: &LinExpr) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        h.finish()
    }

    /// The same value with its terms forced onto the heap — a
    /// representation the operations never leave behind for a short
    /// expression, built here so the comparisons can be shown to read
    /// the term sequence and nothing else.
    fn spilled_twin(e: &LinExpr) -> LinExpr {
        LinExpr {
            terms: Terms::Heap(e.terms.as_slice().to_vec()),
            konst: e.konst,
        }
    }

    fn assert_same_value(a: &LinExpr, b: &LinExpr, what: &str) {
        assert_eq!(a, b, "{what}");
        assert_eq!(hash_of(a), hash_of(b), "{what}: hash");
        assert_eq!(a.cmp_structural(b), std::cmp::Ordering::Equal, "{what}");
    }

    #[test]
    fn terms_are_packed() {
        // The sizes this buys are asserted beside `System`'s.
        assert_eq!(std::mem::size_of::<Term>(), 12);
    }

    #[test]
    fn spill_to_heap_and_back_preserves_identity() {
        // Grow past the inline capacity, then cancel back to just under,
        // at and just over it: the survivor equals the expression built
        // small, and it is on the heap only while it has to be.
        let vars: Vec<Var> = (0..INLINE_TERMS + 3)
            .map(|k| Var::new(&format!("sv{k}")))
            .collect();
        for keep in [INLINE_TERMS - 1, INLINE_TERMS, INLINE_TERMS + 1] {
            let mut big = LinExpr::constant(9);
            for (k, &var) in vars.iter().enumerate() {
                big.add_term(var, k as i64 + 1);
            }
            assert_eq!(big.num_terms(), INLINE_TERMS + 3);
            assert!(!big.is_inline());
            for &var in &vars[keep..] {
                let c = big.coeff(var);
                big.add_term(var, -c);
            }
            let mut small = LinExpr::constant(9);
            for (k, &var) in vars[..keep].iter().enumerate() {
                small.add_term(var, k as i64 + 1);
            }
            assert_eq!(big.is_inline(), keep <= INLINE_TERMS, "keep = {keep}");
            assert_eq!(big.is_inline(), small.is_inline(), "keep = {keep}");
            assert_same_value(&big, &small, "cancelled back");
            assert_same_value(&spilled_twin(&small), &small, "spilled twin");
        }
    }

    #[test]
    fn operations_agree_between_inline_and_spilled_operands() {
        // Every operation gives the same value whichever representation
        // its operand arrives in, and re-inlines a short result.
        let vars: Vec<Var> = (0..INLINE_TERMS + 1)
            .map(|k| Var::new(&format!("tw{k}")))
            .collect();
        let other = LinExpr::term(vars[0], -1) + LinExpr::term(vars[INLINE_TERMS], 4);
        for n in [INLINE_TERMS - 1, INLINE_TERMS] {
            let mut e = LinExpr::constant(-2);
            for (k, &var) in vars[..n].iter().enumerate() {
                e.add_term(var, k as i64 + 1);
            }
            let twin = spilled_twin(&e);
            assert_same_value(
                &(twin.clone() + other.clone()),
                &(e.clone() + other.clone()),
                "add",
            );
            assert_same_value(
                &(twin.clone() - other.clone()),
                &(e.clone() - other.clone()),
                "sub",
            );
            assert_same_value(&twin.scaled(-3), &e.scaled(-3), "scaled");
            assert_same_value(
                &twin.subst(vars[0], &other),
                &e.subst(vars[0], &other),
                "subst",
            );
            assert_same_value(
                &twin.rename(vars[0], vars[INLINE_TERMS]),
                &e.rename(vars[0], vars[INLINE_TERMS]),
                "rename",
            );
            // `vars[0]` cancels against `other`; the rest decides.
            let sum = twin.clone() + other.clone();
            assert_eq!(sum.num_terms(), n);
            assert!(sum.is_inline(), "n = {n}: {sum}");
            assert!(twin.rename(vars[0], vars[1]).is_inline());
        }
    }

    #[test]
    fn ordered_iteration_across_spill_boundary() {
        // Terms inserted in reverse order still iterate sorted by Var,
        // on both sides of the spill threshold.
        for n in [INLINE_TERMS - 1, INLINE_TERMS, INLINE_TERMS + 1] {
            let vars: Vec<Var> = (0..n).map(|k| Var::new(&format!("ov{k}"))).collect();
            let mut e = LinExpr::zero();
            for &var in vars.iter().rev() {
                e.add_term(var, 7);
            }
            let got: Vec<Var> = e.vars().collect();
            let mut want = vars.clone();
            want.sort();
            assert_eq!(got, want, "n = {n}");
        }
    }
}
