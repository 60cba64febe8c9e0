//! The box tier: exact per-variable summaries of box-shaped systems.
//!
//! Most array sections are *box-shaped*: every constraint bounds a
//! single variable (possibly through one stride witness), so
//! per-variable interval arithmetic decides emptiness, disjointness, and
//! subset exactly. [`DenseBox`] is that summary, derived at most once per
//! normalized [`System`](crate::System), the first time a query asks for
//! it (most systems are never asked), and carried on the system from
//! then on. Emptiness asks [`crate::difference`] first — it decides plain
//! boxes too, and the `i < i'` systems of the pair tests, without
//! building anything — so what reaches the box here is the stride links;
//! region subset and disjointness dispatch use the box directly.
//! [`Tier`] names how a query was answered.
//!
//! ## Classification rules
//!
//! A system classifies [`Tier::Dense`] when every constraint is either:
//!
//! 1. **single-variable** — `a·v + k ≥ 0` or `a·v + k == 0` — which
//!    contributes to `v`'s integer window exactly as
//!    [`System::quick_unsat`](crate::System::quick_unsat) computes it, or
//! 2. a **stride link**: a two-variable equality `v == s·w + c` whose
//!    strided side `v` has coefficient ±1, where each of `v` and `w`
//!    appears in *no other* multi-variable constraint. `w` is the
//!    *witness*: it is projected away and `v`'s point set becomes the
//!    strided interval `{s·w + c : w ∈ window(w)} ∩ window(v)`.
//!    When `|s| > 1` the witness window must be bounded on both sides
//!    (otherwise the residue class has no finite anchor and the system
//!    stays general).
//!
//! Anything else — three-or-more-variable constraints, two-variable
//! inequalities, variables coupled through several equalities, non-unit
//! equality pairs — is genuinely affine-coupled and stays
//! [`Tier::General`].
//!
//! ## The fall-through contract
//!
//! Wherever the dense tier answers, the answer is **provably identical**
//! to the general Fourier–Motzkin path, so enabling the tier can never
//! change analysis output (ledgers are byte-identical with
//! `PADFA_FORCE_GENERAL_TIER=1`). The argument has two halves:
//!
//! * *Dense claims empty* ⇒ some per-variable window (or strided
//!   overlap) is integer-empty. The general path reaches the same
//!   verdict: plain windows are exactly `quick_unsat`'s pass 2, and a
//!   strided variable is eliminated by an exact unit-coefficient
//!   substitution whose integer tightening (`div_floor` on the witness
//!   bounds) performs the identical arithmetic.
//! * *Dense claims non-empty* ⇒ an explicit integer point exists (pick
//!   each variable inside its non-empty window, derive witnesses from
//!   strided values). Fourier–Motzkin is *sound* — it never reports
//!   empty for a satisfiable system — so the general path also answers
//!   non-empty.
//!
//! Set-valued queries (subtract, union, project) always fall through:
//! their results must be byte-identical *representations*, not just
//! equal sets, and only the general algorithm defines those bytes.
//! Subset and intersection dispatch densely only in the restricted
//! shapes where the general algorithm's output is forced (see
//! [`Disjunction::subset_of_dense`](crate::Disjunction::subset_of_dense)
//! and
//! [`Disjunction::intersect_dense_empty`](crate::Disjunction::intersect_dense_empty)).

use crate::{CKind, Constraint, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Which representation tier answered a lattice query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Answered in closed form, without elimination: from a [`DenseBox`]
    /// summary or, for emptiness, the difference-bound closure
    /// ([`crate::difference`]).
    Dense,
    /// Answered by the general Fourier–Motzkin representation.
    General,
}

impl Tier {
    pub fn name(self) -> &'static str {
        match self {
            Tier::Dense => "dense",
            Tier::General => "general",
        }
    }
}

/// Kill switch for the closed-form tiers (`PADFA_FORCE_GENERAL_TIER=1`):
/// every query runs the general path and every answer is attributed
/// [`Tier::General`]. Output must be byte-identical either way — the
/// CLI test `forced_general_tier_changes_no_output_byte` spawns `padfa`
/// in both modes over the corpus and generated programs.
pub fn force_general() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("PADFA_FORCE_GENERAL_TIER").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// The exact integer point set of one variable: an interval with a
/// stride.
///
/// Invariants of a normalized range: `lo <= hi` when both are bounded;
/// `stride >= 1`; when `stride > 1` both ends are bounded, attainable,
/// and congruent (`(hi - lo) % stride == 0`). A single attainable point
/// is normalized to `stride == 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DenseRange {
    /// Inclusive lower bound (`None` = unbounded below).
    pub lo: Option<i64>,
    /// Inclusive upper bound (`None` = unbounded above).
    pub hi: Option<i64>,
    /// Distance between consecutive points (1 = every integer in range).
    pub stride: i64,
}

impl DenseRange {
    fn interval(lo: Option<i64>, hi: Option<i64>) -> DenseRange {
        DenseRange { lo, hi, stride: 1 }
    }

    fn is_unbounded_all(&self) -> bool {
        self.lo.is_none() && self.hi.is_none() && self.stride == 1
    }

    fn is_point(&self) -> bool {
        self.lo.is_some() && self.lo == self.hi
    }

    /// Membership of a single integer.
    fn contains(&self, x: i64) -> bool {
        if self.lo.is_some_and(|lo| x < lo) || self.hi.is_some_and(|hi| x > hi) {
            return false;
        }
        if self.stride > 1 {
            // stride > 1 implies lo is Some (normalized).
            match self.lo {
                Some(lo) => (x - lo).rem_euclid(self.stride) == 0,
                None => false,
            }
        } else {
            true
        }
    }
}

/// Outcome of intersecting two [`DenseRange`]s.
enum Meet {
    /// Intersection is integer-empty.
    Empty,
    /// Intersection is exactly this range.
    Range(DenseRange),
    /// Arithmetic overflow — undecidable here, fall through.
    Unknown,
}

/// The dense summary of a box-shaped system: one exact
/// [`DenseRange`] per constrained variable, with stride witnesses
/// projected away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseBox {
    /// `(variable, point set)`, sorted by variable. Variables absent
    /// from the list are unconstrained.
    dims: Vec<(Var, DenseRange)>,
    /// Witness variables consumed by stride links (projected out; they
    /// still occur in the underlying system).
    witnesses: Vec<Var>,
    /// Classification already proved the system integer-empty.
    empty: bool,
}

/// One stride link `strided == s·witness + c` found during
/// classification.
struct Link {
    strided: Var,
    witness: Var,
    s: i64,
    c: i64,
}

impl DenseBox {
    /// Classify a normalized constraint list. `None` means the system is
    /// affine-coupled (or arithmetic overflowed) and stays on the
    /// general tier. Callers must not pass a contradiction system (its
    /// constraint list is empty and would classify as the universe).
    pub fn classify(constraints: &[Constraint]) -> Option<DenseBox> {
        let mut windows: BTreeMap<Var, (Option<i64>, Option<i64>)> = BTreeMap::new();
        let mut links: Vec<Link> = Vec::new();
        let mut empty = false;

        for c in constraints {
            let mut terms = c.expr.terms();
            let k = c.expr.konst();
            match (terms.next(), terms.next(), terms.next()) {
                // Constant constraints are folded away by `push`; seeing
                // one means the list did not come through normalization.
                (None, ..) => return None,
                (Some((v, a)), None, _) => {
                    if a == 0 {
                        return None;
                    }
                    let w = windows.entry(v).or_insert((None, None));
                    match c.kind {
                        CKind::Geq => {
                            if a > 0 {
                                let lo = crate::div_floor(k, a).checked_neg()?;
                                w.0 = Some(w.0.map_or(lo, |cur| cur.max(lo)));
                            } else {
                                let hi = crate::div_floor(k, a.checked_neg()?);
                                w.1 = Some(w.1.map_or(hi, |cur| cur.min(hi)));
                            }
                        }
                        CKind::Eq => {
                            if k.checked_rem(a)? != 0 {
                                empty = true;
                            } else {
                                let x = k.checked_div(a)?.checked_neg()?;
                                w.0 = Some(w.0.map_or(x, |cur| cur.max(x)));
                                w.1 = Some(w.1.map_or(x, |cur| cur.min(x)));
                            }
                        }
                    }
                }
                (Some((u, au)), Some((w, aw)), None) => {
                    if c.kind != CKind::Eq {
                        return None;
                    }
                    // The strided side needs a unit coefficient so the
                    // general path eliminates it by exact substitution.
                    let (strided, witness, a, b) = if au.abs() == 1 {
                        (u, w, au, aw)
                    } else if aw.abs() == 1 {
                        (w, u, aw, au)
                    } else {
                        return None;
                    };
                    // a·v + b·w + k == 0 with a = ±1  ⇒  v = -a·b·w - a·k.
                    let s = a.checked_neg()?.checked_mul(b)?;
                    let c0 = a.checked_neg()?.checked_mul(k)?;
                    links.push(Link {
                        strided,
                        witness,
                        s,
                        c: c0,
                    });
                }
                _ => return None,
            }
        }

        // Every variable may participate in at most one link (a second
        // multi-variable constraint couples it for real).
        let mut link_uses: BTreeMap<Var, usize> = BTreeMap::new();
        for l in &links {
            *link_uses.entry(l.strided).or_insert(0) += 1;
            *link_uses.entry(l.witness).or_insert(0) += 1;
        }
        if link_uses.values().any(|&n| n >= 2) {
            return None;
        }

        let linked: BTreeSet<Var> = link_uses.keys().copied().collect();
        let mut dims: Vec<(Var, DenseRange)> = Vec::new();
        for (&v, &(lo, hi)) in &windows {
            if linked.contains(&v) {
                continue;
            }
            if let (Some(l), Some(h)) = (lo, hi) {
                if l > h {
                    empty = true;
                }
            }
            dims.push((v, DenseRange::interval(lo, hi)));
        }

        let mut witnesses: Vec<Var> = Vec::with_capacity(links.len());
        for l in &links {
            let wwin = windows.get(&l.witness).copied().unwrap_or((None, None));
            let vwin = windows.get(&l.strided).copied().unwrap_or((None, None));
            // Witness windows can themselves be empty.
            if let (Some(wl), Some(wh)) = wwin {
                if wl > wh {
                    empty = true;
                }
            }
            match strided_range(l.s, l.c, wwin, vwin)? {
                None => empty = true,
                Some(r) => dims.push((l.strided, r)),
            }
            witnesses.push(l.witness);
        }

        dims.sort_by_key(|&(v, _)| v);
        witnesses.sort();
        Some(DenseBox {
            dims,
            witnesses,
            empty,
        })
    }

    /// Exact integer emptiness of the summarized system.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Whether classification consumed no stride witnesses.
    pub fn witness_free(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// The per-variable point sets.
    pub fn dims(&self) -> &[(Var, DenseRange)] {
        &self.dims
    }

    /// The point set recorded for `v` (`None` = unconstrained).
    pub fn range(&self, v: Var) -> Option<&DenseRange> {
        self.dims
            .binary_search_by_key(&v, |&(d, _)| d)
            .ok()
            .map(|i| &self.dims[i].1)
    }

    /// The two boxes describe independent products over disjoint witness
    /// spaces, so per-variable set algebra is exact on the pair.
    fn compatible(&self, other: &DenseBox) -> bool {
        let vars_of = |b: &DenseBox| -> BTreeSet<Var> {
            b.dims
                .iter()
                .map(|&(v, _)| v)
                .chain(b.witnesses.iter().copied())
                .collect()
        };
        let a_vars = vars_of(self);
        let b_vars = vars_of(other);
        self.witnesses.iter().all(|w| !b_vars.contains(w))
            && other.witnesses.iter().all(|w| !a_vars.contains(w))
    }

    /// Exact box intersection. `None` when the pair is incomparable
    /// (shared witness variables, or arithmetic overflow); the caller
    /// falls through to the general tier.
    pub fn intersect(&self, other: &DenseBox) -> Option<DenseBox> {
        if !self.compatible(other) {
            return None;
        }
        if self.empty || other.empty {
            return Some(DenseBox {
                dims: Vec::new(),
                witnesses: Vec::new(),
                empty: true,
            });
        }
        let mut dims: Vec<(Var, DenseRange)> = Vec::new();
        let mut empty = false;
        let mut ai = self.dims.iter().peekable();
        let mut bi = other.dims.iter().peekable();
        while let (Some(&&(va, ra)), Some(&&(vb, rb))) = (ai.peek(), bi.peek()) {
            match va.cmp(&vb) {
                std::cmp::Ordering::Less => {
                    dims.push((va, ra));
                    ai.next();
                }
                std::cmp::Ordering::Greater => {
                    dims.push((vb, rb));
                    bi.next();
                }
                std::cmp::Ordering::Equal => {
                    match range_intersect(&ra, &rb) {
                        Meet::Empty => empty = true,
                        Meet::Range(r) => dims.push((va, r)),
                        Meet::Unknown => return None,
                    }
                    ai.next();
                    bi.next();
                }
            }
        }
        dims.extend(ai.copied());
        dims.extend(bi.copied());
        let mut witnesses: Vec<Var> = self
            .witnesses
            .iter()
            .chain(other.witnesses.iter())
            .copied()
            .collect();
        witnesses.sort();
        if empty {
            return Some(DenseBox {
                dims: Vec::new(),
                witnesses: Vec::new(),
                empty: true,
            });
        }
        Some(DenseBox {
            dims,
            witnesses,
            empty: false,
        })
    }

    /// Exact disjointness (`self ∩ other = ∅`). `None` when
    /// incomparable.
    pub fn disjoint(&self, other: &DenseBox) -> Option<bool> {
        self.intersect(other).map(|m| m.is_empty())
    }

    /// Exact subset test `self ⊆ other`. `None` when undecidable here:
    /// `other` carries stride witnesses (its dimensions are coupled), or
    /// constrains one of `self`'s witnesses (whose projection is not
    /// recorded).
    pub fn subset_of(&self, other: &DenseBox) -> Option<bool> {
        if self.empty {
            return Some(true);
        }
        if !other.witness_free() {
            return None;
        }
        if other
            .dims
            .iter()
            .any(|&(v, _)| self.witnesses.binary_search(&v).is_ok())
        {
            return None;
        }
        if other.empty {
            return Some(false);
        }
        for &(v, rb) in &other.dims {
            if !range_subset(self.range(v), &rb) {
                return Some(false);
            }
        }
        Some(true)
    }
}

/// The strided point set `{s·w + c : w ∈ wwin} ∩ vwin`, as a normalized
/// range. `None` = unrepresentable (unbounded residue class or
/// overflow); `Some(None)` = provably integer-empty.
#[allow(clippy::option_option)]
fn strided_range(
    s: i64,
    c: i64,
    wwin: (Option<i64>, Option<i64>),
    vwin: (Option<i64>, Option<i64>),
) -> Option<Option<DenseRange>> {
    debug_assert!(s != 0);
    let map = |w: i64| -> Option<i64> {
        i64::try_from(i128::from(s) * i128::from(w) + i128::from(c)).ok()
    };
    // Map the witness window through w ↦ s·w + c (ends swap when s < 0).
    let (raw_lo, raw_hi) = if s > 0 {
        (wwin.0, wwin.1)
    } else {
        (wwin.1, wwin.0)
    };
    let raw_lo = match raw_lo {
        Some(w) => Some(map(w)?),
        None => None,
    };
    let raw_hi = match raw_hi {
        Some(w) => Some(map(w)?),
        None => None,
    };
    let stride = s.checked_abs()?;
    if stride == 1 {
        let lo = max_opt(raw_lo, vwin.0);
        let hi = min_opt(raw_hi, vwin.1);
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return Some(None);
            }
        }
        return Some(Some(DenseRange::interval(lo, hi)));
    }
    // A residue class needs a finite anchor on both sides.
    let (anchor, raw_hi) = match (raw_lo, raw_hi) {
        (Some(l), Some(h)) => (l, h),
        _ => return None,
    };
    if anchor > raw_hi {
        return Some(None);
    }
    let lo0 = vwin.0.map_or(anchor, |v| v.max(anchor));
    let hi0 = vwin.1.map_or(raw_hi, |v| v.min(raw_hi));
    if hi0 < lo0 {
        return Some(None);
    }
    // Round inward to the attainable lattice anchored at `anchor`
    // (lo0 >= anchor by construction).
    let first = anchor.checked_add(((lo0 - anchor) + (stride - 1)) / stride * stride)?;
    let last = anchor.checked_add((hi0 - anchor) / stride * stride)?;
    if first > last {
        return Some(None);
    }
    Some(Some(if first == last {
        DenseRange::interval(Some(first), Some(first))
    } else {
        DenseRange {
            lo: Some(first),
            hi: Some(last),
            stride,
        }
    }))
}

fn max_opt(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

fn min_opt(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Is every point of `a` (ℤ when `None`) inside `b`?
fn range_subset(a: Option<&DenseRange>, b: &DenseRange) -> bool {
    let Some(a) = a else {
        return b.is_unbounded_all();
    };
    // Single attainable point: plain membership.
    if a.is_point() {
        return match a.lo {
            Some(p) => b.contains(p),
            None => false,
        };
    }
    if b.stride == 1 {
        let lo_ok = match b.lo {
            None => true,
            Some(bl) => a.lo.is_some_and(|al| al >= bl),
        };
        let hi_ok = match b.hi {
            None => true,
            Some(bh) => a.hi.is_some_and(|ah| ah <= bh),
        };
        lo_ok && hi_ok
    } else {
        // `b` is a finite residue segment; `a` has at least two points.
        let (Some(al), Some(ah)) = (a.lo, a.hi) else {
            return false;
        };
        let (Some(bl), Some(bh)) = (b.lo, b.hi) else {
            return false;
        };
        a.stride % b.stride == 0 && (al - bl).rem_euclid(b.stride) == 0 && al >= bl && ah <= bh
    }
}

/// Exact intersection of two normalized ranges.
fn range_intersect(a: &DenseRange, b: &DenseRange) -> Meet {
    // Order so `a` has the smaller stride; interval ∩ strided reduces
    // to clamping the strided side.
    let (a, b) = if a.stride <= b.stride { (a, b) } else { (b, a) };
    if b.stride == 1 {
        // Plain interval meet.
        let lo = max_opt(a.lo, b.lo);
        let hi = min_opt(a.hi, b.hi);
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return Meet::Empty;
            }
        }
        return Meet::Range(DenseRange::interval(lo, hi));
    }
    if a.stride == 1 {
        // b is a finite residue segment (normalized ⇒ bounded); clamp it
        // into a's interval.
        let (Some(bl), Some(bh)) = (b.lo, b.hi) else {
            return Meet::Unknown;
        };
        let lo0 = a.lo.map_or(bl, |v| v.max(bl));
        let hi0 = a.hi.map_or(bh, |v| v.min(bh));
        if hi0 < lo0 {
            return Meet::Empty;
        }
        let first = bl + ((lo0 - bl) + (b.stride - 1)) / b.stride * b.stride;
        let last = bl + (hi0 - bl) / b.stride * b.stride;
        if first > last {
            return Meet::Empty;
        }
        return Meet::Range(if first == last {
            DenseRange::interval(Some(first), Some(first))
        } else {
            DenseRange {
                lo: Some(first),
                hi: Some(last),
                stride: b.stride,
            }
        });
    }
    // Two residue segments: CRT. Both are normalized ⇒ bounded.
    let ((Some(al), Some(ah)), (Some(bl), Some(bh))) = ((a.lo, a.hi), (b.lo, b.hi)) else {
        return Meet::Unknown;
    };
    let g = crate::gcd(a.stride, b.stride);
    if (al - bl).rem_euclid(g) != 0 {
        return Meet::Empty;
    }
    let Some(l) = a
        .stride
        .checked_div(g)
        .and_then(|q| q.checked_mul(b.stride))
    else {
        return Meet::Unknown;
    };
    // Solve x ≡ al (mod a.stride), x ≡ bl (mod b.stride) via extended
    // gcd in i128 (no overflow for i64 inputs).
    let (_, p, _) = ext_gcd(i128::from(a.stride), i128::from(b.stride));
    let diff = i128::from(bl) - i128::from(al);
    let lcm = i128::from(l);
    let x0 = (i128::from(al)
        + i128::from(a.stride) * ((diff / i128::from(g) * p) % (lcm / i128::from(a.stride))))
    .rem_euclid(lcm);
    // x0 is the smallest non-negative solution modulo lcm; shift into
    // the common interval.
    let lo0 = i128::from(al.max(bl));
    let hi0 = i128::from(ah.min(bh));
    if hi0 < lo0 {
        return Meet::Empty;
    }
    let first = x0 + (lo0 - x0).div_euclid(lcm) * lcm;
    let first = if first < lo0 { first + lcm } else { first };
    if first > hi0 {
        return Meet::Empty;
    }
    let last = first + (hi0 - first) / lcm * lcm;
    let (Ok(first), Ok(last), Ok(lcm)) = (
        i64::try_from(first),
        i64::try_from(last),
        i64::try_from(lcm),
    ) else {
        return Meet::Unknown;
    };
    Meet::Range(if first == last {
        DenseRange::interval(Some(first), Some(first))
    } else {
        DenseRange {
            lo: Some(first),
            hi: Some(last),
            stride: lcm,
        }
    })
}

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g`.
fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}
