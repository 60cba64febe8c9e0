//! Randomized model tests for the compact `LinExpr` hot path and the
//! cheap unsatisfiability pre-checks.
//!
//! `LinExpr` stores its terms in an inline sorted small-vector that
//! spills to the heap above [`INLINE`] terms; every operation must agree
//! with a naive `BTreeMap` reference model, *especially* at the spill
//! boundary, and equality/hashing must be representation-independent
//! (an expression that spilled and then cancelled back down must equal
//! one that never spilled, and must be back inline).
//! `System::quick_unsat` must never call a satisfiable system empty.
//! Cases are generated from fixed seeds so every run checks the same
//! expressions.

use padfa_omega::linexpr::spills;
use padfa_omega::{Constraint, Limits, LinExpr, System, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

const CASES: u64 = 128;
/// Mirror of the private inline capacity: term counts straddling this
/// value exercise the spill boundary.
const INLINE: usize = 3;

/// The variable pool; more than `INLINE + 2` distinct names, so random
/// expressions can cross the spill threshold.
fn pool() -> Vec<Var> {
    (0..12).map(|i| Var::new(&format!("lx{i}"))).collect()
}

/// Reference model: a sorted map of non-zero coefficients plus a
/// constant, mirroring the documented `LinExpr` semantics.
#[derive(Clone, Default)]
struct Model {
    terms: BTreeMap<Var, i64>,
    konst: i64,
}

impl Model {
    fn add_term(&mut self, v: Var, c: i64) {
        let e = self.terms.entry(v).or_insert(0);
        *e += c;
        if *e == 0 {
            self.terms.remove(&v);
        }
    }

    /// `v := e` for every occurrence of `v`.
    fn subst(&mut self, v: Var, e: &Model) {
        let Some(c) = self.terms.remove(&v) else {
            return;
        };
        for (&w, &k) in &e.terms {
            self.add_term(w, c * k);
        }
        self.konst += c * e.konst;
    }

    fn rename(&mut self, from: Var, to: Var) {
        if let Some(c) = self.terms.remove(&from) {
            self.add_term(to, c);
        }
    }

    fn assert_matches(&self, e: &LinExpr, what: &str) {
        assert_eq!(e.konst(), self.konst, "{what}: konst");
        assert_eq!(e.num_terms(), self.terms.len(), "{what}: num_terms");
        assert_eq!(
            clone_spills(e),
            self.terms.len() > INLINE,
            "{what}: on the heap exactly past {INLINE} terms"
        );
        let got: Vec<(Var, i64)> = e.terms().collect();
        let want: Vec<(Var, i64)> = self.terms.iter().map(|(&v, &c)| (v, c)).collect();
        assert_eq!(got, want, "{what}: sorted term iteration");
        for &(v, c) in &want {
            assert_eq!(e.coeff(v), c, "{what}: coeff({v})");
            assert!(e.mentions(v), "{what}: mentions({v})");
        }
        assert_eq!(e.is_const(), self.terms.is_empty(), "{what}: is_const");
    }
}

/// Whether copying `e` takes a heap buffer, i.e. whether its terms are
/// on the heap (the spill counter is per thread, so concurrent tests
/// cannot disturb the delta).
fn clone_spills(e: &LinExpr) -> bool {
    let before = spills();
    let _copy = e.clone();
    spills() - before == 1
}

fn hash_of(e: &LinExpr) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// A random (expr, model) pair built from the same operation sequence.
/// `len` bounds the number of add_term operations, so callers can steer
/// the expression across the spill boundary.
fn random_pair(rng: &mut StdRng, vars: &[Var], len: usize) -> (LinExpr, Model) {
    let mut e = LinExpr::zero();
    let mut m = Model::default();
    for _ in 0..len {
        let v = vars[rng.gen_range(0..vars.len())];
        let c = rng.gen_range(-5i64..=5);
        e.add_term(v, c);
        m.add_term(v, c);
    }
    let k = rng.gen_range(-20i64..=20);
    e.add_const(k);
    m.konst += k;
    (e, m)
}

#[test]
fn random_build_matches_btreemap_model() {
    let vars = pool();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE4E5_0001 + seed);
        // A third of the cases stay at or under the inline capacity, the
        // rest run well past it (and back, as coefficients cancel).
        let len = rng.gen_range(0usize..=3 * INLINE + 3);
        let (e, m) = random_pair(&mut rng, &vars, len);
        m.assert_matches(&e, "build");

        // eval agrees with the model under a total environment.
        let env_vals: BTreeMap<Var, i64> =
            vars.iter().map(|&v| (v, rng.gen_range(-9..=9))).collect();
        let env = |v: Var| env_vals.get(&v).copied();
        let want = m.terms.iter().map(|(v, c)| env_vals[v] * c).sum::<i64>() + m.konst;
        assert_eq!(e.eval(&env), Some(want), "eval");
    }
}

#[test]
fn arithmetic_matches_btreemap_model() {
    let vars = pool();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE4E5_0002 + seed);
        let len_a = rng.gen_range(0usize..=INLINE + 2);
        let (a, ma) = random_pair(&mut rng, &vars, len_a);
        let len_b = rng.gen_range(0usize..=INLINE + 2);
        let (b, mb) = random_pair(&mut rng, &vars, len_b);

        let mut m_add = ma.clone();
        for (&v, &c) in &mb.terms {
            m_add.add_term(v, c);
        }
        m_add.konst += mb.konst;
        m_add.assert_matches(&(a.clone() + b.clone()), "add");

        let mut m_sub = ma.clone();
        for (&v, &c) in &mb.terms {
            m_sub.add_term(v, -c);
        }
        m_sub.konst -= mb.konst;
        m_sub.assert_matches(&(a.clone() - b.clone()), "sub");

        let k = rng.gen_range(-4i64..=4);
        let mut m_scaled = Model::default();
        if k != 0 {
            for (&v, &c) in &ma.terms {
                m_scaled.add_term(v, c * k);
            }
            m_scaled.konst = ma.konst * k;
        }
        m_scaled.assert_matches(&a.scaled(k), "scaled");

        let (v, w) = (
            vars[rng.gen_range(0..vars.len())],
            vars[rng.gen_range(0..vars.len())],
        );
        let mut m_subst = ma.clone();
        m_subst.subst(v, &mb);
        m_subst.assert_matches(&a.subst(v, &b), "subst");
        let mut m_rename = ma.clone();
        m_rename.rename(v, w);
        m_rename.assert_matches(&a.rename(v, w), "rename");
    }
}

/// The model of a small operand built through the public constructors.
fn model_of(e: &LinExpr) -> Model {
    Model {
        terms: e.terms().collect(),
        konst: e.konst(),
    }
}

/// `n` terms over the first `n` pool variables, coefficients 1..=n.
fn ramp(vars: &[Var], n: usize, konst: i64) -> (LinExpr, Model) {
    let mut e = LinExpr::constant(konst);
    let mut m = Model {
        konst,
        ..Model::default()
    };
    for (k, &v) in vars[..n].iter().enumerate() {
        e.add_term(v, k as i64 + 1);
        m.add_term(v, k as i64 + 1);
    }
    (e, m)
}

#[test]
fn operations_match_model_at_the_spill_boundary() {
    // Start one under, at and one over the inline capacity, and for each
    // operation push the term count up by one, leave it, and cancel it
    // down by one — so every operation crosses the boundary both ways.
    let vars = pool();
    let fresh = vars[INLINE + 3];
    for n in [INLINE - 1, INLINE, INLINE + 1] {
        let (a, ma) = ramp(&vars, n, 5);
        // `grow` adds a variable `a` lacks; `cancel` removes `a`'s last.
        let (last, last_c) = (vars[n - 1], n as i64);
        let grow = LinExpr::term(fresh, 2);
        let cancel = LinExpr::term(last, -last_c) + LinExpr::constant(1);
        for (label, b) in [("grow", &grow), ("cancel", &cancel)] {
            let mb = model_of(b);
            let mut m = ma.clone();
            for (&v, &c) in &mb.terms {
                m.add_term(v, c);
            }
            m.konst += mb.konst;
            m.assert_matches(&(a.clone() + b.clone()), &format!("n={n} add {label}"));

            // Subtracting the negation is the same crossing through `Sub`.
            m.assert_matches(&(a.clone() - b.scaled(-1)), &format!("n={n} sub {label}"));
        }
        // scaled: the count holds for k != 0 and collapses at k = 0.
        let mut m = Model::default();
        for (&v, &c) in &ma.terms {
            m.add_term(v, -2 * c);
        }
        m.konst = -2 * ma.konst;
        m.assert_matches(&a.scaled(-2), &format!("n={n} scaled"));
        Model::default().assert_matches(&a.scaled(0), &format!("n={n} scaled by 0"));

        // subst: by a two-variable expression (up one), by a constant
        // (down one).
        let two = LinExpr::term(fresh, 1) + LinExpr::term(vars[INLINE + 4], 3);
        for (label, by) in [("up", &two), ("down", &LinExpr::constant(7))] {
            let mut m = ma.clone();
            m.subst(last, &model_of(by));
            m.assert_matches(&a.subst(last, by), &format!("n={n} subst {label}"));
        }

        // rename: onto a fresh variable (count holds), onto one already
        // present (merges, down one).
        let mut m = ma.clone();
        m.rename(last, fresh);
        m.assert_matches(&a.rename(last, fresh), &format!("n={n} rename"));
        let mut m = ma.clone();
        m.rename(last, vars[0]);
        m.assert_matches(&a.rename(last, vars[0]), &format!("n={n} rename merge"));

        // Across a cancel-back: past the boundary, then down to `n`
        // again, and the survivor is the value it started as.
        let mut round = a.clone();
        for &v in &vars[n..n + 3] {
            round.add_term(v, 7);
        }
        assert!(clone_spills(&round), "n={n}: {} terms", round.num_terms());
        for &v in &vars[n..n + 3] {
            round.add_term(v, -7);
        }
        ma.assert_matches(&round, &format!("n={n} cancel-back"));
        assert_eq!(round, a);
        assert_eq!(hash_of(&round), hash_of(&a));
        assert_eq!(round.cmp_structural(&a), std::cmp::Ordering::Equal);
    }
}

#[test]
fn equality_and_hash_are_representation_independent() {
    let vars = pool();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE4E5_0003 + seed);
        // Target term counts around the spill boundary.
        let n = rng
            .gen_range(INLINE.saturating_sub(2)..=INLINE + 2)
            .min(vars.len());
        let coeffs: Vec<(Var, i64)> = vars[..n]
            .iter()
            .map(|&v| (v, rng.gen_range(1i64..=5)))
            .collect();

        // Route A: insert in a shuffled order, never exceeding n terms.
        let mut order = coeffs.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut a = LinExpr::zero();
        for &(v, c) in &order {
            a.add_term(v, c);
        }

        // Route B: overshoot past the spill threshold with extra terms,
        // then cancel them, leaving the same logical expression (back
        // inline if it fits).
        let mut b = LinExpr::zero();
        for &(v, c) in &coeffs {
            b.add_term(v, c);
        }
        let extras: Vec<Var> = vars[n..].to_vec();
        for &v in &extras {
            b.add_term(v, 7);
        }
        for &v in &extras {
            b.add_term(v, -7);
        }

        assert_eq!(clone_spills(&a), clone_spills(&b), "seed {seed}");
        assert_eq!(a, b, "seed {seed}: routes must build equal expressions");
        assert_eq!(hash_of(&a), hash_of(&b), "seed {seed}: hashes must agree");
        assert_eq!(
            a.cmp_structural(&b),
            std::cmp::Ordering::Equal,
            "seed {seed}: structural order must agree"
        );
    }
}

// ---- quick_unsat: the fast pre-checks must stay sound. ----

fn qv(i: usize) -> Var {
    Var::new(&format!("qu{i}"))
}

/// A random small system over two variables, biased toward the shapes
/// the pre-checks inspect: single-variable bound windows and equalities
/// with non-trivial coefficient GCDs.
fn random_system(rng: &mut StdRng) -> System {
    let n = rng.gen_range(1usize..=5);
    System::from_constraints(
        (0..n)
            .map(|_| {
                let single = rng.gen_bool(0.5);
                let a = rng.gen_range(-3i64..=3);
                let b = if single { 0 } else { rng.gen_range(-3i64..=3) };
                let (a, b) = if a == 0 && b == 0 { (1, 0) } else { (a, b) };
                let scale = if rng.gen_bool(0.3) {
                    rng.gen_range(2i64..=3)
                } else {
                    1
                };
                let c = rng.gen_range(-8i64..=8);
                let expr = LinExpr::term(qv(0), a * scale)
                    + LinExpr::term(qv(1), b * scale)
                    + LinExpr::constant(c);
                if rng.gen_bool(0.4) {
                    Constraint::eq0(expr)
                } else {
                    Constraint::geq0(expr)
                }
            })
            .collect::<Vec<_>>(),
    )
}

#[test]
fn quick_unsat_never_claims_a_satisfiable_system_empty() {
    const BOX: i64 = 8;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE4E5_0004 + seed);
        let sys = random_system(&mut rng);
        if !sys.quick_unsat() {
            continue;
        }
        // quick_unsat claimed emptiness: the full decision procedure
        // must agree, and brute force must find no integer point.
        assert!(
            sys.is_empty(Limits::default()),
            "seed {seed}: quick_unsat disagrees with Fourier-Motzkin on {sys:?}"
        );
        for x in -BOX..=BOX {
            for y in -BOX..=BOX {
                let env = |v: Var| {
                    if v == qv(0) {
                        Some(x)
                    } else if v == qv(1) {
                        Some(y)
                    } else {
                        None
                    }
                };
                assert_ne!(
                    sys.contains(&env),
                    Some(true),
                    "seed {seed}: quick_unsat lost the point ({x},{y}) of {sys:?}"
                );
            }
        }
    }
}

#[test]
fn quick_unsat_catches_the_targeted_shapes() {
    // Equality GCD: 2x + 2y == 1 has no integer solution.
    let gcd = System::from_constraints([Constraint::eq0(
        LinExpr::term(qv(0), 2) + LinExpr::term(qv(1), 2) + LinExpr::constant(1),
    )]);
    assert!(gcd.quick_unsat());
    assert!(gcd.is_empty(Limits::default()));

    // Single-variable window conflict: x >= 5 and x <= 3.
    let window = System::from_constraints([
        Constraint::geq(LinExpr::var(qv(0)), LinExpr::constant(5)),
        Constraint::leq(LinExpr::var(qv(0)), LinExpr::constant(3)),
    ]);
    assert!(window.quick_unsat());
    assert!(window.is_empty(Limits::default()));

    // Pinned-value divisibility: 3x == 7.
    let pin = System::from_constraints([Constraint::eq0(
        LinExpr::term(qv(0), 3) + LinExpr::constant(-7),
    )]);
    assert!(pin.quick_unsat());
    assert!(pin.is_empty(Limits::default()));

    // A window that pins x to one value, plus an equality excluding it.
    let pinned_conflict = System::from_constraints([
        Constraint::geq(LinExpr::var(qv(0)), LinExpr::constant(4)),
        Constraint::leq(LinExpr::var(qv(0)), LinExpr::constant(4)),
        Constraint::eq(LinExpr::var(qv(0)), LinExpr::constant(9)),
    ]);
    assert!(pinned_conflict.quick_unsat());

    // Satisfiable neighbours of each shape stay undecided or non-empty.
    let sat = System::from_constraints([
        Constraint::geq(LinExpr::var(qv(0)), LinExpr::constant(3)),
        Constraint::leq(LinExpr::var(qv(0)), LinExpr::constant(5)),
        Constraint::eq0(LinExpr::term(qv(0), 2) + LinExpr::constant(-8)),
    ]);
    assert!(!sat.quick_unsat());
    assert!(!sat.is_empty(Limits::default()));
}
