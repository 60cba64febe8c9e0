//! Randomized agreement tests for the dense fast tier: wherever a
//! [`DenseBox`] answers, the answer must match both the general
//! Fourier–Motzkin path and brute-force enumeration over small boxes.
//! Covers plain windows, stride links, and the tier boundary (coupled
//! systems that must fall through). Cases come from fixed seeds so every
//! run checks the same systems.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use padfa_omega::{Constraint, DenseBox, Disjunction, Limits, LinExpr, System, Var};

const CASES: u64 = 192;

fn vx() -> Var {
    Var::new("dx")
}
fn vy() -> Var {
    Var::new("dy")
}
fn vw() -> Var {
    Var::new("dw")
}

/// A copy of `sys` with the dense cache stripped, so box dispatch on it
/// declines and region queries run the general algorithm.
fn stripped(sys: &System) -> System {
    System::from_raw_parts(sys.constraints().to_vec(), sys.is_contradiction(), false)
}

fn stripped_region(d: &Disjunction) -> Disjunction {
    let mut out = Disjunction::from_raw_parts(d.systems().iter().map(stripped).collect(), true);
    if !d.is_exact() {
        out.set_inexact();
    }
    out
}

/// A random single-variable constraint (the dense-classifiable shape).
fn single_var_constraint(rng: &mut StdRng, v: Var) -> Constraint {
    let a = loop {
        let a = rng.gen_range(-3i64..=3);
        if a != 0 {
            break a;
        }
    };
    let k = rng.gen_range(-8i64..=8);
    let expr = LinExpr::term(v, a) + LinExpr::constant(k);
    if rng.gen_bool(0.25) {
        Constraint::eq0(expr)
    } else {
        Constraint::geq0(expr)
    }
}

/// A random box-shaped system over `dx`/`dy`: only single-variable
/// constraints, so classification succeeds whenever simplify keeps it.
fn random_box_system(rng: &mut StdRng) -> System {
    let n = rng.gen_range(1usize..6);
    System::from_constraints(
        (0..n)
            .map(|_| {
                let v = if rng.gen_bool(0.5) { vx() } else { vy() };
                single_var_constraint(rng, v)
            })
            .collect::<Vec<_>>(),
    )
}

/// A random *bounded* box system: both ends of each variable's window
/// are pinned inside `[-10, 10]`, so brute-force enumeration over that
/// box is conclusive in both directions.
fn random_bounded_system(rng: &mut StdRng) -> System {
    let mut cs = Vec::new();
    for v in [vx(), vy()] {
        let lo = rng.gen_range(-10i64..=10);
        let hi = rng.gen_range(-10i64..=10);
        cs.push(Constraint::geq(LinExpr::var(v), LinExpr::constant(lo)));
        cs.push(Constraint::leq(LinExpr::var(v), LinExpr::constant(hi)));
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let v = if rng.gen_bool(0.5) { vx() } else { vy() };
        cs.push(single_var_constraint(rng, v));
    }
    System::from_constraints(cs)
}

/// A random strided system: `dx == s·dw + c` with the witness `dw`
/// bounded on both sides, plus optional extra windows on `dx`.
fn random_strided_system(rng: &mut StdRng) -> System {
    let s = loop {
        let s = rng.gen_range(-4i64..=4);
        if s != 0 {
            break s;
        }
    };
    let c = rng.gen_range(-5i64..=5);
    let wl = rng.gen_range(-6i64..=6);
    let wh = rng.gen_range(-6i64..=6);
    let mut cs = vec![
        // dx - s·dw - c == 0
        Constraint::eq0(LinExpr::term(vx(), 1) + LinExpr::term(vw(), -s) + LinExpr::constant(-c)),
        Constraint::geq(LinExpr::var(vw()), LinExpr::constant(wl)),
        Constraint::leq(LinExpr::var(vw()), LinExpr::constant(wh)),
    ];
    for _ in 0..rng.gen_range(0usize..3) {
        cs.push(single_var_constraint(rng, vx()));
    }
    System::from_constraints(cs)
}

/// Does any integer point in the box `[-b, b]²` (plus witness range for
/// strided systems) satisfy the system?
fn box_has_point(sys: &System, b: i64) -> bool {
    let needs_w = sys.mentions(vw());
    let wr: Vec<i64> = if needs_w { (-8..=8).collect() } else { vec![0] };
    for x in -b..=b {
        for y in -b..=b {
            for &w in &wr {
                let env = |v: Var| {
                    if v == vx() {
                        Some(x)
                    } else if v == vy() {
                        Some(y)
                    } else if v == vw() {
                        Some(w)
                    } else {
                        None
                    }
                };
                if sys.contains(&env) == Some(true) {
                    return true;
                }
            }
        }
    }
    false
}

#[test]
fn dense_emptiness_agrees_with_fm() {
    let mut classified = 0u32;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD3A5E + seed);
        let sys = random_box_system(&mut rng);
        let Some(d) = sys.dense_box() else { continue };
        classified += 1;
        assert_eq!(
            d.is_empty(),
            sys.is_empty_by_elimination(Limits::default()),
            "dense and FM disagree on emptiness of {sys}"
        );
    }
    assert!(classified > 50, "generator stopped producing dense systems");
}

#[test]
fn dense_emptiness_agrees_with_enumeration() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB0DED + seed);
        let sys = random_bounded_system(&mut rng);
        let Some(d) = sys.dense_box() else { continue };
        // Bounded windows inside [-10, 10]: enumeration is conclusive.
        assert_eq!(
            d.is_empty(),
            !box_has_point(&sys, 10),
            "dense emptiness wrong for bounded {sys}"
        );
    }
}

#[test]
fn strided_emptiness_agrees_with_fm_and_enumeration() {
    let mut classified = 0u32;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57A1DE + seed);
        let sys = random_strided_system(&mut rng);
        let Some(d) = sys.dense_box() else { continue };
        classified += 1;
        let fm = sys.is_empty_by_elimination(Limits::default());
        assert_eq!(d.is_empty(), fm, "dense vs FM on strided {sys}");
        // dw ∈ [-6, 6] and |s| ≤ 4, |c| ≤ 5 keep dx within [-29, 29]:
        // enumeration over that window is conclusive.
        assert_eq!(
            d.is_empty(),
            !box_has_point(&sys, 30),
            "dense vs enumeration on strided {sys}"
        );
    }
    assert!(
        classified > 50,
        "stride generator stopped classifying dense"
    );
}

#[test]
fn dense_subset_agrees_with_fm_and_enumeration() {
    let limits = Limits::default();
    let mut answered = 0u32;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5B5E7 + seed);
        let a = random_bounded_system(&mut rng);
        let b = random_bounded_system(&mut rng);
        let da = Disjunction::from_system(a.clone());
        let db = Disjunction::from_system(b.clone());
        let Some(dense) = da.subset_of_dense(&db) else {
            continue;
        };
        answered += 1;
        let general = stripped_region(&da).subset_of(&stripped_region(&db), limits);
        assert_eq!(dense, general, "dense vs FM subset: {a} ⊆ {b}");
        // Enumeration over the pinned [-10, 10] windows is conclusive.
        let mut brute = true;
        'outer: for x in -10..=10 {
            for y in -10..=10 {
                let env = |v: Var| {
                    if v == vx() {
                        Some(x)
                    } else if v == vy() {
                        Some(y)
                    } else {
                        None
                    }
                };
                if a.contains(&env) == Some(true) && b.contains(&env) != Some(true) {
                    brute = false;
                    break 'outer;
                }
            }
        }
        assert_eq!(dense, brute, "dense vs enumeration subset: {a} ⊆ {b}");
    }
    assert!(answered > 50, "subset dispatcher stopped answering");
}

#[test]
fn uncached_subset_agrees_with_fm_and_enumeration() {
    // Operands whose dense cache was invalidated (constraints conjoined
    // after classification — the common post-`and` shape in loop
    // summarization) must still get a dense answer via on-the-fly
    // classification, and it must match both FM and enumeration.
    let limits = Limits::default();
    let mut answered = 0u32;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0FF_CAC4E + seed);
        let a = random_bounded_system(&mut rng);
        let b = random_bounded_system(&mut rng);
        let da = stripped_region(&Disjunction::from_system(a.clone()));
        let db = stripped_region(&Disjunction::from_system(b.clone()));
        assert!(
            da.systems().iter().all(|s| !s.has_dense()),
            "stripping failed"
        );
        let Some(dense) = da.subset_of_dense(&db) else {
            continue;
        };
        answered += 1;
        let general = da.subset_of(&db, limits);
        assert_eq!(dense, general, "uncached dense vs FM subset: {a} ⊆ {b}");
        // Enumeration over the pinned [-10, 10] windows is conclusive.
        let mut brute = true;
        'outer: for x in -10..=10 {
            for y in -10..=10 {
                let env = |v: Var| {
                    if v == vx() {
                        Some(x)
                    } else if v == vy() {
                        Some(y)
                    } else {
                        None
                    }
                };
                if a.contains(&env) == Some(true) && b.contains(&env) != Some(true) {
                    brute = false;
                    break 'outer;
                }
            }
        }
        assert_eq!(
            dense, brute,
            "uncached dense vs enumeration subset: {a} ⊆ {b}"
        );
    }
    assert!(
        answered > 50,
        "on-the-fly classification stopped answering stripped operands"
    );
}

#[test]
fn dense_disjointness_agrees_with_fm_and_enumeration() {
    let limits = Limits::default();
    let mut answered = 0u32;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD15101 + seed);
        let a = random_bounded_system(&mut rng);
        // Random bounded boxes mostly overlap, which the dispatcher
        // declines; push half the cases apart so the provably-disjoint
        // branch actually fires.
        let b = if seed % 2 == 0 {
            let lo = rng.gen_range(11i64..=20);
            let hi = rng.gen_range(lo..=25);
            System::from_constraints(vec![
                Constraint::geq(LinExpr::var(vx()), LinExpr::constant(lo)),
                Constraint::leq(LinExpr::var(vx()), LinExpr::constant(hi)),
            ])
        } else {
            random_bounded_system(&mut rng)
        };
        let da = Disjunction::from_system(a.clone());
        let db = Disjunction::from_system(b.clone());
        let Some(meet) = da.intersect_dense_empty(&db) else {
            continue;
        };
        answered += 1;
        // The dense dispatcher only fires on provable disjointness, and
        // its result must be byte-identical to the general one.
        assert!(meet.systems().is_empty() && meet.is_exact());
        let general = stripped_region(&da).intersect(&stripped_region(&db), limits);
        assert_eq!(meet, general, "dense vs FM intersect: {a} ∩ {b}");
        // No common point may exist in the conclusive box.
        for x in -10..=10i64 {
            for y in -10..=10i64 {
                let env = |v: Var| {
                    if v == vx() {
                        Some(x)
                    } else if v == vy() {
                        Some(y)
                    } else {
                        None
                    }
                };
                assert!(
                    !(a.contains(&env) == Some(true) && b.contains(&env) == Some(true)),
                    "({x}, {y}) is in both {a} and {b}"
                );
            }
        }
    }
    assert!(answered > 20, "disjointness dispatcher stopped answering");
}

#[test]
fn coupled_systems_stay_general_and_still_agree() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0091ED + seed);
        // Genuinely coupled shapes must never classify: two-variable
        // inequalities and non-unit two-variable equalities.
        let a = rng.gen_range(2i64..=3);
        let b = loop {
            let b = rng.gen_range(2i64..=3);
            if padfa_omega::Constraint::eq0(LinExpr::term(vx(), a) + LinExpr::term(vy(), b))
                .expr
                .terms()
                .count()
                == 2
            {
                break b;
            }
        };
        let coupled_geq = Constraint::geq0(
            LinExpr::term(vx(), 1)
                + LinExpr::term(vy(), 1)
                + LinExpr::constant(rng.gen_range(-8i64..=8)),
        );
        let coupled_eq = Constraint::eq0(
            LinExpr::term(vx(), a)
                + LinExpr::term(vy(), b)
                + LinExpr::constant(rng.gen_range(-8i64..=8)),
        );
        assert!(DenseBox::classify(std::slice::from_ref(&coupled_geq)).is_none());
        assert!(DenseBox::classify(std::slice::from_ref(&coupled_eq)).is_none());

        // A mixed system (coupled + windows) may or may not classify
        // after simplification rewrites it; either way the tiers agree.
        let mut cs = vec![if rng.gen_bool(0.5) {
            coupled_geq
        } else {
            coupled_eq
        }];
        for _ in 0..rng.gen_range(1usize..4) {
            let v = if rng.gen_bool(0.5) { vx() } else { vy() };
            cs.push(single_var_constraint(&mut rng, v));
        }
        let sys = System::from_constraints(cs);
        if let Some(d) = sys.dense_box() {
            assert_eq!(
                d.is_empty(),
                sys.is_empty_by_elimination(Limits::default()),
                "tier-boundary disagreement on {sys}"
            );
        }
    }
}

/// The box is derived on first use, not when the system is normalized.
/// Nothing observable may depend on *when*: a derived box is the
/// classification of the constraints the system holds, a clone answers
/// the same whether it was taken before or after the original derived
/// its box, any mutation disarms (a new constraint, a contradiction; not
/// a duplicate), and the codec constructor arms exactly when told to.
#[test]
fn lazily_derived_box_is_the_classification_of_the_constraints() {
    let mut rng = StdRng::seed_from_u64(0x1a2_b0c5);
    let limits = Limits::default();
    for case in 0..CASES {
        let sys = match case % 3 {
            0 => random_box_system(&mut rng),
            1 => random_strided_system(&mut rng),
            _ => {
                // Coupled: armed by normalization, derives to no box.
                let mut cs = vec![Constraint::geq0(
                    LinExpr::var(vx()) + LinExpr::var(vy()) + LinExpr::constant(3),
                )];
                cs.push(single_var_constraint(&mut rng, vx()));
                System::from_constraints(cs)
            }
        };
        let early = sys.clone();
        let derived = sys.dense_box().cloned();
        let expected = if sys.is_contradiction() {
            None
        } else {
            DenseBox::classify(sys.constraints())
        };
        assert_eq!(derived, expected, "case {case}: {sys}");
        let late = sys.clone();
        assert_eq!(early.dense_box(), late.dense_box(), "case {case}: {sys}");
        assert_eq!(early.has_dense(), sys.has_dense());
        assert_eq!(early.tier(), late.tier());
        assert_eq!(early.is_empty(limits), late.is_empty(limits));

        // Any mutation disarms, whether or not the box was derived yet;
        // a push that changes nothing is not one.
        for mut touched in [System::from_constraints(sys.constraints().to_vec()), late] {
            if touched.is_contradiction() {
                continue;
            }
            if let Some(held) = touched.constraints().first().cloned() {
                touched.push(held);
            }
            assert_eq!(
                touched.dense_box().cloned(),
                DenseBox::classify(touched.constraints()),
                "case {case}: a duplicate push disarmed {touched}"
            );
            let mut refuted = touched.clone();
            refuted.push(Constraint::geq0(LinExpr::constant(-1)));
            assert!(refuted.is_contradiction() && !refuted.has_dense());
            touched.push(Constraint::geq(
                LinExpr::var(Var::new("dz")),
                LinExpr::constant(case as i64),
            ));
            assert!(
                !touched.has_dense(),
                "case {case}: push kept {touched} armed"
            );
            // ... and normal-form callers re-arm for the new list.
            touched.classify_dense();
            assert_eq!(
                touched.dense_box().cloned(),
                DenseBox::classify(touched.constraints()),
                "case {case}: {touched}"
            );
        }

        // `from_raw_parts(.., dense)` arms iff `dense`.
        let raw = |dense| {
            System::from_raw_parts(sys.constraints().to_vec(), sys.is_contradiction(), dense)
        };
        assert_eq!(raw(true).dense_box().cloned(), expected, "case {case}");
        assert!(!raw(false).has_dense(), "case {case}");
        assert_eq!(raw(sys.has_dense()).has_dense(), sys.has_dense());
    }
}

#[test]
fn forced_general_env_is_not_set_in_tests() {
    // The agreement tests above exercise the dense tier; they are
    // vacuous under the kill switch. Fail loudly instead of silently
    // passing.
    assert!(
        !padfa_omega::dense::force_general(),
        "unset PADFA_FORCE_GENERAL_TIER when running the test suite"
    );
}
