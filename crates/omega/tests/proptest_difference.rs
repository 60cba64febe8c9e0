//! Randomized agreement tests for the difference-bound closure: wherever
//! [`difference::is_empty`] answers, the answer must match both the
//! elimination cascade and brute-force enumeration; everywhere else —
//! sums, non-unit coefficients, stride links — it must decline, and
//! [`System::is_empty`] must report [`Tier::General`] and the cascade's
//! answer, itself checked against enumeration. The same closure asked
//! of borrowed lists — [`difference::is_empty_parts`],
//! [`System::is_empty_with`], the pieces of [`Disjunction::subtract`] —
//! must say what the materialized conjunction says. Wherever
//! [`difference::project`] answers a projection, it must return the
//! system and flag elimination returns. A pair test's one closure for
//! both iteration orders ([`difference::orders_refuted`]) must answer what
//! each order pushed answers, and its condition read off the borrowed
//! lists ([`difference::project_parts`]) must be what elimination returns
//! for the conjunction the test would build.
//! Cases come from fixed seeds so every run checks the same systems.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use padfa_omega::{
    difference, limit_stats, CKind, Constraint, Disjunction, Limits, LinExpr, System, Tier, Var,
};

fn var(n: usize) -> Var {
    Var::new(&format!("df{n}"))
}
fn lx(n: usize) -> LinExpr {
    LinExpr::var(var(n))
}
fn k(c: i64) -> LinExpr {
    LinExpr::constant(c)
}

/// One random unit bound, unit difference or unit equality over
/// `df0..df{vars}` with its constant in ±6.
fn random_difference_constraint(rng: &mut StdRng, vars: usize) -> Constraint {
    let c = rng.gen_range(-6i64..=6);
    let x = rng.gen_range(0..vars);
    let y = (x + rng.gen_range(1..vars.max(2))) % vars;
    let expr = match rng.gen_range(0u32..4) {
        0 => lx(x) + k(c),
        1 => -lx(x) + k(c),
        _ if x == y => lx(x) + k(c),
        _ => lx(x) - lx(y) + k(c),
    };
    if rng.gen_bool(0.25) {
        Constraint::eq0(expr)
    } else {
        Constraint::geq0(expr)
    }
}

/// Does any point of the cube `[-radius, radius]^vars` satisfy every
/// constraint? (`vars <= 3`.)
fn cube_has_point(cs: &[Constraint], vars: usize, radius: i64) -> bool {
    let names: Vec<Var> = (0..vars).map(var).collect();
    let side = 2 * radius + 1;
    (0..side.pow(vars as u32)).any(|mut code| {
        let mut at = [0i64; 3];
        for x in at.iter_mut().take(vars) {
            *x = code % side - radius;
            code /= side;
        }
        let env = |v: Var| names.iter().position(|&n| n == v).map(|n| at[n]);
        cs.iter().all(|c| c.eval(&env) == Some(true))
    })
}

/// The closed form, the dispatching entry point and the cascade on one
/// raw list; returns the closed form's answer.
fn three_answers(cs: &[Constraint], limits: Limits) -> Option<bool> {
    let closed = difference::is_empty(cs, limits);
    let sys = System::from_constraints(cs.to_vec());
    let cascade = sys.is_empty_by_elimination(limits);
    if let Some(empty) = closed {
        assert_eq!(empty, cascade, "closed form vs elimination on {cs:?}");
    }
    let (empty, tier) = sys.is_empty_tiered(limits);
    assert_eq!(empty, cascade, "is_empty vs elimination on {sys}");
    if closed.is_some() && !sys.is_contradiction() {
        assert_eq!(tier, Tier::Dense, "{sys}");
    }
    // General exactly when the closure declines the normalized list (a
    // contradiction has no list to show it).
    let declined =
        sys.is_contradiction() || difference::is_empty(sys.constraints(), limits).is_none();
    assert_eq!(tier == Tier::General, declined, "{sys}");
    closed
}

/// A random bound `a·v + k ≥ 0` or pin `a·v + k == 0`, `a` in ±3.
fn single_var_constraint(rng: &mut StdRng, v: usize) -> Constraint {
    let a = [-3, -2, -1, 1, 2, 3][rng.gen_range(0usize..6)];
    let expr = lx(v).scaled(a) + k(rng.gen_range(-8i64..=8));
    if rng.gen_bool(0.25) {
        Constraint::eq0(expr)
    } else {
        Constraint::geq0(expr)
    }
}

/// A stride link `df0 == s·df1 + c` with the witness `df1` bounded on
/// both sides, plus up to two extra windows on `df0`; returns `s` too.
fn random_strided_system(rng: &mut StdRng) -> (i64, Vec<Constraint>) {
    let s = [-4, -3, -2, -1, 1, 2, 3, 4][rng.gen_range(0usize..8)];
    let c = rng.gen_range(-5i64..=5);
    let mut cs = vec![
        Constraint::eq(lx(0), lx(1).scaled(s) + k(c)),
        Constraint::geq(lx(1), k(rng.gen_range(-6i64..=6))),
        Constraint::leq(lx(1), k(rng.gen_range(-6i64..=6))),
    ];
    for _ in 0..rng.gen_range(0usize..3) {
        cs.push(single_var_constraint(rng, 0));
    }
    (s, cs)
}

#[test]
fn difference_emptiness_agrees_with_fm_and_enumeration() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_B0D5);
    let limits = Limits::default();
    let (mut empties, mut enumerated) = (0u32, 0u32);
    const CASES: u32 = 24_000;
    for case in 0..CASES {
        let vars = rng.gen_range(1usize..=8);
        let cs: Vec<Constraint> = (0..rng.gen_range(1usize..=14))
            .map(|_| random_difference_constraint(&mut rng, vars))
            .collect();
        let empty = three_answers(&cs, limits)
            .unwrap_or_else(|| panic!("case {case}: a difference system fell through: {cs:?}"));
        empties += u32::from(empty);
        if vars <= 3 {
            // Shortest-path potentials put a solution inside this cube
            // whenever there is one.
            enumerated += 1;
            assert_eq!(
                empty,
                !cube_has_point(&cs, vars, 6 * (vars as i64 + 1)),
                "case {case}: closed form vs enumeration on {cs:?}"
            );
        }
    }
    assert!(enumerated >= 2_000, "only {enumerated} systems enumerated");
    assert!(
        (CASES / 4..=3 * CASES / 4).contains(&empties),
        "{empties} of {CASES} systems empty: the generator lost its balance"
    );
}

#[test]
fn projection_in_closed_form_is_what_elimination_returns() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0042);
    let limits = Limits::default();
    let (mut answered, mut declined, mut with_eq) = (0u32, 0u32, 0u32);
    for case in 0..40_000 {
        let vars = rng.gen_range(1usize..=8);
        let cs: Vec<Constraint> = (0..rng.gen_range(1usize..=12))
            .map(|_| {
                // Constants in ±2, so that paths often pin a pair.
                let mut c = random_difference_constraint(&mut rng, vars);
                c.expr = c.expr.clone().with_const(c.expr.konst() / 3);
                c
            })
            .collect();
        // Normal form, or a list as a pair test conjoins one: each
        // member normal, duplicates and looser bounds left in.
        let sys = if case % 2 == 0 {
            System::from_constraints(cs)
        } else {
            let mut sys = System::universe();
            cs.into_iter().for_each(|c| sys.push(c));
            sys
        };
        let drop: Vec<Var> = (0..vars).map(var).filter(|_| rng.gen_bool(0.5)).collect();
        let Some(closed) = difference::project(sys.constraints(), &drop, limits) else {
            declined += 1;
            continue;
        };
        answered += 1;
        with_eq += u32::from(sys.constraints().iter().any(|c| c.kind == CKind::Eq));
        let elim = sys.project_out_by_elimination(&drop, limits);
        assert_eq!(
            (&closed.system, closed.exact),
            (&elim.system, elim.exact),
            "case {case}: {sys} without {drop:?}"
        );
    }
    // Both sides are reached, and answers that substitute through an
    // equality between two dropped variables.
    assert!(answered >= 5_000, "only {answered} answered");
    assert!(declined >= 5_000, "only {declined} declined");
    assert!(with_eq >= 300, "only {with_eq} answered with an equality");
}

#[test]
fn other_shapes_and_tight_limits_fall_through_to_the_cascade() {
    let mut rng = StdRng::seed_from_u64(0xFA11_7420);
    let limits = Limits::default();
    let near_max = i64::MAX / 16 + 1;
    let offenders = [
        Constraint::geq0(lx(0) + lx(1)),
        Constraint::geq0(lx(0).scaled(2) - lx(1)),
        Constraint::geq0(lx(0) - lx(1) + lx(2)),
        // A stride link.
        Constraint::eq(lx(0), lx(1).scaled(2) + k(1)),
        Constraint::geq0(lx(0) + k(near_max)),
        Constraint::geq0(lx(0) - lx(1) + k(-near_max)),
    ];
    for offender in &offenders {
        for round in 0..200 {
            // Alone, then in among constraints that would be decided.
            let mut cs: Vec<Constraint> = (0..round % 5)
                .map(|_| random_difference_constraint(&mut rng, 4))
                .collect();
            cs.insert(rng.gen_range(0..=cs.len()), offender.clone());
            assert_eq!(three_answers(&cs, limits), None, "{cs:?}");
        }
    }

    // A ninth variable.
    let chain = |n: usize| -> Vec<Constraint> {
        (0..n - 1)
            .map(|i| Constraint::leq(lx(i), lx(i + 1)))
            .collect()
    };
    assert_eq!(three_answers(&chain(8), limits), Some(false));
    assert_eq!(three_answers(&chain(9), limits), None);
    let mut closed = chain(9);
    closed.push(Constraint::lt(lx(8), lx(0)));
    assert_eq!(three_answers(&closed, limits), None);
    assert!(System::from_constraints(closed).is_empty(limits));

    // A cap elimination could hit: two variables need room for nine
    // constraints.
    let tight = Limits {
        max_constraints: 4,
        max_disjuncts: 1,
    };
    for _ in 0..200 {
        let cs: Vec<Constraint> = (0..rng.gen_range(1usize..=6))
            .map(|_| random_difference_constraint(&mut rng, 2))
            .collect();
        let two_vars =
            cs.iter().any(|c| c.mentions(var(0))) && cs.iter().any(|c| c.mentions(var(1)));
        assert_eq!(three_answers(&cs, tight).is_none(), two_vars, "{cs:?}");
    }
}

#[test]
fn negative_cycles_of_every_length_are_found() {
    let mut rng = StdRng::seed_from_u64(0xC1C_1E5);
    let limits = Limits::default();
    // A cycle of `len` edges whose weights sum to `total`: a link
    // `x' <= x + w` per edge (or `x' == x + w` where `eq` says so), the
    // zero node standing in for "variable" `len - 1` when `zero`.
    let mut cycle = |len: usize, total: i64, zero: bool, eq: &dyn Fn(usize) -> bool| {
        let node = |n: usize| {
            if zero && n % len == len - 1 {
                k(0)
            } else {
                lx(n % len)
            }
        };
        let mut weights: Vec<i64> = (1..len).map(|_| rng.gen_range(-6i64..=6)).collect();
        weights.push(total - weights.iter().sum::<i64>());
        let mut cs: Vec<Constraint> = (0..len)
            .map(|n| {
                let (from, to) = (node(n), node(n + 1));
                if eq(n) {
                    Constraint::eq(to, from + k(weights[n]))
                } else {
                    Constraint::leq(to, from + k(weights[n]))
                }
            })
            .collect();
        for i in (1..cs.len()).rev() {
            cs.swap(i, rng.gen_range(0..=i));
        }
        cs
    };
    for len in 2..=8 {
        for round in 0..40 {
            // Equalities close a cycle in both directions, so any
            // non-zero sum is a negative cycle one way round.
            let off = [-3, -1, 1, 2][round % 4];
            let all_eq = |_: usize| true;
            let cs = cycle(len, off, false, &all_eq);
            assert_eq!(three_answers(&cs, limits), Some(true), "{cs:?}");
            let cs = cycle(len, 0, false, &all_eq);
            assert_eq!(three_answers(&cs, limits), Some(false), "{cs:?}");

            // Through the zero node, inequalities only.
            let no_eq = |_: usize| false;
            let cs = cycle(len, -1, true, &no_eq);
            assert_eq!(three_answers(&cs, limits), Some(true), "{cs:?}");
            let cs = cycle(len, 0, true, &no_eq);
            assert_eq!(three_answers(&cs, limits), Some(false), "{cs:?}");

            // Through the zero node and equalities: every other link,
            // then all of them.
            let some_eq = |n: usize| n % 2 == round % 2;
            let cs = cycle(len, -1, true, &some_eq);
            assert_eq!(three_answers(&cs, limits), Some(true), "{cs:?}");
            let cs = cycle(len, off, true, &all_eq);
            assert_eq!(three_answers(&cs, limits), Some(true), "{cs:?}");
            let cs = cycle(len, 0, true, &all_eq);
            assert_eq!(three_answers(&cs, limits), Some(false), "{cs:?}");
        }
    }
}

#[test]
fn strided_emptiness_agrees_with_fm_and_enumeration() {
    // Every stride link but `x == w + c` (a unit difference) is
    // elimination's: the strided side has a unit coefficient, so it is
    // substituted away exactly and the verdict must be the true one.
    let limits = Limits::default();
    let (mut general, mut empties) = (0u32, 0u32);
    for seed in 0..192 {
        let mut rng = StdRng::seed_from_u64(0x57A1DE + seed);
        let (s, cs) = random_strided_system(&mut rng);
        three_answers(&cs, limits);
        let sys = System::from_constraints(cs.clone());
        let (empty, tier) = sys.is_empty_tiered(limits);
        assert_eq!(
            tier == Tier::General,
            s != 1 || sys.is_contradiction(),
            "{sys}"
        );
        if s != 1 {
            general += 1;
            empties += u32::from(empty);
        }
        // df1 ∈ [-6, 6], |s| ≤ 4 and |c| ≤ 5 keep df0 within ±29.
        assert_eq!(empty, !cube_has_point(&cs, 2, 30), "{cs:?}");
    }
    assert!(general > 100, "only {general} links left the closure");
    assert!(
        (20..general - 20).contains(&empties),
        "{empties} of {general} strided systems empty"
    );
}

#[test]
fn coupled_systems_stay_general_and_still_agree() {
    let limits = Limits::default();
    for seed in 0..192 {
        let mut rng = StdRng::seed_from_u64(0xC0091ED + seed);
        // A sum `x + y + c ≥ 0`, or a two-variable equality with
        // coefficients 2 or 3, among windows on either variable.
        let unit = rng.gen_bool(0.5);
        let c = k(rng.gen_range(-8i64..=8));
        let coupled = if unit {
            Constraint::geq0(lx(0) + lx(1) + c)
        } else {
            let (a, b) = (rng.gen_range(2i64..=3), rng.gen_range(2i64..=3));
            Constraint::eq0(lx(0).scaled(a) + lx(1).scaled(b) + c)
        };
        let mut cs = vec![coupled];
        for _ in 0..rng.gen_range(1usize..4) {
            let v = rng.gen_range(0usize..2);
            cs.push(single_var_constraint(&mut rng, v));
        }
        assert_eq!(three_answers(&cs, limits), None, "{cs:?}");
        let (empty, tier) = System::from_constraints(cs.clone()).is_empty_tiered(limits);
        assert_eq!(tier, Tier::General, "{cs:?}");
        // Every constant is within ±8, so a solution, if there is one,
        // has one inside this cube. Unit coefficients eliminate exactly;
        // the non-unit equality loses divisibility, where "empty" is
        // still definite and "non-empty" is not.
        let has_point = cube_has_point(&cs, 2, 30);
        if unit {
            assert_eq!(empty, !has_point, "{cs:?}");
        } else {
            assert!(!(empty && has_point), "{cs:?}");
        }
    }
}

/// A constraint of one of the shapes the closure declines: a sum, a
/// non-unit coefficient, three terms, a stride link.
fn random_declined_constraint(rng: &mut StdRng, vars: usize) -> Constraint {
    let x = rng.gen_range(0..vars);
    let y = (x + 1) % vars.max(2);
    let z = vars.max(2);
    let c = k(rng.gen_range(-6i64..=6));
    match rng.gen_range(0u32..4) {
        0 => Constraint::geq0(lx(x) + lx(y) + c),
        1 => Constraint::geq0(lx(x).scaled(2) - lx(y) + c),
        2 => Constraint::geq0(lx(x) - lx(y) + lx(z) + c),
        _ => Constraint::eq(lx(x), lx(y).scaled(rng.gen_range(2i64..=4)) + c),
    }
}

/// Cut `cs` at random into `1..=5` consecutive parts (some may be empty).
fn random_split<'a>(rng: &mut StdRng, cs: &'a [Constraint]) -> Vec<&'a [Constraint]> {
    let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..5))
        .map(|_| rng.gen_range(0..=cs.len()))
        .collect();
    cuts.extend([0, cs.len()]);
    cuts.sort_unstable();
    cuts.windows(2).map(|w| &cs[w[0]..w[1]]).collect()
}

#[test]
fn borrowed_parts_answer_what_the_concatenation_answers() {
    let mut rng = StdRng::seed_from_u64(0x9A27_5EED);
    let tight = Limits {
        max_constraints: 8,
        max_disjuncts: 1,
    };
    let (mut answered, mut declined, mut enumerated, mut five) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..20_000 {
        // Up to ten variables: the ninth makes the closure decline.
        let vars = [1, 2, 3, 3, 4, 6, 8, 10][rng.gen_range(0usize..8)];
        let mut cs: Vec<Constraint> = (0..rng.gen_range(0usize..=14))
            .map(|_| random_difference_constraint(&mut rng, vars))
            .collect();
        if case % 4 == 0 {
            let offender = if case % 20 == 0 {
                // A constant past the closure's bound.
                Constraint::geq0(lx(0) + k(i64::MAX / 16 + 1))
            } else {
                random_declined_constraint(&mut rng, vars)
            };
            cs.insert(rng.gen_range(0..=cs.len()), offender);
        }
        // A cap below `(vars + 1)²` declines too.
        let limits = if case % 5 == 1 {
            tight
        } else {
            Limits::default()
        };
        let parts = random_split(&mut rng, &cs);
        five += u32::from(parts.len() == 5);
        let whole = difference::is_empty(&cs, limits);
        assert_eq!(
            difference::is_empty_parts(&parts, limits),
            whole,
            "case {case}: {parts:?}"
        );
        match whole {
            None => declined += 1,
            Some(empty) => {
                answered += 1;
                if vars <= 3 {
                    enumerated += 1;
                    assert_eq!(
                        empty,
                        !cube_has_point(&cs, vars, 6 * (vars as i64 + 1)),
                        "case {case}: {cs:?}"
                    );
                }
            }
        }
    }
    assert!(answered >= 8_000, "only {answered} lists answered");
    assert!(declined >= 5_000, "only {declined} lists declined");
    assert!(enumerated >= 3_000, "only {enumerated} lists enumerated");
    assert!(five >= 1_000, "only {five} five-part splits");
}

/// A system as the analysis holds one: mostly difference constraints,
/// sometimes one the closure declines.
fn random_mixed_system(rng: &mut StdRng, vars: usize, most: usize) -> System {
    let mut cs: Vec<Constraint> = (0..rng.gen_range(0..=most))
        .map(|_| random_difference_constraint(rng, vars))
        .collect();
    if rng.gen_bool(0.2) {
        cs.push(random_declined_constraint(rng, vars));
    }
    System::from_constraints(cs)
}

#[test]
fn emptiness_with_one_more_constraint_matches_the_built_conjunction() {
    let mut rng = StdRng::seed_from_u64(0x15E7_7917);
    let limits = Limits::default();
    let (mut tautologies, mut contradictions, mut kept, mut empties, mut dead) = (0, 0, 0, 0, 0);
    for case in 0..12_000 {
        let vars = rng.gen_range(1usize..=5);
        let s = if case % 16 == 0 {
            System::empty()
        } else {
            random_mixed_system(&mut rng, vars, 8)
        };
        dead += u32::from(s.is_contradiction());
        let c = match rng.gen_range(0u32..8) {
            // Constant-only: a tautology or a contradiction.
            0 => Constraint::geq0(k(rng.gen_range(-2i64..=2))),
            1 => Constraint::eq0(k(rng.gen_range(-1i64..=1))),
            // A common factor: tightened, or an equality no integer meets.
            2 => Constraint::geq0(lx(0).scaled(2) + k(rng.gen_range(-5i64..=5))),
            3 => Constraint::eq0(lx(0).scaled(2) + k(rng.gen_range(-5i64..=5))),
            4 => random_declined_constraint(&mut rng, vars),
            _ => random_difference_constraint(&mut rng, vars),
        };
        match c.normalize() {
            padfa_omega::Norm::Tautology => tautologies += 1,
            padfa_omega::Norm::Contradiction => contradictions += 1,
            padfa_omega::Norm::Keep(_) => kept += 1,
        }
        let built = s.and_constraint(c.clone());
        let mut pushed = s.clone();
        pushed.push(c.clone());
        assert_eq!(built, pushed, "case {case}: {s} and {c}");
        let expected = built.is_empty(limits);
        assert_eq!(
            s.is_empty_with(c.clone(), limits),
            expected,
            "case {case}: {s} with {c}"
        );
        empties += u32::from(expected);
    }
    assert!(tautologies >= 500, "only {tautologies} tautologies");
    assert!(
        contradictions >= 500,
        "only {contradictions} contradictions"
    );
    assert!(kept >= 7_000, "only {kept} kept constraints");
    assert!(dead >= 750, "only {dead} contradiction systems");
    assert!(
        (3_000..=9_000).contains(&empties),
        "{empties} of 12000 conjunctions empty"
    );

    // Constants no window can hold, beside a system that does and one
    // that does not mention the variable.
    let beside = [
        System::universe(),
        System::from_constraints([Constraint::geq(lx(1), k(0))]),
        System::from_constraints([Constraint::geq(lx(0), k(0))]),
    ];
    for konst in [i64::MIN, i64::MIN + 1, -(i64::MAX / 16) - 1, i64::MAX] {
        for kind in [CKind::Eq, CKind::Geq] {
            let c = Constraint {
                expr: lx(0) + k(konst),
                kind,
            };
            // (Substituting `x := 2^63` is the one thing elimination
            // cannot write down.)
            for s in &beside[..if konst == i64::MIN { 2 } else { 3 }] {
                assert_eq!(
                    s.is_empty_with(c.clone(), limits),
                    s.and_constraint(c.clone()).is_empty(limits),
                    "{s} with {c}"
                );
            }
        }
    }
}

/// `Disjunction::subtract` as it was before its pieces were asked about
/// ahead of being built: every piece of `a − b` is materialized, the
/// contradictions are dropped, and the rest are filtered by `is_empty`.
fn subtract_reference(x: &Disjunction, y: &Disjunction, limits: Limits) -> Disjunction {
    fn subtract_convex(a: &System, b: &System) -> Vec<System> {
        if b.is_contradiction() {
            return vec![a.clone()];
        }
        let mut out = Vec::new();
        let mut assumed = a.clone();
        let mut piece = |assumed: &System, c: Constraint| {
            let mut piece = assumed.clone();
            piece.push(c);
            if !piece.is_contradiction() {
                out.push(piece);
            }
        };
        for c in b.constraints() {
            match c.kind {
                CKind::Geq => piece(&assumed, c.negate_geq()),
                CKind::Eq => {
                    let (p, n) = c.as_geq_pair();
                    piece(&assumed, p.negate_geq());
                    piece(&assumed, n.negate_geq());
                }
            }
            assumed.push(c.clone());
            if assumed.is_contradiction() {
                break;
            }
        }
        out
    }
    let mut cur = x.systems().to_vec();
    for b in y.systems() {
        let mut next = Vec::new();
        for a in &cur {
            let pieces = subtract_convex(a, b);
            next.extend(pieces.into_iter().filter(|p| !p.is_empty(limits)));
            if next.len() > limits.max_disjuncts {
                limit_stats::note_overflow();
                return Disjunction::from_raw_parts(cur, false);
            }
        }
        cur = next;
    }
    Disjunction::from_raw_parts(cur, x.is_exact() && y.is_exact())
}

#[test]
fn subtract_builds_exactly_the_pieces_the_filter_kept() {
    let mut rng = StdRng::seed_from_u64(0x5B7_2AC7);
    let (mut gave_up, mut pieces, mut emptied) = (0u32, 0usize, 0u32);
    for case in 0..6_000 {
        let vars = rng.gen_range(1usize..=4);
        let operand = |rng: &mut StdRng| {
            let mut d = Disjunction::from_systems(
                (0..rng.gen_range(1usize..=3)).map(|_| random_mixed_system(rng, vars, 6)),
            );
            if rng.gen_bool(0.1) {
                d.set_inexact();
            }
            d
        };
        let (x, y) = (operand(&mut rng), operand(&mut rng));
        // Tight enough, every fourth case, that a few pieces trip it.
        let limits = Limits {
            max_disjuncts: if case % 4 == 0 {
                rng.gen_range(1usize..=3)
            } else {
                32
            },
            ..Limits::default()
        };
        let before = limit_stats::thread_overflows();
        let new = x.subtract(&y, limits);
        let mid = limit_stats::thread_overflows();
        let old = subtract_reference(&x, &y, limits);
        let after = limit_stats::thread_overflows();
        assert_eq!(new, old, "case {case}: {x} minus {y}");
        assert_eq!(new.is_exact(), old.is_exact(), "case {case}");
        assert_eq!(mid - before, after - mid, "case {case}: overflow notes");
        gave_up += u32::from(mid > before);
        pieces += new.len();
        emptied += u32::from(new.is_empty_union());
    }
    assert!(gave_up >= 200, "only {gave_up} subtractions gave up");
    assert!(pieces >= 6_000, "only {pieces} pieces survived");
    assert!(emptied >= 300, "only {emptied} differences came out empty");
}

/// A pair test's lists as the dependence test holds them: two pieces and
/// two loop contexts over `df0..df{vars}`, each normalized on its own and
/// none a contradiction (a contradiction's list reads as the universe),
/// sometimes with a constraint the closure declines.
fn random_pair_lists(rng: &mut StdRng, vars: usize) -> Option<[System; 4]> {
    let lists = [(); 4].map(|_| {
        let mut cs: Vec<Constraint> = (0..rng.gen_range(0usize..=3))
            .map(|_| random_difference_constraint(rng, vars))
            .collect();
        if rng.gen_bool(0.03) {
            cs.push(random_declined_constraint(rng, vars));
        }
        System::from_constraints(cs)
    });
    (!lists.iter().any(System::is_contradiction)).then_some(lists)
}

/// Tight caps now and then: `(vars + 1)²` past them declines.
fn pair_limits(case: u32) -> Limits {
    match case % 6 {
        1 => Limits {
            max_constraints: 9,
            max_disjuncts: 1,
        },
        3 => Limits {
            max_constraints: 25,
            max_disjuncts: 1,
        },
        _ => Limits::default(),
    }
}

/// The pair test's two iteration orders over `i = df0` and `i2 = df1`,
/// normalized as the test pushes them.
fn iteration_orders() -> [Constraint; 2] {
    [Constraint::lt(lx(0), lx(1)), Constraint::gt(lx(0), lx(1))].map(|c| match c.normalize() {
        padfa_omega::Norm::Keep(c) => c,
        _ => unreachable!(),
    })
}

#[test]
fn one_closure_answers_both_iteration_orders() {
    let mut rng = StdRng::seed_from_u64(0x0DE5_2BAD);
    let orders = iteration_orders();
    let mut seen = [0u32; 5];
    for case in 0..20_000 {
        // Up to eight variables besides the two the orders add when the
        // lists do not mention them: the ninth declines.
        let vars = rng.gen_range(1usize..=8);
        let Some(lists) = random_pair_lists(&mut rng, vars) else {
            continue;
        };
        let limits = pair_limits(case);
        let [a, b, c, c2] = &lists;
        let parts = [
            a.constraints(),
            b.constraints(),
            c.constraints(),
            c2.constraints(),
        ];
        let both = difference::orders_refuted(&parts, var(0), var(1), limits);
        for (k, order) in orders.iter().enumerate() {
            let [pa, pb, pc, pc2] = parts;
            let pushed = [pa, pb, pc, pc2, std::slice::from_ref(order)];
            assert_eq!(
                both.map(|r| r[k]),
                difference::is_empty_parts(&pushed, limits),
                "case {case}, order {k}: {lists:?}"
            );
        }
        seen[match both {
            None => 0,
            Some([false, false]) => 1,
            Some([true, false]) => 2,
            Some([false, true]) => 3,
            Some([true, true]) => 4,
        }] += 1;
    }
    // Declined, neither refuted, one order each way, and both.
    for (what, n) in [
        "declined",
        "open",
        "lt refuted",
        "gt refuted",
        "both refuted",
    ]
    .iter()
    .zip(seen)
    {
        assert!(n >= 500, "only {n} {what}: {seen:?}");
    }
}

#[test]
fn pair_conditions_in_closed_form_are_what_elimination_returns() {
    let mut rng = StdRng::seed_from_u64(0xC0_4D17);
    let orders = iteration_orders();
    let (mut answered, mut declined, mut with_eq) = (0u32, 0u32, 0u32);
    for case in 0..30_000 {
        let vars = rng.gen_range(2usize..=8);
        let Some(lists) = random_pair_lists(&mut rng, vars) else {
            continue;
        };
        let limits = pair_limits(case);
        let order = &orders[rng.gen_range(0usize..2)];
        // The indices, and a prefix of the rest as dimension variables:
        // what the test projects out. The others are the symbolics.
        let dims = rng.gen_range(2..=vars);
        let drop = |v: Var| (0..dims).any(|n| var(n) == v);
        let [a, b, c, c2] = &lists;
        let parts = [
            a.constraints(),
            b.constraints(),
            c.constraints(),
            c2.constraints(),
            std::slice::from_ref(order),
        ];
        let Some(closed) = difference::project_parts(&parts, drop, limits) else {
            declined += 1;
            continue;
        };
        answered += 1;
        // What the test builds: the intersection's system under both
        // contexts, and the order pushed on top.
        let built = a.and(b).and(c).and(c2).and_constraint(order.clone());
        with_eq += u32::from(built.constraints().iter().any(|c| c.kind == CKind::Eq));
        let junk: Vec<Var> = built.vars().into_iter().filter(|&v| drop(v)).collect();
        let elim = built.project_out_by_elimination(&junk, limits);
        assert_eq!(
            (&closed.system, closed.exact),
            (&elim.system, elim.exact),
            "case {case}: {built} without {junk:?}"
        );
    }
    assert!(answered >= 3_000, "only {answered} answered");
    assert!(declined >= 3_000, "only {declined} declined");
    assert!(with_eq >= 300, "only {with_eq} answered with an equality");
}

#[test]
fn forced_general_env_is_not_set_in_tests() {
    // The agreement tests above exercise the closed form; they are
    // vacuous under the kill switch. Fail loudly instead of silently
    // passing.
    assert!(
        !difference::force_general(),
        "unset PADFA_FORCE_GENERAL_TIER when running the test suite"
    );
}
