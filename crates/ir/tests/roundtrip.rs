//! Randomized test: any well-formed AST pretty-prints to text that
//! parses back to the identical AST (the printer and parser are exact
//! inverses on the IR's range). Programs are generated from fixed seeds
//! so every run checks the same ASTs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use padfa_ir::ast::*;
use padfa_ir::{parse::parse_program, pretty, Var};

fn add_one(e: Expr) -> Expr {
    Expr::Add(Box::new(e), Box::new(Expr::int(1)))
}

/// `abs(e) % m + 1`: the in-bounds index shape shared by the generators.
fn clamped_index(e: Expr, m: i64) -> Expr {
    add_one(Expr::Mod(
        Box::new(Expr::Call(Intrinsic::Abs, vec![e])),
        Box::new(Expr::int(m)),
    ))
}

/// Random integer-valued expressions over `n`, `x`, `i` and `k1[...]`.
fn int_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth > 0 && rng.gen_bool(0.6) {
        return match rng.gen_range(0u32..5) {
            0 => Expr::Add(
                Box::new(int_expr(rng, depth - 1)),
                Box::new(int_expr(rng, depth - 1)),
            ),
            1 => Expr::Sub(
                Box::new(int_expr(rng, depth - 1)),
                Box::new(int_expr(rng, depth - 1)),
            ),
            2 => Expr::Mul(
                Box::new(int_expr(rng, depth - 1)),
                Box::new(int_expr(rng, depth - 1)),
            ),
            3 => Expr::Neg(Box::new(int_expr(rng, depth - 1))),
            _ => Expr::elem("k1", vec![clamped_index(int_expr(rng, depth - 1), 8)]),
        };
    }
    if rng.gen_bool(0.5) {
        Expr::int(rng.gen_range(-20i64..=20))
    } else {
        Expr::scalar(["n", "x", "i"][rng.gen_range(0usize..3)])
    }
}

/// Random real-valued expressions.
fn real_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth > 0 && rng.gen_bool(0.6) {
        return match rng.gen_range(0u32..4) {
            0 => Expr::Add(
                Box::new(real_expr(rng, depth - 1)),
                Box::new(real_expr(rng, depth - 1)),
            ),
            1 => Expr::Mul(
                Box::new(real_expr(rng, depth - 1)),
                Box::new(real_expr(rng, depth - 1)),
            ),
            2 => Expr::Call(
                Intrinsic::Sqrt,
                vec![Expr::Call(Intrinsic::Abs, vec![real_expr(rng, depth - 1)])],
            ),
            _ => Expr::Call(
                Intrinsic::Max,
                vec![real_expr(rng, depth - 1), real_expr(rng, depth - 1)],
            ),
        };
    }
    match rng.gen_range(0u32..3) {
        0 => Expr::real(rng.gen_range(-100i64..=100) as f64 * 0.25),
        1 => Expr::scalar("r"),
        _ => Expr::elem("a1", vec![clamped_index(int_expr(rng, 1), 16)]),
    }
}

/// Random boolean conditions.
fn bool_expr(rng: &mut StdRng, depth: u32) -> BoolExpr {
    if depth > 0 && rng.gen_bool(0.5) {
        return match rng.gen_range(0u32..3) {
            0 => BoolExpr::and(bool_expr(rng, depth - 1), bool_expr(rng, depth - 1)),
            1 => BoolExpr::or(bool_expr(rng, depth - 1), bool_expr(rng, depth - 1)),
            _ => BoolExpr::not(bool_expr(rng, depth - 1)),
        };
    }
    let op = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][rng.gen_range(0usize..6)];
    BoolExpr::Cmp(op, int_expr(rng, 1), int_expr(rng, 1))
}

/// `for var = 1 to hi { body }`, numbered when the program is assembled.
fn for_loop(var: &str, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For(Loop {
        id: LoopId(u32::MAX),
        label: None,
        var: Var::new(var),
        lo: Expr::int(1),
        hi,
        step: 1,
        body: Block::new(body),
    })
}

/// Random statements (loop bodies reference the index `i`).
fn stmt(rng: &mut StdRng, depth: u32) -> Stmt {
    if depth > 0 && rng.gen_bool(0.4) {
        return match rng.gen_range(0u32..3) {
            0 => {
                let cond = bool_expr(rng, 2);
                let n = rng.gen_range(1usize..3);
                Stmt::If {
                    cond,
                    then_blk: Block::new((0..n).map(|_| stmt(rng, depth - 1)).collect()),
                    else_blk: Block::default(),
                }
            }
            1 => Stmt::If {
                cond: bool_expr(rng, 2),
                then_blk: Block::new(vec![stmt(rng, depth - 1)]),
                else_blk: Block::new(vec![stmt(rng, depth - 1)]),
            },
            _ => {
                let hi = rng.gen_range(1i64..=8);
                let n = rng.gen_range(1usize..3);
                for_loop(
                    "j",
                    Expr::int(hi),
                    (0..n).map(|_| stmt(rng, depth - 1)).collect(),
                )
            }
        };
    }
    let (lhs, rhs) = match rng.gen_range(0u32..3) {
        0 => (LValue::scalar("r"), real_expr(rng, 2)),
        1 => (LValue::scalar("x"), int_expr(rng, 2)),
        _ => (
            LValue::elem("a1", vec![clamped_index(int_expr(rng, 1), 16)]),
            real_expr(rng, 1),
        ),
    };
    Stmt::Assign { lhs, rhs }
}

fn random_program(rng: &mut StdRng) -> Program {
    let n = rng.gen_range(1usize..6);
    let stmts = (0..n).map(|_| stmt(rng, 2)).collect();
    let array = |name, extent, ty| ArrayDecl {
        name: Var::new(name),
        dims: vec![Expr::int(extent)],
        ty,
    };
    let scalar = |name, ty| ScalarDecl {
        name: Var::new(name),
        ty,
        init: None,
    };
    Program::new(vec![Procedure {
        name: "main".to_string(),
        params: vec![Param {
            name: Var::new("n"),
            ty: ParamTy::Scalar(ScalarTy::Int),
        }],
        arrays: vec![
            array("a1", 16, ScalarTy::Real),
            array("k1", 8, ScalarTy::Int),
        ],
        scalars: vec![scalar("x", ScalarTy::Int), scalar("r", ScalarTy::Real)],
        body: Block::new(vec![for_loop("i", Expr::scalar("n"), stmts)]),
    }])
}

const CASES: u64 = 96;

#[test]
fn pretty_parse_round_trip() {
    for seed in 0..CASES {
        let generate = || random_program(&mut StdRng::seed_from_u64(0x707 + seed));
        let prog = generate();
        // The generated AST must resolve (all names declared).
        if padfa_ir::visit::resolve(&prog).is_err() {
            continue;
        }
        let text = pretty::program_to_string(&prog);
        let reparsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("pretty output failed to parse: {e}\n{text}"));
        // The parse numbered the names afresh; built again on top of that
        // numbering, the same AST has the same `Var`s.
        let prog = generate();
        assert_eq!(prog, reparsed, "round trip changed the AST:\n{}", text);
    }
}

#[test]
fn round_trip_is_idempotent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1de0 + seed);
        let prog = random_program(&mut rng);
        if padfa_ir::visit::resolve(&prog).is_err() {
            continue;
        }
        let once = pretty::program_to_string(&prog);
        let twice = pretty::program_to_string(&parse_program(&once).unwrap());
        assert_eq!(once, twice);
    }
}

/// `k1` is only read through `abs(e) % 8 + 1`, so indices stay in
/// bounds; sanity-check that the generator produces runnable-looking
/// shapes at all (spot check, not a property).
#[test]
fn generator_produces_loops() {
    let mut rng = StdRng::seed_from_u64(0);
    let prog = random_program(&mut rng);
    assert_eq!(prog.procedures.len(), 1);
    assert!(padfa_ir::visit::count_loops(&prog) >= 1);
}
