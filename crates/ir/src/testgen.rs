//! Seeded random program generator for fuzzing the analysis/executor
//! pipeline.
//!
//! Programs are resolver-valid and execution-safe by construction:
//! every array subscript goes through `abs(e) % extent + 1`, loop bounds
//! are small constants or the parameter `n`, and there is no I/O or
//! division. The generated shapes are adversarial for the analysis —
//! non-affine subscripts, guarded writes under correlated and
//! uncorrelated conditions, nested loops, scalar recurrences — which
//! makes them ideal inputs for differential testing (any variant's plan
//! must reproduce the sequential result).

use crate::ast::*;
use crate::build;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunables for the generator.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Top-level statements.
    pub stmts: usize,
    /// Maximum statement nesting depth.
    pub depth: usize,
    /// Extent of the real arrays `g0`, `g1` and the int array `k0`.
    pub extent: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            stmts: 6,
            depth: 3,
            extent: 16,
        }
    }
}

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    /// Loop indices currently in scope.
    indices: Vec<&'static str>,
}

const INDEX_NAMES: [&str; 4] = ["i", "j", "l", "q"];

impl Gen {
    /// A random integer expression over in-scope scalars.
    fn int_expr(&mut self, depth: usize) -> Expr {
        let choice = if depth == 0 {
            self.rng.gen_range(0..3)
        } else {
            self.rng.gen_range(0..6)
        };
        match choice {
            0 => Expr::int(self.rng.gen_range(-9..=9)),
            1 => {
                if self.rng.gen_bool(0.5) {
                    Expr::scalar("x")
                } else {
                    Expr::scalar("xv")
                }
            }
            2 => {
                if self.indices.is_empty() {
                    Expr::scalar("n")
                } else {
                    let idx = self.indices[self.rng.gen_range(0..self.indices.len())];
                    Expr::scalar(idx)
                }
            }
            3 => Expr::Add(
                Box::new(self.int_expr(depth - 1)),
                Box::new(self.int_expr(depth - 1)),
            ),
            4 => Expr::Sub(
                Box::new(self.int_expr(depth - 1)),
                Box::new(self.int_expr(depth - 1)),
            ),
            _ => Expr::elem("k0", vec![self.bounded_index(depth - 1, self.cfg.extent)]),
        }
    }

    /// `abs(e) % extent + 1` — always a valid 1-based subscript.
    fn bounded_index(&mut self, depth: usize, extent: usize) -> Expr {
        let e = self.int_expr(depth);
        Expr::Add(
            Box::new(Expr::Mod(
                Box::new(Expr::Call(Intrinsic::Abs, vec![e])),
                Box::new(Expr::int(extent as i64)),
            )),
            Box::new(Expr::int(1)),
        )
    }

    /// Sometimes affine (analyzable), sometimes bounded-opaque.
    fn subscript(&mut self, depth: usize) -> Expr {
        if !self.indices.is_empty() && self.rng.gen_bool(0.6) {
            // Affine in a live index, clamped to the extent by
            // construction of the loop bounds.
            let idx = self.indices[self.rng.gen_range(0..self.indices.len())];
            let off = self.rng.gen_range(0..2);
            if off == 0 {
                Expr::scalar(idx)
            } else {
                Expr::Add(Box::new(Expr::scalar(idx)), Box::new(Expr::int(off)))
            }
        } else {
            self.bounded_index(depth.min(1), self.cfg.extent)
        }
    }

    fn real_expr(&mut self, depth: usize) -> Expr {
        let choice = if depth == 0 {
            self.rng.gen_range(0..3)
        } else {
            self.rng.gen_range(0..6)
        };
        match choice {
            0 => Expr::real(self.rng.gen_range(-40..=40) as f64 * 0.25),
            1 => Expr::scalar("r"),
            2 => {
                let s = self.subscript(depth);
                let arr = if self.rng.gen_bool(0.5) { "g0" } else { "g1" };
                Expr::elem(arr, vec![s])
            }
            3 => Expr::Add(
                Box::new(self.real_expr(depth - 1)),
                Box::new(self.real_expr(depth - 1)),
            ),
            4 => Expr::Mul(
                Box::new(self.real_expr(depth - 1)),
                Box::new(Expr::real(0.5)),
            ),
            _ => Expr::Call(
                Intrinsic::Sqrt,
                vec![Expr::Call(Intrinsic::Abs, vec![self.real_expr(depth - 1)])],
            ),
        }
    }

    fn cond(&mut self, depth: usize) -> BoolExpr {
        let base = BoolExpr::Cmp(
            match self.rng.gen_range(0..6) {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                _ => CmpOp::Ge,
            },
            self.int_expr(depth.min(1)),
            self.int_expr(depth.min(1)),
        );
        if depth > 0 && self.rng.gen_bool(0.3) {
            let other = self.cond(depth - 1);
            if self.rng.gen_bool(0.5) {
                BoolExpr::and(base, other)
            } else {
                BoolExpr::or(base, other)
            }
        } else {
            base
        }
    }

    fn stmt(&mut self, depth: usize) -> Stmt {
        let choice = if depth == 0 || self.indices.len() >= INDEX_NAMES.len() {
            self.rng.gen_range(0..4)
        } else {
            self.rng.gen_range(0..7)
        };
        match choice {
            0 => {
                let s = self.subscript(depth);
                let e = self.real_expr(depth.min(2));
                let arr = if self.rng.gen_bool(0.5) { "g0" } else { "g1" };
                build::store(arr, vec![s], e)
            }
            1 => build::assign("r", self.real_expr(depth.min(2))),
            2 => build::assign("xv", self.int_expr(depth.min(2))),
            3 => {
                let c = self.cond(1);
                let body = self.block(depth.saturating_sub(1), 1..3);
                if self.rng.gen_bool(0.4) {
                    let els = self.block(depth.saturating_sub(1), 1..2);
                    build::if_else(c, body, els)
                } else {
                    build::if_then(c, body)
                }
            }
            _ => {
                // A nested loop over a fresh index. Bounds keep affine
                // `idx + 1` subscripts inside the declared extent.
                let var = INDEX_NAMES[self.indices.len()];
                let hi = if self.rng.gen_bool(0.5) {
                    Expr::scalar("n")
                } else {
                    Expr::int(self.rng.gen_range(2..=self.cfg.extent as i64 - 1))
                };
                self.indices.push(var);
                let body = self.block(depth.saturating_sub(1), 1..4);
                self.indices.pop();
                build::for_loop(var, Expr::int(1), hi, body)
            }
        }
    }

    fn block(&mut self, depth: usize, count: std::ops::Range<usize>) -> Vec<Stmt> {
        let n = self.rng.gen_range(count);
        (0..n).map(|_| self.stmt(depth)).collect()
    }
}

/// Generate a deterministic random program for `seed`. Like
/// [`crate::parse::parse_program`], it starts the calling thread's `Var`
/// table afresh.
///
/// The entry signature is `main(n: int, x: int)`; callers should pass
/// `n <= extent - 1` so affine `idx + 1` subscripts stay in bounds.
pub fn random_program(seed: u64, cfg: GenConfig) -> Program {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        cfg,
        indices: Vec::new(),
    };
    let stmts = g.block(cfg.depth, cfg.stmts..cfg.stmts + 1);

    let built = build::program(vec![build::ProcBuilder::new("main")
        .int_param("n")
        .int_param("x")
        .array("g0", vec![Expr::int(cfg.extent as i64)])
        .array("g1", vec![Expr::int(cfg.extent as i64)])
        .int_array("k0", vec![Expr::int(cfg.extent as i64)])
        .int_var("xv")
        .real_var("r")
        .stmts(stmts)
        .build()]);
    // The generator meets names in another order than the printed text
    // declares them. Numbered as that text parses, on a fresh table, the
    // program and its re-parse are one value and analyse alike.
    crate::parse::parse_program(&crate::pretty::program_to_string(&built))
        .expect("a generated program re-parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_resolve_and_round_trip() {
        for seed in 0..50 {
            let prog = random_program(seed, GenConfig::default());
            crate::visit::resolve(&prog)
                .unwrap_or_else(|e| panic!("seed {seed} does not resolve: {e}"));
            let text = crate::pretty::program_to_string(&prog);
            let back = crate::parse::parse_program(&text)
                .unwrap_or_else(|e| panic!("seed {seed} fails re-parse: {e}\n{text}"));
            assert_eq!(prog, back, "seed {seed} round trip");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = random_program(7, GenConfig::default());
        let b = random_program(7, GenConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_program(1, GenConfig::default());
        let b = random_program(2, GenConfig::default());
        assert_ne!(a, b);
    }
}
