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
//!
//! A program is written as source text and parsed once: a new shape of
//! program is new text, with no constructors to add first.

use crate::ast::Program;
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
    /// The program text written so far.
    out: String,
    /// Blocks open around the next line.
    indent: usize,
}

const INDEX_NAMES: [&str; 4] = ["i", "j", "l", "q"];

/// A literal as the parser reads it back: a negative one is
/// parenthesized, so no operator before it can take its sign.
fn lit(s: String) -> String {
    if s.starts_with('-') {
        format!("({s})")
    } else {
        s
    }
}

// Every compound expression comes back parenthesized, so the text parses
// to the tree drawn whatever the operators around it. The RNG draws, and
// their integer types, fix the program each seed gives: keep both.
impl Gen {
    /// A random integer expression over in-scope scalars.
    fn int_expr(&mut self, depth: usize) -> String {
        let choice = self.rng.gen_range(0..if depth == 0 { 3i32 } else { 6 });
        match choice {
            0 => lit(self.rng.gen_range(-9..=9i64).to_string()),
            1 => if self.rng.gen_bool(0.5) { "x" } else { "xv" }.to_string(),
            2 if self.indices.is_empty() => "n".to_string(),
            2 => self.live_index().to_string(),
            3 | 4 => {
                let (a, b) = (self.int_expr(depth - 1), self.int_expr(depth - 1));
                format!("({a} {} {b})", if choice == 3 { "+" } else { "-" })
            }
            _ => format!("k0[{}]", self.bounded_index(depth - 1)),
        }
    }

    fn live_index(&mut self) -> &'static str {
        self.indices[self.rng.gen_range(0..self.indices.len())]
    }

    fn real_array(&mut self) -> &'static str {
        if self.rng.gen_bool(0.5) {
            "g0"
        } else {
            "g1"
        }
    }

    /// `abs(e) % extent + 1` — always a valid 1-based subscript.
    fn bounded_index(&mut self, depth: usize) -> String {
        format!("(abs({}) % {} + 1)", self.int_expr(depth), self.cfg.extent)
    }

    /// Sometimes affine (analyzable), sometimes bounded-opaque.
    fn subscript(&mut self, depth: usize) -> String {
        if !self.indices.is_empty() && self.rng.gen_bool(0.6) {
            // Affine in a live index, clamped to the extent by
            // construction of the loop bounds.
            let idx = self.live_index();
            if self.rng.gen_range(0..2i64) == 0 {
                idx.to_string()
            } else {
                format!("({idx} + 1)")
            }
        } else {
            self.bounded_index(depth.min(1))
        }
    }

    fn real_expr(&mut self, depth: usize) -> String {
        match self.rng.gen_range(0..if depth == 0 { 3i32 } else { 6 }) {
            0 => {
                let v = f64::from(self.rng.gen_range(-40..=40i32)) * 0.25;
                let s = v.to_string();
                lit(if s.contains(['.', 'e']) { s } else { s + ".0" })
            }
            1 => "r".to_string(),
            2 => {
                let s = self.subscript(depth);
                format!("{}[{s}]", self.real_array())
            }
            3 => {
                let (a, b) = (self.real_expr(depth - 1), self.real_expr(depth - 1));
                format!("({a} + {b})")
            }
            4 => format!("({} * 0.5)", self.real_expr(depth - 1)),
            _ => format!("sqrt(abs({}))", self.real_expr(depth - 1)),
        }
    }

    fn cond(&mut self, depth: usize) -> String {
        let op = ["==", "!=", "<", "<=", ">", ">="][self.rng.gen_range(0..6i32) as usize];
        let (a, b) = (self.int_expr(depth.min(1)), self.int_expr(depth.min(1)));
        if depth > 0 && self.rng.gen_bool(0.3) {
            let other = self.cond(depth - 1);
            let conj = if self.rng.gen_bool(0.5) { "and" } else { "or" };
            format!("({a} {op} {b} {conj} {other})")
        } else {
            format!("{a} {op} {b}")
        }
    }

    fn line(&mut self, text: &str) {
        self.out.push_str(&"  ".repeat(self.indent));
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn stmt(&mut self, depth: usize) {
        let nest = depth > 0 && self.indices.len() < INDEX_NAMES.len();
        let text = match self.rng.gen_range(0..if nest { 7i32 } else { 4 }) {
            0 => {
                let s = self.subscript(depth);
                let e = self.real_expr(depth.min(2));
                format!("{}[{s}] = {e};", self.real_array())
            }
            1 => format!("r = {};", self.real_expr(depth.min(2))),
            2 => format!("xv = {};", self.int_expr(depth.min(2))),
            3 => {
                let c = self.cond(1);
                self.line(&format!("if ({c}) {{"));
                self.block(depth.saturating_sub(1), 1..3);
                if self.rng.gen_bool(0.4) {
                    self.line("} else {");
                    self.block(depth.saturating_sub(1), 1..2);
                }
                "}".to_string()
            }
            _ => {
                // A nested loop over a fresh index. Bounds keep affine
                // `idx + 1` subscripts inside the declared extent.
                let var = INDEX_NAMES[self.indices.len()];
                let top = self.cfg.extent as i64 - 1;
                let hi = if self.rng.gen_bool(0.5) {
                    "n".to_string()
                } else {
                    self.rng.gen_range(2..=top).to_string()
                };
                self.line(&format!("for {var} = 1 to {hi} {{"));
                self.indices.push(var);
                self.block(depth.saturating_sub(1), 1..4);
                self.indices.pop();
                "}".to_string()
            }
        };
        self.line(&text);
    }

    fn block(&mut self, depth: usize, count: std::ops::Range<usize>) {
        let n = self.rng.gen_range(count);
        self.indent += 1;
        for _ in 0..n {
            self.stmt(depth);
        }
        self.indent -= 1;
    }
}

/// Generate a deterministic random program for `seed`. Like
/// [`crate::parse::parse_program`], it starts the calling thread's `Var`
/// table afresh.
///
/// The entry signature is `main(n: int, x: int)`; callers should pass
/// `n <= extent - 1` so affine `idx + 1` subscripts stay in bounds.
pub fn random_program(seed: u64, cfg: GenConfig) -> Program {
    let extent = cfg.extent;
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        cfg,
        indices: Vec::new(),
        out: format!(
            "proc main(n: int, x: int) {{\n  array g0[{extent}];\n  array g1[{extent}];\n  \
             array k0[{extent}] of int;\n  var xv: int;\n  var r: real;\n"
        ),
        indent: 0,
    };
    g.block(cfg.depth, cfg.stmts..cfg.stmts + 1);
    g.out.push_str("}\n");
    crate::parse::parse_program(&g.out).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", g.out))
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

    /// Seeds 0–999 print the programs, and number the names, that the
    /// generator has always given them. The hash is FNV-1a, spelled out
    /// here because `DefaultHasher` may change between Rust releases.
    #[test]
    fn default_programs_are_pinned() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut bytes = 0;
        for seed in 0..1000 {
            let prog = random_program(seed, GenConfig::default());
            let text = crate::pretty::program_to_string(&prog) + &format!("{:?}", prog.vars());
            for b in text.bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            bytes += text.len();
        }
        assert_eq!((bytes, hash), (1_436_170, 0x0dfe_8db1_46c7_aa22));
    }
}
