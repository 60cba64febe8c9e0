//! Content hashing for store keys: a self-contained 128-bit FNV-1a,
//! structural hashing of procedure IR, and the Merkle-style key
//! derivation that makes the store content-addressed.
//!
//! Nothing here is cryptographic — the store defends against *accidental*
//! corruption and stale entries, not adversaries. 128-bit FNV-1a over the
//! canonical byte encoding makes key collisions astronomically unlikely
//! for the population sizes involved (one key per procedure), while
//! staying dependency-free.
//!
//! ## Key structure
//!
//! Every key mixes in [`CODEC_VERSION`] and the session's *options
//! fingerprint* ([`options_fingerprint`]): summaries depend on the
//! analysis options ([`crate::Options`]) and the `omega` limits, so two
//! sessions with different options can never alias each other's entries.
//!
//! Procedure keys are Merkle-style ([`proc_key`]): the key of a procedure
//! hashes its own IR hash *and the keys of all its callees*, so editing
//! one procedure automatically invalidates the stored summaries of every
//! transitive caller — they simply hash to new keys — without any
//! explicit invalidation pass.

use crate::options::Options;
use padfa_ir::ast::{Arg, Block, BoolExpr, Expr, LValue, ParamTy, Procedure, Stmt};
use padfa_omega::Var;

/// Version of the on-disk entry codec and of this hashing scheme. Bump
/// whenever either changes meaning: old entries then hash to different
/// keys instead of decoding wrongly.
/// v2: systems carry a dense-tier tag.
/// v3: procedure summaries are the only entry kind; a v2 segment (full
/// of per-query lattice records) is dropped whole as stale.
/// v4: systems carry no tier tag (there is no box to restore).
/// v5: one file per entry under a build directory replaces the journal;
/// its segments are swept as stale, unread.
/// v6: an entry leads with "has summary" and "has evidence" flags; the
/// summary is optional, and reports carry evidence only under the second.
pub const CODEC_VERSION: u32 = 6;

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a hasher.
#[derive(Clone)]
pub struct Hasher128 {
    state: u128,
}

impl Default for Hasher128 {
    fn default() -> Hasher128 {
        Hasher128::new()
    }
}

impl Hasher128 {
    pub fn new() -> Hasher128 {
        Hasher128 { state: FNV_OFFSET }
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// Fingerprint of everything in [`Options`] that a procedure summary
/// depends on. The work budget is deliberately
/// *excluded*: it never changes a result (exhaustion degrades via a
/// separate path that is gated off the store entirely), and including it
/// would needlessly split the cache between budgeted and unbudgeted
/// sessions.
pub fn options_fingerprint(opts: &Options) -> u128 {
    let mut h = Hasher128::new();
    h.write_u32(CODEC_VERSION);
    h.write_u8(match opts.variant {
        crate::options::Variant::Base => 0,
        crate::options::Variant::Guarded => 1,
        crate::options::Variant::Predicated => 2,
    });
    h.write_bool(opts.embedding);
    h.write_bool(opts.extraction);
    h.write_bool(opts.runtime_tests);
    h.write_u64(opts.max_pieces as u64);
    h.write_u32(opts.test_cost_budget);
    h.write_u64(opts.limits.max_constraints as u64);
    h.write_u64(opts.limits.max_disjuncts as u64);
    h.finish()
}

/// Marker hashed in place of the key of an *undefined* callee (a call to
/// a procedure the program does not declare summarizes as
/// [`crate::Summary::empty`], which is a fixed function, so a fixed
/// marker suffices).
pub const UNDEFINED_CALLEE: u128 = 0x7061_6466_6121_756e_6465_6669_6e65_6421;

/// Merkle-style content key of one procedure: options fingerprint, the
/// procedure's own structural IR hash, and the keys of its direct
/// callees in syntactic call order (which the summarization consumes in
/// the same order). A change anywhere in the transitive callee IR
/// changes this key.
pub fn proc_key(options_fp: u128, ir_hash: u128, callee_keys: &[u128]) -> u128 {
    let mut h = Hasher128::new();
    h.write_u8(b'P');
    h.write_u128(options_fp);
    h.write_u128(ir_hash);
    h.write_u32(callee_keys.len() as u32);
    for &k in callee_keys {
        h.write_u128(k);
    }
    h.finish()
}

/// Structural hash of one procedure's IR, including loop ids and labels.
///
/// Loop ids are program-global (assigned by the parser in program
/// order), so the *same procedure text* embedded in two different
/// programs hashes differently when preceded by different loop counts.
/// That is deliberate and sound: loop ids appear verbatim in the stored
/// [`crate::LoopReport`]s, so entries must not be shared across programs
/// that number loops differently.
pub fn hash_procedure(proc: &Procedure) -> u128 {
    let mut h = Hasher128::new();
    h.write_str(&proc.name);
    h.write_u32(proc.params.len() as u32);
    for p in &proc.params {
        hash_var(&mut h, p.name);
        match &p.ty {
            ParamTy::Scalar(ty) => {
                h.write_u8(0);
                h.write_u8(*ty as u8);
            }
            ParamTy::Array { dims, ty } => {
                h.write_u8(1);
                h.write_u32(dims.len() as u32);
                for d in dims {
                    hash_expr(&mut h, d);
                }
                h.write_u8(*ty as u8);
            }
        }
    }
    h.write_u32(proc.arrays.len() as u32);
    for a in &proc.arrays {
        hash_var(&mut h, a.name);
        h.write_u32(a.dims.len() as u32);
        for d in &a.dims {
            hash_expr(&mut h, d);
        }
        h.write_u8(a.ty as u8);
    }
    h.write_u32(proc.scalars.len() as u32);
    for s in &proc.scalars {
        hash_var(&mut h, s.name);
        h.write_u8(s.ty as u8);
        match &s.init {
            None => h.write_u8(0),
            Some(e) => {
                h.write_u8(1);
                hash_expr(&mut h, e);
            }
        }
    }
    hash_block(&mut h, &proc.body);
    h.finish()
}

fn hash_var(h: &mut Hasher128, v: Var) {
    h.write_str(&v.name());
}

fn hash_block(h: &mut Hasher128, b: &Block) {
    h.write_u32(b.stmts.len() as u32);
    for s in &b.stmts {
        hash_stmt(h, s);
    }
}

fn hash_stmt(h: &mut Hasher128, s: &Stmt) {
    match s {
        Stmt::Assign { lhs, rhs } => {
            h.write_u8(0);
            match lhs {
                LValue::Scalar(v) => {
                    h.write_u8(0);
                    hash_var(h, *v);
                }
                LValue::Elem(a, subs) => {
                    h.write_u8(1);
                    hash_var(h, *a);
                    h.write_u32(subs.len() as u32);
                    for e in subs {
                        hash_expr(h, e);
                    }
                }
            }
            hash_expr(h, rhs);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            h.write_u8(1);
            hash_bool(h, cond);
            hash_block(h, then_blk);
            hash_block(h, else_blk);
        }
        Stmt::For(l) => {
            h.write_u8(2);
            h.write_u32(l.id.0);
            match &l.label {
                None => h.write_u8(0),
                Some(lab) => {
                    h.write_u8(1);
                    h.write_str(lab);
                }
            }
            hash_var(h, l.var);
            hash_expr(h, &l.lo);
            hash_expr(h, &l.hi);
            h.write_i64(l.step);
            hash_block(h, &l.body);
        }
        Stmt::Call { callee, args } => {
            h.write_u8(3);
            h.write_str(callee);
            h.write_u32(args.len() as u32);
            for a in args {
                match a {
                    Arg::Scalar(e) => {
                        h.write_u8(0);
                        hash_expr(h, e);
                    }
                    Arg::Array(v) => {
                        h.write_u8(1);
                        hash_var(h, *v);
                    }
                }
            }
        }
        Stmt::Read(v) => {
            h.write_u8(4);
            hash_var(h, *v);
        }
        Stmt::Print(e) => {
            h.write_u8(5);
            hash_expr(h, e);
        }
        Stmt::ExitWhen(c) => {
            h.write_u8(6);
            hash_bool(h, c);
        }
    }
}

fn hash_expr(h: &mut Hasher128, e: &Expr) {
    match e {
        Expr::IntLit(v) => {
            h.write_u8(0);
            h.write_i64(*v);
        }
        Expr::RealLit(v) => {
            h.write_u8(1);
            h.write_u64(v.to_bits());
        }
        Expr::Scalar(v) => {
            h.write_u8(2);
            hash_var(h, *v);
        }
        Expr::Elem(a, subs) => {
            h.write_u8(3);
            hash_var(h, *a);
            h.write_u32(subs.len() as u32);
            for s in subs {
                hash_expr(h, s);
            }
        }
        Expr::Add(a, b) => hash_bin(h, 4, a, b),
        Expr::Sub(a, b) => hash_bin(h, 5, a, b),
        Expr::Mul(a, b) => hash_bin(h, 6, a, b),
        Expr::Div(a, b) => hash_bin(h, 7, a, b),
        Expr::Mod(a, b) => hash_bin(h, 8, a, b),
        Expr::Neg(a) => {
            h.write_u8(9);
            hash_expr(h, a);
        }
        Expr::Call(intr, args) => {
            h.write_u8(10);
            h.write_u8(*intr as u8);
            h.write_u32(args.len() as u32);
            for a in args {
                hash_expr(h, a);
            }
        }
    }
}

fn hash_bin(h: &mut Hasher128, tag: u8, a: &Expr, b: &Expr) {
    h.write_u8(tag);
    hash_expr(h, a);
    hash_expr(h, b);
}

fn hash_bool(h: &mut Hasher128, b: &BoolExpr) {
    match b {
        BoolExpr::Lit(v) => {
            h.write_u8(0);
            h.write_bool(*v);
        }
        BoolExpr::Cmp(op, a, c) => {
            h.write_u8(1);
            h.write_u8(*op as u8);
            hash_expr(h, a);
            hash_expr(h, c);
        }
        BoolExpr::And(a, c) => {
            h.write_u8(2);
            hash_bool(h, a);
            hash_bool(h, c);
        }
        BoolExpr::Or(a, c) => {
            h.write_u8(3);
            hash_bool(h, a);
            hash_bool(h, c);
        }
        BoolExpr::Not(a) => {
            h.write_u8(4);
            hash_bool(h, a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_ir::parse::parse_program;

    fn fnv128(bytes: &[u8]) -> u128 {
        let mut h = Hasher128::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv128(b""), FNV_OFFSET);
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
        assert_ne!(fnv128(b"ab"), fnv128(b"ba"));
        // Known reference value for FNV-1a 128 of "a".
        let mut h = Hasher128::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), fnv128(b"a"));
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let mut a = Hasher128::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Hasher128::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn procedure_hash_tracks_ir_changes() {
        let p1 = parse_program("proc m(n: int) { array a[10]; for i = 1 to n { a[i] = 1.0; } }")
            .unwrap();
        let p2 = parse_program("proc m(n: int) { array a[10]; for i = 1 to n { a[i] = 2.0; } }")
            .unwrap();
        let p3 = parse_program("proc m(n: int) { array a[10]; for i = 1 to n { a[i] = 1.0; } }")
            .unwrap();
        let h1 = hash_procedure(&p1.procedures[0]);
        assert_ne!(h1, hash_procedure(&p2.procedures[0]));
        assert_eq!(h1, hash_procedure(&p3.procedures[0]));
    }

    #[test]
    fn merkle_key_depends_on_callees() {
        let fp = options_fingerprint(&Options::predicated());
        let k1 = proc_key(fp, 1, &[10, 20]);
        assert_ne!(k1, proc_key(fp, 1, &[10, 21]));
        assert_ne!(k1, proc_key(fp, 2, &[10, 20]));
        assert_ne!(k1, proc_key(fp ^ 1, 1, &[10, 20]));
        assert_eq!(k1, proc_key(fp, 1, &[10, 20]));
    }

    #[test]
    fn options_fingerprint_separates_variants() {
        let p = options_fingerprint(&Options::predicated());
        let b = options_fingerprint(&Options::base());
        let g = options_fingerprint(&Options::guarded());
        assert_ne!(p, b);
        assert_ne!(p, g);
        assert_ne!(b, g);
        // The budget must NOT split the cache.
        let budgeted = Options::predicated().with_budget(crate::budget::WorkBudget::steps(10));
        assert_eq!(p, options_fingerprint(&budgeted));
    }
}
