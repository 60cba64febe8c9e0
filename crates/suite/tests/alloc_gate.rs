//! Allocation gate over the corpus: calls and bytes. The constraint
//! kernel's cost on systems this small is its constant factor, and most
//! of that constant used to be the allocator — 4.96 M heap allocations
//! for the 4,482 loops before `System::simplify` went in-place and dense
//! boxes on-demand, then 585 MB requested in 1.67 M calls while a
//! `Constraint` was 152 bytes (first-touch page faults and `memmove`
//! were a quarter of `analyze`), then 1.60 M calls of which a quarter
//! answered emptiness questions a 9 × 9 matrix on the stack decides,
//! then 1.22 M of which 89 k classified the operands of an intersection
//! into a box summary that proved 42 of 14,132 of them disjoint, then
//! 1.13 M of which 167 k built, interned and probed conjunctions — pair
//! intersections, subtraction pieces, negated implications — that the
//! same matrix refutes from the operands' own lists, or copied a list
//! and then regrew it by one, then 0.97 M of which 197 k interned a
//! system to relearn an emptiness verdict its region could have kept,
//! built a 1.1 KB map node for a one-array summary, or copied a
//! component the fold did not change, then 0.74 M of which 208 k
//! folded the top level of procedures nothing calls into summaries
//! nobody read, then 0.53 M of which 99 k built evidence — an unread
//! loop's `E − W_prev`, pair tests after a hard dependence, pair rows —
//! that only `explain`, the corpus ledger and the store read.
//! Both figures repeat exactly, so they are gated as counts. This file
//! holds exactly one test: the counters are process-wide, and a second
//! test running beside it would be counted.

use padfa_core::{analyze_program_session, AnalysisSession, Options};
use padfa_omega::{Constraint, LinExpr, Var};
use padfa_suite::corpus::build_corpus;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: the size of every allocation, and the new size of
/// every reallocation.
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is two relaxed counter bumps.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// ≈ 1.25 × the 422,013 measured when the gate was set, in sessions that
/// build no evidence (430,318 while negating a predicate copied its
/// expressions, 529,429 while every session built evidence, 737,664 while
/// every uncalled procedure folded its top level into a summary,
/// 965,375 while every emptiness question interned its system,
/// 1,132,158 while refuted conjunctions were built first, 1,221,163
/// with the box tier, 1,596,609 while every emptiness question
/// classified a box or ran elimination).
const MAX_ALLOCATIONS: u64 = 528_000;

/// ≈ 1.25 × the 75,900,568 measured when the gate was set (75,991,949
/// while negating a predicate copied its expressions, 95,034,636 while
/// every session built evidence, 138,282,250 while every uncalled
/// procedure folded its top level,
/// 190,237,805 while every emptiness question interned its system,
/// 233,954,240 while refuted conjunctions were built first,
/// 250,837,916 with the box tier and a 48-byte `System`, 303,254,148
/// before the closed-form emptiness test, 584,675,472 with 152-byte
/// constraints).
const MAX_BYTES: u64 = 95_000_000;

#[test]
fn corpus_analysis_stays_allocation_lean() {
    let corpus = build_corpus();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes_before = BYTES.load(Ordering::Relaxed);
    for bench in &corpus {
        let sess = AnalysisSession::new(Options::predicated());
        analyze_program_session(&bench.program, &sess).unwrap();
    }
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
    println!("corpus analysis: {count} heap allocations, {bytes} bytes requested");
    assert!(
        count <= MAX_ALLOCATIONS,
        "corpus analysis made {count} heap allocations (gate {MAX_ALLOCATIONS})"
    );
    assert!(
        bytes <= MAX_BYTES,
        "corpus analysis requested {bytes} bytes from the allocator (gate {MAX_BYTES})"
    );

    // Where the count went: putting a system into normal form touches
    // no heap at all, whatever it finds (a duplicate, a looser bound, a
    // pair that pins an equality) and however long the list is.
    let bound = |n: usize, sign: i64, k: i64| {
        Constraint::geq0(LinExpr::term(Var::new(&format!("ag{n}")), sign) + LinExpr::constant(k))
    };
    let mut sys = padfa_omega::System::universe();
    for n in 0..100 {
        sys.push(bound(n, 1, 0)); // x >= 0
        sys.push(bound(n, 1, 5)); // x >= -5, looser
        sys.push(bound(n, -1, (n % 2) as i64)); // x <= 0 pins x, x <= 1 does not
    }
    assert_eq!(sys.len(), 300);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sys.simplify();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(sys.len(), 150);
    assert_eq!(count, 0, "System::simplify allocated");

    // Emptiness of the two shapes the analysis asks about — a chain of
    // unit differences between bounds, a plain box — is decided on the
    // stack: no variable set, no elimination.
    let x = |n: usize| LinExpr::var(Var::new(&format!("ag{n}")));
    let mut chain = padfa_omega::System::from_constraints(
        (0..7).map(|n| Constraint::leq(x(n), x(n + 1) + LinExpr::constant(n as i64 - 3))),
    );
    chain.push(Constraint::geq(x(0), LinExpr::constant(1)));
    chain.push(Constraint::leq(x(7), LinExpr::constant(100)));
    chain.simplify();
    let window = (0..6).flat_map(|n| [bound(n, 1, 0), bound(n, -1, n as i64)]);
    let plain_box = padfa_omega::System::from_constraints(window);
    let limits = padfa_omega::Limits::default();
    for (what, sys, vars) in [("difference system", &chain, 8), ("box", &plain_box, 6)] {
        assert_eq!(sys.vars().len(), vars);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let empty = std::hint::black_box(sys).is_empty(limits);
        let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(!empty, "{sys}");
        assert_eq!(count, 0, "is_empty of a {vars}-variable {what} allocated");
    }

    // The same question asked before anything is built: a conjunction
    // read from five borrowed lists (the pair test's `a`, `b`, `ctx`,
    // `ctx2` and the iteration order), a system and one more constraint
    // (a subtraction piece, an implication), and the classification
    // filter that runs per variable beside them.
    let order = Constraint::lt(x(0), x(7));
    let window = plain_box.constraints();
    let (lower, upper) = chain.constraints().split_at(chain.len() / 2);
    let parts = [
        lower,
        upper,
        &window[..4],
        &window[4..],
        std::slice::from_ref(&order),
    ];
    let built = padfa_omega::System::from_constraints(parts.concat());
    assert_eq!(built.vars().len(), 8);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let empty = padfa_omega::difference::is_empty_parts(std::hint::black_box(&parts), limits);
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(empty, Some(built.is_empty(limits)));
    assert_eq!(count, 0, "is_empty_parts over five parts allocated");
    let reversed = order.negate_geq();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let empty = std::hint::black_box(&chain).is_empty_with(reversed, limits);
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(!empty, "{chain}");
    assert_eq!(count, 0, "is_empty_with on a difference system allocated");
    let (plain, synthetic) = (Var::new("ag0"), Var::new("$ag0"));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let flags = std::hint::black_box((plain.is_synthetic(), synthetic.is_synthetic()));
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(flags, (false, true));
    assert_eq!(count, 0, "Var::is_synthetic allocated");

    // An expression that outgrew the inline buffer and cancelled back
    // is a small expression again: copying it touches no heap.
    let mut e = LinExpr::constant(1);
    let extra: Vec<Var> = (0..6).map(|n| Var::new(&format!("ag{n}"))).collect();
    e.add_term(extra[0], 2);
    for &v in &extra[1..] {
        e.add_term(v, 3);
    }
    for &v in &extra[1..] {
        e.add_term(v, -3);
    }
    assert_eq!(e.num_terms(), 1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copy = std::hint::black_box(e.clone());
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(copy, e);
    assert_eq!(count, 0, "cloning a shrunk expression allocated");
}
