//! The analysis session: the lattice queries, the region interner, and
//! deterministic synthetic-name management.
//!
//! The data-flow lattice operations (`is_empty`, `subset_of`,
//! `subtract`, `intersect`, `union`, `project_out`, predicate
//! implication) are pure functions of their operands and the session's
//! [`Options`]. An [`AnalysisSession`] computes each one every time it
//! is asked, counts it, and charges it to the work budget. Nothing is
//! memoized: memo tables keyed on interned operands answered about a
//! third of the corpus's intersections, unions, projections and
//! implications, and hashing and interning both operands of every query
//! cost more than those hits saved (EXPERIMENTS.md, "Memo census").
//! What the session keeps is the region interner: every region a query
//! returns is interned into one `Arc` per distinct value, so that the
//! emptiness verdict it learns is shared (below).
//!
//! ## Emptiness asks once
//!
//! A region remembers its emptiness: [`AnalysisSession::is_empty`] reads
//! the region's verdict cell ([`Disjunction::known_emptiness`]) before
//! asking any system, and writes it when every system it had to ask was
//! decided by the difference-bound closure ([`Tier::Dense`]). Those
//! verdicts are exact and hold whatever the [`Limits`] — a fact about the
//! set, not about the session — and an interned region is one handle
//! however often the analysis rebuilds it, so the verdict is learned
//! once per distinct region. A region that needed elimination is asked
//! again every time: elimination under a cap may answer "maybe
//! non-empty" for an empty set, and that answer belongs to the session's
//! limits. Under `PADFA_FORCE_GENERAL_TIER` the closure answers nothing,
//! so only what normal form decides alone (a region of contradictions
//! or of empty conjunctions) is ever cached.
//!
//! ## One session, one thread
//!
//! A session is created, used and dropped by a single thread: it is
//! neither `Send` nor `Sync`, and its interner and counters are plain
//! `RefCell` / `Cell` state ([`crate::tables`]). Nothing inside one
//! program's analysis runs on a second thread. Parallelism lives
//! *between* sessions — `padfa corpus --jobs N` analyzes N programs at
//! a time ([`crate::par_map_jobs`]) and `padfa serve --workers N`
//! serves N requests at a time, each in a session of its own — and the
//! only state those sessions share is built for it: the process-global
//! `Var` table, an attached `Arc<Store>`, the flight ring.
//!
//! The thread-local meters the analysis reads (`limit_stats` cap-hits,
//! the work-budget meter) are therefore exact per session: whatever a
//! session's thread counted between two reads, that session caused.
//!
//! ## Determinism
//!
//! Two runs of one program, each in a fresh process, produce the same
//! bytes, whatever else the process is doing on other threads. Within
//! one long-lived process they need not: the `Var` table below outlives
//! every session, so what earlier sessions interned can reorder a later
//! one's constraints (ROADMAP.md, item 1: number variables per
//! session).
//!
//! 1. The walk is sequential and the operations are deterministic pure
//!    functions — so a verdict read from a region's cell is exactly what
//!    a fresh computation would return, and every counter a session
//!    publishes repeats exactly. Which interned handle a result shares
//!    never reaches the output.
//! 2. `Var` ordering is intern-index order in a process-global table
//!    and seeps into constraint sorting and Fourier–Motzkin tie-breaks.
//!    [`pre_intern`] interns every synthetic name the analysis of a
//!    program can create (dimension variables, step-lattice counters,
//!    `$prev.*`, primed copies) in one pass over the program before the
//!    walk starts, so their relative order is program order — not the
//!    order in which the walk, or a session on another thread, happens
//!    to ask for them first.
//! 3. Lattice existentials (`$lat.*`) are drawn from a per-procedure
//!    counter ([`lat_var`]) instead of a global fresh counter, and the
//!    first 256 names of every strided procedure are part of the
//!    pre-interning pass.
//!
//! [`pre_intern`]: AnalysisSession::pre_intern
//! [`lat_var`]: AnalysisSession::lat_var

use crate::budget;
use crate::options::Options;
use crate::store::{self, Store, StoreStatsSnapshot};
use crate::tables::Interner;
use padfa_ir::ast::{Block, ParamTy, Procedure, Program, Stmt};
use padfa_omega::{difference, limit_stats, Derived, Disjunction, Limits, System, Tier, Var};
use padfa_pred::Pred;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Pre-interned `$lat.<proc>.<k>` names per strided procedure; requests
/// beyond the pool fall back to on-the-fly interning (counted in
/// [`StatsSnapshot::lat_overflow`]).
const LAT_POOL: u32 = 256;

/// Counters for one lattice query kind, split by the representation
/// tier that answered it. Every query is computed: no kind has a memo
/// table, so the two add up to the queries asked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries answered in closed form, without elimination
    /// ([`padfa_omega::Tier::Dense`]): `sys_empty` answers of the
    /// difference-bound closure, zero for every other kind.
    pub dense: u64,
    /// Queries answered by the general Fourier–Motzkin representation.
    pub general: u64,
}

impl QueryStats {
    pub fn total(&self) -> u64 {
        self.dense + self.general
    }

    /// Fraction of queries the dense tier answered (0 when unused).
    pub fn dense_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.dense as f64 / self.total() as f64
        }
    }
}

/// A point-in-time snapshot of the session's counters, attached to
/// [`crate::report::AnalysisResult`] and serialized by the benchmarks.
#[derive(Clone, Debug, Default)]
pub struct StatsSnapshot {
    pub sys_empty: QueryStats,
    pub subset: QueryStats,
    pub subtract: QueryStats,
    pub intersect: QueryStats,
    pub union: QueryStats,
    pub project: QueryStats,
    pub implies: QueryStats,
    /// Distinct result regions interned.
    pub interned_regions: usize,
    /// Fourier–Motzkin projections run: every `project_out` query, plus
    /// the system-level projections of extraction and reshape.
    pub fm_projections: u64,
    /// Pair-orders the dependence and privatization tests decided
    /// (`w` against `x′` under one iteration order), and how many of
    /// them the closure refuted from the borrowed constraint lists, so
    /// that no intersection was built ([`crate::deptest`]).
    pub orders_total: u64,
    pub orders_refuted: u64,
    /// `$lat` requests beyond the pre-interned per-procedure pool.
    pub lat_overflow: u64,
    /// Lattice-operation steps charged against per-procedure work
    /// budgets, summed over all procedures (0 when unbudgeted).
    pub budget_steps: u64,
    /// Peak disjunct count seen in any budgeted lattice operand.
    pub peak_disjuncts: usize,
    /// Peak constraint count seen in any system of a budgeted operand.
    pub peak_constraints: usize,
    /// Procedures whose summary was replaced by the degraded
    /// conservative summary after budget exhaustion.
    pub degraded_procs: u64,
    /// `Limits` overflow events (capped eliminations / disjunct-cap
    /// fallbacks) this session caused: the delta of its thread's
    /// [`padfa_omega::limit_stats`] counter since the session was
    /// created. Exact however many other sessions run concurrently.
    pub limit_overflows: u64,
    /// Persistent-store counters (`None` when no store is attached).
    pub store: Option<StoreStatsSnapshot>,
}

impl StatsSnapshot {
    /// The per-kind counters, by kind name.
    pub fn kinds(&self) -> [(&'static str, QueryStats); 7] {
        [
            ("sys_empty", self.sys_empty),
            ("subset", self.subset),
            ("subtract", self.subtract),
            ("intersect", self.intersect),
            ("union", self.union),
            ("project", self.project),
            ("implies", self.implies),
        ]
    }

    pub fn total_queries(&self) -> u64 {
        self.kinds().iter().map(|(_, q)| q.total()).sum()
    }

    /// Total queries answered by the dense tier, across every kind.
    pub fn total_dense(&self) -> u64 {
        self.kinds().iter().map(|(_, q)| q.dense).sum()
    }

    /// Fraction of queries the dense tier answered, across every kind
    /// (0 when nothing was asked).
    pub fn tier_hit_rate(&self) -> f64 {
        let t = self.total_queries();
        if t == 0 {
            0.0
        } else {
            self.total_dense() as f64 / t as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "session: {} queries; {} regions interned",
            self.total_queries(),
            self.interned_regions,
        )?;
        for (name, q) in self.kinds() {
            if q.total() > 0 {
                write!(f, "  {name:<10} {:>8} asked", q.total())?;
                if q.dense > 0 {
                    write!(
                        f,
                        " [dense {} / general {} = {:.1}% dense]",
                        q.dense,
                        q.general,
                        100.0 * q.dense_rate()
                    )?;
                }
                writeln!(f)?;
            }
        }
        let (dense, total) = (self.total_dense(), self.total_queries());
        if total > 0 {
            writeln!(
                f,
                "  tier: {} dense / {} general ({:.1}% dense)",
                dense,
                total - dense,
                100.0 * self.tier_hit_rate()
            )?;
        }
        writeln!(f, "  fm-projections run: {}", self.fm_projections)?;
        if self.orders_total > 0 {
            writeln!(
                f,
                "  pair-orders: {} tested, {} refuted before any system was built ({:.1}%)",
                self.orders_total,
                self.orders_refuted,
                100.0 * self.orders_refuted as f64 / self.orders_total as f64
            )?;
        }
        write!(f, "  limit overflows: {}", self.limit_overflows)?;
        if self.budget_steps > 0 {
            write!(
                f,
                "\n  budget: {} steps, peak {} disjuncts / {} constraints, {} degraded procedure(s)",
                self.budget_steps, self.peak_disjuncts, self.peak_constraints, self.degraded_procs
            )?;
        }
        if let Some(st) = &self.store {
            write!(
                f,
                "\n  store: {} hits {} misses ({:.1}% hit rate), {} puts",
                st.hits,
                st.misses,
                100.0 * st.hit_rate(),
                st.puts
            )?;
            write!(
                f,
                "\n  store hygiene: {} quarantined, {} stale, {} retried; open {} us, put {} us",
                st.quarantined, st.stale, st.retries, st.open_us, st.put_us
            )?;
            if st.degraded {
                write!(f, "\n  store degraded: running in-memory only")?;
            } else if st.writes_degraded {
                write!(
                    f,
                    "\n  store degraded: persistence disabled, reads still served"
                )?;
            }
        }
        Ok(())
    }
}

/// State for one analysis run: options, the region interner,
/// per-procedure `$lat` pools, and statistics. Owned by one
/// thread (see the module docs); the interior mutability is there
/// because the analysis passes `&AnalysisSession` around, not because
/// anything is shared.
///
/// The compiler holds the line. These bounds are met by the options
/// a session is built from —
///
/// ```
/// fn crosses_threads<T: Send + Sync>() {}
/// crosses_threads::<padfa_core::Options>();
/// ```
///
/// — and by the session neither of them:
///
/// ```compile_fail,E0277
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<padfa_core::AnalysisSession>();
/// ```
///
/// ```compile_fail,E0277
/// fn moved_to_another_thread<T: Send>() {}
/// moved_to_another_thread::<padfa_core::AnalysisSession>();
/// ```
pub struct AnalysisSession {
    pub opts: Options,
    /// Every region a query returns, one `Arc` per distinct value. Its
    /// work is the emptiness verdict cell: a region that comes back
    /// equal to one met before comes back as *that* handle, carrying
    /// whatever verdict was already learned, so the verdict is learned
    /// once per distinct region rather than once per computation. That
    /// is worth more than it costs: without the interner the corpus asks
    /// 31,626 emptiness questions instead of 23,703, charges 67,794
    /// budget steps instead of 59,871 at `--max-steps 10000000`, and at
    /// `--max-steps 5000` keeps 1,993 parallel loops instead of 2,182.
    /// Operands are not interned: only results are.
    regions: Interner<Disjunction>,
    /// Emptiness questions put to a system (a region whose verdict cell
    /// answered asked none), and how many of them the closed form
    /// answered. Every other query is general: only emptiness has a
    /// closed form.
    sys_empty: Cell<u64>,
    sys_empty_dense: Cell<u64>,
    /// Queries of the other kinds, each computed every time it is asked.
    subset: Cell<u64>,
    subtract: Cell<u64>,
    intersect: Cell<u64>,
    union: Cell<u64>,
    project: Cell<u64>,
    implies: Cell<u64>,
    fm_projections: Cell<u64>,
    orders_total: Cell<u64>,
    orders_refuted: Cell<u64>,
    lat_overflow: Cell<u64>,
    lat_pools: RefCell<HashMap<String, u32>>,
    budget_steps: Cell<u64>,
    peak_disjuncts: Cell<usize>,
    peak_constraints: Cell<usize>,
    degraded_procs: Cell<u64>,
    /// This thread's `limit_stats` count at session creation: `stats()`
    /// reports the difference.
    overflow_baseline: u64,
    /// Optional persistent store of procedure summaries, consulted by
    /// the interprocedural driver once per procedure.
    store: Option<SessionStore>,
    /// The caller reads every procedure's summary ([`Self::with_summaries`]).
    summaries: bool,
    /// Pins the session to the thread that made it: its baselines and
    /// meters are that thread's thread-locals.
    _one_thread: PhantomData<*const ()>,
}

/// A persistent store attached to this session, with the session's
/// options fingerprint (mixed into every procedure key).
struct SessionStore {
    store: Arc<Store>,
    opts_fp: u128,
}

impl AnalysisSession {
    pub fn new(opts: Options) -> AnalysisSession {
        // Surface the tier kill-switch in the flight ring: one instant
        // per session, so a forced-general run is attributable
        // post-hoc (per request, once trace-tagged by the service).
        if difference::force_general() {
            crate::flight::instant(
                crate::flight::EventKind::TierForcedGeneral,
                "PADFA_FORCE_GENERAL_TIER",
                1,
            );
        }
        AnalysisSession {
            opts,
            regions: Interner::new(),
            sys_empty: Cell::new(0),
            sys_empty_dense: Cell::new(0),
            subset: Cell::new(0),
            subtract: Cell::new(0),
            intersect: Cell::new(0),
            union: Cell::new(0),
            project: Cell::new(0),
            implies: Cell::new(0),
            fm_projections: Cell::new(0),
            orders_total: Cell::new(0),
            orders_refuted: Cell::new(0),
            lat_overflow: Cell::new(0),
            lat_pools: RefCell::new(HashMap::new()),
            budget_steps: Cell::new(0),
            peak_disjuncts: Cell::new(0),
            peak_constraints: Cell::new(0),
            degraded_procs: Cell::new(0),
            overflow_baseline: limit_stats::thread_overflows(),
            store: None,
            summaries: false,
            _one_thread: PhantomData,
        }
    }

    /// Attach a persistent store: the driver looks each procedure's
    /// summary up before analyzing it and writes computed ones back.
    /// Output is bit-identical with and without the store (a corrupt or
    /// failing store degrades to recomputation).
    ///
    /// Budgeted sessions ignore the attachment: a store hit skips the
    /// work a computation would have charged, so step accounting — and
    /// with it degradation decisions — could depend on what a previous
    /// run happened to persist.
    pub fn with_store(mut self, s: Arc<Store>) -> AnalysisSession {
        if !self.opts.budget.is_unlimited() {
            return self;
        }
        let opts_fp = store::options_fingerprint(&self.opts);
        self.store = Some(SessionStore { store: s, opts_fp });
        self
    }

    /// Ask for every procedure's summary. Without it the driver computes
    /// only the summaries something reads — a caller's call site or a
    /// store put — and `analyze_program_session` returns only those;
    /// the loop reports are the same either way.
    pub fn with_summaries(mut self) -> AnalysisSession {
        self.summaries = true;
        self
    }

    /// Whether the caller asked for every summary.
    pub(crate) fn summaries_wanted(&self) -> bool {
        self.summaries
    }

    /// The attached store (for the interprocedural driver and stats).
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref().map(|s| &s.store)
    }

    /// The session's options fingerprint, mixed into every store key.
    pub(crate) fn store_opts_fp(&self) -> Option<u128> {
        self.store.as_ref().map(|s| s.opts_fp)
    }

    /// Lattice queries asked of this session so far. The driver reads
    /// the growth of this number around a procedure for the procedure's
    /// `lattice-batch` flight event.
    pub(crate) fn queries(&self) -> u64 {
        [
            &self.sys_empty,
            &self.subset,
            &self.subtract,
            &self.intersect,
            &self.union,
            &self.project,
            &self.implies,
        ]
        .iter()
        .map(|c| c.get())
        .sum()
    }

    pub fn limits(&self) -> Limits {
        self.opts.limits
    }

    /// Intern a region, returning the canonical shared handle. Takes
    /// the region by value: every caller holds a result it has just
    /// computed or decoded, and a miss moves it into the handle.
    pub fn intern_region(&self, d: Disjunction) -> Arc<Disjunction> {
        self.regions.intern(d)
    }

    /// Region emptiness (every disjunct empty), asked of the region's
    /// verdict cell first and of its systems only when the cell is
    /// blank; see the module docs for what is written back.
    pub fn is_empty(&self, d: &Disjunction) -> bool {
        if let Some(empty) = d.known_emptiness() {
            return empty;
        }
        let mut exact = true;
        let empty = d.systems().iter().all(|s| {
            let (empty, tier) = self.sys_is_empty(s);
            exact &= tier == Tier::Dense;
            empty
        });
        if exact {
            d.note_emptiness(empty);
        }
        empty
    }

    /// Emptiness of one system and the tier that answered. What normal
    /// form already decided — a contradiction, an empty conjunction — is
    /// no query: exact, free, and reported as closed form.
    fn sys_is_empty(&self, s: &System) -> (bool, Tier) {
        if s.is_contradiction() {
            return (true, Tier::Dense);
        }
        if s.is_empty_conjunction() {
            return (false, Tier::Dense);
        }
        budget::charge(1);
        bump(&self.sys_empty);
        let (empty, tier) = s.is_empty_tiered(self.limits());
        if tier == Tier::Dense {
            bump(&self.sys_empty_dense);
        }
        (empty, tier)
    }

    /// `a ⊆ b`.
    pub fn subset_of(&self, a: &Disjunction, b: &Disjunction) -> bool {
        charge_pair(a, b);
        bump(&self.subset);
        a.subset_of(b, self.limits())
    }

    /// Region subtraction `a − b`, interned.
    pub fn subtract(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        charge_pair(a, b);
        bump(&self.subtract);
        self.intern_region(a.subtract(b, self.limits()))
    }

    /// Region intersection, interned.
    pub fn intersect(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        charge_pair(a, b);
        bump(&self.intersect);
        self.intern_region(a.intersect(b, self.limits()))
    }

    /// Region union, interned.
    pub fn union(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        charge_pair(a, b);
        bump(&self.union);
        self.intern_region(a.union(b, self.limits()))
    }

    /// Fourier–Motzkin projection of `vars` out of `d`, interned.
    pub fn project_out(&self, d: &Disjunction, vars: &[Var]) -> Arc<Disjunction> {
        budget::charge(1);
        budget::note_region(d);
        bump(&self.project);
        bump(&self.fm_projections);
        self.intern_region(d.project_out(vars, self.limits()))
    }

    /// Predicate implication `a ⇒ b`.
    pub fn implies(&self, a: &Pred, b: &Pred) -> bool {
        // Trivial cases are not queries: they dominate call counts and
        // cost no step.
        if b.is_true() || a == b || a.is_false() {
            return true;
        }
        budget::charge(1);
        bump(&self.implies);
        a.implies(b, self.limits())
    }

    /// Count one Fourier–Motzkin projection run outside `project_out`
    /// (system-level projections in extraction and reshape).
    pub fn note_fm_projection(&self) {
        bump(&self.fm_projections);
    }

    /// Count one pair-order of a dependence or privatization test (`w`
    /// against `x2` under one iteration order). One refuted without
    /// building the intersection is charged here as the `intersect` it
    /// stands in for — one step, the operand sizes — and counts no
    /// query; one that survives is charged by the queries that build it.
    pub(crate) fn note_pair_order(&self, w: &Disjunction, x2: &Disjunction, refuted: bool) {
        if refuted {
            charge_pair(w, x2);
            bump(&self.orders_refuted);
        }
        bump(&self.orders_total);
    }

    /// The next deterministic lattice-existential name for `proc`
    /// (`$lat.<proc>.<k>`): the k-th request in a procedure's walk
    /// always gets the k-th name, and names inside the pre-interned
    /// pool were interned before the walk started.
    pub fn lat_var(&self, proc: &str) -> Var {
        let k = {
            let mut pools = self.lat_pools.borrow_mut();
            let c = pools.entry(proc.to_string()).or_insert(0);
            let k = *c;
            *c += 1;
            k
        };
        if k >= LAT_POOL {
            bump(&self.lat_overflow);
        }
        Var::new(&format!("$lat.{proc}.{k}"))
    }

    /// How many `$lat` requests for `proc` have fallen beyond the
    /// pre-interned pool so far; deltas of this value around a loop's
    /// classification attribute overflows to that loop.
    pub(crate) fn lat_overflow_for(&self, proc: &str) -> u64 {
        self.lat_pools
            .borrow()
            .get(proc)
            .map_or(0, |&used| u64::from(used.saturating_sub(LAT_POOL)))
    }

    /// Deterministic pre-interning prepass: intern every synthetic
    /// variable name the analysis of `prog` can create, in program
    /// order, before the walk starts. See the module docs for why this
    /// is required for bit-deterministic output.
    pub fn pre_intern(&self, prog: &Program) {
        for proc in &prog.procedures {
            // Dimension variables for every visible array.
            for d in &proc.arrays {
                for k in 0..d.dims.len() {
                    crate::region::dim_var(d.name, k);
                }
            }
            for p in &proc.params {
                if let ParamTy::Array { dims, .. } = &p.ty {
                    for k in 0..dims.len() {
                        crate::region::dim_var(p.name, k);
                    }
                }
            }
            // Loop-index bookkeeping names.
            let mut strided = false;
            pre_intern_block(&proc.body, proc, &mut strided);
            if strided {
                for k in 0..LAT_POOL {
                    Var::new(&format!("$lat.{}.{}", proc.name, k));
                }
            }
        }
    }

    /// Fold one procedure's budget-meter report into the session
    /// counters (called by the driver after each procedure).
    pub(crate) fn note_proc_meter(&self, m: &budget::MeterReport) {
        self.budget_steps.set(self.budget_steps.get() + m.steps);
        self.peak_disjuncts
            .set(self.peak_disjuncts.get().max(m.peak_disjuncts));
        self.peak_constraints
            .set(self.peak_constraints.get().max(m.peak_constraints));
    }

    /// Record one budget-degraded procedure.
    pub(crate) fn note_degraded(&self) {
        bump(&self.degraded_procs);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StatsSnapshot {
        let general = |asked: &Cell<u64>| QueryStats {
            dense: 0,
            general: asked.get(),
        };
        let dense = self.sys_empty_dense.get();
        StatsSnapshot {
            sys_empty: QueryStats {
                dense,
                general: self.sys_empty.get() - dense,
            },
            subset: general(&self.subset),
            subtract: general(&self.subtract),
            intersect: general(&self.intersect),
            union: general(&self.union),
            project: general(&self.project),
            implies: general(&self.implies),
            interned_regions: self.regions.len(),
            fm_projections: self.fm_projections.get(),
            orders_total: self.orders_total.get(),
            orders_refuted: self.orders_refuted.get(),
            lat_overflow: self.lat_overflow.get(),
            budget_steps: self.budget_steps.get(),
            peak_disjuncts: self.peak_disjuncts.get(),
            peak_constraints: self.peak_constraints.get(),
            degraded_procs: self.degraded_procs.get(),
            limit_overflows: limit_stats::thread_overflows() - self.overflow_baseline,
            store: self.store.as_ref().map(|s| s.store.stats()),
        }
    }
}

/// Add one to a session counter.
#[inline]
fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// Charge one budget step for a query on two regions, noting their
/// sizes.
fn charge_pair(a: &Disjunction, b: &Disjunction) {
    budget::charge(1);
    budget::note_region(a);
    budget::note_region(b);
}

/// Walk a block interning the per-loop synthetic names `handle_loop` and
/// `test_loop` will request: the primed index, the `$prev` copy, and —
/// for strided loops — the step-lattice counter with its primed and
/// `$prev` variants.
fn pre_intern_block(b: &Block, proc: &Procedure, strided: &mut bool) {
    for s in &b.stmts {
        match s {
            Stmt::For(l) => {
                crate::region::primed(l.var);
                l.var.derived(Derived::Prev);
                if l.step.abs() > 1 {
                    *strided = true;
                    let t = l.var.derived(Derived::Step(&proc.name));
                    crate::region::primed(t);
                    t.derived(Derived::Prev);
                }
                pre_intern_block(&l.body, proc, strided);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                pre_intern_block(then_blk, proc, strided);
                pre_intern_block(else_blk, proc, strided);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padfa_omega::{Constraint, LinExpr};

    fn interval(var: &str, lo: i64, hi: i64) -> Disjunction {
        let v = Var::new(var);
        Disjunction::from_system(System::from_constraints([
            Constraint::geq(LinExpr::var(v), LinExpr::constant(lo)),
            Constraint::leq(LinExpr::var(v), LinExpr::constant(hi)),
        ]))
    }

    #[test]
    fn interning_dedups_equal_regions() {
        let sess = AnalysisSession::new(Options::predicated());
        let a = sess.intern_region(interval("d", 1, 10));
        let b = sess.intern_region(interval("d", 1, 10));
        assert!(Arc::ptr_eq(&a, &b));
        let c = sess.intern_region(interval("d", 1, 11));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(sess.stats().interned_regions, 2);
    }

    #[test]
    fn repeated_queries_compute_equal_results_and_count_twice() {
        let sess = AnalysisSession::new(Options::predicated());
        let a = interval("d", 1, 10);
        let b = interval("d", 20, 30);
        let r1 = sess.union(&a, &b);
        let r2 = sess.union(&a, &b);
        // Computed twice, interned once: the second result is the first
        // handle, so whatever verdict it learned is still there.
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(*r1, a.union(&b, Limits::default()));
        let dv = Var::new("d");
        sess.project_out(&a, &[dv]);
        sess.project_out(&a, &[dv]);
        let st = sess.stats();
        assert_eq!(st.union.total(), 2);
        assert_eq!((st.project.total(), st.fm_projections), (2, 2));
        assert_eq!(st.interned_regions, 2, "operands are not interned");
    }

    #[test]
    fn a_repeated_capped_intersection_counts_each_overflow() {
        // Two pieces against one under a cap of one disjunct: every
        // computation of the intersection hits the cap, and each one
        // asked is counted — a repeat is not a free lookup.
        let mut opts = Options::predicated();
        opts.limits.max_disjuncts = 1;
        let sess = AnalysisSession::new(opts);
        let mut a = interval("d", 1, 10);
        a.push(interval("d", 20, 30).systems()[0].clone());
        let b = interval("d", 1, 30);
        let r1 = sess.intersect(&a, &b);
        let r2 = sess.intersect(&a, &b);
        assert!(Arc::ptr_eq(&r1, &r2));
        let st = sess.stats();
        assert_eq!(st.intersect.total(), 2);
        assert_eq!(st.limit_overflows, 2);
    }

    #[test]
    fn session_results_match_fresh_computation() {
        let sess = AnalysisSession::new(Options::predicated());
        let a = interval("d", 1, 10);
        let b = interval("d", 3, 7);
        let lim = Limits::default();
        assert_eq!(*sess.union(&a, &b), a.union(&b, lim));
        assert_eq!(*sess.intersect(&a, &b), a.intersect(&b, lim));
        assert_eq!(sess.subset_of(&b, &a), b.subset_of(&a, lim));
        assert_eq!(sess.is_empty(&a), a.is_empty(lim));
        let dv = Var::new("d");
        assert_eq!(*sess.project_out(&a, &[dv]), a.project_out(&[dv], lim));
    }

    /// Term counts of every constraint of every system of every region
    /// the session interned.
    fn term_counts(sess: &AnalysisSession, hist: &mut [u64; 8]) {
        sess.regions.for_each(|d| {
            for c in d.systems().iter().flat_map(System::constraints) {
                hist[c.expr.num_terms().min(7)] += 1;
            }
        });
    }

    #[test]
    fn term_count_histogram_backs_the_inline_capacity() {
        // The evidence `LinExpr`'s inline capacity was chosen from
        // (`--nocapture` prints it): the corpus and 240 generated
        // programs, under all three variants. The histogram is over
        // what the sessions interned; the spill count also sees every
        // transient expression (the analysis runs on this thread).
        use padfa_ir::testgen::{random_program, GenConfig};
        use padfa_omega::linexpr::spills;
        let variants = || [Options::base(), Options::guarded(), Options::predicated()];
        let mut hist = [0u64; 8];
        let before = spills();
        for bench in padfa_suite::build_corpus() {
            for opts in variants() {
                let sess = AnalysisSession::new(opts);
                crate::analyze_program_session(&bench.program, &sess).unwrap();
                term_counts(&sess, &mut hist);
            }
        }
        println!("corpus: interned constraints by term count {hist:?}");
        assert_eq!(spills() - before, 0, "the corpus left the inline buffer");
        for seed in 0..240 {
            let prog = random_program(seed, GenConfig::default());
            for opts in variants() {
                let sess = AnalysisSession::new(opts);
                // A generated program may be rejected; what was built
                // until then still counts.
                let _ = crate::analyze_program_session(&prog, &sess);
                term_counts(&sess, &mut hist);
            }
        }
        let (total, spilled) = (hist.iter().sum::<u64>(), spills() - before);
        println!("corpus + generated: {hist:?}; {spilled} expressions spilled");
        assert!(total > 100_000, "only {total} constraints seen");
        assert!(hist[3] > 0, "nothing reached the last inline slot");
        assert!(spilled > 0, "nothing exercised the spill path");
        assert!(
            spilled * 100 <= total,
            "{spilled} spills against {total} interned constraints: \
             the inline capacity is too small"
        );
    }

    /// A random region over two variables: unit bounds and differences
    /// (the closure's) mixed with sums and non-unit coefficients
    /// (elimination's). Two variables keep elimination under a cap of
    /// four constraints exact wherever the closure would answer: what is
    /// left after the first elimination is bounds on one variable.
    fn random_region(rng: &mut rand::rngs::StdRng) -> Disjunction {
        use rand::Rng;
        let vars = [Var::new("ec_x"), Var::new("ec_y")];
        let mut d = Disjunction::empty();
        for _ in 0..rng.gen_range(0..4) {
            let mut sys = System::universe();
            for _ in 0..rng.gen_range(1..6) {
                let (u, w) = (
                    vars[rng.gen_range(0..2usize)],
                    vars[rng.gen_range(0..2usize)],
                );
                let mut e = LinExpr::constant(rng.gen_range(-6..7));
                e.add_term(u, [1, -1][rng.gen_range(0..2usize)]);
                match rng.gen_range(0..4) {
                    0 => {}
                    1 => e.add_term(w, -e.coeff(u)),
                    2 => e.add_term(w, e.coeff(u)),
                    _ => e.add_term(w, rng.gen_range(-3..4)),
                }
                sys.push(if rng.gen_range(0..5) == 0 {
                    Constraint::eq0(e)
                } else {
                    Constraint::geq0(e)
                });
            }
            d.push(sys);
        }
        d
    }

    #[test]
    fn a_cached_verdict_is_what_any_session_would_compute() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xce11);
        let sess = AnalysisSession::new(Options::predicated());
        let mut tight = Options::predicated();
        tight.limits = Limits {
            max_constraints: 4,
            ..Limits::default()
        };
        let tight = AnalysisSession::new(tight);
        let point = Constraint::eq(LinExpr::var(Var::new("ec_x")), LinExpr::constant(0));
        let (mut cached, mut emptied, mut refilled) = (0, 0, 0);
        for case in 0..3000 {
            let d = random_region(&mut rng);
            let want = d.is_empty(sess.limits());
            assert_eq!(sess.is_empty(&d), want, "case {case}, first ask: {d}");
            cached += usize::from(d.known_emptiness().is_some());
            assert_eq!(sess.is_empty(&d), want, "case {case}, second ask: {d}");
            assert_eq!(
                tight.is_empty(&d),
                d.is_empty(tight.limits()),
                "case {case}, tight session: {d}"
            );
            // A copy starts blank, and a push forgets what was learned.
            let mut grown = d.clone();
            assert_eq!(grown.known_emptiness(), None);
            grown.push(System::from_constraints([point.clone()]));
            assert!(!sess.is_empty(&grown), "case {case}: {grown}");
            emptied += usize::from(want);
            let mut asked = d.clone();
            sess.is_empty(&asked);
            asked.push(System::from_constraints([point.clone()]));
            refilled += usize::from(want && asked.known_emptiness().is_none());
            assert!(!sess.is_empty(&asked), "case {case}: {asked}");
        }
        assert!(cached > 1000, "only {cached} verdicts cached");
        assert!(emptied > 300, "only {emptied} empty regions");
        assert_eq!(refilled, emptied);
    }

    #[test]
    fn only_closed_form_verdicts_are_cached() {
        let sess = AnalysisSession::new(Options::predicated());
        let [x, y, z] = ["ec_x", "ec_y", "ec_z"].map(|n| LinExpr::var(Var::new(n)));
        // x + y >= 1 under x, y <= 0: a sum, so elimination decides it.
        let general = Disjunction::from_system(System::from_constraints([
            Constraint::geq(x.clone() + y.clone(), LinExpr::constant(1)),
            Constraint::leq(x.clone(), LinExpr::constant(0)),
            Constraint::leq(y.clone(), LinExpr::constant(0)),
        ]));
        // x > y >= z >= x: a negative cycle, so the closure decides it.
        let dense = Disjunction::from_system(System::from_constraints([
            Constraint::gt(x.clone(), y.clone()),
            Constraint::geq(y.clone(), z.clone()),
            Constraint::geq(z, x.clone()),
        ]));
        for ask in 1..=3 {
            assert!(sess.is_empty(&general));
            assert!(sess.is_empty(&dense));
            let st = sess.stats().sys_empty;
            assert_eq!((st.total(), st.dense), (ask + 1, 1), "ask {ask}");
        }
        assert_eq!(general.known_emptiness(), None);
        assert_eq!(dense.known_emptiness(), Some(true));
    }

    #[test]
    fn the_verdict_cell_is_not_part_of_the_value() {
        use std::hash::{BuildHasher, RandomState};
        let sess = AnalysisSession::new(Options::predicated());
        let blank = interval("d", 1, 10);
        let asked = blank.clone();
        assert!(!sess.is_empty(&asked));
        assert_eq!(
            (blank.known_emptiness(), asked.known_emptiness()),
            (None, Some(false))
        );
        assert_eq!(blank, asked);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&blank), hasher.hash_one(&asked));
        let (a, b) = (sess.intern_region(blank), sess.intern_region(asked));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(sess.stats().interned_regions, 1);
    }

    #[test]
    fn lat_pool_is_deterministic_per_proc() {
        let sess = AnalysisSession::new(Options::predicated());
        let a0 = sess.lat_var("p");
        let a1 = sess.lat_var("p");
        let b0 = sess.lat_var("q");
        assert_eq!(a0, Var::new("$lat.p.0"));
        assert_eq!(a1, Var::new("$lat.p.1"));
        assert_eq!(b0, Var::new("$lat.q.0"));
        assert_eq!(sess.stats().lat_overflow, 0);
    }

    #[test]
    fn trivial_implications_are_not_counted() {
        let sess = AnalysisSession::new(Options::predicated());
        assert!(sess.implies(&Pred::True, &Pred::True));
        assert!(sess.implies(&Pred::False, &Pred::True));
        assert_eq!(sess.stats().implies.total(), 0);
    }
}
