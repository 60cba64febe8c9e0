//! The analysis session: hash-consed regions and predicates, memoized
//! lattice queries, and deterministic synthetic-name management.
//!
//! The data-flow lattice operations (`is_empty`, `subset_of`,
//! `subtract`, `intersect`, `union`, `project_out`, predicate
//! implication) are pure functions of their operands and the session's
//! [`Options`]. The analysis evaluates them over a small population of
//! recurring values — the same loop regions reappear in every `seq`
//! composition, every `normalize` pass, and every dependence pair — so
//! an [`AnalysisSession`] interns regions and predicates into `Arc`
//! handles with stable `u32` ids and memoizes `intersect`, `union`,
//! `project_out` and `implies` on those ids. `subset_of` and `subtract`
//! are computed every time: they repeat too rarely for a table to pay
//! (their results are still interned).
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
//! neither `Send` nor `Sync`, and its tables and counters are plain
//! `RefCell` / `Cell` state ([`crate::shard`]). Nothing inside one
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
//! 1. The walk is sequential, memo keys are *structural*, and the
//!    operations are deterministic pure functions — so a cache hit (or
//!    a verdict read from a region's cell) returns exactly what a fresh
//!    computation would, and every counter a session publishes repeats
//!    exactly. (Interned ids only key memo entries; they never reach the
//!    output.)
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
use crate::tables::{Interner, Memo};
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
/// tier that answered it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Whether the kind has a memo table. A kind without one computes
    /// every query it is asked: `hits` stays 0, `misses` counts the
    /// queries, and no `memo.<kind>.*` counter is published.
    pub memoized: bool,
    pub hits: u64,
    pub misses: u64,
    /// Queries answered in closed form, without elimination
    /// ([`padfa_omega::Tier::Dense`]): `sys_empty` answers of the
    /// difference-bound closure, zero for every other kind.
    pub dense: u64,
    /// Queries answered by the general Fourier–Motzkin representation
    /// (`total() - dense`).
    pub general: u64,
}

impl QueryStats {
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of queries served from the memo table (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Fraction of queries the dense tier answered (0 when unused).
    pub fn dense_rate(&self) -> f64 {
        let t = self.dense + self.general;
        if t == 0 {
            0.0
        } else {
            self.dense as f64 / t as f64
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
    /// Distinct interned regions / predicates.
    pub interned_regions: usize,
    pub interned_preds: usize,
    /// Peak memo-table entry count across all tables (tables only grow,
    /// so the snapshot value is the peak).
    pub peak_table_entries: usize,
    /// Fourier–Motzkin projection computations actually run (memoized
    /// projection misses; hits avoid these entirely).
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
    /// The per-kind counters, by kind name, in [`crate::metrics::QueryKind`] order.
    pub(crate) fn tables(&self) -> [(&'static str, QueryStats); 7] {
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

    pub fn total_hits(&self) -> u64 {
        self.tables().iter().map(|(_, q)| q.hits).sum()
    }

    pub fn total_queries(&self) -> u64 {
        self.tables().iter().map(|(_, q)| q.total()).sum()
    }

    /// Total queries answered by the dense tier, across every kind.
    pub fn total_dense(&self) -> u64 {
        self.tables().iter().map(|(_, q)| q.dense).sum()
    }

    /// Fraction of tiered queries the dense tier answered, across every
    /// kind (0 when nothing was tiered).
    pub fn tier_hit_rate(&self) -> f64 {
        let tiered: u64 = self.tables().iter().map(|(_, q)| q.dense + q.general).sum();
        if tiered == 0 {
            0.0
        } else {
            self.total_dense() as f64 / tiered as f64
        }
    }

    /// Overall memo hit rate across every query kind.
    pub fn hit_rate(&self) -> f64 {
        let t = self.total_queries();
        if t == 0 {
            0.0
        } else {
            self.total_hits() as f64 / t as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "session: {} queries, {:.1}% memo hits; {} regions / {} preds interned",
            self.total_queries(),
            100.0 * self.hit_rate(),
            self.interned_regions,
            self.interned_preds,
        )?;
        for (name, q) in self.tables() {
            if q.total() > 0 {
                if q.memoized {
                    write!(
                        f,
                        "  {name:<10} {:>8} hits {:>8} misses ({:.1}%)",
                        q.hits,
                        q.misses,
                        100.0 * q.hit_rate()
                    )?;
                } else {
                    write!(f, "  {name:<10} {:>8} asked, not memoized", q.total())?;
                }
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
        let dense = self.total_dense();
        let tiered: u64 = self.tables().iter().map(|(_, q)| q.dense + q.general).sum();
        if tiered > 0 {
            writeln!(
                f,
                "  tier: {} dense / {} general ({:.1}% dense)",
                dense,
                tiered - dense,
                100.0 * dense as f64 / tiered as f64
            )?;
        }
        writeln!(
            f,
            "  fm-projections run: {}; peak table: {} entries",
            self.fm_projections, self.peak_table_entries
        )?;
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

/// State for one analysis run: options, hash-consing interners, memo
/// tables, per-procedure `$lat` pools, and statistics. Owned by one
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
    regions: Interner<Disjunction>,
    preds: Interner<Pred>,
    m_intersect: Memo<(u32, u32), Arc<Disjunction>>,
    m_union: Memo<(u32, u32), Arc<Disjunction>>,
    m_project: Memo<(u32, Vec<Var>), Arc<Disjunction>>,
    m_implies: Memo<(u32, u32), bool>,
    /// Emptiness questions put to a system (a region whose verdict cell
    /// answered asked none), and how many of them the closed form
    /// answered. Every other query is general: only emptiness has a
    /// closed form.
    sys_empty: Cell<u64>,
    sys_empty_dense: Cell<u64>,
    /// `subset_of` / `subtract` queries, computed every time.
    subset: Cell<u64>,
    subtract: Cell<u64>,
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
            preds: Interner::new(),
            m_intersect: Memo::new(),
            m_union: Memo::new(),
            m_project: Memo::new(),
            m_implies: Memo::new(),
            sys_empty: Cell::new(0),
            sys_empty_dense: Cell::new(0),
            subset: Cell::new(0),
            subtract: Cell::new(0),
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

    /// The attached store (for the interprocedural driver and stats).
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref().map(|s| &s.store)
    }

    /// The session's options fingerprint, mixed into every store key.
    pub(crate) fn store_opts_fp(&self) -> Option<u128> {
        self.store.as_ref().map(|s| s.opts_fp)
    }

    /// Lattice queries asked of this session so far: a memoized query
    /// probes its table exactly once, hit or miss. The driver reads the
    /// growth of this number around a procedure for the procedure's
    /// `lattice-batch` flight event.
    pub(crate) fn queries(&self) -> u64 {
        self.sys_empty.get()
            + self.subset.get()
            + self.subtract.get()
            + self.m_intersect.counters().total()
            + self.m_union.counters().total()
            + self.m_project.counters().total()
            + self.m_implies.counters().total()
    }

    pub fn limits(&self) -> Limits {
        self.opts.limits
    }

    /// Intern a region, returning the canonical shared handle. Takes
    /// the region by value: every caller holds a result it has just
    /// computed or decoded, and a miss moves it into the handle.
    pub fn intern_region(&self, d: Disjunction) -> Arc<Disjunction> {
        self.regions.intern_owned(d).0
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

    /// Memoized region intersection.
    pub fn intersect(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        charge_pair(a, b);
        let limits = self.limits();
        let (aa, ia) = self.regions.intern(a);
        let (ab, ib) = self.regions.intern(b);
        self.m_intersect
            .get_or((ia, ib), || self.intern_region(aa.intersect(&ab, limits)))
    }

    /// Memoized region union.
    pub fn union(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        charge_pair(a, b);
        let limits = self.limits();
        let (aa, ia) = self.regions.intern(a);
        let (ab, ib) = self.regions.intern(b);
        self.m_union
            .get_or((ia, ib), || self.intern_region(aa.union(&ab, limits)))
    }

    /// Memoized Fourier–Motzkin projection of `vars` out of `d`.
    pub fn project_out(&self, d: &Disjunction, vars: &[Var]) -> Arc<Disjunction> {
        budget::charge(1);
        budget::note_region(d);
        let limits = self.limits();
        let (ad, id) = self.regions.intern(d);
        self.m_project.get_or((id, vars.to_vec()), || {
            bump(&self.fm_projections);
            self.intern_region(ad.project_out(vars, limits))
        })
    }

    /// Memoized predicate implication `a ⇒ b`.
    pub fn implies(&self, a: &Pred, b: &Pred) -> bool {
        // Trivial cases stay out of the tables (they dominate call
        // counts and would drown the hit-rate signal).
        if b.is_true() || a == b {
            return true;
        }
        if a.is_false() {
            return true;
        }
        budget::charge(1);
        let limits = self.limits();
        let (aa, ia) = self.preds.intern(a);
        let (ab, ib) = self.preds.intern(b);
        self.m_implies.get_or((ia, ib), || aa.implies(&ab, limits))
    }

    /// Count one Fourier–Motzkin projection run outside the memoized
    /// path (system-level projections in extraction and reshape).
    pub fn note_fm_projection(&self) {
        bump(&self.fm_projections);
    }

    /// Count one pair-order of a dependence or privatization test (`w`
    /// against `x2` under one iteration order). One refuted without
    /// building the intersection is charged here as the `intersect` it
    /// stands in for — one step, the operand sizes — and touches no
    /// table; one that survives is charged by the queries that build it.
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
        let peak = [
            self.m_intersect.len(),
            self.m_union.len(),
            self.m_project.len(),
            self.m_implies.len(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        let tiered = |q: QueryStats, dense: u64| QueryStats {
            dense,
            general: q.total() - dense,
            ..q
        };
        let computed = |asked: &Cell<u64>| QueryStats {
            misses: asked.get(),
            ..QueryStats::default()
        };
        StatsSnapshot {
            sys_empty: tiered(computed(&self.sys_empty), self.sys_empty_dense.get()),
            subset: tiered(computed(&self.subset), 0),
            subtract: tiered(computed(&self.subtract), 0),
            intersect: tiered(self.m_intersect.counters(), 0),
            union: tiered(self.m_union.counters(), 0),
            project: tiered(self.m_project.counters(), 0),
            implies: tiered(self.m_implies.counters(), 0),
            interned_regions: self.regions.len(),
            interned_preds: self.preds.len(),
            peak_table_entries: peak,
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
    fn memoized_queries_hit_on_repeat() {
        let sess = AnalysisSession::new(Options::predicated());
        let a = interval("d", 1, 10);
        let b = interval("d", 20, 30);
        let r1 = sess.union(&a, &b);
        let r2 = sess.union(&a, &b);
        assert!(Arc::ptr_eq(&r1, &r2));
        let st = sess.stats();
        assert_eq!(st.union.hits, 1);
        assert_eq!(st.union.misses, 1);
        // And the results agree with the unmemoized operation.
        assert_eq!(*r1, a.union(&b, Limits::default()));
    }

    #[test]
    fn memoized_results_match_fresh_computation() {
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
    fn trivial_implications_bypass_tables() {
        let sess = AnalysisSession::new(Options::predicated());
        assert!(sess.implies(&Pred::True, &Pred::True));
        assert!(sess.implies(&Pred::False, &Pred::True));
        assert_eq!(sess.stats().implies.total(), 0);
    }
}
