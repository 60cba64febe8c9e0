//! The analysis session: hash-consed regions and predicates, memoized
//! lattice queries, and deterministic synthetic-name management.
//!
//! The data-flow lattice operations (`is_empty`, `subset_of`,
//! `subtract`, `intersect`, `union`, `project_out`, predicate
//! implication) are pure functions of their operands and the session's
//! [`Options`]. The analysis evaluates them over a small population of
//! recurring values — the same loop regions reappear in every `seq`
//! composition, every `normalize` pass, and every dependence pair — so
//! an [`AnalysisSession`] interns operands into `Arc` handles with
//! stable `u32` ids and memoizes each query on those ids.
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
//! Two runs of one program produce the same bytes, whatever else the
//! process is doing on other threads:
//!
//! 1. The walk is sequential, memo keys are *structural*, and the
//!    operations are deterministic pure functions — so a cache hit
//!    returns exactly what a fresh computation would, and every counter
//!    a session publishes repeats exactly. (Interned ids only key memo
//!    entries; they never reach the output.)
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
use crate::shard::{Interner, Memo};
use crate::store::{self, Store, StoreStatsSnapshot};
use padfa_ir::ast::{Block, ParamTy, Procedure, Program, Stmt};
use padfa_omega::{difference, limit_stats, Disjunction, Limits, System, Tier, Var};
use padfa_pred::Pred;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Pre-interned `$lat.<proc>.<k>` names per strided procedure; requests
/// beyond the pool fall back to on-the-fly interning (counted in
/// [`StatsSnapshot::lat_overflow`]).
const LAT_POOL: u32 = 256;

/// Hit/miss counters for one memoized query, split by the
/// representation tier that answered it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    pub hits: u64,
    pub misses: u64,
    /// Queries answered in closed form, without elimination
    /// ([`padfa_omega::Tier::Dense`]): `sys_empty` answers of the
    /// difference-bound closure, zero for every other kind. Memo hits
    /// replay the tier recorded by the original computation, so the
    /// split covers every query, not just misses.
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
    /// Distinct interned systems / regions / predicates.
    pub interned_systems: usize,
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
            "session: {} queries, {:.1}% memo hits; {} systems / {} regions / {} preds interned",
            self.total_queries(),
            100.0 * self.hit_rate(),
            self.interned_systems,
            self.interned_regions,
            self.interned_preds,
        )?;
        for (name, q) in self.tables() {
            if q.total() > 0 {
                write!(
                    f,
                    "  {name:<10} {:>8} hits {:>8} misses ({:.1}%)",
                    q.hits,
                    q.misses,
                    100.0 * q.hit_rate()
                )?;
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
                "\n  store: {} hits {} misses ({:.1}% hit rate), {} puts, {} loaded",
                st.hits,
                st.misses,
                100.0 * st.hit_rate(),
                st.puts,
                st.loaded
            )?;
            write!(
                f,
                "\n  store hygiene: {} quarantined, {} stale segment(s), {} salvaged, {} retried; \
                 open {} us, seal {} us",
                st.quarantined, st.stale_segments, st.salvaged, st.retries, st.open_us, st.seal_us
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
    systems: Interner<System>,
    regions: Interner<Disjunction>,
    preds: Interner<Pred>,
    m_sys_empty: Memo<u32, (bool, Tier)>,
    m_subset: Memo<(u32, u32), bool>,
    m_subtract: Memo<(u32, u32), Arc<Disjunction>>,
    m_intersect: Memo<(u32, u32), Arc<Disjunction>>,
    m_union: Memo<(u32, u32), Arc<Disjunction>>,
    m_project: Memo<(u32, Vec<Var>), Arc<Disjunction>>,
    m_implies: Memo<(u32, u32), bool>,
    /// `sys_empty` queries the closed form answered. Bumped once per
    /// query *call* — memo hits replay the stored tier — so the split
    /// weights recurring queries the way the workload does. Every other
    /// query is general: only emptiness has a closed form.
    sys_empty_dense: Cell<u64>,
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
            systems: Interner::new(),
            regions: Interner::new(),
            preds: Interner::new(),
            m_sys_empty: Memo::new(),
            m_subset: Memo::new(),
            m_subtract: Memo::new(),
            m_intersect: Memo::new(),
            m_union: Memo::new(),
            m_project: Memo::new(),
            m_implies: Memo::new(),
            sys_empty_dense: Cell::new(0),
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

    /// Memoized lattice queries asked of this session so far: every
    /// query probes its memo table exactly once, hit or miss. The
    /// driver reads the growth of this number around a procedure for
    /// the procedure's `lattice-batch` flight event.
    pub(crate) fn queries(&self) -> u64 {
        self.m_sys_empty.counters().total()
            + self.m_subset.counters().total()
            + self.m_subtract.counters().total()
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

    /// Memoized per-system emptiness.
    pub fn sys_is_empty(&self, s: &System) -> bool {
        // Fast paths that need no table round-trip.
        if s.is_contradiction() {
            return true;
        }
        if s.is_empty_conjunction() {
            return false;
        }
        budget::charge(1);
        let limits = self.limits();
        let (arc, id) = self.systems.intern(s);
        let (empty, tier) = self.m_sys_empty.get_or(id, || arc.is_empty_tiered(limits));
        if tier == Tier::Dense {
            bump(&self.sys_empty_dense);
        }
        empty
    }

    /// Memoized region emptiness (every disjunct empty). Decomposing to
    /// per-system queries lets regions that share disjuncts share work.
    pub fn is_empty(&self, d: &Disjunction) -> bool {
        d.systems().iter().all(|s| self.sys_is_empty(s))
    }

    /// Memoized `a ⊆ b`.
    pub fn subset_of(&self, a: &Disjunction, b: &Disjunction) -> bool {
        budget::charge(1);
        budget::note_region(a);
        budget::note_region(b);
        let limits = self.limits();
        let (aa, ia) = self.regions.intern(a);
        let (ab, ib) = self.regions.intern(b);
        self.m_subset.get_or((ia, ib), || aa.subset_of(&ab, limits))
    }

    /// Memoized region subtraction `a − b`.
    pub fn subtract(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        budget::charge(1);
        budget::note_region(a);
        budget::note_region(b);
        let limits = self.limits();
        let (aa, ia) = self.regions.intern(a);
        let (ab, ib) = self.regions.intern(b);
        self.m_subtract
            .get_or((ia, ib), || self.intern_region(aa.subtract(&ab, limits)))
    }

    /// Memoized region intersection.
    pub fn intersect(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        budget::charge(1);
        budget::note_region(a);
        budget::note_region(b);
        let limits = self.limits();
        let (aa, ia) = self.regions.intern(a);
        let (ab, ib) = self.regions.intern(b);
        self.m_intersect
            .get_or((ia, ib), || self.intern_region(aa.intersect(&ab, limits)))
    }

    /// Memoized region union.
    pub fn union(&self, a: &Disjunction, b: &Disjunction) -> Arc<Disjunction> {
        budget::charge(1);
        budget::note_region(a);
        budget::note_region(b);
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
            budget::charge(1);
            budget::note_region(w);
            budget::note_region(x2);
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
            self.m_sys_empty.len(),
            self.m_subset.len(),
            self.m_subtract.len(),
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
        StatsSnapshot {
            sys_empty: tiered(self.m_sys_empty.counters(), self.sys_empty_dense.get()),
            subset: tiered(self.m_subset.counters(), 0),
            subtract: tiered(self.m_subtract.counters(), 0),
            intersect: tiered(self.m_intersect.counters(), 0),
            union: tiered(self.m_union.counters(), 0),
            project: tiered(self.m_project.counters(), 0),
            implies: tiered(self.m_implies.counters(), 0),
            interned_systems: self.systems.len(),
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

/// Walk a block interning the per-loop synthetic names `handle_loop` and
/// `test_loop` will request: the primed index, the `$prev` copy, and —
/// for strided loops — the step-lattice counter with its primed and
/// `$prev` variants.
fn pre_intern_block(b: &Block, proc: &Procedure, strided: &mut bool) {
    for s in &b.stmts {
        match s {
            Stmt::For(l) => {
                crate::region::primed(l.var);
                Var::new(&format!("$prev.{}", l.var.name()));
                if l.step.abs() > 1 {
                    *strided = true;
                    let t = Var::new(&format!("$step.{}.{}", proc.name, l.var.name()));
                    crate::region::primed(t);
                    Var::new(&format!("$prev.{}", t.name()));
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
        let b = interval("d", 5, 20);
        let r1 = sess.subtract(&a, &b);
        let r2 = sess.subtract(&a, &b);
        assert!(Arc::ptr_eq(&r1, &r2));
        let st = sess.stats();
        assert_eq!(st.subtract.hits, 1);
        assert_eq!(st.subtract.misses, 1);
        // And the results agree with the unmemoized operation.
        assert_eq!(*r1, a.subtract(&b, Limits::default()));
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

    /// Term counts of every constraint of every system the session
    /// interned.
    fn term_counts(sess: &AnalysisSession, hist: &mut [u64; 8]) {
        sess.systems.for_each(|s| {
            for c in s.constraints() {
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
