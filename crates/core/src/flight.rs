//! Always-on flight recorder: a fixed-capacity, striped ring buffer of
//! structured analysis events.
//!
//! The feature-gated Chrome trace ([`crate::trace`]) is a deep-dive
//! tool: it buffers *every* span unboundedly and must be armed by hand.
//! Production diagnosis needs the opposite trade — always recording,
//! never growing: this module keeps the last [`capacity`] events in a
//! striped ring with relaxed-atomic sequencing and overwrite-on-wrap,
//! so the recent past of any process (CLI run or `padfa serve` worker)
//! can be dumped after the fact at `O(capacity)` cost and zero
//! steady-state allocation beyond the ring itself.
//!
//! ## Event taxonomy
//!
//! Span kinds (`Begin`/`End` pairs, `End` carries the duration):
//! `parse`, `driver` (pre-intern, then the walk over the procedures),
//! `summarize` (one per procedure), `loop` (one per analyzed loop), and
//! `request` (one per service request). Instant kinds: `lattice-batch`
//! (one per procedure, carrying the procedure's lattice-op count),
//! `budget-exhausted`, `store-degraded` / `store-retry` /
//! `store-quarantined`, `tier-forced-general`, `trace-capture`,
//! `worker-panic`, `admission-shed`, and `note` (fault-injection
//! filler). Event *kinds, labels, values and counts* emitted by the
//! analysis itself repeat exactly from run to run (timing fields do
//! not): spans map 1:1 onto structural units (procedures, loops), and
//! a procedure is analyzed by one thread from start to finish, so the
//! thread-local lattice-op count flushed after it is the procedure's
//! own.
//!
//! The ring is the one part of the recorder that several threads write:
//! every session in the process — each corpus lane, each service worker
//! — records into the same ring, which is why it is striped and locked
//! while a session's own state is not.
//!
//! ## Trace tagging
//!
//! The service tags every event recorded while handling a request with
//! the request's trace key ([`set_trace`], a thread-local guard: a
//! request is analyzed on the worker thread that picked it up), so
//! `/debug/flight` dumps can be filtered per request after the fact.
//!
//! ## Overhead budget
//!
//! Recording is on by default; `PADFA_NO_FLIGHT=1` disables it (read
//! once, overridable in-process via [`set_enabled`] so the bench can
//! A/B one binary). The per-event cost is one relaxed `fetch_add`, one
//! uncontended stripe lock, and one small clone — and events are
//! per-*procedure*/per-*loop*, not per-query, so the corpus-wide
//! overhead stays within the ≤2% gate measured by `analysis_stats`
//! (the `flight_overhead` section of BENCH_analysis.json).

use padfa_omega::sync::lock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default total ring capacity (events), spread across stripes.
pub const DEFAULT_CAPACITY: usize = 8192;

/// Number of ring stripes; events are spread round-robin by sequence
/// number so capacity is fully used regardless of thread count while
/// concurrent writers almost never contend on the same stripe lock.
const STRIPES: usize = 8;

/// What happened. See the module docs for the span/instant taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum EventKind {
    Parse,
    Driver,
    Summarize,
    Loop,
    Request,
    LatticeBatch,
    BudgetExhausted,
    StoreDegraded,
    StoreRetry,
    StoreQuarantined,
    TierForcedGeneral,
    TraceCapture,
    WorkerPanic,
    AdmissionShed,
    Note,
}

impl EventKind {
    pub const ALL: [EventKind; 15] = [
        EventKind::Parse,
        EventKind::Driver,
        EventKind::Summarize,
        EventKind::Loop,
        EventKind::Request,
        EventKind::LatticeBatch,
        EventKind::BudgetExhausted,
        EventKind::StoreDegraded,
        EventKind::StoreRetry,
        EventKind::StoreQuarantined,
        EventKind::TierForcedGeneral,
        EventKind::TraceCapture,
        EventKind::WorkerPanic,
        EventKind::AdmissionShed,
        EventKind::Note,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EventKind::Parse => "parse",
            EventKind::Driver => "driver",
            EventKind::Summarize => "summarize",
            EventKind::Loop => "loop",
            EventKind::Request => "request",
            EventKind::LatticeBatch => "lattice-batch",
            EventKind::BudgetExhausted => "budget-exhausted",
            EventKind::StoreDegraded => "store-degraded",
            EventKind::StoreRetry => "store-retry",
            EventKind::StoreQuarantined => "store-quarantined",
            EventKind::TierForcedGeneral => "tier-forced-general",
            EventKind::TraceCapture => "trace-capture",
            EventKind::WorkerPanic => "worker-panic",
            EventKind::AdmissionShed => "admission-shed",
            EventKind::Note => "note",
        }
    }
}

/// Span phase: paired `Begin`/`End` events, or a standalone `Instant`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Begin,
    End,
    Instant,
}

impl Phase {
    pub fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'I',
        }
    }
}

/// One recorded event. Timing fields (`ts_us`, `dur_us`) are relative
/// to the recorder's epoch and are *not* deterministic; everything
/// else emitted by the analysis is (see module docs).
#[derive(Clone, Debug)]
pub struct Event {
    /// Global sequence number (relaxed `fetch_add` order).
    pub seq: u64,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (`End` events only, else 0).
    pub dur_us: u64,
    pub kind: EventKind,
    pub phase: Phase,
    /// Small per-thread id (assignment order, first event wins).
    pub tid: u64,
    /// Request trace key (0 when untagged, i.e. CLI runs).
    pub trace: u64,
    /// Kind-specific payload (lattice ops, steps, status, ...).
    pub value: u64,
    /// Kind-specific label (procedure, loop, path, reason, ...).
    pub label: String,
}

impl Event {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"ts_us\":{},\"dur_us\":{},\"kind\":\"{}\",\
             \"phase\":\"{}\",\"tid\":{},\"trace\":\"{:016x}\",\
             \"value\":{},\"label\":\"{}\"}}",
            self.seq,
            self.ts_us,
            self.dur_us,
            self.kind.name(),
            self.phase.code(),
            self.tid,
            self.trace,
            self.value,
            escape(&self.label),
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Stripe {
    buf: Vec<Event>,
    /// Next slot to overwrite once the stripe is full.
    next: usize,
}

/// A fixed-capacity striped event ring. One process-wide instance
/// backs the module-level functions; tests build their own.
pub struct FlightRecorder {
    stripes: Vec<Mutex<Stripe>>,
    per_stripe: usize,
    seq: AtomicU64,
    overflows: AtomicU64,
    epoch: Instant,
}

impl FlightRecorder {
    /// Build a recorder holding at least `capacity` events (rounded up
    /// to a stripe multiple).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let per_stripe = capacity.div_ceil(STRIPES).max(1);
        FlightRecorder {
            stripes: (0..STRIPES)
                .map(|_| {
                    Mutex::new(Stripe {
                        buf: Vec::new(),
                        next: 0,
                    })
                })
                .collect(),
            per_stripe,
            seq: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.per_stripe * STRIPES
    }

    /// Events overwritten by ring wraparound since process start.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// The next sequence number to be assigned; events recorded after
    /// this call satisfy `seq >= watermark`.
    pub fn watermark(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    pub fn record(
        &self,
        kind: EventKind,
        phase: Phase,
        trace: u64,
        dur_us: u64,
        value: u64,
        label: &str,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            seq,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            dur_us,
            kind,
            phase,
            tid: tid(),
            trace,
            value,
            label: label.to_string(),
        };
        let mut stripe = lock(&self.stripes[(seq as usize) % STRIPES]);
        if stripe.buf.len() < self.per_stripe {
            stripe.buf.push(ev);
        } else {
            let slot = stripe.next;
            stripe.buf[slot] = ev;
            stripe.next = (slot + 1) % self.per_stripe;
            drop(stripe);
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copy out the ring, oldest surviving event first (by `seq`).
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(lock(stripe).buf.iter().cloned());
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The surviving events recorded at or after `watermark`.
    pub fn events_since(&self, watermark: u64) -> Vec<Event> {
        let mut out = self.snapshot();
        out.retain(|e| e.seq >= watermark);
        out
    }
}

// ---------------------------------------------------------------------
// Process-global recorder, enable gate, and thread-local tagging.

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

/// 0 = unresolved, 1 = enabled, 2 = disabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether recording is on. Resolved once from `PADFA_NO_FLIGHT`
/// (any non-empty value other than `0` disables), then cached;
/// [`set_enabled`] overrides in-process.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let off = std::env::var("PADFA_NO_FLIGHT").is_ok_and(|v| !v.is_empty() && v != "0");
            STATE.store(if off { 2 } else { 1 }, Ordering::Relaxed);
            !off
        }
    }
}

/// Force the recorder on or off, overriding the env gate. Used by the
/// overhead bench (A/B in one process) and tests.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static TRACE: Cell<u64> = const { Cell::new(0) };
    static LATTICE_OPS: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// FNV-1a over the trace-id string: the compact per-event tag for a
/// request's (free-form) `X-Padfa-Trace-Id` value.
pub fn trace_key(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Tag every event recorded on this thread (until the guard drops)
/// with `key`. Nests: dropping restores the previous tag.
pub fn set_trace(key: u64) -> TraceTag {
    let prev = TRACE.with(|t| {
        let p = t.get();
        t.set(key);
        p
    });
    TraceTag { prev }
}

/// The current thread's trace tag (0 = untagged).
pub fn current_trace() -> u64 {
    TRACE.with(Cell::get)
}

/// Guard restoring the previous thread trace tag on drop.
pub struct TraceTag {
    prev: u64,
}

impl Drop for TraceTag {
    fn drop(&mut self) {
        let prev = self.prev;
        TRACE.with(|t| t.set(prev));
    }
}

// ---------------------------------------------------------------------
// Recording API (global recorder).

/// Record a standalone instant event.
pub fn instant(kind: EventKind, label: &str, value: u64) {
    if enabled() {
        global().record(kind, Phase::Instant, current_trace(), 0, value, label);
    }
}

/// Open a span: records `Begin` now and `End` (with duration) when the
/// returned guard drops. Arming is decided here, so a span stays
/// paired even if [`set_enabled`] flips mid-flight.
pub fn span(kind: EventKind, label: impl Into<String>) -> FlightSpan {
    let armed = enabled();
    let label = label.into();
    if armed {
        global().record(kind, Phase::Begin, current_trace(), 0, 0, &label);
    }
    FlightSpan {
        kind,
        label,
        start: Instant::now(),
        value: 0,
        armed,
    }
}

/// An open span; see [`span`].
pub struct FlightSpan {
    kind: EventKind,
    label: String,
    start: Instant,
    value: u64,
    armed: bool,
}

impl FlightSpan {
    /// Attach a kind-specific payload to the closing `End` event.
    pub fn set_value(&mut self, v: u64) {
        self.value = v;
    }
}

impl Drop for FlightSpan {
    fn drop(&mut self) {
        if self.armed {
            let dur = self.start.elapsed().as_micros() as u64;
            global().record(
                self.kind,
                Phase::End,
                current_trace(),
                dur,
                self.value,
                &self.label,
            );
        }
    }
}

/// Count one lattice operation on this thread (always cheap: a
/// thread-local increment, no lock, no branch on the enable gate).
/// Flushed per procedure by the driver via [`flush_lattice_ops`].
pub fn note_lattice_op() {
    LATTICE_OPS.with(|c| c.set(c.get() + 1));
}

/// Emit the per-procedure `lattice-batch` instant carrying the ops
/// this thread counted since the last flush, and reset the count.
pub fn flush_lattice_ops(label: &str) {
    let ops = LATTICE_OPS.with(|c| c.replace(0));
    if enabled() {
        global().record(
            EventKind::LatticeBatch,
            Phase::Instant,
            current_trace(),
            0,
            ops,
            label,
        );
    }
}

/// Global-recorder accessors (see [`FlightRecorder`]).
pub fn snapshot() -> Vec<Event> {
    global().snapshot()
}

pub fn events_since(watermark: u64) -> Vec<Event> {
    global().events_since(watermark)
}

pub fn watermark() -> u64 {
    global().watermark()
}

pub fn overflows() -> u64 {
    global().overflows()
}

pub fn capacity() -> usize {
    global().capacity()
}

/// Render `events` as a JSON array.
pub fn events_json(events: &[Event]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.to_json());
    }
    out.push(']');
    out
}

/// Dump the whole global ring as one JSON object — the payload of
/// `GET /debug/flight` and of panic/drain sidecar files.
pub fn ring_json() -> String {
    let events = snapshot();
    format!(
        "{{\"capacity\":{},\"overflows\":{},\"enabled\":{},\"events\":{}}}",
        capacity(),
        overflows(),
        enabled(),
        events_json(&events),
    )
}

// ---------------------------------------------------------------------
// Per-phase aggregation (the `--profile` table and per-request
// breakdowns).

/// Aggregate timing for one event kind over a slice of events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    pub spans: u64,
    pub instants: u64,
    /// Sum of span durations (nested spans double-count here).
    pub total_us: u64,
    /// Sum of span durations minus time spent in child spans on the
    /// same thread — additive across kinds.
    pub self_us: u64,
    pub max_us: u64,
    /// Sum of instant/span payload values (e.g. lattice ops).
    pub value: u64,
}

impl PhaseStat {
    pub fn to_json(&self, kind: EventKind) -> String {
        format!(
            "{{\"phase\":\"{}\",\"spans\":{},\"instants\":{},\"total_us\":{},\
             \"self_us\":{},\"max_us\":{},\"value\":{}}}",
            kind.name(),
            self.spans,
            self.instants,
            self.total_us,
            self.self_us,
            self.max_us,
            self.value,
        )
    }
}

/// Compute per-kind self-time attribution from an event slice (must be
/// seq-sorted, as [`snapshot`] returns). Span nesting is reconstructed
/// per thread from `Begin`/`End` pairing; an `End` whose `Begin` was
/// overwritten by ring wraparound is charged with no parent and no
/// children (its own duration only).
pub fn profile(events: &[Event]) -> Vec<(EventKind, PhaseStat)> {
    let mut stats: std::collections::BTreeMap<EventKind, PhaseStat> =
        std::collections::BTreeMap::new();
    // Per-thread stack of (kind, child time accumulated so far).
    let mut stacks: std::collections::BTreeMap<u64, Vec<(EventKind, u64)>> =
        std::collections::BTreeMap::new();
    for ev in events {
        match ev.phase {
            Phase::Begin => stacks.entry(ev.tid).or_default().push((ev.kind, 0)),
            Phase::Instant => {
                let st = stats.entry(ev.kind).or_default();
                st.instants += 1;
                st.value += ev.value;
            }
            Phase::End => {
                let stack = stacks.entry(ev.tid).or_default();
                // Pop to the matching frame; frames above it lost
                // their End (wraparound) and are abandoned.
                let child_us = match stack.iter().rposition(|(k, _)| *k == ev.kind) {
                    Some(pos) => {
                        let (_, child) = stack.remove(pos);
                        stack.truncate(pos);
                        child
                    }
                    None => 0,
                };
                let st = stats.entry(ev.kind).or_default();
                st.spans += 1;
                st.total_us += ev.dur_us;
                st.self_us += ev.dur_us.saturating_sub(child_us);
                st.max_us = st.max_us.max(ev.dur_us);
                st.value += ev.value;
                if let Some((_, parent_child)) = stack.last_mut() {
                    *parent_child += ev.dur_us;
                }
            }
        }
    }
    EventKind::ALL
        .iter()
        .filter_map(|k| stats.get(k).map(|s| (*k, *s)))
        .collect()
}

/// Render a profile as a JSON array (one object per kind, ALL order).
pub fn profile_json(profile: &[(EventKind, PhaseStat)]) -> String {
    let mut out = String::from("[");
    for (i, (kind, stat)) in profile.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&stat.to_json(*kind));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind, phase: Phase, tid: u64, dur_us: u64, value: u64) -> Event {
        Event {
            seq,
            ts_us: 0,
            dur_us,
            kind,
            phase,
            tid,
            trace: 0,
            value,
            label: String::new(),
        }
    }

    #[test]
    fn ring_wraps_and_counts_overflow() {
        let rec = FlightRecorder::with_capacity(16);
        assert_eq!(rec.capacity(), 16);
        for i in 0..40 {
            rec.record(EventKind::Note, Phase::Instant, 0, 0, i, "x");
        }
        assert_eq!(rec.overflows(), 24);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 16);
        // Oldest events were overwritten: only the last 16 survive.
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (24..40).collect::<Vec<u64>>());
        assert_eq!(rec.watermark(), 40);
        assert!(rec.events_since(30).iter().all(|e| e.seq >= 30));
        assert_eq!(rec.events_since(30).len(), 10);
    }

    #[test]
    fn capacity_rounds_up_to_a_stripe_multiple() {
        assert_eq!(FlightRecorder::with_capacity(1).capacity(), 8);
        assert_eq!(FlightRecorder::with_capacity(17).capacity(), 24);
    }

    #[test]
    fn profile_attributes_self_time_through_nesting() {
        // summarize [100us] containing two loops [30us, 20us], plus a
        // lattice-batch instant of 7 ops.
        let events = vec![
            ev(0, EventKind::Summarize, Phase::Begin, 1, 0, 0),
            ev(1, EventKind::Loop, Phase::Begin, 1, 0, 0),
            ev(2, EventKind::Loop, Phase::End, 1, 30, 0),
            ev(3, EventKind::Loop, Phase::Begin, 1, 0, 0),
            ev(4, EventKind::Loop, Phase::End, 1, 20, 0),
            ev(5, EventKind::LatticeBatch, Phase::Instant, 1, 0, 7),
            ev(6, EventKind::Summarize, Phase::End, 1, 100, 0),
        ];
        let prof = profile(&events);
        let get = |k: EventKind| {
            prof.iter()
                .find(|(pk, _)| *pk == k)
                .map(|(_, s)| *s)
                .unwrap_or_default()
        };
        let summ = get(EventKind::Summarize);
        assert_eq!(summ.spans, 1);
        assert_eq!(summ.total_us, 100);
        assert_eq!(summ.self_us, 50);
        let lp = get(EventKind::Loop);
        assert_eq!(lp.spans, 2);
        assert_eq!(lp.total_us, 50);
        assert_eq!(lp.self_us, 50);
        assert_eq!(lp.max_us, 30);
        let lb = get(EventKind::LatticeBatch);
        assert_eq!(lb.instants, 1);
        assert_eq!(lb.value, 7);
    }

    #[test]
    fn profile_survives_an_end_without_a_begin() {
        // Wraparound ate the Begin: the End is charged standalone.
        let events = vec![ev(0, EventKind::Loop, Phase::End, 1, 40, 0)];
        let prof = profile(&events);
        assert_eq!(prof.len(), 1);
        let (k, s) = prof[0];
        assert_eq!(k, EventKind::Loop);
        assert_eq!(s.spans, 1);
        assert_eq!(s.self_us, 40);
    }

    #[test]
    fn event_json_escapes_labels() {
        let mut e = ev(1, EventKind::Parse, Phase::Instant, 2, 0, 3);
        e.label = "a\"b\\c\nd".to_string();
        e.trace = 0xdead_beef;
        let j = e.to_json();
        assert!(j.contains("\"label\":\"a\\\"b\\\\c\\nd\""));
        assert!(j.contains("\"trace\":\"00000000deadbeef\""));
        assert!(j.contains("\"kind\":\"parse\""));
        assert!(j.contains("\"phase\":\"I\""));
    }

    #[test]
    fn trace_key_is_stable_fnv() {
        assert_eq!(trace_key(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(trace_key("abc"), trace_key("abc"));
        assert_ne!(trace_key("abc"), trace_key("abd"));
    }

    /// All assertions against the process-global recorder live in this
    /// one test: the enable gate and ring are shared, so concurrent
    /// flight tests would race a disable window.
    #[test]
    fn global_recorder_tags_spans_and_honors_the_gate() {
        set_enabled(true);
        let key = trace_key("flight-global-test");
        let wm = watermark();
        {
            let _tag = set_trace(key);
            assert_eq!(current_trace(), key);
            {
                let nested = set_trace(77);
                assert_eq!(current_trace(), 77);
                drop(nested);
            }
            assert_eq!(current_trace(), key);
            let mut s = span(EventKind::Request, "GET /x");
            s.set_value(200);
            instant(EventKind::AdmissionShed, "queue-full", 1);
            // A flush carries this thread's count and resets it.
            note_lattice_op();
            note_lattice_op();
            flush_lattice_ops("p");
            flush_lattice_ops("q");
        }
        assert_eq!(current_trace(), 0);
        let mine: Vec<Event> = events_since(wm)
            .into_iter()
            .filter(|e| e.trace == key)
            .collect();
        let kinds: Vec<(EventKind, Phase)> = mine.iter().map(|e| (e.kind, e.phase)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Request, Phase::Begin),
                (EventKind::AdmissionShed, Phase::Instant),
                (EventKind::LatticeBatch, Phase::Instant),
                (EventKind::LatticeBatch, Phase::Instant),
                (EventKind::Request, Phase::End),
            ]
        );
        assert_eq!((mine[2].value, mine[3].value), (2, 0));
        assert_eq!(mine[4].value, 200);
        assert!(ring_json().contains("\"events\":["));

        // Disabled: nothing new lands in the ring for this trace.
        set_enabled(false);
        assert!(!enabled());
        {
            let _tag = set_trace(key);
            let _s = span(EventKind::Request, "off");
            instant(EventKind::Note, "off", 0);
        }
        let after: Vec<Event> = events_since(wm)
            .into_iter()
            .filter(|e| e.trace == key)
            .collect();
        assert_eq!(after.len(), 5);
        set_enabled(true);
    }
}
