//! Always-on flight recorder: a fixed-capacity, striped ring buffer of
//! structured analysis events — the one event stream of the process.
//!
//! The recorder keeps the last [`capacity`] events in a striped ring
//! with relaxed-atomic sequencing and overwrite-on-wrap, so the recent
//! past of any process (CLI run or `padfa serve` worker) can be read
//! after the fact with zero steady-state allocation beyond the ring
//! itself. Every reader is a *selection* over it ([`select`]: the
//! events since a watermark, optionally of one thread) followed by a
//! fold: [`profile`] is the `--profile` table and the
//! `/debug/requests` phase breakdown, [`chrome_json`] is the
//! `analyze --trace` file, and [`ring_json`] is `/debug/flight` and the
//! crash sidecars.
//!
//! ## Event taxonomy
//!
//! Span kinds (one `End` event each, carrying the duration and the
//! `begin_seq` its span opened at): `parse`, `driver` (pre-intern, then
//! the walk over the procedures), `summarize` (one per procedure),
//! `loop` (one per analyzed loop), and `request` (one per service
//! request, labelled `<METHOD> <path> <trace-id>`; its `End` carries the
//! status). A `request` span also records a `Begin` when it opens: that
//! is what brackets a request's events for `/debug/requests` and shows
//! it in flight. Instant kinds: `lattice-batch`
//! (one per procedure, carrying the procedure's lattice-query count),
//! `budget-exhausted`, `store-degraded` / `store-retry` /
//! `store-quarantined`, `tier-forced-general`, `store-hit` (a
//! procedure answered from the persistent store), `worker-panic`,
//! `admission-shed`, and `note` (fault-injection filler). Event
//! *kinds, labels, values and counts* emitted by the analysis itself
//! repeat exactly from run to run (timing fields do not): spans map
//! 1:1 onto structural units (procedures, loops), and a procedure's
//! `lattice-batch` value is the growth of its session's own query
//! counters while it was summarized.
//!
//! The ring is the one part of the recorder that several threads write:
//! every session in the process — each corpus lane, each service worker
//! — records into the same ring, which is why it is striped and locked
//! while a session's own state is not.
//!
//! ## Overhead budget
//!
//! Recording is always on. The per-event cost is one clock read, one
//! relaxed `fetch_add` and one uncontended stripe lock; an analysis
//! span is one event (its `End`), so its label is moved into the ring,
//! not copied. Events are per-*procedure*/per-*loop*, not per-query, so
//! the corpus-wide overhead stays within the ≤2% gate measured by
//! `analysis_stats` (the `flight_overhead` section of
//! BENCH_analysis.json).

use crate::json_escape;
use padfa_omega::sync::lock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
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
    StoreHit,
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
        EventKind::StoreHit,
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
            EventKind::StoreHit => "store-hit",
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
    /// An `End`'s span opened here: every event its thread recorded
    /// inside the span has `seq >= begin_seq`, and none before it does.
    /// Equal to `seq` for any other event.
    pub begin_seq: u64,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (`End` events only, else 0).
    pub dur_us: u64,
    pub kind: EventKind,
    pub phase: Phase,
    /// Small per-thread id ([`thread_id`]).
    pub tid: u64,
    /// Kind-specific payload (lattice ops, steps, status, ...).
    pub value: u64,
    /// Kind-specific label (procedure, loop, path, reason, ...).
    pub label: String,
}

impl Event {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"ts_us\":{},\"dur_us\":{},\"kind\":\"{}\",\
             \"phase\":\"{}\",\"tid\":{},\"value\":{},\"label\":\"{}\"}}",
            self.seq,
            self.ts_us,
            self.dur_us,
            self.kind.name(),
            self.phase.code(),
            self.tid,
            self.value,
            json_escape(&self.label),
        )
    }
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

    /// Record an event that happens now, returning its `seq`. An `End`
    /// recorded this way claims no events as its span's (see [`span`]
    /// for spans).
    pub fn record(
        &self,
        kind: EventKind,
        phase: Phase,
        dur_us: u64,
        value: u64,
        label: &str,
    ) -> u64 {
        self.push(Event {
            seq: 0,
            begin_seq: u64::MAX,
            ts_us: self.micros(Instant::now()),
            dur_us,
            kind,
            phase,
            tid: thread_id(),
            value,
            label: label.to_string(),
        })
    }

    /// `at` in microseconds since the recorder's epoch.
    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Number `ev` and append it to the ring, returning its `seq`. A
    /// `begin_seq` past the new `seq` (`u64::MAX`) becomes the `seq`.
    fn push(&self, mut ev: Event) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        ev.seq = seq;
        ev.begin_seq = ev.begin_seq.min(seq);
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
        seq
    }

    /// The surviving events with `seq >= since` — of thread `tid`
    /// when one is given — oldest first (by `seq`). The filter runs
    /// under the stripe locks, so only the selected events are cloned.
    pub fn select(&self, since: u64, tid: Option<u64>) -> Vec<Event> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(
                lock(stripe)
                    .buf
                    .iter()
                    .filter(|e| e.seq >= since && tid.is_none_or(|t| e.tid == t))
                    .cloned(),
            );
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

// ---------------------------------------------------------------------
// Process-global recorder and thread ids.

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// This thread's event id: small, numbered on each thread's first use,
/// never reused. A service request runs start to finish on one
/// worker thread, so its events are the ones on its `Request` span's
/// `tid` between that span's `Begin` and `End`.
pub fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

// ---------------------------------------------------------------------
// Recording API (global recorder).

/// Record a standalone instant event.
pub fn instant(kind: EventKind, label: &str, value: u64) {
    global().record(kind, Phase::Instant, 0, value, label);
}

/// Open a span: its `End` (with duration) is recorded when the returned
/// guard drops. Only a `Request` span records a `Begin` now as well.
pub fn span(kind: EventKind, label: impl Into<String>) -> FlightSpan {
    let label = label.into();
    let recorder = global();
    let begin_seq = if kind == EventKind::Request {
        recorder.record(kind, Phase::Begin, 0, 0, &label)
    } else {
        recorder.watermark()
    };
    let start = Instant::now();
    FlightSpan {
        kind,
        label,
        start,
        begin_seq,
        value: 0,
    }
}

/// An open span; see [`span`].
pub struct FlightSpan {
    kind: EventKind,
    label: String,
    start: Instant,
    begin_seq: u64,
    value: u64,
}

impl FlightSpan {
    /// Attach a kind-specific payload to the closing `End` event.
    pub fn set_value(&mut self, v: u64) {
        self.value = v;
    }
}

impl Drop for FlightSpan {
    fn drop(&mut self) {
        let end = Instant::now();
        let recorder = global();
        recorder.push(Event {
            seq: 0,
            begin_seq: self.begin_seq,
            ts_us: recorder.micros(end),
            dur_us: end.duration_since(self.start).as_micros() as u64,
            kind: self.kind,
            phase: Phase::End,
            tid: thread_id(),
            value: self.value,
            label: std::mem::take(&mut self.label),
        });
    }
}

/// Global-recorder accessors (see [`FlightRecorder`]).
pub fn select(since: u64, tid: Option<u64>) -> Vec<Event> {
    global().select(since, tid)
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
    format!(
        "{{\"capacity\":{},\"overflows\":{},\"events\":{}}}",
        capacity(),
        overflows(),
        events_json(&select(0, None)),
    )
}

/// Render `events` as Chrome trace-event JSON (loadable in Perfetto or
/// `chrome://tracing`): an `End` becomes a complete (`"X"`) event that
/// starts `dur_us` before it was recorded, an `Instant` an `"i"`;
/// `cat` is the kind, `name` the label, `args.value` the payload. A
/// `Begin` carries nothing its `End` does not and is dropped, as is
/// `seq`.
pub fn chrome_json(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let shown = events.iter().filter(|e| e.phase != Phase::Begin);
    for (i, e) in shown.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (ph, ts, shape) = if e.phase == Phase::End {
            let start = e.ts_us.saturating_sub(e.dur_us);
            ('X', start, format!("\"dur\":{}", e.dur_us))
        } else {
            ('i', e.ts_us, "\"s\":\"t\"".to_string())
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\
             \"tid\":{},{shape},\"args\":{{\"value\":{}}}}}",
            json_escape(&e.label),
            e.kind.name(),
            e.tid,
            e.value,
        ));
    }
    out.push_str("]}");
    out
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

/// Compute per-kind self-time attribution from events in `seq` order
/// (as [`select`] returns them). Span nesting is reconstructed per
/// thread from the `End` events alone: a span's children are the spans
/// that ended on its thread after it began (`begin_seq`). A child
/// overwritten by ring wraparound is absent, and its time stays its
/// parent's own.
pub fn profile<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<(EventKind, PhaseStat)> {
    let mut stats: std::collections::BTreeMap<EventKind, PhaseStat> =
        std::collections::BTreeMap::new();
    // Per thread, the spans that ended and no enclosing span has
    // claimed yet: (end seq, duration).
    let mut ended: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for ev in events {
        match ev.phase {
            // Every `End` says where its span began.
            Phase::Begin => {}
            Phase::Instant => {
                let st = stats.entry(ev.kind).or_default();
                st.instants += 1;
                st.value += ev.value;
            }
            Phase::End => {
                let ended = ended.entry(ev.tid).or_default();
                let mut child_us = 0;
                while let Some(&(seq, dur)) = ended.last() {
                    if seq < ev.begin_seq {
                        break;
                    }
                    child_us += dur;
                    ended.pop();
                }
                let st = stats.entry(ev.kind).or_default();
                st.spans += 1;
                st.total_us += ev.dur_us;
                st.self_us += ev.dur_us.saturating_sub(child_us);
                st.max_us = st.max_us.max(ev.dur_us);
                st.value += ev.value;
                ended.push((ev.seq, ev.dur_us));
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
            begin_seq: seq,
            ts_us: 0,
            dur_us,
            kind,
            phase,
            tid,
            value,
            label: String::new(),
        }
    }

    #[test]
    fn ring_wraps_and_counts_overflow() {
        let rec = FlightRecorder::with_capacity(16);
        assert_eq!(rec.capacity(), 16);
        for i in 0..40 {
            rec.record(EventKind::Note, Phase::Instant, 0, i, "x");
        }
        assert_eq!(rec.overflows(), 24);
        // Oldest events were overwritten: only the last 16 survive.
        let seqs = |since| -> Vec<u64> { rec.select(since, None).iter().map(|e| e.seq).collect() };
        assert_eq!(seqs(0), (24..40).collect::<Vec<u64>>());
        assert_eq!(rec.watermark(), 40);
        assert_eq!(seqs(30), (30..40).collect::<Vec<u64>>());
    }

    #[test]
    fn select_equals_filtering_a_full_copy() {
        // Four threads, picked at random event by event, wrap a
        // 64-event ring three times.
        let rec = FlightRecorder::with_capacity(64);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut tids = std::thread::scope(|s| {
            let lanes: Vec<std::sync::mpsc::Sender<u64>> = (0..4)
                .map(|_| {
                    let (tx, rx) = std::sync::mpsc::channel();
                    let (rec, done) = (&rec, done_tx.clone());
                    s.spawn(move || {
                        for i in rx {
                            rec.record(EventKind::Note, Phase::Instant, 0, i, "x");
                            done.send(thread_id()).unwrap();
                        }
                    });
                    tx
                })
                .collect();
            // One event in flight at a time, so the interleaving is the
            // one drawn here.
            (0..(64 * 3 + 17))
                .map(|i| {
                    lanes[(next() % 4) as usize].send(i).unwrap();
                    done_rx.recv().unwrap()
                })
                .collect::<std::collections::BTreeSet<u64>>()
        });
        assert_eq!(tids.len(), 4);
        // The reference copies the ring whole — every stripe cloned,
        // sorted by `seq` — and filters afterwards.
        let full_copy = || {
            let mut all: Vec<Event> = Vec::new();
            for stripe in &rec.stripes {
                all.extend(lock(stripe).buf.iter().cloned());
            }
            all.sort_by_key(|e| e.seq);
            all
        };
        assert_eq!(full_copy().len(), 64);
        tids.insert(thread_id()); // recorded nothing into `rec`
        let wm = rec.watermark();
        let mut sinces = vec![0, wm - 64, wm - 1, wm, wm + 5];
        sinces.extend((0..12).map(|_| next() % (wm + 1)));
        for since in sinces {
            for tid in std::iter::once(None).chain(tids.iter().copied().map(Some)) {
                let want: Vec<(u64, u64, u64)> = full_copy()
                    .into_iter()
                    .filter(|e| e.seq >= since && tid.is_none_or(|t| e.tid == t))
                    .map(|e| (e.seq, e.tid, e.value))
                    .collect();
                let got: Vec<(u64, u64, u64)> = rec
                    .select(since, tid)
                    .into_iter()
                    .map(|e| (e.seq, e.tid, e.value))
                    .collect();
                assert_eq!(got, want, "since={since} tid={tid:?}");
                assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "not in seq order");
            }
        }
    }

    #[test]
    fn chrome_json_renders_ends_and_instants() {
        let mut begin = ev(0, EventKind::Summarize, Phase::Begin, 3, 0, 0);
        begin.label = "main".to_string();
        let mut end = ev(2, EventKind::Summarize, Phase::End, 3, 40, 12);
        end.label = "main".to_string();
        end.ts_us = 100;
        let mut mark = ev(1, EventKind::BudgetExhausted, Phase::Instant, 3, 0, 7);
        mark.label = "a\"b\\c\nd".to_string();
        mark.ts_us = 90;
        let json = chrome_json(&[begin, mark, end]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // The Begin is folded into its End: two events, not three.
        assert_eq!(json.matches("\"ph\":").count(), 2, "{json}");
        // A complete span starts `dur` before its End was recorded.
        assert!(
            json.contains(
                "{\"name\":\"main\",\"cat\":\"summarize\",\"ph\":\"X\",\"ts\":60,\"pid\":1,\
                 \"tid\":3,\"dur\":40,\"args\":{\"value\":12}}"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "{\"name\":\"a\\\"b\\\\c\\nd\",\"cat\":\"budget-exhausted\",\"ph\":\"i\",\
                 \"ts\":90,\"pid\":1,\"tid\":3,\"s\":\"t\",\"args\":{\"value\":7}}"
            ),
            "{json}"
        );
        assert_eq!(
            chrome_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn capacity_rounds_up_to_a_stripe_multiple() {
        assert_eq!(FlightRecorder::with_capacity(1).capacity(), 8);
        assert_eq!(FlightRecorder::with_capacity(17).capacity(), 24);
    }

    /// The `End` event `seq` of a span that opened at `begin_seq`.
    fn end(seq: u64, begin_seq: u64, kind: EventKind, tid: u64, dur_us: u64) -> Event {
        Event {
            begin_seq,
            ..ev(seq, kind, Phase::End, tid, dur_us, 0)
        }
    }

    #[test]
    fn profile_attributes_self_time_through_nesting() {
        // summarize [100us] containing two loops [30us, 20us], plus a
        // lattice-batch instant of 7 ops.
        let events = vec![
            end(0, 0, EventKind::Loop, 1, 30),
            end(1, 1, EventKind::Loop, 1, 20),
            ev(2, EventKind::LatticeBatch, Phase::Instant, 1, 0, 7),
            end(3, 0, EventKind::Summarize, 1, 100),
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
    fn profile_nests_by_where_each_span_began() {
        // On thread 1: loop A [50us] holds loop B [20us], which holds
        // loop C [5us]; then loop D [10us], a sibling of A, all inside
        // summarize [100us]. Thread 2 interleaves a loop [70us] that
        // claims nothing of thread 1's, and an End recorded without a
        // span claims nothing either.
        let events = vec![
            end(3, 2, EventKind::Loop, 1, 5),
            end(4, 0, EventKind::Loop, 2, 70),
            end(5, 1, EventKind::Loop, 1, 20),
            end(6, 0, EventKind::Loop, 1, 50),
            ev(7, EventKind::Loop, Phase::End, 1, 1, 0),
            end(8, 8, EventKind::Loop, 1, 10),
            end(9, 0, EventKind::Summarize, 1, 100),
        ];
        let prof = profile(&events);
        let get = |k: EventKind| prof.iter().find(|(pk, _)| *pk == k).unwrap().1;
        let lp = get(EventKind::Loop);
        assert_eq!(lp.spans, 6);
        assert_eq!(lp.total_us, 5 + 70 + 20 + 50 + 1 + 10);
        // C 5, B 20 - 5, A 50 - 20, the lone End 1, D 10, thread 2's 70.
        assert_eq!(lp.self_us, 5 + 15 + 30 + 1 + 10 + 70);
        // Summarize's children are A, the lone End and D.
        assert_eq!(get(EventKind::Summarize).self_us, 100 - 50 - 1 - 10);
    }

    #[test]
    fn event_json_escapes_labels() {
        let mut e = ev(1, EventKind::Parse, Phase::Instant, 2, 0, 3);
        e.label = "a\"b\\c\nd".to_string();
        let j = e.to_json();
        assert!(j.contains("\"label\":\"a\\\"b\\\\c\\nd\""));
        assert!(j.contains("\"tid\":2,\"value\":3,"));
        assert!(j.contains("\"kind\":\"parse\""));
        assert!(j.contains("\"phase\":\"I\""));
    }

    #[test]
    fn global_recorder_tags_spans_and_selects_by_trace() {
        // A request's events are its thread's between its span's Begin
        // and End; another thread's events in that window are not.
        let wm = watermark();
        let me = thread_id();
        {
            let mut s = span(EventKind::Request, "GET /x t");
            s.set_value(200);
            std::thread::spawn(|| instant(EventKind::Note, "elsewhere", 9))
                .join()
                .unwrap();
            instant(EventKind::AdmissionShed, "queue-full", 1);
        }
        let mine = select(wm, Some(me));
        let kinds: Vec<(EventKind, Phase)> = mine.iter().map(|e| (e.kind, e.phase)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Request, Phase::Begin),
                (EventKind::AdmissionShed, Phase::Instant),
                (EventKind::Request, Phase::End),
            ]
        );
        assert_eq!(mine[2].value, 200);
        assert!(select(wm, None).iter().any(|e| e.label == "elsewhere"));
        // A later watermark leaves this thread's earlier events out.
        assert!(select(watermark(), Some(me)).is_empty());
        assert!(ring_json().contains("\"events\":["));
    }
}
