//! Structured tracing: spans and events for the analysis pipeline,
//! rendered as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`).
//!
//! The subsystem is **feature-gated**: without the `trace` cargo feature
//! every function here is an inlined no-op, so benchmark builds
//! (`cargo bench -p padfa-bench`, whose dependency graph does not enable
//! the feature) carry zero tracing cost. With the feature enabled (the
//! `padfa` CLI always enables it), tracing is still off until
//! [`start_capture`] arms the process-wide collector; disarmed, every
//! hook is a single relaxed atomic load.
//!
//! ## Span taxonomy
//!
//! | cat         | name              | meaning                                  |
//! |-------------|-------------------|------------------------------------------|
//! | `parse`     | `parse`           | source → IR                              |
//! | `driver`    | `pre_intern`      | deterministic interning prepass          |
//! | `driver`    | `walk`            | the bottom-up walk over all procedures   |
//! | `summarize` | `proc <name>`     | one procedure's summarization            |
//! | `loop`      | `<label or L<id>>`| one loop's classification + summary      |
//! | `lattice`   | `lattice-ops`     | a batch of memoized lattice queries      |
//! | `budget`    | `budget-exhausted`| instant: a procedure hit its budget      |
//!
//! Spans are recorded on the thread that drops them, with a stable small
//! thread id. One analysis is one thread, so a captured `padfa analyze`
//! shows a single lane.

#[cfg(feature = "trace")]
mod imp {
    use padfa_omega::sync::lock;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    struct Event {
        name: String,
        cat: &'static str,
        /// 'X' = complete span (has dur), 'i' = instant.
        ph: char,
        ts_us: u64,
        dur_us: u64,
        tid: u64,
        args: Vec<(&'static str, String)>,
    }

    struct Collector {
        start: Instant,
        events: Vec<Event>,
        tids: HashMap<std::thread::ThreadId, u64>,
    }

    static CAPTURING: AtomicBool = AtomicBool::new(false);
    static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

    /// How many lattice ops accumulate per thread before a batch span is
    /// emitted (keeps event volume bounded on big programs).
    const LATTICE_BATCH: u64 = 1024;

    struct Batch {
        start: Instant,
        counts: BTreeMap<&'static str, u64>,
        total: u64,
    }

    thread_local! {
        static BATCH: RefCell<Option<Batch>> = const { RefCell::new(None) };
    }

    fn tid_of(c: &mut Collector) -> u64 {
        let id = std::thread::current().id();
        let next = c.tids.len() as u64 + 1;
        *c.tids.entry(id).or_insert(next)
    }

    fn push_event(
        name: String,
        cat: &'static str,
        ph: char,
        since: Option<Instant>,
        args: Vec<(&'static str, String)>,
    ) {
        let mut guard = lock(&COLLECTOR);
        let Some(c) = guard.as_mut() else { return };
        let now = Instant::now();
        let (ts, dur) = match since {
            Some(t0) => (
                t0.saturating_duration_since(c.start).as_micros() as u64,
                now.saturating_duration_since(t0).as_micros() as u64,
            ),
            None => (now.saturating_duration_since(c.start).as_micros() as u64, 0),
        };
        let tid = tid_of(c);
        c.events.push(Event {
            name,
            cat,
            ph,
            ts_us: ts,
            dur_us: dur,
            tid,
            args,
        });
    }

    pub fn is_capturing() -> bool {
        CAPTURING.load(Ordering::Relaxed)
    }

    /// Arm the process-wide collector. Nested captures are not
    /// supported: a second call restarts the buffer.
    pub fn start_capture() {
        *lock(&COLLECTOR) = Some(Collector {
            start: Instant::now(),
            events: Vec::new(),
            tids: HashMap::new(),
        });
        CAPTURING.store(true, Ordering::SeqCst);
        // Mark the deep-dive window in the always-on flight ring so a
        // post-hoc dump shows when (and that) a Chrome capture ran.
        crate::flight::instant(crate::flight::EventKind::TraceCapture, "armed", 1);
    }

    /// Disarm the collector and render the captured events as Chrome
    /// trace-event JSON. `None` when no capture was armed.
    pub fn finish_capture() -> Option<String> {
        CAPTURING.store(false, Ordering::SeqCst);
        crate::flight::instant(crate::flight::EventKind::TraceCapture, "disarmed", 0);
        let c = lock(&COLLECTOR).take()?;
        let mut events = c.events;
        events.sort_by_key(|e| (e.ts_us, e.tid));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for e in &events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                esc(&e.name),
                e.cat,
                e.ph,
                e.ts_us,
                e.tid
            ));
            if e.ph == 'X' {
                out.push_str(&format!(",\"dur\":{}", e.dur_us));
            }
            if e.ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{k}\":\"{}\"", esc(v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        Some(out)
    }

    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// A live span: records a complete ('X') event when dropped.
    pub struct Span {
        inner: Option<SpanInner>,
    }

    struct SpanInner {
        name: String,
        cat: &'static str,
        start: Instant,
        args: Vec<(&'static str, String)>,
    }

    pub fn span(name: impl Into<String>, cat: &'static str) -> Span {
        if !is_capturing() {
            return Span { inner: None };
        }
        Span {
            inner: Some(SpanInner {
                name: name.into(),
                cat,
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    impl Span {
        /// Attach a key/value argument shown in the trace viewer.
        pub fn arg(&mut self, key: &'static str, value: String) {
            if let Some(s) = self.inner.as_mut() {
                s.args.push((key, value));
            }
        }

        /// Close the span now instead of at end of scope.
        pub fn end(self) {}
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if let Some(s) = self.inner.take() {
                if is_capturing() {
                    push_event(s.name, s.cat, 'X', Some(s.start), s.args);
                }
            }
        }
    }

    /// Record an instant event.
    pub fn instant(name: impl Into<String>, cat: &'static str) {
        if is_capturing() {
            push_event(name.into(), cat, 'i', None, Vec::new());
        }
    }

    /// Count one memoized lattice query toward this thread's batch span;
    /// a span is emitted once the batch fills.
    pub fn note_lattice_op(kind: &'static str) {
        if !is_capturing() {
            return;
        }
        BATCH.with(|b| {
            let mut borrow = b.borrow_mut();
            let batch = borrow.get_or_insert_with(|| Batch {
                start: Instant::now(),
                counts: BTreeMap::new(),
                total: 0,
            });
            *batch.counts.entry(kind).or_insert(0) += 1;
            batch.total += 1;
            if batch.total >= LATTICE_BATCH {
                let done = borrow.take();
                drop(borrow);
                emit_batch(done);
            }
        });
    }

    /// Flush this thread's partial lattice batch (driver calls this at
    /// procedure boundaries so short procedures still appear).
    pub fn flush_lattice_batch() {
        if !is_capturing() {
            return;
        }
        let done = BATCH.with(|b| b.borrow_mut().take());
        emit_batch(done);
    }

    fn emit_batch(done: Option<Batch>) {
        let Some(batch) = done else { return };
        if batch.total == 0 {
            return;
        }
        let mut args: Vec<(&'static str, String)> = vec![("ops", batch.total.to_string())];
        for (k, v) in &batch.counts {
            args.push((k, v.to_string()));
        }
        push_event(
            "lattice-ops".to_string(),
            "lattice",
            'X',
            Some(batch.start),
            args,
        );
    }
}

#[cfg(feature = "trace")]
pub use imp::{
    finish_capture, flush_lattice_batch, instant, is_capturing, note_lattice_op, span,
    start_capture, Span,
};

#[cfg(not(feature = "trace"))]
mod noop {
    /// Inert span handle (the `trace` feature is disabled).
    pub struct Span;

    impl Span {
        #[inline(always)]
        pub fn arg(&mut self, _key: &'static str, _value: String) {}

        #[inline(always)]
        pub fn end(self) {}
    }

    #[inline(always)]
    pub fn is_capturing() -> bool {
        false
    }

    #[inline(always)]
    pub fn start_capture() {}

    #[inline(always)]
    pub fn finish_capture() -> Option<String> {
        None
    }

    #[inline(always)]
    pub fn span(_name: impl Into<String>, _cat: &'static str) -> Span {
        Span
    }

    #[inline(always)]
    pub fn instant(_name: impl Into<String>, _cat: &'static str) {}

    #[inline(always)]
    pub fn note_lattice_op(_kind: &'static str) {}

    #[inline(always)]
    pub fn flush_lattice_batch() {}
}

#[cfg(not(feature = "trace"))]
pub use noop::{
    finish_capture, flush_lattice_batch, instant, is_capturing, note_lattice_op, span,
    start_capture, Span,
};

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    // Capture state is process-global, so keep everything in one test to
    // avoid cross-test interference under the parallel test runner.
    #[test]
    fn capture_lifecycle_and_json_shape() {
        assert!(finish_capture().is_none(), "no capture armed yet");
        start_capture();
        assert!(is_capturing());
        {
            let mut s = span("proc main", "summarize");
            s.arg("steps", "12".to_string());
            let _inner = span("L0", "loop");
        }
        instant("budget-exhausted", "budget");
        note_lattice_op("subtract");
        note_lattice_op("subtract");
        note_lattice_op("union");
        flush_lattice_batch();
        let json = finish_capture().unwrap();
        assert!(!is_capturing());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"proc main\""));
        assert!(json.contains("\"steps\":\"12\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"lattice-ops\""));
        assert!(json.contains("\"subtract\":\"2\""));
        // Disarmed: hooks are inert again.
        let mut s = span("ignored", "loop");
        s.arg("k", "v".to_string());
        drop(s);
        assert!(finish_capture().is_none());
    }
}
