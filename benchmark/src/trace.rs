//! The benchmark's own span recorder. Spans are recorded from the
//! harness, around each call into a layer (a child process, an HTTP
//! request, an in-process probe); nothing is recorded inside the
//! program under test. Spans stay in memory and are written when the
//! run ends.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `SpanId::NONE` is "no parent" and also
/// what a disabled recorder hands out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    /// The pass or request this span belongs to; spans of one
    /// operation share it.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Ends its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'t str,
    op: u64,
    start_us: f64,
}

impl Guard<'_> {
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            op: self.op,
            start_us: self.start_us,
            end_us: self.tracer.now_us(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per span name: how many, their summed duration, and their summed
/// self time (duration minus what their child spans cover).
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Switch recording (the traced run measures part of its window
    /// with the recorder off to price the recorder itself).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn span<'t>(&'t self, name: &'t str, parent: SpanId, op: u64) -> Guard<'t> {
        let id = if self.enabled() {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            tracer: self,
            id,
            parent: parent.0,
            name,
            op,
            start_us: if id == 0 { 0.0 } else { self.now_us() },
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned: a recording thread panicked")
            .clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        spans
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"unit\":\"us\",\"spans\":[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start\":{:.1},\"end\":{:.1}}}",
                s.id,
                s.parent,
                json::escape(&s.name),
                s.op,
                s.start_us,
                s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Fold spans into per-name totals. A span's self time is its duration
/// minus the part of its interval its direct children cover (children
/// that overlap each other are not counted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut reach = s.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_us += s.end_us - s.start_us;
        t.self_us += (s.end_us - s.start_us - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            op: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "pass", 0.0, 100.0),
            span(2, 1, "child", 10.0, 40.0),
            span(3, 1, "child", 30.0, 60.0), // overlaps the first by 10
            span(4, 2, "probe", 15.0, 20.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].self_us, 50.0); // 100 - [10,60]
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].total_us, 60.0);
        assert_eq!(t["child"].self_us, 55.0); // only span 2 has a child
        assert_eq!(t["probe"].self_us, 5.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("x", SpanId::NONE, 1);
            assert_eq!(g.id(), SpanId::NONE);
        }
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        {
            let outer = t.span("outer", SpanId::NONE, 7);
            let _inner = t.span("inner", outer.id(), 7);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.op, outer.op), (7, 7));
        assert!(json::parse(&t.to_json()).is_ok());
    }
}
