//! The two serve workloads: `padfa serve --workers 1` under a closed
//! loop (capacity) and then an open loop (latency under independent
//! arrivals), driven over real sockets from this one process.

use crate::child::Server;
use crate::http;
use crate::inputs::{self, Input};
use crate::oracle;
use crate::rng::Rng;
use crate::speed::{self, Speed};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workload::{trace_overhead_pct, Ctx, Row, Tally, Window, Workload, SETUP_REPS};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Mix,
    Small,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    Analyze,
    Explain,
    Healthz,
}

impl Endpoint {
    fn span(self) -> &'static str {
        match self {
            Endpoint::Analyze => "http.analyze",
            Endpoint::Explain => "http.explain",
            Endpoint::Healthz => "http.healthz",
        }
    }
}

/// A request: an endpoint and, for the POSTs, which program is its body.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Request {
    pub endpoint: Endpoint,
    pub program: usize,
}

/// The constants of a serve workload; identical on every commit.
pub struct Shape {
    /// Open-loop arrival rate.
    pub rate_rps: f64,
    /// Share of the measured window the open loop runs for.
    pub open_share: f64,
    /// Closed-loop sweeps of the request list before it.
    pub closed_sweeps: usize,
}

impl Kind {
    pub fn shape(self) -> Shape {
        match self {
            // Mean service time in the daemon is ~45 ms, so 6 req/s
            // keeps the one worker ~0.27 busy. Waits grow with
            // busy/(1 - busy): at 12 req/s (~0.55) a 15 % slower minute
            // of the host doubled p95 and the benchmark measured the
            // host, not the daemon.
            Kind::Mix => Shape {
                rate_rps: 6.0,
                open_share: 0.75,
                closed_sweeps: 3,
            },
            // ~5 ms a request: 60 req/s is ~0.3 busy, and most of each
            // request is connection, HTTP and hand-off.
            Kind::Small => Shape {
                rate_rps: 60.0,
                open_share: 0.75,
                closed_sweeps: 30,
            },
        }
    }
}

/// The arrival trace — gaps and request order — is drawn from this
/// constant, not from `--seed`: with the ~100 arrivals a run has room
/// for, two Poisson traces differ by 10-25 % in p50 and p95 on their
/// own (README, "Steadiness"), which would drown any change in the
/// daemon. `--seed` still decides every program body that is posted.
const TRACE_SEED: u64 = 1;

/// Requests in a closed-loop slice (~0.3 s of `serve_mix`).
const CLOSED_SLICE: usize = 10;

/// Length of an open-loop slice: short enough that the host's speed
/// holds through it, long enough that the pauses between slices (five
/// probes, ~15 ms) do not change the load.
const SEGMENT_S: f64 = 1.5;

/// How many of the smallest programs `serve_small` posts.
pub const SMALL_PROGRAMS: usize = 12;

/// Connections the generator holds open at once: the host's cores, and
/// never more than two (one worker serves; a second connection only
/// hides the client's turn-around).
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The programs a kind posts.
pub fn programs(kind: Kind, seed: u64) -> Vec<Input> {
    let mut all = inputs::generate(seed);
    if kind == Kind::Small {
        all.sort_by_key(|i| i.source.len());
        all.truncate(SMALL_PROGRAMS);
    }
    all
}

/// Sweep `s` of a kind's request list: every program once, in a drawn
/// order. `Mix` turns one request in five into `/explain`, rotating so
/// each program gets it once every five sweeps; `Small` adds one
/// `/healthz` per three programs.
pub fn sweep(kind: Kind, programs: usize, s: usize) -> Vec<Request> {
    // Which residue of the sweep number makes a program's request an
    // /explain: a permutation of 0..5 repeated, so every sweep has the
    // same number of them.
    let mut turn: Vec<usize> = (0..programs).map(|i| i % 5).collect();
    Rng::new(TRACE_SEED, "serve/explain-turn").shuffle(&mut turn);
    let mut out: Vec<Request> = (0..programs)
        .map(|program| Request {
            endpoint: match kind {
                Kind::Mix if (s + turn[program]).is_multiple_of(5) => Endpoint::Explain,
                _ => Endpoint::Analyze,
            },
            program,
        })
        .collect();
    if kind == Kind::Small {
        out.extend((0..programs / 3).map(|_| Request {
            endpoint: Endpoint::Healthz,
            program: 0,
        }));
    }
    Rng::new(TRACE_SEED, &format!("serve/order/{s}")).shuffle(&mut out);
    out
}

/// `n` arrival offsets in `[0, duration_s)`: exponential gaps, scaled
/// so the schedule always spans the same time. (Exponential gaps given
/// their count are the order statistics of uniform draws, so this is a
/// Poisson stream conditioned on `n` arrivals.)
pub fn arrivals(n: usize, duration_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(TRACE_SEED, "serve/gaps");
    let gaps: Vec<f64> = (0..=n).map(|_| rng.exp(1.0)).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            at += g;
            duration_s * at / total
        })
        .collect()
}

/// The trace cut at multiples of `SEGMENT_S`: each slice's start and
/// the arrivals that fall in it (empty slices are skipped).
fn slices(due_s: &[f64]) -> Vec<(f64, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut first = 0;
    while first < due_s.len() {
        let start_s = (due_s[first] / SEGMENT_S).floor() * SEGMENT_S;
        let end = first
            + due_s[first..]
                .iter()
                .take_while(|due| **due < start_s + SEGMENT_S)
                .count();
        out.push((start_s, first..end));
        first = end;
    }
    out
}

/// One completed request, times in ms from the phase's start.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub request: Request,
    /// When it was due (closed loop: when it was sent).
    pub due_ms: f64,
    pub sent_ms: f64,
    pub done_ms: f64,
    /// Due instant to last byte; scaled to the reference host speed in
    /// the open loop, raw in the closed loop.
    pub latency_ms: f64,
}

/// Everything a generator thread needs.
pub struct Client<'a> {
    pub addr: SocketAddr,
    pub programs: &'a [Input],
    pub tracer: &'a Tracer,
    pub speed: &'a Speed,
    /// First 200 body seen per request kind; every later one must
    /// equal it byte for byte.
    pub reference: &'a Mutex<HashMap<Request, Vec<u8>>>,
    pub tally: &'a Mutex<Tally>,
    /// Requests the daemon refused with 429.
    pub shed: AtomicU64,
}

impl Client<'_> {
    /// Send one request and check the reply. `op` tags the span.
    fn send(&self, request: Request, parent: SpanId, op: u64) {
        let (method, path, body): (&str, &str, &[u8]) = match request.endpoint {
            Endpoint::Analyze => (
                "POST",
                "/analyze",
                self.programs[request.program].source.as_bytes(),
            ),
            Endpoint::Explain => (
                "POST",
                "/explain",
                self.programs[request.program].source.as_bytes(),
            ),
            Endpoint::Healthz => ("GET", "/healthz", b""),
        };
        let reply = {
            let _span = self.tracer.span(request.endpoint.span(), parent, op);
            http::request(self.addr, method, path, body)
        };
        let verdict = match reply {
            Err(e) => Err(format!("{method} {path}: {e}")),
            Ok(r) if r.status != 200 => {
                if r.status == 429 {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(format!("{method} {path}: status {}", r.status))
            }
            Ok(r) => {
                let mut reference = self.reference.lock().expect("reference map poisoned");
                let first = reference.entry(request).or_insert_with(|| r.body.clone());
                if *first == r.body {
                    Ok(())
                } else {
                    Err(format!(
                        "{method} {path}: body differs from the first reply for {request:?}"
                    ))
                }
            }
        };
        let mut tally = self.tally.lock().expect("tally poisoned");
        tally.check(verdict.is_ok(), || verdict.unwrap_err());
    }

    /// Closed loop: `conns` connections take the next request as soon
    /// as their previous one completes. The caller times the sweep;
    /// the records' latencies are raw (no probe runs between requests,
    /// which would thin the load).
    pub fn closed(
        &self,
        requests: &[Request],
        conns: usize,
        parent: SpanId,
        op_base: u64,
    ) -> Vec<Record> {
        let next = AtomicUsize::new(0);
        let records = Mutex::new(Vec::with_capacity(requests.len()));
        let start = Instant::now();
        let since = || start.elapsed().as_secs_f64() * 1e3;
        std::thread::scope(|scope| {
            for _ in 0..conns {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&request) = requests.get(i) else {
                        break;
                    };
                    let sent_ms = since();
                    self.send(request, parent, op_base + i as u64);
                    let done_ms = since();
                    records.lock().expect("records poisoned").push(Record {
                        request,
                        due_ms: sent_ms,
                        sent_ms,
                        done_ms,
                        latency_ms: done_ms - sent_ms,
                    });
                });
            }
        });
        records.into_inner().expect("records poisoned")
    }

    /// Open loop: request `i` is due at `due_s[i]` whatever happened to
    /// the ones before it. A request waits for a free connection but
    /// its latency counts from the due instant.
    ///
    /// The generator threads must not stop to probe the host's speed,
    /// so the trace is cut into `SEGMENT_S` slices: the probes run
    /// between slices, while nothing is due, and scale the latencies of
    /// the slices beside them. (A slice waits for the replies of the
    /// one before, so each starts on an empty queue.) Also returns the
    /// mean probe around each slice as (slice start ms, probe ms).
    pub fn open(
        &self,
        requests: &[Request],
        due_s: &[f64],
        conns: usize,
        parent: SpanId,
    ) -> (Vec<Record>, Vec<(f64, f64)>) {
        let mut series = self.speed.series();
        let mut records = Vec::with_capacity(requests.len());
        let mut host = Vec::new();
        for (start_s, range) in slices(due_s) {
            let first = range.start;
            let (mut slice, raw_ms, ms) = series.time(|| {
                self.open_slice(
                    &requests[range.clone()],
                    &due_s[range],
                    start_s,
                    first,
                    conns,
                    parent,
                )
            });
            for r in &mut slice {
                r.latency_ms *= ms / raw_ms;
            }
            host.push((start_s * 1e3, speed::REFERENCE_MS * raw_ms / ms));
            records.append(&mut slice);
        }
        records.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
        (records, host)
    }

    /// One slice of the open loop, `start_s` into the trace; `op_base`
    /// numbers its spans. Latencies are raw.
    fn open_slice(
        &self,
        requests: &[Request],
        due_s: &[f64],
        start_s: f64,
        op_base: usize,
        conns: usize,
        parent: SpanId,
    ) -> Vec<Record> {
        let next = AtomicUsize::new(0);
        let records = Mutex::new(Vec::with_capacity(requests.len()));
        let start = Instant::now();
        let since = || start_s * 1e3 + start.elapsed().as_secs_f64() * 1e3;
        std::thread::scope(|scope| {
            for _ in 0..conns {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&request) = requests.get(i) else {
                        break;
                    };
                    let due_ms = due_s[i] * 1e3;
                    let wait_ms = due_ms - since();
                    if wait_ms > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait_ms / 1e3));
                    }
                    let sent_ms = since();
                    self.send(request, parent, (op_base + i) as u64);
                    let done_ms = since();
                    records.lock().expect("records poisoned").push(Record {
                        request,
                        due_ms,
                        sent_ms,
                        done_ms,
                        latency_ms: done_ms - due_ms,
                    });
                });
            }
        });
        records.into_inner().expect("records poisoned")
    }
}

pub struct Serve {
    kind: Kind,
    programs: Vec<Input>,
    server: Option<Server>,
    reference: Mutex<HashMap<Request, Vec<u8>>>,
}

impl Serve {
    pub fn new(kind: Kind, seed: u64) -> Serve {
        Serve {
            kind,
            programs: programs(kind, seed),
            server: None,
            reference: Mutex::new(HashMap::new()),
        }
    }
}

impl Workload for Serve {
    /// Start the daemon, wait until it is ready, and post every program
    /// once (and touch the other endpoints) so first-request costs are
    /// out of the measured window.
    fn setup(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        std::fs::create_dir_all(&ctx.work)
            .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))?;
        let server = Server::start(&ctx.padfa, &ctx.work.join("serve.stderr"))?;
        let smallest = self
            .programs
            .iter()
            .min_by_key(|i| i.source.len())
            .expect("programs");
        let mut warmups: Vec<(&str, &str, &[u8])> = vec![
            ("GET", "/readyz", b""),
            ("GET", "/healthz", b""),
            ("POST", "/explain", smallest.source.as_bytes()),
        ];
        warmups.extend(
            self.programs
                .iter()
                .map(|p| ("POST", "/analyze", p.source.as_bytes())),
        );
        for (method, path, body) in warmups {
            let reply = http::request(server.addr, method, path, body);
            tally.check(matches!(&reply, Ok(r) if r.status == 200), || {
                format!("warm-up {method} {path} failed: {:?}", reply.err())
            });
        }
        self.server = Some(server);
        Ok(())
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        let shape = self.kind.shape();
        vec![
            ("setup_reps", SETUP_REPS as f64),
            ("open_loop_rate_rps", shape.rate_rps),
            ("open_loop_share_of_window", shape.open_share),
            ("closed_loop_sweeps", shape.closed_sweeps as f64),
            ("connections", connections() as f64),
        ]
    }

    /// SIGTERM; anything but a clean drain and exit 0 is a failure.
    fn teardown(&mut self, _ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        if let Some(server) = self.server.take() {
            let stopped = server.stop();
            tally.check(stopped.is_ok(), || stopped.unwrap_err());
        }
        Ok(())
    }

    fn window(&mut self, ctx: &Ctx, tally: &mut Tally) -> Result<Window, String> {
        let server = self.server.as_ref().ok_or("serve window without set-up")?;
        let shape = self.kind.shape();
        let conns = connections();
        let shared_tally = Mutex::new(std::mem::take(tally));
        let client = Client {
            addr: server.addr,
            programs: &self.programs,
            tracer: &ctx.tracer,
            speed: &ctx.speed,
            reference: &self.reference,
            tally: &shared_tally,
            shed: AtomicU64::new(0),
        };
        let mut window = Window::default();
        let mut by_request: HashMap<Request, Vec<f64>> = HashMap::new();

        // Closed loop: capacity.
        let closed = ctx.tracer.span("closed", SpanId::NONE, 0);
        let mut raw_sweeps = Vec::new();
        let mut series = ctx.speed.series();
        for s in 0..shape.closed_sweeps {
            // Every second sweep is recorded; the others price the recorder.
            ctx.tracer.set_enabled(ctx.trace && s % 2 == 1);
            let requests = sweep(self.kind, self.programs.len(), s);
            // A sweep is timed in slices with the speed probes between
            // them: the probes sit closer to what they scale, and the
            // daemon idles for a few ms per slice, outside the timing.
            let (mut raw_sweep, mut sweep_ms) = (0.0, 0.0);
            for (n, slice) in requests.chunks(CLOSED_SLICE).enumerate() {
                let op_base = (s * requests.len() + n * CLOSED_SLICE) as u64;
                let (records, raw_ms, ms) =
                    series.time(|| client.closed(slice, conns, closed.id(), op_base));
                raw_sweep += raw_ms;
                sweep_ms += ms;
                window.closed_ops += records.len() as u64;
                for r in records {
                    by_request
                        .entry(r.request)
                        .or_default()
                        .push(r.latency_ms * ms / raw_ms);
                }
            }
            raw_sweeps.push(raw_sweep);
            window.pass_ms.push(sweep_ms);
        }
        ctx.tracer.set_enabled(ctx.trace);
        drop(closed);
        window.trace_overhead_pct = trace_overhead_pct(ctx, &window.pass_ms);
        window.closed_s = window.pass_ms.iter().sum::<f64>() / 1e3;
        window.wall_ms = stats::median(&window.pass_ms);
        window.raw_wall_ms = stats::median(&raw_sweeps);

        // Open loop: latency from the due instant.
        let duration_s = ctx.seconds * shape.open_share;
        let n = (shape.rate_rps * duration_s).round() as usize;
        let requests: Vec<Request> = (shape.closed_sweeps..)
            .flat_map(|s| sweep(self.kind, self.programs.len(), s))
            .take(n)
            .collect();
        let due_s = arrivals(n, duration_s);
        let open = ctx.tracer.span("open", SpanId::NONE, 0);
        let (records, host_probes) = client.open(&requests, &due_s, conns, open.id());
        window.host_probes = host_probes;
        drop(open);
        window.op_ms = records.iter().map(|r| r.latency_ms).collect();
        let late = stats::sorted(
            &records
                .iter()
                .map(|r| r.sent_ms - r.due_ms)
                .collect::<Vec<_>>(),
        );
        window.gen_late_p95_ms = Some(stats::percentile(&late, 0.95));

        *tally = shared_tally.into_inner().expect("tally poisoned");
        // Read the high-water mark while the daemon is still alive.
        window.peak_rss_kb = server.vm_kb("VmHWM").unwrap_or(0);
        tally.check(window.peak_rss_kb > 0, || {
            "cannot read VmHWM of padfa serve".to_string()
        });
        let name = |request: Request| match request.endpoint {
            Endpoint::Healthz => "healthz".to_string(),
            Endpoint::Analyze => format!("analyze/{}", self.programs[request.program].name),
            Endpoint::Explain => format!("explain/{}", self.programs[request.program].name),
        };
        window.requests = records
            .iter()
            .map(|r| (name(r.request), r.due_ms, r.sent_ms, r.done_ms))
            .collect();
        let mut rows: Vec<Row> = by_request
            .into_iter()
            .map(|(request, samples_ms)| Row {
                name: name(request),
                samples_ms,
                raw_ms: Vec::new(),
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        window.rows = rows;
        Ok(window)
    }

    /// Every `/analyze` answer against the generator's expectations
    /// (all bodies of one request were already compared byte for byte).
    fn verify(&mut self, _ctx: &Ctx, tally: &mut Tally) -> Result<(), String> {
        let reference = self.reference.lock().expect("reference map poisoned");
        for (request, body) in reference.iter() {
            if request.endpoint == Endpoint::Healthz {
                continue;
            }
            let program = &self.programs[request.program];
            let errors = oracle::check_loops(&String::from_utf8_lossy(body), &program.hard);
            tally.check(errors.is_empty(), || {
                format!(
                    "{:?} {}: {}",
                    request.endpoint,
                    program.name,
                    errors.join("; ")
                )
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_trace_repeats_exactly_and_every_sweep_is_its_own_draw() {
        assert_eq!(arrivals(100, 8.4), arrivals(100, 8.4));
        assert_eq!(sweep(Kind::Mix, 30, 3), sweep(Kind::Mix, 30, 3));
        assert_ne!(sweep(Kind::Mix, 30, 3), sweep(Kind::Mix, 30, 4));
        // The seed decides the bodies, never the trace.
        assert_ne!(
            programs(Kind::Mix, 1)[0].source,
            programs(Kind::Mix, 2)[0].source
        );
    }

    #[test]
    fn arrivals_are_ordered_and_span_the_window() {
        let due = arrivals(101, 8.4);
        assert_eq!(due.len(), 101);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due[0] > 0.0 && due[100] < 8.4);
    }

    #[test]
    fn slices_cover_the_trace_in_order() {
        let due = [0.2, 1.4, 1.6, 2.9, 6.1, 6.2];
        let cut = slices(&due);
        assert_eq!(cut, vec![(0.0, 0..2), (1.5, 2..4), (6.0, 4..6)]);
        let whole = slices(&arrivals(54, 9.0));
        assert_eq!(whole.first().unwrap().1.start, 0);
        assert_eq!(whole.last().unwrap().1.end, 54);
        assert!(whole.windows(2).all(|w| w[0].1.end == w[1].1.start));
    }

    #[test]
    fn mix_is_eighty_twenty_and_covers_every_program() {
        {
            let mut explains = vec![0; 30];
            for s in 0..5 {
                let requests = sweep(Kind::Mix, 30, s);
                assert_eq!(requests.len(), 30);
                let mut seen: Vec<usize> = requests.iter().map(|r| r.program).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..30).collect::<Vec<_>>());
                assert_eq!(
                    requests
                        .iter()
                        .filter(|r| r.endpoint == Endpoint::Explain)
                        .count(),
                    6
                );
                for r in requests.iter().filter(|r| r.endpoint == Endpoint::Explain) {
                    explains[r.program] += 1;
                }
            }
            assert_eq!(explains, vec![1; 30]);
        }
    }

    #[test]
    fn small_posts_the_smallest_programs_with_one_healthz_in_four() {
        let programs = programs(Kind::Small, 7);
        assert_eq!(programs.len(), SMALL_PROGRAMS);
        let cutoff = programs.iter().map(|p| p.source.len()).max().unwrap();
        let smaller = inputs::generate(7)
            .iter()
            .filter(|p| p.source.len() < cutoff)
            .count();
        assert_eq!(smaller, SMALL_PROGRAMS - 1);
        let requests = sweep(Kind::Small, SMALL_PROGRAMS, 0);
        assert_eq!(requests.len(), 16);
        assert_eq!(
            requests
                .iter()
                .filter(|r| r.endpoint == Endpoint::Healthz)
                .count(),
            4
        );
    }
}
