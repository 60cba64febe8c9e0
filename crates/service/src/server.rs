//! The daemon core: acceptor, bounded admission queue, worker pool,
//! request routing, and graceful drain.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept ──► admission check ──► queue ──► worker: parse HTTP ──►
//!   route ──► fresh AnalysisSession ──► respond ──► close
//!     │                              │
//!     └─ full: 429 + Retry-After     └─ panic: typed 500, the worker
//!        draining: 503                  serves the next request
//! ```
//!
//! The acceptor thread blocks in `accept()`, so a connection is read
//! the moment it arrives, and does only bounded work per connection (an
//! accept, a queue push, or a small shed write), so a flood of
//! connections cannot starve it. Drain wakes it with one loopback
//! connection: whatever it accepts once `draining` is set is closed
//! unadmitted, and it returns, closing the listener. All socket reads
//! happen on workers under read timeouts. One request per connection
//! (`Connection: close`) keeps the worker state machine a straight line.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] of [`ServiceFault`]s keys deterministic faults on
//! *admission order* (the 1-based sequence number assigned at accept):
//! an armed `WorkerPanic` unwinds the worker inside its `catch_unwind`
//! fence after the request is parsed; an armed `TornResponse` truncates a
//! computed success response halfway through the write. Both leave the
//! daemon serving: the next request must succeed normally.

use crate::faults::ServiceFault;
use crate::http::{read_request, Request, RequestError, Response};
use crate::ServicePolicy;
use padfa_core::flight;
use padfa_core::{
    analyze_program_session, json_escape, AnalysisError, AnalysisSession, FaultPlan, LoopReport,
    MetricsRegistry, OnExhausted, Options, Outcome, WorkBudget, GIT_REV, SCHEMA_VERSION,
};
use padfa_omega::sync::lock;
use std::collections::{BTreeMap, VecDeque};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket write timeout: bounds how long an unread response can hold a
/// worker (or the acceptor, for a shed reply).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// What the drain observed, for operator logs and tests.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Connections admitted over the server's lifetime.
    pub admitted: u64,
    /// Requests answered with a complete response (any status).
    pub completed: u64,
    /// Connections shed with `429` by the admission gate.
    pub shed: u64,
    /// Queued-but-unstarted requests answered `503` at drain.
    pub drained_in_queue: u64,
    /// Worker panics absorbed (each cost one `500`, never the process).
    pub panics: u64,
    /// False when in-flight work outlived the drain deadline and the
    /// server stopped waiting for it.
    pub clean: bool,
    /// Path of the flight-ring sidecar dumped on an unclean drain, so
    /// whatever wedged past the deadline can be diagnosed post-mortem.
    pub flight_dump: Option<String>,
}

/// Payload type for injected worker panics, so the process-global panic
/// hook can keep injected unwinds quiet while real panics still print.
struct InjectedPanic;

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// One admitted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    /// 1-based admission sequence number (fault-plan key).
    admission: u64,
}

/// State shared by the acceptor and the workers.
struct Shared {
    policy: ServicePolicy,
    metrics: Arc<MetricsRegistry>,
    faults: FaultPlan<ServiceFault>,
    draining: AtomicBool,
    admitted: AtomicU64,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Live worker count, decremented by each worker's exit guard;
    /// `shutdown` waits on the condvar until it reaches zero.
    workers_live: Mutex<usize>,
    workers_cv: Condvar,
}

impl Shared {
    fn count(&self, name: &str, n: u64) {
        self.metrics.counter(name).add(n);
    }

    /// Block until a job is available or the server is draining.
    fn next_job(&self) -> Option<Job> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(j) = q.pop_front() {
                return Some(j);
            }
            if self.draining.load(Ordering::Acquire) {
                return None;
            }
            q = match self.queue_cv.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// A running daemon. Bind with [`Server::start`], stop with
/// [`Server::shutdown`]. Dropping without `shutdown` leaves threads
/// running until the process exits (fine for one-shot test binaries,
/// wrong for anything long-lived).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// acceptor and `policy.workers` workers. `faults` are keyed on
    /// admission order; [`FaultPlan::none`] serves without faults.
    pub fn start(
        addr: &str,
        policy: ServicePolicy,
        faults: FaultPlan<ServiceFault>,
    ) -> std::io::Result<Server> {
        install_quiet_hook();
        let policy = policy.normalized();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            policy,
            metrics: MetricsRegistry::new(),
            faults,
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            workers_live: Mutex::new(0),
            workers_cv: Condvar::new(),
        });
        for id in 0..shared.policy.workers {
            spawn_worker(&shared, id);
        }
        let acceptor = {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("padfa-acceptor".to_string())
                .spawn(move || accept_loop(&sh, &listener))?
        };
        Ok(Server {
            shared,
            addr: local,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry behind `/metrics`, for in-process assertions.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Graceful drain: stop accepting, answer queued-but-unstarted
    /// requests `503`, wait (bounded by the policy drain deadline) for
    /// in-flight requests, and report.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            // An acceptor that never wakes (the connect keeps failing)
            // is left detached rather than hang the drain.
            if wake_acceptor(self.addr, &h, self.shared.policy.drain_deadline) {
                let _ = h.join();
            }
        }
        // Everything still queued was never started: tell those clients
        // to retry elsewhere rather than silently dropping them.
        let leftover: Vec<Job> = lock(&self.shared.queue).drain(..).collect();
        let drained_in_queue = leftover.len() as u64;
        for mut job in leftover {
            let _ = job.stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let _ = shed_response(true).write(&mut job.stream);
        }
        self.shared.count("service.drained", drained_in_queue);
        // Wake idle workers so they observe the drain and exit, then
        // wait for in-flight work up to the drain deadline.
        self.shared.queue_cv.notify_all();
        let deadline = Instant::now() + self.shared.policy.drain_deadline;
        let mut live = lock(&self.shared.workers_live);
        let clean = loop {
            if *live == 0 {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            let (guard, _) = match self.shared.workers_cv.wait_timeout(live, deadline - now) {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            };
            live = guard;
        };
        drop(live);
        // An unclean drain means in-flight work outlived the deadline:
        // dump the flight ring so the wedged request's last recorded
        // events survive the process.
        let flight_dump = if clean {
            None
        } else {
            dump_flight(&self.shared.policy, "drain-unclean")
        };
        let counters = self.shared.metrics.counters_snapshot();
        let get = |k: &str| counters.get(k).copied().unwrap_or(0);
        DrainReport {
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            completed: get("service.completed"),
            shed: get("service.shed"),
            drained_in_queue,
            panics: get("service.panics"),
            clean,
            flight_dump,
        }
    }
}

/// Block in `accept()` until drain begins. A connection accepted once
/// `draining` is set (the drain's wake-up, or a late client) is closed
/// unadmitted, like a backlog connection the listener never hands out.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(_) if shared.draining.load(Ordering::Acquire) => return,
            Ok((stream, _)) => admit(shared, stream),
            Err(_) => {
                // A real error (e.g. `EMFILE`): back off, don't spin.
                shared.count("service.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Connect to the listener until the acceptor, blocked in `accept()`,
/// has seen `draining` and returned, or `within` has passed; the first
/// connection is made whatever `within` is. An unspecified bind address
/// is reached through loopback of its family. Returns whether the
/// acceptor finished.
fn wake_acceptor(addr: SocketAddr, acceptor: &JoinHandle<()>, within: Duration) -> bool {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let deadline = Instant::now() + within;
    loop {
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
        // Give the acceptor a moment to return before connecting again.
        let settle = Instant::now() + Duration::from_millis(20);
        while Instant::now() < settle {
            if acceptor.is_finished() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        if Instant::now() >= deadline {
            return acceptor.is_finished();
        }
    }
}

/// Admission gate: number the connection, then either queue it or shed
/// it. Shedding happens here — with a small bounded write — so a full
/// queue costs the acceptor microseconds, not a worker slot.
fn admit(shared: &Arc<Shared>, mut stream: TcpStream) {
    let admission = shared.admitted.fetch_add(1, Ordering::Relaxed) + 1;
    shared.count("service.requests", 1);
    {
        let mut q = lock(&shared.queue);
        if q.len() < shared.policy.queue_depth {
            q.push_back(Job { stream, admission });
            shared.queue_cv.notify_one();
            return;
        }
    }
    shared.count("service.shed", 1);
    flight::instant(flight::EventKind::AdmissionShed, "queue-full", admission);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = shed_response(false).write(&mut stream);
}

fn shed_response(draining: bool) -> Response {
    let (status, reason, kind, message) = if draining {
        (503, "Service Unavailable", "draining", "server is draining")
    } else {
        (
            429,
            "Too Many Requests",
            "overloaded",
            "admission queue full",
        )
    };
    error_body(status, reason, kind, message).with_header("Retry-After", "1".to_string())
}

fn error_body(status: u16, reason: &'static str, kind: &str, message: &str) -> Response {
    Response::json(
        status,
        reason,
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
            json_escape(kind),
            json_escape(message)
        ),
    )
}

fn spawn_worker(shared: &Arc<Shared>, id: usize) {
    *lock(&shared.workers_live) += 1;
    let sh = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("padfa-worker-{id}"))
        .spawn(move || {
            // Exit guard: whatever path ends this thread, the live count
            // drops and the drain waiter wakes.
            struct Live(Arc<Shared>);
            impl Drop for Live {
                fn drop(&mut self) {
                    *lock(&self.0.workers_live) -= 1;
                    self.0.workers_cv.notify_all();
                }
            }
            let _live = Live(Arc::clone(&sh));
            // A panic is caught inside `serve_connection`, and the thread
            // holds nothing a request must find fresh: each parse starts
            // the `Var` table, and the thread's counters are read as
            // deltas. So the worker goes on to the next job.
            while let Some(job) = sh.next_job() {
                serve_connection(&sh, job);
            }
        });
    if spawned.is_err() {
        // Thread creation failed (resource exhaustion): undo the count.
        // The pool shrinks; the admission bound still holds.
        *lock(&shared.workers_live) -= 1;
        shared.count("service.spawn_errors", 1);
    }
}

/// Keep a client-supplied trace id loggable: drop everything outside a
/// conservative charset and cap the length.
fn sanitize_trace_id(raw: &str) -> String {
    raw.chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
        .take(64)
        .collect()
}

/// Write the global flight ring to a sidecar JSON file in the policy's
/// dump directory; `None` when the policy names none or it cannot be
/// written (diagnosis is best-effort, serving is not).
fn dump_flight(policy: &ServicePolicy, stem: &str) -> Option<String> {
    let dir = policy.flight_dump_dir.as_ref()?;
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("padfa-flight-{}-{stem}.json", std::process::id()));
    std::fs::write(&path, flight::ring_json()).ok()?;
    Some(path.display().to_string())
}

/// The `/debug/requests` body: one record per `Request` span in the
/// ring whose `Begin` and `End` both survive, in completion order. A
/// request is served start to finish on one worker thread, so its events
/// are those on its span's `tid` from `Begin` to `End`.
fn requests_json() -> String {
    let events = flight::select(0, None);
    let mut open: BTreeMap<u64, Vec<&flight::Event>> = BTreeMap::new();
    let mut records = Vec::new();
    for e in &events {
        let request = e.kind == flight::EventKind::Request;
        if request && e.phase == flight::Phase::Begin {
            open.insert(e.tid, Vec::new());
        }
        if let Some(span) = open.get_mut(&e.tid) {
            span.push(e);
        }
        if request && e.phase == flight::Phase::End {
            if let Some(span) = open.remove(&e.tid) {
                records.push(record_json(e, &span));
            }
        }
    }
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"records\":[{}]}}",
        records.join(",")
    )
}

/// One request's record, from its `Request` span's `End` (labelled
/// `"<METHOD> <path> <trace-id>"`, valued with the status) and every
/// event of the span.
fn record_json(end: &flight::Event, span: &[&flight::Event]) -> String {
    let mut label = end.label.splitn(3, ' ').map(json_escape);
    let mut next = || label.next().unwrap_or_default();
    let (method, path, trace_id) = (next(), next(), next());
    format!(
        "{{\"trace_id\":\"{trace_id}\",\"method\":\"{method}\",\"path\":\"{path}\",\
         \"status\":{},\"total_us\":{},\"phases\":{}}}",
        end.value,
        end.dur_us,
        flight::profile_json(&flight::profile(span.iter().copied())),
    )
}

/// Serve one connection end to end.
fn serve_connection(shared: &Arc<Shared>, mut job: Job) {
    let _ = job
        .stream
        .set_read_timeout(Some(shared.policy.read_timeout));
    let _ = job.stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let req = match read_request(&mut job.stream) {
        Ok(r) => r,
        Err(e) => {
            match e {
                RequestError::Timeout => shared.count("service.read_timeouts", 1),
                RequestError::Disconnected => shared.count("service.torn_clients", 1),
                _ => shared.count("service.bad_requests", 1),
            }
            // No request means no client trace id; a generated one is
            // still echoed.
            if let Some((status, reason, kind)) = e.status() {
                let _ = error_body(status, reason, kind, &e.detail())
                    .with_header("X-Padfa-Trace-Id", format!("padfa-{}", job.admission))
                    .write(&mut job.stream);
                shared.count("service.completed", 1);
                shared.count(&format!("service.responses.{status}"), 1);
            }
            return;
        }
    };
    // Trace id: accept the client's (sanitized), generate otherwise,
    // echo either way. It names the request's span, so `/debug/requests`
    // can find the request by it.
    let trace_id = req
        .header("x-padfa-trace-id")
        .map(sanitize_trace_id)
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| format!("padfa-{}", job.admission));
    let mut req_span = flight::span(
        flight::EventKind::Request,
        format!("{} {} {trace_id}", req.method, req.path),
    );
    let fault = shared.faults.armed(job.admission).next().copied();
    match fault {
        Some(ServiceFault::SlowRequest { ms }) => {
            // Deterministic stall before the handler, inside the
            // request's span: the delay shows as request self-time in its
            // phase breakdown, and the span stays open meanwhile.
            std::thread::sleep(Duration::from_millis(ms));
        }
        Some(ServiceFault::RecorderOverflow) => {
            for i in 0..=flight::capacity() as u64 {
                flight::instant(flight::EventKind::Note, "ring-flood", i);
            }
        }
        _ => {}
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| route(shared, &req, fault)));
    let status = match outcome {
        Ok(resp) => {
            let resp = resp.with_header("X-Padfa-Trace-Id", trace_id.clone());
            let torn = matches!(fault, Some(ServiceFault::TornResponse));
            let written = if torn {
                shared.count("service.torn_responses", 1);
                resp.write_torn(&mut job.stream)
            } else {
                resp.write(&mut job.stream)
            };
            if written.is_err() {
                shared.count("service.write_errors", 1);
            }
            shared.count("service.completed", 1);
            resp.status
        }
        Err(_) => {
            shared.count("service.panics", 1);
            flight::instant(
                flight::EventKind::WorkerPanic,
                &format!("{} {}", req.method, req.path),
                job.admission,
            );
            // Dump the ring before replying: the 500 body carries the
            // sidecar path so the client's error report already points
            // at the forensics file.
            let dump = dump_flight(&shared.policy, &format!("panic-{}", job.admission));
            let mut body = format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"error\":{{\"kind\":\"panic\",\
                 \"message\":\"request handler panicked\"}}"
            );
            if let Some(p) = &dump {
                body.push_str(&format!(",\"flight_dump\":\"{}\"", json_escape(p)));
            }
            body.push('}');
            let _ = Response::json(500, "Internal Server Error", body)
                .with_header("X-Padfa-Trace-Id", trace_id.clone())
                .write(&mut job.stream);
            shared.count("service.completed", 1);
            500
        }
    };
    req_span.set_value(u64::from(status));
    drop(req_span);
    shared.count(&format!("service.responses.{status}"), 1);
}

fn route(shared: &Arc<Shared>, req: &Request, fault: Option<ServiceFault>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "OK", "{\"status\":\"ok\"}".to_string()),
        ("GET", "/readyz") => {
            if shared.draining.load(Ordering::Acquire) {
                error_body(503, "Service Unavailable", "draining", "server is draining")
            } else {
                Response::json(200, "OK", "{\"status\":\"ready\"}".to_string())
            }
        }
        ("GET", "/metrics") => Response::text(
            200,
            "OK",
            crate::http::prometheus_text(&shared.metrics, GIT_REV),
        ),
        ("GET", "/debug/requests") => Response::json(200, "OK", requests_json()),
        ("GET", "/debug/flight") => Response::json(200, "OK", flight::ring_json()),
        ("POST", "/analyze") => analysis_endpoint(shared, req, fault, false),
        ("POST", "/explain") => analysis_endpoint(shared, req, fault, true),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/analyze" | "/explain" | "/debug/requests"
            | "/debug/flight",
        ) => error_body(
            405,
            "Method Not Allowed",
            "method_not_allowed",
            &format!("{} not supported on {}", req.method, req.path),
        ),
        _ => error_body(
            404,
            "Not Found",
            "not_found",
            &format!("no such endpoint: {}", req.path),
        ),
    }
}

/// `/analyze` and `/explain` share everything up to response shaping.
fn analysis_endpoint(
    shared: &Arc<Shared>,
    req: &Request,
    fault: Option<ServiceFault>,
    explain: bool,
) -> Response {
    let Some(src) = req.body_utf8() else {
        return error_body(400, "Bad Request", "bad_request", "body is not UTF-8");
    };
    let variant = req
        .query
        .get("variant")
        .map(String::as_str)
        .unwrap_or("predicated");
    let Some(opts) = Options::named(variant) else {
        return error_body(
            400,
            "Bad Request",
            "bad_request",
            &format!("unknown variant '{variant}'"),
        );
    };
    let budget = match effective_budget(&shared.policy, req) {
        Ok(b) => b,
        Err(msg) => return error_body(400, "Bad Request", "bad_request", &msg),
    };
    let parsed = {
        let _parse = flight::span(flight::EventKind::Parse, req.path.as_str());
        padfa_ir::parse::parse_program(&src)
    };
    let prog = match parsed {
        Ok(p) => p,
        Err(e) => {
            return error_body(
                400,
                "Bad Request",
                "parse",
                &format!("{}:{}: {}", e.line, e.col, e.msg),
            )
        }
    };
    // An armed worker-panic fault fires here: past parsing (the request
    // was legitimate) and inside the catch_unwind fence.
    if matches!(fault, Some(ServiceFault::WorkerPanic)) {
        // The one deliberate unwind in the crate — the fault-injection
        // harness proving the isolation fence holds.
        #[allow(clippy::panic)]
        std::panic::panic_any(InjectedPanic);
    }
    let opts = opts.with_budget(budget);
    // Fresh session per request: bounded memory, no cross-request
    // interner growth.
    let mut sess = AnalysisSession::new(opts);
    if explain {
        sess = sess.with_provenance();
    }
    let t0 = Instant::now();
    let result = analyze_program_session(&prog, &sess);
    let histogram = if explain {
        "service.latency.explain"
    } else {
        "service.latency.analyze"
    };
    shared
        .metrics
        .histogram(histogram)
        .record_ns(t0.elapsed().as_nanos() as u64);
    sess.stats().publish(&shared.metrics);
    let (result, _summaries) = match result {
        Ok(out) => out,
        Err(e) => return analysis_error_response(&e),
    };
    if explain {
        explain_response(&result, req, variant)
    } else {
        analyze_response(&result, variant)
    }
}

/// Clamp header-requested budgets against policy: effective = min(
/// requested-or-default, ceiling); no request, no default = unlimited.
fn effective_budget(policy: &ServicePolicy, req: &Request) -> Result<WorkBudget, String> {
    let header_u64 = |name: &str| -> Result<Option<u64>, String> {
        match req.header(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("invalid {name} header: '{v}'")),
        }
    };
    let clamp = |requested: Option<u64>, default: Option<u64>, ceiling: Option<u64>| match (
        requested.or(default),
        ceiling,
    ) {
        (Some(v), Some(c)) => Some(v.min(c)),
        (v, _) => v,
    };
    let strict = match req.header("x-padfa-strict") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => {
            return Err(format!(
                "invalid x-padfa-strict header: '{v}' (want 0 or 1)"
            ))
        }
    };
    Ok(WorkBudget {
        max_steps: clamp(
            header_u64("x-padfa-max-steps")?,
            policy.default_max_steps,
            policy.max_steps_ceiling,
        ),
        deadline_ms: clamp(
            header_u64("x-padfa-deadline-ms")?,
            policy.default_deadline_ms,
            policy.deadline_ms_ceiling,
        ),
        on_exhausted: if strict {
            OnExhausted::Error
        } else {
            OnExhausted::Degrade
        },
    })
}

fn analysis_error_response(e: &AnalysisError) -> Response {
    match e {
        AnalysisError::Parse(pe) => error_body(
            400,
            "Bad Request",
            "parse",
            &format!("{}:{}: {}", pe.line, pe.col, pe.msg),
        ),
        AnalysisError::MalformedIr(m) => error_body(400, "Bad Request", "malformed_ir", m),
        AnalysisError::BudgetExhausted { proc, steps } => Response::json(
            422,
            "Unprocessable Entity",
            format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"error\":{{\"kind\":\"budget_exhausted\",\
                 \"proc\":\"{}\",\"steps\":{steps},\"message\":\"work budget exhausted\"}}}}",
                json_escape(proc)
            ),
        ),
        AnalysisError::Internal(m) => error_body(500, "Internal Server Error", "internal", m),
    }
}

/// The `/analyze` body: a deterministic per-loop verdict summary. No
/// timing, no request ids — N identical requests must produce
/// byte-identical bodies.
fn analyze_response(result: &padfa_core::AnalysisResult, variant: &str) -> Response {
    let mut loops = String::new();
    let mut parallelized = 0u64;
    let mut runtime_tests = 0u64;
    for (i, r) in result.loops.iter().enumerate() {
        if i > 0 {
            loops.push(',');
        }
        if r.parallelized() {
            parallelized += 1;
        }
        if r.not_candidate.is_none() && matches!(r.outcome, Outcome::ParallelIf(_)) {
            runtime_tests += 1;
        }
        loops.push_str(&loop_entry(r));
    }
    Response::json(
        200,
        "OK",
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"variant\":\"{}\",\"loops\":[{loops}],\
             \"total\":{},\"parallelized\":{parallelized},\"runtime_tests\":{runtime_tests},\
             \"degraded_procs\":{}}}",
            json_escape(variant),
            result.loops.len(),
            result.stats.degraded_procs
        ),
    )
}

fn loop_entry(r: &LoopReport) -> String {
    let outcome = if r.not_candidate.is_some() {
        "not-candidate"
    } else {
        match r.outcome {
            Outcome::Parallel => "parallel",
            Outcome::ParallelIf(_) => "parallel-if",
            Outcome::Sequential => "sequential",
        }
    };
    let label = match &r.label {
        Some(l) => format!("\"{}\"", json_escape(l)),
        None => "null".to_string(),
    };
    let test = match (&r.not_candidate, &r.outcome) {
        (None, Outcome::ParallelIf(p)) => format!(",\"test\":\"{}\"", json_escape(&p.to_string())),
        _ => String::new(),
    };
    format!(
        "{{\"id\":{},\"label\":{label},\"proc\":\"{}\",\"depth\":{},\"outcome\":\"{outcome}\"\
         {test},\"privatized\":{},\"reductions\":{}}}",
        r.id.0,
        json_escape(&r.proc),
        r.depth,
        r.privatized.len() + r.privatized_scalars.len(),
        r.reductions.len()
    )
}

/// The `/explain` body: full decision-provenance JSON per selected
/// loop, the same `loop_json` trees the CLI's `explain --json` prints.
fn explain_response(result: &padfa_core::AnalysisResult, req: &Request, variant: &str) -> Response {
    let target = req.query.get("loop");
    let selected: Vec<&LoopReport> = match target {
        Some(t) => result.select(t),
        None => result.loops.iter().collect(),
    };
    if selected.is_empty() && target.is_some() {
        return error_body(
            404,
            "Not Found",
            "loop_not_found",
            &format!(
                "no analyzed loop labeled or numbered '{}'",
                target.map(String::as_str).unwrap_or("")
            ),
        );
    }
    let loops: Vec<String> = selected.iter().map(|r| padfa_core::loop_json(r)).collect();
    Response::json(
        200,
        "OK",
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"variant\":\"{}\",\"loops\":[{}]}}",
            json_escape(variant),
            loops.join(",")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn req_with_headers(pairs: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".to_string(),
            path: "/analyze".to_string(),
            query: BTreeMap::new(),
            headers: pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        }
    }

    #[test]
    fn budget_defaults_to_unlimited() {
        let b = effective_budget(&ServicePolicy::default(), &req_with_headers(&[])).unwrap();
        assert!(b.is_unlimited());
        assert_eq!(b.on_exhausted, OnExhausted::Degrade);
    }

    #[test]
    fn budget_headers_are_clamped_by_ceilings() {
        let policy = ServicePolicy {
            max_steps_ceiling: Some(1000),
            deadline_ms_ceiling: Some(50),
            ..ServicePolicy::default()
        };
        let b = effective_budget(
            &policy,
            &req_with_headers(&[
                ("x-padfa-max-steps", "999999"),
                ("x-padfa-deadline-ms", "10"),
                ("x-padfa-strict", "1"),
            ]),
        )
        .unwrap();
        assert_eq!(b.max_steps, Some(1000)); // clamped to the ceiling
        assert_eq!(b.deadline_ms, Some(10)); // under the ceiling: kept
        assert_eq!(b.on_exhausted, OnExhausted::Error);
        // Ceilings alone do not impose a budget on unadorned requests.
        let b = effective_budget(&policy, &req_with_headers(&[])).unwrap();
        assert!(b.is_unlimited());
    }

    #[test]
    fn budget_policy_defaults_apply_without_headers() {
        let policy = ServicePolicy {
            default_max_steps: Some(5000),
            max_steps_ceiling: Some(1000),
            ..ServicePolicy::default()
        };
        let b = effective_budget(&policy, &req_with_headers(&[])).unwrap();
        assert_eq!(b.max_steps, Some(1000)); // defaults are clamped too
    }

    #[test]
    fn bad_budget_headers_are_rejected() {
        let p = ServicePolicy::default();
        assert!(effective_budget(&p, &req_with_headers(&[("x-padfa-max-steps", "lots")])).is_err());
        assert!(effective_budget(&p, &req_with_headers(&[("x-padfa-strict", "yes")])).is_err());
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let overloaded = shed_response(false);
        assert_eq!(overloaded.status, 429);
        assert!(overloaded.extra.iter().any(|(k, _)| *k == "Retry-After"));
        let draining = shed_response(true);
        assert_eq!(draining.status, 503);
        assert!(String::from_utf8(draining.body)
            .unwrap()
            .contains("draining"));
    }

    #[test]
    fn trace_ids_are_sanitized_and_capped() {
        assert_eq!(sanitize_trace_id("req-42:a.b_c"), "req-42:a.b_c");
        assert_eq!(sanitize_trace_id("a b\r\nInjected: x"), "abInjected:x");
        assert_eq!(sanitize_trace_id(&"x".repeat(200)).len(), 64);
        assert_eq!(sanitize_trace_id("\"{}\n"), "");
    }
}
