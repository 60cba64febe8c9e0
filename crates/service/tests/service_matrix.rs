//! The service-layer fault matrix and behavioral contract, exercised
//! over real sockets against an in-process [`Server`].
//!
//! Acceptance (mirrors the batch-side fault matrix): under injected
//! worker panics, torn responses, torn client disconnects, and
//! overload, the daemon never returns a wrong non-error result, never
//! crashes, and always drains to a clean exit.

use padfa_core::{flight, Fault, FaultPlan, GIT_REV};
use padfa_service::http::MAX_BODY_BYTES;
use padfa_service::{check_exposition, Server, ServiceFault, ServicePolicy};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Held by every test that reads `/debug/requests` or floods the
/// process-wide flight ring, so a flood cannot wipe another test's
/// requests before it reads them.
fn ring() -> MutexGuard<'static, ()> {
    static RING: Mutex<()> = Mutex::new(());
    RING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The body of `GET /debug/requests`.
fn debug_requests(addr: SocketAddr) -> String {
    let dbg = request(addr, "GET", "/debug/requests", &[], b"");
    assert_eq!(dbg.status, 200);
    body_str(&dbg)
}

/// The records in a `/debug/requests` body whose trace id is `id`.
fn records_of(records: &str, id: &str) -> Vec<String> {
    records
        .split("{\"trace_id\":")
        .filter(|r| r.starts_with(&format!("\"{id}\"")))
        .map(str::to_string)
        .collect()
}

/// The `{"phase":"<name>",...}` entry of a record's `phases`.
fn phase(rec: &str, name: &str) -> String {
    let needle = format!("{{\"phase\":\"{name}\",");
    let at = rec
        .find(&needle)
        .unwrap_or_else(|| panic!("no {name} phase in: {rec}"));
    rec[at..at + rec[at..].find('}').unwrap()].to_string()
}

/// The `"spans":N` field of a record's `name` phase.
fn spans_of(rec: &str, name: &str) -> String {
    let p = phase(rec, name);
    let at = p.find("\"spans\":").unwrap();
    p[at..at + p[at..].find(',').unwrap()].to_string()
}

/// A loop nest whose hot loop needs a run-time test — exercises the
/// predicated path end to end, not just a trivially parallel loop.
const PROGRAM: &str = "proc main(n: int, x: int) {
    array help[101];
    array a[100, 2];
    for@hot i = 1 to n {
        if (x > 5) { help[i] = a[i, 1]; }
        a[i, 2] = help[i + 1];
    }
}";

struct Reply {
    status: u16,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

/// Issue one request and read the reply to EOF (the server always
/// closes). Panics on transport errors: every test expects a live
/// server.
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Reply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: t\r\n");
    if method == "POST" {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    // Best-effort writes: an early reply (413, 429) can close the
    // socket while we are still sending the body.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let mut raw = Vec::new();
    // read_to_end surfaces ECONNRESET when the peer closed with unread
    // request bytes pending; keep whatever arrived before that.
    let _ = stream.read_to_end(&mut raw);
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> Reply {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header terminator in reply");
    let head = std::str::from_utf8(&raw[..head_end]).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let headers: BTreeMap<String, String> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    }
}

fn body_str(r: &Reply) -> String {
    String::from_utf8(r.body.clone()).unwrap()
}

fn analyze(addr: SocketAddr) -> Reply {
    request(addr, "POST", "/analyze", &[], PROGRAM.as_bytes())
}

fn quick_policy() -> ServicePolicy {
    ServicePolicy {
        read_timeout: Duration::from_millis(500),
        drain_deadline: Duration::from_secs(10),
        ..ServicePolicy::default()
    }
}

fn start(policy: ServicePolicy, faults: FaultPlan<ServiceFault>) -> Server {
    Server::start("127.0.0.1:0", policy, faults).unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "padfa-service-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn endpoints_respond_with_their_contracts() {
    let server = start(quick_policy(), FaultPlan::none());
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    assert_eq!(body_str(&health), "{\"status\":\"ok\"}");

    let ready = request(addr, "GET", "/readyz", &[], b"");
    assert_eq!(ready.status, 200);

    let ok = analyze(addr);
    assert_eq!(ok.status, 200);
    let body = body_str(&ok);
    assert!(body.contains("\"label\":\"hot\""), "body: {body}");
    assert!(body.contains("\"outcome\":\"parallel-if\""), "body: {body}");
    assert!(body.contains("\"test\":"), "body: {body}");
    assert!(!body.contains("ms\":"), "timing leaked into body: {body}");

    let explain = request(addr, "POST", "/explain?loop=hot", &[], PROGRAM.as_bytes());
    assert_eq!(explain.status, 200);
    let explain_body = body_str(&explain);
    assert!(explain_body.contains("\"winner\""), "body: {explain_body}");
    assert!(explain_body.contains("\"mechanisms\""));

    let missing = request(addr, "POST", "/explain?loop=nope", &[], PROGRAM.as_bytes());
    assert_eq!(missing.status, 404);
    assert!(body_str(&missing).contains("loop_not_found"));

    let metrics = request(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let text = body_str(&metrics);
    assert!(text.contains("padfa_service_requests"), "metrics: {text}");
    assert!(text.contains("padfa_service_latency_analyze_ns_count"));

    let nf = request(addr, "GET", "/nope", &[], b"");
    assert_eq!(nf.status, 404);
    let mna = request(addr, "GET", "/analyze", &[], b"");
    assert_eq!(mna.status, 405);
    let bad_variant = request(
        addr,
        "POST",
        "/analyze?variant=magic",
        &[],
        PROGRAM.as_bytes(),
    );
    assert_eq!(bad_variant.status, 400);
    let garbage = request(addr, "POST", "/analyze", &[], b"proc {{{{");
    assert_eq!(garbage.status, 400);
    assert!(body_str(&garbage).contains("\"kind\":\"parse\""));

    let report = server.shutdown();
    assert!(report.clean);
    assert_eq!(report.panics, 0);
    assert_eq!(report.completed, report.admitted);
}

#[test]
fn budget_headers_drive_typed_responses() {
    let server = start(quick_policy(), FaultPlan::none());
    let addr = server.addr();

    // Strict + starved budget: typed 422, not a crash or a wrong result.
    let strict = request(
        addr,
        "POST",
        "/analyze",
        &[("X-Padfa-Max-Steps", "1"), ("X-Padfa-Strict", "1")],
        PROGRAM.as_bytes(),
    );
    assert_eq!(strict.status, 422);
    assert!(body_str(&strict).contains("budget_exhausted"));

    // Degrade (default): 200 with the degradation visible in the body.
    let degraded = request(
        addr,
        "POST",
        "/analyze",
        &[("X-Padfa-Max-Steps", "1")],
        PROGRAM.as_bytes(),
    );
    assert_eq!(degraded.status, 200);
    assert!(body_str(&degraded).contains("\"degraded_procs\":1"));

    let bad = request(
        addr,
        "POST",
        "/analyze",
        &[("X-Padfa-Max-Steps", "a lot")],
        PROGRAM.as_bytes(),
    );
    assert_eq!(bad.status, 400);

    assert!(server.shutdown().clean);
}

#[test]
fn oversized_and_lengthless_bodies_are_rejected() {
    let server = start(quick_policy(), FaultPlan::none());
    let addr = server.addr();
    // Write a head by hand and send no body: the reply comes before any
    // body would be read, so no write races the server's close.
    let head_only = |head: String| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        parse_reply(&raw).status
    };

    let big = format!(
        "POST /analyze HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert_eq!(head_only(big), 413);
    // POST without Content-Length.
    assert_eq!(
        head_only("POST /analyze HTTP/1.1\r\nHost: t\r\n\r\n".to_string()),
        411
    );

    // The daemon still serves correctly afterwards.
    assert_eq!(request(addr, "GET", "/healthz", &[], b"").status, 200);
    assert!(server.shutdown().clean);
}

#[test]
fn concurrent_identical_requests_are_byte_identical() {
    let server = start(quick_policy(), FaultPlan::none());
    let addr = server.addr();
    let reference = analyze(server.addr());
    assert_eq!(reference.status, 200);
    let expected = reference.body.clone();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let r = analyze(addr);
                assert_eq!(r.status, 200);
                r.body
            })
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().unwrap(), expected, "concurrent body diverged");
    }
    assert!(server.shutdown().clean);
}

#[test]
fn worker_panic_costs_one_500_and_the_pool_recovers() {
    // One worker, so the recovery path is load-bearing: if the worker
    // that caught the panic stopped serving, request 2 would hang forever.
    let policy = ServicePolicy {
        workers: 1,
        ..quick_policy()
    };
    let faults = FaultPlan::at(ServiceFault::WorkerPanic, 1);
    let server = start(policy, faults);
    let addr = server.addr();

    let hit = analyze(addr);
    assert_eq!(hit.status, 500);
    assert!(body_str(&hit).contains("\"kind\":\"panic\""));

    // The very next request must be served correctly by the same
    // worker — byte-identical to an unfaulted server's answer.
    let after = analyze(addr);
    assert_eq!(after.status, 200);
    assert!(body_str(&after).contains("\"outcome\":\"parallel-if\""));

    let report = server.shutdown();
    assert!(report.clean);
    assert_eq!(report.panics, 1);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
}

#[test]
fn repeated_panics_never_kill_the_daemon() {
    // Panic on every other request; the pool must absorb all of them.
    let mut plan = FaultPlan::none();
    for k in [1u64, 3, 5, 7] {
        plan = plan.with(Fault {
            at: k,
            kind: ServiceFault::WorkerPanic,
        });
    }
    let policy = ServicePolicy {
        workers: 2,
        ..quick_policy()
    };
    let server = start(policy, plan);
    let addr = server.addr();
    let mut codes = Vec::new();
    for _ in 0..8 {
        codes.push(analyze(addr).status);
    }
    assert_eq!(codes.iter().filter(|&&c| c == 500).count(), 4);
    assert_eq!(codes.iter().filter(|&&c| c == 200).count(), 4);
    let report = server.shutdown();
    assert!(report.clean);
    assert_eq!(report.panics, 4);
}

#[test]
fn torn_response_truncates_exactly_one_reply() {
    let faults = FaultPlan::at(ServiceFault::TornResponse, 1);
    let server = start(quick_policy(), faults);
    let addr = server.addr();

    // Request 1: the server computes a full success response but tears
    // the write halfway. The client sees a short read against the
    // advertised Content-Length and must treat the reply as corrupt.
    let torn = analyze(addr);
    let advertised: usize = torn.headers.get("content-length").unwrap().parse().unwrap();
    assert!(
        torn.body.len() < advertised,
        "torn reply was complete: {} of {advertised} bytes",
        torn.body.len()
    );

    // Request 2 is whole again.
    let whole = analyze(addr);
    assert_eq!(whole.status, 200);
    assert_eq!(
        whole.body.len(),
        whole.headers["content-length"].parse::<usize>().unwrap()
    );
    assert!(server.shutdown().clean);
}

#[test]
fn torn_client_disconnects_leave_the_daemon_serving() {
    let server = start(quick_policy(), FaultPlan::none());
    let addr = server.addr();

    // Promise a body, send a fragment, vanish.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 5000\r\n\r\nproc ")
            .unwrap();
    } // dropped: RST or FIN mid-body

    // Say nothing at all until the read timeout reaps the connection.
    {
        let _s = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(700)); // > read_timeout
    }

    let after = analyze(addr);
    assert_eq!(after.status, 200);
    let report = server.shutdown();
    assert!(report.clean);
    assert_eq!(report.panics, 0);
}

/// The full forensics surface, driven end to end in one deterministic
/// admission sequence: trace-id echo (client-supplied and generated),
/// a stalled request's wall time in its record, post-hoc attribution of a 422 by status and phase, forced ring wraparound
/// visible in `/debug/flight` and never half-built in
/// `/debug/requests`, and a `/metrics` exposition that passes the
/// in-repo checker. One test, because the assertions share the
/// process-global flight ring and must run in a known order.
#[test]
fn tracing_slow_forensics_and_debug_endpoints() {
    let _ring = ring();
    let faults = FaultPlan::at(ServiceFault::SlowRequest { ms: 200 }, 2).with(Fault {
        at: 5,
        kind: ServiceFault::RecorderOverflow,
    });
    let server = start(quick_policy(), faults);
    let addr = server.addr();

    // Admission 1: client-supplied trace id, echoed back verbatim.
    let tagged = request(
        addr,
        "POST",
        "/analyze",
        &[("X-Padfa-Trace-Id", "matrix-trace-alpha")],
        PROGRAM.as_bytes(),
    );
    assert_eq!(tagged.status, 200);
    assert_eq!(
        tagged.headers.get("x-padfa-trace-id").map(String::as_str),
        Some("matrix-trace-alpha")
    );

    // Admission 2: an injected 200 ms stall; no client id, so the
    // server generates one.
    let slow = analyze(addr);
    assert_eq!(slow.status, 200);
    let generated = slow.headers.get("x-padfa-trace-id").unwrap().clone();
    assert!(generated.starts_with("padfa-"), "generated id: {generated}");

    // Admission 3: strict starved budget — a 422 that must stay
    // attributable after the fact.
    let strict = request(
        addr,
        "POST",
        "/analyze",
        &[
            ("X-Padfa-Max-Steps", "1"),
            ("X-Padfa-Strict", "1"),
            ("X-Padfa-Trace-Id", "matrix-trace-budget"),
        ],
        PROGRAM.as_bytes(),
    );
    assert_eq!(strict.status, 422);
    assert_eq!(
        strict.headers.get("x-padfa-trace-id").map(String::as_str),
        Some("matrix-trace-budget")
    );

    // Admission 4, /debug/requests: every request above is in the ring
    // with its trace id, outcome, and phase breakdown.
    let records = debug_requests(addr);
    let alpha = records_of(&records, "matrix-trace-alpha");
    assert_eq!(alpha.len(), 1, "{alpha:?}");
    assert_eq!(spans_of(&alpha[0], "request"), "\"spans\":1");
    // (Other tests' daemons in this process generate the same ids.)
    let slow_rec = records_of(&records, &generated);
    let total_us = |rec: &String| -> u64 {
        let at = rec.find("\"total_us\":").unwrap() + "\"total_us\":".len();
        rec[at..at + rec[at..].find(',').unwrap()].parse().unwrap()
    };
    assert!(
        slow_rec.iter().any(|r| total_us(r) >= 200_000),
        "stalled request not in the ring: {slow_rec:?}"
    );
    assert!(!records.contains("\"slow\""), "{records}");
    let budget_rec = records_of(&records, "matrix-trace-budget");
    assert_eq!(budget_rec.len(), 1, "422 request not in the ring");
    assert!(budget_rec[0].contains("\"status\":422"), "{budget_rec:?}");
    assert!(
        phase(&budget_rec[0], "budget-exhausted").contains("\"instants\":1,"),
        "422 not attributable: {budget_rec:?}"
    );

    // Admission 5: flood the ring past capacity so wraparound
    // accounting is observable below.
    let flooded = request(
        addr,
        "POST",
        "/analyze",
        &[("X-Padfa-Trace-Id", "matrix-trace-flood")],
        PROGRAM.as_bytes(),
    );
    assert_eq!(flooded.status, 200);

    // /debug/flight: the flood forced wraparound; the flooded request's
    // End survives, its Begin does not.
    let ring = request(addr, "GET", "/debug/flight", &[], b"");
    assert_eq!(ring.status, 200);
    let ring_body = body_str(&ring);
    assert!(ring_body.contains("\"events\":["), "body: {ring_body}");
    assert!(
        !ring_body.contains("\"overflows\":0,"),
        "flood did not wrap the ring"
    );
    let flood_phases: Vec<&str> = ring_body
        .split("{\"seq\":")
        .filter(|e| e.contains("\"label\":\"POST /analyze matrix-trace-flood\""))
        .map(|e| &e[e.find("\"phase\":").unwrap()..][..11])
        .collect();
    assert_eq!(flood_phases, ["\"phase\":\"E\""], "{ring_body}");
    // ...so /debug/requests leaves it out rather than half-built.
    let records = debug_requests(addr);
    assert_eq!(
        records_of(&records, "matrix-trace-flood"),
        Vec::<String>::new()
    );

    // /metrics: typed, bucketed, and clean under the in-repo checker.
    let metrics = request(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let text = body_str(&metrics);
    assert!(text.contains(&format!("padfa_build_info{{git_rev=\"{GIT_REV}\"")));
    assert!(text.contains("_bucket{le=\""), "no histogram buckets");
    assert!(!text.contains("slow_requests"), "{text}");
    if let Err(violations) = check_exposition(&text) {
        panic!("/metrics failed the exposition checker: {violations:?}");
    }

    assert!(server.shutdown().clean);
}

/// The value of the bare sample `name` in a `/metrics` scrape.
fn scrape(addr: SocketAddr, name: &str) -> u64 {
    let metrics = request(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let text = body_str(&metrics);
    if let Err(violations) = check_exposition(&text) {
        panic!("/metrics failed the exposition checker: {violations:?}");
    }
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample '{name}' in: {text}"))
}

/// Session counters in `/metrics` are `# TYPE counter`: each request
/// adds its own, none overwrites the running total.
#[test]
fn metrics_session_counters_accumulate_across_requests() {
    let server = start(quick_policy(), FaultPlan::none());
    let addr = server.addr();
    assert_eq!(analyze(addr).status, 200);
    let one = scrape(addr, "padfa_query_sys_empty_total");
    assert!(one > 0);
    assert_eq!(analyze(addr).status, 200);
    assert_eq!(scrape(addr, "padfa_query_sys_empty_total"), 2 * one);
    // A smaller program in between must not pull the total down.
    let small = "proc main(n: int) { array a[8]; for i = 1 to n { a[i] = 0.0; } }";
    assert_eq!(
        request(addr, "POST", "/analyze", &[], small.as_bytes()).status,
        200
    );
    assert!(scrape(addr, "padfa_query_sys_empty_total") >= 2 * one);
    assert!(server.shutdown().clean);
}

/// A client that reuses one trace id still gets one record per
/// request: the record is this request's events, not every event that
/// ever carried the id — sequentially, and while two such requests
/// overlap on two workers.
#[test]
fn reused_trace_id_records_one_request_each() {
    let _ring = ring();
    let faults = FaultPlan::at(ServiceFault::SlowRequest { ms: 500 }, 1);
    let server = start(quick_policy(), faults);
    let addr = server.addr();
    let dup = |addr: SocketAddr| {
        let r = request(
            addr,
            "POST",
            "/analyze",
            &[("X-Padfa-Trace-Id", "matrix-trace-dup")],
            PROGRAM.as_bytes(),
        );
        assert_eq!(r.status, 200);
    };

    // A stalls 500 ms inside its span on one worker; B, with the same
    // id, is served on the other meanwhile.
    let a = std::thread::spawn(move || dup(addr));
    let a_open = || {
        flight::select(0, None).iter().any(|e| {
            e.kind == flight::EventKind::Request
                && e.phase == flight::Phase::Begin
                && e.label == "POST /analyze matrix-trace-dup"
        })
    };
    while !a_open() {
        std::thread::yield_now();
    }
    dup(addr);
    a.join().unwrap();
    let both = records_of(&debug_requests(addr), "matrix-trace-dup");
    assert_eq!(both.len(), 2, "{both:?}");
    for rec in &both {
        assert_eq!(spans_of(rec, "request"), "\"spans\":1", "{rec}");
        assert_eq!(spans_of(rec, "parse"), "\"spans\":1", "{rec}");
    }

    for _ in 0..3 {
        let r = request(
            addr,
            "POST",
            "/analyze",
            &[("X-Padfa-Trace-Id", "matrix-trace-reused")],
            PROGRAM.as_bytes(),
        );
        assert_eq!(r.status, 200);
    }
    let mine = records_of(&debug_requests(addr), "matrix-trace-reused");
    assert_eq!(mine.len(), 3, "{mine:?}");
    for rec in &mine {
        assert_eq!(spans_of(rec, "request"), "\"spans\":1", "{rec}");
        assert!(phase(rec, "request").ends_with("\"value\":200"), "{rec}");
        assert_eq!(spans_of(rec, "loop"), spans_of(&mine[0], "loop"), "{rec}");
        assert_eq!(spans_of(rec, "parse"), "\"spans\":1", "{rec}");
    }
    assert!(server.shutdown().clean);
}

/// An injected worker panic must leave a flight-ring sidecar on disk
/// and name it in the typed 500 body, so the error report a client
/// files already points at the forensics file.
#[test]
fn panic_500_names_a_flight_dump_on_disk() {
    let _ring = ring();
    let dump_dir = temp_dir("flightdump");
    let policy = ServicePolicy {
        flight_dump_dir: Some(dump_dir.clone()),
        ..quick_policy()
    };
    let faults = FaultPlan::at(ServiceFault::WorkerPanic, 1);
    let server = start(policy, faults);
    let hit = analyze(server.addr());
    assert_eq!(hit.status, 500);
    let body = body_str(&hit);
    assert!(body.contains("\"kind\":\"panic\""), "body: {body}");
    let needle = "\"flight_dump\":\"";
    let start = body.find(needle).expect("500 body names no flight dump") + needle.len();
    let path = &body[start..start + body[start..].find('"').unwrap()];
    // Named for this process, so daemons sharing a directory keep
    // their own dumps.
    assert!(
        path.ends_with(&format!("padfa-flight-{}-panic-1.json", std::process::id())),
        "{path}"
    );
    let dump = std::fs::read_to_string(path).expect("flight dump not on disk");
    assert!(dump.contains("\"events\":["), "dump: {dump}");
    assert!(dump.contains("worker-panic"), "panic event not in dump");
    assert!(server.shutdown().clean);
    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// Without a dump directory a panic writes no file: the typed 500 names
/// no dump, and the temp directory gains none.
#[test]
fn panic_without_a_dump_dir_writes_no_file() {
    let leaked =
        std::env::temp_dir().join(format!("padfa-flight-{}-panic-1.json", std::process::id()));
    // A file of an earlier process that had this pid is not ours.
    let _ = std::fs::remove_file(&leaked);
    let server = start(quick_policy(), FaultPlan::at(ServiceFault::WorkerPanic, 1));
    let hit = analyze(server.addr());
    assert_eq!(hit.status, 500);
    let body = body_str(&hit);
    assert!(body.contains("\"kind\":\"panic\""), "body: {body}");
    assert!(!body.contains("flight_dump"), "body: {body}");
    assert!(server.shutdown().clean);
    assert!(!leaked.exists(), "{} was written", leaked.display());
}

#[test]
fn overload_sheds_with_429_and_drain_answers_queue_with_503() {
    // One worker pinned by a slow-loris client + queue depth 1: the
    // third connection must be shed immediately with Retry-After.
    let policy = ServicePolicy {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_millis(1500),
        drain_deadline: Duration::from_secs(10),
        ..ServicePolicy::default()
    };
    let server = start(policy, FaultPlan::none());
    let addr = server.addr();

    // Pin the only worker: connect and say nothing.
    let pin = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // let the worker pick it up

    // Fill the queue with a real request (it will be drained with 503).
    let queued = std::thread::spawn(move || analyze(addr));
    std::thread::sleep(Duration::from_millis(200));

    // Overflow: shed at the admission gate.
    let shed = analyze(addr);
    assert_eq!(shed.status, 429);
    assert_eq!(
        shed.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    assert!(body_str(&shed).contains("overloaded"));

    // Drain while the queue still holds the unstarted request: it gets
    // a 503, the pinned connection resolves via read timeout, and the
    // drain is clean.
    let report = server.shutdown();
    let queued_reply = queued.join().unwrap();
    assert_eq!(queued_reply.status, 503);
    assert!(body_str(&queued_reply).contains("draining"));
    assert!(report.clean, "drain exceeded its deadline");
    assert_eq!(report.shed, 1);
    assert_eq!(report.drained_in_queue, 1);
    drop(pin);
}

/// `explain.rs`'s `DEMO` under names of its own, and a primer that
/// declares those names in the reverse order.
const HISTORY_DEMO: &str = r#"proc main(svn: int, svx: int) {
    array svhelp[101];
    array sva[100, 2];
    var svs: real;
    for@hot svi = 1 to svn {
        if (svx > 5) { svhelp[svi] = sva[svi, 1]; }
        sva[svi, 2] = svhelp[svi + 1] + svi * 0.5;
    }
    for@sum svi = 1 to svn { svs = svs + sva[svi, 2]; }
    print svs;
}"#;
const HISTORY_PRIMER: &str = r#"proc main(svi: int, svs: int) {
    array sva[10]; array svhelp[10]; var svx: int; var svn: int;
    svn = svx;
}"#;
/// The `/explain` body of `HISTORY_DEMO` from a fresh daemon.
const HISTORY_DEMO_FRESH: &str = r#"{"schema_version":3,"variant":"predicated","loops":[{"id":0,"label":"hot","proc":"main","depth":0,"outcome":"parallel-if","outcome_test":"(-svn + 1 >= 0 || -svx + 5 >= 0)","not_candidate":null,"winner":"runtime-test","mechanisms":{"predicates":true,"embedding":false,"extraction":true,"runtime_test":true},"runtime_test":"(-svn + 1 >= 0 || -svx + 5 >= 0)","arrays":[{"array":"svhelp","verdict":"runtime-tested","test":"(-svn + 1 >= 0 || -svx + 5 >= 0)","with_privatization":false,"dep_pairs":[{"kind":"write/write","w_pred":"svx - 6 >= 0","x_pred":"svx - 6 >= 0","outcome":"regions-disjoint","condition":"false"},{"kind":"write/read","w_pred":"svx - 6 >= 0","x_pred":"true","outcome":"extracted","condition":"(svn - 2 >= 0 && svx - 6 >= 0)"}],"priv_pairs":[{"kind":"exposed/write","w_pred":"svx - 6 >= 0","x_pred":"svx - 6 >= 0","outcome":"extracted","condition":"(svn - 2 >= 0 && svx - 6 >= 0)"},{"kind":"exposed/write","w_pred":"svx - 6 >= 0","x_pred":"-svx + 5 >= 0","outcome":"guards-exclude","condition":"false"}]},{"array":"sva","verdict":"independent","dep_pairs":[{"kind":"write/write","w_pred":"true","x_pred":"true","outcome":"regions-disjoint","condition":"false"},{"kind":"write/read","w_pred":"true","x_pred":"svx - 6 >= 0","outcome":"regions-disjoint","condition":"false"}],"priv_pairs":[]}],"scalars":[],"reductions":[],"embedded":[],"budget":null,"limit_overflows":0,"lat_overflow":0},{"id":1,"label":"sum","proc":"main","depth":0,"outcome":"parallel","not_candidate":null,"winner":"extraction","mechanisms":{"predicates":false,"embedding":false,"extraction":true,"runtime_test":false},"runtime_test":null,"arrays":[],"scalars":[{"scalar":"svs","verdict":"reduction"}],"reductions":[{"target":"svs","op":"Sum","is_array":false}],"embedded":[],"budget":null,"limit_overflows":0,"lat_overflow":0}]}"#;

/// A worker's earlier requests never reach a later response: after the
/// primer, the one worker answers `/explain` of `HISTORY_DEMO` with the
/// bytes a fresh daemon answers. No other test of the binary sends these
/// names.
#[test]
fn explain_does_not_depend_on_what_the_worker_served_before() {
    let policy = ServicePolicy {
        workers: 1,
        ..quick_policy()
    };
    let server = start(policy, FaultPlan::none());
    let addr = server.addr();
    let primed = request(addr, "POST", "/analyze", &[], HISTORY_PRIMER.as_bytes());
    assert_eq!(primed.status, 200, "{}", body_str(&primed));
    let r = request(addr, "POST", "/explain", &[], HISTORY_DEMO.as_bytes());
    assert_eq!(r.status, 200);
    assert_eq!(body_str(&r), HISTORY_DEMO_FRESH);
    assert!(server.shutdown().clean);
}

/// The `service.requests` counter of a server's registry.
fn requests_counted(metrics: &padfa_core::MetricsRegistry) -> u64 {
    metrics
        .counters_snapshot()
        .get("service.requests")
        .copied()
        .unwrap_or(0)
}

/// An idle daemon reads a connection the moment it arrives: sequential
/// round trips on fresh connections take what the handler takes, not a
/// polling interval. Drain's wake-up connection is never admitted, so
/// after N requests the report says `admitted == N`.
#[test]
fn sequential_requests_do_not_wait_for_the_acceptor() {
    let policy = ServicePolicy {
        workers: 1,
        ..quick_policy()
    };
    let server = start(policy, FaultPlan::none());
    let addr = server.addr();
    let metrics = server.metrics();
    for _ in 0..5 {
        assert_eq!(request(addr, "GET", "/healthz", &[], b"").status, 200);
    }
    let mut ms: Vec<f64> = (0..41)
        .map(|_| {
            let t = std::time::Instant::now();
            assert_eq!(request(addr, "GET", "/healthz", &[], b"").status, 200);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(
        median < 1.0,
        "median /healthz round trip {median:.3} ms: {ms:?}"
    );

    let report = server.shutdown();
    assert!(report.clean);
    assert_eq!(report.admitted, 46);
    assert_eq!(report.completed, 46);
    assert_eq!(requests_counted(&metrics), 46);
}

/// Drain wakes an acceptor blocked in `accept()` that never saw a
/// connection, and the wake-up connection is neither admitted nor
/// counted: the acceptor returns and the listener closes. A daemon bound
/// to the unspecified address is woken through loopback, and a zero
/// drain deadline still gets its wake-up. The drain runs on a thread so
/// that a hang fails the test instead of wedging the suite.
#[test]
fn shutdown_wakes_an_idle_acceptor() {
    let zero_deadline = ServicePolicy {
        drain_deadline: Duration::ZERO,
        ..quick_policy()
    };
    for (bind, policy) in [
        ("127.0.0.1:0", quick_policy()),
        ("0.0.0.0:0", quick_policy()),
        ("127.0.0.1:0", zero_deadline),
    ] {
        let deadline = policy.drain_deadline;
        let server = Server::start(bind, policy, FaultPlan::none()).unwrap();
        let port = server.addr().port();
        let metrics = server.metrics();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.shutdown());
        });
        let report = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("shutdown of an idle daemon on {bind} hung for 5 s"));
        assert_eq!(report.admitted, 0);
        assert_eq!(
            report.flight_dump, None,
            "{bind}: no dump directory, no dump"
        );
        assert_eq!(requests_counted(&metrics), 0);
        assert!(
            TcpStream::connect(("127.0.0.1", port)).is_err(),
            "{bind}: the listener outlived the drain"
        );
        if !deadline.is_zero() {
            assert!(report.clean);
        }
    }
}
