//! Minimal HTTP/1.1 on `std::net::TcpStream`: just enough protocol for
//! the daemon's endpoints, written defensively — plus the Prometheus
//! text-exposition renderer and its in-repo format checker.
//!
//! The parser enforces the header/body size caps ([`MAX_HEADER_BYTES`],
//! [`MAX_BODY_BYTES`]) *while reading* (an oversized request is rejected
//! before it is buffered),
//! relies on socket read timeouts to bound slow clients, and requires
//! `Content-Length` on bodies (no chunked encoding — clients of this
//! service are curl, the load generator, and CI). Every response
//! carries `Connection: close`; one request per connection keeps worker
//! state machines trivial and makes torn-client handling local.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Largest request head (request line and headers) read, in bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Largest request body read, in bytes; a longer `Content-Length` is
/// `413` before any of the body is read.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, decoded query pairs, lowercase
/// header map, raw body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: BTreeMap<String, String>,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_utf8(&self) -> Option<String> {
        String::from_utf8(self.body.clone()).ok()
    }

    /// A header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

/// Why a request could not be read. Each maps to one HTTP status (or
/// to silently closing the connection when no reply can reach anyone).
#[derive(Debug)]
pub enum RequestError {
    /// Socket read timed out mid-request (slow-loris or torn client).
    Timeout,
    /// Client closed the connection before a full request arrived.
    Disconnected,
    /// Head or body exceeded its cap.
    TooLarge(&'static str),
    /// Unparseable request line / header / length.
    Malformed(&'static str),
    /// A body-bearing method without `Content-Length`.
    LengthRequired,
    /// Any other socket error.
    Io(std::io::Error),
}

impl RequestError {
    /// The HTTP status this error maps to; `None` means the socket is
    /// unusable and the connection should just be dropped.
    pub fn status(&self) -> Option<(u16, &'static str, &'static str)> {
        match self {
            RequestError::Timeout => Some((408, "Request Timeout", "timeout")),
            RequestError::TooLarge(_) => Some((413, "Payload Too Large", "too_large")),
            RequestError::Malformed(_) => Some((400, "Bad Request", "bad_request")),
            RequestError::LengthRequired => Some((411, "Length Required", "length_required")),
            RequestError::Disconnected | RequestError::Io(_) => None,
        }
    }

    pub fn detail(&self) -> String {
        match self {
            RequestError::Timeout => "socket read timed out".to_string(),
            RequestError::Disconnected => "client disconnected".to_string(),
            RequestError::TooLarge(what) => format!("{what} exceeds the configured limit"),
            RequestError::Malformed(what) => format!("malformed {what}"),
            RequestError::LengthRequired => "POST requires Content-Length".to_string(),
            RequestError::Io(e) => format!("socket error: {e}"),
        }
    }
}

fn timeout_kind(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read one request from `stream`, enforcing size caps as bytes arrive.
/// The caller must have set the socket read timeout.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    // Accumulate until the blank line ending the head, never holding
    // more than the head cap plus one read chunk.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge("request head"));
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(RequestError::Disconnected),
            Ok(n) => n,
            Err(e) if timeout_kind(&e) => return Err(RequestError::Timeout),
            Err(e) => return Err(RequestError::Io(e)),
        };
        buf.extend_from_slice(&chunk[..n]);
    };
    let head_bytes = buf[..head_end].to_vec();
    let head = std::str::from_utf8(&head_bytes)
        .map_err(|_| RequestError::Malformed("request head (not UTF-8)"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut words = request_line.split(' ');
    let (method, target, version) = match (words.next(), words.next(), words.next(), words.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(RequestError::Malformed("request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("HTTP version"));
    }
    let (path, query) = parse_target(target)?;
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("header line"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    // Body: only when Content-Length says so. POST without a length is
    // 411; anything else with a length gets its body read and ignored.
    let content_length = match headers.get("content-length") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| RequestError::Malformed("Content-Length"))?,
        ),
        None if method == "POST" => return Err(RequestError::LengthRequired),
        None => None,
    };
    let mut body = buf.split_off(head_end + 4);
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Err(RequestError::TooLarge("request body"));
        }
        if body.len() > len {
            body.truncate(len); // pipelined bytes beyond the request are dropped
        }
        while body.len() < len {
            let want = (len - body.len()).min(chunk.len());
            let n = match stream.read(&mut chunk[..want]) {
                Ok(0) => return Err(RequestError::Disconnected),
                Ok(n) => n,
                Err(e) if timeout_kind(&e) => return Err(RequestError::Timeout),
                Err(e) => return Err(RequestError::Io(e)),
            };
            body.extend_from_slice(&chunk[..n]);
        }
    } else {
        body.clear();
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_target(target: &str) -> Result<(&str, BTreeMap<String, String>), RequestError> {
    let (path, qs) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(RequestError::Malformed("request target"));
    }
    let mut query = BTreeMap::new();
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k), percent_decode(v));
    }
    Ok((path, query))
}

/// Decode `%XX` escapes and `+` (space). Invalid escapes pass through
/// literally — query values here are loop labels and variant names, so
/// strictness buys nothing.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialize: status, extra headers, body.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub reason: &'static str,
    pub content_type: &'static str,
    /// Extra headers as `(name, value)` pairs (e.g. `Retry-After`).
    pub extra: Vec<(&'static str, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(status: u16, reason: &'static str, body: String) -> Response {
        Response {
            status,
            reason,
            content_type: "application/json",
            extra: Vec::new(),
            body: body.into_bytes(),
        }
    }

    pub fn text(status: u16, reason: &'static str, body: String) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            extra: Vec::new(),
            body: body.into_bytes(),
        }
    }

    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra.push((name, value));
        self
    }

    /// Serialize head + body into one buffer (written with a single
    /// `write_all` so short-write truncation is the OS's doing, not
    /// interleaving).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Write the whole response; errors are returned for accounting but
    /// there is nothing further to do with a dead client.
    pub fn write(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }

    /// Write only the first half of the serialized response, then stop —
    /// the deterministic "torn response" fault: the client sees a valid
    /// status line but a short body and must treat the reply as corrupt.
    pub fn write_torn(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let bytes = self.to_bytes();
        stream.write_all(&bytes[..bytes.len() / 2])?;
        stream.flush()
    }
}

// ---------------------------------------------------------------------
// Prometheus text exposition: renderer + format checker.

/// Render every counter and histogram in `reg` in Prometheus text
/// exposition format, preceded by a `padfa_build_info` identity gauge.
///
/// * Every sample family carries `# HELP` and `# TYPE` lines.
/// * Counters keep the bare `padfa_<name> <value>` sample shape the
///   existing scrapers parse.
/// * Histograms are real cumulative-bucket histograms: the registry's
///   power-of-two ns buckets become `_ns_bucket{le="..."}` series
///   (cumulative, ending in `+Inf`) plus `_ns_sum` / `_ns_count`.
///
/// The output always passes [`check_exposition`]; the CLI tests scrape
/// `/metrics` of the built daemon and enforce exactly that.
pub fn prometheus_text(reg: &padfa_core::MetricsRegistry, git_rev: &str) -> String {
    use padfa_core::metrics::{Histogram, BUCKETS};
    let sanitize = |name: &str| -> String {
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    };
    let label_escape = |s: &str| -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect()
    };
    let mut out = String::new();
    out.push_str("# HELP padfa_build_info Build identity of the serving binary.\n");
    out.push_str("# TYPE padfa_build_info gauge\n");
    out.push_str(&format!(
        "padfa_build_info{{git_rev=\"{}\",schema_version=\"{}\"}} 1\n",
        label_escape(git_rev),
        padfa_core::SCHEMA_VERSION
    ));
    for (name, value) in reg.counters_snapshot() {
        let s = sanitize(&name);
        out.push_str(&format!(
            "# HELP padfa_{s} Cumulative count of '{name}' events.\n\
             # TYPE padfa_{s} counter\npadfa_{s} {value}\n"
        ));
    }
    for (name, h) in reg.histograms_snapshot() {
        let s = sanitize(&name);
        out.push_str(&format!(
            "# HELP padfa_{s}_ns Latency histogram '{name}' in nanoseconds \
             (power-of-two buckets).\n# TYPE padfa_{s}_ns histogram\n"
        ));
        // Cumulative counts over the registry's log2 buckets. The total
        // is taken from the same bucket snapshot (not `h.count()`) so
        // `+Inf` and `_count` agree even mid-scrape under concurrency.
        let buckets = h.buckets();
        let mut cum = 0u64;
        for (idx, b) in buckets.iter().enumerate().take(BUCKETS - 1) {
            cum += b;
            out.push_str(&format!(
                "padfa_{s}_ns_bucket{{le=\"{}\"}} {cum}\n",
                Histogram::bucket_bound_ns(idx)
            ));
        }
        cum += buckets[BUCKETS - 1];
        out.push_str(&format!(
            "padfa_{s}_ns_bucket{{le=\"+Inf\"}} {cum}\n\
             padfa_{s}_ns_sum {}\npadfa_{s}_ns_count {cum}\n",
            h.sum_ns()
        ));
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Split a sample line into `(name, labels, value)`; `None` when the
/// line shape is wrong.
fn split_sample(line: &str) -> Option<(&str, Option<&str>, &str)> {
    if let Some(brace) = line.find('{') {
        let name = &line[..brace];
        let rest = &line[brace + 1..];
        let close = rest.find('}')?;
        let labels = &rest[..close];
        let value = rest[close + 1..].trim();
        if value.is_empty() {
            return None;
        }
        Some((name, Some(labels), value))
    } else {
        let (name, value) = line.split_once(' ')?;
        Some((name, None, value.trim()))
    }
}

fn parse_le(labels: &str) -> Option<f64> {
    for pair in labels.split(',') {
        let (k, v) = pair.split_once('=')?;
        if k.trim() == "le" {
            let v = v.trim().strip_prefix('"')?.strip_suffix('"')?;
            return if v == "+Inf" {
                Some(f64::INFINITY)
            } else {
                v.parse::<f64>().ok()
            };
        }
    }
    None
}

/// Per-histogram-family state accumulated by [`check_exposition`].
#[derive(Default)]
struct HistCheck {
    last_le: Option<f64>,
    last_cum: u64,
    inf: Option<u64>,
    sum_seen: bool,
    count: Option<u64>,
}

/// Validate Prometheus text-exposition output: line shapes, metric
/// names, a `# TYPE` declared before every sample family, label syntax,
/// and — for histograms — strictly increasing `le` bounds, monotone
/// cumulative counts, a closing `+Inf` bucket, and `_sum`/`_count`
/// consistency. Returns every violation found (empty = pass).
///
/// This is the in-repo scrape checker: the service and CLI tests run
/// `/metrics` output through it instead of trusting the renderer.
pub fn check_exposition(text: &str) -> Result<(), Vec<String>> {
    use std::collections::BTreeMap;
    let mut errors: Vec<String> = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistCheck> = BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        let ln = no + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match (words.next(), words.next()) {
                (Some("HELP"), Some(name)) => {
                    if !valid_metric_name(name) {
                        errors.push(format!("line {ln}: invalid HELP metric name '{name}'"));
                    }
                }
                (Some("TYPE"), Some(name)) => {
                    if !valid_metric_name(name) {
                        errors.push(format!("line {ln}: invalid TYPE metric name '{name}'"));
                    }
                    let ty = words.next().unwrap_or("");
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        errors.push(format!("line {ln}: unknown TYPE '{ty}' for '{name}'"));
                    }
                    if types.insert(name.to_string(), ty.to_string()).is_some() {
                        errors.push(format!("line {ln}: duplicate TYPE for '{name}'"));
                    }
                }
                _ => errors.push(format!("line {ln}: malformed comment '{line}'")),
            }
            continue;
        }
        let Some((name, labels, value)) = split_sample(line) else {
            errors.push(format!("line {ln}: malformed sample '{line}'"));
            continue;
        };
        if !valid_metric_name(name) {
            errors.push(format!("line {ln}: invalid metric name '{name}'"));
            continue;
        }
        if value.parse::<f64>().is_err() {
            errors.push(format!(
                "line {ln}: non-numeric value '{value}' for '{name}'"
            ));
            continue;
        }
        if let Some(labels) = labels {
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let ok = pair.split_once('=').is_some_and(|(k, v)| {
                    valid_metric_name(k.trim())
                        && v.trim().starts_with('"')
                        && v.trim().ends_with('"')
                        && v.trim().len() >= 2
                });
                if !ok {
                    errors.push(format!("line {ln}: malformed label pair '{pair}'"));
                }
            }
        }
        // Resolve the sample's family: histogram children map back to
        // the declared histogram name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (types.get(base).map(String::as_str) == Some("histogram"))
                    .then(|| (base.to_string(), *suffix))
            })
            .map_or_else(|| (name.to_string(), ""), |(base, suffix)| (base, suffix));
        let (family_name, suffix) = family;
        if !types.contains_key(&family_name) {
            errors.push(format!(
                "line {ln}: sample '{name}' has no preceding # TYPE"
            ));
            continue;
        }
        if types.get(&family_name).map(String::as_str) == Some("histogram") {
            let st = hists.entry(family_name.clone()).or_default();
            match suffix {
                "_bucket" => {
                    let Some(le) = labels.and_then(parse_le) else {
                        errors.push(format!("line {ln}: bucket sample without an le label"));
                        continue;
                    };
                    let cum = value.parse::<u64>().unwrap_or(0);
                    if st.last_le.is_some_and(|prev| le <= prev) {
                        errors.push(format!(
                            "line {ln}: histogram '{family_name}' le bounds not increasing"
                        ));
                    }
                    if cum < st.last_cum {
                        errors.push(format!(
                            "line {ln}: histogram '{family_name}' cumulative count decreased"
                        ));
                    }
                    st.last_le = Some(le);
                    st.last_cum = cum;
                    if le.is_infinite() {
                        st.inf = Some(cum);
                    }
                }
                "_sum" => st.sum_seen = true,
                "_count" => st.count = value.parse::<u64>().ok(),
                _ => errors.push(format!(
                    "line {ln}: bare sample '{name}' for histogram '{family_name}'"
                )),
            }
        }
    }
    for (name, ty) in &types {
        if ty != "histogram" {
            continue;
        }
        let Some(st) = hists.get(name) else {
            continue; // declared but sampleless: legal
        };
        if st.inf.is_none() {
            errors.push(format!("histogram '{name}' has no +Inf bucket"));
        }
        if !st.sum_seen {
            errors.push(format!("histogram '{name}' has no _sum sample"));
        }
        match (st.inf, st.count) {
            (Some(inf), Some(count)) if inf != count => errors.push(format!(
                "histogram '{name}': +Inf bucket {inf} != _count {count}"
            )),
            (_, None) => errors.push(format!("histogram '{name}' has no _count sample")),
            _ => {}
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// Run the parser against raw bytes sent over a real socket pair.
    fn parse_bytes(raw: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Keep the socket open briefly so the server sees the data,
            // then close (EOF) so incomplete requests fail Disconnected.
            s.flush().unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(2000)))
            .unwrap();
        let r = read_request(&mut stream);
        client.join().unwrap();
        r
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse_bytes(
            b"POST /analyze?variant=base&loop=hot%20spot HTTP/1.1\r\n\
              Host: x\r\nContent-Length: 5\r\nX-Padfa-Max-Steps: 100\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.query.get("variant").map(String::as_str), Some("base"));
        assert_eq!(req.query.get("loop").map(String::as_str), Some("hot spot"));
        assert_eq!(req.header("x-padfa-max-steps"), Some("100"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn get_without_length_has_empty_body() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn post_without_length_is_411() {
        let e = parse_bytes(b"POST /analyze HTTP/1.1\r\nHost: x\r\n\r\n").unwrap_err();
        assert!(matches!(e, RequestError::LengthRequired));
        assert_eq!(e.status().map(|s| s.0), Some(411));
    }

    #[test]
    fn oversized_body_is_413_before_reading_it() {
        let head = format!(
            "POST /analyze HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let e = parse_bytes(head.as_bytes()).unwrap_err();
        assert!(matches!(e, RequestError::TooLarge("request body")));
    }

    #[test]
    fn bad_request_line_is_400() {
        let e = parse_bytes(b"NONSENSE\r\n\r\n").unwrap_err();
        assert!(matches!(e, RequestError::Malformed(_)));
        assert_eq!(e.status().map(|s| s.0), Some(400));
    }

    #[test]
    fn torn_client_mid_body_is_disconnected() {
        // Content-Length promises 100 bytes; the client sends 3 and
        // closes. The server must classify this as a torn client, not
        // hang or crash.
        let e =
            parse_bytes(b"POST /analyze HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc").unwrap_err();
        assert!(matches!(e, RequestError::Disconnected));
        assert!(e.status().is_none()); // nothing useful to write back
    }

    #[test]
    fn prometheus_rendering_is_typed_bucketed_and_checkable() {
        let reg = padfa_core::MetricsRegistry::new();
        reg.counter("service.requests").add(3);
        reg.counter("store.hits").add(7);
        reg.histogram("service.latency.analyze").record_ns(1000);
        let text = prometheus_text(&reg, "abc1234");
        // Identity gauge with both labels.
        assert!(text.contains("padfa_build_info{git_rev=\"abc1234\",schema_version=\"3\"} 1\n"));
        // Counters keep the bare sample shape existing scrapers parse.
        assert!(text.contains("# TYPE padfa_service_requests counter\npadfa_service_requests 3\n"));
        assert!(text.contains("padfa_store_hits 7\n"));
        // Histograms are cumulative-bucket histograms, not summaries.
        assert!(text.contains("# TYPE padfa_service_latency_analyze_ns histogram\n"));
        assert!(text.contains("padfa_service_latency_analyze_ns_bucket{le=\"1023\"} 1\n"));
        assert!(text.contains("padfa_service_latency_analyze_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("padfa_service_latency_analyze_ns_sum 1000\n"));
        assert!(text.contains("padfa_service_latency_analyze_ns_count 1\n"));
        assert!(!text.contains("quantile"));
        // Every family has HELP + TYPE and the whole scrape validates.
        check_exposition(&text).unwrap();
    }

    #[test]
    fn exposition_checker_rejects_malformed_scrapes() {
        // Sample with no preceding TYPE.
        let errs = check_exposition("padfa_orphan 3\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no preceding # TYPE")));
        // Non-monotone histogram buckets.
        let bad = "# TYPE padfa_h_ns histogram\n\
                   padfa_h_ns_bucket{le=\"1\"} 5\n\
                   padfa_h_ns_bucket{le=\"2\"} 3\n\
                   padfa_h_ns_bucket{le=\"+Inf\"} 5\n\
                   padfa_h_ns_sum 9\npadfa_h_ns_count 5\n";
        let errs = check_exposition(bad).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.contains("cumulative count decreased")));
        // Missing +Inf bucket.
        let bad = "# TYPE padfa_h_ns histogram\n\
                   padfa_h_ns_bucket{le=\"1\"} 5\n\
                   padfa_h_ns_sum 9\npadfa_h_ns_count 5\n";
        let errs = check_exposition(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no +Inf bucket")));
        // +Inf disagrees with _count.
        let bad = "# TYPE padfa_h_ns histogram\n\
                   padfa_h_ns_bucket{le=\"+Inf\"} 5\n\
                   padfa_h_ns_sum 9\npadfa_h_ns_count 6\n";
        let errs = check_exposition(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= _count")));
        // Bad metric name and non-numeric value.
        let errs = check_exposition("# TYPE 9bad counter\n9bad x\n").unwrap_err();
        assert!(errs.len() >= 2);
        // A valid tiny scrape passes.
        check_exposition("# HELP padfa_x Count.\n# TYPE padfa_x counter\npadfa_x 1\n").unwrap();
    }

    #[test]
    fn response_serialization_and_torn_write() {
        let r = Response::json(200, "OK", "{\"a\":1}".to_string())
            .with_header("Retry-After", "1".to_string());
        let bytes = r.to_bytes();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
        // A torn write stops strictly short of the full serialization.
        assert!(bytes.len() / 2 < bytes.len());
    }
}
