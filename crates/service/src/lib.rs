//! # padfa-service
//!
//! Analysis-as-a-service: a long-running daemon wrapping the predicated
//! array data-flow analysis ([`padfa_core`]) behind a minimal HTTP/1.1
//! front end built purely on `std::net` — no external dependencies.
//!
//! ## Endpoints
//!
//! | method | path              | body           | response                            |
//! |--------|-------------------|----------------|-------------------------------------|
//! | POST   | `/analyze`        | program source | per-loop verdict JSON               |
//! | POST   | `/explain`        | program source | decision-provenance JSON            |
//! | GET    | `/healthz`        | —              | liveness (always 200 while up)      |
//! | GET    | `/readyz`         | —              | readiness (503 once draining)       |
//! | GET    | `/metrics`        | —              | Prometheus text exposition          |
//! | GET    | `/debug/requests` | —              | records of requests still in the ring |
//! | GET    | `/debug/flight`   | —              | flight-recorder event-ring dump     |
//!
//! `/analyze` and `/explain` take `?variant=base|guarded|predicated`
//! (default `predicated`) and, for `/explain`, `?loop=<label-or-id>`.
//!
//! ## Request-scoped tracing
//!
//! Every request carries a trace id: the client's `X-Padfa-Trace-Id`
//! header value (sanitized) when present, a generated
//! `padfa-<admission>` id otherwise. The id is echoed back on the
//! response and names the request's flight-recorder span
//! (`"<METHOD> <path> <trace-id>"`, valued with the status). A request
//! is served start to finish on one worker thread, so its events are
//! the ones on that span's thread between its `Begin` and `End`:
//! `/debug/requests` folds them, per request still in the ring, into a
//! record of status, wall time and per-phase time breakdown (budget
//! steps, degradation and store hits are phases too). Requests slower
//! than the policy threshold are additionally appended to the
//! slow-request log as that record plus a provenance digest of the
//! request body, so "why was *that* request slow" is answerable after
//! the fact without reproducing it.
//!
//! ## Robustness envelope
//!
//! The paper's analysis is a batch compiler pass; serving it means the
//! failure modes move from "rerun the command" to "the daemon must
//! absorb them". The server therefore provides:
//!
//! * **Bounded admission** — connections are accepted into a fixed-depth
//!   queue feeding a fixed pool of worker threads. When the queue is
//!   full the acceptor sheds load *immediately* with `429 Too Many
//!   Requests` + `Retry-After` instead of queueing unboundedly; once
//!   draining it answers `503 Service Unavailable`. In-flight work is
//!   bounded by the worker count, queued work by the queue depth, so
//!   memory use is bounded regardless of client behavior.
//! * **Per-request isolation** — every request gets a *fresh*
//!   [`padfa_core::AnalysisSession`] (bounded memory; no cross-request
//!   interner growth) warmed by one shared [`padfa_core::Store`], and
//!   runs under `catch_unwind`: a panic costs that one request a typed
//!   `500` body, never the process, and the worker serves on: what
//!   its thread keeps between requests (the `Var` table, which every
//!   parse starts afresh, and counters read as deltas) cannot carry a
//!   panic into the next request.
//! * **Per-request budgets** — `X-Padfa-Max-Steps` and
//!   `X-Padfa-Deadline-Ms` headers request a
//!   [`padfa_core::WorkBudget`]; the server clamps both against policy
//!   ceilings, so no client can buy more work than the operator allows.
//!   Budgeted requests bypass the store (replayed cached results would
//!   change step accounting and with it degradation decisions — see the
//!   store module docs), keeping budget degradation deterministic.
//! * **Socket hygiene** — read/write timeouts bound slow-loris clients;
//!   oversized headers or bodies are rejected (`413`) before they are
//!   buffered; responses always carry `Connection: close` so a wedged
//!   client cannot pin a worker.
//! * **Graceful drain** — [`Server::shutdown`] wakes the acceptor,
//!   blocked in `accept()`, with one loopback connection it closes
//!   unadmitted, so the acceptor returns and the listener closes; then it
//!   answers every queued-but-unstarted request `503`, lets in-flight
//!   requests finish (bounded by the drain deadline), and reports what
//!   happened in a [`DrainReport`]. Store entries are on disk as each
//!   put returns, so there is nothing to flush. The CLI maps a clean
//!   drain to exit code 0.
//!
//! ## Determinism
//!
//! Analysis responses contain no timing, no request ids, and no
//! store-dependent fields, so N concurrent identical requests produce
//! byte-identical bodies whether the store is cold or warm — the same
//! invariant the batch CLI maintains, now load-bearing under
//! concurrency. Fault injection (a [`padfa_core::FaultPlan`] of
//! [`ServiceFault`]s for worker panics and torn responses, one of
//! [`padfa_core::StoreFault`]s for store IO) is keyed on deterministic
//! admission order, so the service fault matrix replays exactly.

// The daemon must stay up on arbitrary client input: unwinding is
// reserved for injected worker panics (caught at the request boundary)
// and everything else returns a typed HTTP error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod faults;
pub mod http;
pub mod server;

pub use faults::ServiceFault;
pub use http::{check_exposition, prometheus_text, Request, RequestError, Response};
pub use server::{DrainReport, Server, ServiceDeps};

use std::time::Duration;

/// Operator policy for the daemon: pool sizing, admission bounds,
/// budget ceilings, and socket hygiene. Everything is a plain field so
/// tests and the CLI can build policies directly.
#[derive(Clone, Debug)]
pub struct ServicePolicy {
    /// Worker threads (in-flight request bound).
    pub workers: usize,
    /// Admission queue depth; a full queue sheds with `429`.
    pub queue_depth: usize,
    /// Budget applied when a request carries no `X-Padfa-Max-Steps`
    /// header. `None` = unlimited (required for store-backed serving).
    pub default_max_steps: Option<u64>,
    /// Hard ceiling on requested steps; explicit requests are clamped.
    pub max_steps_ceiling: Option<u64>,
    /// Deadline applied when a request carries no
    /// `X-Padfa-Deadline-Ms` header. `None` = no deadline.
    pub default_deadline_ms: Option<u64>,
    /// Hard ceiling on requested deadlines.
    pub deadline_ms_ceiling: Option<u64>,
    /// Socket read timeout (bounds slow-loris request bodies).
    pub read_timeout: Duration,
    /// Socket write timeout (bounds unread responses).
    pub write_timeout: Duration,
    /// Maximum request head (request line + headers) size in bytes.
    pub max_header_bytes: usize,
    /// Maximum request body size in bytes; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// How long [`Server::shutdown`] waits for in-flight requests.
    pub drain_deadline: Duration,
    /// Value of the `Retry-After` header on shed (`429`/`503`) replies.
    pub retry_after_secs: u32,
    /// Requests whose total wall time reaches this many milliseconds
    /// are logged to the slow-request log with their per-phase flight
    /// breakdown. `0` disables slow-request capture.
    pub slow_request_ms: u64,
    /// Where slow-request records are appended (one JSON object per
    /// line). `None` logs to stderr only.
    pub slow_log: Option<std::path::PathBuf>,
    /// Directory for flight-ring sidecar dumps written on worker panic
    /// and unclean drain. `None` uses the OS temp directory.
    pub flight_dump_dir: Option<std::path::PathBuf>,
}

impl Default for ServicePolicy {
    fn default() -> ServicePolicy {
        ServicePolicy {
            workers: 2,
            queue_depth: 32,
            default_max_steps: None,
            max_steps_ceiling: None,
            default_deadline_ms: None,
            deadline_ms_ceiling: None,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
            slow_request_ms: 1000,
            slow_log: None,
            flight_dump_dir: None,
        }
    }
}

impl ServicePolicy {
    /// Clamp-normalize: at least one worker, at least depth-1 queue.
    pub fn normalized(mut self) -> ServicePolicy {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self
    }
}
