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
//! steps and degradation are phases too). The records carry
//! `total_us`, so "why was *that* request slow" is answered after the
//! fact, at whatever threshold the reader picks, without reproducing it.
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
//!   interner growth) and runs under `catch_unwind`: a panic costs that one request a typed
//!   `500` body, never the process, and the worker serves on: what
//!   its thread keeps between requests (the `Var` table, which every
//!   parse starts afresh, and counters read as deltas) cannot carry a
//!   panic into the next request.
//! * **Per-request budgets** — `X-Padfa-Max-Steps` and
//!   `X-Padfa-Deadline-Ms` headers request a
//!   [`padfa_core::WorkBudget`]; the server clamps both against policy
//!   ceilings, so no client can buy more work than the operator allows.
//! * **Socket hygiene** — read/write timeouts bound slow-loris clients;
//!   oversized headers or bodies are rejected (`413`) before they are
//!   buffered; responses always carry `Connection: close` so a wedged
//!   client cannot pin a worker.
//! * **Graceful drain** — [`Server::shutdown`] wakes the acceptor,
//!   blocked in `accept()`, with one loopback connection it closes
//!   unadmitted, so the acceptor returns and the listener closes; then it
//!   answers every queued-but-unstarted request `503`, lets in-flight
//!   requests finish (bounded by the drain deadline), and reports what
//!   happened in a [`DrainReport`]. The CLI maps a clean drain to exit
//!   code 0.
//!
//! ## Determinism
//!
//! Analysis responses contain no timing and no request ids, so N
//! concurrent identical requests produce byte-identical bodies — the
//! same invariant the batch CLI maintains, now load-bearing under
//! concurrency. Fault injection (a [`padfa_core::FaultPlan`] of
//! [`ServiceFault`]s for worker panics, torn responses, stalls and ring
//! floods) is keyed on deterministic admission order, so the service
//! fault matrix replays exactly.
//!
//! ## Configuration
//!
//! A daemon's whole configuration is its [`ServicePolicy`], whose every
//! field is a `padfa serve` flag, and its fault plan (`--inject`). The
//! rest is fixed: a 5 s socket write timeout, an 8 KiB request-head cap
//! ([`http::MAX_HEADER_BYTES`]), a 1 MiB body cap
//! ([`http::MAX_BODY_BYTES`]) and `Retry-After: 1` on shed replies.

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
pub use server::{DrainReport, Server};

use std::time::Duration;

/// Operator policy for the daemon: pool sizing, admission bounds,
/// budget ceilings, socket read timeout, drain deadline and dump
/// directory. Each field is one `padfa serve` flag; tests and the CLI
/// build policies directly.
#[derive(Clone, Debug)]
pub struct ServicePolicy {
    /// Worker threads (in-flight request bound). `--workers`.
    pub workers: usize,
    /// Admission queue depth; a full queue sheds with `429`. `--queue`.
    pub queue_depth: usize,
    /// Budget applied when a request carries no `X-Padfa-Max-Steps`
    /// header. `None` = unlimited. `--default-max-steps`.
    pub default_max_steps: Option<u64>,
    /// Hard ceiling on requested steps; explicit requests are clamped.
    /// `--max-steps-ceiling`.
    pub max_steps_ceiling: Option<u64>,
    /// Deadline applied when a request carries no
    /// `X-Padfa-Deadline-Ms` header. `None` = no deadline.
    /// `--default-deadline-ms`.
    pub default_deadline_ms: Option<u64>,
    /// Hard ceiling on requested deadlines. `--deadline-ms-ceiling`.
    pub deadline_ms_ceiling: Option<u64>,
    /// Socket read timeout (bounds slow-loris request bodies).
    /// `--read-timeout-ms`.
    pub read_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight requests.
    /// `--drain-deadline-ms`.
    pub drain_deadline: Duration,
    /// Directory for flight-ring sidecar dumps written on worker panic
    /// and unclean drain. `None` writes no dump. `--flight-dump-dir`.
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
            drain_deadline: Duration::from_secs(5),
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
