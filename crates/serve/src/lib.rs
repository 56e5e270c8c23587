//! `maestro serve`: a hardened, long-lived analysis daemon.
//!
//! Serves the cost model ([`maestro_core::analyze`]), the design-space
//! explorer ([`maestro_dse::Explorer`]) and the conformance harness
//! ([`maestro_sim::run_conform_cancellable`]) over hand-rolled HTTP/1.1 +
//! JSON on a [`std::net::TcpListener`] — the build environment is offline,
//! so there is no async runtime or HTTP dependency to lean on, and none is
//! needed: requests are CPU-bound analysis calls, so a fixed worker-thread
//! pool with a bounded accept queue is the right shape.
//!
//! Robustness properties, each regression-tested:
//!
//! * **Event-driven accept** — the acceptor blocks in `accept(2)` (no
//!   poll loop, no accept-latency floor); a drain wakes it with one
//!   loopback *wake token* connection (see [`server`] docs).
//! * **Amortized request cost** — `POST /v1/batch` serves many analyze
//!   points through one connection, one parse and one cache session with
//!   per-item error isolation, and `POST /v1/dse` with `"stream": true`
//!   streams incremental NDJSON frontier updates as units complete.
//! * **Admission control** — a bounded connection queue; when it is full
//!   the acceptor sheds load with an immediate `503` + a *computed*
//!   `Retry-After` (queue depth × observed median service time)
//!   instead of letting latency collapse (`maestro.serve.shed`), and a
//!   CoDel-style controller sheds at dequeue when queue sojourn stays
//!   above `--sojourn-target` (`maestro.serve.shed_sojourn`).
//! * **Priority-aware brownout** — requests are classed (health/metrics
//!   over analyze/batch over dse/conform); under pressure heavy classes
//!   shed first, and deadline-pressed analyzes are served from the
//!   shared report cache with an `x-maestro-degraded` header instead of
//!   504ing (`maestro.serve.brownout_shed`, `maestro.serve.degraded`).
//! * **Worker supervision** — per-worker heartbeats, a watchdog that
//!   respawns crashed workers and supersedes wedged ones
//!   (`maestro.serve.worker_restarts`), and a `/readyz` that reports 503
//!   with the cause when live workers fall below quorum.
//! * **Deterministic chaos** — `--chaos` injects seeded socket faults,
//!   worker panics and handler stalls (the DSE `--inject` draw from
//!   `maestro_obs::rng`), so overload invariants are CI-assertable.
//! * **Per-request deadlines** — every request runs under a
//!   [`CancelToken::child_with_deadline`] child token, so a timed-out
//!   request returns a typed `504` with a partial-result marker and can
//!   never cancel the server (or a sibling request).
//! * **Panic isolation** — each request is wrapped in `catch_unwind`; a
//!   panicking handler returns `500`, increments `maestro.serve.panics`,
//!   and the worker thread survives.
//! * **Socket hygiene** — read/write timeouts (slow-loris → `408`) and a
//!   max-request-size guard (oversized body/headers → `413`).
//! * **Graceful drain** — `SIGTERM`/`SIGINT` stops accepting, flips
//!   `/readyz` to not-ready, finishes in-flight requests under a drain
//!   deadline, then exits cleanly; a forced drain cancels in-flight
//!   request tokens instead of dropping their responses.
//!
//! [`CancelToken::child_with_deadline`]: maestro_obs::CancelToken::child_with_deadline

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stderr,
        clippy::exit
    )
)]

pub mod api;
pub mod chaos;
pub mod http;
pub mod json;
pub mod queue;
pub mod server;
pub mod supervise;
pub mod trace;

pub use api::{
    classify, effective_threads, ApiCtx, Handled, Pressure, ReqClass, StreamSummary,
    MAX_BATCH_POINTS,
};
pub use chaos::ChaosPlan;
pub use http::{parse_request, HttpError, Limits, Parsed, Request, Response};
pub use json::{parse as parse_json, JsonError, Value};
pub use queue::{AdmissionCtl, BoundedQueue};
pub use server::{DrainOutcome, ServeConfig, ServeMetrics, Server};
pub use supervise::{ThreadGuard, WorkerSlot, WorkerTable};
