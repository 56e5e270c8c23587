//! Structured observability for the MAESTRO pipeline — hand-rolled and
//! dependency-free because this workspace builds offline (no registry
//! access: `tracing`/`metrics`/`log` cannot be pulled in; see DESIGN.md's
//! dependency policy).
//!
//! Six cooperating facilities:
//!
//! * [`cancel`] — a cloneable cooperative [`CancelToken`] (explicit
//!   cancel, wall-clock deadline, process-wide interrupt flag raisable
//!   from a signal handler), polled by long-running pipelines at
//!   work-unit boundaries.
//! * [`log`] — a tiny leveled logger, env-controlled via `MAESTRO_LOG`
//!   and **off by default**, so library diagnostics go through one
//!   redirectable path instead of ad-hoc `eprintln!` call sites.
//! * [`metrics`] — a process-global registry of named counters, gauges
//!   and fixed-bucket histograms with atomic updates, rendered in the
//!   Prometheus text exposition format.
//! * [`rng`] — stateless seeded draws (splitmix64): the one source of
//!   randomness behind fault injection, serve chaos and trace IDs, so
//!   every seeded run reproduces at any thread count; also the one
//!   parser of the two fault plans' spec grammar.
//! * [`span`] — lightweight hierarchical tracing spans: RAII guards,
//!   monotonic timing, per-thread buffers flushed at root-scope exit so
//!   the parallel DSE hot path never contends on a global lock. Exported
//!   as JSONL events.
//! * [`trace`] — request-scoped trace IDs propagated into spans via a
//!   thread-local context, plus a bounded tail-sampling
//!   [`trace::FlightRecorder`] that keeps 100% of failed/slow work and a
//!   deterministic 1-in-K sample of the rest.
//!
//! # Zero cost when disabled
//!
//! Spans are gated on one process-global atomic flag: when no sink is
//! installed (the default), [`span::span`] is a relaxed load plus an
//! inert guard — no thread-local access, no allocation, no clock read.
//! The logger is the same: one relaxed load against the level. Metric
//! handles are pre-registered atomics; the instrumented hot paths batch
//! their updates (one flush per DSE work unit, one per analysis-cache
//! drop or daemon `/metrics` render), so steady-state cost is zero loads
//! per design point. The `obs_overhead` bench in `maestro-bench` pins
//! the disabled-path cost.
//!
//! # Naming scheme
//!
//! Dotted, hierarchical names: `maestro.analysis.*` for the cost-model
//! engines, `maestro.cache.*` for the analysis memo cache,
//! `maestro.dse.*` for the explorer, `maestro.sim.*` for the reference
//! simulator. Prometheus exposition sanitizes `.`/`-` to `_`.

// Library code is panic-free by policy, and all diagnostics must flow
// through the logger (the logger's own emitter writes to the raw stderr
// handle, which the lint does not cover).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stderr,
        clippy::exit
    )
)]

pub mod cancel;
pub mod log;
pub mod metrics;
pub mod rng;
pub mod span;
pub mod trace;

pub use cancel::{interrupt_raised, raise_interrupt, CancelToken};
pub use log::Level;
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};
pub use span::{SpanEvent, SpanGuard};
pub use trace::{FlightPolicy, FlightRecorder, KeepReason, Phase, TraceId, TraceRecord};
