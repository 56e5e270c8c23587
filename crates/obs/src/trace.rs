//! Request-scoped tracing: trace IDs, a per-thread trace context, and a
//! tail-sampling **flight recorder**.
//!
//! A [`TraceId`] is a 128-bit identifier stamped on a unit of served work
//! (an HTTP request in `maestro serve`, a DSE work unit under
//! `--trace-sample`). While the work runs, the ID is installed in a
//! thread-local *trace context* ([`set_current`]); every span the thread
//! records during that window carries it (see
//! [`crate::span::SpanEvent::trace`]), so a span dump can be sliced per
//! request after the fact.
//!
//! When the work finishes, its phase breakdown is assembled into a
//! [`TraceRecord`] and offered to the process-global [`FlightRecorder`] —
//! a bounded ring of the last N *kept* traces. Keeping is **tail-based**:
//! the decision is made after the outcome is known, so the recorder keeps
//!
//! * 100% of failed work (HTTP 5xx: sheds, panics, deadline 504s,
//!   quarantined DSE units) — [`KeepReason::Error`];
//! * 100% of work slower than the configured threshold —
//!   [`KeepReason::Slow`];
//! * a deterministic 1-in-K sample of everything else —
//!   [`KeepReason::Sampled`], decided by a splitmix64 finalizer over the
//!   trace ID so the sample is stable across runs with seeded IDs.
//!
//! # Memory bound
//!
//! The recorder holds at most `capacity` records. Each record is one
//! allocation for the route name plus one `Vec` of fixed-size phases
//! (typically 4–6), so the worst-case footprint is
//! `capacity × (sizeof(TraceRecord) + name + phases)` ≈ a few hundred
//! bytes per record — ~100 KiB at the default capacity of 256. Eviction
//! is strictly FIFO; nothing in the recorder grows without bound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A 128-bit trace identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Render as 32 lowercase hex digits (the wire format used in the
    /// `x-maestro-trace` header, `/debug/traces/<id>` and the access log).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse a hex trace ID (1–32 digits, case-insensitive).
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }

    /// The low 64 bits — the sampling key.
    pub fn lo(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

static TRACE_SEED: AtomicU64 = AtomicU64::new(0);
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Fix the trace-ID seed (tests, `--trace-seed`). Call before the first
/// [`next_trace_id`]; with a fixed seed the full ID sequence — and
/// therefore the 1-in-K sampling decisions — is reproducible.
pub fn seed_trace_ids(seed: u64) {
    TRACE_SEED.store(seed, Ordering::Relaxed);
    TRACE_COUNTER.store(1, Ordering::Relaxed);
}

/// Draw the next trace ID: [`crate::rng::trace_id`] at a process-global
/// counter. Unique within the process by construction (the counter),
/// reproducible when seeded.
pub fn next_trace_id() -> TraceId {
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let seed = match TRACE_SEED.load(Ordering::Relaxed) {
        0 => {
            // First use without an explicit seed: derive one from the
            // wall clock so concurrent daemons don't collide. Racing
            // initializers agree via compare_exchange.
            let entropy = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5eed)
                | 1;
            match TRACE_SEED.compare_exchange(0, entropy, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => entropy,
                Err(current) => current,
            }
        }
        s => s,
    };
    crate::rng::trace_id(seed, n)
}

thread_local! {
    static CURRENT_TRACE: std::cell::Cell<u128> = const { std::cell::Cell::new(0) };
}

/// Install `id` as the thread's current trace; spans recorded until
/// [`clear_current`] carry it. Returns the previously installed ID (0 =
/// none) so nested scopes can restore it.
pub fn set_current(id: TraceId) -> u128 {
    CURRENT_TRACE.with(|c| c.replace(id.0))
}

/// Remove the thread's current trace (restoring `prev` from
/// [`set_current`]).
pub fn clear_current(prev: u128) {
    CURRENT_TRACE.with(|c| c.set(prev));
}

/// The thread's current trace ID, 0 when none is installed.
pub fn current() -> u128 {
    CURRENT_TRACE.with(std::cell::Cell::get)
}

/// One attributed phase of a trace (e.g. `queue`, `parse`, `analyze`,
/// `serialize`). Offsets are relative to the trace's own start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Start offset from the trace start, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// Why the recorder kept a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Failed work (5xx / shed / panic / 504 / quarantined unit): always
    /// kept.
    Error,
    /// Exceeded the slow-trace threshold: always kept.
    Slow,
    /// Healthy and fast, drawn by the deterministic 1-in-K sample.
    Sampled,
}

impl KeepReason {
    /// Stable lowercase label (the JSON `kept` field).
    pub fn label(self) -> &'static str {
        match self {
            KeepReason::Error => "error",
            KeepReason::Slow => "slow",
            KeepReason::Sampled => "sampled",
        }
    }
}

/// One completed, attributed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The trace ID.
    pub id: TraceId,
    /// What ran: `"POST /v1/analyze"`, `"shed"`, `"dse.unit[3]"`, ...
    pub name: String,
    /// HTTP-style status of the outcome (DSE units use 200/500).
    pub status: u16,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub start_unix_ms: u64,
    /// End-to-end duration, microseconds.
    pub total_us: u64,
    /// Response bytes (0 where not meaningful).
    pub bytes: u64,
    /// Attributed phases, in time order.
    pub phases: Vec<Phase>,
    /// Why this record survived tail sampling (stamped by the recorder).
    pub kept: KeepReason,
}

impl TraceRecord {
    /// Render as one JSON object (the `/debug/traces` element schema).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160 + self.phases.len() * 48);
        out.push_str("{\"trace_id\":\"");
        out.push_str(&self.id.to_hex());
        out.push_str("\",\"name\":");
        push_json_str(&mut out, &self.name);
        out.push_str(&format!(
            ",\"status\":{},\"start_unix_ms\":{},\"total_us\":{},\"bytes\":{},\"kept\":\"{}\",\"phases\":[",
            self.status,
            self.start_unix_ms,
            self.total_us,
            self.bytes,
            self.kept.label()
        ));
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, p.name);
            out.push_str(&format!(
                ",\"start_us\":{},\"dur_us\":{}}}",
                p.start_us, p.dur_us
            ));
        }
        out.push_str("]}");
        out
    }
}

/// JSON-escape `s` into `out` with surrounding quotes.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a slice of records as the `/debug/traces` body:
/// `{"traces":[...]}`.
pub fn records_to_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traces\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push_str("]}");
    out
}

/// Tail-sampling policy of a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightPolicy {
    /// Ring capacity — the memory bound (FIFO eviction beyond it).
    pub capacity: usize,
    /// Keep 1 in `sample_k` healthy traces (1 = keep all, 0 = keep none
    /// except errors/slow).
    pub sample_k: u64,
    /// Keep every trace at least this slow, regardless of the sample.
    pub slow_us: u64,
}

impl Default for FlightPolicy {
    fn default() -> Self {
        FlightPolicy {
            capacity: 256,
            sample_k: 16,
            slow_us: 100_000,
        }
    }
}

/// Bounded ring of kept traces. See the module docs for the sampling
/// policy and memory bound.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    policy: FlightPolicy,
    buf: VecDeque<TraceRecord>,
    kept: u64,
    sampled_out: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightPolicy::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given policy.
    pub fn new(policy: FlightPolicy) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(Ring {
                policy,
                buf: VecDeque::with_capacity(policy.capacity.min(1024)),
                kept: 0,
                sampled_out: 0,
            }),
        }
    }

    /// The process-global recorder (`maestro serve` and `dse
    /// --trace-sample` share it; [`FlightRecorder::configure`] rebinds
    /// its policy at startup).
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(FlightRecorder::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        // Records are plain data; a poisoned lock cannot leave the ring
        // structurally broken.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replace the policy (shrinking the ring if needed). Call once at
    /// startup, before traffic.
    pub fn configure(&self, policy: FlightPolicy) {
        let mut r = self.lock();
        r.policy = policy;
        while r.buf.len() > r.policy.capacity {
            r.buf.pop_front();
        }
    }

    /// The active policy.
    pub fn policy(&self) -> FlightPolicy {
        self.lock().policy
    }

    /// The tail-sampling decision for an outcome, without recording.
    /// `None` = drop.
    pub fn decide(&self, id: TraceId, status: u16, total_us: u64) -> Option<KeepReason> {
        let policy = self.policy();
        decide(policy, id, status, total_us)
    }

    /// Offer a completed trace. Returns the keep reason when the record
    /// was retained, `None` when it was sampled out.
    pub fn record(&self, mut rec: TraceRecord) -> Option<KeepReason> {
        let mut r = self.lock();
        let Some(reason) = decide(r.policy, rec.id, rec.status, rec.total_us) else {
            r.sampled_out += 1;
            return None;
        };
        rec.kept = reason;
        if r.policy.capacity == 0 {
            return None;
        }
        while r.buf.len() >= r.policy.capacity {
            r.buf.pop_front();
        }
        r.buf.push_back(rec);
        r.kept += 1;
        Some(reason)
    }

    /// Retain a trace unconditionally, bypassing the sampling policy —
    /// for callers that made their own keep decision (the DSE per-unit
    /// path samples on the *unit index*, not the trace ID, so resumed
    /// sweeps trace the same units). Capacity eviction still applies.
    pub fn keep(&self, mut rec: TraceRecord, reason: KeepReason) {
        let mut r = self.lock();
        rec.kept = reason;
        if r.policy.capacity == 0 {
            return;
        }
        while r.buf.len() >= r.policy.capacity {
            r.buf.pop_front();
        }
        r.buf.push_back(rec);
        r.kept += 1;
    }

    /// The retained traces, newest first.
    pub fn recent(&self) -> Vec<TraceRecord> {
        self.lock().buf.iter().rev().cloned().collect()
    }

    /// Find a retained trace by ID.
    pub fn find(&self, id: TraceId) -> Option<TraceRecord> {
        self.lock().buf.iter().rev().find(|r| r.id == id).cloned()
    }

    /// `(kept, sampled_out)` totals since process start.
    pub fn stats(&self) -> (u64, u64) {
        let r = self.lock();
        (r.kept, r.sampled_out)
    }

    /// Drop every retained trace (tests).
    pub fn clear(&self) {
        self.lock().buf.clear();
    }
}

/// The pure sampling decision — a function of the policy and the
/// outcome, so it is golden-testable without a recorder.
pub fn decide(policy: FlightPolicy, id: TraceId, status: u16, total_us: u64) -> Option<KeepReason> {
    if status >= 500 {
        return Some(KeepReason::Error);
    }
    if total_us >= policy.slow_us {
        return Some(KeepReason::Slow);
    }
    match policy.sample_k {
        0 => None,
        1 => Some(KeepReason::Sampled),
        k => crate::rng::splitmix64(id.lo())
            .is_multiple_of(k)
            .then_some(KeepReason::Sampled),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_render_and_parse() {
        let id = TraceId(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let hex = id.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(TraceId::parse(&hex), Some(id));
        assert_eq!(TraceId::parse(&hex.to_uppercase()), Some(id));
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("7f"), Some(TraceId(0x7f)));
    }

    // Seeding mutates process-global state; tests that reseed must not
    // interleave with each other under the parallel test runner.
    static SEED_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn seeded_ids_are_reproducible_and_distinct() {
        let _guard = SEED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        seed_trace_ids(42);
        let a: Vec<TraceId> = (0..8).map(|_| next_trace_id()).collect();
        seed_trace_ids(42);
        let b: Vec<TraceId> = (0..8).map(|_| next_trace_id()).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "{a:?}");
    }

    #[test]
    fn current_trace_nests_and_restores() {
        assert_eq!(current(), 0);
        let prev = set_current(TraceId(7));
        assert_eq!(prev, 0);
        assert_eq!(current(), 7);
        let prev2 = set_current(TraceId(9));
        assert_eq!(prev2, 7);
        clear_current(prev2);
        assert_eq!(current(), 7);
        clear_current(prev);
        assert_eq!(current(), 0);
    }

    fn rec(id: u128, status: u16, total_us: u64) -> TraceRecord {
        TraceRecord {
            id: TraceId(id),
            name: "test".to_string(),
            status,
            start_unix_ms: 0,
            total_us,
            bytes: 0,
            phases: vec![Phase {
                name: "work",
                start_us: 0,
                dur_us: total_us,
            }],
            kept: KeepReason::Sampled,
        }
    }

    #[test]
    fn tail_sampling_keeps_every_error_and_slow_trace() {
        let fr = FlightRecorder::new(FlightPolicy {
            capacity: 64,
            sample_k: 1_000_000, // effectively never sample a success
            slow_us: 10_000,
        });
        for (i, status) in [(1u128, 500u16), (2, 503), (3, 504)] {
            assert_eq!(
                fr.record(rec(i, status, 5)),
                Some(KeepReason::Error),
                "status {status}"
            );
        }
        assert_eq!(fr.record(rec(4, 200, 10_000)), Some(KeepReason::Slow));
        assert_eq!(fr.record(rec(5, 200, 5)), None, "fast success sampled out");
        assert_eq!(fr.recent().len(), 4);
        assert_eq!(fr.stats(), (4, 1));
    }

    #[test]
    fn seeded_sampling_keeps_a_golden_1_in_k_subset() {
        let _guard = SEED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Golden-pin the exact kept subset for seed 1234, k = 8 over the
        // first 64 IDs. Any change to splitmix64, the ID derivation, or
        // the sampling draw moves this set — and silently breaks
        // cross-run trace addressability, which is what this test is for.
        let policy = FlightPolicy {
            capacity: 64,
            sample_k: 8,
            slow_us: u64::MAX,
        };
        let kept_set = |seed: u64| -> Vec<usize> {
            seed_trace_ids(seed);
            (0..64)
                .filter(|_| decide(policy, next_trace_id(), 200, 1).is_some())
                .collect::<Vec<usize>>()
        };
        let kept = kept_set(1234);
        assert_eq!(kept, vec![19, 21, 31, 41, 56, 58]);
        // Reproducible on a fresh seeding, different under another seed.
        assert_eq!(kept_set(1234), kept);
        assert_ne!(kept_set(99), kept);
        // Errors override the draw at every index regardless of seed.
        seed_trace_ids(1234);
        for _ in 0..64 {
            assert_eq!(
                decide(policy, next_trace_id(), 503, 1),
                Some(KeepReason::Error)
            );
        }
        seed_trace_ids(0);
    }

    #[test]
    fn keep_bypasses_the_sampling_policy() {
        let fr = FlightRecorder::new(FlightPolicy {
            capacity: 4,
            sample_k: 0, // policy would drop everything
            slow_us: u64::MAX,
        });
        assert_eq!(fr.record(rec(1, 200, 1)), None);
        fr.keep(rec(2, 200, 1), KeepReason::Sampled);
        fr.keep(rec(3, 500, 1), KeepReason::Error);
        let recent = fr.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].kept, KeepReason::Error);
        assert_eq!(recent[1].kept, KeepReason::Sampled);
    }

    #[test]
    fn capacity_bounds_the_ring_fifo() {
        let fr = FlightRecorder::new(FlightPolicy {
            capacity: 3,
            sample_k: 1,
            slow_us: u64::MAX,
        });
        for i in 0..10u128 {
            fr.record(rec(i, 200, 1));
        }
        let recent = fr.recent();
        assert_eq!(recent.len(), 3);
        // Newest first; the oldest seven were evicted.
        let ids: Vec<u128> = recent.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![9, 8, 7]);
        assert!(fr.find(TraceId(9)).is_some());
        assert!(fr.find(TraceId(0)).is_none());
    }

    #[test]
    fn record_json_schema_is_stable() {
        let mut r = rec(0xab, 200, 42);
        r.name = "POST /v1/analyze \"x\"".to_string();
        r.bytes = 7;
        let js = r.to_json();
        assert!(js.starts_with("{\"trace_id\":\"000000000000000000000000000000ab\""));
        assert!(
            js.contains("\"name\":\"POST /v1/analyze \\\"x\\\"\""),
            "{js}"
        );
        assert!(js.contains("\"status\":200"), "{js}");
        assert!(js.contains("\"total_us\":42"), "{js}");
        assert!(js.contains("\"bytes\":7"), "{js}");
        assert!(
            js.contains("\"phases\":[{\"name\":\"work\",\"start_us\":0,\"dur_us\":42}]"),
            "{js}"
        );
        let all = records_to_json(&[r.clone(), r]);
        assert!(all.starts_with("{\"traces\":[{"), "{all}");
        assert!(all.contains("},{"), "{all}");
    }
}
