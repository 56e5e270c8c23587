//! Hierarchical tracing spans with RAII guards and per-thread buffers.
//!
//! A span is entered with [`span`] and closed when its [`SpanGuard`]
//! drops. Collection is **off by default**: [`enable`] installs the
//! process-global sink, [`drain`] removes the collected events. When
//! disabled, entering a span is one relaxed atomic load and an inert
//! guard — no clock read, no allocation, no thread-local access — which
//! is what keeps the instrumented DSE hot path at measured-noise cost
//! (see the `obs_overhead` bench).
//!
//! Finished spans accumulate in a thread-local buffer; the buffer is
//! flushed into the global sink only when the thread's *root* span
//! closes, so worker threads never contend on the sink lock mid-unit.
//! Parent/child links are explicit: every event carries its own `id` and
//! its parent's, both unique process-wide.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (dotted scheme, e.g. `maestro.analysis.reuse`).
    pub name: &'static str,
    /// Process-wide unique id of this occurrence.
    pub id: u64,
    /// Id of the enclosing span occurrence on the same thread, if any.
    pub parent: Option<u64>,
    /// Ordinal of the thread that ran the span (assigned per thread, in
    /// first-span order).
    pub thread: u64,
    /// Nesting depth (0 = root span of its thread at that moment).
    pub depth: u32,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// The request trace the span ran under (see [`crate::trace`]);
    /// 0 when no trace context was installed on the thread.
    pub trace: u128,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Vec<SpanEvent>> {
    static SINK: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadState {
    ordinal: u64,
    /// Ids of the currently open spans (innermost last).
    stack: Vec<u64>,
    /// Finished spans awaiting a root-scope flush.
    buffer: Vec<SpanEvent>,
}

thread_local! {
    static STATE: std::cell::RefCell<ThreadState> = std::cell::RefCell::new(ThreadState {
        ordinal: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buffer: Vec::new(),
    });
}

/// Turn span collection on. Idempotent.
pub fn enable() {
    // Pin the epoch before the first span so start offsets stay small.
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn span collection off (newly entered spans become no-ops; already
/// open guards still record on close).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `true` when a sink is installed.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enter a span. The returned guard records the span when dropped; hold
/// it in a `_named` local for the duration of the stage:
///
/// ```
/// {
///     let _s = maestro_obs::span::span("maestro.analysis.reuse");
///     // ... the stage ...
/// } // span closes here
/// ```
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let trace = crate::trace::current().map_or(0, |id| id.0);
    let start_ns = epoch().elapsed().as_nanos() as u64;
    let (parent, depth, thread) = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.stack.last().copied();
        let depth = s.stack.len() as u32;
        s.stack.push(id);
        (parent, depth, s.ordinal)
    });
    SpanGuard(Some(OpenSpan {
        name,
        id,
        parent,
        thread,
        depth,
        start_ns,
        trace,
        start: Instant::now(),
    }))
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    thread: u64,
    depth: u32,
    start_ns: u64,
    trace: u128,
    start: Instant,
}

/// RAII guard for an entered span; records the [`SpanEvent`] on drop.
#[derive(Debug)]
#[must_use = "a span guard records its span when dropped; binding it to `_` closes it immediately"]
pub struct SpanGuard(Option<OpenSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let event = SpanEvent {
            name: open.name,
            id: open.id,
            parent: open.parent,
            thread: open.thread,
            depth: open.depth,
            start_ns: open.start_ns,
            duration_ns: open.start.elapsed().as_nanos() as u64,
            trace: open.trace,
        };
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            // Pop this span (guards drop in LIFO order under normal
            // control flow; a stray out-of-order drop just truncates).
            if let Some(pos) = s.stack.iter().rposition(|&id| id == open.id) {
                s.stack.truncate(pos);
            }
            s.buffer.push(event);
            // Root scope closed: hand the thread's batch to the global
            // sink in one lock acquisition.
            if s.stack.is_empty() {
                let batch = std::mem::take(&mut s.buffer);
                if let Ok(mut sink) = sink().lock() {
                    sink.extend(batch);
                }
            }
        });
    }
}

/// Take every collected span, ordered by (thread, start time) so output
/// is stable regardless of which worker flushed first.
pub fn drain() -> Vec<SpanEvent> {
    let mut events = match sink().lock() {
        Ok(mut s) => std::mem::take(&mut *s),
        Err(_) => Vec::new(),
    };
    events.sort_by_key(|e| (e.thread, e.start_ns, e.id));
    events
}

/// Render events as JSON Lines: one object per span, schema
/// `{"name","id","parent","thread","depth","start_us","dur_us"}` plus a
/// `"trace"` hex field on spans recorded under a request trace context.
/// Names are `&'static str` identifiers from this codebase; they are
/// escaped anyway so the output is valid JSON for any name.
pub fn to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str("{\"name\":");
        crate::trace::push_json_str(&mut out, e.name);
        out.push_str(",\"id\":");
        out.push_str(&e.id.to_string());
        out.push_str(",\"parent\":");
        match e.parent {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"thread\":");
        out.push_str(&e.thread.to_string());
        out.push_str(",\"depth\":");
        out.push_str(&e.depth.to_string());
        out.push_str(",\"start_us\":");
        out.push_str(&(e.start_ns / 1_000).to_string());
        out.push_str(",\"dur_us\":");
        out.push_str(&(e.duration_ns / 1_000).to_string());
        if e.trace != 0 {
            out.push_str(&format!(",\"trace\":\"{:032x}\"", e.trace));
        }
        out.push_str("}\n");
    }
    out
}

/// Aggregated timing of one span name across occurrences.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Span name.
    pub name: &'static str,
    /// Occurrences.
    pub count: u64,
    /// Σ duration in nanoseconds.
    pub total_ns: u64,
    /// Maximum single duration in nanoseconds.
    pub max_ns: u64,
}

/// Aggregate events by span name, ordered by descending total time —
/// the per-stage breakdown the bench binaries print.
pub fn aggregate(events: &[SpanEvent]) -> Vec<StageStats> {
    let mut stages: Vec<StageStats> = Vec::new();
    for e in events {
        match stages.iter_mut().find(|s| s.name == e.name) {
            Some(s) => {
                s.count += 1;
                s.total_ns += e.duration_ns;
                s.max_ns = s.max_ns.max(e.duration_ns);
            }
            None => stages.push(StageStats {
                name: e.name,
                count: 1,
                total_ns: e.duration_ns,
                max_ns: e.duration_ns,
            }),
        }
    }
    stages.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    stages
}

/// Format a per-stage breakdown table (used by the bench binaries).
pub fn breakdown_table(events: &[SpanEvent]) -> String {
    let stages = aggregate(events);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>9} {:>12} {:>12} {:>12}\n",
        "stage", "count", "total (ms)", "mean (us)", "max (us)"
    ));
    for s in &stages {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.2} {:>12.1} {:>12.1}\n",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.total_ns as f64 / 1e3 / s.count.max(1) as f64,
            s.max_ns as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that enable/drain the global sink.
    static TEST_MUTEX: Mutex<()> = Mutex::new(());

    fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanEvent>) {
        let _guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        drain();
        enable();
        let out = f();
        disable();
        (out, drain())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        drain();
        {
            let _s = span("maestro.test.noop");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_records_parent_child_and_durations() {
        let ((), events) = with_tracing(|| {
            let _root = span("maestro.test.root");
            for _ in 0..2 {
                let _child = span("maestro.test.child");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let root = events
            .iter()
            .find(|e| e.name == "maestro.test.root")
            .expect("root span recorded");
        let children: Vec<_> = events
            .iter()
            .filter(|e| e.name == "maestro.test.child")
            .collect();
        assert_eq!(children.len(), 2);
        for c in &children {
            assert_eq!(c.parent, Some(root.id), "{c:?}");
            assert_eq!(c.depth, root.depth + 1);
            assert_eq!(c.thread, root.thread);
            assert!(c.duration_ns <= root.duration_ns, "{c:?} vs {root:?}");
            assert!(c.start_ns >= root.start_ns);
        }
        // The root covers both children.
        let child_total: u64 = children.iter().map(|c| c.duration_ns).sum();
        assert!(root.duration_ns >= child_total);
    }

    #[test]
    fn concurrent_threads_keep_independent_hierarchies() {
        let ((), events) = with_tracing(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _root = span("maestro.test.worker");
                        let _inner = span("maestro.test.inner");
                    });
                }
            });
        });
        let roots: Vec<_> = events
            .iter()
            .filter(|e| e.name == "maestro.test.worker")
            .collect();
        let inners: Vec<_> = events
            .iter()
            .filter(|e| e.name == "maestro.test.inner")
            .collect();
        assert_eq!(roots.len(), 4);
        assert_eq!(inners.len(), 4);
        for inner in &inners {
            // Each inner's parent is the root *from its own thread*.
            let parent = roots
                .iter()
                .find(|r| Some(r.id) == inner.parent)
                .unwrap_or_else(|| panic!("no parent for {inner:?}"));
            assert_eq!(parent.thread, inner.thread);
        }
        // Four distinct threads (scoped spawns are real OS threads).
        let mut threads: Vec<u64> = roots.iter().map(|r| r.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4, "{threads:?}");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let ((), events) = with_tracing(|| {
            let _a = span("maestro.test.jsonl");
        });
        let text = to_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"name\":\"maestro.test.jsonl\""), "{line}");
            assert!(line.contains("\"dur_us\":"), "{line}");
        }
    }

    #[test]
    fn spans_carry_the_installed_trace_context() {
        let ((), events) = with_tracing(|| {
            {
                let _bare = span("maestro.test.untraced");
            }
            let id = crate::trace::TraceId(0xfeed);
            crate::trace::install(crate::trace::Trace::begin(id, Instant::now()));
            {
                let _traced = span("maestro.test.traced");
            }
            crate::trace::take();
        });
        let bare = events
            .iter()
            .find(|e| e.name == "maestro.test.untraced")
            .expect("untraced span recorded");
        let traced = events
            .iter()
            .find(|e| e.name == "maestro.test.traced")
            .expect("traced span recorded");
        assert_eq!(bare.trace, 0);
        assert_eq!(traced.trace, 0xfeed);
        let jsonl = to_jsonl(&events);
        let traced_line = jsonl
            .lines()
            .find(|l| l.contains("maestro.test.traced"))
            .expect("traced line");
        assert!(
            traced_line.contains("\"trace\":\"0000000000000000000000000000feed\""),
            "{traced_line}"
        );
        let bare_line = jsonl
            .lines()
            .find(|l| l.contains("maestro.test.untraced"))
            .expect("bare line");
        assert!(!bare_line.contains("\"trace\""), "{bare_line}");
    }

    #[test]
    fn aggregate_sums_by_name() {
        let events = vec![
            SpanEvent {
                name: "a",
                id: 1,
                parent: None,
                thread: 0,
                depth: 0,
                start_ns: 0,
                duration_ns: 100,
                trace: 0,
            },
            SpanEvent {
                name: "b",
                id: 2,
                parent: Some(1),
                thread: 0,
                depth: 1,
                start_ns: 10,
                duration_ns: 30,
                trace: 0,
            },
            SpanEvent {
                name: "b",
                id: 3,
                parent: Some(1),
                thread: 0,
                depth: 1,
                start_ns: 50,
                duration_ns: 50,
                trace: 0,
            },
        ];
        let agg = aggregate(&events);
        assert_eq!(agg[0].name, "a");
        let b = agg.iter().find(|s| s.name == "b").expect("b aggregated");
        assert_eq!(b.count, 2);
        assert_eq!(b.total_ns, 80);
        assert_eq!(b.max_ns, 50);
        let table = breakdown_table(&events);
        assert!(table.contains("stage"), "{table}");
        assert!(table.contains('b'), "{table}");
    }
}
