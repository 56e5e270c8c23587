//! Per-request latency attribution: a phase timer installed per worker
//! thread, and the JSONL access log.
//!
//! The connection loop creates a [`RequestTimer`] when a request finishes
//! parsing (pre-filling the `queue` and `parse` phases it measured
//! itself) and installs it thread-locally; the routing and handler code
//! deeper in the stack calls the free [`mark`] function to advance the
//! attribution (`analyze` when dispatch begins, `serialize` when the
//! response starts encoding) without threading a timer argument through
//! every signature. After the response bytes are written, the connection
//! loop takes the timer back, finishes it into a
//! [`TraceRecord`], offers that to the process-global
//! [`FlightRecorder`], and appends one [`AccessLog`] line.
//!
//! Phase model: a trace is an ordered list of half-open phases measured
//! against one anchor instant (accept time for a connection's first
//! request, first-byte time for keep-alive successors). Consecutive
//! same-named phases merge, so the HTTP parse and the JSON body decode
//! both land in one `parse` phase. Whatever phase is open when the
//! response hits the wire absorbs the write — for `/v1` requests that is
//! `serialize`, which is exactly where response bytes are produced.

use maestro_obs::trace::{FlightRecorder, KeepReason, Phase, TraceId, TraceRecord};
use std::cell::RefCell;
use std::io::Write;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch (0 if the clock is before 1970).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// An in-progress request trace: phases accumulated against one anchor.
#[derive(Debug)]
pub struct RequestTimer {
    id: TraceId,
    anchor: Instant,
    start_unix_ms: u64,
    phases: Vec<Phase>,
    open: Option<(&'static str, Instant)>,
}

impl RequestTimer {
    /// Start a trace anchored at `anchor` (which may lie in the past —
    /// accept time precedes the worker pop that builds the timer).
    pub fn begin(anchor: Instant) -> RequestTimer {
        RequestTimer {
            id: maestro_obs::trace::next_trace_id(),
            anchor,
            start_unix_ms: unix_ms(),
            phases: Vec::with_capacity(4),
            open: None,
        }
    }

    /// The trace ID (the `x-maestro-trace` header value).
    pub fn id(&self) -> TraceId {
        self.id
    }

    fn off(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.anchor).as_micros() as u64
    }

    fn push(&mut self, name: &'static str, start_us: u64, end_us: u64) {
        let dur_us = end_us.saturating_sub(start_us);
        // Merge consecutive same-named phases (HTTP parse + JSON decode);
        // the merged phase also covers any gap between the two.
        if let Some(last) = self.phases.last_mut() {
            if last.name == name {
                last.dur_us = end_us.saturating_sub(last.start_us);
                return;
            }
        }
        self.phases.push(Phase {
            name,
            start_us,
            dur_us,
        });
    }

    /// Record a completed phase spanning `[from, to]`.
    pub fn phase_span(&mut self, name: &'static str, from: Instant, to: Instant) {
        let (a, b) = (self.off(from), self.off(to));
        self.push(name, a, b);
    }

    /// Close the open phase (if any) at `now` and open `name`.
    pub fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        if let Some((open_name, t0)) = self.open.take() {
            let (a, b) = (self.off(t0), self.off(now));
            self.push(open_name, a, b);
        }
        self.open = Some((name, now));
    }

    /// Close the trace: whatever phase is open absorbs the remainder,
    /// and the total is the full anchored wall time.
    pub fn finish(mut self, name: String, status: u16, bytes: u64) -> TraceRecord {
        let now = Instant::now();
        if let Some((open_name, t0)) = self.open.take() {
            let (a, b) = (self.off(t0), self.off(now));
            self.push(open_name, a, b);
        }
        TraceRecord {
            id: self.id,
            name,
            status,
            start_unix_ms: self.start_unix_ms,
            total_us: self.off(now),
            bytes,
            phases: self.phases,
            // Placeholder: the recorder stamps the real reason on keep.
            kept: KeepReason::Sampled,
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<RequestTimer>> = const { RefCell::new(None) };
}

/// Install `timer` as this worker thread's active request timer.
pub fn install(timer: RequestTimer) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(timer));
}

/// Advance the active timer to phase `name`. No-op when no timer is
/// installed (unit tests calling handlers directly, the DSE path).
pub fn mark(name: &'static str) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.mark(name);
        }
    });
}

/// The active timer's trace ID, if one is installed.
pub fn active_id() -> Option<TraceId> {
    ACTIVE.with(|a| a.borrow().as_ref().map(RequestTimer::id))
}

/// Remove and return the active timer.
pub fn take() -> Option<RequestTimer> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Fold a record's phases into the four canonical access-log columns.
/// Phases outside the canon (`shed`, future names) count as analyze time
/// — they are handler-side work.
fn fold_phases(rec: &TraceRecord) -> (u64, u64, u64, u64) {
    let (mut queue, mut parse, mut analyze, mut serialize) = (0u64, 0u64, 0u64, 0u64);
    for p in &rec.phases {
        match p.name {
            "queue" => queue += p.dur_us,
            "parse" => parse += p.dur_us,
            "serialize" => serialize += p.dur_us,
            _ => analyze += p.dur_us,
        }
    }
    (queue, parse, analyze, serialize)
}

/// Render one access-log line (no trailing newline). Schema:
/// `{"trace_id","route","status","bytes","total_us","queue_us",
/// "parse_us","analyze_us","serialize_us"}`.
pub fn access_line(rec: &TraceRecord) -> String {
    let (queue, parse, analyze, serialize) = fold_phases(rec);
    let mut route = String::with_capacity(rec.name.len() + 2);
    serde::write_escaped(&mut route, &rec.name);
    format!(
        "{{\"trace_id\":\"{}\",\"route\":{},\"status\":{},\"bytes\":{},\"total_us\":{},\
         \"queue_us\":{},\"parse_us\":{},\"analyze_us\":{},\"serialize_us\":{}}}",
        rec.id.to_hex(),
        route,
        rec.status,
        rec.bytes,
        rec.total_us,
        queue,
        parse,
        analyze,
        serialize
    )
}

/// The JSONL access log: one line per completed request, written under a
/// mutex (requests finish on worker threads; the log must interleave by
/// whole lines).
pub struct AccessLog {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AccessLog")
    }
}

impl AccessLog {
    /// An access log writing to `path`, with `-` meaning stdout.
    ///
    /// # Errors
    ///
    /// Propagates the file-create failure.
    pub fn open(path: &str) -> std::io::Result<AccessLog> {
        let sink: Box<dyn Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(std::fs::File::create(path)?)
        };
        Ok(AccessLog {
            sink: Mutex::new(sink),
        })
    }

    /// Append one line for `rec`. Write errors are swallowed — losing an
    /// access-log line must never fail a request.
    pub fn write(&self, rec: &TraceRecord) {
        let line = access_line(rec);
        if let Ok(mut sink) = self.sink.lock() {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }
}

/// Finish the active timer (if any) for a response with `status` whose
/// body is `bytes` long: offer the record to the global flight recorder
/// and the access log. Called by the connection loop after the response
/// bytes hit the wire.
pub fn finish_active(route: &str, status: u16, bytes: u64, log: Option<&AccessLog>) {
    let Some(timer) = take() else {
        return;
    };
    let rec = timer.finish(route.to_string(), status, bytes);
    if let Some(log) = log {
        log.write(&rec);
    }
    let _ = FlightRecorder::global().record(rec);
}

/// Finish the active timer for a request whose response write *failed*:
/// the client never received the body, so recording the handler's status
/// would log a success that did not happen. The record is finished with
/// status `499` (client closed request — the nginx convention) and zero
/// bytes, and is force-kept in the flight recorder regardless of the
/// sampling policy: a failed write is an error outcome and must stay
/// diagnosable after the fact.
pub fn finish_active_write_failed(route: &str, log: Option<&AccessLog>) {
    let Some(timer) = take() else {
        return;
    };
    let rec = timer.finish(route.to_string(), 499, 0);
    if let Some(log) = log {
        log.write(&rec);
    }
    FlightRecorder::global().keep(rec, KeepReason::Error);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phases_merge_and_partition_the_total() {
        let anchor = Instant::now();
        let mut t = RequestTimer::begin(anchor);
        t.phase_span("queue", anchor, anchor + Duration::from_micros(100));
        t.phase_span(
            "parse",
            anchor + Duration::from_micros(100),
            anchor + Duration::from_micros(150),
        );
        // Contiguous same-name phase merges into the previous one.
        t.phase_span(
            "parse",
            anchor + Duration::from_micros(150),
            anchor + Duration::from_micros(250),
        );
        t.mark("analyze");
        std::thread::sleep(Duration::from_millis(2));
        t.mark("serialize");
        let rec = t.finish("GET /x".to_string(), 200, 10);
        let names: Vec<&str> = rec.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["queue", "parse", "analyze", "serialize"]);
        let parse = &rec.phases[1];
        assert_eq!((parse.start_us, parse.dur_us), (100, 150), "{rec:?}");
        let sum: u64 = rec.phases.iter().map(|p| p.dur_us).sum();
        // queue+parse are anchored in the past; analyze+serialize cover
        // [mark("analyze"), finish]. The only unattributed gap is
        // [250µs, mark("analyze")] — microseconds of test overhead.
        assert!(
            rec.total_us.abs_diff(sum) < rec.total_us / 5 + 200,
            "total {} vs phase sum {sum}: {rec:?}",
            rec.total_us
        );
    }

    // Regression: the connection loop closes `parse` at the parse instant
    // and reopens it with `mark("parse")` before routing; the
    // two only merged when their microsecond offsets touched, so traces
    // listed `parse` twice.
    #[test]
    fn same_named_phases_merge_across_a_gap() {
        let anchor = Instant::now();
        let mut t = RequestTimer::begin(anchor);
        t.phase_span("parse", anchor, anchor + Duration::from_micros(100));
        std::thread::sleep(Duration::from_millis(2));
        t.mark("parse");
        t.mark("analyze");
        let rec = t.finish("POST /v1/x".to_string(), 200, 0);
        let names: Vec<&str> = rec.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["parse", "analyze"], "{rec:?}");
        let (parse, analyze) = (&rec.phases[0], &rec.phases[1]);
        assert_eq!(parse.start_us, 0, "{rec:?}");
        assert_eq!(parse.start_us + parse.dur_us, analyze.start_us, "{rec:?}");
    }

    #[test]
    fn access_line_folds_to_canonical_columns() {
        let anchor = Instant::now();
        let mut t = RequestTimer::begin(anchor);
        t.phase_span("queue", anchor, anchor + Duration::from_micros(10));
        t.phase_span(
            "parse",
            anchor + Duration::from_micros(10),
            anchor + Duration::from_micros(30),
        );
        t.phase_span(
            "weird",
            anchor + Duration::from_micros(30),
            anchor + Duration::from_micros(70),
        );
        let mut rec = t.finish("POST /v1/\"q\"".to_string(), 200, 5);
        rec.total_us = 70;
        let line = access_line(&rec);
        assert!(line.contains("\"route\":\"POST /v1/\\\"q\\\"\""), "{line}");
        assert!(line.contains("\"queue_us\":10"), "{line}");
        assert!(line.contains("\"parse_us\":20"), "{line}");
        assert!(line.contains("\"analyze_us\":40"), "{line}"); // `weird` folds in
        assert!(line.contains("\"serialize_us\":0"), "{line}");
        assert!(line.contains("\"total_us\":70"), "{line}");
        assert!(line.contains(&format!("\"trace_id\":\"{}\"", rec.id.to_hex())));
        // The line is valid JSON by our own parser.
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(
            v.get("status").and_then(crate::json::Value::as_u64),
            Some(200)
        );
    }

    #[test]
    fn thread_local_install_mark_take() {
        assert!(take().is_none());
        mark("noop-without-timer");
        let t = RequestTimer::begin(Instant::now());
        let id = t.id();
        install(t);
        assert_eq!(active_id(), Some(id));
        mark("analyze");
        let t = take().unwrap();
        let rec = t.finish("x".to_string(), 200, 0);
        assert_eq!(rec.phases.last().map(|p| p.name), Some("analyze"));
        assert!(take().is_none());
    }
}
