//! The end of a request's trace, and the JSONL access log.
//!
//! The connection loop begins each request's [`Trace`] and installs it as
//! the worker thread's trace context (see
//! [`maestro_obs::trace`](mod@maestro_obs::trace)); the routing and
//! handler code marks `analyze` when dispatch begins and `serialize`
//! when the response starts encoding. After the response bytes are
//! written, [`finish_active`] takes the trace back, finishes it into a
//! [`TraceRecord`], offers that to the process-global
//! [`FlightRecorder`], and appends one [`AccessLog`] line. Whatever
//! phase is open when the response hits the wire absorbs the write —
//! for `/v1` requests that is `serialize`, which is exactly where
//! response bytes are produced.
//!
//! [`Trace`]: maestro_obs::Trace

use maestro_obs::trace::{FlightRecorder, KeepReason, TraceRecord};
use std::io::Write;
use std::sync::Mutex;

/// The status recorded for a response whose write failed: `499`, client
/// closed request (the nginx convention).
pub const WRITE_FAILED: u16 = 499;

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

/// Finish the thread's trace (if any) for a response with `status` whose
/// body is `bytes` long: offer the record to the global flight recorder
/// and the access log. Called by the connection loop after the response
/// bytes hit the wire. A response whose write failed is finished as
/// [`WRITE_FAILED`] with zero bytes — the client never received the
/// body, so the handler's status would log a success that did not happen
/// — and is kept regardless of the sampling policy: a failed write is an
/// error outcome and must stay diagnosable after the fact.
pub fn finish_active(route: &str, status: u16, bytes: u64, log: Option<&AccessLog>) {
    let Some(trace) = maestro_obs::trace::take() else {
        return;
    };
    let rec = trace.finish(route.to_string(), status, bytes);
    if let Some(log) = log {
        log.write(&rec);
    }
    if status == WRITE_FAILED {
        FlightRecorder::global().keep(rec, KeepReason::Error);
    } else {
        let _ = FlightRecorder::global().record(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_obs::trace::{next_trace_id, Trace};
    use std::time::{Duration, Instant};

    #[test]
    fn access_line_folds_to_canonical_columns() {
        let us = Duration::from_micros;
        // Anchored ahead of the clock, so `finish` closes the last phase
        // at the anchor and the phase table is exact.
        let anchor = Instant::now() + Duration::from_secs(1);
        let mut t = Trace::begin(next_trace_id(), anchor);
        t.mark_at("queue", anchor);
        t.mark_at("parse", anchor + us(10));
        t.mark_at("weird", anchor + us(30));
        t.mark_at("serialize", anchor + us(70));
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
}
