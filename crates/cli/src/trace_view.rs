//! The `maestro trace` explorer: decode kept traces, as a running
//! daemon's `/debug/traces` endpoint or a saved JSON dump lists them, and
//! render them as an ASCII waterfall or a collapsed-stack (`--folded`)
//! dump that flamegraph tooling consumes directly.

use maestro_serve::{parse_json, Value};

/// One decoded trace (the `/debug/traces` element schema).
pub struct TraceView {
    /// 32 hex digits.
    pub id: String,
    /// What ran: `"POST /v1/analyze"`, `"shed"`, `"dse.unit[3]"`.
    pub name: String,
    /// HTTP-style outcome status.
    pub status: u64,
    /// End-to-end duration, microseconds.
    pub total_us: u64,
    /// Tail-sampling keep reason: `error` / `slow` / `sampled`.
    pub kept: String,
    /// `(name, start_us, dur_us)` per attributed phase, in time order.
    pub phases: Vec<(String, u64, u64)>,
}

/// Decode a `/debug/traces` listing (`{"traces":[...]}`) or a single
/// trace object into views, preserving order (newest first from the
/// daemon).
pub fn decode_traces(text: &str) -> Result<Vec<TraceView>, String> {
    let v = parse_json(text).map_err(|e| format!("trace JSON: {e}"))?;
    match v.get("traces") {
        Some(Value::Arr(items)) => items.iter().map(decode_one).collect(),
        Some(_) => Err("`traces` is not an array".to_string()),
        None => Ok(vec![decode_one(&v)?]),
    }
}

fn decode_one(v: &Value) -> Result<TraceView, String> {
    let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let n = |k: &str| v.get(k).and_then(Value::as_u64);
    let mut phases = Vec::new();
    if let Some(Value::Arr(ps)) = v.get("phases") {
        for p in ps {
            phases.push((
                p.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                p.get("start_us").and_then(Value::as_u64).unwrap_or(0),
                p.get("dur_us").and_then(Value::as_u64).unwrap_or(0),
            ));
        }
    }
    Ok(TraceView {
        id: s("trace_id").ok_or("trace object is missing `trace_id`")?,
        name: s("name").unwrap_or_default(),
        status: n("status").unwrap_or(0),
        total_us: n("total_us").unwrap_or(0),
        kept: s("kept").unwrap_or_default(),
        phases,
    })
}

/// One summary line for the listing view.
pub fn summary(t: &TraceView) -> String {
    format!(
        "{}  {:>4}  {:>10}  {:<7}  {}",
        t.id,
        t.status,
        fmt_us(t.total_us),
        t.kept,
        t.name
    )
}

/// ASCII waterfall: one bar per phase, scaled to the trace total, with
/// absolute offset and duration on the right.
pub fn waterfall(t: &TraceView) -> String {
    const W: u64 = 40;
    let mut out = format!(
        "trace {}  {}  status={}  total={}  kept={}\n",
        t.id,
        t.name,
        t.status,
        fmt_us(t.total_us),
        t.kept
    );
    let total = t.total_us.max(1);
    for (name, start, dur) in &t.phases {
        let a = (start * W / total).min(W - 1);
        // Ceil the end so a nonzero phase always gets at least one cell.
        let b = ((start + dur) * W).div_ceil(total).clamp(a + 1, W);
        let bar: String = (0..W)
            .map(|i| if i >= a && i < b { '#' } else { '.' })
            .collect();
        out.push_str(&format!(
            "  {name:<10} [{bar}] {:>9} +{}\n",
            fmt_us(*start),
            fmt_us(*dur)
        ));
    }
    out
}

/// Collapsed-stack dump (`request;phase microseconds`), one line per
/// phase — the input format of standard flamegraph scripts.
pub fn folded(t: &TraceView) -> String {
    let root = t.name.replace([' ', ';'], "_");
    let mut out = String::new();
    for (name, _, dur) in &t.phases {
        let frame = name.replace([' ', ';'], "_");
        out.push_str(&format!("{root};{frame} {dur}\n"));
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"traces":[{"trace_id":"00000000000000000000000000000abc","name":"POST /v1/analyze","status":200,"start_unix_ms":1,"total_us":1000,"bytes":42,"kept":"sampled","phases":[{"name":"queue","start_us":0,"dur_us":100},{"name":"parse","start_us":100,"dur_us":100},{"name":"analyze","start_us":200,"dur_us":700},{"name":"serialize","start_us":900,"dur_us":100}]}]}"#;

    #[test]
    fn decodes_listing_and_renders_waterfall() {
        let ts = decode_traces(SAMPLE).expect("decode");
        assert_eq!(ts.len(), 1);
        let t = &ts[0];
        assert_eq!(t.id.len(), 32);
        assert_eq!(t.phases.len(), 4);
        let w = waterfall(t);
        assert!(w.contains("status=200"), "{w}");
        assert!(w.contains("analyze"), "{w}");
        assert!(w.contains('#'), "{w}");
        // The analyze bar dominates: 70% of 40 cells = 28.
        let analyze_line = w
            .lines()
            .find(|l| l.trim_start().starts_with("analyze"))
            .expect("bar");
        assert_eq!(analyze_line.matches('#').count(), 28, "{analyze_line}");
    }

    #[test]
    fn folded_emits_one_stack_line_per_phase() {
        let ts = decode_traces(SAMPLE).expect("decode");
        let f = folded(&ts[0]);
        assert_eq!(f.lines().count(), 4);
        assert!(f.contains("POST_/v1/analyze;analyze 700\n"), "{f}");
    }

    #[test]
    fn single_object_and_hostile_inputs() {
        let one = decode_traces(
            r#"{"trace_id":"ff","name":"shed","status":503,"total_us":5,"kept":"error","phases":[]}"#,
        )
        .expect("single-object form");
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].status, 503);
        assert!(decode_traces("{").is_err());
        assert!(decode_traces(r#"{"name":"no id"}"#).is_err());
    }
}
