//! Reading what the daemon emits: response bodies (a JSON
//! well-formedness check), access-log lines and the `/metrics` exposition
//! (through the repository's own JSON and exposition parsers).

/// `true` when `s` is exactly one well-formed JSON value (surrounding
/// whitespace allowed). Nesting deeper than 128 levels is rejected.
///
/// A linear check of its own: `maestro_serve::parse_json` re-validates
/// the rest of its input as UTF-8 at every string character, so a 40 KB
/// whole-model body takes it ~13 ms, which would make the client, not the
/// daemon, the bottleneck.
pub fn is_json(s: &[u8]) -> bool {
    let mut p = Json { s, i: 0 };
    p.ws();
    p.value(0) && {
        p.ws();
        p.i == s.len()
    }
}

struct Json<'a> {
    s: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> bool {
        if depth > 128 {
            return false;
        }
        match self.peek() {
            Some(b'{') => self.seq(b'}', depth, true),
            Some(b'[') => self.seq(b']', depth, false),
            Some(b'"') => self.string(),
            Some(b't') => self.eat(b"true"),
            Some(b'f') => self.eat(b"false"),
            Some(b'n') => self.eat(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    /// An object (`keyed`) or array body after its opening bracket.
    fn seq(&mut self, close: u8, depth: usize, keyed: bool) -> bool {
        self.i += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return true;
        }
        loop {
            if keyed {
                if !self.string() {
                    return false;
                }
                self.ws();
                if !self.eat(b":") {
                    return false;
                }
                self.ws();
            }
            if !self.value(depth + 1) {
                return false;
            }
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.ws();
                }
                Some(c) if c == close => {
                    self.i += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b"\"") {
            return false;
        }
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return true,
                b'\\' => match self.peek() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                    Some(b'u') => {
                        let hex = self.s.get(self.i + 1..self.i + 5);
                        if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                            return false;
                        }
                        self.i += 5;
                    }
                    _ => return false,
                },
                0..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> bool {
        self.eat(b"-");
        if !self.eat(b"0") && self.digits() == 0 {
            return false;
        }
        if self.eat(b".") && self.digits() == 0 {
            return false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return false;
            }
        }
        true
    }
}

/// `body` with the value of every `"layer":"…"` field emptied. The
/// analysis cache keys reports by layer shape, not name, so a cached
/// report carries the name of whichever same-shape layer filled its entry;
/// the numbers are what must match bit for bit.
pub fn blank_layer_names(body: &[u8]) -> Vec<u8> {
    const KEY: &[u8] = b"\"layer\":\"";
    let mut out = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        if body[i..].starts_with(KEY) {
            out.extend_from_slice(KEY);
            i += KEY.len();
            while i < body.len() && body[i] != b'"' {
                i += if body[i] == b'\\' { 2 } else { 1 };
            }
            continue;
        }
        out.push(body[i]);
        i += 1;
    }
    out
}

/// One access-log line: `{"trace_id","route","status","bytes",
/// "total_us","queue_us","parse_us","analyze_us","serialize_us"}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    pub route: String,
    pub status: u64,
    pub bytes: u64,
    pub total_us: u64,
    /// queue, parse, analyze and serialize, in that order.
    pub phases_us: [u64; 4],
}

/// Parse one access-log line (`None` for anything malformed).
pub fn access_line(line: &str) -> Option<Access> {
    let v = maestro_serve::parse_json(line).ok()?;
    let n = |key: &str| v.get(key).and_then(maestro_serve::Value::as_u64);
    Some(Access {
        route: v.get("route")?.as_str()?.to_string(),
        status: n("status")?,
        bytes: n("bytes")?,
        total_us: n("total_us")?,
        phases_us: [
            n("queue_us")?,
            n("parse_us")?,
            n("analyze_us")?,
            n("serialize_us")?,
        ],
    })
}

/// The value of the unlabelled sample `name` in a Prometheus text
/// exposition (0 when absent, as for a counter never incremented).
pub fn metric(samples: &[maestro_obs::metrics::Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map_or(0.0, |s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_check_accepts_values_and_rejects_damage() {
        for ok in [
            "{}",
            "[]",
            " {\"a\":[1,-2.5e3,true,false,null,\"x\\n\\u00e9\"]} ",
            "{\"model\":\"vgg16\",\"layers\":[{\"runtime\":1.5}]}",
            "0",
            "\"s\"",
        ] {
            assert!(is_json(ok.as_bytes()), "{ok}");
        }
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "01",
            "1.",
            "-",
            "\"unterminated",
            "\"bad\\q\"",
            "{} {}",
            "{\"a\":1}x",
            "nul",
        ] {
            assert!(!is_json(bad.as_bytes()), "{bad}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(!is_json(deep.as_bytes()));
        // A body cut short mid-transfer must not pass.
        let body = b"{\"model\":\"vgg16\",\"layer\":\"CONV1\",\"report\":{\"runtime\":12}}";
        assert!(is_json(body));
        for cut in 1..body.len() {
            assert!(!is_json(&body[..cut]), "{cut}");
        }
    }

    #[test]
    fn layer_names_are_blanked_and_nothing_else() {
        let a = br#"{"model":"VGG16","layer":"CONV2","report":{"layer":"CONV3","runtime":5}}"#;
        let b = br#"{"model":"VGG16","layer":"CONV2","report":{"layer":"CONV9","runtime":5}}"#;
        let c = br#"{"model":"VGG16","layer":"CONV2","report":{"layer":"CONV3","runtime":6}}"#;
        assert_eq!(blank_layer_names(a), blank_layer_names(b));
        assert_ne!(blank_layer_names(a), blank_layer_names(c));
        assert_eq!(
            blank_layer_names(br#"{"layer":"a\"b","x":1}"#),
            br#"{"layer":"","x":1}"#.to_vec()
        );
    }

    #[test]
    fn access_lines_parse_into_phases() {
        let line = "{\"trace_id\":\"00ab\",\"route\":\"POST /v1/analyze\",\"status\":200,\
                    \"bytes\":1834,\"total_us\":95,\"queue_us\":12,\"parse_us\":7,\
                    \"analyze_us\":40,\"serialize_us\":30}";
        let a = access_line(line).expect("well-formed line");
        assert_eq!(a.route, "POST /v1/analyze");
        assert_eq!(a.status, 200);
        assert_eq!(a.bytes, 1834);
        assert_eq!(a.total_us, 95);
        assert_eq!(a.phases_us, [12, 7, 40, 30]);
        assert_eq!(access_line("{\"route\":\"GET /x\",\"status\":200}"), None);
        assert_eq!(access_line("garbage"), None);
    }

    #[test]
    fn exposition_lookup_reads_exact_unlabelled_names() {
        let text = "# TYPE maestro_serve_shed counter\nmaestro_serve_shed 3\n\
                    maestro_serve_shed_sojourn 11\n\
                    maestro_serve_request_seconds_bucket{le=\"0.001\"} 5\n\
                    maestro_serve_in_flight 1.5\n";
        let samples = maestro_obs::metrics::parse_exposition(text);
        assert_eq!(metric(&samples, "maestro_serve_shed"), 3.0);
        assert_eq!(metric(&samples, "maestro_serve_shed_sojourn"), 11.0);
        assert_eq!(metric(&samples, "maestro_serve_in_flight"), 1.5);
        assert_eq!(
            metric(&samples, "maestro_serve_request_seconds_bucket"),
            0.0
        );
        assert_eq!(metric(&samples, "maestro_serve_timeouts"), 0.0);
    }
}
