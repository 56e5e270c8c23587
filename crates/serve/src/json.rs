//! A minimal, hardened JSON parser for request bodies.
//!
//! The workspace's offline `serde_json` shim only *writes* JSON, so the
//! daemon parses request bodies with this hand-written recursive-descent
//! parser. It is deliberately small and defensive: hard depth and size
//! limits, no recursion past [`MAX_DEPTH`], and no panics on any input —
//! the parser-fuzz property tests feed it arbitrary bytes.

/// Maximum nesting depth accepted before the parser bails with
/// `"too deeply nested"` — bounds stack use on adversarial input.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys: last one wins on
    /// [`Value::get`] lookups is *not* guaranteed — first match wins).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives and overflow).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // `u64::MAX as f64` rounds up to 2^64, the first value past range.
        if n.is_finite() && n >= 0.0 && n < u64::MAX as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] on any syntax violation, depth past [`MAX_DEPTH`], or
/// trailing garbage.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        s: text,
        b: text.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.i, what }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("too deeply nested"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.i += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.i += 1;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.i += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run of plain characters in place. The run
                    // stops at an ASCII byte (quote, backslash, control)
                    // or the end, so both ends are char boundaries of the
                    // valid UTF-8 input and each byte is visited once.
                    let start = self.i;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    let run = self
                        .s
                        .get(start..self.i)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        // Surrogate pair handling: a high surrogate must be followed by
        // `\u` + low surrogate.
        if (0xD800..=0xDBFF).contains(&hi) {
            if !self.eat("\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..=0xDFFF).contains(&hi) {
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(self.err("digits required after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("digits required in exponent"));
            }
        }
        // The scanned slice is ASCII digits/sign/dot/exp, always valid
        // UTF-8 and a valid float literal.
        let text =
            std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if n.is_finite() {
            Ok(Value::Num(n))
        } else {
            Err(self.err("number out of range"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shaped_documents() {
        let v = parse(
            r#"{"model":"vgg16","layer":"conv1_1","pes":256,"deadline_ms":250.0,
                "styles":["KC-P","C-K"],"flag":true,"opt":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("model").and_then(Value::as_str), Some("vgg16"));
        assert_eq!(v.get("pes").and_then(Value::as_u64), Some(256));
        assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(250));
        assert_eq!(v.get("flag").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("opt"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        match v.get("styles") {
            Some(Value::Arr(items)) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\n\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
    }

    #[test]
    fn rejects_malformed_inputs_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "01x",
            "-",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\x01\"",
            "\"unterminated",
            "{\"a\":1}x",
            "[1 2]",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_ok());
        let deep_bad = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 2),
            "]".repeat(MAX_DEPTH + 2)
        );
        assert_eq!(parse(&deep_bad).unwrap_err().what, "too deeply nested");
    }

    #[test]
    fn multibyte_strings_round_trip() {
        for text in [
            "héllo wörld",
            "日本語のテキスト",
            "mixed 😀 emoji 🚀 \"quoted\"\n",
            "ß",
        ] {
            let doc = format!(
                "{{\"k\":{},\"n\":1}}",
                serde_json::to_string(&text).unwrap()
            );
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").and_then(Value::as_str), Some(text), "{doc}");
            assert_eq!(v.get("n").and_then(Value::as_u64), Some(1));
        }
    }

    /// Parsing is linear in the input: a 1 MiB string value (mixed ASCII
    /// and multi-byte characters) parses well inside a second even in a
    /// debug build. The old per-character re-validation of the rest of
    /// the input took minutes at this size.
    #[test]
    fn a_one_mib_string_parses_in_linear_time() {
        let chunk = "abcdefghijklmnopqrstuvwxyz0123456789 é日😀";
        let value: String = chunk.repeat((1 << 20) / chunk.len() + 1);
        let doc = format!("{{\"blob\":\"{value}\"}}");
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.get("blob").and_then(Value::as_str), Some(value.as_str()));
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None, "fractional");
        assert_eq!(parse("-1").unwrap().as_u64(), None, "negative");
    }

    /// Integers up to 2^53 are exact and accepted; 2^64 and above do not
    /// fit a `u64` and are rejected rather than saturated.
    #[test]
    fn as_u64_rejects_values_past_u64_range() {
        let two_53 = 1u64 << 53;
        assert_eq!(parse(&two_53.to_string()).unwrap().as_u64(), Some(two_53));
        for past in [
            "18446744073709551616",
            "18446744073709551617",
            "1e20",
            "1e300",
        ] {
            assert_eq!(parse(past).unwrap().as_u64(), None, "{past}");
        }
    }
}
