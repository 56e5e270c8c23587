//! Offline stand-in for `serde`, keeping derive-site syntax unchanged.
//!
//! The build environment for this workspace has no crates.io access, so the
//! real `serde` cannot be fetched. This shim keeps the workspace's
//! `#[derive(Serialize, Deserialize)]` annotations and the
//! `serde_json::to_string_pretty` call sites compiling and working:
//!
//! * [`Serialize`] writes the value as JSON through a [`JsonWriter`];
//!   implementations for user types are generated by the sibling
//!   `serde_derive` shim.
//! * [`Deserialize`] is an empty marker trait — nothing in this workspace
//!   deserializes.
//!
//! The writer produces plain, valid JSON (objects, arrays, strings with
//! escaping, numbers; non-finite floats become `null`). It intentionally
//! implements nothing else of serde's data model.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Serialize `self` as JSON into `w`.
pub trait Serialize {
    /// Write the JSON encoding of `self`.
    fn serialize(&self, w: &mut JsonWriter);
}

/// Marker trait kept so `#[derive(Deserialize)]` sites keep compiling.
/// No deserialization is implemented in this offline shim.
pub trait Deserialize {}

/// A streaming JSON writer with optional pretty-printing.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// Child counts of the currently open containers (for comma placement).
    stack: Vec<usize>,
}

impl JsonWriter {
    /// A writer; `pretty` selects two-space indentation.
    pub fn new(pretty: bool) -> Self {
        JsonWriter {
            out: String::new(),
            pretty,
            stack: Vec::new(),
        }
    }

    /// The accumulated JSON text.
    pub fn into_string(self) -> String {
        self.out
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
    }

    /// Emit the separator before the next child of the open container.
    fn separator(&mut self) {
        if let Some(count) = self.stack.last_mut() {
            if *count > 0 {
                self.out.push(',');
            }
            *count += 1;
        }
        self.newline_indent();
    }

    /// Open a JSON object.
    pub fn begin_object(&mut self) {
        self.out.push('{');
        self.stack.push(0);
    }

    /// Start the named field of the innermost object.
    pub fn field(&mut self, name: &str) {
        self.separator();
        self.write_str(name);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        let children = self.stack.pop().unwrap_or(0);
        if children > 0 {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Open a JSON array.
    pub fn begin_array(&mut self) {
        self.out.push('[');
        self.stack.push(0);
    }

    /// Start the next element of the innermost array.
    pub fn element(&mut self) {
        self.separator();
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        let children = self.stack.pop().unwrap_or(0);
        if children > 0 {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Write `null`.
    pub fn write_null(&mut self) {
        self.out.push_str("null");
    }

    /// Write a boolean literal.
    pub fn write_bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write an unsigned integer.
    pub fn write_u64(&mut self, v: u64) {
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
    }

    /// Write a signed integer.
    pub fn write_i64(&mut self, v: i64) {
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
    }

    /// Write a float; non-finite values become `null` (JSON has no NaN).
    pub fn write_f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
        } else {
            self.write_null();
        }
    }

    /// Write an escaped JSON string.
    pub fn write_str(&mut self, s: &str) {
        write_escaped(&mut self.out, s);
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string: the bytes
/// [`JsonWriter::write_str`] writes.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                w.write_u64(*self as u64);
            }
        }
    )*};
}
impl_serialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                w.write_i64(*self as i64);
            }
        }
    )*};
}
impl_serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut JsonWriter) {
        w.write_f64(*self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut JsonWriter) {
        w.write_f64(f64::from(*self));
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut JsonWriter) {
        w.write_bool(*self);
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut JsonWriter) {
        w.write_str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut JsonWriter) {
        w.write_str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        match self {
            None => w.write_null(),
            Some(v) => v.serialize(w),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            w.element();
            v.serialize(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        self.as_slice().serialize(w);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut JsonWriter) {
        self.as_slice().serialize(w);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_array();
        w.element();
        self.0.serialize(w);
        w.element();
        self.1.serialize(w);
        w.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize>(v: &T) -> String {
        let mut w = JsonWriter::new(false);
        v.serialize(&mut w);
        w.into_string()
    }

    #[test]
    fn scalars() {
        assert_eq!(json(&3u64), "3");
        assert_eq!(json(&-4i32), "-4");
        assert_eq!(json(&1.5f64), "1.5");
        assert_eq!(json(&f64::NAN), "null");
        assert_eq!(json(&true), "true");
        assert_eq!(json(&"a\"b\n"), "\"a\\\"b\\n\"");
    }

    #[test]
    fn containers() {
        assert_eq!(json(&vec![1u64, 2, 3]), "[1,2,3]");
        assert_eq!(json(&[1.0f64, 2.0]), "[1,2]");
        assert_eq!(json(&Some(7u64)), "7");
        assert_eq!(json(&Option::<u64>::None), "null");
        assert_eq!(json(&(1u64, "x")), "[1,\"x\"]");
        let shared: std::sync::Arc<str> = "x".into();
        assert_eq!(json(&shared), json(&"x"));
    }

    #[test]
    fn objects_pretty() {
        let mut w = JsonWriter::new(true);
        w.begin_object();
        w.field("a");
        1u64.serialize(&mut w);
        w.field("b");
        w.begin_array();
        w.element();
        2u64.serialize(&mut w);
        w.end_array();
        w.end_object();
        let s = w.into_string();
        assert_eq!(s, "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }
}
