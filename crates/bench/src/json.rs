//! A minimal JSON emitter for the chrome://tracing export (`trace.json`).
//!
//! The workspace builds with no registry access (CARGO_NET_OFFLINE), so
//! there is no serde; this writer covers exactly what that document
//! needs — objects, arrays, strings, numbers (non-finite ones as `null`) —
//! and always produces valid, pretty-printed JSON.

/// Streaming JSON writer. Call the structural methods in document order
/// and [`JsonWriter::finish`] at the end.
///
/// ```
/// use sctc_bench::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("answer");
/// w.number(42.0);
/// w.end_object();
/// assert_eq!(w.finish(), "{\n  \"answer\": 42\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    depth: usize,
    /// Whether the current container already holds a value (a comma is
    /// needed before the next one).
    needs_comma: Vec<bool>,
    /// A `key(...)` was emitted and awaits its value.
    pending_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(needs_comma) = self.needs_comma.last_mut() {
            if *needs_comma {
                self.out.push(',');
            }
            *needs_comma = true;
            self.newline_indent();
        }
    }

    /// Starts an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        let had_values = self.needs_comma.pop().unwrap_or(false);
        self.depth -= 1;
        if had_values {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Starts an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.depth += 1;
        self.needs_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        let had_values = self.needs_comma.pop().unwrap_or(false);
        self.depth -= 1;
        if had_values {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Emits an object key; the next call must emit its value.
    pub fn key(&mut self, key: &str) {
        self.before_value();
        self.push_string(key);
        self.out.push_str(": ");
        self.pending_key = true;
    }

    /// Emits a string value.
    pub fn string(&mut self, value: &str) {
        self.before_value();
        self.push_string(value);
    }

    /// Emits a number. Non-finite values become `null` (JSON has no
    /// NaN/Inf); integral values print without a fraction.
    pub fn number(&mut self, value: f64) {
        self.before_value();
        if !value.is_finite() {
            self.out.push_str("null");
        } else if value.fract() == 0.0 && value.abs() < 9.0e15 {
            let _ = {
                use std::fmt::Write as _;
                write!(self.out, "{}", value as i64)
            };
        } else {
            let _ = {
                use std::fmt::Write as _;
                write!(self.out, "{value}")
            };
        }
    }

    /// Returns the finished document with a trailing newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    use std::fmt::Write as _;
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        w.begin_object();
        w.key("name");
        w.string("tb\"1000\"");
        w.end_object();
        w.end_array();
        w.key("rate");
        w.number(0.5);
        w.end_object();
        let doc = w.finish();
        assert!(doc.contains("\"tb\\\"1000\\\"\""));
        assert!(doc.contains("\"rate\": 0.5"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn integral_numbers_have_no_fraction() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number(42.0);
        w.number(f64::NAN);
        w.end_array();
        let doc = w.finish();
        assert!(doc.contains("42"), "{doc}");
        assert!(!doc.contains("42.0"), "{doc}");
        assert!(doc.contains("null"), "{doc}");
    }

    #[test]
    fn empty_containers_stay_compact() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"rows\": []\n}\n");
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut w = JsonWriter::new();
        w.string("a\u{1}b\nc");
        assert_eq!(w.finish(), "\"a\\u0001b\\nc\"\n");
    }
}
