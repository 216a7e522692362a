//! Typed events and JSON rendering.
//!
//! An [`Event`] is a borrowed view — target, name, and a slice of typed
//! key=value fields — so emitting allocates nothing on the caller side
//! beyond what the values themselves need. Sinks render it however they
//! like; [`Event::to_json_line`] is the canonical JSONL form.
//!
//! This line writer is the one JSON writer kept outside
//! `vab_util::json::Json`: it streams borrowed fields on the traced hot
//! path without building a tree, and its number form (`1.0` for floats,
//! `"NaN"` for non-finite ones) is the trace format. Strings escape
//! through the shared `vab_util::json::write_json_string`.

use std::fmt::Write as _;
use vab_util::json::write_json_string;

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with enough digits to round-trip).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string (no allocation).
    Str(&'static str),
    /// Owned string.
    Owned(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u8> for Value {
    fn from(v: u8) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Owned(v)
    }
}

impl Value {
    /// Appends the JSON encoding of this value to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                if v.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes a `.` or exponent.
                    let _ = write!(out, "{v:?}");
                } else {
                    // JSON has no Inf/NaN: encode as strings.
                    write_json_string(out, &format!("{v}"));
                }
            }
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Owned(s) => write_json_string(out, s),
        }
    }
}

/// One structured event, borrowed for the duration of the sink call.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Global monotone sequence number.
    pub seq: u64,
    /// Microseconds since the observability epoch (first install).
    pub t_us: u64,
    /// Emitting subsystem, dotted (`"sim.montecarlo"`, `"link.arq"`).
    pub target: &'static str,
    /// Event name (`"retransmit"`, `"fault_activated"`).
    pub name: &'static str,
    /// Typed key=value payload.
    pub fields: &'a [(&'static str, Value)],
}

impl Event<'_> {
    /// Canonical JSONL rendering (one line, no trailing newline):
    /// `{"seq":…,"t_us":…,"target":…,"event":…,"fields":{…}}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json_line(&mut out);
        out
    }

    /// Appends the JSONL rendering to an existing buffer.
    pub fn write_json_line(&self, out: &mut String) {
        let _ = write!(out, "{{\"seq\":{},\"t_us\":{},\"target\":", self.seq, self.t_us);
        write_json_string(out, self.target);
        out.push_str(",\"event\":");
        write_json_string(out, self.name);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push_str("}}");
    }

    /// Human-readable one-liner for the stderr sink.
    pub fn to_pretty_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ =
            write!(out, "[{:>10.3} ms] {}.{}", self.t_us as f64 / 1000.0, self.target, self.name);
        for (k, v) in self.fields {
            let mut rendered = String::new();
            v.write_json(&mut rendered);
            let _ = write!(out, " {k}={rendered}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event<'a>(fields: &'a [(&'static str, Value)]) -> Event<'a> {
        Event { seq: 3, t_us: 1500, target: "sim.test", name: "e", fields }
    }

    #[test]
    fn json_line_shape() {
        let fields =
            [("a", Value::from(1u64)), ("b", Value::from(-2i64)), ("c", Value::from(true))];
        let line = event(&fields).to_json_line();
        assert_eq!(
            line,
            "{\"seq\":3,\"t_us\":1500,\"target\":\"sim.test\",\"event\":\"e\",\
             \"fields\":{\"a\":1,\"b\":-2,\"c\":true}}"
        );
    }

    #[test]
    fn string_escaping_covers_quotes_backslashes_and_controls() {
        let fields = [("msg", Value::from(String::from("a\"b\\c\nd\te\r\u{1}")))];
        let line = event(&fields).to_json_line();
        assert!(line.contains(r#""msg":"a\"b\\c\nd\te\r\u0001""#), "line: {line}");
    }

    #[test]
    fn floats_round_trip_and_nonfinite_become_strings() {
        let fields = [("x", Value::from(0.1f64)), ("y", Value::from(f64::NAN))];
        let line = event(&fields).to_json_line();
        assert!(line.contains("\"x\":0.1"), "line: {line}");
        assert!(line.contains("\"y\":\"NaN\""), "line: {line}");
    }

    #[test]
    fn pretty_line_is_human_readable() {
        let fields = [("trial", Value::from(12u64))];
        let p = event(&fields).to_pretty_line();
        assert!(p.contains("sim.test.e"), "pretty: {p}");
        assert!(p.contains("trial=12"), "pretty: {p}");
    }
}
