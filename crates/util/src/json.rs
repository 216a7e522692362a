//! A minimal recursive-descent JSON parser and serializer.
//!
//! The workspace consumes only JSON it emitted itself (trace lines from
//! `vab-obs`, `metrics.json` snapshots, `BENCH_<sha>.json` perf files, the
//! committed baseline, `vab-svc` job specs and wire frames), so this stays
//! deliberately small: full RFC 8259 value grammar, numbers as `f64`,
//! objects as ordered key/value vectors. It exists so the workspace keeps
//! its zero-dependency rule — no serde.
//!
//! The serializer ([`Json::render`]) is *canonical*: objects keep their
//! insertion order, integral floats print without a fraction, and the
//! shortest round-trip representation is used for everything else — so two
//! structurally identical values always render to identical bytes. That
//! property is what `vab-svc` content-addresses its job cache on.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always an `f64`; the emitters never exceed 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` in the canonical number form: integral values in
/// the exactly-representable range print without a fraction (`3`, not
/// `3.0`), everything else uses Rust's shortest round-trip `{:?}`.
/// Non-finite values have no JSON form and render as `null`.
pub fn write_json_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", v as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{v:?}"));
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so a bound keeps hostile input (a daemon
/// request line of a million `[`) from overflowing a thread's stack; every
/// document the workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 256;

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error,
    /// and so is nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Renders the value compactly (no insignificant whitespace). The
    /// output is canonical: the same value always yields the same bytes,
    /// and `Json::parse(v.render()) == v` for finite numbers.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_json_number(out, *v),
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Builds an object from `(key, value)` pairs, in the given order.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then `as_f64`.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Convenience: `get(key)` then `as_u64`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Convenience: `get(key)` then `as_str`.
    pub fn str_field<'a>(&'a self, key: &str) -> Option<&'a str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: `get(key)` then `as_bool`.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Json::as_bool)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    drop_repeated_keys(&mut fields);
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain bytes are copied in one slice.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { at: start, msg: format!("invalid number {text:?}") })
    }
}

/// Drops every field whose key an earlier field already has, keeping
/// source order (the first duplicate wins). Sorting field indices by
/// (key, index) makes this O(n log n): one hostile request line of
/// 100,000 keys must not cost billions of string compares.
fn drop_repeated_keys(fields: &mut Vec<(String, Json)>) {
    let mut order: Vec<usize> = (0..fields.len()).collect();
    order.sort_unstable_by(|&a, &b| fields[a].0.cmp(&fields[b].0).then(a.cmp(&b)));
    // A field repeats its sorted predecessor's key unless it heads its key
    // group (the lowest index, the one kept). Compact the repeats' indices
    // to the front of `order`; writes trail the reads, so each comparison
    // still sees unmoved entries.
    let mut repeats = 0;
    for i in 1..order.len() {
        if fields[order[i]].0 == fields[order[i - 1]].0 {
            order[repeats] = order[i];
            repeats += 1;
        }
    }
    order.truncate(repeats);
    order.sort_unstable();
    let (mut index, mut next) = (0, 0);
    fields.retain(|_| {
        let repeated = order.get(next) == Some(&index);
        next += usize::from(repeated);
        index += 1;
        !repeated
    });
}

/// The linear scan [`drop_repeated_keys`] replaced: O(n²), kept as the
/// oracle its proptest compares against.
#[cfg(test)]
fn drop_repeated_keys_by_scan(fields: Vec<(String, Json)>) -> Vec<(String, Json)> {
    let mut kept: Vec<(String, Json)> = Vec::new();
    for (key, val) in fields {
        if !kept.iter().any(|(k, _)| *k == key) {
            kept.push((key, val));
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_workspace_emitters_shapes() {
        let line = r#"{"seq":3,"t_us":1500,"target":"sim.test","event":"e","fields":{"a":1,"b":-2.5,"c":true,"d":"x\n"}}"#;
        let v = Json::parse(line).expect("parse");
        assert_eq!(v.u64_field("seq"), Some(3));
        assert_eq!(v.str_field("target"), Some("sim.test"));
        let fields = v.get("fields").expect("fields");
        assert_eq!(fields.f64_field("b"), Some(-2.5));
        assert_eq!(fields.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(fields.str_field("d"), Some("x\n"));
    }

    #[test]
    fn parses_nested_arrays_and_keeps_object_order() {
        let v = Json::parse(r#"{"z":[1,2,[3]],"a":{}}"#).expect("parse");
        let obj = v.as_obj().expect("obj");
        assert_eq!(obj[0].0, "z");
        assert_eq!(obj[1].0, "a");
        let arr = v.get("z").and_then(Json::as_arr).expect("arr");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_arr().map(<[Json]>::len), Some(1));
    }

    #[test]
    fn rejects_truncation_and_garbage() {
        assert!(Json::parse(r#"{"seq":3,"t_us":15"#).is_err());
        assert!(Json::parse(r#"{"a":1} extra"#).is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse(r#"{"a":01x}"#).is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""snap A😀""#).expect("parse");
        assert_eq!(v.as_str(), Some("snap A\u{1F600}"));
    }

    #[test]
    fn nonfinite_sentinels_from_the_snapshot_stay_strings() {
        // vab-obs encodes NaN/Inf as strings; they come back as Json::Str.
        let v = Json::parse(r#"{"sum":"NaN"}"#).expect("parse");
        assert_eq!(v.f64_field("sum"), None);
        assert_eq!(v.str_field("sum"), Some("NaN"));
    }

    #[test]
    fn render_is_compact_and_round_trips() {
        let v = Json::obj([
            ("kind", Json::Str("mc_point".into())),
            ("range_m", Json::Num(123.5)),
            ("trials", Json::Num(100.0)),
            ("ok", Json::Bool(true)),
            ("tags", Json::Arr(vec![Json::Null, Json::Num(-2.25)])),
        ]);
        let s = v.render();
        assert_eq!(
            s,
            r#"{"kind":"mc_point","range_m":123.5,"trials":100,"ok":true,"tags":[null,-2.25]}"#
        );
        assert_eq!(Json::parse(&s).expect("reparse"), v);
    }

    #[test]
    fn render_escapes_strings() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        let s = v.render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&s).expect("reparse"), v);
    }

    #[test]
    fn render_is_canonical_for_integral_floats() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn shortest_roundtrip_floats_survive_reparse_exactly() {
        for v in [1.0 / 3.0, 1e-300, 2.2250738585072014e-308, 9.007199254740993e15, -0.1] {
            let rendered = Json::Num(v).render();
            let back = Json::parse(&rendered).expect("reparse").as_f64().expect("num");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} rendered as {rendered}");
        }
    }

    #[test]
    fn megabyte_of_nesting_is_an_error_not_a_stack_overflow() {
        const MIB: usize = 1 << 20;
        let arrays = "[".repeat(MIB);
        let err = Json::parse(&arrays).expect_err("unbounded nesting");
        assert_eq!(err.at, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MIB / 5);
        assert!(Json::parse(&objects).is_err());
        // Closed documents past the limit fail too, at the first level over.
        let closed = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(Json::parse(&closed).expect_err("too deep").at, MAX_DEPTH);
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let mut doc = "0".to_string();
        for level in 0..MAX_DEPTH {
            doc = if level % 2 == 0 { format!("[{doc}]") } else { format!("{{\"k\":{doc}}}") };
        }
        let mut v = &Json::parse(&doc).expect("at the limit");
        for level in (0..MAX_DEPTH).rev() {
            v = if level % 2 == 0 {
                &v.as_arr().expect("array")[0]
            } else {
                v.get("k").expect("k")
            };
        }
        assert_eq!(v.as_f64(), Some(0.0));
    }

    #[test]
    fn a_hundred_thousand_key_object_parses() {
        // Every key twice, the second copy with another value: the first
        // must win and source order must survive.
        let n = 100_000;
        let mut doc = String::from("{");
        for pass in 0..2 {
            for i in 0..n {
                if pass + i > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!("\"k{i}\":{}", pass * n + i));
            }
        }
        doc.push('}');
        let v = Json::parse(&doc).expect("parse");
        let fields = v.as_obj().expect("object");
        assert_eq!(fields.len(), n);
        for (i, (k, val)) in fields.iter().enumerate() {
            assert_eq!(k, &format!("k{i}"));
            assert_eq!(val.as_f64(), Some(i as f64));
        }
    }

    proptest! {
        // Objects drawn from a small key alphabet repeat keys often; the
        // parsed fields must equal the linear scan's, values and order.
        #[test]
        fn repeated_keys_resolve_like_the_linear_scan(
            keys in prop::collection::vec(0u32..12, 0..48),
        ) {
            let fields: Vec<(String, Json)> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| (format!("k{k}"), Json::Num(i as f64)))
                .collect();
            let want = drop_repeated_keys_by_scan(fields.clone());
            let mut got = fields.clone();
            drop_repeated_keys(&mut got);
            prop_assert_eq!(&got, &want);
            let parsed = Json::parse(&Json::Obj(fields).render()).expect("parse");
            prop_assert_eq!(parsed, Json::Obj(want));
        }
    }
}
