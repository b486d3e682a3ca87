//! Minimal std-only JSON plumbing, shared across the workspace: an
//! escaping single-line object writer (used by the trace exporters and
//! the metrics JSON sink) and a small recursive-descent parser (used by
//! the exporter tests and the `trace_validate` CI binary).

use std::fmt::Write as _;

/// Escapes `s` per RFC 8259 into `out` (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A one-shot single-line JSON object builder: `{"k": v, "k2": v2}` with
/// a space after each colon and comma — the style of the repo's
/// hand-written emitters, so regenerated files diff cleanly.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj::new()
    }
}

impl JsonObj {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push_str(", ");
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\": ");
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, k: &str, v: &str) -> &mut JsonObj {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut JsonObj {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, k: &str, v: i64) -> &mut JsonObj {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field rendered with a fixed number of decimals
    /// (non-finite values become `null` — JSON has no NaN/Inf).
    pub fn f64(&mut self, k: &str, v: f64, decimals: usize) -> &mut JsonObj {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:.decimals$}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut JsonObj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value verbatim (e.g. a nested object).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut JsonObj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns its text. The builder is spent:
    /// further fields would land in a fresh empty buffer.
    pub fn finish(&mut self) -> String {
        let mut buf = std::mem::take(&mut self.buf);
        buf.push('}');
        buf
    }
}

/// Renders pre-serialized rows as a pretty JSON array: one row per line,
/// two-space indent, trailing newline — the Chrome trace export's shape.
#[must_use]
pub fn json_array_pretty<I: IntoIterator<Item = String>>(rows: I) -> String {
    let rows: Vec<String> = rows.into_iter().collect();
    if rows.is_empty() {
        return String::from("[]\n");
    }
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(r);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// A parsed JSON value. Numbers are kept as `f64` (every value our own
/// writer emits fits exactly; integer accessors validate the cast).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (no trailing garbage allowed).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (linear; objects here are small).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exact.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The numeric payload as a signed integer, if exact.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) => Some(*v as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field slice, if this is an object.
    #[must_use]
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| format!("bad number at offset {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.i + 4;
        let hex = self
            .b
            .get(self.i..end)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| format!("truncated \\u escape at offset {}", self.i))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at offset {}", self.i))?;
        self.i = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut seg = self.i;
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(
                        std::str::from_utf8(&self.b[seg..self.i]).map_err(|e| e.to_string())?,
                    );
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(
                        std::str::from_utf8(&self.b[seg..self.i]).map_err(|e| e.to_string())?,
                    );
                    self.i += 1;
                    let esc = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| String::from("truncated escape"))?;
                    self.i += 1;
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
                            let mut code = self.hex4()?;
                            // Combine a UTF-16 surrogate pair if present.
                            if (0xD800..0xDC00).contains(&code)
                                && self.b.get(self.i) == Some(&b'\\')
                                && self.b.get(self.i + 1) == Some(&b'u')
                            {
                                self.i += 2;
                                let low = self.hex4()?;
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        c => return Err(format!("bad escape \\{}", c as char)),
                    }
                    seg = self.i;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            fields.push((key, self.value()?));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_formats() {
        let line = JsonObj::new()
            .str("name", "a\"b\\c\nd\u{1}")
            .u64("n", 42)
            .i64("g", -7)
            .f64("secs", 0.125, 3)
            .f64("inf", f64::INFINITY, 1)
            .bool("ok", true)
            .raw("nested", "{\"x\": 1}")
            .finish();
        assert_eq!(
            line,
            "{\"name\": \"a\\\"b\\\\c\\nd\\u0001\", \"n\": 42, \"g\": -7, \
             \"secs\": 0.125, \"inf\": null, \"ok\": true, \"nested\": {\"x\": 1}}"
        );
    }

    #[test]
    fn writer_output_parses_back() {
        let line = JsonObj::new()
            .str("s", "tab\there \"q\" µs")
            .u64("u", u64::from(u32::MAX))
            .f64("f", 1234.5, 1)
            .bool("b", false)
            .finish();
        let v = Json::parse(&line).expect("parse");
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("tab\there \"q\" µs")
        );
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(u64::from(u32::MAX)));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1234.5));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn parser_handles_structures() {
        let v = Json::parse(" [ 1 , {\"a\": [true, null]}, \"x\" ] ").expect("parse");
        let items = v.as_array().expect("array");
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(
            items[1]
                .get("a")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(items[2].as_str(), Some("x"));
        assert_eq!(Json::parse("[]").expect("empty"), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").expect("empty"), Json::Obj(vec![]));
    }

    #[test]
    fn parser_decodes_unicode_escapes() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").expect("parse");
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn array_pretty_shape() {
        assert_eq!(json_array_pretty(Vec::new()), "[]\n");
        assert_eq!(
            json_array_pretty(vec!["{\"a\": 1}".to_string(), "{\"b\": 2}".to_string()]),
            "[\n  {\"a\": 1},\n  {\"b\": 2}\n]\n"
        );
    }
}
