//! Minimal JSON: a value tree, a strict parser, and a writer.
//!
//! The workspace vendors `serde` as a no-op derive shim (no crates.io
//! access), so the harness does its own (de)serialization. Numbers are
//! kept as **raw text tokens**: a `u64` seed or event counter never
//! passes through `f64` (which would silently lose precision above
//! 2^53), and an `f64` is rendered with Rust's shortest-round-trip
//! `Display` and parsed back with `str::parse::<f64>`, which restores
//! the identical bits. That property is what makes snapshot resume
//! bit-identical.

use std::fmt;

pub use ckpt_obs::json_escape;

/// A parsed JSON value. Object fields keep insertion order (the writer
/// is deterministic), and numbers keep their raw source token.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token (e.g. `"42"`, `"0.6180339887498949"`).
    Number(String),
    /// A string (unescaped).
    String(String),
    /// `[ ... ]`.
    Array(Vec<JsonValue>),
    /// `{ ... }` as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A number value from a `u64` (exact — never via `f64`).
    #[must_use]
    pub fn from_u64(v: u64) -> JsonValue {
        JsonValue::Number(v.to_string())
    }

    /// A number value from a finite `f64`, rendered with the shortest
    /// representation that parses back to the identical bits.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinity — JSON has no token for them, and a
    /// snapshot that cannot round-trip must fail loudly at write time,
    /// not at resume time.
    #[must_use]
    pub fn from_f64(v: f64) -> JsonValue {
        assert!(v.is_finite(), "non-finite f64 {v} cannot be stored as JSON");
        JsonValue::Number(format!("{v}"))
    }

    /// A string value.
    #[must_use]
    pub fn from_text(v: &str) -> JsonValue {
        JsonValue::String(v.to_string())
    }

    /// The value as `u64`, if it is an integral number token in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number token.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object fields, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Serializes the value compactly (no insignificant whitespace).
    /// Deterministic: fields render in insertion order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(raw) => out.push_str(raw),
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A JSON parse failure: byte offset plus a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts. Far above
/// any document the workspace writes; it bounds the parser's recursion
/// so hostile input gets an error instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed token, or the
/// first container nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Containers open at the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one container one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The cursor only ever
                    // advances by whole scalars, so it sits on a char
                    // boundary and the slice is O(1).
                    let c = self.input[self.pos..]
                        .chars()
                        .next()
                        .expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the
    /// `u`), joining surrogate pairs. Leaves the cursor after the last
    /// consumed digit + 1 (matching the single-character escape path).
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                    }
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = self.input[start..self.pos].to_string();
        // Validate the token now so downstream as_f64() cannot fail on
        // a malformed-but-accepted document.
        if raw.parse::<f64>().is_err() {
            self.pos = start;
            return Err(self.err("malformed number"));
        }
        Ok(JsonValue::Number(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_document() {
        let src = r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5e3}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_json(), src);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2500.0)
        );
    }

    #[test]
    fn f64_round_trip_is_bit_identical() {
        for v in [
            0.618_033_988_749_894_9,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -0.0,
            1e300,
            123_456_789.123_456_78,
        ] {
            let j = JsonValue::from_f64(v).to_json();
            let back = parse(&j).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} → {j} → {back}");
        }
    }

    #[test]
    fn u64_survives_beyond_f64_precision() {
        let big = u64::MAX - 1; // not representable as f64
        let j = JsonValue::from_u64(big).to_json();
        assert_eq!(parse(&j).unwrap().as_u64(), Some(big));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_f64_is_rejected_at_write_time() {
        let _ = JsonValue::from_f64(f64::NAN);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"abc",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"\\Aé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"\\Aé😀"));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest =
            |open: &str, close: &str, depth: usize| open.repeat(depth) + &close.repeat(depth);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        let e = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        assert!(parse(&nest("[{\"a\":", "}]", MAX_DEPTH)).is_err());
        // Far past the limit the parser still answers instead of
        // overflowing the stack.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn long_non_ascii_strings_parse_in_linear_time() {
        let body = "é".repeat(200_000);
        let v = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(v.as_str(), Some(body.as_str()));
    }

    #[test]
    fn error_carries_offset() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
