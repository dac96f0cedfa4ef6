//! A small JSON value type, serializer and reader.
//!
//! The workspace cannot take a `serde` dependency (offline build), so a
//! hand-rolled emitter and reader keep the surface tiny: [`Json`] plus
//! `Display` to write, [`Json::parse`] to read back (the benchmark gate
//! reads `BENCH_*.json` this way). Integers are emitted as integers;
//! floats as shortest-roundtrip decimals that always carry a `.` or an
//! exponent, so a float never reads back as an integer; non-finite
//! floats degrade to `null` (JSON has no NaN/Infinity).

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer (covers u64 counters below 2^63 and i64).
    Int(i64),
    /// Floating point.
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Pretty-prints with two-space indentation and a trailing newline,
    /// the format written to `BENCH_*.json`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&format!("{}: ", Json::Str(k.clone())));
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => {
                out.push_str(&other.to_string());
            }
        }
    }

    /// Parses one JSON document (RFC 8259; surrounding whitespace
    /// allowed). Integers that fit `i64` read as [`Json::Int`], every
    /// other number as [`Json::Num`]; object key order and duplicate
    /// keys are kept. Never panics: malformed, truncated or
    /// over-deep (more than [`MAX_DEPTH`] levels) input is an `Err`
    /// naming the byte offset.
    ///
    /// # Errors
    ///
    /// A one-line description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader {
            s: text.as_bytes(),
            pos: 0,
        };
        let value = r.value(0)?;
        r.skip_ws();
        if r.pos < r.s.len() {
            return Err(r.err("trailing characters"));
        }
        Ok(value)
    }

    /// Field `key` of an object (the first, if duplicated); `None` for
    /// a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }
}

/// Nesting depth [`Json::parse`] accepts before rejecting the input, so
/// adversarial `[[[[…` cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent state over the input bytes.
struct Reader<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let n = self.digits();
        if n == 0 || (n > 1 && self.s[int_start] == b'0') {
            return Err(self.err("malformed number"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return Err(self.err("malformed fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("malformed exponent"));
            }
        }
        // The grammar above admits only ASCII, so this slice is UTF-8.
        let text = std::str::from_utf8(&self.s[start..self.pos]).map_err(|_| self.err("number"))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .s
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("malformed \\u escape"))?;
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, &b| {
            acc * 16 + (b as char).to_digit(16).unwrap_or(0)
        }))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run in one go. It ends at an ASCII
            // quote or backslash, so the slice sits on char boundaries
            // of the (valid UTF-8) input.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.s[run..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            let c = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xd800..0xdc00).contains(&hi) {
                        // A high surrogate must pair with a low one.
                        if !self.s[self.pos..].starts_with(b"\\u") {
                            return Err(self.err("unpaired surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("unpaired surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                    char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
                }
                _ => return Err(self.err("unknown escape")),
            };
            out.push(c);
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if *n == n.trunc() {
                    // Keep a decimal point (or an exponent, from 1e16
                    // up) so consumers see a float.
                    write!(f, "{n:?}")
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        if v <= i64::MAX as u64 {
            Json::Int(v as i64)
        } else {
            Json::Num(v as f64)
        }
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(j.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(2.5f64).to_string(), "2.5");
        assert_eq!(Json::from(3.0f64).to_string(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn compact_structure() {
        let j = Json::obj(vec![
            ("a", Json::from(1u64)),
            ("b", Json::Arr(vec![Json::Null, Json::from(true)])),
        ]);
        assert_eq!(j.to_string(), "{\"a\":1,\"b\":[null,true]}");
    }

    #[test]
    fn pretty_round_trips_keys() {
        let j = Json::obj(vec![(
            "rows",
            Json::Arr(vec![Json::obj(vec![("x", Json::from(1u64))])]),
        )]);
        let p = j.pretty();
        assert!(p.contains("\"rows\": ["));
        assert!(p.ends_with("}\n"));
        assert!(p.contains("\"x\": 1"));
    }

    #[test]
    fn parses_what_it_writes() {
        let j = Json::obj(vec![
            ("s", Json::from("a\"b\\c\nd\u{1}é")),
            ("i", Json::Int(-7)),
            ("f", Json::Num(2.5)),
            ("whole", Json::Num(1e20)),
            (
                "rows",
                Json::Arr(vec![Json::Null, Json::Bool(false), Json::Obj(vec![])]),
            ),
        ]);
        assert_eq!(Json::parse(&j.pretty()), Ok(j.clone()));
        assert_eq!(Json::parse(&j.to_string()), Ok(j));
    }

    #[test]
    fn parse_reads_numbers_and_escapes() {
        assert_eq!(Json::parse(" 42 "), Ok(Json::Int(42)));
        assert_eq!(Json::parse("3.0"), Ok(Json::Num(3.0)));
        assert_eq!(Json::parse("-1e2"), Ok(Json::Num(-100.0)));
        // Past i64: still a number, as a float.
        assert_eq!(
            Json::parse("18446744073709551616"),
            Ok(Json::Num(18446744073709551616.0))
        );
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00\/""#),
            Ok(Json::from("é😀/"))
        );
        let j = Json::parse(r#"{"a": 1, "b": [2.5]}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "nul",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "-",
            "\"abc",
            "\"\\x\"",
            "\"\\ud800\"",
            "[1] 2",
            "{1: 2}",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn option_maps_to_null() {
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(7u64)).to_string(), "7");
    }
}
