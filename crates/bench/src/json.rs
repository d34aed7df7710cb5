//! A minimal JSON emitter *and reader* for machine-readable experiment
//! results.
//!
//! Deliberately hand-rolled: the sanctioned dependency set has no JSON
//! serializer, and the grammar needed here is tiny (objects, arrays,
//! strings, numbers, booleans). [`Json::parse`] is the reader
//! counterpart of [`Json::render`]: it accepts everything the writer
//! emits (round-trip safe) plus ordinary whitespace, and it is what the
//! perf harness and `scripts/verify.sh` use to validate
//! `BENCH_perf.json`.

use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (emitted without a fraction).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float (non-finite values become `null`).
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Array(Vec<Json>),
    /// Ordered object (insertion order preserved).
    Object(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// An empty object builder.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Parses a JSON document. Accepts the full output grammar of
    /// [`Json::render`]; integers without fraction/exponent parse as
    /// [`Json::Int`]/[`Json::UInt`], everything else numeric as
    /// [`Json::Float`]. Trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Field lookup on an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` on other variants.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// String contents; `None` on other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`; `None` on non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value; `None` on non-integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Boolean value; `None` on other variants.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The key/value fields of an object, in document order; `None` on
    /// other variants. The serve protocol walks this to reject
    /// requests carrying unknown keys instead of silently ignoring a
    /// typo'd field.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Adds a field to an object; panics on non-objects.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`Json::Object`].
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("set() on a non-object"),
        }
        self
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
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
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (UTF-8 passes through).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in the writer's output
                            // (it emits \u only for control chars); reject.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| ParseError {
                message: "invalid number".to_string(),
                offset: start,
            })
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Array(v)
    }
}

/// Serializes one [`grp_core::RunResult`] (plus its baseline-relative
/// metrics when `base` is given).
pub fn run_result_json(r: &grp_core::RunResult, base: Option<&grp_core::RunResult>) -> Json {
    let mut j = Json::object()
        .set("scheme", r.scheme.label())
        .set("cycles", r.cycles)
        .set("instructions", r.instructions)
        .set("ipc", r.ipc())
        .set("l2_demand_accesses", r.l2.demand_accesses)
        .set("l2_demand_misses", r.l2.demand_misses)
        .set("prefetches_issued", r.prefetches_issued)
        .set("useful_prefetches", r.l2.useful_prefetches)
        .set("late_prefetch_merges", r.late_prefetch_merges)
        .set("accuracy", r.accuracy())
        .set(
            "traffic_blocks",
            Json::object()
                .set("demand", r.traffic.demand_blocks)
                .set("prefetch", r.traffic.prefetch_blocks)
                .set("writeback", r.traffic.writeback_blocks)
                .set("total", r.traffic.total_blocks()),
        );
    if let Some(b) = base {
        j = j
            .set("speedup", r.speedup_vs(b))
            .set("coverage", r.coverage_vs(b))
            .set("traffic_normalized", r.traffic_vs(b));
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(7).render(), "7");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn nested_structures_render_in_order() {
        let j = Json::object()
            .set("name", "swim")
            .set("values", Json::Array(vec![Json::Int(1), Json::Int(2)]))
            .set("inner", Json::object().set("x", 1.25));
        assert_eq!(
            j.render(),
            r#"{"name":"swim","values":[1,2],"inner":{"x":1.25}}"#
        );
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn set_on_array_panics() {
        let _ = Json::Array(vec![]).set("k", 1i64);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
    }

    #[test]
    fn parse_strings_unescape() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd""#).unwrap(),
            Json::Str("a\"b\\c\nd".into())
        );
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn parse_nested_and_whitespace() {
        let j = Json::parse(r#" { "a" : [ 1 , 2.5 , null ] , "b" : { } } "#).unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(j.get("b"), Some(&Json::object()));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err(), "trailing garbage");
        assert!(Json::parse("\"unterminated").is_err());
        let e = Json::parse("[1, x]").unwrap_err();
        assert!(e.to_string().contains("byte 4"), "{e}");
    }

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::object()
            .set("name", "swim \"quoted\"\n")
            .set("count", 123u64)
            .set("neg", -5i64)
            .set("ratio", 1.25)
            .set("flag", true)
            .set("none", Json::Null)
            .set(
                "runs",
                Json::Array(vec![
                    Json::object().set("x", 1u64),
                    Json::object().set("x", 2u64),
                ]),
            );
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn accessors_on_wrong_variants_are_none() {
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Bool(true).as_f64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::UInt(9).as_f64(), Some(9.0));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::UInt(1).as_bool(), None);
        assert_eq!(Json::Array(vec![]).entries(), None);
    }

    #[test]
    fn object_entries_walk_in_document_order() {
        let j = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = j
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
    }
}
