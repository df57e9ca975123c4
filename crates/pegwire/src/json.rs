//! A minimal JSON value with parser and compact writer.
//!
//! The build environment has no registry access, so `serde_json` cannot be
//! used; this is the small subset the wire protocol needs. Numbers are
//! `f64` (every id this system serializes fits in the 53-bit exact range),
//! objects preserve insertion order, and the writer emits compact output
//! (no whitespace) so protocol lines are greppable as exact substrings like
//! `"ok":true`.
//!
//! Round-trip guarantee relied on by the serving tests: Rust's `{}`
//! formatting of an `f64` prints the shortest string that parses back to
//! the identical bits, and the parser reads numbers with `str::parse`,
//! so probabilities survive a protocol round trip bit-exactly.
//!
//! The writer is two functions, [`write_num`] and [`write_escaped`], over
//! any `fmt::Write`: `Display` for [`Json`] is built on them, and the
//! server writes its query replies straight into a `String` with them, so
//! a value and a streamed line cannot disagree on a byte.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered; duplicate keys keep the last value on
    /// lookup, mirroring common parsers).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (`None` for other variants or absence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as a non-negative integer (rejects fractions,
    /// negatives, and values past the `f64`-exact range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Maximum container nesting accepted by [`Json::parse`]. The parser
    /// is recursive-descent, so unbounded depth would let one crafted
    /// line (e.g. 200k `[`s, well under the server's line cap) overflow
    /// the handler thread's stack and abort the whole process.
    pub const MAX_DEPTH: usize = 128;

    /// Parses one JSON document, requiring it to span the whole input.
    /// Container nesting beyond [`Json::MAX_DEPTH`] is rejected.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

/// Ergonomic object construction: `obj().field("ok", true).build()`.
#[derive(Default)]
pub struct ObjBuilder(Vec<(String, Json)>);

/// Starts an [`ObjBuilder`].
pub fn obj() -> ObjBuilder {
    ObjBuilder::default()
}

impl ObjBuilder {
    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Appends a field only when the value is present.
    pub fn field_opt(self, key: &str, value: Option<impl Into<Json>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Parse failure with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), at: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { message: format!("bad number '{text}'"), at: start })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let code =
                                    0x10000 + (((hi - 0xD800) as u32) << 10) + (lo - 0xDC00) as u32;
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("bad \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or control
                    // byte: those are ASCII and the input is a valid &str, so
                    // the run starts and ends on char boundaries.
                    let rest = &self.bytes[self.pos..];
                    let len = find_special(rest).unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]);
                    out.push_str(run.map_err(|_| self.err("invalid utf-8"))?);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Exactly four hex digits: `from_str_radix` would also take a sign.
        let mut v = 0u16;
        for &d in digits {
            let digit = (d as char).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
            v = v << 4 | digit as u16;
        }
        self.pos += 4;
        Ok(v)
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > Json::MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Offset of the first byte a JSON string cannot hold as itself: `"`, `\`
/// or a control byte. Whole 64-byte blocks are tested without an early
/// exit, which the compiler turns into vector compares; only a block that
/// holds one is searched for where.
fn find_special(bytes: &[u8]) -> Option<usize> {
    let special = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
    let mut at = 0;
    for block in bytes.chunks(64) {
        if block.iter().fold(false, |hit, &b| hit | special(b)) {
            return block.iter().position(|&b| special(b)).map(|i| at + i);
        }
        at += block.len();
    }
    None
}

/// Writes `n` as every protocol number is written: an integer in the
/// `f64`-exact range as one, anything else in Rust's shortest `{}` form
/// (which parses back to the identical bits), a non-finite value as
/// `null` (JSON has no representation for it). [`Json`]'s `Display` and
/// the server's streamed replies both write through here, so the bytes of
/// a number cannot depend on which of them wrote it.
pub fn write_num<W: fmt::Write>(w: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        w.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 && !(n == 0.0 && n.is_sign_negative()) {
        // The integer fast path must skip -0.0: `0` would parse back as
        // +0.0, breaking the bit-exact round trip ("-0" keeps it).
        write!(w, "{}", n as i64)
    } else {
        write!(w, "{n}")
    }
}

/// Writes `s` quoted — the one escaper, for values and keys alike. Only
/// `"`, `\` and control bytes need escaping, all ASCII, so everything
/// between two of them — multi-byte characters included — is copied with
/// one `write_str`, as the parser's `string()` reads it: a long payload
/// costs a scan and a copy, not a formatter call per character.
pub fn write_escaped<W: fmt::Write>(w: &mut W, s: &str) -> fmt::Result {
    w.write_str("\"")?;
    let mut rest = s;
    while let Some(at) = find_special(rest.as_bytes()) {
        w.write_str(&rest[..at])?;
        match rest.as_bytes()[at] {
            b'"' => w.write_str("\\\"")?,
            b'\\' => w.write_str("\\\\")?,
            b'\n' => w.write_str("\\n")?,
            b'\r' => w.write_str("\\r")?,
            b'\t' => w.write_str("\\t")?,
            b => write!(w, "\\u{b:04x}")?,
        }
        rest = &rest[at + 1..];
    }
    w.write_str(rest)?;
    w.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact serialization (no whitespace), every number through
    /// [`write_num`] and every string and key through [`write_escaped`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse(r#""a\"b\n""#).unwrap(), Json::Str("a\"b\n".into()));
        assert_eq!(Json::parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        assert_eq!(Json::parse(r#""\u0041\u00E9""#).unwrap(), Json::Str("Aé".into()));
        let v = Json::parse(r#"{"a":[1,2,{"b":false}],"c":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", r#"{"a"}"#, "tru", "1 2", r#""unterminated"#, "{\"a\":}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // `\u` takes exactly four hex digits: no sign, no blank, no short form.
        for bad in [r#""\u+041""#, r#""\u 041""#, r#""\u004""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[1, oops]").unwrap_err();
        assert!(err.at >= 4, "position recorded: {err}");
    }

    #[test]
    fn writer_is_compact_and_round_trips() {
        let v = obj()
            .field("ok", true)
            .field("n", 3usize)
            .field("p", 0.1f64 + 0.2f64)
            .field("s", "he said \"hi\"\n")
            .field("items", vec![Json::Num(1.0), Json::Null])
            .build();
        let text = v.to_string();
        assert!(text.starts_with(r#"{"ok":true,"n":3,"#), "{text}");
        assert!(!text.contains(": "), "compact output: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    /// The writer `write_escaped` replaced: one formatter call per `char`.
    fn escaped_char_by_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out + "\""
    }

    #[test]
    fn write_escaped_copies_runs_and_escapes_what_sits_between_them() {
        // Every byte class: plain runs, the two quoted escapes, the three
        // named controls, other controls, DEL (not a control to JSON), and
        // multi-byte characters touching an escape on either side.
        let sample = "plain run\"q\\b\n\r\t\u{1}\u{1f}é\"ü\\😀\u{8}\u{7f} tail";
        assert_eq!(
            Json::Str(sample.into()).to_string(),
            "\"plain run\\\"q\\\\b\\n\\r\\t\\u0001\\u001fé\\\"ü\\\\😀\\u0008\u{7f} tail\""
        );
        let all_ascii: String = (0..=0x7Fu8).map(char::from).collect();
        for s in [sample, "", "\"", "\\\\", "\n", "no escapes at all", "é", "\"é\"", &all_ascii] {
            let text = Json::Str(s.into()).to_string();
            assert_eq!(text, escaped_char_by_char(s), "{s:?}");
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()), "{s:?}");
        }
        // Object keys go through the same writer.
        let keyed = obj().field("k\"\n", 1usize).build();
        assert_eq!(keyed.to_string(), "{\"k\\\"\\n\":1}");
        assert_eq!(Json::parse(&keyed.to_string()).unwrap(), keyed);
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 0.7357912, 1e-12, 123456789.12345679, f64::MIN_POSITIVE, -0.0] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // A deep-but-legal document parses...
        let deep = format!("{}1{}", "[".repeat(Json::MAX_DEPTH), "]".repeat(Json::MAX_DEPTH));
        assert!(Json::parse(&deep).is_ok());
        // ...and one bracket past the limit is rejected, not recursed —
        // with no limit, ~200k brackets would overflow the handler
        // thread's stack and abort the whole server process.
        let over =
            format!("{}1{}", "[".repeat(Json::MAX_DEPTH + 1), "]".repeat(Json::MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
        let bomb = "[".repeat(200_000);
        assert!(Json::parse(&bomb).is_err());
        // Mixed containers count the same.
        let mixed = "{\"a\":".repeat(Json::MAX_DEPTH + 1) + "1" + &"}".repeat(Json::MAX_DEPTH + 1);
        assert!(Json::parse(&mixed).is_err());
        // Depth resets between siblings: wide-but-shallow stays fine.
        let wide = format!("[{}1]", "[1],".repeat(10_000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn integer_accessors_validate() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_usize(), Some(7));
    }
}
