//! JSON encoding and decoding over the [`Value`] data model —
//! the subset of `serde_json` this workspace uses.

use crate::{Deserialize, Error, Serialize, Value};
use std::fmt::Write as _;

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    out
}

/// Serialize a value to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    out
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// Deepest array/object nesting [`parse`] accepts.  The parser spends one
/// stack frame per level, so without a bound a few hundred kilobytes of `[`
/// would overflow the stack; every document this workspace writes nests
/// fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Parse a JSON string into a [`Value`].  Arrays and objects nested more
/// than 128 levels deep are a parse error.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` prints the shortest representation that round-trips.
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_compound(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Map(entries) => {
            write_compound(out, indent, depth, '{', '}', entries.len(), |out, i| {
                write_string(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, depth + 1);
            })
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    /// Parse one array or object with `compound`, one level deeper.
    fn nested(&mut self, compound: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = compound(self);
        self.depth -= 1;
        value
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::custom("expected `,` or `]` in sequence")),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::custom("expected `,` or `}` in map")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or backslash
            // in one step.  The input is a `&str`, and both stop bytes are
            // ASCII, which never occurs inside a multi-byte UTF-8 sequence,
            // so every run starts and ends on a character boundary.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| Error::custom("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a backslash.
                Some(_) => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(Error::custom("unknown escape sequence")),
                    }
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` has been consumed: one
    /// BMP code unit, or a UTF-16 surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let unpaired = || Error::custom("unpaired surrogate in \\u escape");
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                    return Err(unpaired());
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(unpaired());
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(unpaired()),
            unit => unit,
        };
        char::from_u32(code).ok_or_else(|| Error::custom("invalid \\u code point"))
    }

    /// Exactly four hex digits, as one UTF-16 code unit.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let mut unit = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| Error::custom("invalid \\u escape"))?;
            unit = unit * 16 + digit;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "12", "-7", "1.5", "\"hi\\n\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&to_string(&v)).unwrap(), v);
        }
    }

    #[test]
    fn nested_round_trip() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": "x\"y"}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok(), "the limit itself parses");
        let mixed = r#"{"a":"#.repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse(&mixed).is_ok(), "objects count toward the same limit");
        let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level past the limit");
        assert!(err.to_string().contains("nesting"), "{err}");
        // Far past the limit is refused the same way, not a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        let f = 0.123_456_789_012_345_68_f64;
        let v = Value::Float(f);
        match parse(&to_string(&v)).unwrap() {
            Value::Float(g) => assert_eq!(f, g),
            other => panic!("expected float, got {other:?}"),
        }
    }

    fn string(text: &str) -> Result<String, Error> {
        match parse(text)? {
            Value::Str(s) => Ok(s),
            other => panic!("expected a string, got {other:?}"),
        }
    }

    #[test]
    fn runs_keep_multi_byte_characters_whole() {
        for plain in ["µops", "café", "rocket 🚀 launch", "ü€🚀x", "🚀"] {
            let text = format!("\"{plain}\"");
            assert_eq!(string(&text).unwrap(), plain);
            // The same characters split by escapes on either side of a run.
            let escaped = format!("\"\\t{plain}\\n{plain}\\\"\"");
            assert_eq!(string(&escaped).unwrap(), format!("\t{plain}\n{plain}\""));
        }
    }

    #[test]
    fn escapes_directly_around_runs() {
        assert_eq!(string(r#""\nabc""#).unwrap(), "\nabc");
        assert_eq!(string(r#""abc\n""#).unwrap(), "abc\n");
        assert_eq!(string(r#""\\\"""#).unwrap(), "\\\"");
        assert_eq!(string(r#""a\/b\u0041c""#).unwrap(), "a/bAc");
        assert_eq!(string(r#""""#).unwrap(), "");
    }

    #[test]
    fn unterminated_strings_keep_their_error() {
        for text in ["\"abc", "\"µ🚀é", "\"a\\nb", "{\"key", "[\"abc\\\"def"] {
            let err = parse(text).expect_err(text);
            assert!(
                err.to_string().contains("unterminated string"),
                "{text}: {err}"
            );
        }
        let err = parse("\"abc\\").expect_err("dangling backslash");
        assert!(err.to_string().contains("unterminated escape"), "{err}");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(string(r#""\ud83d\ude80""#).unwrap(), "🚀");
        assert_eq!(string(r#""a\uD83D\uDE80b""#).unwrap(), "a🚀b");
        // The largest code point, U+10FFFF.
        assert_eq!(string(r#""\udbff\udfff""#).unwrap(), "\u{10FFFF}");
        // A non-BMP character survives the writer (which emits it raw) and
        // the parser both ways.
        let v = Value::Str("🚀".to_string());
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn lone_surrogates_are_refused() {
        for text in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude80""#,
            r#""\ude80\ud83d""#,
        ] {
            let err = parse(text).expect_err(text);
            assert!(err.to_string().contains("surrogate"), "{text}: {err}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(string(r#""\u0041""#).unwrap(), "A");
        assert_eq!(string(r#""\u00e9\u00E9""#).unwrap(), "éé");
        assert_eq!(string(r#""\u00411""#).unwrap(), "A1");
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004g""#,
            r#""\u00µ""#,
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.to_string().contains("invalid \\u escape"),
                "{text}: {err}"
            );
        }
        let err = parse(r#""\u004""#).expect_err("three digits, then the quote");
        assert!(err.to_string().contains("escape"), "{err}");
        let err = parse(r#""\u00"#).expect_err("input ends inside the escape");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    /// Decoding is linear in the input.  Each size is four times the last;
    /// a decoder that re-scans the rest of the document per character takes
    /// 16 times longer per step and blows the bound within the ladder.
    #[test]
    fn decoding_time_is_linear_in_document_size() {
        let bound = std::time::Duration::from_secs(2);
        let timed = |text: &str| {
            let start = std::time::Instant::now();
            let value = parse(text).expect("valid document");
            (start.elapsed(), value)
        };
        for kib in [64, 256, 1024, 4096] {
            let text = format!("\"{}\"", "aµ".repeat(kib * 1024 / 3));
            let (elapsed, value) = timed(&text);
            assert!(elapsed < bound, "a {kib} KiB string took {elapsed:?}");
            assert!(matches!(value, Value::Str(s) if s.len() == text.len() - 2));
        }
        for keys in [1_000, 10_000, 100_000] {
            let body: Vec<String> = (0..keys).map(|i| format!("\"k{i:06}\":{i}")).collect();
            let text = format!("{{{}}}", body.join(","));
            let (elapsed, value) = timed(&text);
            assert!(elapsed < bound, "{keys} keys took {elapsed:?}");
            assert!(matches!(value, Value::Map(m) if m.len() == keys));
        }
    }
}
