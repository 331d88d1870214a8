//! JSON encoding and decoding — the subset of `serde_json` this workspace
//! uses.
//!
//! Every formatting rule lives in one [`Writer`] and every parsing rule in
//! one [`Reader`].  [`Serialize::write_json`] and
//! [`Deserialize::read_json`] drive them: `#[derive]`d types write and read
//! their fields in one pass, with no [`Value`] tree in between, while
//! hand-written impls and [`Value`] itself go through a tree by default.
//! Both paths produce the same bytes and accept the same documents.

use crate::{Deserialize, Error, Serialize, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::new(false);
    value.write_json(&mut w);
    w.out
}

/// Serialize a value to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::new(true);
    value.write_json(&mut w);
    w.out
}

/// Deserialize a value from a JSON string.  Text after the value, other
/// than whitespace, is an error.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = T::read_json(&mut r)?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Deepest array/object nesting the [`Reader`] accepts, counted over the
/// whole document, skipped values included.  The reader spends stack frames
/// per level, so without a bound a few hundred kilobytes of `[` would
/// overflow the stack; every document this workspace writes nests fewer
/// than ten levels.
const MAX_DEPTH: usize = 128;

/// Parse a JSON string into a [`Value`].  Arrays and objects nested more
/// than 128 levels deep are a parse error.
pub fn parse(s: &str) -> Result<Value, Error> {
    from_str(s)
}

/// The JSON output of one document.
///
/// Scalars are written as they come; arrays and objects are opened, given
/// their elements or fields, and closed.  The writer places every
/// separator, and in pretty mode every newline and two-space indent, so
/// each formatting rule is written once: integers in decimal, finite
/// floats in their shortest round-trip form (`{:?}`), non-finite floats as
/// `null`, and strings with `"`, `\`, newline, carriage return and tab
/// escaped by name and every other control character as `\u00XX`.  An
/// empty array or object is written `[]` or `{}` in both modes.
pub struct Writer {
    out: String,
    pretty: bool,
    /// Arrays and objects currently open.
    depth: usize,
    /// Whether the innermost open array or object has no element yet.
    empty: bool,
}

impl Writer {
    fn new(pretty: bool) -> Writer {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
            empty: true,
        }
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Write an unsigned integer.
    pub fn uint(&mut self, n: u64) {
        let _ = write!(self.out, "{n}");
    }

    /// Write a signed integer.
    pub fn int(&mut self, n: i64) {
        let _ = write!(self.out, "{n}");
    }

    /// Write a float: its shortest round-trip form, or `null` when it is
    /// not finite.
    pub fn float(&mut self, f: f64) {
        if f.is_finite() {
            let _ = write!(self.out, "{f:?}");
        } else {
            self.null();
        }
    }

    /// Write a string, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        // Copy the runs between bytes that need an escape in one step.
        // Every such byte is ASCII, which never occurs inside a multi-byte
        // UTF-8 sequence, so each run ends on a character boundary.
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Open an array; give it elements with [`Writer::element`], then
    /// close it with [`Writer::end_seq`].
    pub fn begin_seq(&mut self) {
        self.open('[');
    }

    /// Write one element of the open array.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.next_item();
        value.write_json(self);
    }

    /// Close the innermost open array.
    pub fn end_seq(&mut self) {
        self.close(']');
    }

    /// Write `items` as an array.
    pub fn seq<'t, T: Serialize + 't>(&mut self, items: impl IntoIterator<Item = &'t T>) {
        self.begin_seq();
        for item in items {
            self.element(item);
        }
        self.end_seq();
    }

    /// Open an object; give it fields with [`Writer::field`], then close
    /// it with [`Writer::end_map`].
    pub fn begin_map(&mut self) {
        self.open('{');
    }

    /// Write one `key: value` field of the open object.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// Write the key of the open object's next field; the next value
    /// written is that field's value.
    pub fn key(&mut self, key: &str) {
        self.next_item();
        self.str(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Close the innermost open object.
    pub fn end_map(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    /// The separator before an element or field: a comma after the first,
    /// and in pretty mode a newline indented to the current depth.
    fn next_item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.line_break();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.line_break();
        }
        // The enclosing container holds at least this one.
        self.empty = false;
        self.out.push(bracket);
    }

    fn line_break(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }
}

/// A cursor over one JSON document.
///
/// [`Reader::value`] parses the next value into a [`Value`] tree; the
/// other methods let a type read its own shape in place: objects with
/// [`Reader::map`], arrays with [`Reader::seq`], externally tagged enums
/// with [`Reader::variant`], and anything to discard with
/// [`Reader::skip`].  Every method skips the whitespace before its value,
/// and nesting counts toward one 128-level bound whichever method opens
/// it.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
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

    fn expected(&self, what: &str) -> Error {
        Error::custom(format!("expected {what} at byte {}", self.pos))
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Parse the next value into a tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(|s| Value::Str(s.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq("sequence", |r, _| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Seq(items))
            }
            Some(b'{') => {
                let mut entries = Vec::new();
                self.map("map", |r, key| {
                    entries.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Map(entries))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    /// Parse the next value and drop it.  It must be valid, exactly as
    /// [`Reader::value`] would accept it.
    pub fn skip(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }

    /// Whether the next value is `null`, consuming it if so.
    pub fn null(&mut self) -> bool {
        self.skip_ws();
        self.eat_literal("null")
    }

    /// Read an object, calling `entry` with each key in document order;
    /// `entry` must read or [`skip`](Reader::skip) that key's value.
    /// `what` names the expected shape in the error when the next value is
    /// not an object.
    pub fn map(
        &mut self,
        what: &str,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.expected(what));
        }
        self.nested(|r| {
            r.pos += 1;
            r.skip_ws();
            if r.peek() == Some(b'}') {
                r.pos += 1;
                return Ok(());
            }
            loop {
                r.skip_ws();
                let key = r.string()?;
                r.skip_ws();
                r.expect(b':')?;
                entry(r, key)?;
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b'}') => {
                        r.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(Error::custom("expected `,` or `}` in map")),
                }
            }
        })
    }

    /// Read an array, calling `element` with each element's index; it must
    /// read or [`skip`](Reader::skip) that element.  `what` names the
    /// expected shape in the error when the next value is not an array.
    pub fn seq(
        &mut self,
        what: &str,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return Err(self.expected(what));
        }
        self.nested(|r| {
            r.pos += 1;
            r.skip_ws();
            if r.peek() == Some(b']') {
                r.pos += 1;
                return Ok(());
            }
            let mut index = 0;
            loop {
                element(r, index)?;
                index += 1;
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b']') => {
                        r.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(Error::custom("expected `,` or `]` in sequence")),
                }
            }
        })
    }

    /// Read an externally tagged enum: a unit variant as its name
    /// (`unit(name)`), or a data variant as an object of exactly one key,
    /// its name, whose value `data(reader, name)` reads.  `what` names the
    /// enum in the error for any other shape.
    pub fn variant<T>(
        &mut self,
        what: &str,
        unit: impl FnOnce(&str) -> Result<T, Error>,
        data: impl FnOnce(&mut Self, &str) -> Result<T, Error>,
    ) -> Result<T, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                let name = self.string()?;
                unit(&name)
            }
            Some(b'{') => self.nested(|r| {
                r.pos += 1;
                r.skip_ws();
                if r.peek() == Some(b'}') {
                    return Err(r.expected(what));
                }
                let tag = r.string()?;
                r.skip_ws();
                r.expect(b':')?;
                let value = data(r, &tag)?;
                r.skip_ws();
                if r.peek() != Some(b'}') {
                    return Err(r.expected(what));
                }
                r.pos += 1;
                Ok(value)
            }),
            _ => Err(self.expected(what)),
        }
    }

    /// Read one array or object with `compound`, one level deeper.
    fn nested<T>(
        &mut self,
        compound: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
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

    /// A string, borrowed from the document when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
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
            let text: &'a str = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| Error::custom("invalid UTF-8 in string"))?;
            if out.is_empty() {
                out = Cow::Borrowed(text);
            } else {
                out.to_mut().push_str(text);
            }
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
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(Error::custom("unknown escape sequence")),
                    };
                    out.to_mut().push(c);
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
mod tests;
