//! JSON, both directions, dependency-free: the string escaper, a minimal
//! [`Writer`] that owns commas, quoting and layout, and a strict parser
//! ([`parse`]) with path accessors. `/status`, `/trace`, the profiler's
//! report and every `tf-bench` report file are written by the one; the
//! gates and tests that read them back use the other.

use std::fmt::{Display, Write as _};

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// `"` and `\` are backslash-escaped, control characters become
/// `\n`/`\r`/`\t` or `\u00XX`; everything else (non-BMP scalars included)
/// goes out as itself.
fn escape_into(out: &mut String, s: &str) {
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

/// How many levels of a pretty document put one member per line.
const BLOCK_DEPTH: usize = 2;

/// An open container of a [`Writer`].
struct Open {
    close: char,
    /// One member per line (pretty layout, shallow nesting) or all on one.
    block: bool,
    has_members: bool,
}

/// Writes one JSON document front to back. The caller names keys and
/// values in order; the writer places every comma, quote and colon, and
/// escapes every string.
///
/// Two layouts. [`Writer::compact`] emits no whitespace at all (the live
/// endpoints). [`Writer::pretty`] is for files people read and diff:
/// the document and the containers directly inside it put one member per
/// line, indented by two spaces, and deeper ones stay on one line with
/// `", "` and `": "` separators, so a report is a column of one-line rows.
///
/// ```
/// use rustflow::wire::json::{parse, Writer};
/// let mut w = Writer::compact();
/// w.begin_object();
/// w.field_str("name", "a\"b");
/// w.key("runs");
/// w.begin_array();
/// w.value(1);
/// w.value(2.5);
/// w.end();
/// w.end();
/// let text = w.finish();
/// assert_eq!(text, r#"{"name":"a\"b","runs":[1,2.5]}"#);
/// assert_eq!(parse(&text).unwrap().get("name").unwrap().as_str(), Some("a\"b"));
/// ```
pub struct Writer {
    out: String,
    pretty: bool,
    open: Vec<Open>,
    /// A key was just written; the next element is its value.
    after_key: bool,
}

impl Writer {
    /// A writer that emits no whitespace.
    pub fn compact() -> Writer {
        Writer {
            out: String::new(),
            pretty: false,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// A writer with the pretty layout (see the type docs); the document
    /// ends in a newline.
    pub fn pretty() -> Writer {
        Writer {
            pretty: true,
            ..Writer::compact()
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }

    /// Everything that precedes an element (a key, or a value that is not
    /// a key's): the comma after its elder sibling and the layout's
    /// whitespace.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        let Some(parent) = self.open.last_mut() else {
            return;
        };
        let block = parent.block;
        let first = !std::mem::replace(&mut parent.has_members, true);
        if !first {
            self.out.push(',');
        }
        if block {
            self.newline(depth);
        } else if !first && self.pretty {
            self.out.push(' ');
        }
    }

    fn begin(&mut self, open: char, close: char) {
        self.separate();
        self.out.push(open);
        self.open.push(Open {
            close,
            block: self.pretty && self.open.len() < BLOCK_DEPTH,
            has_members: false,
        });
    }

    /// Opens an object; [`end`](Writer::end) closes it.
    pub fn begin_object(&mut self) {
        self.begin('{', '}');
    }

    /// Opens an array; [`end`](Writer::end) closes it.
    pub fn begin_array(&mut self) {
        self.begin('[', ']');
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) {
        let closed = self.open.pop().expect("end() without a begin");
        if closed.block && closed.has_members {
            self.newline(self.open.len());
        }
        self.out.push(closed.close);
    }

    /// The key of the next value, inside an object.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str(if self.pretty { "\": " } else { "\":" });
        self.after_key = true;
    }

    /// A value whose `Display` form is JSON already: a number, a `bool`,
    /// `"null"`, or `format_args!("{:.3}", x)` for a rounded float.
    pub fn value(&mut self, value: impl Display) {
        self.separate();
        let _ = write!(self.out, "{value}");
    }

    /// A string value, escaped.
    pub fn string(&mut self, value: &str) {
        self.separate();
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
    }

    /// A document some other writer finished, embedded as one value and
    /// re-indented to sit at this depth.
    pub fn document(&mut self, document: &str) {
        self.separate();
        let pad = format!("\n{}", "  ".repeat(self.open.len()));
        self.out.push_str(&document.trim_end().replace('\n', &pad));
    }

    /// `key` and a [`value`](Writer::value).
    pub fn field(&mut self, key: &str, value: impl Display) {
        self.key(key);
        self.value(value);
    }

    /// `key` and a [`string`](Writer::string).
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.string(value);
    }

    /// The finished document. Panics if a container is still open.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "finish() with an open container");
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }
}

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(items) => items.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value `path` leads to, one object member per step.
    pub fn at(&self, path: &[&str]) -> Option<&Value> {
        path.iter().try_fold(self, |value, key| value.get(key))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value truncated to `u64`, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `s` as one strict JSON document.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => obj(b, i),
        Some(b'[') => arr(b, i),
        Some(b'"') => Ok(Value::Str(string(b, i)?)),
        Some(b't') => lit(b, i, "true", Value::Bool(true)),
        Some(b'f') => lit(b, i, "false", Value::Bool(false)),
        Some(b'n') => lit(b, i, "null", Value::Null),
        Some(_) => num(b, i),
        None => Err("unexpected end".into()),
    }
}

fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at {i}"))
    }
}

fn num(b: &[u8], i: &mut usize) -> Result<Value, String> {
    let start = *i;
    while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *i += 1;
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at {start}"))
}

fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at {i}"));
    }
    *i += 1;
    let mut out = String::new();
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .ok_or("bad \\u")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u".to_string())?;
                        out.push(char::from_u32(code).ok_or("bad codepoint")?);
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at {i}")),
                }
                *i += 1;
            }
            c if c < 0x20 => return Err(format!("raw control char at {i}")),
            _ => {
                // Consume one UTF-8 scalar.
                let s = std::str::from_utf8(&b[*i..]).map_err(|_| "bad utf8".to_string())?;
                let ch = s.chars().next().ok_or("end")?;
                out.push(ch);
                *i += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

fn arr(b: &[u8], i: &mut usize) -> Result<Value, String> {
    *i += 1; // [
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(value(b, i)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected , or ] at {i}")),
        }
    }
}

fn obj(b: &[u8], i: &mut usize) -> Result<Value, String> {
    *i += 1; // {
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Value::Obj(items));
    }
    loop {
        skip_ws(b, i);
        let key = string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected : at {i}"));
        }
        *i += 1;
        items.push((key, value(b, i)?));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Value::Obj(items));
            }
            _ => return Err(format!("expected , or }} at {i}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_navigates() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("x"));
        assert_eq!(v.at(&["b", "c"]), Some(&Value::Bool(true)));
        assert_eq!(v.at(&["b", "missing", "c"]), None);
        assert_eq!(v.get("missing"), None);
    }

    proptest::proptest! {
        /// Any string the writer emits, as a key or as a value, in either
        /// layout, parses back equal.
        #[test]
        fn any_string_round_trips(key in crate::wire::hostile_string(),
                                  value in crate::wire::hostile_string(),
                                  pretty in 0usize..2) {
            let mut w = if pretty == 1 { Writer::pretty() } else { Writer::compact() };
            w.begin_object();
            w.field_str(&key, &value);
            w.key("rest");
            w.begin_array();
            w.string(&value);
            w.value(7);
            w.end();
            w.end();
            let text = w.finish();
            let doc = parse(&text).map_err(proptest::TestCaseError::fail)?;
            proptest::prop_assert_eq!(doc.get(&key).and_then(Value::as_str), Some(value.as_str()));
            let rest = doc.get("rest").and_then(Value::as_arr).unwrap_or(&[]);
            proptest::prop_assert_eq!(rest.first().and_then(Value::as_str), Some(value.as_str()));
        }
    }

    #[test]
    fn layouts_place_every_comma_and_indent() {
        let write = |mut w: Writer| {
            w.begin_object();
            w.field("schema", 1);
            w.key("rows");
            w.begin_array();
            for name in ["a", "b"] {
                w.begin_object();
                w.field_str("name", name);
                w.field("ms", format_args!("{:.1}", 2.25));
                w.end();
            }
            w.end();
            w.key("empty");
            w.begin_array();
            w.end();
            w.end();
            w.finish()
        };
        assert_eq!(
            write(Writer::compact()),
            r#"{"schema":1,"rows":[{"name":"a","ms":2.2},{"name":"b","ms":2.2}],"empty":[]}"#
        );
        assert_eq!(
            write(Writer::pretty()),
            "{\n  \"schema\": 1,\n  \"rows\": [\n    {\"name\": \"a\", \"ms\": 2.2},\n    \
             {\"name\": \"b\", \"ms\": 2.2}\n  ],\n  \"empty\": []\n}\n"
        );
        // An embedded document is re-indented to its new depth.
        let mut outer = Writer::pretty();
        outer.begin_object();
        outer.key("inner");
        outer.document("{\n  \"x\": 1\n}\n");
        outer.end();
        assert_eq!(outer.finish(), "{\n  \"inner\": {\n    \"x\": 1\n  }\n}\n");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        // A truncated document is an error wherever it was cut, never a panic.
        let whole = r#"{"key": ["\u00e9\n", true, null, -1.5e3]}"#;
        assert!(parse(whole).is_ok());
        for cut in 0..whole.len() {
            assert!(
                parse(&whole[..cut]).is_err(),
                "accepted {:?}",
                &whole[..cut]
            );
        }
    }
}
