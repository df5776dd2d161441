//! A minimal JSON value: writer + parser, no external dependencies.
//!
//! The experiments emit their aggregated results as JSON so downstream
//! tooling and the CI smoke gate can consume them without scraping
//! markdown, and the smoke gate reads its reference file back through
//! [`Json::parse`]. The workspace builds
//! fully offline, so this stays hand-rolled instead of pulling in
//! serde.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the experiment payloads are ratios
    /// and counters that fit comfortably).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj<I>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (String, Json)>,
    {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the document compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline — the format checked-in reference files use.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                write_str(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, ind);
            }),
        }
    }

    /// Parses a JSON document. Returns a message with a byte offset on
    /// malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn write_seq<F>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    n: usize,
    mut f: F,
) where
    F: FnMut(&mut String, usize, Option<usize>),
{
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        f(out, i, inner);
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    expect(bytes, pos, ",")?;
                }
                items.push(parse_value(bytes, pos)?);
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                if !pairs.is_empty() {
                    expect(bytes, pos, ",")?;
                    skip_ws(bytes, pos);
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && (bytes[*pos].is_ascii_digit()
                    || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
            text.parse()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
        }
        Some(c) => Err(format!(
            "unexpected byte `{}` at {pos}",
            *c as char,
            pos = *pos
        )),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let doc = Json::obj([
            ("name".into(), Json::Str("fig9".into())),
            ("cores".into(), Json::Num(8.0)),
            ("ok".into(), Json::Bool(true)),
            (
                "rows".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(1.272)]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            r#"{"name":"fig9","cores":8,"ok":true,"rows":[1,1.272]}"#
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn roundtrip_pretty() {
        let doc = Json::obj([
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Arr(vec![])),
            ("c".into(), Json::Null),
        ]);
        let text = doc.render_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn escapes_roundtrip() {
        let doc = Json::Str("a \"quote\"\nand \\ tab\t".into());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"geomeans": {"PMEM-Spec": 1.27}, "seeds": 1}"#).unwrap();
        let g = doc.get("geomeans").unwrap();
        assert_eq!(g.get("PMEM-Spec").unwrap().as_f64(), Some(1.27));
        assert_eq!(doc.get("seeds").unwrap().as_f64(), Some(1.0));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn negative_and_exponent_numbers() {
        assert_eq!(Json::parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"abc", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
