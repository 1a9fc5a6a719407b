//! Zero-dependency JSON for the observability layer: a validation-grade
//! parser (the trace-schema validator below, `lpatc remote top` reading
//! `lpat-serve-stats/v2` documents, tests) and the one serializer behind
//! every stats/metrics JSON document in the workspace (daemon stats,
//! `--metrics-out`, lpbench rows).

use std::fmt::Write as _;

pub(super) fn escape_json(s: &str, out: &mut String) {
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

/// A parsed JSON value — validation-grade (numbers are `f64`, object
/// field order is preserved but not deduplicated).
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false` (the value itself is not retained).
    Bool,
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field `key` of an object (`None` for other shapes / missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric field `key` of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// String field `key` of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The object's fields, in document order (empty for other shapes).
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields.as_slice(),
            _ => &[],
        }
    }
}

/// Parse a complete JSON document (rejects trailing data).
///
/// # Errors
///
/// A human-readable message with the byte offset of the first error.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool),
            Some(b'f') => self.literal("false", Json::Bool),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
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
                            if self.pos + 4 >= self.s.len() {
                                return Err(self.err("bad \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.s[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.s[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
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

    fn object(&mut self) -> Result<Json, String> {
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
            let val = self.value()?;
            fields.push((key, val));
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
}

/// Validate `json` against the Chrome trace-event shape: a root object
/// with a `traceEvents` array whose elements carry `name`/`ph`/`ts`/
/// `pid`/`tid` (and `dur` for phase `"X"`). Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let root = parse_json(json)?;
    let events = match root.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        Some(_) => return Err("traceEvents is not an array".into()),
        None => return Err("missing traceEvents".into()),
    };
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| Err(format!("traceEvents[{i}]: {msg}"));
        if !matches!(ev, Json::Obj(_)) {
            return fail("not an object");
        }
        match ev.get("name") {
            Some(Json::Str(_)) => {}
            _ => return fail("missing string 'name'"),
        }
        let ph = match ev.get("ph") {
            Some(Json::Str(s)) => s.as_str(),
            _ => return fail("missing string 'ph'"),
        };
        for key in ["ts", "pid", "tid"] {
            match ev.get(key) {
                Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => {}
                _ => return fail(&format!("missing non-negative numeric '{key}'")),
            }
        }
        match ph {
            "X" => match ev.get("dur") {
                Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => {}
                _ => return fail("phase 'X' missing numeric 'dur'"),
            },
            "i" | "C" | "M" => {}
            other => return fail(&format!("unexpected phase {other:?}")),
        }
        if ph == "C" {
            match ev.get("args") {
                Some(Json::Obj(fields))
                    if fields.iter().any(|(_, v)| matches!(v, Json::Num(_))) => {}
                _ => return fail("phase 'C' needs an args object with a numeric value"),
            }
        }
    }
    Ok(events.len())
}

/// A minimal zero-dependency JSON writer with correct escaping and comma
/// placement. Objects are written with `field_*` methods, arrays with
/// `value_*` methods; nesting via `begin_*`/`end_*`. The caller is
/// responsible for balanced begin/end calls — this is a serializer for
/// code-shaped documents, not a general-purpose emitter.
pub struct JsonWriter {
    out: String,
    comma: Vec<bool>,
}

impl Default for JsonWriter {
    fn default() -> JsonWriter {
        JsonWriter::new()
    }
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            comma: vec![false],
        }
    }

    fn sep(&mut self) {
        if let Some(c) = self.comma.last_mut() {
            if *c {
                self.out.push(',');
            }
            *c = true;
        }
    }

    fn key(&mut self, k: &str) {
        self.sep();
        self.out.push('"');
        escape_json(k, &mut self.out);
        self.out.push_str("\":");
    }

    /// Open an object as a bare value (document root or array element).
    pub fn begin_object(&mut self) {
        self.sep();
        self.out.push('{');
        self.comma.push(false);
    }

    /// Open an object under key `k` of the enclosing object.
    pub fn begin_object_field(&mut self, k: &str) {
        self.key(k);
        self.out.push('{');
        self.comma.push(false);
    }

    /// Open an array under key `k` of the enclosing object.
    pub fn begin_array_field(&mut self, k: &str) {
        self.key(k);
        self.out.push('[');
        self.comma.push(false);
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.comma.pop();
        self.out.push('}');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.comma.pop();
        self.out.push(']');
    }

    /// String field of the enclosing object.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.out.push('"');
        escape_json(v, &mut self.out);
        self.out.push('"');
    }

    /// Unsigned integer field of the enclosing object.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Signed integer field of the enclosing object.
    pub fn field_i64(&mut self, k: &str, v: i64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Boolean field of the enclosing object.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Float field of the enclosing object, with fixed `decimals`.
    pub fn field_f64(&mut self, k: &str, v: f64, decimals: usize) {
        self.key(k);
        let _ = write!(self.out, "{v:.decimals$}");
    }

    /// Pre-rendered JSON under key `k` — for embedding a document that
    /// was serialized elsewhere (e.g. scraped server stats). The caller
    /// guarantees `raw` is valid JSON.
    pub fn field_raw(&mut self, k: &str, raw: &str) {
        self.key(k);
        self.out.push_str(raw);
    }

    /// Unsigned integer element of the enclosing array.
    pub fn value_u64(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.out, "{v}");
    }

    /// String element of the enclosing array.
    pub fn value_str(&mut self, v: &str) {
        self.sep();
        self.out.push('"');
        escape_json(v, &mut self.out);
        self.out.push('"');
    }

    /// Float element of the enclosing array, with fixed `decimals`.
    pub fn value_f64(&mut self, v: f64, decimals: usize) {
        self.sep();
        let _ = write!(self.out, "{v:.decimals$}");
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_rejects_malformed_shapes() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // Phase X without dur.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":0}]}"
        )
        .is_err());
        assert_eq!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0}]}"
            ),
            Ok(1)
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[]} trailing").is_err());
    }

    #[test]
    fn json_writer_nests_escapes_and_places_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "x/v1");
        w.field_u64("n", 7);
        w.field_f64("rate", 0.5, 3);
        w.field_bool("ok", true);
        w.begin_object_field("nested");
        w.field_str("quote", "a\"b\\c");
        w.end_object();
        w.begin_array_field("xs");
        w.value_u64(1);
        w.value_u64(2);
        w.value_str("three");
        w.end_array();
        w.field_raw("raw", "{\"inner\":1}");
        w.end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\"schema\":\"x/v1\",\"n\":7,\"rate\":0.500,\"ok\":true,\
             \"nested\":{\"quote\":\"a\\\"b\\\\c\"},\"xs\":[1,2,\"three\"],\
             \"raw\":{\"inner\":1}}"
        );
        // The writer's output parses back with our own parser.
        parse_json(&doc).expect("writer output is valid JSON");
    }
}
