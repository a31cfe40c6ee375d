//! The workspace's one JSON reader and writer.
//!
//! [`parse_json`] reads SHC catalogs and Avro schemas (paper §IV, Code 1: a
//! small, flat document; a hand-written parser keeps the dependency set to
//! the approved crates) and [`render`] writes every JSON line the workspace
//! emits — Chrome traces, `BENCH` records. Both live here because this is
//! the one crate below `shc-kvstore` and `shc-engine`;
//! `shc_core::json` re-exports them. Object member order is preserved in
//! both directions: the catalog's column order defines the relational
//! schema's field order, and a rendered document's keys come out in the
//! order they were pushed.

use std::fmt;

/// Why a document did not parse.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

type Result<T> = std::result::Result<T, JsonError>;

/// A parsed JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Look up an object member (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// `get` then `as_str`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// An object whose members are `pairs`, in that order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to a value.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

/// Counters and sizes. `f64` holds integers exactly up to 2^53; identifiers
/// that can exceed it (trace ids) travel as strings instead.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

/// Render compactly: no whitespace, object members in insertion order,
/// whole numbers without a fraction and every other number with the digits
/// `f64` needs to round-trip, non-finite numbers as `null`, strings with
/// `"`, `\` and every control character escaped. For any tree of finite
/// numbers, `parse_json(&render(&v)) == Ok(v)`.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) if !n.is_finite() => out.push_str("null"),
        Json::Number(n) => out.push_str(&n.to_string()),
        Json::String(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(member, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Parse a JSON document.
pub fn parse_json(input: &str) -> Result<Json> {
    let mut parser = JsonParser {
        chars: input.chars().collect(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.chars.len() {
        return Err(JsonError(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    Ok(value)
}

struct JsonParser {
    chars: Vec<char>,
    pos: usize,
}

impl JsonParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<()> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected {c:?} at offset {}",
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.parse_object(),
            Some('[') => self.parse_array(),
            Some('"') => Ok(Json::String(self.parse_string()?)),
            Some('t') => self.parse_keyword("true", Json::Bool(true)),
            Some('f') => self.parse_keyword("false", Json::Bool(false)),
            Some('n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(JsonError(format!(
                "unexpected character {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        for expected in word.chars() {
            if self.bump() != Some(expected) {
                return Err(JsonError(format!("invalid keyword near {word}")));
            }
        }
        Ok(value)
    }

    fn parse_object(&mut self) -> Result<Json> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => break,
                other => {
                    return Err(JsonError(format!(
                        "expected ',' or '}}' in object, found {other:?}"
                    )))
                }
            }
        }
        Ok(Json::Object(members))
    }

    fn parse_array(&mut self) -> Result<Json> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => break,
                other => {
                    return Err(JsonError(format!(
                        "expected ',' or ']' in array, found {other:?}"
                    )))
                }
            }
        }
        Ok(Json::Array(items))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| JsonError("invalid \\u escape".into()))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(JsonError(format!("invalid escape {other:?}"))),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err(JsonError(format!("unescaped control character {c:?}")))
                }
                Some(c) => out.push(c),
                None => return Err(JsonError("unterminated string".into())),
            }
        }
        Ok(out)
    }

    fn parse_number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some('.') {
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| JsonError(format!("invalid number {text}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Json::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Json::Number(42.0));
        assert_eq!(parse_json("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse_json(r#"{"a": [1, {"b": "c"}], "d": {}}"#).unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Json::Number(1.0));
        assert_eq!(a[1].get_str("b"), Some("c"));
        assert!(doc.get("d").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn preserves_member_order() {
        let doc = parse_json(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse_json(r#""a\"b\\c\ndA""#).unwrap(),
            Json::String("a\"b\\c\ndA".into())
        );
    }

    #[test]
    fn parses_paper_catalog() {
        // The exact catalog from the paper (Code 1).
        let catalog = r#"{
            "table":{"namespace":"default", "name":"actives",
                     "tableCoder":"PrimitiveType", "Version":"2.0"},
            "rowkey":"key",
            "columns":{
                "col0":{"cf":"rowkey", "col":"key", "type":"string"},
                "user-id":{"cf":"cf1", "col":"col1", "type":"tinyint"},
                "visit-pages":{"cf":"cf2", "col":"col2", "type":"string"},
                "stay-time":{"cf":"cf3", "col":"col3", "type":"double"},
                "time":{"cf":"cf4", "col":"col4", "type":"time"}
            }
        }"#;
        let doc = parse_json(catalog).unwrap();
        assert_eq!(doc.get("table").unwrap().get_str("name"), Some("actives"));
        assert_eq!(doc.get_str("rowkey"), Some("key"));
        let columns = doc.get("columns").unwrap().as_object().unwrap();
        assert_eq!(columns.len(), 5);
        assert_eq!(columns[0].0, "col0");
        assert_eq!(columns[3].1.get_str("type"), Some("double"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("\"tab\there\"").is_err());
    }

    /// A value of bounded depth: the strings mix quotes, backslashes,
    /// control characters and non-ASCII; the numbers are integers up to
    /// 2^53 and dyadic fractions.
    fn arb_json(rng: &mut proptest::TestRng, depth: u32) -> Json {
        const ALPHABET: [char; 12] = [
            'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', '∅', '🦀',
        ];
        let string = |rng: &mut proptest::TestRng| -> String {
            (0..rng.below(8))
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                .collect()
        };
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Number((rng.below((1 << 53) + 1)) as f64),
            3 => Json::Number(rng.below(1 << 20) as f64 / 1024.0 - 512.0),
            4 => Json::String(string(rng)),
            5 => Json::Array(
                (0..rng.below(4))
                    .map(|_| arb_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Object(
                (0..rng.below(4))
                    .map(|_| (string(rng), arb_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest::proptest! {
        #[test]
        fn render_round_trips_through_the_parser(seed in proptest::any::<u64>()) {
            let value = arb_json(&mut proptest::TestRng::new(seed), 3);
            let text = render(&value);
            proptest::prop_assert_eq!(parse_json(&text), Ok(value), "{}", text);
        }
    }

    #[test]
    fn render_is_compact_ordered_and_escaped() {
        let doc = Json::object([
            ("z", Json::from(3u64)),
            ("a", Json::from(0.25)),
            ("s", Json::from("tab\there \"q\" \\ \u{1}")),
            ("none", Json::from(None::<f64>)),
            ("nan", Json::from(f64::NAN)),
            ("list", Json::array([1u64, 1 << 53])),
        ]);
        assert_eq!(
            render(&doc),
            r#"{"z":3,"a":0.25,"s":"tab\there \"q\" \\ \u0001","none":null,"nan":null,"list":[1,9007199254740992]}"#
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse_json("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse_json("{}").unwrap(), Json::Object(vec![]));
    }
}
