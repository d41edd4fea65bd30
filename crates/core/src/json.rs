//! Minimal JSON value: render and parse, no external dependencies.
//!
//! Born in `mpq_bench` for the machine-readable benchmark artifacts
//! (`BENCH_pr3.json` onward) that CI validates and archives, and moved
//! down here once the network front-end needed the same machinery for
//! its wire codec and `/metrics` endpoint (`mpq_bench::json` re-exports
//! this module, so the harness call sites are unchanged). The build
//! container has no registry access, so instead of `serde_json` this is
//! the smallest JSON subset those consumers need: objects, arrays,
//! strings, finite numbers, booleans and null, read by one pull
//! [`Scanner`] strict enough to reject the malformed documents a broken
//! harness — or a hostile network client — would produce.
//!
//! [`Json`] is a value tree for the documents whose shape varies
//! (artifacts, `/metrics`, acks). The wire codec's hot bodies skip the
//! tree: it pulls [`Token`]s from the scanner straight into its own
//! types and writes numbers with the same [`write_num`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (rendered in shortest round-trip form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted (BTreeMap) so rendering is
    /// deterministic across runs — benchmark artifacts diff cleanly.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(entries: I) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member of an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render as compact JSON text.
    ///
    /// # Panics
    /// Panics on a non-finite number — the harness must never emit NaN
    /// or infinity into an artifact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text. Rejects trailing garbage, unterminated
    /// structures, non-finite numbers and containers nested more than
    /// 128 deep. Linear in the length of `text`.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut scanner = Scanner::new(text);
        let value = parse_value(&mut scanner, 0)?;
        scanner.end()?;
        Ok(value)
    }
}

/// How deeply [`Json::parse`] lets containers nest: it builds the tree
/// by recursion, so a document of nothing but `[` must not exhaust the
/// stack. [`Scanner::skip`] needs no such bound.
const MAX_DEPTH: usize = 128;

fn parse_value(s: &mut Scanner<'_>, depth: usize) -> Result<Json, String> {
    let token = s.value()?;
    if matches!(token, Token::Arr | Token::Obj) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", s.pos));
    }
    Ok(match token {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Num(n) => Json::Num(n),
        Token::Str(text) => Json::Str(text.into_owned()),
        Token::Arr => {
            let mut arr = Vec::new();
            while s.next_item()? {
                arr.push(parse_value(s, depth + 1)?);
            }
            Json::Arr(arr)
        }
        Token::Obj => {
            let mut map = BTreeMap::new();
            while let Some(key) = s.next_key()? {
                let value = parse_value(s, depth + 1)?;
                map.insert(key.into_owned(), value);
            }
            Json::Obj(map)
        }
    })
}

/// Append `n` as a JSON number: an integer below 1e15 in magnitude
/// without a fraction or exponent, anything else in Rust's shortest
/// round-trip form, so parsing the text gives back the same bits.
///
/// # Panics
/// Panics on a non-finite number — JSON has no spelling for one.
pub fn write_num(n: f64, out: &mut String) {
    assert!(n.is_finite(), "JSON numbers must be finite, got {n}");
    // integers render without a trailing ".0"
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// One step of a [`Scanner`]: a whole scalar, or the opening bracket of
/// a container whose members the caller then pulls one at a time.
#[derive(Debug, PartialEq)]
pub enum Token<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string: borrowed from the text unless it holds an escape.
    Str(Cow<'a, str>),
    /// `[` — pull the elements with [`Scanner::next_item`].
    Arr,
    /// `{` — pull the members with [`Scanner::next_key`].
    Obj,
}

/// A pull scanner over JSON text: the one tokenizer behind
/// [`Json::parse`] and the wire codec, which reads request and response
/// bodies straight into its own types without building a [`Json`] tree.
///
/// Every method moves forward over the text once, so a scan is linear
/// in its length. Errors are the messages [`Json::parse`] reports, with
/// the byte offset where the text went wrong.
pub struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    /// Set by an opening bracket: the container's first member comes
    /// with no comma before it.
    first: bool,
    /// Where the text of the last number read lies.
    number: std::ops::Range<usize>,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `text`.
    pub fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            text,
            pos: 0,
            first: false,
            number: 0..0,
        }
    }

    /// The next value: a scalar whole, a container by its opening
    /// bracket.
    pub fn value(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        let token = match self.text.as_bytes().get(self.pos) {
            None => return Err("unexpected end of input".to_string()),
            Some(b'{') => Token::Obj,
            Some(b'[') => Token::Arr,
            Some(b'"') => return self.string().map(Token::Str),
            Some(b't') => return self.literal("true", Token::Bool(true)),
            Some(b'f') => return self.literal("false", Token::Bool(false)),
            Some(b'n') => return self.literal("null", Token::Null),
            Some(_) => return self.number().map(Token::Num),
        };
        self.pos += 1;
        self.first = true;
        Ok(token)
    }

    /// Inside an array, after its `[` or an element: `true` if another
    /// element follows (read it next), `false` once the `]` is consumed.
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.close_or_comma(b']')
    }

    /// Inside an object, after its `{` or a member's value: the next
    /// member's key, with the scanner at its value (read it next), or
    /// `None` once the `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.close_or_comma(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Skip the rest of the value `first` began: nothing more for a
    /// scalar, everything up to the matching bracket for a container.
    /// The skipped text is checked as strictly as [`Json::parse`] checks
    /// it, without recursion, so no nesting depth exhausts the stack.
    pub fn skip(&mut self, first: Token<'a>) -> Result<(), String> {
        // The containers still open, innermost last: `true` for an object.
        let mut open = Vec::new();
        let mut token = first;
        loop {
            match token {
                Token::Arr => open.push(false),
                Token::Obj => open.push(true),
                _ => {}
            }
            loop {
                let Some(&object) = open.last() else {
                    return Ok(());
                };
                let more = if object {
                    self.next_key()?.is_some()
                } else {
                    self.next_item()?
                };
                if more {
                    break;
                }
                open.pop();
            }
            token = self.value()?;
        }
    }

    /// The number [`value`](Scanner::value) last returned, read from its
    /// digits rather than its `f64`: the non-negative integer it denotes,
    /// if it denotes one that fits in `u64` — `0`, `-0`, `17.0` and
    /// `1.7e1` do; `1.5`, `-1` and `1e30` do not. Exact over the whole
    /// range, where the `f64` rounds every integer above 2^53.
    pub fn integer(&self) -> Option<u64> {
        integer(&self.text[self.number.clone()])
    }

    /// Check that nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    /// After a container's opening bracket (its first member comes with
    /// no comma) or after a member: `false` if `close` ends it here.
    fn close_or_comma(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let next = self.text.as_bytes().get(self.pos).copied();
        if std::mem::take(&mut self.first) {
            if next == Some(close) {
                self.pos += 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match next {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    fn skip_ws(&mut self) {
        let b = self.text.as_bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.text.as_bytes().get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let b = self.text.as_bytes();
        // Unescaped text is copied run by run, and only once an escape
        // shows the string cannot be borrowed. `"` and `\` are ASCII, so
        // every run ends on a character boundary.
        let mut unescaped: Option<String> = None;
        loop {
            let run = self.pos;
            self.pos += b[run..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(b.len() - run);
            let text = &self.text[run..self.pos];
            match b.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(text);
                    self.pos += 1;
                    match b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let b = self.text.as_bytes();
        let start = self.pos;
        while self.pos < b.len()
            && matches!(b[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        self.number = start..self.pos;
        Ok(n)
    }
}

/// The non-negative integer that `text`, a number [`Scanner`] accepted,
/// denotes exactly, if it is one and fits in `u64` (see
/// [`Scanner::integer`]). Allocates nothing, however long the text.
fn integer(text: &str) -> Option<u64> {
    let (mantissa, exponent) = match text.find(['e', 'E']) {
        Some(at) => (&text[..at], Some(&text[at + 1..])),
        None => (text, None),
    };
    let (negative, mantissa) = match mantissa.as_bytes().first() {
        Some(b'-') => (true, &mantissa[1..]),
        Some(b'+') => (false, &mantissa[1..]),
        _ => (false, mantissa),
    };
    let (whole, fraction) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let (whole, fraction) = (whole.as_bytes(), fraction.as_bytes());
    let digit = |i: usize| match whole.get(i) {
        Some(&d) => d,
        None => fraction[i - whole.len()],
    };
    let digits = whole.len() + fraction.len();
    // The significant digits `first..=last`; none: the number is zero.
    let Some(first) = (0..digits).find(|&i| digit(i) != b'0') else {
        return Some(0);
    };
    let last = (0..digits).rfind(|&i| digit(i) != b'0')?;
    let exponent: i128 = exponent.map_or(Ok(0), str::parse::<i64>).ok()?.into();
    // The power of ten the significant digits are scaled by.
    let scale = exponent - fraction.len() as i128 + (digits - 1 - last) as i128;
    let significant = (last + 1 - first) as i128;
    if negative || scale < 0 || significant + scale > 20 {
        return None;
    }
    let value = (first..=last).fold(0u128, |v, i| v * 10 + (digit(i) - b'0') as u128);
    u64::try_from(value * 10u128.pow(scale as u32)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("schema", Json::Str("mpq.bench/1".into())),
            ("count", Json::Num(3.0)),
            ("ratio", Json::Num(2.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "series",
                Json::Arr(vec![
                    Json::obj([("t", Json::Num(1.0))]),
                    Json::obj([("t", Json::Num(2.0))]),
                ]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(back.get("series").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Json::Str("a\"b\\c\nd".into());
        let text = s.render();
        assert_eq!(Json::parse(&text).unwrap(), s);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,2",
            "{\"a\":1} trailing",
            "nul",
            "{\"a\" 1}",
            "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : false } ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn object_keys_render_sorted_for_stable_diffs() {
        let mut m = BTreeMap::new();
        m.insert("z".to_string(), Json::Num(1.0));
        m.insert("a".to_string(), Json::Num(2.0));
        assert_eq!(Json::Obj(m).render(), "{\"a\":2,\"z\":1}");
    }

    /// A string is read in one pass: this took minutes when every
    /// character re-validated the rest of the document as UTF-8.
    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let long = "ab\u{e9}c".repeat(1 << 18);
        let start = std::time::Instant::now();
        let text = Json::Str(long.clone()).render();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(long.clone()));
        let escaped = format!("[\"{}\\n\\u0041\"]", long);
        let parsed = Json::parse(&escaped).unwrap();
        assert_eq!(
            parsed.as_arr().unwrap()[0].as_str().unwrap(),
            format!("{long}\nA")
        );
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 30, "took {elapsed:?}");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut s = Scanner::new(r#"["plain été", "esc\"aped", "caf\u00e9"]"#);
        assert_eq!(s.value().unwrap(), Token::Arr);
        let mut strings = Vec::new();
        while s.next_item().unwrap() {
            match s.value().unwrap() {
                Token::Str(text) => strings.push(text),
                other => panic!("{other:?}"),
            }
        }
        s.end().unwrap();
        assert!(matches!(strings[0], Cow::Borrowed("plain \u{e9}t\u{e9}")));
        assert!(matches!(&strings[1], Cow::Owned(t) if t == "esc\"aped"));
        assert!(matches!(&strings[2], Cow::Owned(t) if t == "caf\u{e9}"));
    }

    /// `skip` checks what it skips as strictly as `parse`, at any depth.
    #[test]
    fn skip_checks_without_recursing() {
        let deep = format!("{}1{}", "[{\"k\":".repeat(100_000), "}]".repeat(100_000));
        let mut s = Scanner::new(&deep);
        let first = s.value().unwrap();
        s.skip(first).unwrap();
        s.end().unwrap();
        for bad in ["[1,]", "{\"a\" 1}", "[1}", "{\"a\":[}", "[\"x", "[1 2]"] {
            let mut s = Scanner::new(bad);
            let first = s.value().unwrap();
            assert_eq!(
                s.skip(first).and_then(|()| s.end()),
                Json::parse(bad).map(|_| ()),
                "{bad}"
            );
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(1 << 20);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn integers_are_read_from_their_digits() {
        let read = |text: &str| {
            let mut s = Scanner::new(text);
            assert!(matches!(s.value().unwrap(), Token::Num(_)), "{text}");
            s.integer()
        };
        for (text, expect) in [
            ("0", Some(0)),
            ("-0", Some(0)),
            ("-0.0e-7", Some(0)),
            ("17", Some(17)),
            ("17.00", Some(17)),
            ("1.7e1", Some(17)),
            ("1700e-2", Some(17)),
            ("0.017E+3", Some(17)),
            ("9007199254740993", Some((1 << 53) + 1)),
            ("18446744073709551615", Some(u64::MAX)),
            ("1.8446744073709551615e19", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("1e19", Some(10_000_000_000_000_000_000)),
            ("1e20", None),
            ("1e30", None),
            ("1.5", None),
            ("17e-1", None),
            ("-1", None),
            ("1e-400", None),
        ] {
            assert_eq!(read(text), expect, "{text}");
        }
        let long = format!("1{}e-300", "0".repeat(300));
        assert_eq!(read(&long), Some(1));
    }

    #[test]
    fn numbers_write_in_shortest_round_trip_form() {
        for (n, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (42.0, "42"),
            (-7.0, "-7"),
            (999_999_999_999_999.0, "999999999999999"),
            (1e15, "1000000000000000"),
            (2.5, "2.5"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e21, "1000000000000000000000"),
        ] {
            let mut out = String::new();
            write_num(n, &mut out);
            assert_eq!(out, text);
            assert_eq!(
                Json::parse(&out).unwrap().as_f64().unwrap().to_bits(),
                (n + 0.0f64).to_bits()
            );
        }
        for subnormal in [5e-324, f64::MIN_POSITIVE / 3.0] {
            let mut out = String::new();
            write_num(subnormal, &mut out);
            assert_eq!(
                Json::parse(&out).unwrap().as_f64().unwrap().to_bits(),
                subnormal.to_bits()
            );
        }
    }
}
