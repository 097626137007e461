//! The workspace's one JSON codec: a document model, a pretty renderer
//! for files, a compact renderer for one-line frames, the one string
//! escaper, and a strict parser.
//!
//! The build environment vendors no serde, and every artifact the
//! workspace writes is a small document — campaign state, case records,
//! manifests, fleet frames, event lines, profiles, lint reports and
//! trace exports — so this module hand-rolls exactly what they need.
//! Numbers are kept as their literal text ([`Json::Num`]), so `u64` seeds
//! round-trip losslessly (an `f64` model would corrupt seeds above 2^53).
//!
//! [`Json::parse`] is the trust boundary for everything read back from
//! disk or a socket, so it is strict: RFC 8259 numbers, escapes and
//! whitespace, no raw control characters or lone surrogates in strings,
//! no duplicate object keys, and nesting at most [`MAX_DEPTH`] deep —
//! deeper input is an error, never a stack overflow.

use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the workspace writes is about four levels; anything past
/// this is corrupt or hostile.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text for lossless round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value from anything displayable as a numeric literal.
    pub fn num(value: impl std::fmt::Display) -> Json {
        Json::Num(value.to_string())
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline — stable output, so identical state diffs as identical
    /// text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders the document on one line: `{"k":v,...}` with no spaces and
    /// no trailing newline. Control characters are always escaped, so
    /// the result never contains a raw newline — the fleet frame
    /// encoding.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value at `indent` levels (`None`: compact).
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => write_seq(
                out,
                indent,
                ['{', '}'],
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// A position-annotated message on malformed input, including
    /// nesting deeper than [`MAX_DEPTH`] and duplicate object keys.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Writes an array or object: `(key, value)` items between `brackets`,
/// one per indented line, or all on one line when `indent` is `None`.
/// Empty containers are always `[]` / `{}`.
fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let inner = indent.map(|i| i + 1);
    let empty = items.len() == 0;
    out.push(brackets[0]);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(indent) = indent {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

/// Appends `s` as a quoted JSON string literal — the workspace's one
/// escape table. `"` and `\` are backslash-escaped; newline, carriage
/// return and tab use their short forms; every other character below
/// U+0020 is `\u00XX` (lowercase hex); everything else, `/` and
/// non-ASCII included, is copied through. Because no control character
/// survives raw, a rendered value never contains a newline, which is
/// what makes `\n` a safe frame and event-line delimiter.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[copied..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// A recursive-descent parser over a `&str`. `pos` only ever stops on an
/// ASCII byte or the end of input, so it is always a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_digits = self.digits();
        let leading_zero = self.text.as_bytes()[self.pos - int_digits..].starts_with(b"0");
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(format!("malformed number at byte {start}"));
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => {
                    return Err(format!(
                        "raw control character in string at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// One escape, after its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // Anything still in the surrogate range is unpaired.
                return char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {at}"));
            }
            _ => return Err(format!("bad escape at byte {at}")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// The comma-separated items of an array or object up to `close`;
    /// the opening bracket is the current byte.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!(
                    "expected ',' or {:?} at byte {}",
                    char::from(close),
                    self.pos
                ));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut pairs = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            pairs.push((key, p.value()?));
            Ok(())
        })?;
        // Sorting keys keeps the check O(n log n) on hostile input.
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "duplicate key {:?} in object ending at byte {}",
                pair[0], self.pos
            ));
        }
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::num(u64::MAX)),
            ("name".into(), Json::str("fuzz/seed-7 \"quoted\"\n")),
            (
                "engines".into(),
                Json::Arr(vec![Json::str("interp"), Json::str("vm")]),
            ),
            ("clean".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            back.get("name").unwrap().as_str(),
            Some("fuzz/seed-7 \"quoted\"\n")
        );
        assert_eq!(back.get("engines").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(back.get("clean").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , -2 ] , \"b\" : \"x\\u0041\\ty\" } ").unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[1].as_i64(),
            Some(-2)
        );
        assert_eq!(doc.get("b").unwrap().as_str(), Some("xA\ty"));
        let escapes = Json::parse(r#""\/\b\f\ud83d\ude00""#).unwrap();
        assert_eq!(escapes.as_str(), Some("/\u{8}\u{c}\u{1f600}"));
        for number in ["0", "-0", "12", "-1.5", "0.25", "1e9", "1E+2", "2.5e-3"] {
            assert_eq!(Json::parse(number), Ok(Json::num(number)), "{number}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"open",
            // Numbers outside the RFC 8259 grammar.
            "-",
            "1-2",
            "1e",
            "0.",
            "1.2.3",
            "01",
            "-01",
            ".5",
            "+1",
            "1e+",
            // Lone surrogates, raw control characters, unknown escapes.
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"a\nb\"",
            "\"\\x41\"",
            "\"\\u12g4\"",
            // Duplicate keys, at any depth; non-JSON whitespace.
            "{\"a\":1,\"a\":2}",
            "[{\"k\":1,\"j\":2,\"k\":3}]",
            "\u{c}1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("[{at_limit}]");
        assert!(Json::parse(&past).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn empty_containers_render_compactly() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }

    /// The one escape table, byte for byte: every artifact the workspace
    /// writes depends on it.
    #[test]
    fn write_str_pins_the_escape_table() {
        let mut input = String::from("\"\\/");
        input.extend((0u8..0x20).map(char::from));
        input.push('é');
        let mut out = String::new();
        write_str(&mut out, &input);
        assert_eq!(
            out,
            "\"\\\"\\\\/\
             \\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\
             \\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\
             \\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\
             \\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\
             é\""
        );
    }

    proptest! {
        /// Both renderers round-trip arbitrary strings — every ASCII
        /// control character included — through the parser, as values
        /// and as keys, and the compact form stays on one line.
        #[test]
        fn strings_round_trip_through_both_renderers(
            ascii in proptest::collection::vec(0u32..0x80, 0..32),
            wide in proptest::collection::vec(0u32..0x11_0000, 0..4),
        ) {
            let s: String = ascii.iter().chain(&wide).filter_map(|&c| char::from_u32(c)).collect();
            let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::str(s.clone())]))]);
            prop_assert_eq!(Json::parse(&doc.render()), Ok(doc.clone()));
            let compact = doc.render_compact();
            prop_assert!(!compact.contains('\n'), "{}", compact);
            prop_assert_eq!(Json::parse(&compact), Ok(doc));
        }
    }
}
