//! A token-level Rust lexer, sufficient for pattern-based static
//! analysis.
//!
//! This is not a full parser: it produces a flat token stream with
//! source positions, handling exactly the constructs that make naive
//! text search on Rust unsound — string literals (including raw strings
//! with arbitrary `#` counts and byte/C-string prefixes), nested block
//! comments, char literals vs lifetimes (`'a'` vs `'a`), raw
//! identifiers (`r#match`), and numeric literals with exponents.
//! Everything a rule matches on is a real code token, never text inside
//! a string or comment.

/// What kind of token was lexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, without `r#`).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Any string literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// A numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
    /// A line or block comment (text includes delimiters).
    Comment,
}

/// One lexed token with its source position (1-based line/column) and
/// byte span (`start..end` into the source, half-open).
///
/// Spans tile the file: every byte of the source is inside exactly one
/// token's span or inter-token whitespace — the conformance sweep in
/// `tests/lexer_conformance.rs` asserts this over every `.rs` file in
/// the repository. `text` equals the spanned bytes except for raw
/// identifiers, whose span includes the `r#` prefix that `text` strips.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
    /// Byte offset of the token's first byte.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
}

impl Tok {
    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for a punctuation token with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes a whole source file into tokens (comments included).
///
/// The lexer never fails: malformed input degenerates into `Punct`
/// tokens rather than aborting, so a half-edited file still gets the
/// best-effort analysis.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = c.peek(0) {
        let (line, col, start) = (c.line, c.col, c.pos);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek(1) == Some(b'/') => {
                while let Some(nb) = c.peek(0) {
                    if nb == b'\n' {
                        break;
                    }
                    c.bump();
                }
                push(&mut out, TokKind::Comment, &c, start, line, col);
            }
            b'/' if c.peek(1) == Some(b'*') => {
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (c.peek(0), c.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => break,
                    }
                }
                push(&mut out, TokKind::Comment, &c, start, line, col);
            }
            b'"' => {
                lex_string(&mut c);
                push(&mut out, TokKind::Str, &c, start, line, col);
            }
            b'\'' => {
                let kind = lex_quote(&mut c);
                push(&mut out, kind, &c, start, line, col);
            }
            b'r' | b'b' | b'c' if string_prefix_len(&c).is_some() => {
                let hashes = string_prefix_len(&c).unwrap_or(0);
                let kind = lex_prefixed_string(&mut c, hashes);
                push(&mut out, kind, &c, start, line, col);
            }
            _ if is_ident_start(b) => {
                // Raw identifier r#name: skip the prefix, keep the name.
                if b == b'r' && c.peek(1) == Some(b'#') && c.peek(2).is_some_and(is_ident_start) {
                    c.bump();
                    c.bump();
                }
                let name_start = c.pos;
                while c.peek(0).is_some_and(is_ident_cont) {
                    c.bump();
                }
                out.push(Tok {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&c.src[name_start..c.pos]).into_owned(),
                    line,
                    col,
                    start,
                    end: c.pos,
                });
            }
            _ if b.is_ascii_digit() => {
                lex_number(&mut c);
                push(&mut out, TokKind::Num, &c, start, line, col);
            }
            _ => {
                c.bump();
                push(&mut out, TokKind::Punct, &c, start, line, col);
            }
        }
    }
    out
}

fn push(out: &mut Vec<Tok>, kind: TokKind, c: &Cursor<'_>, start: usize, line: u32, col: u32) {
    out.push(Tok {
        kind,
        text: String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
        line,
        col,
        start,
        end: c.pos,
    });
}

/// If the cursor sits on a string prefix (`r"`, `r#"`, `br"`, `b"`,
/// `b'`, `c"`, `cr#"` …), returns the number of `#` marks; `None` when
/// this is a plain identifier like `r#match` or `bytes`.
fn string_prefix_len(c: &Cursor<'_>) -> Option<usize> {
    let mut i = 0usize;
    // Optional b/c, then optional r.
    match c.peek(i) {
        Some(b'b') | Some(b'c') => {
            i += 1;
            if c.peek(i) == Some(b'r') {
                i += 1;
            }
        }
        Some(b'r') => i += 1,
        _ => return None,
    }
    // b'x' byte-char literal: treated like a quote token downstream.
    if i == 1 && c.peek(0) == Some(b'b') && c.peek(1) == Some(b'\'') {
        return Some(0);
    }
    let mut hashes = 0usize;
    while c.peek(i) == Some(b'#') {
        i += 1;
        hashes += 1;
    }
    if c.peek(i) == Some(b'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Lexes a prefixed string (`r…`, `b…`, `c…`) after [`string_prefix_len`]
/// confirmed one is present. Returns the token kind.
fn lex_prefixed_string(c: &mut Cursor<'_>, hashes: usize) -> TokKind {
    let mut raw = false;
    // Consume prefix letters and hashes up to the quote.
    while let Some(b) = c.peek(0) {
        match b {
            b'b' | b'c' => {
                c.bump();
            }
            b'r' => {
                raw = true;
                c.bump();
            }
            b'#' => {
                c.bump();
            }
            b'"' => break,
            b'\'' => {
                // b'x'
                return lex_quote(c);
            }
            _ => break,
        }
    }
    if !raw {
        lex_string(c);
        return TokKind::Str;
    }
    // Raw string: no escapes; ends at `"` followed by `hashes` hashes.
    c.bump(); // opening quote
    loop {
        match c.peek(0) {
            None => break,
            Some(b'"') => {
                let mut ok = true;
                for h in 0..hashes {
                    if c.peek(1 + h) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                c.bump();
                if ok {
                    for _ in 0..hashes {
                        c.bump();
                    }
                    break;
                }
            }
            Some(_) => {
                c.bump();
            }
        }
    }
    TokKind::Str
}

/// Lexes a normal (escaped) string starting at `"`.
fn lex_string(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    while let Some(b) = c.peek(0) {
        match b {
            b'\\' => {
                c.bump();
                c.bump();
            }
            b'"' => {
                c.bump();
                break;
            }
            _ => {
                c.bump();
            }
        }
    }
}

/// Lexes starting at `'`: either a char literal or a lifetime.
fn lex_quote(c: &mut Cursor<'_>) -> TokKind {
    if c.peek(0) == Some(b'b') {
        c.bump(); // b'…'
    }
    c.bump(); // opening quote
    match c.peek(0) {
        Some(b'\\') => {
            // Escaped char literal: consume to the closing quote.
            c.bump();
            c.bump();
            while let Some(b) = c.peek(0) {
                c.bump();
                if b == b'\'' {
                    break;
                }
            }
            TokKind::Char
        }
        Some(b) if is_ident_start(b) => {
            // `'a'` is a char; `'a` / `'static` is a lifetime.
            let mut i = 0usize;
            while c.peek(i).is_some_and(is_ident_cont) {
                i += 1;
            }
            let is_char = c.peek(i) == Some(b'\'');
            for _ in 0..i {
                c.bump();
            }
            if is_char {
                c.bump();
                TokKind::Char
            } else {
                TokKind::Lifetime
            }
        }
        Some(_) => {
            // '(' , '1' , ' ' …
            c.bump();
            if c.peek(0) == Some(b'\'') {
                c.bump();
            }
            TokKind::Char
        }
        None => TokKind::Punct,
    }
}

/// Lexes a numeric literal (ints, floats, radix prefixes, suffixes,
/// exponents). `1.min(x)` stays `1` `.` `min`; `1.0e-5` is one token.
fn lex_number(c: &mut Cursor<'_>) {
    loop {
        match c.peek(0) {
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                c.bump();
                // Exponent sign: 1e-5, 2E+3.
                if (b == b'e' || b == b'E')
                    && matches!(c.peek(0), Some(b'+') | Some(b'-'))
                    && c.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    c.bump();
                }
            }
            Some(b'.') if c.peek(1).is_some_and(|d| d.is_ascii_digit()) => {
                c.bump();
            }
            _ => break,
        }
    }
}

/// Index of the token matching the opening bracket at `open` (or the
/// end of the stream when unbalanced).
pub fn matching_close(code: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        // `unwrap()` inside the raw string must not surface as idents.
        let src = r##"let x = r#"call .unwrap() now "quoted" here"#; x.real()"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "x", "real"]);
        let toks = kinds(src);
        assert!(
            toks.iter()
                .any(|(k, t)| *k == TokKind::Str && t.starts_with("r#\"")),
            "{toks:?}"
        );
    }

    #[test]
    fn raw_string_prefix_is_not_an_ident() {
        let ids = idents(r###"f(r##"nested "# inside"##) + g()"###);
        assert_eq!(ids, vec!["f", "g"]);
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let ids = idents("r#match + r#fn + bare");
        assert_eq!(ids, vec!["match", "fn", "bare"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let ids = idents(src);
        assert_eq!(ids, vec!["a", "b"]);
        let comments: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Comment)
            .collect();
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("inner"));
    }

    #[test]
    fn unterminated_block_comment_consumes_rest() {
        let ids = idents("a /* never closed unwrap()");
        assert_eq!(ids, vec!["a"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let d = '\\''; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        assert_eq!(chars.len(), 2, "{toks:?}");
    }

    #[test]
    fn static_lifetime_and_byte_char() {
        let toks = kinds("&'static str; b'x'; b\"bytes\"; '\\u{1F600}'");
        assert!(toks.contains(&(TokKind::Lifetime, "'static".to_owned())));
        assert!(toks.contains(&(TokKind::Char, "b'x'".to_owned())));
        assert!(toks.contains(&(TokKind::Str, "b\"bytes\"".to_owned())));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Char && t.contains("1F600")));
    }

    #[test]
    fn strings_with_escapes() {
        let ids = idents(r#"call("quoted \" unwrap() \\", other)"#);
        assert_eq!(ids, vec!["call", "other"]);
    }

    #[test]
    fn macro_bodies_still_tokenize() {
        let src = "macro_rules! m { ($x:expr) => { $x.unwrap() } } panic!(\"no {}\", 1);";
        let ids = idents(src);
        assert!(ids.contains(&"unwrap".to_owned()));
        assert!(ids.contains(&"panic".to_owned()));
        // The panic format string stays a string.
        assert!(lex(src)
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "\"no {}\""));
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let toks = kinds("1.min(2) + 1.0e-5 + 0xFF_u32 + 1_000");
        assert!(toks.contains(&(TokKind::Num, "1".to_owned())));
        assert!(toks.contains(&(TokKind::Ident, "min".to_owned())));
        assert!(toks.contains(&(TokKind::Num, "1.0e-5".to_owned())));
        assert!(toks.contains(&(TokKind::Num, "0xFF_u32".to_owned())));
        assert!(toks.contains(&(TokKind::Num, "1_000".to_owned())));
    }

    #[test]
    fn positions_are_one_based_and_line_accurate() {
        let toks = lex("a\n  bb\n\tccc");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (3, 2));
    }

    #[test]
    fn line_comment_variants() {
        let src = "/// doc\n//! inner\n// plain words(x) -- y\ncode";
        let comments: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Comment)
            .map(|t| t.text)
            .collect();
        assert_eq!(comments.len(), 3);
        assert!(comments[2].contains("words(x)"));
        assert_eq!(
            idents(src),
            vec!["code"],
            "comment words are not code idents"
        );
    }

    #[test]
    fn c_string_literals() {
        let ids = idents("f(c\"const char\", cr#\"raw c\"#)");
        assert_eq!(ids, vec!["f"]);
    }

    #[test]
    fn byte_spans_tile_the_source() {
        let src = "fn f<'a>(x: &'a str) -> u8 { r#match + 1.0e-5 /* c */ + b'x' }";
        let toks = lex(src);
        let mut pos = 0usize;
        for t in &toks {
            assert!(t.start >= pos, "overlap at {t:?}");
            assert!(
                src[pos..t.start].bytes().all(|b| b.is_ascii_whitespace()),
                "non-whitespace gap before {t:?}"
            );
            let spanned = &src[t.start..t.end];
            assert!(
                spanned == t.text || spanned == format!("r#{}", t.text),
                "span text mismatch: {spanned:?} vs {:?}",
                t.text
            );
            pos = t.end;
        }
        assert!(src[pos..].bytes().all(|b| b.is_ascii_whitespace()));
    }

    #[test]
    fn raw_identifier_span_includes_the_prefix() {
        let toks = lex("r#fn + g");
        assert_eq!(toks[0].text, "fn");
        assert_eq!((toks[0].start, toks[0].end), (0, 4));
    }
}
