//! A small hand-rolled Rust lexer — just enough token structure for the
//! rule engine, with none of the grammar.
//!
//! The registry is offline, so there is no `syn`; what the rules need is
//! not a syntax tree anyway but a token stream that *correctly skips the
//! places source text is inert*: line comments, (nested) block comments,
//! string/char/byte literals and raw strings with any number of hashes.
//! A `HashMap` inside a comment or a `"thread_rng"` inside a string
//! literal must never reach a rule.
//!
//! Comments are kept as tokens (rules U01/H01 and the `lint:allow`
//! pragma parser read them); literals are kept as opaque tokens so D04
//! can still see an `f32` suffix on a numeric literal.

/// What a token is. Deliberately coarse: rules match on identifier text
/// and single-character punctuation, nothing finer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw identifiers, without the
    /// `r#` prefix).
    Ident,
    /// A lifetime (`'a`, `'static`, `'_`) — text excludes the quote.
    Lifetime,
    /// A numeric literal, suffix included (`1_000u64`, `1.5f32`, `0x1f`).
    Num,
    /// A string, raw-string, byte-string or character literal. Text is
    /// the raw source slice, quotes included.
    Str,
    /// A single punctuation character (`#`, `[`, `:`, `.`, ...).
    Punct,
    /// A line or block comment, text included (`//...` / `/*...*/`).
    Comment,
}

/// One lexed token with the 1-based line it starts on and its byte span
/// in the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Coarse token class.
    pub kind: TokenKind,
    /// Source text (see [`TokenKind`] for what each class carries).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// Byte offset of the token's first character in the source.
    pub offset: usize,
    /// Byte offset one past the token's last character. `src[offset..end]`
    /// is the exact source extent — note it can differ from `text` for
    /// raw identifiers (`r#type` → text `type`) and lifetimes (the
    /// leading quote is in the span but not the text).
    pub end: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream. Never fails: malformed source
/// degrades into punctuation tokens rather than an error, which is the
/// right behavior for a linter that must keep scanning.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        off: 0,
        start: 0,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    /// Byte offset of the cursor (`self.i`) in the source.
    off: usize,
    /// Byte offset where the token currently being lexed started.
    start: usize,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied();
        if let Some(c) = c {
            self.i += 1;
            self.off += c.len_utf8();
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        let (offset, end) = (self.start, self.off);
        self.out.push(Token {
            kind,
            text,
            line,
            offset,
            end,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            self.start = self.off;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(0),
                '\'' => self.char_or_lifetime(),
                'b' if self.peek(1) == Some('"') => {
                    let line = self.line;
                    self.bump();
                    self.string_from_quote(line, String::from("b"));
                }
                'b' if self.peek(1) == Some('\'') => self.byte_char(),
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => {
                    let line = self.line;
                    self.bump();
                    self.bump();
                    self.raw_string(line, String::from("br"));
                }
                'r' if self.raw_string_ahead(1) => {
                    let line = self.line;
                    self.bump();
                    self.raw_string(line, String::from("r"));
                }
                'r' if self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) => {
                    // Raw identifier `r#type`: token text is the bare name.
                    let line = self.line;
                    self.bump();
                    self.bump();
                    let name = self.ident_text();
                    self.push(TokenKind::Ident, name, line);
                }
                c if is_ident_start(c) => {
                    let line = self.line;
                    let name = self.ident_text();
                    self.push(TokenKind::Ident, name, line);
                }
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    let c = self.bump().expect("peeked");
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn ident_text(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::Comment, text, line);
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        // Consume the opening `/*`.
        text.push(self.bump().expect("peeked"));
        text.push(self.bump().expect("peeked"));
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek(0) {
                Some('/') if self.peek(1) == Some('*') => {
                    depth += 1;
                    text.push(self.bump().expect("peeked"));
                    text.push(self.bump().expect("peeked"));
                }
                Some('*') if self.peek(1) == Some('/') => {
                    depth -= 1;
                    text.push(self.bump().expect("peeked"));
                    text.push(self.bump().expect("peeked"));
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
                None => break, // unterminated; tolerate
            }
        }
        self.push(TokenKind::Comment, text, line);
    }

    /// True when `#* "` starts at `self.i + ahead` (a raw-string head).
    fn raw_string_ahead(&self, ahead: usize) -> bool {
        let mut k = ahead;
        while self.peek(k) == Some('#') {
            k += 1;
        }
        self.peek(k) == Some('"')
    }

    /// Lexes `#*"..."#*` starting at the first `#` or `"`; `prefix` is
    /// the already-consumed `r` / `br`.
    fn raw_string(&mut self, line: u32, prefix: String) {
        let mut text = prefix;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push(self.bump().expect("peeked"));
        }
        if self.peek(0) == Some('"') {
            text.push(self.bump().expect("peeked"));
        }
        loop {
            match self.peek(0) {
                Some('"') => {
                    // Closing candidate: needs `hashes` trailing hashes.
                    let mut k = 1;
                    while k <= hashes && self.peek(k) == Some('#') {
                        k += 1;
                    }
                    if k == hashes + 1 {
                        for _ in 0..=hashes {
                            text.push(self.bump().expect("peeked"));
                        }
                        break;
                    }
                    text.push(self.bump().expect("peeked"));
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
                None => break, // unterminated; tolerate
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    fn string_literal(&mut self, _unused: usize) {
        let line = self.line;
        self.string_from_quote(line, String::new());
    }

    /// Lexes a `"..."` (escapes honored, newlines allowed) whose opening
    /// quote is at the cursor; `prefix` is an already-consumed `b`.
    fn string_from_quote(&mut self, line: u32, prefix: String) {
        let mut text = prefix;
        text.push(self.bump().expect("opening quote")); // `"`
        loop {
            match self.peek(0) {
                Some('\\') => {
                    text.push(self.bump().expect("peeked"));
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                Some('"') => {
                    text.push(self.bump().expect("peeked"));
                    break;
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
                None => break, // unterminated; tolerate
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    /// `'a` (lifetime) vs `'a'` (char literal): consume identifier
    /// characters after the quote; a closing quote right after them makes
    /// it a char literal, anything else a lifetime.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        if self.peek(1).is_some_and(is_ident_start) {
            let mut k = 1;
            while self.peek(k).is_some_and(is_ident_continue) {
                k += 1;
            }
            if self.peek(k) == Some('\'') {
                // `'a'` or `'\u{..}'`-free simple char.
                let mut text = String::new();
                for _ in 0..=k {
                    text.push(self.bump().expect("peeked"));
                }
                self.push(TokenKind::Str, text, line);
            } else {
                let mut text = String::new();
                self.bump(); // the quote
                while self.peek(0).is_some_and(is_ident_continue) {
                    text.push(self.bump().expect("peeked"));
                }
                self.push(TokenKind::Lifetime, text, line);
            }
        } else {
            // Escaped or non-identifier char literal: `'\n'`, `' '`, `'\''`.
            let mut text = String::new();
            text.push(self.bump().expect("opening quote"));
            if self.peek(0) == Some('\\') {
                text.push(self.bump().expect("peeked"));
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if let Some(c) = self.bump() {
                text.push(c);
            }
            if self.peek(0) == Some('\'') {
                text.push(self.bump().expect("peeked"));
            }
            self.push(TokenKind::Str, text, line);
        }
    }

    fn byte_char(&mut self) {
        let line = self.line;
        let mut text = String::new();
        text.push(self.bump().expect("peeked")); // `b`
        text.push(self.bump().expect("peeked")); // `'`
        if self.peek(0) == Some('\\') {
            text.push(self.bump().expect("peeked"));
            if let Some(e) = self.bump() {
                text.push(e);
            }
        } else if let Some(c) = self.bump() {
            text.push(c);
        }
        if self.peek(0) == Some('\'') {
            text.push(self.bump().expect("peeked"));
        }
        self.push(TokenKind::Str, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` but not `1..5` (range) and not `1.max(2)`.
                text.push(c);
                self.bump();
            } else if (c == '+' || c == '-')
                && matches!(text.chars().last(), Some('e') | Some('E'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Exponent sign: `1e-5`.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Num, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn unsafe_inside_string_literal_is_not_a_token() {
        let toks = lex(r#"let s = "unsafe { *p }"; call(s);"#);
        assert!(!idents(r#"let s = "unsafe { *p }"; call(s);"#).contains(&"unsafe".to_string()));
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
    }

    #[test]
    fn hashmap_inside_comments_is_invisible() {
        let src = "// a HashMap here\n/* and a HashSet\n there */\nlet x = 1;";
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"HashSet".to_string()));
        assert_eq!(ids, vec!["let", "x"]);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still comment */ after";
        let toks = lex(src);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::Comment);
        assert_eq!(toks[1].text, "after");
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque() {
        let src = r###"let s = r#"HashMap "quoted" thread_rng"#; done"###;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(ids.contains(&"done".to_string()));
    }

    #[test]
    fn raw_string_closing_needs_matching_hash_count() {
        // The `"#` inside must not close an `r##` string.
        let src = "let s = r##\"inner \"# not closed yet\"##; tail";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "tail"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, vec!["'a'", "'\\n'"]);
    }

    #[test]
    fn static_lifetime_and_underscore() {
        let toks = lex("&'static str; &'_ u8");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["static", "_"]);
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "let a = \"two\nlines\";\n/* block\nspanning\nlines */\nlast";
        let toks = lex(src);
        let last = toks.last().expect("tokens");
        assert_eq!(last.text, "last");
        assert_eq!(last.line, 6);
    }

    #[test]
    fn numeric_literals_keep_suffixes() {
        let toks = lex("let x = 1.5f32 + 1_000u64 + 0x1f + 1e-5;");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["1.5f32", "1_000u64", "0x1f", "1e-5"]);
    }

    #[test]
    fn range_does_not_eat_dots() {
        let toks = lex("for i in 0..10 {}");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10"]);
    }

    #[test]
    fn raw_identifiers_lex_as_bare_names() {
        let ids = idents("let r#type = 1; let r#fn = 2;");
        assert_eq!(ids, vec!["let", "type", "let", "fn"]);
    }

    #[test]
    fn byte_strings_and_byte_chars_are_opaque() {
        let ids = idents(r##"let a = b"unsafe"; let c = b'x'; let r = br#"HashMap"#;"##);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
    }

    #[test]
    fn byte_spans_tile_the_source() {
        let src = "let r#type = \"s\"; 'a 'b' /* c */ é_ident 1.5f32";
        let toks = lex(src);
        let mut last_end = 0usize;
        for t in &toks {
            assert!(t.offset >= last_end, "overlap at {:?}", t);
            assert!(t.offset < t.end, "empty span at {:?}", t);
            assert!(t.end <= src.len());
            assert!(src.is_char_boundary(t.offset) && src.is_char_boundary(t.end));
            last_end = t.end;
        }
        // Raw identifier: the span covers `r#type`, the text is bare.
        let raw = toks.iter().find(|t| t.text == "type").expect("raw ident");
        assert_eq!(&src[raw.offset..raw.end], "r#type");
        // Lifetime: the span includes the quote the text drops.
        let lt = toks
            .iter()
            .find(|t| t.kind == TokenKind::Lifetime)
            .expect("lifetime");
        assert_eq!(&src[lt.offset..lt.end], "'a");
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        let toks = lex(r"let q = '\''; let b = '\\'; after");
        assert_eq!(toks.last().expect("tokens").text, "after");
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 2);
    }
}
