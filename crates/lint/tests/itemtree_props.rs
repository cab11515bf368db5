//! Property tests for the item-tree parser: whatever byte soup or
//! token shuffle the lexer hands it, `parse` must never panic, must
//! terminate, and every span it reports must tile inside the input.
//!
//! `PROPTEST_CASES` scales the case count (the vendored proptest
//! honours it via the default config).

use proptest::prelude::*;
use rhythm_lint::itemtree::{self, ItemTree};
use rhythm_lint::lexer::{self, Token, TokenKind};

/// Fragments that stress the parser's recovery paths: item keywords in
/// bogus positions, unbalanced delimiters, generics soup, arrows, and
/// plain identifiers. Random concatenations of these reach far more
/// parser states than uniformly random characters would.
const FRAGMENTS: &[&str] = &[
    "struct",
    "enum",
    "impl",
    "fn",
    "for",
    "where",
    "pub",
    "<",
    ">",
    ">>",
    "->",
    "=>",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ",",
    ";",
    ":",
    "::",
    "&",
    "'a",
    "#",
    "#[cfg(test)]",
    "#[cfg(feature = \"x\")]",
    "self",
    ".",
    "=",
    "-",
    "Vec",
    "u64",
    "T",
    "ident",
    "x1",
    "Snapshot",
    "\"str{lit\"",
    "//c\n",
    "\n",
];

/// Lexes `src`, parses the comment-free token slice, and asserts every
/// structural invariant the rule engine relies on: spans are ordered,
/// bounded by the token slice, and byte offsets round-trip into the
/// source text.
fn parse_and_check(src: &str) {
    let toks = lexer::lex(src);
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let tree: ItemTree = itemtree::parse(&code);
    let spans = tree
        .structs
        .iter()
        .map(|s| &s.span)
        .chain(tree.enums.iter().map(|e| &e.span))
        .chain(tree.impls.iter().map(|i| &i.span))
        .chain(tree.fns.iter().map(|f| &f.span));
    for span in spans {
        assert!(span.tok_lo <= span.tok_hi, "token span order: {span:?}");
        assert!(span.tok_hi <= code.len(), "token span bound: {span:?}");
        assert!(span.lo <= span.hi, "byte span order: {span:?}");
        assert!(span.hi <= src.len(), "byte span bound: {span:?}");
        if span.tok_lo < span.tok_hi {
            // The byte span is exactly the bytes of the tokens it claims.
            assert_eq!(span.lo, code[span.tok_lo].offset, "{span:?}");
            assert_eq!(span.hi, code[span.tok_hi - 1].end, "{span:?}");
            assert!(
                src.get(span.lo..span.hi).is_some(),
                "span splits UTF-8: {span:?}"
            );
        }
    }
    for imp in &tree.impls {
        for &fi in &imp.fns {
            assert!(fi < tree.fns.len(), "impl fn index out of range");
        }
    }
    for f in &tree.fns {
        if let Some((lo, hi)) = f.body {
            assert!(lo <= hi && hi <= code.len(), "fn body range: {lo}..{hi}");
        }
    }
    let lines = u32::try_from(src.lines().count().max(1)).unwrap();
    for s in &tree.structs {
        assert!(s.line >= 1 && s.line <= lines);
        for fld in s.fields.iter().flatten() {
            assert!(
                fld.line >= 1 && fld.line <= lines,
                "field line: {}",
                fld.line
            );
        }
    }
}

proptest! {
    /// Arbitrary Rust-flavoured token soup: parse never panics and all
    /// spans stay inside the input.
    #[test]
    fn parser_survives_token_soup(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..120)
    ) {
        let src: String = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join(" ");
        parse_and_check(&src);
    }

    /// Arbitrary unicode scalar streams: the lexer + parser front end
    /// is total over any valid UTF-8 input, multibyte included.
    #[test]
    fn parser_survives_arbitrary_strings(
        points in prop::collection::vec(1u32..0x0300, 0..200)
    ) {
        let src: String = points
            .iter()
            .filter_map(|&p| char::from_u32(p))
            .collect();
        parse_and_check(&src);
    }

    /// Truncating well-formed source at any byte boundary must not
    /// derail the parser — half-open braces and split tokens are the
    /// common editor-state inputs a lint pass sees.
    #[test]
    fn parser_survives_truncated_real_source(cut in 0usize..400) {
        let full = "pub struct State {\n    pub jobs: Vec<u64>,\n    #[cfg(test)]\n    pub probe: u32,\n}\n\
                    impl<T: Snapshot> Snapshot for Vec<T> {\n    fn encode(&self, w: &mut Writer) { self.jobs.encode(w); }\n\
                    fn decode(r: &mut Reader<'_>) -> Result<Self, E> { Ok(Self { jobs: d(r)? }) }\n}\n";
        parse_and_check(&full[..cut.min(full.len())]);
    }
}

/// Deterministic regression net alongside the random sweeps: degenerate
/// inputs parse to empty, well-formed trees rather than looping or
/// indexing off the end.
#[test]
fn degenerate_inputs_parse_well_formed_trees() {
    for src in [
        "",
        "struct",
        "impl",
        "fn",
        "#[",
        "{ } } {",
        "impl for {",
        "struct X<",
    ] {
        parse_and_check(src);
    }
}
