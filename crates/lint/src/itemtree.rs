//! A brace-tree / item-level parser on top of the lexer — the layer
//! between "token stream" and "syntax tree" that S02's field-coverage
//! check needs and a lexical scanner cannot provide.
//!
//! It extracts, from one file's code tokens (comments excluded):
//!
//! * `struct` definitions with their **named field lists** (name, line,
//!   whether the field sits under a `#[cfg(...)]` gate); tuple and unit
//!   structs are recorded without fields,
//! * `enum` definitions (name only — variant payloads are opaque),
//! * `impl` blocks — inherent and `impl <Trait> for <Type>` — with the
//!   trait's terminal name, the self type's head identifier, and the
//!   functions defined inside,
//! * every `fn` with its body token range.
//!
//! Like the lexer it never fails: malformed source degrades into
//! skipped tokens, all loops are bounded by the token count, and every
//! recorded span stays inside the input (property-tested on arbitrary
//! token soup in `tests/itemtree_props.rs`). What it deliberately does
//! **not** do: name resolution across files, type inference, macro
//! expansion, or `cfg` evaluation — see DESIGN.md §10 "what the parser
//! can and cannot see".

use crate::lexer::{Token, TokenKind};

/// Byte extent of an item in the source, plus the half-open range of
/// token indices (into the code slice handed to [`parse`]) it covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first token.
    pub lo: usize,
    /// Byte offset one past the last token.
    pub hi: usize,
    /// Index of the first token.
    pub tok_lo: usize,
    /// Index one past the last token.
    pub tok_hi: usize,
}

/// One named struct field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// True when a `#[cfg(...)]` attribute gates the field — coverage
    /// rules must not demand a field the build may not contain.
    pub cfg_gated: bool,
}

/// A `struct` definition.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, or `None` for tuple / unit structs.
    pub fields: Option<Vec<Field>>,
    /// Source extent.
    pub span: Span,
}

/// An `enum` definition (variants are not modelled).
#[derive(Clone, Debug)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Source extent.
    pub span: Span,
}

/// One `fn`, free or inside an `impl` block.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body contents (braces excluded);
    /// `None` for body-less signatures (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Source extent (signature through closing brace or `;`).
    pub span: Span,
}

/// An `impl` block.
#[derive(Clone, Debug)]
pub struct ImplBlock {
    /// Terminal identifier of the trait path (`rhythm_snapshot::Snapshot`
    /// → `Snapshot`); `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Head identifier of the self type (`Vec<T>` → `Vec`); empty when
    /// the self type has no leading identifier (references to tuples,
    /// arrays, ...).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Indices into [`ItemTree::fns`] of the functions in this block.
    pub fns: Vec<usize>,
    /// Source extent.
    pub span: Span,
}

/// The parsed items of one file.
#[derive(Clone, Debug, Default)]
pub struct ItemTree {
    /// `struct` definitions, in source order.
    pub structs: Vec<StructDef>,
    /// `enum` definitions, in source order.
    pub enums: Vec<EnumDef>,
    /// `impl` blocks, in source order.
    pub impls: Vec<ImplBlock>,
    /// Every `fn` (free and impl-resident), in source order.
    pub fns: Vec<FnDef>,
}

impl ItemTree {
    /// The struct named `name`, if defined in this file.
    pub fn struct_named(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// True when `name` is an enum defined in this file.
    pub fn is_enum(&self, name: &str) -> bool {
        self.enums.iter().any(|e| e.name == name)
    }
}

/// Parses one file's code tokens (the comment-free slice the rule
/// engine already builds). Indices in the returned spans refer to this
/// slice.
pub fn parse(code: &[&Token]) -> ItemTree {
    Parser {
        toks: code,
        tree: ItemTree::default(),
    }
    .run()
}

/// Convenience for tests: lex `src`, drop comments, parse.
pub fn parse_source(src: &str) -> ItemTree {
    let toks = crate::lexer::lex(src);
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    parse(&code)
}

struct Parser<'a> {
    toks: &'a [&'a Token],
    tree: ItemTree,
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c)
}

fn is_kw(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

impl<'a> Parser<'a> {
    fn run(mut self) -> ItemTree {
        let mut i = 0usize;
        while i < self.toks.len() {
            i = self.item(i);
        }
        self.tree
    }

    /// Parses the item starting at `i` (or skips one token) and returns
    /// the index to continue from. Always advances.
    fn item(&mut self, i: usize) -> usize {
        let t = self.toks[i];
        let next = if is_kw(t, "struct") {
            self.parse_struct(i)
        } else if is_kw(t, "enum") {
            self.parse_enum(i)
        } else if is_kw(t, "impl") {
            self.parse_impl(i)
        } else if is_kw(t, "fn") {
            self.parse_fn(i).1
        } else {
            i + 1
        };
        next.max(i + 1)
    }

    fn span(&self, tok_lo: usize, tok_hi: usize) -> Span {
        let tok_hi = tok_hi.min(self.toks.len()).max(tok_lo);
        let lo = self.toks.get(tok_lo).map_or(0, |t| t.offset);
        let hi = if tok_hi > tok_lo {
            self.toks.get(tok_hi - 1).map_or(lo, |t| t.end)
        } else {
            lo
        };
        Span {
            lo,
            hi,
            tok_lo,
            tok_hi,
        }
    }

    /// Skips a balanced `<...>` group starting at `i` (which must point
    /// at `<`), tolerating `->` / `=>` arrows whose `>` is not a closer.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut k = i;
        while k < self.toks.len() {
            let t = self.toks[k];
            if is_punct(t, '<') {
                depth += 1;
            } else if is_punct(t, '>') && !self.arrow_tail(k) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        self.toks.len()
    }

    /// True when the `>` at `k` is the tail of `->` or `=>`.
    fn arrow_tail(&self, k: usize) -> bool {
        k > 0 && (is_punct(self.toks[k - 1], '-') || is_punct(self.toks[k - 1], '='))
    }

    /// Skips a balanced delimiter group starting at `i` (which must
    /// point at the opener). Returns the index after the closer.
    fn skip_group(&self, i: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        let mut k = i;
        while k < self.toks.len() {
            let t = self.toks[k];
            if is_punct(t, open) {
                depth += 1;
            } else if is_punct(t, close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        self.toks.len()
    }

    /// Scans forward from `i` for the first token satisfying `stop` at
    /// angle/paren/bracket depth 0. Returns `toks.len()` if none.
    fn scan_to(&self, i: usize, stop: impl Fn(&Token) -> bool) -> usize {
        let mut k = i;
        let mut angle = 0usize;
        let mut paren = 0usize;
        let mut bracket = 0usize;
        while k < self.toks.len() {
            let t = self.toks[k];
            if angle == 0 && paren == 0 && bracket == 0 && stop(t) {
                return k;
            }
            if is_punct(t, '<') {
                angle += 1;
            } else if is_punct(t, '>') && !self.arrow_tail(k) {
                angle = angle.saturating_sub(1);
            } else if is_punct(t, '(') {
                paren += 1;
            } else if is_punct(t, ')') {
                paren = paren.saturating_sub(1);
            } else if is_punct(t, '[') {
                bracket += 1;
            } else if is_punct(t, ']') {
                bracket = bracket.saturating_sub(1);
            }
            k += 1;
        }
        self.toks.len()
    }

    fn parse_struct(&mut self, i: usize) -> usize {
        let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return i + 1;
        };
        let name = name_tok.text.clone();
        let line = self.toks[i].line;
        let mut j = i + 2;
        if j < self.toks.len() && is_punct(self.toks[j], '<') {
            j = self.skip_angles(j);
        }
        // Body opener: `{` named fields, `(` tuple, `;` unit. A `where`
        // clause may intervene before `{`.
        j = self.scan_to(j, |t| {
            is_punct(t, '{') || is_punct(t, '(') || is_punct(t, ';')
        });
        if j >= self.toks.len() {
            return self.record_struct(name, line, None, i, j);
        }
        if is_punct(self.toks[j], ';') {
            return self.record_struct(name, line, None, i, j + 1);
        }
        if is_punct(self.toks[j], '(') {
            let after = self.skip_group(j, '(', ')');
            // Trailing `;` of the tuple struct, if present.
            let end = if self.toks.get(after).is_some_and(|t| is_punct(t, ';')) {
                after + 1
            } else {
                after
            };
            return self.record_struct(name, line, None, i, end);
        }
        let close = self.skip_group(j, '{', '}');
        let fields = self.parse_fields(j + 1, close.saturating_sub(1));
        self.record_struct(name, line, Some(fields), i, close)
    }

    fn record_struct(
        &mut self,
        name: String,
        line: u32,
        fields: Option<Vec<Field>>,
        tok_lo: usize,
        tok_hi: usize,
    ) -> usize {
        let span = self.span(tok_lo, tok_hi);
        self.tree.structs.push(StructDef {
            name,
            line,
            fields,
            span,
        });
        tok_hi
    }

    /// Parses `name: Type,` fields between `lo` and `hi` (exclusive,
    /// inside the struct braces). Attributes are consumed per field;
    /// anything unrecognized is skipped a token at a time.
    fn parse_fields(&self, lo: usize, hi: usize) -> Vec<Field> {
        let mut out = Vec::new();
        let mut k = lo;
        let hi = hi.min(self.toks.len());
        while k < hi {
            // Attributes: `#[...]`, noting `cfg` gates.
            let mut cfg_gated = false;
            while k + 1 < hi && is_punct(self.toks[k], '#') && is_punct(self.toks[k + 1], '[') {
                let close = self.skip_group(k + 1, '[', ']').min(hi);
                if self.toks[k + 1..close].iter().any(|t| is_kw(t, "cfg")) {
                    cfg_gated = true;
                }
                k = close;
            }
            // Visibility: `pub`, `pub(crate)`, `pub(in path)`.
            if k < hi && is_kw(self.toks[k], "pub") {
                k += 1;
                if k < hi && is_punct(self.toks[k], '(') {
                    k = self.skip_group(k, '(', ')').min(hi);
                }
            }
            // `name : Type` up to a depth-0 comma or the brace end.
            let (Some(name_tok), Some(colon)) = (self.toks.get(k), self.toks.get(k + 1)) else {
                break;
            };
            if name_tok.kind == TokenKind::Ident && is_punct(colon, ':') {
                let ty_end = self.scan_to(k + 2, |t| is_punct(t, ',')).min(hi);
                out.push(Field {
                    name: name_tok.text.clone(),
                    line: name_tok.line,
                    cfg_gated,
                });
                k = ty_end + 1; // past the comma
            } else {
                k += 1; // malformed; resynchronize
            }
        }
        out
    }

    fn parse_enum(&mut self, i: usize) -> usize {
        let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return i + 1;
        };
        let name = name_tok.text.clone();
        let line = self.toks[i].line;
        let mut j = i + 2;
        if j < self.toks.len() && is_punct(self.toks[j], '<') {
            j = self.skip_angles(j);
        }
        j = self.scan_to(j, |t| is_punct(t, '{') || is_punct(t, ';'));
        let end = if j < self.toks.len() && is_punct(self.toks[j], '{') {
            self.skip_group(j, '{', '}')
        } else {
            (j + 1).min(self.toks.len())
        };
        let span = self.span(i, end);
        self.tree.enums.push(EnumDef { name, line, span });
        end
    }

    fn parse_impl(&mut self, i: usize) -> usize {
        let line = self.toks[i].line;
        let mut j = i + 1;
        if j < self.toks.len() && is_punct(self.toks[j], '<') {
            j = self.skip_angles(j);
        }
        // Head: everything to the body brace (or a terminating `;`),
        // split at a depth-0 `for` if present.
        let head_start = j;
        let body_open = self.scan_to(j, |t| is_punct(t, '{') || is_punct(t, ';'));
        if body_open >= self.toks.len() || is_punct(self.toks[body_open], ';') {
            return (body_open + 1).min(self.toks.len());
        }
        let for_at = self.scan_to(head_start, |t| is_kw(t, "for") || is_punct(t, '{'));
        let (trait_part, type_part) = if for_at < body_open && is_kw(self.toks[for_at], "for") {
            (
                &self.toks[head_start..for_at],
                &self.toks[for_at + 1..body_open],
            )
        } else {
            (
                &self.toks[head_start..head_start],
                &self.toks[head_start..body_open],
            )
        };
        let trait_name = trait_part
            .iter()
            .rev()
            .find(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone());
        // Self-type head: last plain identifier before any generic args,
        // skipping `&`, `mut`, `dyn` and path segments.
        let mut type_name = String::new();
        for t in type_part.iter() {
            if is_punct(t, '<') {
                break;
            }
            if t.kind == TokenKind::Ident && t.text != "mut" && t.text != "dyn" {
                type_name = t.text.clone();
            }
        }
        // Body: collect `fn` items at impl depth, skipping their bodies.
        let close = self.skip_group(body_open, '{', '}');
        let mut fns = Vec::new();
        let mut k = body_open + 1;
        while k < close.saturating_sub(1) {
            let t = self.toks[k];
            if is_kw(t, "fn") {
                let (idx, next) = self.parse_fn(k);
                if let Some(idx) = idx {
                    fns.push(idx);
                }
                k = next.max(k + 1);
            } else if is_punct(t, '{') {
                k = self.skip_group(k, '{', '}');
            } else {
                k += 1;
            }
        }
        let span = self.span(i, close);
        self.tree.impls.push(ImplBlock {
            trait_name,
            type_name,
            line,
            fns,
            span,
        });
        close
    }

    /// Parses the `fn` at `i`; returns the index of the recorded
    /// [`FnDef`] (if one was recognized) and the continuation index.
    fn parse_fn(&mut self, i: usize) -> (Option<usize>, usize) {
        let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return (None, i + 1);
        };
        let name = name_tok.text.clone();
        let line = self.toks[i].line;
        let mut j = i + 2;
        if j < self.toks.len() && is_punct(self.toks[j], '<') {
            j = self.skip_angles(j);
        }
        if j >= self.toks.len() || !is_punct(self.toks[j], '(') {
            return (None, j.min(self.toks.len()));
        }
        let params_close = self.skip_group(j, '(', ')');
        // Return type / where clause, then body `{` or signature-only `;`.
        let opener = self.scan_to(params_close, |t| is_punct(t, '{') || is_punct(t, ';'));
        if opener >= self.toks.len() {
            let span = self.span(i, opener);
            self.tree.fns.push(FnDef {
                name,
                line,
                body: None,
                span,
            });
            return (Some(self.tree.fns.len() - 1), opener);
        }
        if is_punct(self.toks[opener], ';') {
            let span = self.span(i, opener + 1);
            self.tree.fns.push(FnDef {
                name,
                line,
                body: None,
                span,
            });
            return (Some(self.tree.fns.len() - 1), opener + 1);
        }
        let close = self.skip_group(opener, '{', '}');
        let body = (opener + 1, close.saturating_sub(1).max(opener + 1));
        let span = self.span(i, close);
        self.tree.fns.push(FnDef {
            name,
            line,
            body: Some(body),
            span,
        });
        (Some(self.tree.fns.len() - 1), close)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_fields_with_lines() {
        let t = parse_source(
            "pub struct State {\n\
             \x20   pub jobs: Vec<u64>,\n\
             \x20   seq: u32,\n\
             \x20   map: BTreeMap<(u64, u64), String>,\n\
             }\n",
        );
        let s = t.struct_named("State").expect("parsed");
        let f = s.fields.as_ref().expect("named fields");
        let names: Vec<&str> = f.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["jobs", "seq", "map"]);
        assert_eq!(f[1].line, 3);
        assert!(!f[2].cfg_gated);
    }

    #[test]
    fn shift_like_nested_generics_terminate() {
        // `>>` lexes as two `>` puncts; depth tracking must close both.
        let t = parse_source(
            "struct Deep { inner: Vec<Vec<Option<u8>>>, tail: u8 }\n\
             fn after() {}\n",
        );
        let s = t.struct_named("Deep").expect("parsed");
        let f = s.fields.as_ref().expect("fields");
        assert_eq!(f.len(), 2);
        assert_eq!(f[1].name, "tail");
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "after");
    }

    #[test]
    fn generic_impl_for_generic_type() {
        let t = parse_source(
            "impl<T: Snapshot> Snapshot for Vec<T> {\n\
             \x20   fn encode(&self, w: &mut Writer) { body(); }\n\
             \x20   fn decode(r: &mut Reader<'_>) -> Result<Self, E> { x() }\n\
             }\n",
        );
        assert_eq!(t.impls.len(), 1);
        let imp = &t.impls[0];
        assert_eq!(imp.trait_name.as_deref(), Some("Snapshot"));
        assert_eq!(imp.type_name, "Vec");
        let names: Vec<&str> = imp.fns.iter().map(|&i| t.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["encode", "decode"]);
        assert!(t.fns[imp.fns[0]].body.is_some());
    }

    #[test]
    fn qualified_trait_path_keeps_terminal_name() {
        let t =
            parse_source("impl rhythm_snapshot::Snapshot for TailPoint { fn encode(&self) {} }");
        assert_eq!(t.impls[0].trait_name.as_deref(), Some("Snapshot"));
        assert_eq!(t.impls[0].type_name, "TailPoint");
    }

    #[test]
    fn inherent_impl_has_no_trait() {
        let t = parse_source("impl NodeTables { fn encode_node(&self, i: usize) {} }");
        assert_eq!(t.impls[0].trait_name, None);
        assert_eq!(t.impls[0].type_name, "NodeTables");
    }

    #[test]
    fn cfg_gated_fields_are_marked() {
        let t = parse_source(
            "struct S {\n\
             \x20   a: u8,\n\
             \x20   #[cfg(feature = \"x\")]\n\
             \x20   b: u16,\n\
             \x20   #[serde(skip)]\n\
             \x20   c: u32,\n\
             }\n",
        );
        let f = t
            .struct_named("S")
            .and_then(|s| s.fields.clone())
            .expect("fields");
        assert_eq!(
            f.iter()
                .map(|x| (x.name.as_str(), x.cfg_gated))
                .collect::<Vec<_>>(),
            vec![("a", false), ("b", true), ("c", false)]
        );
    }

    #[test]
    fn tuple_and_unit_structs_have_no_field_list() {
        let t = parse_source("struct T(u64, u8);\nstruct U;\nstruct N { x: u8 }");
        assert!(t.struct_named("T").expect("T").fields.is_none());
        assert!(t.struct_named("U").expect("U").fields.is_none());
        assert!(t.struct_named("N").expect("N").fields.is_some());
    }

    #[test]
    fn fn_arrow_return_does_not_break_generics() {
        let t = parse_source("fn apply<F: Fn(u32) -> u64>(f: F, seed: u32) -> u64 { f(seed) }");
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "apply");
        assert!(t.fns[0].body.is_some());
    }

    #[test]
    fn where_clause_and_unit_struct_body() {
        let t = parse_source("struct W<T> where T: Clone { v: T }\nenum E { A, B(u8) }");
        let f = t
            .struct_named("W")
            .and_then(|s| s.fields.clone())
            .expect("fields");
        assert_eq!(f[0].name, "v");
        assert!(t.is_enum("E"));
    }

    #[test]
    fn spans_are_well_formed() {
        let src = "struct A { x: u8 }\nimpl A { fn f(&self) -> u8 { self.x } }\n";
        let t = parse_source(src);
        for s in &t.structs {
            assert!(s.span.lo < s.span.hi && s.span.hi <= src.len());
        }
        for i in &t.impls {
            assert!(i.span.lo < i.span.hi && i.span.hi <= src.len());
        }
        let body = t.fns[0].body.expect("body");
        assert!(body.0 <= body.1);
    }
}
