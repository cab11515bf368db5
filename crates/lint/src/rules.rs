//! The rule engine: the repository's own invariants over one file's
//! token stream.
//!
//! Every rule carries a *crate-scope policy* — the set of crates and
//! target kinds (lib / example / test) it applies to — so the same pass
//! runs over the whole workspace and each file only answers for the
//! contracts its layer actually sells. `#[cfg(test)]` modules inside
//! library files are excluded the same way `tests/` directories are.
//!
//! | rule | invariant | scope |
//! |------|-----------|-------|
//! | D02  | no wall clock (`Instant::now`, `SystemTime`) | all lib code except `crates/bench` |
//! | A01  | every `// lint:allow(...)` pragma needs a reason and a known rule id | everywhere |
//! | S01  | no hash containers or raw-pointer fields in snapshot state types | snapshot-tagged lib modules |
//! | S02  | snapshot encode/decode cover every struct field, same order | lib code (syntactic, via [`crate::itemtree`]) |
//! | P01  | `unwrap`/`expect`/`panic!` need a `// PANIC:` justification | `core`, `cluster`, `snapshot` lib code |
//!
//! Rules a type checker can decide are clippy's, not this engine's: the
//! workspace `clippy.toml` bans `HashMap`, `HashSet`, `RandomState` and
//! `f32` (`disallowed-types`), and `[workspace.lints.clippy]` in the root
//! manifest turns on the lossy-cast lints, `allow_attributes_without_reason`
//! and `undocumented_unsafe_blocks` (DESIGN.md §10).
//!
//! A module is *snapshot-tagged* when its file is named `snapshot.rs` or
//! it carries a `// lint:snapshot-state` marker comment: its types are
//! durable state with a canonical byte encoding, so fields must have a
//! deterministic encode order (no `HashMap`/`HashSet`) and must not key
//! on addresses that die with the process (no `*const`/`*mut`).
//!
//! The escape hatch is `// lint:allow(<rule>) -- <reason>` on the
//! finding's line or the line above; the reason is mandatory (A01).
use crate::lexer::{Token, TokenKind};
use crate::scope::{FileKind, FileScope};

/// One registered rule, for documentation and reports.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id (`D02`...).
    pub id: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
}

/// The rule registry. Pragmas naming ids outside this table are A01
/// findings.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D02",
        summary: "no wall clock (Instant::now / SystemTime) outside bench and examples",
    },
    RuleInfo {
        id: "A01",
        summary: "lint:allow pragma requires a reason and known rule ids",
    },
    RuleInfo {
        id: "S01",
        summary: "no hash containers or raw-pointer fields in snapshot state types",
    },
    RuleInfo {
        id: "S02",
        summary: "snapshot encode/decode must cover every struct field in the same order",
    },
    RuleInfo {
        id: "P01",
        summary:
            "unwrap/expect/panic! in core/cluster/snapshot lib code requires a // PANIC: comment",
    },
];

fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D02`...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The canonical `file:line: rule message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A finding silenced by a `lint:allow` pragma, with the pragma's reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppressed {
    /// The silenced finding.
    pub finding: Finding,
    /// The reason given after `--` in the pragma.
    pub reason: String,
}

/// The outcome of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileLint {
    /// Unsuppressed findings, sorted by (line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a well-formed pragma, same order.
    pub suppressed: Vec<Suppressed>,
}

/// A parsed, well-formed `// lint:allow(<ids>) -- <reason>` pragma.
struct Pragma {
    line: u32,
    rules: Vec<String>,
    reason: String,
}

/// Runs every rule over one file's tokens.
pub fn lint_tokens(rel_path: &str, tokens: &[Token]) -> FileLint {
    let scope = FileScope::classify(rel_path);
    let comments: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Comment)
        .collect();
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let test_regions = find_test_regions(&code);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| line >= a && line <= b);

    let (pragmas, mut raw) = parse_pragmas(rel_path, &comments);

    if d02_applies(&scope) {
        d02_wall_clock(rel_path, &code, &in_test, &mut raw);
    }
    if s01_applies(&scope, rel_path, &comments) {
        s01_snapshot_state(rel_path, &code, &in_test, &mut raw);
    }
    if s02_applies(&scope) {
        let tree = crate::itemtree::parse(&code);
        s02_field_coverage(rel_path, &tree, &code, &in_test, &mut raw);
    }
    if p01_applies(&scope) {
        p01_panic_paths(rel_path, &code, &comments, &in_test, &mut raw);
    }

    // Apply suppression: a well-formed pragma covers its own line and the
    // line below it.
    let mut out = FileLint::default();
    for f in raw {
        let hit = pragmas.iter().find(|p| {
            (p.line == f.line || p.line + 1 == f.line) && p.rules.iter().any(|r| r == f.rule)
        });
        match hit {
            Some(p) => out.suppressed.push(Suppressed {
                finding: f,
                reason: p.reason.clone(),
            }),
            None => out.findings.push(f),
        }
    }
    out.findings
        .sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    out.suppressed
        .sort_by(|a, b| (a.finding.line, a.finding.rule).cmp(&(b.finding.line, b.finding.rule)));
    out
}

fn d02_applies(scope: &FileScope) -> bool {
    scope.kind == FileKind::Lib && scope.crate_name != "bench"
}

/// Marker comment that tags a whole module's types as snapshot state.
const SNAPSHOT_TAG: &str = "lint:snapshot-state";

/// Container types with no canonical iteration (hence encode) order.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// S01 covers lib modules whose types are durable snapshot state: files
/// named `snapshot.rs`, or any file carrying a `lint:snapshot-state`
/// marker comment.
fn s01_applies(scope: &FileScope, rel_path: &str, comments: &[&Token]) -> bool {
    if scope.kind != FileKind::Lib {
        return false;
    }
    rel_path.rsplit('/').next() == Some("snapshot.rs")
        || comments.iter().any(|c| {
            c.text
                .trim_start_matches(['/', '!', '*', ' ', '\t'])
                .starts_with(SNAPSHOT_TAG)
        })
}

/// S01: inside a snapshot-tagged module, `struct`/`enum` bodies must not
/// contain hash containers (no canonical encode order) or raw pointers
/// (addresses do not survive encode/decode).
fn s01_snapshot_state(
    rel_path: &str,
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while i < code.len() {
        if !(is_ident(code[i], "struct") || is_ident(code[i], "enum")) {
            i += 1;
            continue;
        }
        let name = code
            .get(i + 1)
            .filter(|t| t.kind == TokenKind::Ident)
            .map_or("_", |t| t.text.as_str())
            .to_string();
        // Find the body opener: `{` (fields/variants), `(` (tuple
        // struct), or `;` (unit struct — nothing to check).
        let mut j = i + 1;
        let mut open = None;
        while j < code.len() {
            if is_punct(code[j], '{') {
                open = Some(('{', '}'));
                break;
            }
            if is_punct(code[j], '(') {
                open = Some(('(', ')'));
                break;
            }
            if is_punct(code[j], ';') {
                break;
            }
            j += 1;
        }
        let Some((open, close)) = open else {
            i = j.max(i + 1);
            continue;
        };
        let body_start = j;
        let mut depth = 0usize;
        while j < code.len() {
            if is_punct(code[j], open) {
                depth += 1;
            } else if is_punct(code[j], close) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        for k in body_start..j.min(code.len()) {
            let t = code[k];
            if in_test(t.line) {
                continue;
            }
            if t.kind == TokenKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
                out.push(Finding {
                    file: rel_path.to_string(),
                    line: t.line,
                    rule: "S01",
                    message: format!(
                        "`{}` field in snapshot state type `{name}` — hash containers have no \
                         canonical encode order; use BTreeMap/BTreeSet",
                        t.text
                    ),
                });
            }
            if is_punct(t, '*')
                && k + 1 < j
                && (is_ident(code[k + 1], "const") || is_ident(code[k + 1], "mut"))
            {
                out.push(Finding {
                    file: rel_path.to_string(),
                    line: t.line,
                    rule: "S01",
                    message: format!(
                        "raw pointer field in snapshot state type `{name}` — addresses do not \
                         survive encode/decode; key by stable index or id",
                    ),
                });
            }
        }
        i = j.max(i + 1);
    }
}

/// S02 is purely syntactic: it needs the struct definition and the
/// encode/decode bodies in the same lib file, wherever that file lives.
fn s02_applies(scope: &FileScope) -> bool {
    scope.kind == FileKind::Lib
}

/// Crates whose lib code must justify every panic path: they run inside
/// the resumable engine/scheduler where an abort corrupts nothing only
/// because snapshots exist — each panic must argue its impossibility.
pub const PANIC_AUDITED_CRATES: &[&str] = &["core", "cluster", "snapshot"];

fn p01_applies(scope: &FileScope) -> bool {
    scope.kind == FileKind::Lib && PANIC_AUDITED_CRATES.contains(&scope.crate_name.as_str())
}

/// S02: for every encode/decode pair of a struct defined in this file —
/// `impl Snapshot for T { fn encode / fn decode }` or an inherent
/// `fn encode_<x>` / `fn decode_<x>` pair — every non-`cfg`-gated field
/// of `T` must appear in both bodies (encode as `self.<field>`, decode
/// as any mention of the field name), and the fields' first-occurrence
/// order in decode must match encode: the wire format reads what was
/// written, in the order it was written. Findings anchor at the field's
/// declaration line so a per-field `lint:allow(S02)` pragma (derived /
/// reconstructed fields) sits next to the field it excuses.
fn s02_field_coverage(
    rel_path: &str,
    tree: &crate::itemtree::ItemTree,
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    // (struct, encode fn, decode fn) pairs discovered in this file.
    let mut pairs: Vec<(
        &crate::itemtree::StructDef,
        &crate::itemtree::FnDef,
        &crate::itemtree::FnDef,
    )> = Vec::new();
    for imp in &tree.impls {
        if in_test(imp.line) {
            continue;
        }
        let Some(strukt) = tree.struct_named(&imp.type_name) else {
            continue;
        };
        if strukt.fields.is_none() || in_test(strukt.line) {
            continue;
        }
        let fn_named = |name: &str| {
            imp.fns
                .iter()
                .map(|&i| &tree.fns[i])
                .find(|f| f.name == name && f.body.is_some())
        };
        if imp.trait_name.as_deref() == Some("Snapshot") {
            if let (Some(enc), Some(dec)) = (fn_named("encode"), fn_named("decode")) {
                pairs.push((strukt, enc, dec));
            }
        } else if imp.trait_name.is_none() {
            // Inherent `encode_<x>` pairs with `decode_<x>` (same suffix),
            // in this impl block; the plain `encode`/`decode` pair too.
            for &fi in &imp.fns {
                let enc = &tree.fns[fi];
                let Some(suffix) = enc.name.strip_prefix("encode") else {
                    continue;
                };
                if enc.body.is_none() || (!suffix.is_empty() && !suffix.starts_with('_')) {
                    continue;
                }
                if let Some(dec) = fn_named(&format!("decode{suffix}")) {
                    pairs.push((strukt, enc, dec));
                }
            }
        }
    }
    for (strukt, enc, dec) in pairs {
        check_snapshot_pair(rel_path, strukt, enc, dec, code, out);
    }
}

/// First token index in `body` where `self.<name>` occurs, for each
/// name; plus the `self.<ident>` mentions that are *not* fields and not
/// method calls (no `(` after the ident).
fn self_field_mentions(
    code: &[&Token],
    body: (usize, usize),
    fields: &[String],
) -> (Vec<Option<usize>>, Vec<(usize, String)>) {
    let mut firsts: Vec<Option<usize>> = vec![None; fields.len()];
    let mut extras = Vec::new();
    let (lo, hi) = body;
    for k in lo..hi.min(code.len()) {
        if k < 2
            || code[k].kind != TokenKind::Ident
            || !is_punct(code[k - 1], '.')
            || !is_ident(code[k - 2], "self")
        {
            continue;
        }
        if let Some(fi) = fields.iter().position(|f| f == &code[k].text) {
            if firsts[fi].is_none() {
                firsts[fi] = Some(k);
            }
        } else if !code.get(k + 1).is_some_and(|t| is_punct(t, '(')) {
            extras.push((k, code[k].text.clone()));
        }
    }
    (firsts, extras)
}

fn check_snapshot_pair(
    rel_path: &str,
    strukt: &crate::itemtree::StructDef,
    enc: &crate::itemtree::FnDef,
    dec: &crate::itemtree::FnDef,
    code: &[&Token],
    out: &mut Vec<Finding>,
) {
    let all_fields = strukt.fields.as_deref().unwrap_or(&[]);
    let covered: Vec<&crate::itemtree::Field> =
        all_fields.iter().filter(|f| !f.cfg_gated).collect();
    let names: Vec<String> = covered.iter().map(|f| f.name.clone()).collect();
    let enc_body = enc.body.unwrap_or((0, 0));
    let dec_body = dec.body.unwrap_or((0, 0));
    let (enc_first, enc_extras) = self_field_mentions(code, enc_body, &names);
    // Decode has no `self`: a field counts as mentioned at its first
    // appearance as a bare identifier (`let jobs = ...; Self { jobs }`).
    let mut dec_first: Vec<Option<usize>> = vec![None; names.len()];
    let dec_range = dec_body.0..dec_body.1.min(code.len());
    for (k, tok) in code
        .iter()
        .enumerate()
        .take(dec_range.end)
        .skip(dec_range.start)
    {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if let Some(fi) = names.iter().position(|n| n == &tok.text) {
            if dec_first[fi].is_none() {
                dec_first[fi] = Some(k);
            }
        }
    }
    for (fi, field) in covered.iter().enumerate() {
        if enc_first[fi].is_none() {
            out.push(Finding {
                file: rel_path.to_string(),
                line: field.line,
                rule: "S02",
                message: format!(
                    "snapshot field `{}` of `{}` is never written in `{}` — resume would lose \
                     it; encode it or `lint:allow(S02)` with a reason if derived",
                    field.name, strukt.name, enc.name
                ),
            });
        }
        if dec_first[fi].is_none() {
            out.push(Finding {
                file: rel_path.to_string(),
                line: field.line,
                rule: "S02",
                message: format!(
                    "snapshot field `{}` of `{}` is never read in `{}` — decode must consume \
                     every encoded field; or `lint:allow(S02)` with a reason if reconstructed",
                    field.name, strukt.name, dec.name
                ),
            });
        }
    }
    for (k, name) in enc_extras {
        out.push(Finding {
            file: rel_path.to_string(),
            line: code[k].line,
            rule: "S02",
            message: format!(
                "`self.{name}` written in `{}` is not a field of `{}` — encode and struct \
                 definition disagree",
                enc.name, strukt.name
            ),
        });
    }
    // Ordering: among fields present in both bodies, decode's
    // first-occurrence order must be monotone in encode's.
    let mut both: Vec<(usize, usize, usize)> = covered
        .iter()
        .enumerate()
        .filter_map(|(fi, _)| Some((fi, enc_first[fi]?, dec_first[fi]?)))
        .collect();
    both.sort_by_key(|&(_, e, _)| e);
    let mut max_dec = 0usize;
    for &(fi, _, d) in &both {
        if d < max_dec {
            out.push(Finding {
                file: rel_path.to_string(),
                line: covered[fi].line,
                rule: "S02",
                message: format!(
                    "snapshot field `{}` of `{}` is decoded out of encode order — `{}` must \
                     read fields in the order `{}` writes them",
                    covered[fi].name, strukt.name, dec.name, enc.name
                ),
            });
        }
        max_dec = max_dec.max(d);
    }
}

/// P01: in the panic-audited crates, every `.unwrap()`, `.expect(` and
/// `panic!` in lib code needs a `// PANIC:` comment on its line or
/// within the three lines above — the justification that this path is
/// unreachable or that aborting beats corrupting resumable state.
fn p01_panic_paths(
    rel_path: &str,
    code: &[&Token],
    comments: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let justified = |line: u32| {
        let lo = line.saturating_sub(3);
        comments
            .iter()
            .any(|c| c.line >= lo && c.line <= line && c.text.contains("PANIC:"))
    };
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(t.line) {
            continue;
        }
        let call = (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && is_punct(code[i - 1], '.')
            && code.get(i + 1).is_some_and(|n| is_punct(n, '('));
        let mac = t.text == "panic" && code.get(i + 1).is_some_and(|n| is_punct(n, '!'));
        if (call || mac) && !justified(t.line) {
            let what = if mac {
                "panic!".to_string()
            } else {
                format!(".{}()", t.text)
            };
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "P01",
                message: format!(
                    "`{what}` without a `// PANIC:` justification — document why this cannot \
                     fail (or return an error instead)"
                ),
            });
        }
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c)
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

/// Line spans (inclusive) of `#[cfg(test)] mod <name> { ... }` bodies.
fn find_test_regions(code: &[&Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 6 < code.len() {
        let attr = is_punct(code[i], '#')
            && is_punct(code[i + 1], '[')
            && is_ident(code[i + 2], "cfg")
            && is_punct(code[i + 3], '(')
            && is_ident(code[i + 4], "test")
            && is_punct(code[i + 5], ')')
            && is_punct(code[i + 6], ']');
        if !attr {
            i += 1;
            continue;
        }
        // Skip any further attributes between #[cfg(test)] and the item.
        let mut j = i + 7;
        while j + 1 < code.len() && is_punct(code[j], '#') && is_punct(code[j + 1], '[') {
            let mut depth = 0usize;
            while j < code.len() {
                if is_punct(code[j], '[') {
                    depth += 1;
                } else if is_punct(code[j], ']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Only `mod` bodies form a region; other cfg(test) items are rare
        // and stay subject to the rules.
        if j < code.len() && is_ident(code[j], "mod") {
            // Find the opening brace, then match it.
            while j < code.len() && !is_punct(code[j], '{') {
                j += 1;
            }
            if j < code.len() {
                let start_line = code[j].line;
                let mut depth = 0usize;
                while j < code.len() {
                    if is_punct(code[j], '{') {
                        depth += 1;
                    } else if is_punct(code[j], '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let end_line = code[j.min(code.len() - 1)].line;
                regions.push((start_line, end_line));
            }
        }
        i = j.max(i + 7);
    }
    regions
}

/// Parses `lint:allow` pragmas out of the comment stream. A comment is
/// a pragma only when its text *starts* with `lint:allow` (after the
/// comment markers) — prose that merely mentions the syntax is inert.
/// Malformed pragmas (missing reason, unknown rule id) become A01
/// findings and do not suppress anything.
fn parse_pragmas(rel_path: &str, comments: &[&Token]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let stripped = c.text.trim_start_matches(['/', '!', '*', ' ', '\t']);
        if !stripped.starts_with("lint:allow") {
            continue;
        }
        let rest = &stripped["lint:allow".len()..];
        let Some(open) = rest.find('(') else {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: c.line,
                rule: "A01",
                message: "malformed lint:allow pragma: expected `lint:allow(<rule>) -- <reason>`"
                    .to_string(),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: c.line,
                rule: "A01",
                message: "malformed lint:allow pragma: missing `)`".to_string(),
            });
            continue;
        };
        let ids: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let mut ok = !ids.is_empty();
        for id in &ids {
            if !known_rule(id) {
                ok = false;
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "A01",
                    message: format!("unknown rule id `{id}` in lint:allow pragma"),
                });
            }
        }
        let after = rest[close + 1..].trim_start();
        let reason = after
            .strip_prefix("--")
            .map(|r| r.trim().trim_end_matches("*/").trim())
            .unwrap_or("");
        if reason.is_empty() {
            ok = false;
            findings.push(Finding {
                file: rel_path.to_string(),
                line: c.line,
                rule: "A01",
                message: "lint:allow pragma requires a reason: `// lint:allow(<rule>) -- <reason>`"
                    .to_string(),
            });
        }
        if ok {
            pragmas.push(Pragma {
                line: c.line,
                rules: ids,
                reason: reason.to_string(),
            });
        }
    }
    (pragmas, findings)
}

/// True when the identifier at `i` sits inside a `use` statement (an
/// import is not a use site; flagging it would double-report).
fn in_use_statement(code: &[&Token], i: usize) -> bool {
    let lo = i.saturating_sub(40);
    for j in (lo..i).rev() {
        if is_punct(code[j], ';') {
            return false;
        }
        if is_ident(code[j], "use") {
            return true;
        }
    }
    false
}

fn d02_wall_clock(
    rel_path: &str,
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(t.line) {
            continue;
        }
        if t.text == "SystemTime" && !in_use_statement(code, i) {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "D02",
                message: "wall clock `SystemTime` in deterministic code — use virtual `SimTime`"
                    .to_string(),
            });
        }
        if t.text == "Instant"
            && i + 3 < code.len()
            && is_punct(code[i + 1], ':')
            && is_punct(code[i + 2], ':')
            && is_ident(code[i + 3], "now")
        {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "D02",
                message: "wall clock `Instant::now` in deterministic code — use virtual `SimTime`"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> FileLint {
        lint_tokens(path, &lex(src))
    }

    fn rules_of(l: &FileLint) -> Vec<&'static str> {
        l.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d02_wall_clock_scoped() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let l = run("crates/controller/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["D02", "D02"]);
        assert!(run("crates/bench/src/x.rs", src).findings.is_empty());
        assert!(run("crates/sim/examples/x.rs", src).findings.is_empty());
    }

    #[test]
    fn a01_pragma_requires_reason_and_known_rule() {
        // `D05` is a retired id: its rule moved to clippy, so a pragma
        // still naming it is stale and must not survive.
        let src = "// lint:allow(D02)\n\
                   // lint:allow(Z99) -- whatever\n\
                   // lint:allow(D05) -- intentional wrap\n\
                   fn f() {}";
        let l = run("crates/sim/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["A01", "A01", "A01"]);
        assert!(l.findings[0].message.contains("requires a reason"));
        assert!(l.findings[1].message.contains("unknown rule id `Z99`"));
        assert!(l.findings[2].message.contains("unknown rule id `D05`"));
    }

    #[test]
    fn prose_mentioning_the_pragma_syntax_is_inert() {
        // Doc comments *about* the pragma (like this engine's own docs)
        // must not parse as pragma attempts.
        let src = "//! The escape hatch is `// lint:allow(D02) -- why`.\n\
                   // see lint:allow(...) in DESIGN.md\nfn f() {}";
        assert!(run("crates/sim/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn malformed_pragma_does_not_suppress() {
        let src = "// lint:allow(D02)\nfn f() { let t = Instant::now(); }";
        let l = run("crates/sim/src/x.rs", src);
        // A01 for the pragma plus the unsuppressed D02.
        assert_eq!(rules_of(&l), vec!["A01", "D02"]);
        assert!(l.suppressed.is_empty());
    }

    #[test]
    fn suppression_needs_matching_rule_and_line() {
        let src = "// lint:allow(D02) -- operator stopwatch\n\
                   fn f() { let t = Instant::now(); let s = SystemTime::now(); }\n\
                   fn g() { let u = Instant::now(); }\n";
        let l = run("crates/core/src/x.rs", src);
        assert_eq!(l.suppressed.len(), 2); // both mentions on line 2
        assert_eq!(l.suppressed[0].reason, "operator stopwatch");
        assert_eq!(rules_of(&l), vec!["D02"]); // line 3 not covered
        assert_eq!(l.findings[0].line, 3);
    }

    #[test]
    fn findings_are_sorted_by_line_then_rule() {
        let src = "fn f(o: Option<u8>) { let t = Instant::now(); o.unwrap(); }\n\
                   fn g() { let s = SystemTime::now(); }\n";
        let l = run("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["D02", "P01", "D02"]);
        let lines: Vec<u32> = l.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 1, 2]);
    }

    #[test]
    fn s01_flags_hash_and_pointer_fields_in_snapshot_modules() {
        // `snapshot.rs` is tagged by name.
        let src = "pub struct State {\n\
                   \x20   pub index: HashMap<u64, u64>,\n\
                   \x20   pub owner: *const u8,\n\
                   \x20   pub order: BTreeMap<u64, u64>,\n\
                   }\n";
        let l = run("crates/snapshot/src/snapshot.rs", src);
        assert_eq!(
            l.findings.iter().map(Finding::render).collect::<Vec<_>>(),
            vec![
                "crates/snapshot/src/snapshot.rs:2: S01 `HashMap` field in snapshot state type \
                 `State` — hash containers have no canonical encode order; use \
                 BTreeMap/BTreeSet"
                    .to_string(),
                "crates/snapshot/src/snapshot.rs:3: S01 raw pointer field in snapshot state type \
                 `State` — addresses do not survive encode/decode; key by stable index or id"
                    .to_string(),
            ],
        );
    }

    #[test]
    fn s01_marker_comment_tags_any_lib_module() {
        let src = "// lint:snapshot-state\n\
                   pub enum Slot { Empty, Full(HashSet<u8>) }\n\
                   fn local() { let m: *mut u8 = std::ptr::null_mut(); }\n";
        let l = run("crates/snapshot/src/queue.rs", src);
        // Only the enum body is checked: the raw pointer inside `local`
        // is transient, not snapshot state.
        assert_eq!(rules_of(&l), vec!["S01"]);
        assert_eq!(l.findings[0].line, 2);
        // Without the marker (and not named snapshot.rs) the same source
        // is out of S01's scope.
        let untagged = "pub enum Slot { Empty, Full(HashSet<u8>) }\n";
        assert!(run("crates/snapshot/src/queue.rs", untagged)
            .findings
            .is_empty());
    }

    #[test]
    fn s01_clean_snapshot_state_and_tests_pass() {
        let src = "pub struct State { pub order: BTreeMap<u64, u64>, pub ids: Vec<u64> }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   struct Probe { m: HashMap<u8, u8> }\n\
                   }\n";
        assert!(run("crates/snapshot/src/snapshot.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn s01_suppressible_like_any_rule() {
        let src = "// lint:allow(S01) -- legacy layout, encode sorts explicitly\n\
                   pub struct State { pub index: HashMap<u64, u64> }\n";
        let l = run("crates/snapshot/src/snapshot.rs", src);
        assert!(l.findings.is_empty());
        assert_eq!(l.suppressed.len(), 1);
        assert_eq!(l.suppressed[0].finding.rule, "S01");
    }

    // ---- S02: snapshot field coverage -------------------------------

    const S02_OK: &str = "\
pub struct P { pub a: u64, pub b: u32 }\n\
impl Snapshot for P {\n\
    fn encode(&self, w: &mut Writer) { w.u64(self.a); w.u32(self.b); }\n\
    fn decode(r: &mut Reader) -> Result<Self, E> {\n\
        let a = r.u64()?;\n\
        let b = r.u32()?;\n\
        Ok(Self { a, b })\n\
    }\n\
}\n";

    #[test]
    fn s02_clean_pair_passes() {
        assert!(run("crates/cluster/src/snapshot.rs", S02_OK)
            .findings
            .is_empty());
    }

    #[test]
    fn s02_missing_encode_field_is_found_at_field_line() {
        let src = S02_OK.replace("w.u32(self.b); ", "");
        let l = run("crates/cluster/src/snapshot.rs", &src);
        assert_eq!(
            l.findings.iter().map(Finding::render).collect::<Vec<_>>(),
            vec![
                "crates/cluster/src/snapshot.rs:1: S02 snapshot field `b` of `P` is never \
                 written in `encode` — resume would lose it; encode it or `lint:allow(S02)` \
                 with a reason if derived"
                    .to_string()
            ]
        );
    }

    #[test]
    fn s02_missing_decode_field_is_found() {
        let src = S02_OK
            .replace("let b = r.u32()?;\n", "")
            .replace("Ok(Self { a, b })", "Ok(Self { a, b: 0 })");
        // `b: 0` still mentions `b`, so drop it entirely:
        let src = src.replace(
            "Ok(Self { a, b: 0 })",
            "Ok(Self { a, ..Default::default() })",
        );
        let l = run("crates/cluster/src/snapshot.rs", &src);
        assert_eq!(rules_of(&l), vec!["S02"]);
        assert!(l.findings[0]
            .message
            .contains("`b` of `P` is never read in `decode`"));
    }

    #[test]
    fn s02_reordered_decode_is_found() {
        let src = S02_OK.replace(
            "let a = r.u64()?;\nlet b = r.u32()?;",
            "let b = r.u32()?;\nlet a = r.u64()?;",
        );
        let l = run("crates/cluster/src/snapshot.rs", &src);
        assert_eq!(rules_of(&l), vec!["S02"]);
        assert!(l.findings[0]
            .message
            .contains("decoded out of encode order"));
        assert_eq!(l.findings[0].line, 1); // anchored at the field declaration
    }

    #[test]
    fn s02_extra_encode_field_is_found() {
        let src = S02_OK.replace("w.u32(self.b);", "w.u32(self.b); w.u8(self.ghost);");
        let l = run("crates/cluster/src/snapshot.rs", &src);
        assert_eq!(rules_of(&l), vec!["S02"]);
        assert!(l.findings[0].message.contains("`self.ghost`"));
        assert_eq!(l.findings[0].line, 3); // anchored at the stray write
    }

    #[test]
    fn s02_inherent_encode_decode_pair_is_checked() {
        let src = "\
pub struct T { pub x: u64, pub y: u64 }\n\
impl T {\n\
    pub fn encode_node(&self, w: &mut W) { w.u64(self.x); }\n\
    pub fn decode_node(r: &mut R) -> T { let x = r.u64(); T { x, y: 0 } }\n\
}\n";
        let l = run("crates/core/src/runtime.rs", src);
        // `y` missing from encode; mentioned in decode (`y: 0`).
        assert_eq!(rules_of(&l), vec!["S02"]);
        assert!(l.findings[0]
            .message
            .contains("`y` of `T` is never written in `encode_node`"));
    }

    #[test]
    fn s02_field_pragma_suppresses_derived_fields() {
        let src = "\
pub struct T {\n\
    pub x: u64,\n\
    // lint:allow(S02) -- derived: recomputed from x on decode\n\
    pub cache: u64,\n\
}\n\
impl Snapshot for T {\n\
    fn encode(&self, w: &mut W) { w.u64(self.x); }\n\
    fn decode(r: &mut R) -> Result<Self, E> { let x = r.u64()?; Ok(Self { x, cache: 0 }) }\n\
}\n";
        let l = run("crates/core/src/state.rs", src);
        assert!(l.findings.is_empty(), "unexpected: {:?}", l.findings);
        assert_eq!(l.suppressed.len(), 1);
        assert_eq!(l.suppressed[0].finding.rule, "S02");
    }

    #[test]
    fn s02_cfg_gated_fields_and_methods_are_exempt() {
        let src = "\
pub struct T {\n\
    pub x: u64,\n\
    #[cfg(feature = \"extra\")]\n\
    pub opt: u64,\n\
}\n\
impl Snapshot for T {\n\
    fn encode(&self, w: &mut W) { w.u64(self.x); w.u64(self.derived_sum()); }\n\
    fn decode(r: &mut R) -> Result<Self, E> { let x = r.u64()?; Ok(Self { x }) }\n\
}\n";
        assert!(run("crates/core/src/state.rs", src).findings.is_empty());
    }

    #[test]
    fn s02_only_lib_files_are_checked() {
        let bad = S02_OK.replace("w.u32(self.b); ", "");
        assert!(run("crates/cluster/tests/snap.rs", &bad)
            .findings
            .is_empty());
        assert!(run("crates/cluster/examples/snap.rs", &bad)
            .findings
            .is_empty());
    }

    // ---- P01: panic paths -------------------------------------------

    #[test]
    fn p01_flags_unjustified_panics_in_audited_crates() {
        let src = "\
fn f(o: Option<u8>) -> u8 {\n\
    let a = o.unwrap();\n\
    let b = o.expect(\"present\");\n\
    if a > b { panic!(\"impossible\"); }\n\
    a\n\
}\n";
        let l = run("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["P01", "P01", "P01"]);
        assert!(l.findings[0].message.contains("`.unwrap()`"));
        assert!(l.findings[2].message.contains("`panic!`"));
        // Outside the audited crates the same code is fine.
        assert!(run("crates/sim/src/x.rs", src).findings.is_empty());
        assert!(run("crates/core/tests/x.rs", src).findings.is_empty());
    }

    #[test]
    fn p01_panic_comment_window_justifies() {
        let src = "\
fn f(o: Option<u8>) -> u8 {\n\
    // PANIC: o is Some by construction — caller checked is_some()\n\
    o.unwrap()\n\
}\n\
fn g(o: Option<u8>) -> u8 {\n\
    o.unwrap() // PANIC: infallible, o seeded above\n\
}\n";
        assert!(run("crates/cluster/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn p01_cfg_test_modules_are_exempt() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { None::<u8>.unwrap(); panic!(\"boom\"); }\n\
}\n";
        assert!(run("crates/snapshot/src/lib.rs", src).findings.is_empty());
    }
}
