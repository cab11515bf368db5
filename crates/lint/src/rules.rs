//! The rule engine: determinism and hygiene invariants over one file's
//! token stream.
//!
//! Every rule carries a *crate-scope policy* — the set of crates and
//! target kinds (lib / example / test) it applies to — so the same pass
//! runs over the whole workspace and each file only answers for the
//! contracts its layer actually sells. `#[cfg(test)]` modules inside
//! library files are excluded from the determinism rules (D-rules) the
//! same way `tests/` directories are.
//!
//! | rule | invariant | scope |
//! |------|-----------|-------|
//! | D01  | no `HashMap`/`HashSet` (iteration order is nondeterministic) | deterministic crates, lib code |
//! | D02  | no wall clock (`Instant::now`, `SystemTime`) | all lib code except `crates/bench` |
//! | D03  | no entropy randomness (`thread_rng`, `rand::random`, `from_entropy`) | everywhere outside tests |
//! | D04  | no `f32` (mixed-width accumulation reorders; fingerprints are f64) | `sim`, `cluster`, `core` lib code |
//! | U01  | every `unsafe` needs a `// SAFETY:` comment | everywhere |
//! | H01  | every `#[allow(...)]` needs a justification | everywhere |
//! | A01  | every `// lint:allow(...)` pragma needs a reason | everywhere |
//! | S01  | no hash containers or raw-pointer fields in snapshot state types | snapshot-tagged lib modules |
//! | S02  | snapshot encode/decode cover every struct field, same order | lib code (syntactic, via [`crate::itemtree`]) |
//! | D05  | no lossy `as` casts (truncation / signedness change) | deterministic crates + `snapshot`, lib code |
//! | P01  | `unwrap`/`expect`/`panic!` need a `// PANIC:` justification | `core`, `cluster`, `snapshot` lib code |
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

/// Crates whose library code must be bit-reproducible: golden fixtures,
/// byte-identical telemetry and cluster determinism all flow through
/// them.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "core",
    "machine",
    "controller",
    "cluster",
    "chaos",
    "telemetry",
    "tracer",
    "analyzer",
    "interference",
    "workloads",
    "rhythm", // the root facade
];

/// Crates whose hot paths accumulate into f64 fingerprints; a stray
/// `f32` reorders mixed-width accumulation.
pub const F64_ONLY_CRATES: &[&str] = &["sim", "cluster", "core"];

/// One registered rule, for documentation and reports.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id (`D01`...).
    pub id: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
}

/// The rule registry. Pragmas naming ids outside this table are A01
/// findings.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D01",
        summary: "no HashMap/HashSet in deterministic crates (iteration order)",
    },
    RuleInfo {
        id: "D02",
        summary: "no wall clock (Instant::now / SystemTime) outside bench and examples",
    },
    RuleInfo {
        id: "D03",
        summary: "no entropy randomness (thread_rng / rand::random / from_entropy) outside tests",
    },
    RuleInfo {
        id: "D04",
        summary: "no f32 in sim/cluster/core hot paths (fingerprints are f64)",
    },
    RuleInfo {
        id: "U01",
        summary: "unsafe requires a // SAFETY: comment",
    },
    RuleInfo {
        id: "H01",
        summary: "#[allow(...)] requires a justification",
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
        id: "D05",
        summary:
            "no lossy numeric `as` casts (truncation or signedness change) in deterministic crates",
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
    /// Rule id (`D01`...).
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

    if d01_applies(&scope) {
        d01_hash_containers(rel_path, &scope, &code, &in_test, &mut raw);
    }
    if d02_applies(&scope) {
        d02_wall_clock(rel_path, &code, &in_test, &mut raw);
    }
    if d03_applies(&scope) {
        d03_entropy(rel_path, &code, &in_test, &mut raw);
    }
    if d04_applies(&scope) {
        d04_f32(rel_path, &scope, &code, &in_test, &mut raw);
    }
    u01_unsafe_safety(rel_path, &code, &comments, &mut raw);
    h01_allow_justified(rel_path, &code, &comments, &mut raw);
    if s01_applies(&scope, rel_path, &comments) {
        s01_snapshot_state(rel_path, &code, &in_test, &mut raw);
    }
    // The syntactic rules share one item-tree parse per file.
    if s02_applies(&scope) || d05_applies(&scope) {
        let tree = crate::itemtree::parse(&code);
        if s02_applies(&scope) {
            s02_field_coverage(rel_path, &tree, &code, &in_test, &mut raw);
        }
        if d05_applies(&scope) {
            d05_lossy_casts(rel_path, &tree, &code, &in_test, &mut raw);
        }
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

fn d01_applies(scope: &FileScope) -> bool {
    scope.kind == FileKind::Lib && DETERMINISTIC_CRATES.contains(&scope.crate_name.as_str())
}

fn d02_applies(scope: &FileScope) -> bool {
    scope.kind == FileKind::Lib && scope.crate_name != "bench"
}

fn d03_applies(scope: &FileScope) -> bool {
    scope.kind != FileKind::Test
}

fn d04_applies(scope: &FileScope) -> bool {
    scope.kind == FileKind::Lib && F64_ONLY_CRATES.contains(&scope.crate_name.as_str())
}

/// Marker comment that tags a whole module's types as snapshot state.
const SNAPSHOT_TAG: &str = "lint:snapshot-state";

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

/// D05 guards the integer identities (busy integrals, fingerprints) in
/// the deterministic crates plus the snapshot codec itself.
fn d05_applies(scope: &FileScope) -> bool {
    scope.kind == FileKind::Lib
        && (DETERMINISTIC_CRATES.contains(&scope.crate_name.as_str())
            || scope.crate_name == "snapshot")
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

/// Integer primitive → (bit width, signed). `usize`/`isize` are treated
/// as 64-bit: every supported target is 64-bit and the snapshot wire
/// format already assumes it.
fn int_prim(ty: &str) -> Option<(u16, bool)> {
    Some(match ty {
        "u8" => (8, false),
        "u16" => (16, false),
        "u32" => (32, false),
        "u64" => (64, false),
        "u128" => (128, false),
        "usize" => (64, false),
        "i8" => (8, true),
        "i16" => (16, true),
        "i32" => (32, true),
        "i64" => (64, true),
        "i128" => (128, true),
        "isize" => (64, true),
        _ => return None,
    })
}

fn float_prim(ty: &str) -> Option<u16> {
    match ty {
        "f32" => Some(32),
        "f64" => Some(64),
        _ => None,
    }
}

/// Why `src as dst` can lose information, or `None` when it cannot.
fn cast_loss(src: &str, dst: &str) -> Option<&'static str> {
    if let (Some((sb, ss)), Some((db, ds))) = (int_prim(src), int_prim(dst)) {
        if db < sb {
            return Some("truncates high bits");
        }
        if ss && !ds {
            return Some("negative values wrap");
        }
        if !ss && ds && db <= sb {
            return Some("large values change sign");
        }
        return None;
    }
    if float_prim(src).is_some() && int_prim(dst).is_some() {
        return Some("truncates the fraction and saturates");
    }
    if let (Some(sb), Some(db)) = (float_prim(src), float_prim(dst)) {
        if db < sb {
            return Some("loses precision");
        }
    }
    // int → float is deliberate policy: rounding above 2^53 is a
    // metrics concern, not a truncation, and flagging it would bury the
    // report in reporting-path noise.
    None
}

/// The primitive named by a type annotation like `u64` (a single
/// token, ignoring a leading `&`).
fn prim_head(ty: &[String]) -> Option<&str> {
    let ty = if ty.first().is_some_and(|t| t == "&") {
        &ty[1..]
    } else {
        ty
    };
    match ty {
        [p] if int_prim(p).is_some() || float_prim(p).is_some() => Some(p),
        _ => None,
    }
}

/// The element primitive of `Vec<prim>` or `[prim; N]`.
fn elem_prim(ty: &[String]) -> Option<&str> {
    match ty {
        [v, lt, p, ..] if v == "Vec" && lt == "<" => {
            (int_prim(p).is_some() || float_prim(p).is_some()).then_some(p.as_str())
        }
        [lb, p, semi, ..] if lb == "[" && semi == ";" => {
            (int_prim(p).is_some() || float_prim(p).is_some()).then_some(p.as_str())
        }
        _ => None,
    }
}

/// The numeric suffix of a literal token (`42u128` → `u128`).
fn literal_suffix(text: &str) -> Option<&'static str> {
    const SUFFIXES: &[&str] = &[
        "u128", "usize", "u16", "u32", "u64", "u8", "i128", "isize", "i16", "i32", "i64", "i8",
        "f32", "f64",
    ];
    SUFFIXES.iter().find(|s| text.ends_with(**s)).copied()
}

/// One locally-visible typed binding inside a fn body: a parameter or a
/// `let <name>: <ty>` statement, at token index `at`.
struct LocalBinding {
    at: usize,
    name: String,
    ty: Vec<String>,
}

/// D05: flag `as` casts whose source type is locally evident and whose
/// (source, target) pair can truncate or change signedness. Source
/// types come from literal suffixes, `let name: ty` bindings, fn
/// parameters, `self.field` / `self.field[...]` against same-file
/// struct definitions, `.len()`/`.capacity()` (→ `usize`), and `as T1
/// as T2` chains. Anything the file does not annotate is skipped — a
/// syntactic pass must under-approximate, not guess (DESIGN.md §10).
fn d05_lossy_casts(
    rel_path: &str,
    tree: &crate::itemtree::ItemTree,
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    // Map each fn to its enclosing impl's self-type fields (if any).
    let mut fn_self_fields: Vec<Option<&Vec<crate::itemtree::Field>>> = vec![None; tree.fns.len()];
    for imp in &tree.impls {
        let fields = tree
            .struct_named(&imp.type_name)
            .and_then(|s| s.fields.as_ref());
        for &fi in &imp.fns {
            fn_self_fields[fi] = fields;
        }
    }
    for (fi, f) in tree.fns.iter().enumerate() {
        let Some((lo, hi)) = f.body else { continue };
        let hi = hi.min(code.len());
        // Locally-visible typed bindings: params first, then `let`s.
        let mut env: Vec<LocalBinding> = f
            .params
            .iter()
            .map(|(name, ty)| LocalBinding {
                at: lo,
                name: name.clone(),
                ty: ty.clone(),
            })
            .collect();
        let mut k = lo;
        while k < hi {
            if is_ident(code[k], "let") {
                let mut j = k + 1;
                if j < hi && is_ident(code[j], "mut") {
                    j += 1;
                }
                if j + 1 < hi && code[j].kind == TokenKind::Ident && is_punct(code[j + 1], ':') {
                    let ty_end = scan_past_type(code, j + 2, hi);
                    env.push(LocalBinding {
                        at: j,
                        name: code[j].text.clone(),
                        ty: code[j + 2..ty_end].iter().map(|t| t.text.clone()).collect(),
                    });
                }
            }
            k += 1;
        }
        for k in lo..hi {
            if !is_ident(code[k], "as") || in_test(code[k].line) {
                continue;
            }
            let Some(dst) = code.get(k + 1).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            if int_prim(&dst.text).is_none() && float_prim(&dst.text).is_none() {
                continue;
            }
            let Some(src) = resolve_cast_source(code, lo, k, &env, fn_self_fields[fi]) else {
                continue;
            };
            if let Some(why) = cast_loss(&src, &dst.text) {
                out.push(Finding {
                    file: rel_path.to_string(),
                    line: code[k].line,
                    rule: "D05",
                    message: format!(
                        "lossy cast `{src} as {}` — {why}; use `try_into` or widen the target",
                        dst.text
                    ),
                });
            }
        }
    }
}

/// Advances past a type annotation starting at `j`: stops at a depth-0
/// `=`, `;`, or `)` (tracking `<>`, `()`, `[]`).
fn scan_past_type(code: &[&Token], j: usize, hi: usize) -> usize {
    let mut k = j;
    let mut angle = 0usize;
    let mut paren = 0usize;
    let mut bracket = 0usize;
    while k < hi {
        let t = code[k];
        if angle == 0 && paren == 0 && bracket == 0 {
            if is_punct(t, '=') || is_punct(t, ';') {
                return k;
            }
            if is_punct(t, ')') {
                return k;
            }
        }
        if is_punct(t, '<') {
            angle += 1;
        } else if is_punct(t, '>') {
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
    hi
}

/// The matching opener index for the closer at `b`, scanning back no
/// further than `lo`.
fn match_back(code: &[&Token], lo: usize, b: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = b;
    loop {
        if is_punct(code[k], close) {
            depth += 1;
        } else if is_punct(code[k], open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        if k == lo {
            return None;
        }
        k -= 1;
    }
}

/// Resolves the source type of the cast whose `as` sits at `as_idx`,
/// looking only at the token(s) immediately before it. Returns `None`
/// when the type is not locally evident.
fn resolve_cast_source(
    code: &[&Token],
    lo: usize,
    as_idx: usize,
    env: &[LocalBinding],
    self_fields: Option<&Vec<crate::itemtree::Field>>,
) -> Option<String> {
    if as_idx == 0 || as_idx <= lo {
        return None;
    }
    let b = as_idx - 1;
    let t = code[b];
    // `42u128 as u64`
    if t.kind == TokenKind::Num {
        return literal_suffix(&t.text).map(str::to_string);
    }
    if t.kind == TokenKind::Ident {
        // `x as u128 as u64` — the chained source is the previous target.
        if b > lo
            && is_ident(code[b - 1], "as")
            && (int_prim(&t.text).is_some() || float_prim(&t.text).is_some())
        {
            return Some(t.text.clone());
        }
        // `self.field as _`
        if b >= 2 && is_punct(code[b - 1], '.') && is_ident(code[b - 2], "self") {
            let f = self_fields?.iter().find(|f| f.name == t.text)?;
            return prim_head(&f.ty).map(str::to_string);
        }
        // An annotated local or parameter: nearest binding before use.
        let bind = env
            .iter()
            .filter(|e| e.name == t.text && e.at <= b)
            .max_by_key(|e| e.at)?;
        return prim_head(&bind.ty).map(str::to_string);
    }
    if is_punct(t, ')') {
        let open = match_back(code, lo, b, '(', ')')?;
        // `x.len() as _` / `x.capacity() as _`
        if open >= 2
            && open + 1 == b
            && code[open - 1].kind == TokenKind::Ident
            && (code[open - 1].text == "len" || code[open - 1].text == "capacity")
            && is_punct(code[open - 2], '.')
        {
            return Some("usize".to_string());
        }
        // `(x) as _` — a grouping paren (no call head) around one token.
        let call_head = open > lo
            && (code[open - 1].kind == TokenKind::Ident
                || is_punct(code[open - 1], ')')
                || is_punct(code[open - 1], ']'));
        if !call_head && open + 2 == b {
            return resolve_cast_source(code, lo, open + 2, env, self_fields);
        }
        return None;
    }
    if is_punct(t, ']') {
        let open = match_back(code, lo, b, '[', ']')?;
        if open == lo || open == 0 {
            return None;
        }
        let head = open - 1;
        if code[head].kind != TokenKind::Ident {
            return None;
        }
        // `self.field[i] as _`
        if head >= 2 && is_punct(code[head - 1], '.') && is_ident(code[head - 2], "self") {
            let f = self_fields?.iter().find(|f| f.name == code[head].text)?;
            return elem_prim(&f.ty).map(str::to_string);
        }
        // `local[i] as _`
        let bind = env
            .iter()
            .filter(|e| e.name == code[head].text && e.at <= head)
            .max_by_key(|e| e.at)?;
        return elem_prim(&bind.ty).map(str::to_string);
    }
    None
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

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

fn d01_hash_containers(
    rel_path: &str,
    scope: &FileScope,
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    // Pass A: every non-import mention of a hash container is a finding,
    // and named bindings are registered for the iteration pass.
    let mut bound: Vec<String> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        if in_use_statement(code, i) || in_test(t.line) {
            continue;
        }
        out.push(Finding {
            file: rel_path.to_string(),
            line: t.line,
            rule: "D01",
            message: format!(
                "`{}` in deterministic crate `{}` — iteration order is nondeterministic; \
                 use BTreeMap/BTreeSet, or `lint:allow(D01)` with a reason if lookup-only",
                t.text, scope.crate_name
            ),
        });
        // `name: HashMap<...>` or `name = HashMap::new()` (skipping `&`,
        // `mut` between) registers `name`.
        let mut j = i;
        while j > 0 && (is_punct(code[j - 1], '&') || is_ident(code[j - 1], "mut")) {
            j -= 1;
        }
        if j >= 2
            && (is_punct(code[j - 1], ':') || is_punct(code[j - 1], '='))
            && code[j - 2].kind == TokenKind::Ident
        {
            let name = code[j - 2].text.clone();
            if !bound.contains(&name) {
                bound.push(name);
            }
        }
    }
    // Pass B: iteration over a registered binding.
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !bound.contains(&t.text) || in_test(t.line) {
            continue;
        }
        // `name.keys()` / `.values()` / `.drain()` / ...
        if i + 3 < code.len()
            && is_punct(code[i + 1], '.')
            && code[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&code[i + 2].text.as_str())
            && is_punct(code[i + 3], '(')
        {
            out.push(Finding {
                file: rel_path.to_string(),
                line: code[i + 2].line,
                rule: "D01",
                message: format!(
                    "iteration `.{}()` over hash container `{}` — order is nondeterministic",
                    code[i + 2].text,
                    t.text
                ),
            });
        }
        // `for x in &name {` / `for x in name {`
        let mut j = i;
        while j > 0 && (is_punct(code[j - 1], '&') || is_ident(code[j - 1], "mut")) {
            j -= 1;
        }
        if j > 0 && is_ident(code[j - 1], "in") && i + 1 < code.len() && is_punct(code[i + 1], '{')
        {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "D01",
                message: format!(
                    "`for ... in` over hash container `{}` — order is nondeterministic",
                    t.text
                ),
            });
        }
    }
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

fn d03_entropy(
    rel_path: &str,
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(t.line) {
            continue;
        }
        if t.text == "thread_rng" || t.text == "from_entropy" {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "D03",
                message: format!("entropy randomness `{}` — seed a `SimRng` instead", t.text),
            });
        }
        if t.text == "rand"
            && i + 3 < code.len()
            && is_punct(code[i + 1], ':')
            && is_punct(code[i + 2], ':')
            && is_ident(code[i + 3], "random")
        {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "D03",
                message: "entropy randomness `rand::random` — seed a `SimRng` instead".to_string(),
            });
        }
    }
}

fn d04_f32(
    rel_path: &str,
    scope: &FileScope,
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for t in code {
        if in_test(t.line) {
            continue;
        }
        let hit = (t.kind == TokenKind::Ident && t.text == "f32")
            || (t.kind == TokenKind::Num && t.text.ends_with("f32"));
        if hit {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "D04",
                message: format!(
                    "`f32` in `{}` hot path — fingerprints accumulate in f64; \
                     mixed-width accumulation reorders",
                    scope.crate_name
                ),
            });
        }
    }
}

fn u01_unsafe_safety(rel_path: &str, code: &[&Token], comments: &[&Token], out: &mut Vec<Finding>) {
    for t in code {
        if !is_ident(t, "unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(3);
        let justified = comments
            .iter()
            .any(|c| c.line >= lo && c.line <= t.line && c.text.contains("SAFETY:"));
        if !justified {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "U01",
                message: "`unsafe` without a `// SAFETY:` comment on or above it".to_string(),
            });
        }
    }
}

fn h01_allow_justified(
    rel_path: &str,
    code: &[&Token],
    comments: &[&Token],
    out: &mut Vec<Finding>,
) {
    for (i, t) in code.iter().enumerate() {
        // `#[allow(` or `#![allow(`.
        let attr_head = is_ident(t, "allow")
            && i >= 2
            && is_punct(code[i - 1], '[')
            && (is_punct(code[i - 2], '#')
                || (is_punct(code[i - 2], '!') && i >= 3 && is_punct(code[i - 3], '#')))
            && i + 1 < code.len()
            && is_punct(code[i + 1], '(');
        if !attr_head {
            continue;
        }
        // Find the attribute's closing `]` (bounded scan).
        let mut close_line = t.line;
        let mut reason_arg = false;
        for tok in code.iter().skip(i).take(50) {
            if is_ident(tok, "reason") {
                reason_arg = true;
            }
            if is_punct(tok, ']') {
                close_line = tok.line;
                break;
            }
        }
        let start_line = t.line.saturating_sub(1);
        let justified = reason_arg
            || comments
                .iter()
                .any(|c| c.line >= start_line && c.line <= close_line);
        if !justified {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                rule: "H01",
                message: "`#[allow(...)]` without a justification — add a trailing `// why` \
                          comment (or one on the line above)"
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
    fn d01_flags_declaration_and_iteration() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let mut m: HashMap<u32, u32> = HashMap::new();\n\
                   for (k, v) in &m {}\n\
                   let _ = m.keys();\n\
                   }\n";
        let l = run("crates/sim/src/x.rs", src);
        // Two type mentions on line 3, the for-loop, and `.keys()`.
        assert_eq!(rules_of(&l), vec!["D01", "D01", "D01", "D01"]);
        assert_eq!(l.findings[0].line, 3);
        assert_eq!(l.findings[2].line, 4);
        assert_eq!(l.findings[3].line, 5);
    }

    #[test]
    fn d01_ignores_use_lines_tests_and_other_crates() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { let m: HashMap<u8, u8> = HashMap::new(); }\n\
                   }\n";
        assert!(run("crates/sim/src/x.rs", src).findings.is_empty());
        let decl = "fn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        assert!(run("crates/bench/src/x.rs", decl).findings.is_empty());
        assert!(run("crates/sim/tests/x.rs", decl).findings.is_empty());
        assert!(run("crates/sim/examples/x.rs", decl).findings.is_empty());
    }

    #[test]
    fn d01_suppression_needs_matching_rule_and_line() {
        let src = "// lint:allow(D01) -- lookup-only\n\
                   fn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n\
                   fn g() { let n: HashSet<u8> = HashSet::new(); }\n";
        let l = run("crates/core/src/x.rs", src);
        assert_eq!(l.suppressed.len(), 2); // both mentions on line 2
        assert_eq!(l.suppressed[0].reason, "lookup-only");
        assert_eq!(rules_of(&l), vec!["D01", "D01"]); // line 3 not covered
        assert_eq!(l.findings[0].line, 3);
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
    fn d03_entropy_everywhere_but_tests() {
        let src = "fn f() { let r = thread_rng(); let x: u8 = rand::random(); }";
        assert_eq!(
            rules_of(&run("crates/bench/src/x.rs", src)),
            vec!["D03", "D03"]
        );
        assert_eq!(rules_of(&run("examples/x.rs", src)), vec!["D03", "D03"]);
        assert!(run("tests/x.rs", src).findings.is_empty());
    }

    #[test]
    fn d04_f32_including_literal_suffix() {
        let src = "fn f(x: f32) -> f64 { (x as f64) + 1.5f32 as f64 }";
        let l = run("crates/sim/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["D04", "D04"]);
        assert!(run("crates/machine/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn u01_safety_comment_window() {
        let bad = "fn f() { unsafe { core(); } }";
        let l = run("crates/sim/src/x.rs", bad);
        assert_eq!(rules_of(&l), vec!["U01"]);
        let good = "fn f() {\n// SAFETY: ptr is valid for the call\nunsafe { core(); } }";
        assert!(run("crates/sim/src/x.rs", good).findings.is_empty());
    }

    #[test]
    fn h01_allow_needs_justification() {
        let bad = "#[allow(dead_code)]\nfn f() {}";
        assert_eq!(rules_of(&run("crates/sim/src/x.rs", bad)), vec!["H01"]);
        let trailing = "#[allow(dead_code)] // kept for the ffi table\nfn f() {}";
        assert!(run("crates/sim/src/x.rs", trailing).findings.is_empty());
        let above = "// scaffolding for the next PR\n#[allow(dead_code)]\nfn f() {}";
        assert!(run("crates/sim/src/x.rs", above).findings.is_empty());
        let reason = "#[allow(dead_code, reason = \"scaffolding\")]\nfn f() {}";
        assert!(run("crates/sim/src/x.rs", reason).findings.is_empty());
        let inner = "#![allow(dead_code)]\nfn f() {}";
        assert_eq!(rules_of(&run("crates/sim/src/x.rs", inner)), vec!["H01"]);
    }

    #[test]
    fn a01_pragma_requires_reason_and_known_rule() {
        let src = "// lint:allow(D01)\n// lint:allow(Z99) -- whatever\nfn f() {}";
        let l = run("crates/sim/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["A01", "A01"]);
        assert!(l.findings[0].message.contains("requires a reason"));
        assert!(l.findings[1].message.contains("unknown rule id `Z99`"));
    }

    #[test]
    fn prose_mentioning_the_pragma_syntax_is_inert() {
        // Doc comments *about* the pragma (like this engine's own docs)
        // must not parse as pragma attempts.
        let src = "//! The escape hatch is `// lint:allow(D01) -- why`.\n\
                   // see lint:allow(...) in DESIGN.md\nfn f() {}";
        assert!(run("crates/sim/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn malformed_pragma_does_not_suppress() {
        let src = "// lint:allow(D01)\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let l = run("crates/sim/src/x.rs", src);
        // A01 for the pragma plus the two unsuppressed D01s.
        assert_eq!(rules_of(&l), vec!["A01", "D01", "D01"]);
        assert!(l.suppressed.is_empty());
    }

    #[test]
    fn findings_are_sorted_by_line_then_rule() {
        let src = "fn f() { let t = Instant::now(); }\n\
                   fn g() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let l = run("crates/sim/src/x.rs", src);
        let lines: Vec<u32> = l.findings.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn s01_flags_hash_and_pointer_fields_in_snapshot_modules() {
        // `snapshot.rs` is tagged by name; the `snapshot` crate is not in
        // DETERMINISTIC_CRATES, so the findings here are purely S01.
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

    // ---- D05: lossy casts -------------------------------------------

    #[test]
    fn d05_flags_annotated_lossy_casts() {
        let src = "\
fn f(x: u128, y: i64) -> u64 {\n\
    let a: i128 = 5;\n\
    let _ = a as i64;\n\
    let _ = y as u64;\n\
    (x as u64) + 2u128 as u64\n\
}\n";
        let l = run("crates/core/src/x.rs", src);
        let lines: Vec<(u32, &str)> = l.findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(lines, vec![(3, "D05"), (4, "D05"), (5, "D05"), (5, "D05")]);
        assert!(l.findings[0].message.contains("lossy cast `i128 as i64`"));
        assert!(l.findings[1].message.contains("negative values wrap"));
    }

    #[test]
    fn d05_widening_and_unknown_sources_pass() {
        let src = "\
fn f(x: u32, v: Vec<u64>) -> u128 {\n\
    let a = x as u64;\n\
    let b = helper() as u64;\n\
    let c = v[0] as u128;\n\
    (a as u128) + b as u128 + c\n\
}\n";
        assert!(run("crates/core/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn d05_len_and_field_sources() {
        let src = "\
struct S { counts: Vec<u128>, total: u64 }\n\
impl S {\n\
    fn f(&self, v: Vec<u8>) -> u32 {\n\
        let a = v.len() as u32;\n\
        let b = self.counts[0] as u64;\n\
        let c = self.total as u32;\n\
        a + b as u32 + c\n\
    }\n\
}\n";
        let l = run("crates/sim/src/x.rs", src);
        let lines: Vec<u32> = l.findings.iter().map(|f| f.line).collect();
        // len() → usize as u32; counts elem u128 as u64; total u64 as u32;
        // b (annotated via let? no — b is unannotated) … only the three.
        assert_eq!(lines, vec![4, 5, 6]);
        assert!(l.findings.iter().all(|f| f.rule == "D05"));
    }

    #[test]
    fn d05_scope_is_deterministic_crates_plus_snapshot() {
        let src = "fn f(x: u128) -> u64 { x as u64 }";
        assert_eq!(
            rules_of(&run("crates/snapshot/src/lib.rs", src)),
            vec!["D05"]
        );
        assert!(run("crates/bench/src/x.rs", src).findings.is_empty());
        assert!(run("crates/core/tests/x.rs", src).findings.is_empty());
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
