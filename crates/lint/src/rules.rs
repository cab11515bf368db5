//! The rule engine: the repository's own invariants over one file's
//! token stream.
//!
//! A rule's scope is decided by the file's workspace-relative path, so
//! the same pass runs over the whole workspace and each file only
//! answers for the contracts its layer actually sells. `#[cfg(test)]`
//! modules inside library files are excluded the same way `tests/`
//! directories are.
//!
//! | rule | invariant | scope |
//! |------|-----------|-------|
//! | D02  | no wall clock (`Instant::now`, `SystemTime`) | all lib code except `crates/bench` |
//! | A01  | every `// lint:allow(...)` pragma needs a reason and a known rule id | everywhere |
//!
//! Every other repository rule is a compiler or clippy check (DESIGN.md
//! §10): the workspace `clippy.toml` bans `HashMap`, `HashSet`,
//! `RandomState` and `f32` (`disallowed-types`); `[workspace.lints.clippy]`
//! in the root manifest turns on the cast lints (lossy casts and
//! `cast_lossless`), `allow_attributes_without_reason` and
//! `undocumented_unsafe_blocks`; `rhythm-core`, `rhythm-cluster` and
//! `rhythm-snapshot` deny `unwrap`/`expect`/`panic!` outside tests; and
//! every snapshot `encode` destructures its type exhaustively, so a field
//! it forgets is an unused variable under `-D warnings`.
//!
//! The escape hatch is `// lint:allow(<rule>) -- <reason>` on the
//! finding's line or the line above; the reason is mandatory (A01).
use crate::lexer::{Token, TokenKind};

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

    if d02_applies(rel_path) {
        d02_wall_clock(rel_path, &code, &in_test, &mut raw);
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

/// D02 covers library and binary source outside `crates/bench`;
/// examples, tests and benches answer to no rule.
fn d02_applies(rel_path: &str) -> bool {
    let in_dir =
        |d: &str| rel_path.starts_with(&format!("{d}/")) || rel_path.contains(&format!("/{d}/"));
    !(in_dir("examples")
        || in_dir("tests")
        || in_dir("benches")
        || rel_path.starts_with("crates/bench/"))
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
        // Library code of a crate and of the root facade is in scope.
        for label in ["crates/controller/src/x.rs", "src/lib.rs"] {
            assert_eq!(rules_of(&run(label, src)), vec!["D02", "D02"], "{label}");
        }
        assert!(run("crates/bench/src/x.rs", src).findings.is_empty());
        assert!(run("crates/sim/examples/x.rs", src).findings.is_empty());
    }

    #[test]
    fn a01_pragma_requires_reason_and_known_rule() {
        // `D05` and `S02` are retired ids: their rules moved to clippy
        // and the compiler, so a pragma still naming one is stale and
        // must not survive.
        let src = "// lint:allow(D02)\n\
                   // lint:allow(Z99) -- whatever\n\
                   // lint:allow(D05) -- intentional wrap\n\
                   // lint:allow(S02) -- derived field\n\
                   fn f() {}";
        let l = run("crates/sim/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["A01", "A01", "A01", "A01"]);
        assert!(l.findings[0].message.contains("requires a reason"));
        assert!(l.findings[1].message.contains("unknown rule id `Z99`"));
        assert!(l.findings[2].message.contains("unknown rule id `D05`"));
        assert!(l.findings[3].message.contains("unknown rule id `S02`"));
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
        let src = "fn f() { let t = Instant::now(); } // lint:allow(Z99) -- x\n\
                   fn g() { let s = SystemTime::now(); }\n";
        let l = run("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&l), vec!["A01", "D02", "D02"]);
        let lines: Vec<u32> = l.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 1, 2]);
    }
}
