//! `rhythm-lint` — determinism & invariant static analysis for the
//! Rhythm workspace.
//!
//! Every guarantee this repository sells — bit-identical golden
//! fixtures, byte-identical telemetry for any worker-thread count,
//! reproducible Rhythm-vs-Heracles numbers — rests on determinism
//! invariants that ordinary tests only catch *after* a fingerprint
//! scrambles. This crate enforces them at the source level: a
//! dependency-free lexer (the registry is offline, so no `syn`) feeds a
//! rule engine that walks every workspace `.rs` file and reports
//! findings as `file:line: rule-id message`.
//!
//! Rules and their crate-scope policy live in [`rules`]; the escape
//! hatch is an inline pragma that *requires* a reason:
//!
//! ```text
//! // lint:allow(D01) -- lookup-only, never iterated
//! let mut idx: HashMap<Key, Row> = HashMap::new();
//! ```
//!
//! Three integrations keep the pass from rotting: the `repro lint`
//! subcommand (writes `results/lint.{txt,json}`), the tier-1 test
//! `tests/lint.rs` (fails the build on any unsuppressed finding), and a
//! dedicated CI job. See `DESIGN.md` §10 for the rule table and how to
//! add a rule.

#![forbid(unsafe_code)]

pub mod itemtree;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use rules::{FileLint, Finding, RuleInfo, Suppressed, RULES};
pub use scope::{FileKind, FileScope};

use std::io;
use std::path::{Path, PathBuf};

/// Directory names the workspace walk never descends into: build
/// output, vendored stand-ins, VCS metadata, and `fixtures` directories
/// (test data — including this linter's own known-bad fixtures — is not
/// production source).
pub const SKIP_DIRS: &[&str] = &["target", "vendor", "results", "fixtures"];

/// The outcome of linting a whole workspace.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Pragma-suppressed findings, same order, with their reasons.
    pub suppressed: Vec<Suppressed>,
}

impl WorkspaceReport {
    /// True when the workspace is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints one file's source under a workspace-relative path label. The
/// label alone decides the policy scope, so tests can lint fixture text
/// as if it lived anywhere in the tree.
pub fn lint_source(rel_path: &str, src: &str) -> FileLint {
    rules::lint_tokens(rel_path, &lexer::lex(src))
}

/// Walks every workspace `.rs` file under `root` (skipping
/// [`SKIP_DIRS`] and hidden directories) and lints each one. File order
/// — hence finding order — is deterministic: paths are compared as
/// UTF-8 byte strings.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = WorkspaceReport {
        files_scanned: files.len(),
        ..WorkspaceReport::default()
    };
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let one = lint_source(rel, &src);
        report.findings.extend(one.findings);
        report.suppressed.extend(one.suppressed);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.suppressed.sort_by(|a, b| {
        (&a.finding.file, a.finding.line, a.finding.rule).cmp(&(
            &b.finding.file,
            b.finding.line,
            b.finding.rule,
        ))
    });
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Renders findings in the canonical `file:line: rule message` form,
/// one per line, with a trailing summary line.
pub fn render_text(report: &WorkspaceReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str(&f.render());
        s.push('\n');
    }
    s.push_str(&format!(
        "{} file(s) scanned, {} finding(s), {} suppressed\n",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len()
    ));
    s
}

/// Escapes a value for a GitHub Actions workflow-command *message*
/// (the part after `::`): `%`, `\r`, `\n` become `%25`, `%0D`, `%0A`.
fn gh_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a value for a workflow-command *property* (`file=`,
/// `title=`): data escaping plus `:` and `,`, which delimit properties.
fn gh_escape_prop(s: &str) -> String {
    gh_escape_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// Renders findings as GitHub Actions error annotations
/// (`::error file=...,line=...,title=...::message`), one per line, in
/// the report's sorted order. Suppressed findings are not annotated.
/// Empty when the workspace is clean.
pub fn render_github(report: &WorkspaceReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str(&format!(
            "::error file={},line={},title=rhythm-lint {}::{}\n",
            gh_escape_prop(&f.file),
            f.line,
            f.rule,
            gh_escape_data(&f.message)
        ));
    }
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as a stable JSON document (one finding per line;
/// byte-identical across runs on identical sources).
pub fn render_json(report: &WorkspaceReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"tool\": \"rhythm-lint\",\n");
    s.push_str("  \"schema\": \"rhythm-lint/v1\",\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"unsuppressed\": {},\n", report.findings.len()));
    s.push_str(&format!("  \"suppressed\": {},\n", report.suppressed.len()));
    s.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    s.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    s.push_str("  \"suppressed_findings\": [");
    for (i, sp) in report.suppressed.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
            json_escape(&sp.finding.file),
            sp.finding.line,
            sp.finding.rule,
            json_escape(&sp.reason)
        ));
    }
    s.push_str(if report.suppressed.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_reports_canonical_form() {
        let l = lint_source(
            "crates/sim/src/bad.rs",
            "fn f() { let m: HashSet<u8> = HashSet::new(); }",
        );
        assert_eq!(l.findings.len(), 2);
        let line = l.findings[0].render();
        assert!(
            line.starts_with("crates/sim/src/bad.rs:1: D01 "),
            "unexpected render: {line}"
        );
    }

    #[test]
    fn render_json_is_stable_and_escapes() {
        let report = WorkspaceReport {
            files_scanned: 1,
            findings: vec![Finding {
                file: "a\"b.rs".to_string(),
                line: 3,
                rule: "D01",
                message: "quote \" and backslash \\".to_string(),
            }],
            suppressed: vec![],
        };
        let a = render_json(&report);
        let b = render_json(&report);
        assert_eq!(a, b);
        assert!(a.contains("a\\\"b.rs"));
        assert!(a.contains("backslash \\\\"));
    }

    #[test]
    fn render_github_escapes_workflow_commands() {
        let report = WorkspaceReport {
            files_scanned: 1,
            findings: vec![Finding {
                file: "crates/core/src/a.rs".to_string(),
                line: 7,
                rule: "P01",
                message: "50% done\nnext".to_string(),
            }],
            suppressed: vec![],
        };
        assert_eq!(
            render_github(&report),
            "::error file=crates/core/src/a.rs,line=7,title=rhythm-lint P01::50%25 done%0Anext\n"
        );
        let clean = WorkspaceReport::default();
        assert!(render_github(&clean).is_empty());
    }

    #[test]
    fn walker_skips_fixture_and_vendor_dirs() {
        let tmp = std::env::temp_dir().join("rhythm-lint-walk-test");
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(tmp.join("src")).unwrap();
        std::fs::create_dir_all(tmp.join("vendor/x")).unwrap();
        std::fs::create_dir_all(tmp.join("tests/fixtures")).unwrap();
        std::fs::write(tmp.join("src/a.rs"), "fn a() {}").unwrap();
        std::fs::write(tmp.join("vendor/x/b.rs"), "fn b() { thread_rng(); }").unwrap();
        std::fs::write(
            tmp.join("tests/fixtures/bad.rs"),
            "fn c() { thread_rng(); }",
        )
        .unwrap();
        let report = lint_workspace(&tmp).unwrap();
        assert_eq!(report.files_scanned, 1);
        assert!(report.is_clean());
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
