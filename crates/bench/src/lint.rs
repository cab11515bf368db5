//! `repro lint` — the rhythm-lint determinism & invariant pass over the
//! whole workspace, reported like every other experiment
//! (`results/lint.{txt,json}`).
//!
//! The JSON document is deterministic: files are walked in sorted
//! order, findings are sorted by (file, line, rule), and the renderer
//! has no timestamps — two consecutive runs are byte-identical. The
//! process exits non-zero when any unsuppressed finding remains, so the
//! CI job fails on the report it just uploaded.
//!
//! With `--github` the pass additionally prints one GitHub Actions
//! `::error file=...,line=...::` workflow command per unsuppressed
//! finding, so a CI run annotates the offending lines inline in the PR
//! diff. The `results/lint.{txt,json}` artifacts are byte-identical
//! with and without the flag.

use crate::report::Report;
use rhythm_lint::{lint_workspace, render_github, RULES};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// The workspace root: fixed at compile time relative to this crate, so
/// `repro lint` works from any working directory. Overridable with
/// `RHYTHM_LINT_ROOT` (the self-tests use a scratch tree).
fn workspace_root() -> PathBuf {
    if let Ok(root) = std::env::var("RHYTHM_LINT_ROOT") {
        return PathBuf::from(root);
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| manifest.join("../.."))
}

/// Runs the pass and writes `results/lint.{txt,json}`. With `github`
/// set, also prints one `::error` workflow command per unsuppressed
/// finding (annotations, not artifacts — the written reports do not
/// change). Exits with status 2 when unsuppressed findings remain.
pub fn run(github: bool) -> std::io::Result<()> {
    let root = workspace_root();
    let ws = lint_workspace(&root)?;
    if github {
        print!("{}", render_github(&ws));
    }

    let mut r = Report::new("lint", "rhythm-lint determinism & invariant pass");
    // Every path below is relative to the workspace root, and so is the
    // root itself: the report reads the same in any checkout.
    r.line("workspace: .");
    r.line(format!(
        "{} file(s) scanned, {} finding(s), {} suppressed",
        ws.files_scanned,
        ws.findings.len(),
        ws.suppressed.len()
    ));
    r.blank();
    r.line("rules:");
    for rule in RULES {
        r.line(format!("  {}  {}", rule.id, rule.summary));
    }
    r.blank();
    if ws.is_clean() {
        r.line("no unsuppressed findings");
    } else {
        r.line("findings:");
        for f in &ws.findings {
            r.line(format!("  {}", f.render()));
        }
    }
    if !ws.suppressed.is_empty() {
        r.blank();
        r.line("suppressed (pragma with reason):");
        for s in &ws.suppressed {
            r.line(format!(
                "  {}:{}: {} -- {}",
                s.finding.file, s.finding.line, s.finding.rule, s.reason
            ));
        }
    }
    let findings: Vec<Value> = ws
        .findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("file".into(), Value::String(f.file.clone())),
                ("line".into(), Value::UInt(f.line as u64)),
                ("rule".into(), Value::String(f.rule.to_string())),
                ("message".into(), Value::String(f.message.clone())),
            ])
        })
        .collect();
    let suppressed: Vec<Value> = ws
        .suppressed
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("file".into(), Value::String(s.finding.file.clone())),
                ("line".into(), Value::UInt(s.finding.line as u64)),
                ("rule".into(), Value::String(s.finding.rule.to_string())),
                ("reason".into(), Value::String(s.reason.clone())),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("tool".into(), Value::String("rhythm-lint".into())),
        ("schema".into(), Value::String("rhythm-lint/v1".into())),
        ("files_scanned".into(), Value::UInt(ws.files_scanned as u64)),
        ("unsuppressed".into(), Value::UInt(ws.findings.len() as u64)),
        ("suppressed".into(), Value::UInt(ws.suppressed.len() as u64)),
        ("findings".into(), Value::Array(findings)),
        ("suppressed_findings".into(), Value::Array(suppressed)),
    ]);
    let clean = ws.is_clean();
    r.finish(&doc)?;
    if !clean {
        eprintln!("[repro] lint: unsuppressed findings — failing");
        std::process::exit(2);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_points_at_the_repo() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists(), "{}", root.display());
        assert!(root.join("crates/lint").exists());
    }
}
