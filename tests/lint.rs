//! Tier-1 gate: the rhythm-lint pass must be clean over the whole
//! workspace.
//!
//! The pass keeps two rules: an `Instant::now()` or `SystemTime` in
//! simulation code (D02) fails the build here, at the source level,
//! instead of showing up later as a scrambled golden fingerprint, and a
//! `// lint:allow(<rule>) -- <reason>` pragma without a reason or naming
//! an unknown rule is a finding itself (A01); see DESIGN.md §10. Every
//! other rule (hash containers, `f32`, casts, unjustified panics in the
//! resumable crates, snapshot field coverage) is a compiler or clippy
//! check and gates in CI's clippy job, not here.

use rhythm::lint::{lint_source, lint_workspace, render_text};
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = lint_workspace(root()).expect("workspace walk");
    assert!(report.files_scanned > 50, "walk looks truncated");
    assert!(
        report.is_clean(),
        "unsuppressed lint findings:\n{}",
        render_text(&report)
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    // A01 already fails reason-less pragmas as findings; this pins the
    // invariant from the other side — whatever *was* suppressed must
    // carry a non-empty reason in the report.
    let report = lint_workspace(root()).expect("workspace walk");
    for s in &report.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "{}:{} {} suppressed without a reason",
            s.finding.file,
            s.finding.line,
            s.finding.rule
        );
    }
}

#[test]
fn gate_actually_fails_on_violations() {
    // Self-test of the gate itself: lint known-bad sources under lib
    // labels and verify the pass would fail the build. If this ever
    // reports clean, the gate above is vacuous.
    let fixture = |name: &str| {
        std::fs::read_to_string(root().join("crates/lint/tests/fixtures").join(name))
            .expect("fixture readable")
    };
    for (rule, label, src) in [
        (
            "D02",
            "crates/sim/src/injected.rs",
            fixture("bad_determinism.rs"),
        ),
        (
            "A01",
            "crates/core/src/injected.rs",
            fixture("bad_hygiene.rs"),
        ),
    ] {
        let lint = lint_source(label, &src);
        assert!(
            lint.findings.iter().any(|f| f.rule == rule),
            "rule {rule} did not fire on its bad source: {:#?}",
            lint.findings
        );
    }
}

#[test]
fn lint_output_is_byte_identical_across_runs() {
    // `repro lint` writes `results/lint.json` from exactly these fields.
    let a = lint_workspace(root()).expect("first run");
    let b = lint_workspace(root()).expect("second run");
    assert_eq!(a.files_scanned, b.files_scanned);
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.suppressed, b.suppressed);
    assert_eq!(render_text(&a), render_text(&b));
}
