//! Fixture-based rule-engine tests: known-bad sources with pinned
//! `file:line: rule` output.
//!
//! The fixtures live under `tests/fixtures/` (which the workspace walk
//! skips) and are linted under synthetic `crates/<name>/src/...` labels
//! so the lib-code policy of that crate applies to them.

use rhythm_lint::lint_source;
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(p).expect("fixture readable")
}

#[test]
fn determinism_fixture_pins_exact_findings() {
    let src = fixture("bad_determinism.rs");
    let label = "crates/sim/src/bad_determinism.rs";
    let l = lint_source(label, &src);
    let got: Vec<String> = l
        .findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.file, f.line, f.rule))
        .collect();
    let want = [
        "crates/sim/src/bad_determinism.rs:7:D02", // Instant::now
        "crates/sim/src/bad_determinism.rs:8:D02", // SystemTime
    ];
    assert_eq!(got, want, "full findings: {:#?}", l.findings);
    assert!(l.suppressed.is_empty());
}

#[test]
fn hygiene_fixture_pins_exact_findings() {
    let src = fixture("bad_hygiene.rs");
    let l = lint_source("crates/sim/src/bad_hygiene.rs", &src);
    let got: Vec<String> = l
        .findings
        .iter()
        .map(|f| format!("{}:{}", f.line, f.rule))
        .collect();
    assert_eq!(
        got,
        vec!["4:A01", "7:A01", "10:A01", "13:A01"],
        "full findings: {:#?}",
        l.findings
    );
    assert!(l.findings[0].message.contains("requires a reason"));
    assert!(l.findings[1].message.contains("unknown rule id `Z99`"));
    assert!(l.findings[2].message.contains("unknown rule id `D01`"));
    assert!(l.findings[3].message.contains("unknown rule id `S02`"));
}

#[test]
fn suppressed_fixture_is_clean_but_audited() {
    let src = fixture("suppressed_clean.rs");
    let l = lint_source("crates/sim/src/suppressed_clean.rs", &src);
    assert!(
        l.findings.is_empty(),
        "expected clean, got: {:#?}",
        l.findings
    );
    let got: Vec<String> = l
        .suppressed
        .iter()
        .map(|s| format!("{}:{}:{}", s.finding.line, s.finding.rule, s.reason))
        .collect();
    assert_eq!(got, vec!["7:D02:operator-facing stopwatch, not sim time"]);
}

#[test]
fn same_source_under_exempt_scope_is_clean() {
    // The identical bad source linted as bench code, an example, a
    // test or a bench answers to no rule: D02 covers library code
    // outside the benchmark harness only, in a crate or at the root.
    let src = fixture("bad_determinism.rs");
    for label in [
        "crates/bench/src/bad.rs",
        "crates/sim/examples/bad.rs",
        "crates/sim/tests/bad.rs",
        "crates/sim/benches/bad.rs",
        "examples/quickstart.rs",
        "tests/golden.rs",
        "benches/bad.rs",
    ] {
        let l = lint_source(label, &src);
        assert!(l.findings.is_empty(), "{label}: {:#?}", l.findings);
    }
}

/// Golden pin for the summary-line format. `results/lint.txt` and the
/// CI log grep both key off this exact shape — change it and this test
/// (plus the checked-in report) must change with it.
#[test]
fn summary_line_format_is_pinned() {
    use rhythm_lint::{render_text, Finding, WorkspaceReport};
    let report = WorkspaceReport {
        files_scanned: 3,
        findings: vec![Finding {
            file: "crates/sim/src/a.rs".into(),
            line: 4,
            rule: "D02",
            message: "no".into(),
        }],
        suppressed: Vec::new(),
    };
    let text = render_text(&report);
    assert!(text.ends_with("3 file(s) scanned, 1 finding(s), 0 suppressed\n"));

    // The checked-in artifact carries a line of the same shape.
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/lint.txt");
    let txt = std::fs::read_to_string(artifact).expect("results/lint.txt checked in");
    let summary = txt
        .lines()
        .find(|l| l.ends_with("suppressed") && l.contains("file(s) scanned"))
        .expect("summary line present");
    let parts: Vec<&str> = summary.split(", ").collect();
    assert_eq!(parts.len(), 3, "summary: {summary}");
    assert!(parts[0].ends_with(" file(s) scanned"), "summary: {summary}");
    assert!(parts[1].ends_with(" finding(s)"), "summary: {summary}");
    assert!(parts[2].ends_with(" suppressed"), "summary: {summary}");
    for (part, suffix) in parts
        .iter()
        .zip([" file(s) scanned", " finding(s)", " suppressed"])
    {
        let n = part.strip_suffix(suffix).expect("numeric prefix");
        assert!(n.chars().all(|c| c.is_ascii_digit()), "summary: {summary}");
    }
}
