//! Fixture-based rule-engine tests: known-bad sources with pinned
//! `file:line: rule` output.
//!
//! The fixtures live under `tests/fixtures/` (which the workspace walk
//! skips) and are linted under synthetic `crates/sim/src/...` labels so
//! the deterministic-crate policy applies to them.

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
        "crates/sim/src/bad_determinism.rs:9:D01", // HashMap type annotation
        "crates/sim/src/bad_determinism.rs:9:D01", // HashMap::new()
        "crates/sim/src/bad_determinism.rs:11:D01", // for ... in &m
        "crates/sim/src/bad_determinism.rs:14:D01", // m.keys()
        "crates/sim/src/bad_determinism.rs:18:D02", // Instant::now
        "crates/sim/src/bad_determinism.rs:19:D02", // SystemTime
        "crates/sim/src/bad_determinism.rs:23:D03", // thread_rng
        "crates/sim/src/bad_determinism.rs:24:D03", // rand::random
        "crates/sim/src/bad_determinism.rs:27:D04", // x: f32
        "crates/sim/src/bad_determinism.rs:28:D04", // 1.5f32 literal
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
        vec!["5:U01", "8:H01", "11:A01", "14:A01"],
        "full findings: {:#?}",
        l.findings
    );
    assert!(l.findings[2].message.contains("requires a reason"));
    assert!(l.findings[3].message.contains("unknown rule id `Z99`"));
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
    assert_eq!(
        got,
        vec![
            "9:D01:lookup-only, never iterated",
            "20:D02:operator-facing stopwatch, not sim time",
        ]
    );
}

#[test]
fn same_source_under_exempt_scope_is_clean() {
    // The identical bad source linted as bench code or an example only
    // answers for the rules scoped there (D03 still applies to examples).
    let src = fixture("bad_determinism.rs");
    let as_bench = lint_source("crates/bench/src/bad.rs", &src);
    assert!(
        as_bench.findings.iter().all(|f| f.rule == "D03"),
        "bench scope should only keep D03: {:#?}",
        as_bench.findings
    );
    let as_test = lint_source("crates/sim/tests/bad.rs", &src);
    assert!(as_test.findings.is_empty());
}

#[test]
fn snapshot_missing_field_fixture_pins_exact_findings() {
    let src = fixture("bad_snapshot_missing.rs");
    let l = lint_source("crates/cluster/src/bad_snapshot_missing.rs", &src);
    let got: Vec<String> = l
        .findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.file, f.line, f.rule))
        .collect();
    let want = [
        "crates/cluster/src/bad_snapshot_missing.rs:9:S02", // `slots` never encoded
        "crates/cluster/src/bad_snapshot_missing.rs:18:S02", // `self.ghost` is not a field
    ];
    assert_eq!(got, want, "full findings: {:#?}", l.findings);
    assert!(l.findings[0]
        .message
        .contains("`slots` of `ShardLedger` is never written"));
    assert!(l.findings[1].message.contains("`self.ghost`"));
    assert!(l.suppressed.is_empty());
}

#[test]
fn snapshot_reorder_fixture_pins_exact_finding() {
    let src = fixture("bad_snapshot_order.rs");
    let l = lint_source("crates/cluster/src/bad_snapshot_order.rs", &src);
    let got: Vec<String> = l
        .findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.file, f.line, f.rule))
        .collect();
    assert_eq!(
        got,
        ["crates/cluster/src/bad_snapshot_order.rs:7:S02"],
        "full findings: {:#?}",
        l.findings
    );
    assert!(l.findings[0]
        .message
        .contains("decoded out of encode order"));
}

#[test]
fn panic_fixture_pins_exact_findings() {
    let src = fixture("bad_panics.rs");
    let l = lint_source("crates/core/src/bad_panics.rs", &src);
    let got: Vec<String> = l
        .findings
        .iter()
        .map(|f| format!("{}:{}", f.line, f.rule))
        .collect();
    assert_eq!(
        got,
        vec!["5:P01", "9:P01", "14:P01"],
        "full: {:#?}",
        l.findings
    );
    // The justified unwrap at the bottom stays silent.
    assert!(l.findings.iter().all(|f| f.line < 20));
    // Outside the audited crates the fixture is clean.
    assert!(lint_source("crates/sim/src/bad_panics.rs", &src)
        .findings
        .is_empty());
}

#[test]
fn cast_fixture_pins_exact_findings() {
    let src = fixture("bad_casts.rs");
    let l = lint_source("crates/core/src/bad_casts.rs", &src);
    let got: Vec<String> = l
        .findings
        .iter()
        .map(|f| format!("{}:{}", f.line, f.rule))
        .collect();
    assert_eq!(
        got,
        vec!["12:D05", "13:D05", "14:D05", "15:D05", "16:D05", "17:D05"],
        "full: {:#?}",
        l.findings
    );
    assert!(l.findings[0].message.contains("`u128 as u64`"));
    assert!(l.findings[4].message.contains("`u64 as i64`"));
    assert!(l.findings[5].message.contains("`usize as u32`"));
}

/// The acceptance drill for S02: take the real scheduler snapshot impl,
/// delete one field's encode line, and the lint pass must catch it —
/// before any runtime test would.
#[test]
fn deleting_a_real_encode_line_trips_s02() {
    let real = Path::new(env!("CARGO_MANIFEST_DIR")).join("../cluster/src/snapshot.rs");
    let src = std::fs::read_to_string(real).expect("real snapshot source");
    let label = "crates/cluster/src/snapshot.rs";
    // Pristine source: no unsuppressed findings of any rule.
    let clean = lint_source(label, &src);
    assert!(
        clean.findings.is_empty(),
        "real snapshot.rs should be clean: {:#?}",
        clean.findings
    );
    // Drop the `rr_cursor` write from SchedulerState::encode.
    let broken: String = src
        .lines()
        .filter(|l| !l.contains("w.u64(self.rr_cursor);"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(src, broken, "the drill line must exist in the real source");
    let l = lint_source(label, &broken);
    assert!(
        l.findings
            .iter()
            .any(|f| f.rule == "S02" && f.message.contains("`rr_cursor`")),
        "expected an S02 finding for the deleted field: {:#?}",
        l.findings
    );
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
            rule: "D01",
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
