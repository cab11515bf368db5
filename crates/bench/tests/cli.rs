//! `repro` rejects bad arguments and bad files with exit code 2 and a
//! one-line message on stderr, never a panic or a Debug dump.

use std::process::Command;

#[test]
fn bad_input_exits_2_with_a_message() {
    // A results directory private to this test process.
    let dir = std::env::temp_dir().join(format!("rhythm-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let missing = dir.join("missing.bin");
    let not_a_snapshot = dir.join("not_a_snapshot.bin");
    std::fs::write(&not_a_snapshot, b"this is not a snapshot").expect("write scratch file");
    let missing = missing.to_string_lossy().into_owned();
    let not_a_snapshot = not_a_snapshot.to_string_lossy().into_owned();

    // (arguments, a fragment the message must contain)
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["no-such-experiment"], "unknown experiment id"),
        (vec!["snapshot", "--bogus", "1"], "unknown flag --bogus"),
        (vec!["snapshot", "--machines"], "--machines needs a value"),
        (vec!["snapshot", "--machines", "four"], "cannot parse"),
        (vec!["snapshot", "--machines", "0"], "positive multiple"),
        (vec!["snapshot", "--machines", "7"], "positive multiple"),
        // Refused before the cell is built: 10^8 machines would mean
        // about 4×10^8 jobs.
        (
            vec!["snapshot", "--machines", "100000000"],
            "above the ceiling",
        ),
        (
            vec!["snapshot", "--epoch", "0"],
            "--epoch must be at least 1",
        ),
        (vec!["snapshot", "--epoch", "99999999999"], "cannot parse"),
        (
            vec![
                "snapshot",
                "--machines",
                "4",
                "--duration",
                "2",
                "--epoch",
                "5",
            ],
            "past the end",
        ),
        (vec!["resume", &missing], "missing.bin"),
        (vec!["resume", &not_a_snapshot], "not_a_snapshot.bin"),
        (
            vec!["snapshot-diff", &missing],
            "usage: repro snapshot-diff",
        ),
    ];

    let mut failures = Vec::new();
    for (args, fragment) in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("RHYTHM_RESULTS_DIR", &dir)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let last = stderr.lines().last().unwrap_or_default();
        if out.status.code() != Some(2)
            || stderr.contains("panicked")
            || !(last.starts_with("repro: ") && last.contains(fragment))
        {
            failures.push(format!(
                "repro {args:?}: exit {:?}, expected `repro: ...{fragment}...`, stderr:\n{stderr}",
                out.status.code()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
