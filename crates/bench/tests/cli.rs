//! `repro` rejects bad arguments and bad files with exit code 2 and a
//! one-line message on stderr, never a panic or a Debug dump; with
//! `--json` it prints exactly the document it writes.

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

#[test]
fn resume_refuses_a_cell_above_the_ceiling() {
    // A real one-replica capture rewritten to one replica of more pods
    // than the ceiling allows, with an offer slot per machine so the
    // file still decodes: `resume` must refuse the cell before building
    // it.
    let dir = std::env::temp_dir().join(format!("rhythm-cli-ceiling-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("RHYTHM_RESULTS_DIR", &dir)
            .output()
            .expect("run repro")
    };
    let captured = dir.join("snapshot_n4.bin");
    let out = repro(&[
        "snapshot",
        "--machines",
        "4",
        "--duration",
        "2",
        "--epoch",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let bytes = std::fs::read(&captured).expect("capture written");
    // The capture's sections and their bytes, on a line of their own.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let sections: Vec<(&str, usize)> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sections: "))
        .expect("a sections line")
        .split("  ")
        .map(|s| {
            let (name, len) = s.split_once(' ').expect("name and bytes");
            (name, len.parse().expect("a byte count"))
        })
        .collect();
    let names: Vec<&str> = sections.iter().map(|s| s.0).collect();
    assert_eq!(names, ["meta", "scheduler", "engines", "summaries", "tail"]);
    let body: usize = sections.iter().map(|s| s.1).sum();
    assert!(
        body < bytes.len() && bytes.len() - body < 512,
        "{body} of {}",
        bytes.len()
    );
    let mut snap = rhythm_cluster::ClusterSnapshot::from_bytes(&bytes).expect("capture decodes");
    assert_eq!(snap.replicas, 1);
    let n = rhythm_bench::snapshotcli::MAX_MACHINES + 1;
    (snap.machines, snap.pods) = (n as u64, n as u64);
    snap.scheduler.offered = vec![None; n];
    let forged = dir.join("forged.bin");
    std::fs::write(&forged, snap.to_bytes()).expect("write forged capture");
    let out = repro(&["resume", &forged.to_string_lossy()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr
            .lines()
            .last()
            .is_some_and(|l| l.contains("above the ceiling")),
        "stderr:\n{stderr}"
    );
}

#[test]
fn json_mode_prints_the_written_document() {
    let dir = std::env::temp_dir().join(format!("rhythm-cli-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--json", "tab1"])
        .env("RHYTHM_RESULTS_DIR", &dir)
        .output()
        .expect("run repro");
    let written = std::fs::read(dir.join("tab1.json")).expect("tab1.json written");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(written.starts_with(b"{\n  \"lc\": ["), "{written:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&written)
    );
}
