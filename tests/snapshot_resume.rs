//! The durable-state contract, end to end: a run snapshotted at epoch k
//! and resumed to the horizon is **bit-identical** to a run that never
//! stopped — same machine fingerprints, same metrics, same telemetry
//! exports — for any worker-thread count.
//!
//! One straight-through reference run stands in for every grid cell:
//! threading is already proven observation-invariant, so each resume
//! must land on the same bytes.

use rhythm::prelude::*;
use rhythm::cluster::JobState;
use rhythm::workloads::apps;

const CAPTURE_EPOCH: u32 = 7;

fn ctx() -> ServiceContext {
    ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11)
}

fn cfg(threads: usize) -> ClusterConfig {
    // 16 machines over solr's 2 Servpods = 8 replicas.
    let mut c = ClusterConfig::new(16).with_scaled_jobs(0.02);
    c.duration_s = 40;
    c.jobs_per_machine = 2;
    c.load = LoadGen::constant(0.5);
    c.threads = threads;
    c.telemetry = TelemetryConfig::full();
    c
}

fn assert_identical(a: &ClusterOutcome, b: &ClusterOutcome, what: &str) {
    assert_eq!(a.fingerprints, b.fingerprints, "{what}: machine fingerprints");
    assert_eq!(a.metrics.jobs, b.metrics.jobs, "{what}: job stats");
    assert_eq!(a.metrics.requeues, b.metrics.requeues, "{what}: requeues");
    assert_eq!(
        a.metrics.completed_requests, b.metrics.completed_requests,
        "{what}: completed requests"
    );
    let (ta, tb) = (
        a.telemetry.as_ref().expect("telemetry on"),
        b.telemetry.as_ref().expect("telemetry on"),
    );
    assert_eq!(ta.export_jsonl(), tb.export_jsonl(), "{what}: jsonl export");
    assert_eq!(ta.chrome_trace(), tb.chrome_trace(), "{what}: chrome trace");
    assert_eq!(ta.why_report(), tb.why_report(), "{what}: why report");
}

#[test]
fn resume_matches_straight_run_across_thread_grid() {
    let ctx = ctx();
    let reference = run_cluster(&ctx, &ControllerChoice::Rhythm, &cfg(1));

    // Capture once (on one worker thread), resume on several thread
    // counts — 3 splits the 8 replicas into ragged chunks: the snapshot
    // must not remember how it was made.
    let capture_run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg(1))
        .snapshot_at(CAPTURE_EPOCH)
        .run();
    assert_identical(&reference, &capture_run.outcome, "capturing run");
    let bytes = capture_run.snapshots[0].1.to_bytes();

    for threads in [1usize, 3, 4] {
        let snap = ClusterSnapshot::from_bytes(&bytes).expect("snapshot bytes parse");
        let c = cfg(threads);
        let resumed = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &c)
            .expect("snapshot matches its config")
            .run();
        assert_identical(
            &reference,
            &resumed.outcome,
            &format!("threads={threads} resumed run"),
        );
    }
}

#[test]
fn resume_rejects_inconsistent_scheduler_state() {
    let ctx = ctx();
    let c = cfg(1);
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(CAPTURE_EPOCH)
        .run();
    let snap = &run.snapshots[0].1;
    // Well-formed bytes, but the ledger now contradicts the bindings:
    // every section decodes, yet the scheduler state is impossible.
    // Resume must refuse it as corrupt, not panic later.
    let (running, machine) = snap
        .scheduler
        .jobs
        .iter()
        .enumerate()
        .find_map(|(j, job)| match job.state {
            JobState::Running(g) => Some((j, g)),
            _ => None,
        })
        .expect("some job runs at the capture barrier");
    let elsewhere = JobState::Running((machine + 1) % c.machines);
    for state in [JobState::Queued, JobState::Done, elsewhere] {
        let mut bad = snap.clone();
        bad.scheduler.jobs[running].state = state;
        let bad = ClusterSnapshot::from_bytes(&bad.to_bytes()).expect("bytes still parse");
        assert!(
            matches!(
                ClusterRunner::resume(&bad, &ctx, &ControllerChoice::Rhythm, &c).err(),
                Some(SnapshotError::Corrupt(_))
            ),
            "job {running} flipped to {state:?} must be refused"
        );
    }
    assert!(ClusterRunner::resume(snap, &ctx, &ControllerChoice::Rhythm, &c).is_ok());
}

#[test]
fn snapshot_files_reject_corruption_and_truncation() {
    let ctx = ctx();
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg(1))
        .snapshot_at(CAPTURE_EPOCH)
        .run();
    let bytes = run.snapshots[0].1.to_bytes();

    // Format-version bump: refused as Incompatible, not mis-decoded.
    let mut wrong_version = bytes.clone();
    wrong_version[4] ^= 0xFF; // version is the u32 after the 4-byte magic
    assert!(matches!(
        ClusterSnapshot::from_bytes(&wrong_version),
        Err(SnapshotError::Incompatible { .. })
    ));

    // Schema-hash drift (a crate changed its layout): also Incompatible.
    // Layout: magic(4) + version(u32) + schema count(u64) + first entry's
    // name (u64 length prefix + bytes) + its u64 hash — flip a hash byte.
    let name_len = rhythm::cluster::expected_schemas()[0].0.len();
    let hash_byte = 4 + 4 + 8 + 8 + name_len;
    let mut wrong_schema = bytes.clone();
    wrong_schema[hash_byte] ^= 0xFF;
    assert!(matches!(
        ClusterSnapshot::from_bytes(&wrong_schema),
        Err(SnapshotError::Incompatible { .. })
    ));

    // Truncation anywhere: an error, never a panic or a silent partial
    // decode.
    for cut in [3usize, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            ClusterSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // Trailing garbage is refused too.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(ClusterSnapshot::from_bytes(&padded).is_err());
}
