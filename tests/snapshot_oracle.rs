//! The compact engine stream against the dense one it replaced.
//!
//! Two real captures (the N=64 golden cell and a chaos cell with a
//! machine down and full telemetry) are decoded from the compact form
//! and re-encoded with the dense encoders of `dense_codec`; the result
//! must be, byte for byte, the container the dense encoders wrote for
//! the same run, pinned by its FNV-1a fingerprint and length. And a
//! capture in the dense form must be refused as incompatible, naming
//! the crate whose layout changed.

mod dense_codec;

use rhythm::cluster::expected_schemas;
use rhythm::prelude::*;
use rhythm::snapshot::{fnv1a, schema_hash, SnapshotBuilder, Writer};
use std::sync::Arc;

/// The N=64 golden cell of `tests/golden.rs` (telemetry off), captured
/// at epoch 5.
fn n64_capture() -> (Vec<u8>, TelemetryConfig) {
    let ctx = ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11);
    let mut c = ClusterConfig::new(64).with_scaled_jobs(0.02);
    c.duration_s = 20;
    c.load = LoadGen::constant(0.5);
    c.threads = 2;
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(5)
        .run();
    (run.snapshots[0].1.to_bytes(), c.telemetry)
}

/// The `rolling-crashes` scenario of `tests/snapshot_mutation.rs`
/// (8 machines, faults twenty times earlier, fixed thresholds),
/// captured at epoch 5 with machine 5 down.
fn chaos_capture() -> (Vec<u8>, TelemetryConfig) {
    let service = apps::solr();
    let thresholds = ServiceThresholds {
        contributions: Vec::new(),
        thresholds: vec![Thresholds::new(0.85, 0.1); service.len()],
        sla_ms: 350.0,
    };
    let ctx = ServiceContext {
        service: Arc::new(service),
        sla_ms: thresholds.sla_ms,
        thresholds,
        seed: 0x5EED,
    };
    let scenario = Scenario::library(8, 0x5EED)
        .into_iter()
        .find(|s| s.name == "rolling-crashes")
        .expect("the library has rolling-crashes");
    let mut c = scenario.cfg;
    c.duration_s = 14;
    c.threads = 1;
    for e in &mut c.faults.events {
        e.at_s /= 20.0;
    }
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(5)
        .run();
    let snap = &run.snapshots[0].1;
    let down = snap.chaos.as_ref().map(|ch| ch.state.down.clone());
    assert_eq!(down, Some([5].into()), "the capture holds a fault");
    (snap.to_bytes(), c.telemetry)
}

/// `bytes` with every engine stream transcoded to the dense form and
/// the schema table naming the dense layouts; the fingerprint of its
/// engine streams alone, and of the whole container with its length.
fn dense_container(bytes: &[u8], telemetry: TelemetryConfig) -> (u64, (u64, usize)) {
    let snap = ClusterSnapshot::from_bytes(bytes).expect("the capture decodes");
    let file = SnapshotFile::parse(bytes).expect("the capture parses");
    let dense: Vec<Vec<u8>> = snap
        .engines
        .iter()
        .map(|e| dense_codec::transcode_engine_stream(e, telemetry))
        .collect();
    let mut b = SnapshotBuilder::new();
    for (name, hash) in expected_schemas() {
        let hash = dense_codec::DENSE_SCHEMAS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(hash, |(_, text)| schema_hash(text));
        b.schema(name, hash);
    }
    for name in file.section_names() {
        let mut w = Writer::new();
        if name == "engines" {
            w.u64(dense.len() as u64);
            for e in &dense {
                w.bytes(e);
            }
        } else {
            let mut r = file.section(name).expect("listed section");
            w.raw(r.take(r.remaining()).expect("whole section"));
        }
        b.section(name, w);
    }
    let container = b.finish();
    (fnv1a(&dense.concat()), (fnv1a(&container), container.len()))
}

/// The dense encoders' bytes for this cell: `SNAPSHOT_N64_E5_ENGINES`
/// and `SNAPSHOT_N64_E5` as the golden fixtures pinned them before the
/// compact stream.
#[test]
fn n64_capture_transcodes_to_the_dense_bytes() {
    let (bytes, telemetry) = n64_capture();
    let (engines, container) = dense_container(&bytes, telemetry);
    assert_eq!(engines, 0xa693_fce0_63b9_05ca, "dense engine streams");
    assert_eq!(
        container,
        (0x7828_38b3_1be5_d00e, 2_065_590),
        "dense container"
    );
    assert!(
        bytes.len() * 3 < container.1,
        "the compact capture is under a third of the dense one"
    );
}

/// Recorder rings, audit trails, tail series, the chaos section and a
/// down machine: the dense encoders' bytes for this capture.
#[test]
fn chaos_capture_transcodes_to_the_dense_bytes() {
    let (bytes, telemetry) = chaos_capture();
    let (engines, container) = dense_container(&bytes, telemetry);
    assert_eq!(engines, 0x8fa9_2f42_4636_69c5, "dense engine streams");
    assert_eq!(
        container,
        (0x700c_d625_eddc_2988, 293_958),
        "dense container"
    );
}

/// A 4-machine capture written by the dense encoders: refused as
/// `Incompatible` for the `rhythm-sim` layout, before any section is
/// read.
#[test]
fn dense_capture_is_refused_as_incompatible() {
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/snapshot_n4_dense.bin"
    ))
    .expect("fixture present");
    let file = SnapshotFile::parse(&bytes).expect("the container framing is unchanged");
    let sim = file
        .schemas()
        .iter()
        .find(|(n, _)| n == "rhythm-sim")
        .expect("the fixture declares rhythm-sim");
    assert_eq!(sim.1, schema_hash(dense_codec::DENSE_SCHEMAS[0].1));
    match ClusterSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::Incompatible { expected, found }) => {
            assert!(expected.starts_with("rhythm-sim="), "{expected}");
            assert!(found.starts_with("rhythm-sim="), "{found}");
        }
        other => panic!("expected Incompatible naming rhythm-sim, got {other:?}"),
    }
}
