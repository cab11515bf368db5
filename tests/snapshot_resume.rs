//! The durable-state contract, end to end: a run snapshotted at epoch k
//! and resumed to the horizon is **bit-identical** to a run that never
//! stopped — same machine fingerprints, same metrics, same telemetry
//! exports — for any worker-thread count.
//!
//! One straight-through reference run stands in for every grid cell:
//! threading is already proven observation-invariant, so each resume
//! must land on the same bytes.

use rhythm::cluster::JobState;
use rhythm::core::plan::Request;
use rhythm::prelude::*;
use rhythm::snapshot::{Reader, Writer};
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
    assert_eq!(
        a.fingerprints, b.fingerprints,
        "{what}: machine fingerprints"
    );
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
fn resume_refuses_a_different_telemetry_setting() {
    // Captured with full telemetry: every engine stream carries a live
    // recorder, which a telemetry-off run would keep feeding unseen.
    let ctx = ctx();
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg(1))
        .snapshot_at(CAPTURE_EPOCH)
        .run();
    let snap = &run.snapshots[0].1;
    let mut off = cfg(1);
    off.telemetry = TelemetryConfig::disabled();
    assert!(matches!(
        ClusterRunner::resume(snap, &ctx, &ControllerChoice::Rhythm, &off).err(),
        Some(SnapshotError::Incompatible { .. })
    ));
}

#[test]
fn resume_refuses_a_capture_time_off_its_barrier() {
    // Epoch 7 at 2 s epochs is barrier time 14 s; the same capture moved
    // 5 s later names a time the run never stopped at.
    let ctx = ctx();
    let c = cfg(1);
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(CAPTURE_EPOCH)
        .run();
    let snap = &run.snapshots[0].1;
    assert_eq!(snap.t_ns, 14_000_000_000);
    let mut moved = snap.clone();
    moved.t_ns += 5_000_000_000;
    let moved = ClusterSnapshot::from_bytes(&moved.to_bytes()).expect("bytes still parse");
    assert!(matches!(
        ClusterRunner::resume(&moved, &ctx, &ControllerChoice::Rhythm, &c).err(),
        Some(SnapshotError::Corrupt(_))
    ));
    assert!(ClusterRunner::resume(snap, &ctx, &ControllerChoice::Rhythm, &c).is_ok());
}

#[test]
fn resume_accepts_a_capture_at_the_last_barrier() {
    // 41 s at 2 s epochs: 20 full epochs and a 1 s one, so the last
    // barrier is epoch 21, at the horizon.
    let ctx = ctx();
    let mut c = cfg(1);
    c.machines = 8;
    c.duration_s = 41;
    assert_eq!(c.barriers(), 21);
    let straight = run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(21)
        .snapshot_at(22)
        .run();
    assert_eq!(run.snapshots.len(), 1, "epoch 22 is past the horizon");
    let snap = ClusterSnapshot::from_bytes(&run.snapshots[0].1.to_bytes()).expect("bytes parse");
    assert_eq!(snap.t_ns, 41_000_000_000);
    let resumed = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &c)
        .expect("the last barrier resumes")
        .run();
    assert_identical(&straight, &resumed.outcome, "resumed at the last barrier");
}

/// The heterogeneous gang cell of `tests/cluster_determinism.rs` (every
/// machine its own spec, priorities, deadlines, a 3-instance gang,
/// preemption, aging, full telemetry) with machine 1 crashing at 12 s
/// and recovering at 30 s.
fn hetero_chaos_cell() -> ClusterConfig {
    let mut c = ClusterConfig::new(4).with_scaled_jobs(0.02);
    c.duration_s = 60;
    c.load = LoadGen::constant(0.6);
    c.policy = PlacementPolicy::HeteroAware;
    c.seed = 0x4E7E;
    c.threads = 1;
    c.machine_specs = vec![
        MachineSpec::dense_compute(),
        MachineSpec::paper_testbed(),
        MachineSpec::lean_node(),
        MachineSpec::paper_testbed(),
    ];
    c.priority_preemption = true;
    c.queue_aging_s = Some(20.0);
    c.gang_patience_epochs = 3;
    c.telemetry = TelemetryConfig::full();
    let wc = c.be_mix[0].clone();
    c.job_plan = vec![
        JobSpec::solitary(wc.clone())
            .with_priority(2)
            .with_deadline(30.0),
        JobSpec::solitary(wc.clone()).with_priority(1).with_gang(3),
        JobSpec::solitary(wc.clone())
            .with_priority(1)
            .with_deadline(45.0),
        JobSpec::solitary(wc.clone()),
        JobSpec::solitary(wc),
    ];
    c.faults = FaultPlan::new().crash(12.0, 1).recover(30.0, 1);
    c
}

#[test]
fn resume_refuses_a_gang_queued_twice() {
    // The cell's 3-member gang waits in the queue through one member;
    // dispatch would expand a second entry into the whole gang again.
    let ctx = ctx();
    let c = hetero_chaos_cell();
    let run = (1..=30)
        .fold(
            ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c),
            |r, k| r.snapshot_at(k),
        )
        .run();
    let (snap, second) = run
        .snapshots
        .iter()
        .find_map(|(_, snap)| {
            let s = &snap.scheduler;
            let queued = s.queue.queued_ids();
            s.gangs.values().find_map(|gang| {
                let entry = gang.members.iter().find(|m| queued.contains(m))?;
                let second = gang
                    .members
                    .iter()
                    .find(|&&m| m != *entry && s.jobs[m as usize].state == JobState::Queued)?;
                Some((snap, *second))
            })
        })
        .expect("some capture holds a queued gang");
    let mut bad = snap.clone();
    bad.scheduler.queue.requeue(second);
    let bad = ClusterSnapshot::from_bytes(&bad.to_bytes()).expect("bytes still parse");
    match ClusterRunner::resume(&bad, &ctx, &ControllerChoice::Rhythm, &c).err() {
        Some(SnapshotError::Corrupt(why)) => assert!(why.contains("two members of gang"), "{why}"),
        other => panic!("a gang queued twice must be refused as corrupt, got {other:?}"),
    }
    assert!(ClusterRunner::resume(snap, &ctx, &ControllerChoice::Rhythm, &c).is_ok());
}

#[test]
fn resume_refuses_a_forged_gang_roster() {
    // A roster must list, ascending, exactly the jobs carrying its gang
    // id: the gang pass starts, forms and aborts whatever it lists.
    let ctx = ctx();
    let c = hetero_chaos_cell();
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(5)
        .run();
    let snap = &run.snapshots[0].1;
    let (&gid, gang) = snap
        .scheduler
        .gangs
        .iter()
        .next()
        .expect("the cell plans a gang");
    let last = *gang.members.last().expect("a gang has members");
    let outsider = snap
        .scheduler
        .jobs
        .iter()
        .find(|j| j.gang.is_none() && j.id > last)
        .expect("a solitary job follows the gang")
        .id;
    let mut swapped = gang.members.clone();
    *swapped.last_mut().expect("non-empty") = outsider;
    let mut reordered = gang.members.clone();
    reordered.reverse();
    for members in [swapped, reordered] {
        let mut bad = snap.clone();
        bad.scheduler
            .gangs
            .get_mut(&gid)
            .expect("gang present")
            .members = members.clone();
        let bad = ClusterSnapshot::from_bytes(&bad.to_bytes()).expect("bytes still parse");
        match ClusterRunner::resume(&bad, &ctx, &ControllerChoice::Rhythm, &c).err() {
            Some(SnapshotError::Corrupt(why)) => assert!(why.contains("gang"), "{why}"),
            other => panic!("roster {members:?} must be refused as corrupt, got {other:?}"),
        }
    }
    assert!(ClusterRunner::resume(snap, &ctx, &ControllerChoice::Rhythm, &c).is_ok());
}

/// Captures `c` at epochs `k < m` in one straight run, resumes the
/// epoch-`k` bytes and captures the resumed run at `m`: both epoch-`m`
/// containers must be byte-identical. Returns the straight run's two
/// captures for the caller's checks that the state under test moved.
fn resumed_capture_matches(c: &ClusterConfig, k: u32, m: u32) -> [ClusterSnapshot; 2] {
    let ctx = ctx();
    let straight = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, c)
        .snapshot_at(k)
        .snapshot_at(m)
        .run();
    let [(ek, at_k), (em, at_m)] = <[_; 2]>::try_from(straight.snapshots).expect("two captures");
    assert_eq!((ek, em), (k, m));
    let snap = ClusterSnapshot::from_bytes(&at_k.to_bytes()).expect("snapshot bytes parse");
    let resumed = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, c)
        .expect("snapshot matches its config")
        .snapshot_at(m)
        .run();
    assert_eq!(resumed.snapshots.len(), 1, "one capture after the resume");
    assert_eq!(resumed.snapshots[0].0, m);
    assert!(
        resumed.snapshots[0].1.to_bytes() == at_m.to_bytes(),
        "epoch-{m} capture of the run resumed at epoch {k} differs: {}",
        at_m.diff(&resumed.snapshots[0].1).render()
    );
    [at_k, at_m]
}

#[test]
fn resumed_run_captures_the_same_bytes() {
    // Round-robin over 20 jobs at 0.7 load: unconsumed offers are
    // withdrawn and re-offered every epoch, so the rotation cursor sits
    // mid-range at the resume point and keeps moving after it.
    let mut rr = cfg(1);
    rr.policy = PlacementPolicy::RoundRobin;
    rr.load = LoadGen::constant(0.7);
    rr.job_plan = (0..20)
        .map(|i| JobSpec::solitary(rr.be_mix[i % rr.be_mix.len()].clone()))
        .collect();
    let [a, b] = resumed_capture_matches(&rr, 3, 8);
    assert_ne!(a.scheduler.rr_cursor, b.scheduler.rr_cursor, "cursor moved");

    // Gangs and chaos: patience, forming state and the fault cursor all
    // move between the two captures.
    let [a, b] = resumed_capture_matches(&hetero_chaos_cell(), 10, 21);
    assert_ne!(a.scheduler.gangs, b.scheduler.gangs, "gang state moved");
    let (ca, cb) = (a.chaos.expect("chaos"), b.chaos.expect("chaos"));
    assert_ne!(ca.state, cb.state, "fault state moved");
}

/// One sequential visit in the request wire format, not yet started:
/// node, parent `(visit, slot)`, children, then phase 0 of
/// `children + 1`, nothing pending, no time spent, no phase records.
fn wire_visit(w: &mut Writer, node: u64, parent: Option<(u64, u64)>, children: &[u64]) {
    w.u64(node);
    parent.encode(w);
    children.to_vec().encode(w);
    w.bool(false);
    w.u64(0);
    w.u64(children.len() as u64 + 1);
    w.u64(0);
    SimTime::ZERO.encode(w);
    w.u64(0);
    Vec::<(SimTime, SimTime)>::new().encode(w);
}

type WireVisit = (u64, Option<(u64, u64)>, Vec<u64>);

/// Decodes a request whose visits are given as `(node, parent, children)`.
fn decode_request(visits: &[WireVisit]) -> Result<Request, SnapshotError> {
    let mut w = Writer::new();
    SimTime::ZERO.encode(&mut w);
    w.u64(visits.len() as u64);
    for (node, parent, children) in visits {
        wire_visit(&mut w, *node, *parent, children);
    }
    Request::decode(&mut Reader::new(&w.into_bytes()))
}

fn assert_corrupt(visits: &[WireVisit], what: &str) {
    assert!(
        matches!(decode_request(visits), Err(SnapshotError::Corrupt(_))),
        "{what} must be refused as corrupt"
    );
}

/// A root calling visits 1 and 2 in order: the valid baseline every
/// hostile case below edits.
fn two_child_plan() -> Vec<WireVisit> {
    vec![
        (0, None, vec![1, 2]),
        (1, Some((0, 0)), vec![]),
        (2, Some((0, 1)), vec![]),
    ]
}

#[test]
fn request_decode_rejects_children_off_the_preorder_layout() {
    assert!(decode_request(&two_child_plan()).is_ok());
    let mut swapped = two_child_plan();
    swapped[0].2 = vec![2, 1];
    assert_corrupt(&swapped, "a child list out of call order");
    let mut short = two_child_plan();
    short[0].2 = vec![1];
    assert_corrupt(&short, "a child list missing a visit that names its parent");
    let mut slot = two_child_plan();
    slot[2].1 = Some((0, 0));
    assert_corrupt(&slot, "two children in one slot");
    // Parent links that all point backwards but split visit 1's
    // subtree {1, 3} around its sibling 2.
    let split = vec![
        (0, None, vec![1, 2]),
        (1, Some((0, 0)), vec![3]),
        (2, Some((0, 1)), vec![]),
        (3, Some((1, 0)), vec![]),
    ];
    assert_corrupt(&split, "a subtree that is not contiguous");
    assert_corrupt(&[], "a request with no visits");
}

#[test]
fn request_decode_rejects_parent_at_or_after_child() {
    let mut own = two_child_plan();
    own[1].1 = Some((1, 0));
    assert_corrupt(&own, "a visit that is its own parent");
    let mut later = two_child_plan();
    later[1].1 = Some((2, 0));
    assert_corrupt(&later, "a parent after its child");
    let mut rooted = two_child_plan();
    rooted[0].1 = Some((0, 0));
    assert_corrupt(&rooted, "a parent on the entry visit");
    let mut second_root = two_child_plan();
    second_root[2].1 = None;
    assert_corrupt(&second_root, "a second root");
}

#[test]
fn request_and_queue_decode_reject_indices_beyond_u32() {
    let big = u64::from(u32::MAX) + 1;
    let mut node = two_child_plan();
    node[1].0 = big;
    assert_corrupt(&node, "a node index beyond u32");
    let mut slot = two_child_plan();
    slot[2].1 = Some((0, big + 1));
    assert_corrupt(&slot, "a slot index beyond u32");
    let mut child = two_child_plan();
    child[0].2 = vec![1, big + 2];
    assert_corrupt(&child, "a child index beyond u32");

    // A node queue entry naming visit 2^32 of a live request. An
    // overloaded engine has queued phases; its stream holds the machines,
    // the node count, then per node `workers: u32, busy: u32, queue: u64
    // length + (key: u64, visit: u64) entries, inflation: f64, busy area:
    // u128, last busy change: u64, visits done: u64`.
    let cfg = || EngineConfig::solo(1.3, 20, 5);
    let mut e = Engine::new(apps::ecommerce(), cfg());
    e.run_until(SimTime::from_secs(10));
    let mut w = Writer::new();
    e.snapshot_encode(&mut w);
    let mut bytes = w.into_bytes();
    assert!(Engine::snapshot_restore(apps::ecommerce(), cfg(), &mut Reader::new(&bytes)).is_ok());
    let mut m = Writer::new();
    let machines: Vec<Machine> = (0..e.machine_count())
        .map(|i| e.machine(i).clone())
        .collect();
    machines.encode(&mut m);
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let mut at = m.len() + 8;
    let visit_at = loop {
        assert!(at < bytes.len(), "some node has a queued phase");
        let queued = word(&bytes, at + 8) as usize;
        if queued > 0 {
            break at + 16 + 8;
        }
        at += 16 + queued * 16 + 8 + 16 + 8 + 8;
    };
    assert!(
        word(&bytes, visit_at) < 64,
        "the patched word is a visit index"
    );
    bytes[visit_at..visit_at + 8].copy_from_slice(&big.to_le_bytes());
    assert!(matches!(
        Engine::snapshot_restore(apps::ecommerce(), cfg(), &mut Reader::new(&bytes)).err(),
        Some(SnapshotError::Corrupt(_))
    ));
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

#[test]
fn snapshot_files_reject_a_shape_whose_product_overflows() {
    // 2 replicas × 2^63 pods wraps to 0 machines in u64 arithmetic. With
    // the engine streams, summaries and offers cut to match, every other
    // check passes, and a config built from this meta (as `repro resume`
    // builds one) would panic in `ClusterRunner::new`.
    let ctx = ctx();
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg(1))
        .snapshot_at(CAPTURE_EPOCH)
        .run();
    let mut forged = run.snapshots[0].1.clone();
    forged.machines = 0;
    forged.replicas = 2;
    forged.pods = 1 << 63;
    forged.engines.truncate(2);
    forged.summaries.truncate(2);
    forged.scheduler.offered.clear();
    assert!(matches!(
        ClusterSnapshot::from_bytes(&forged.to_bytes()),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// Telemetry decode refuses a config, flight recorder, audit trail and
/// tail series that contradict each other, and a config no preset
/// encodes. Each case splices a telemetry section, rebuilt from the
/// parts of a real managed engine's telemetry, into that engine's
/// stream. The section is the stream's second-to-last field; only the
/// audit cache (`len: u64` + one `(u64, f64)` per node) follows it.
#[test]
fn telemetry_decode_rejects_contradicting_sections() {
    use rhythm::telemetry::{EventKind, FlightRecorder, TailSeries};

    fn enc<T: Snapshot>(v: &T) -> Vec<u8> {
        let mut w = Writer::new();
        v.encode(&mut w);
        w.into_bytes()
    }
    let cfg = || {
        let mut c = EngineConfig::solo(0.5, 20, 9);
        c.bes = vec![BeSpec::of(BeKind::Wordcount)];
        c.sla_ms = 400.0;
        c.mode = ControlMode::Managed {
            thresholds: vec![Thresholds::new(0.9, 0.05); 4],
        };
        c.telemetry = TelemetryConfig::full();
        c
    };
    let mut e = Engine::new(apps::ecommerce(), cfg());
    e.run_until(SimTime::from_secs(10));
    let t = e.telemetry();
    assert!(t.recorder.recorded() > 0 && !t.audit.is_empty() && !t.tail.points().is_empty());
    let bytes = {
        let mut w = Writer::new();
        e.snapshot_encode(&mut w);
        w.into_bytes()
    };

    // Config fields `(enabled, ring_capacity, audit, tail)`, then parts.
    const CAP: u64 = 65_536;
    let (on, off) = (
        enc(&(true, CAP, true, true)),
        enc(&(false, CAP, false, false)),
    );
    let (rec, audit, tail) = (enc(&t.recorder), enc(&t.audit), enc(&t.tail));
    let no_rec = enc(&FlightRecorder::disabled());
    let no_audit = enc(&Vec::<AuditRecord>::new());
    let no_tail = enc(&TailSeries::new());
    let own = [&on[..], &rec, &audit, &tail].concat();
    let end = bytes.len() - 8 - 16 * e.machine_count();
    let start = end - own.len();
    assert_eq!(
        bytes[start..end],
        own[..],
        "telemetry sits before the audit cache"
    );
    let restore = |tel: &[u8]| {
        let patched = [&bytes[..start], tel, &bytes[end..]].concat();
        Engine::snapshot_restore(apps::ecommerce(), cfg(), &mut Reader::new(&patched))
    };
    let assert_corrupt = |parts: &[&[u8]], what: &str| {
        assert!(
            matches!(
                restore(&parts.concat()).err(),
                Some(SnapshotError::Corrupt(_))
            ),
            "{what} must be refused as corrupt"
        );
    };
    assert!(restore(&own).is_ok(), "the engine's own section restores");
    let quiet = [&off[..], &no_rec, &no_audit, &no_tail].concat();
    assert!(
        Telemetry::decode(&mut Reader::new(&quiet)).is_ok(),
        "the disabled preset decodes"
    );

    // A config neither preset writes: one switch off, or another ring.
    let no_audit_cfg = enc(&(true, CAP, false, true));
    assert_corrupt(
        &[&no_audit_cfg, &rec, &audit, &tail],
        "enabled telemetry without audit",
    );
    let small_ring_cfg = enc(&(false, 1024u64, false, false));
    assert_corrupt(
        &[&small_ring_cfg, &no_rec, &no_audit, &no_tail],
        "a non-default ring field",
    );
    // The recorder is on exactly when the config is.
    assert_corrupt(
        &[&off, &rec, &no_audit, &no_tail],
        "disabled telemetry with a live recorder",
    );
    assert_corrupt(
        &[&on, &no_rec, &audit, &tail],
        "enabled telemetry with a disabled recorder",
    );
    // Disabled telemetry collects no audit records and no tail data.
    assert_corrupt(
        &[&off, &no_rec, &audit, &no_tail],
        "disabled telemetry with audit records",
    );
    assert_corrupt(
        &[&off, &no_rec, &no_audit, &tail],
        "disabled telemetry with tail points",
    );
    // An enabled recorder holds 65,536 events: a smaller ring is
    // refused, and so is a huge one, before its buffer is reserved.
    let mut small = FlightRecorder::new(1024);
    small.record(SimTime::from_secs(1), EventKind::RequestAdmitted);
    assert_corrupt(
        &[&on, &enc(&small), &audit, &tail],
        "a 1,024-event recorder",
    );
    let huge = enc(&(true, 1u64 << 40, 0u64, 0u64));
    assert_corrupt(&[&on, &huge, &audit, &tail], "a 2^40-event recorder");
}
