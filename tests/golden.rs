//! Golden determinism tests: the engine's output metrics must stay
//! **bit-identical** for fixed seeds across refactors of the hot path.
//!
//! The fixtures below were recorded from the engine before the
//! allocation-free hot-path rework (request arena, cached inflation,
//! precomputed samplers); the tests prove the rework changed no observable
//! behavior. If an *intentional* behavior change ever invalidates them,
//! regenerate with:
//!
//! ```text
//! cargo test --test golden -- --ignored print_fingerprints --nocapture
//! ```
//!
//! and paste the printed arrays — but treat any diff as a determinism
//! regression until proven otherwise: every figure reproduction depends on
//! these streams.

use rhythm::core::{
    profile_service, ControlMode, Engine, EngineConfig, EngineOutput, ProfileConfig,
};
use rhythm::prelude::*;

/// Flattens every metric of an [`EngineOutput`] into exact bits:
/// counters as-is, floats via `to_bits`. Any behavioral drift in
/// arrivals, service sampling, queueing order, controller actions or
/// float accumulation order changes some element.
fn fingerprint(out: &EngineOutput) -> Vec<u64> {
    let mut fp = vec![
        out.completed,
        out.completed_total,
        out.latency.count(),
        out.p99_ms().to_bits(),
        out.mean_ms().to_bits(),
        out.latency.quantile(0.5).to_bits(),
        out.latency.max().to_bits(),
        out.worst_window_p99_ms.to_bits(),
        out.offered_load_avg.to_bits(),
        out.measured_s.to_bits(),
        out.maxload_rps.to_bits(),
    ];
    for p in &out.pods {
        fp.push(p.cpu_util.to_bits());
        fp.push(p.lc_cpu_util.to_bits());
        fp.push(p.membw_util.to_bits());
        fp.push(p.be_throughput.to_bits());
        fp.push(p.be_instances_avg.to_bits());
        fp.push(p.sojourn_stats.count());
        fp.push(p.sojourn_stats.mean().to_bits());
        fp.push(p.sojourn_stats.sample_variance().to_bits());
    }
    fp
}

fn solo_run() -> EngineOutput {
    Engine::new(apps::ecommerce(), EngineConfig::solo(0.6, 30, 42)).run()
}

fn static_run() -> EngineOutput {
    let mut cfg = EngineConfig::solo(0.6, 30, 43);
    cfg.bes = vec![BeSpec::of(BeKind::StreamDram { big: true })];
    cfg.mode = ControlMode::Static {
        instances: 2,
        cores: 4,
        llc_ways: 4,
        pods: Vec::new(),
    };
    Engine::new(apps::ecommerce(), cfg).run()
}

fn managed_run() -> EngineOutput {
    let mut cfg = EngineConfig::solo(0.5, 40, 44);
    cfg.bes = vec![BeSpec::of(BeKind::Wordcount)];
    cfg.sla_ms = 400.0;
    cfg.mode = ControlMode::Managed {
        thresholds: vec![Thresholds::new(0.9, 0.05); 4],
    };
    Engine::new(apps::ecommerce(), cfg).run()
}

/// A heterogeneous 4-machine cluster run (3 hardware classes,
/// priority/deadline jobs, a 3-instance gang, preemption, aging): pins
/// the whole scheduler stack — EDF queue, hetero-aware placement, gang
/// formation/abort — on top of the engine streams.
fn hetero_cluster_run() -> ClusterOutcome {
    let ctx = ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11);
    let mut c = ClusterConfig::new(4).with_scaled_jobs(0.02);
    c.duration_s = 60;
    c.load = LoadGen::constant(0.6);
    c.policy = PlacementPolicy::HeteroAware;
    c.seed = 0x601D;
    c.threads = 2;
    c.machine_specs = vec![
        MachineSpec::dense_compute(),
        MachineSpec::paper_testbed(),
        MachineSpec::lean_node(),
        MachineSpec::paper_testbed(),
    ];
    c.priority_preemption = true;
    c.queue_aging_s = Some(20.0);
    c.gang_patience_epochs = 3;
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
    run_cluster(&ctx, &ControllerChoice::Rhythm, &c)
}

/// The durable-state fixture: a 64-machine run snapshotted at epoch 5.
/// The container bytes cover the codec layout, every engine's
/// RNG/calendar/arena state and the full scheduler, so the byte
/// fingerprint pins all of them at once.
fn snapshot_run() -> ClusterSnapshot {
    let ctx = ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11);
    let mut c = ClusterConfig::new(64).with_scaled_jobs(0.02);
    c.duration_s = 20;
    c.load = LoadGen::constant(0.5);
    c.threads = 2;
    let mut run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(5)
        .run();
    run.snapshots.remove(0).1
}

/// The chaos campaign: one outcome fingerprint per scenario of the
/// library `repro chaos` runs (8 machines = two e-commerce replicas,
/// seed 0xCA05). Pins the trace-shaped load generators (diurnal +
/// flash crowd), the heavy-tailed job plans and the fault injector in
/// one sweep — including the crash-restart drill, whose fingerprint is
/// the *resumed* run's.
fn chaos_campaign() -> Vec<u64> {
    let ctx = ServiceContext::prepare(
        apps::ecommerce(),
        &[
            BeSpec::of(BeKind::Wordcount),
            BeSpec::of(BeKind::StreamDram { big: true }),
        ],
        0xCA05,
    );
    Scenario::library(8, 0xCA05)
        .iter()
        .map(|s| s.run(&ctx, &ControllerChoice::Rhythm).fingerprint)
        .collect()
}

/// A small fully instrumented cluster cell with a crash/recover fault
/// plan, so the JSONL export carries `cluster_event` lines. Pins the
/// bytes of both telemetry exports: the thread-count and resume tests
/// only compare exports with each other, which a formatting drift
/// shared by both sides would pass.
fn telemetry_exports() -> (u64, u64) {
    let ctx = ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11);
    let mut c = ClusterConfig::new(4).with_scaled_jobs(0.02);
    c.duration_s = 30;
    c.load = LoadGen::constant(0.7);
    c.seed = 0x7E1E;
    c.threads = 2;
    c.telemetry = TelemetryConfig::full();
    c.faults = FaultPlan::new().crash(10.0, 1).recover(20.0, 1);
    let tel = run_cluster(&ctx, &ControllerChoice::Rhythm, &c)
        .telemetry
        .expect("telemetry enabled");
    assert!(
        !tel.cluster_events.is_empty(),
        "fault plan left no cluster events"
    );
    (
        rhythm::snapshot::fnv1a(tel.export_jsonl().as_bytes()),
        rhythm::snapshot::fnv1a(tel.chrome_trace().as_bytes()),
    )
}

/// The tracer path of the offline stage: `profile_service` with
/// `use_tracer: true` on a chain DAG (e-commerce) and a fan-out DAG
/// (SNMS). Event capture, its time sort, pairing and the per-request
/// sojourn sums all feed the profile, and no engine fingerprint covers
/// them, so this pins every bit of each level the tracer produced.
fn traced_profiles() -> u64 {
    let cfg = ProfileConfig {
        load_levels: vec![0.2, 0.4, 0.6, 0.8],
        duration_s: 1,
        seed: 0xC1,
        min_requests: 1_500,
        use_tracer: true,
    };
    let mut bytes = Vec::new();
    for service in [apps::ecommerce(), apps::snms()] {
        for l in profile_service(&service, &cfg).levels {
            bytes.extend(l.load.to_bits().to_le_bytes());
            bytes.extend(l.tail_ms.to_bits().to_le_bytes());
            bytes.extend(l.requests.to_le_bytes());
            for (m, c) in l.mean_sojourn_ms.iter().zip(&l.sojourn_cov) {
                bytes.extend(m.to_bits().to_le_bytes());
                bytes.extend(c.to_bits().to_le_bytes());
            }
        }
    }
    rhythm::snapshot::fnv1a(&bytes)
}

/// Flattens a cluster outcome the same way: the per-machine FNV
/// fingerprints already cover every engine stream, so the merged
/// metrics and job ledger are appended on top.
fn cluster_fingerprint(out: &ClusterOutcome) -> Vec<u64> {
    let mut fp = out.fingerprints.clone();
    let m = &out.metrics;
    fp.extend([
        m.machines as u64,
        m.replicas as u64,
        m.lc_throughput.to_bits(),
        m.be_throughput.to_bits(),
        m.emu.to_bits(),
        m.cpu_util.to_bits(),
        m.membw_util.to_bits(),
        m.p99_ms.to_bits(),
        m.tail_ratio.to_bits(),
        m.sla_violations,
        m.be_kills,
        m.completed_requests,
        m.requeues,
        m.jobs.submitted,
        m.jobs.completed,
        m.jobs.kills,
        m.jobs.completion_mean_s.to_bits(),
        m.jobs.completion_p99_s.to_bits(),
        m.jobs.wasted_jobs.to_bits(),
        m.jobs.deadline_total,
        m.jobs.deadline_missed,
        m.jobs.deadline_miss_rate.to_bits(),
    ]);
    fp
}

/// Regenerates the fixture arrays (see module docs).
#[test]
#[ignore]
fn print_fingerprints() {
    for (name, out) in [
        ("SOLO", solo_run()),
        ("STATIC", static_run()),
        ("MANAGED", managed_run()),
    ] {
        println!("const {name}: &[u64] = &{:?};", fingerprint(&out));
    }
    println!(
        "const HETERO_CLUSTER: &[u64] = &{:?};",
        cluster_fingerprint(&hetero_cluster_run())
    );
    let snap = snapshot_run();
    println!(
        "const SNAPSHOT_N64_E5: (u64, usize) = ({:#018x}, {});",
        snap.fingerprint(),
        snap.to_bytes().len()
    );
    println!(
        "const SNAPSHOT_N64_E5_ENGINES: u64 = {:#018x};",
        engine_streams_fingerprint(&snap)
    );
    println!("const CHAOS_CAMPAIGN: &[u64] = &{:?};", chaos_campaign());
    let (jsonl, chrome) = telemetry_exports();
    println!("const TELEMETRY_EXPORTS: (u64, u64) = ({jsonl:#018x}, {chrome:#018x});");
    println!("const TRACED_PROFILES: u64 = {:#018x};", traced_profiles());
    println!(
        "const CORE_SCHEMA_HASH: u64 = {:#018x};",
        rhythm::snapshot::schema_hash(rhythm::core::SNAPSHOT_SCHEMA)
    );
}

include!("fixtures/golden_fixtures.rs");

#[test]
fn solo_metrics_bit_identical() {
    assert_eq!(fingerprint(&solo_run()), SOLO);
}

#[test]
fn static_metrics_bit_identical() {
    assert_eq!(fingerprint(&static_run()), STATIC);
}

#[test]
fn managed_metrics_bit_identical() {
    assert_eq!(fingerprint(&managed_run()), MANAGED);
}

#[test]
fn hetero_cluster_bit_identical() {
    assert_eq!(cluster_fingerprint(&hetero_cluster_run()), HETERO_CLUSTER);
}

#[test]
fn snapshot_bytes_bit_identical() {
    let snap = snapshot_run();
    let len = snap.to_bytes().len();
    assert_eq!((snap.fingerprint(), len), SNAPSHOT_N64_E5);
}

/// FNV-1a over the snapshot's concatenated per-replica engine streams:
/// the engine half of the container, independent of the scheduler and
/// container schemas.
fn engine_streams_fingerprint(snap: &ClusterSnapshot) -> u64 {
    rhythm::snapshot::fnv1a(&snap.engines.concat())
}

/// The engine streams alone. The container pin above also covers the
/// scheduler section and the crate schema hashes, so it regenerates on
/// any scheduler wire-format change; this pin must not, because no such
/// change may alter what the engines did.
#[test]
fn snapshot_engine_streams_bit_identical() {
    assert_eq!(
        engine_streams_fingerprint(&snapshot_run()),
        SNAPSHOT_N64_E5_ENGINES
    );
}

#[test]
fn chaos_campaign_bit_identical() {
    assert_eq!(chaos_campaign(), CHAOS_CAMPAIGN);
}

#[test]
fn telemetry_exports_bit_identical() {
    assert_eq!(telemetry_exports(), TELEMETRY_EXPORTS);
}

#[test]
fn traced_profile_bit_identical() {
    assert_eq!(traced_profiles(), TRACED_PROFILES);
}

/// The SoA node-state rework must not bump the engine wire schema: the
/// per-node field order on the wire is unchanged, so the schema string
/// — and therefore every existing snapshot file — stays valid. A
/// failure here means a layout change leaked into the codec.
#[test]
fn core_snapshot_schema_hash_unchanged() {
    assert_eq!(
        rhythm::snapshot::schema_hash(rhythm::core::SNAPSHOT_SCHEMA),
        CORE_SCHEMA_HASH
    );
}
