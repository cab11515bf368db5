//! Thread-count invariance of the cluster runner.
//!
//! The epoch-barrier protocol promises bit-reproducible results for any
//! worker count: machines advance in parallel between barriers, but all
//! cross-machine decisions (dispatch, admission binding, kill handling,
//! job retirement) happen single-threaded in replica order at the
//! barrier. This test runs randomly drawn (seed, size, policy, load,
//! controller) cells with 1 worker and with 8 and requires the merged
//! metrics and the per-machine fingerprints to match exactly. A second
//! test repeats the check on a 256-machine cell at 1, 2, 3 and 8 threads;
//! 3 threads split its 128 replicas into ragged chunks. A third pins a
//! heterogeneous cluster (3 hardware classes, priority and deadline
//! jobs, a gang, preemption, aging) and requires the full telemetry
//! JSONL export to be byte-identical across 1/2/4/8 threads.
//!
//! The vendored proptest shim runs a fixed 64 cases — far too many for
//! whole-cluster runs — so the cells are drawn from a splitmix64 stream
//! instead (still deterministic, still random-looking).

use rhythm::prelude::*;
use rhythm::telemetry::json;
use std::sync::OnceLock;

/// Profiling a service (Algorithm 1) is by far the most expensive step,
/// so every case shares one prepared context.
fn ctx() -> &'static ServiceContext {
    static CTX: OnceLock<ServiceContext> = OnceLock::new();
    CTX.get_or_init(|| ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cell(
    seed: u64,
    machines: usize,
    policy: PlacementPolicy,
    load: f64,
    threads: usize,
) -> ClusterConfig {
    let mut c = ClusterConfig::new(machines).with_scaled_jobs(0.02);
    c.duration_s = 60;
    c.jobs_per_machine = 3;
    c.load = LoadGen::constant(load);
    c.policy = policy;
    c.seed = seed;
    c.threads = threads;
    c
}

#[test]
fn cluster_runs_are_thread_count_invariant() {
    let policies = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LeastPressure,
        PlacementPolicy::InterferenceScore,
    ];
    let mut stream = 0xC1A5_7E12u64;
    for case in 0..5 {
        let seed = splitmix(&mut stream);
        let replicas = 1 + (splitmix(&mut stream) % 2) as usize;
        let policy = policies[(splitmix(&mut stream) % 3) as usize];
        let load = 0.3 + (splitmix(&mut stream) % 512) as f64 / 1024.0;
        let choice = if splitmix(&mut stream).is_multiple_of(2) {
            ControllerChoice::Rhythm
        } else {
            ControllerChoice::Heracles
        };
        let machines = replicas * ctx().service.len();

        let serial = run_cluster(ctx(), &choice, &cell(seed, machines, policy, load, 1));
        let parallel = run_cluster(ctx(), &choice, &cell(seed, machines, policy, load, 8));

        assert_eq!(
            serial.fingerprints, parallel.fingerprints,
            "case {case}: per-machine fingerprints diverged (seed={seed}, {policy:?}, {choice:?})"
        );
        let a = json::to_string(&serial.metrics);
        let b = json::to_string(&parallel.metrics);
        assert_eq!(
            a, b,
            "case {case}: merged metrics diverged (seed={seed}, {policy:?}, {choice:?})"
        );
        // The parallel run must actually have done the work.
        assert!(
            serial.metrics.completed_requests > 0,
            "case {case}: empty run"
        );
    }
}

#[test]
fn warehouse_cluster_runs_are_thread_count_invariant() {
    // solr has 2 Servpods: 256 machines = 128 replicas.
    let run = |threads: usize| {
        let mut c = cell(
            0x5AAD,
            256,
            PlacementPolicy::InterferenceScore,
            0.5,
            threads,
        );
        c.duration_s = 20;
        c.jobs_per_machine = 2;
        run_cluster(ctx(), &ControllerChoice::Rhythm, &c)
    };
    let baseline = run(1);
    assert!(baseline.metrics.completed_requests > 0, "empty run");
    let base_metrics = json::to_string(&baseline.metrics);
    for threads in [2usize, 3, 8] {
        let other = run(threads);
        assert_eq!(
            baseline.fingerprints, other.fingerprints,
            "fingerprints diverged at {threads} threads"
        );
        let metrics = json::to_string(&other.metrics);
        assert_eq!(
            base_metrics, metrics,
            "metrics diverged at {threads} threads"
        );
    }
}

/// The heterogeneous scenario: every machine its own spec, a plan with
/// priorities, deadlines and a 3-instance gang, priority preemption and
/// queue aging on, full telemetry. The scheduler paths this exercises
/// (gang formation/abort, priority victim selection, EDF ordering,
/// aging re-keys) all run at the epoch barrier, so the export must be
/// byte-identical for any worker count.
fn hetero_cell(threads: usize) -> ClusterConfig {
    let mut c = ClusterConfig::new(4).with_scaled_jobs(0.02);
    c.duration_s = 60;
    c.load = LoadGen::constant(0.6);
    c.policy = PlacementPolicy::HeteroAware;
    c.seed = 0x4E7E;
    c.threads = threads;
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
    c
}

#[test]
fn hetero_gang_cluster_is_thread_count_invariant() {
    // solr has 2 Servpods: 4 machines = 2 replicas, so cross-replica
    // gang placement is actually exercised.
    let baseline = run_cluster(ctx(), &ControllerChoice::Rhythm, &hetero_cell(1));
    let base_tel = baseline.telemetry.as_ref().expect("telemetry enabled");
    let base_jsonl = base_tel.export_jsonl();
    assert!(baseline.metrics.completed_requests > 0, "empty run");
    assert_eq!(baseline.metrics.jobs.submitted, 7, "5 entries, gang of 3");
    assert_eq!(baseline.metrics.jobs.deadline_total, 2);
    for threads in [2usize, 4, 8] {
        let run = run_cluster(ctx(), &ControllerChoice::Rhythm, &hetero_cell(threads));
        assert_eq!(
            baseline.fingerprints, run.fingerprints,
            "fingerprints diverged at {threads} threads"
        );
        let jsonl = run
            .telemetry
            .as_ref()
            .expect("telemetry enabled")
            .export_jsonl();
        assert_eq!(
            base_jsonl, jsonl,
            "telemetry JSONL diverged at {threads} threads"
        );
        let a = json::to_string(&baseline.metrics);
        let b = json::to_string(&run.metrics);
        assert_eq!(a, b, "merged metrics diverged at {threads} threads");
    }
}
