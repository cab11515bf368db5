//! Cluster demo: a 16-machine e-commerce cluster with a shared BE
//! backlog, Rhythm vs Heracles, plus a snapshot → resume round trip.
//!
//! Four replicas of the 4-Servpod e-commerce service run at 85% load
//! while the cluster dispatcher places batch jobs (interference-score
//! policy) on machines whose controllers signal AllowBEGrowth. Jobs
//! killed by StopBE roll back to their last checkpoint and requeue, so
//! the run reports completion times and wasted work, not just
//! throughput. The demo then reruns the Rhythm cell with a mid-run
//! epoch-barrier snapshot, resumes it from the serialized bytes, and
//! shows the continuation is bit-identical to the straight-through run.
//!
//! ```text
//! cargo run --release --example cluster_demo
//! ```

use rhythm::prelude::*;

fn main() {
    // One-time preparation: calibrate the SLA, profile the service,
    // derive the per-Servpod thresholds (Algorithm 1).
    let ctx = ServiceContext::prepare(apps::ecommerce(), &[BeSpec::of(BeKind::Wordcount)], 7);

    // 16 machines = 4 replicas; jobs scaled to ~15-60 solo-seconds so
    // the 3-minute demo window sees completions.
    let mut cfg = ClusterConfig::new(16).with_scaled_jobs(0.05);
    cfg.duration_s = 180;
    cfg.jobs_per_machine = 3;
    cfg.policy = PlacementPolicy::InterferenceScore;
    cfg.threads = 8;

    println!(
        "running Rhythm and Heracles on {} machines ...",
        cfg.machines
    );
    let (rhythm, heracles) = compare_cluster(&ctx, &cfg);

    for (name, out) in [("Rhythm", &rhythm), ("Heracles", &heracles)] {
        let m = &out.metrics;
        println!("\n== {name} ==");
        println!(
            "EMU {:.3} (LC {:.3} + BE {:.3})",
            m.emu, m.lc_throughput, m.be_throughput
        );
        println!(
            "CPU {:.1}%  MemBW {:.1}%  p99/SLA {:.2}",
            m.cpu_util * 100.0,
            m.membw_util * 100.0,
            m.tail_ratio
        );
        println!(
            "jobs: {}/{} completed, mean completion {:.1}s, {:.2} jobs of work wasted, {} kills",
            m.jobs.completed,
            m.jobs.submitted,
            m.jobs.completion_mean_s,
            m.jobs.wasted_jobs,
            m.jobs.kills
        );
    }
    let gain = (rhythm.metrics.emu / heracles.metrics.emu - 1.0) * 100.0;
    println!("\nRhythm EMU improvement over Heracles: {gain:+.1}%");

    // Durable state: capture the Rhythm run at the half-way epoch
    // barrier, serialize it, and resume from the bytes. The resumed
    // half must land on exactly the machine fingerprints the
    // straight-through run produced — snapshots are checkpoints, not
    // approximations.
    let capture_epoch = 90;
    println!("\nsnapshotting the Rhythm cell at epoch {capture_epoch} and resuming ...");
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg)
        .snapshot_at(capture_epoch)
        .run();
    let bytes = run.snapshots[0].1.to_bytes();
    let snap = ClusterSnapshot::from_bytes(&bytes).expect("snapshot bytes round-trip");
    let resumed = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &cfg)
        .expect("snapshot matches its config")
        .run();
    assert_eq!(
        resumed.outcome.fingerprints, rhythm.fingerprints,
        "resumed run diverged from the straight-through run"
    );
    println!(
        "resume OK: {} bytes at epoch {capture_epoch}, fingerprint {:#018x}, \
         continuation bit-identical to the straight-through run",
        bytes.len(),
        snap.fingerprint()
    );
}
