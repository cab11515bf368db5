//! The crash-restart drill: prove the scheduler process can die
//! mid-run and come back without anyone being able to tell.
//!
//! [`crash_restart`] runs the same experiment twice. The reference run
//! goes straight through. The drill run captures a snapshot at a
//! chosen epoch barrier, **drops the runner** (the process crash —
//! nothing of the live scheduler survives except the encoded bytes),
//! re-parses the snapshot from those bytes, and resumes — on a
//! different worker-thread count, to make the check stronger. The two
//! runs must then be bit-identical: outcome fingerprints, merged
//! metrics, and (when telemetry is on) the full JSONL and Chrome-trace
//! exports, byte for byte.

use crate::scenario::outcome_fingerprint;
use rhythm_cluster::{ClusterConfig, ClusterOutcome, ClusterRunner, ClusterSnapshot};
use rhythm_core::experiment::{ControllerChoice, ServiceContext};
use serde::Serialize;

/// What the crash-restart drill observed.
#[derive(Clone, Debug, Serialize)]
pub struct RestartCheck {
    /// Epoch barrier the snapshot was captured at.
    pub epoch: u32,
    /// Virtual time of the capture, in seconds.
    pub t_s: f64,
    /// Size of the encoded snapshot the "crashed" process left behind.
    pub snapshot_bytes: usize,
    /// Fingerprint of the uninterrupted reference run.
    pub reference_fingerprint: u64,
    /// Fingerprint of the crash-then-resume run.
    pub resumed_fingerprint: u64,
    /// Outcome fingerprints match.
    pub fingerprints_match: bool,
    /// Telemetry JSONL exports are byte-identical (`None` when the run
    /// collected no telemetry).
    pub jsonl_match: Option<bool>,
    /// Chrome-trace exports are byte-identical (`None` without
    /// telemetry).
    pub chrome_match: Option<bool>,
}

impl RestartCheck {
    /// True when every comparison the drill could make passed.
    pub fn bit_identical(&self) -> bool {
        self.fingerprints_match
            && self.jsonl_match.unwrap_or(true)
            && self.chrome_match.unwrap_or(true)
    }
}

/// Runs the drill: an uninterrupted reference run, then a
/// snapshot-at-`epoch` → drop → decode → resume run on
/// `resume_threads` workers, compared field by field. Returns the
/// resumed outcome (so callers can report its metrics) plus the check.
///
/// # Panics
///
/// Panics if `epoch` is 0 or not before the run's last barrier
/// ([`ClusterConfig::barriers`]; the drill would have nothing to
/// compare), or if the snapshot fails to decode or resume —
/// in this crate's usage those are test failures, not recoverable
/// conditions.
pub fn crash_restart(
    ctx: &ServiceContext,
    choice: &ControllerChoice,
    cfg: &ClusterConfig,
    epoch: u32,
    resume_threads: usize,
) -> (ClusterOutcome, RestartCheck) {
    let barriers = cfg.barriers();
    assert!(
        epoch > 0 && u64::from(epoch) < barriers,
        "epoch {epoch} is not a mid-run barrier of {barriers} epochs"
    );
    let reference = ClusterRunner::new(ctx, choice, cfg).run().outcome;

    // The drill: run to the barrier, keep only the encoded bytes.
    let bytes = {
        let mut run = ClusterRunner::new(ctx, choice, cfg)
            .snapshot_at(epoch)
            .run();
        let (got, snap) = run
            .snapshots
            .pop()
            .expect("snapshot captured at the barrier");
        assert_eq!(got, epoch, "captured the requested barrier");
        snap.to_bytes()
        // `run` (outcome, engines, telemetry) dropped here — the crash.
    };
    let snap = ClusterSnapshot::from_bytes(&bytes).expect("snapshot bytes parse");
    let t_s = snap.t_ns as f64 / 1e9;
    let mut resume_cfg = cfg.clone();
    resume_cfg.threads = resume_threads.max(1);
    let resumed = ClusterRunner::resume(&snap, ctx, choice, &resume_cfg)
        .expect("snapshot is compatible with its own config")
        .run()
        .outcome;

    let reference_fingerprint = outcome_fingerprint(&reference);
    let resumed_fingerprint = outcome_fingerprint(&resumed);
    let exports = |a: &ClusterOutcome,
                   b: &ClusterOutcome,
                   f: &dyn Fn(&rhythm_cluster::ClusterTelemetry) -> String| match (
        a.telemetry.as_ref(),
        b.telemetry.as_ref(),
    ) {
        (Some(x), Some(y)) => Some(f(x) == f(y)),
        _ => None,
    };
    let check = RestartCheck {
        epoch,
        t_s,
        snapshot_bytes: bytes.len(),
        reference_fingerprint,
        resumed_fingerprint,
        fingerprints_match: reference_fingerprint == resumed_fingerprint,
        jsonl_match: exports(&reference, &resumed, &|t| t.export_jsonl()),
        chrome_match: exports(&reference, &resumed, &|t| t.chrome_trace()),
    };
    (resumed, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_cluster::{FaultPlan, PlacementPolicy};
    use rhythm_telemetry::TelemetryConfig;
    use rhythm_workloads::{apps, BeKind, BeSpec, LoadGen};

    fn ctx() -> ServiceContext {
        ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 17)
    }

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::new(2).with_scaled_jobs(0.02);
        c.duration_s = 60;
        c.jobs_per_machine = 3;
        c.load = LoadGen::constant(0.6);
        c.policy = PlacementPolicy::RoundRobin;
        c.threads = 1;
        c.telemetry = TelemetryConfig::full();
        c
    }

    #[test]
    fn drill_is_bit_identical_with_faults_active() {
        let ctx = ctx();
        let mut cfg = cfg();
        cfg.faults = FaultPlan::new().crash(10.0, 1).recover(30.0, 1);
        let (resumed, check) = crash_restart(&ctx, &ControllerChoice::Rhythm, &cfg, 10, 3);
        assert!(check.fingerprints_match, "{check:?}");
        assert_eq!(check.jsonl_match, Some(true));
        assert_eq!(check.chrome_match, Some(true));
        assert!(check.bit_identical());
        assert_eq!(check.epoch, 10);
        assert!((check.t_s - 20.0).abs() < 1e-9, "epoch 10 × 2s barrier");
        assert!(check.snapshot_bytes > 0);
        assert!(resumed.metrics.completed_requests > 0);
    }

    #[test]
    #[should_panic(expected = "mid-run barrier")]
    fn drill_refuses_out_of_range_epochs() {
        let ctx = ctx();
        let cfg = cfg();
        crash_restart(&ctx, &ControllerChoice::Rhythm, &cfg, 30, 1);
    }
}
