//! The named chaos scenarios.
//!
//! Each [`Scenario`] is a complete, deterministic cluster experiment:
//! a trace-shaped load curve, a heavy-tailed BE backlog, and a
//! [`FaultPlan`] keyed to virtual time — plus, for the crash-restart
//! drill, a snapshot/resume schedule. [`Scenario::library`] builds the
//! standard six:
//!
//! | name | disruption |
//! |------|------------|
//! | `baseline-diurnal` | none — the reference curve |
//! | `flash-crowd` | +60% traffic spike at mid-cycle, 20 s ramp-down |
//! | `rolling-crashes` | three machines crash and recover in sequence |
//! | `correlated-rack-failure` | half the cluster fails at once |
//! | `straggler-node` | one node silently degrades to 60% frequency |
//! | `crash-restart` | the *scheduler process* dies at a barrier and resumes |
//!
//! Every scenario reports the merged cluster metrics, the
//! tail-latency [`Recovery`] estimate anchored at its first
//! disruption, and a run fingerprint — same seed, same fingerprint,
//! for any worker-thread count.
//!
//! [`FaultPlan`]: rhythm_cluster::FaultPlan

use crate::jobs::{heavy_tailed_plan, JobSizeDist};
use crate::recovery::{recovery_time, Recovery};
use crate::restart::{crash_restart, RestartCheck};
use rhythm_cluster::{run_cluster, ClusterConfig, ClusterMetrics, ClusterOutcome, FaultPlan};
use rhythm_core::experiment::{ControllerChoice, ServiceContext};
use rhythm_sim::SimDuration;
use rhythm_telemetry::TelemetryConfig;
use rhythm_workloads::LoadGen;
use serde::Serialize;

/// One named chaos experiment.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable scenario id (e.g. `rolling-crashes`).
    pub name: &'static str,
    /// One-line description for reports.
    pub summary: &'static str,
    /// The full cluster configuration, faults included.
    pub cfg: ClusterConfig,
    /// Virtual time of the first disruption — the anchor of the
    /// recovery metric. `None` for undisrupted baselines.
    pub fault_at_s: Option<f64>,
    /// When set, the scenario is the crash-restart drill: snapshot at
    /// this epoch barrier, drop the runner, resume, compare.
    pub restart_epoch: Option<u32>,
}

/// What one scenario run produced.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioOutcome {
    /// The scenario id.
    pub name: String,
    /// Merged cluster metrics (EMU, SLA violations, job outcomes, …).
    pub metrics: ClusterMetrics,
    /// Tail-latency recovery estimate (`None` when the scenario has no
    /// disruption, no telemetry, or no pre-fault baseline).
    pub recovery: Option<Recovery>,
    /// Crash-restart drill result (`None` for ordinary scenarios).
    pub restart: Option<RestartCheck>,
    /// FNV-1a fingerprint of the outcome: per-machine fingerprints
    /// plus the merged metrics. Bit-identical across thread counts; any
    /// scheduling drift changes it.
    pub fingerprint: u64,
}

/// FNV-1a over everything a run measured: the per-machine engine
/// fingerprints plus the merged cluster metrics and job outcomes.
pub fn outcome_fingerprint(out: &ClusterOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for &fp in &out.fingerprints {
        feed(fp);
    }
    let m = &out.metrics;
    feed(m.emu.to_bits());
    feed(m.lc_throughput.to_bits());
    feed(m.be_throughput.to_bits());
    feed(m.p99_ms.to_bits());
    feed(m.sla_violations);
    feed(m.be_kills);
    feed(m.completed_requests);
    feed(m.requeues);
    feed(m.jobs.completed);
    feed(m.jobs.kills);
    feed(m.jobs.completion_mean_s.to_bits());
    feed(m.jobs.wasted_jobs.to_bits());
    h
}

impl Scenario {
    /// The standard six-scenario library over `machines` machines
    /// (must be ≥ 8 so the fault schedules have distinct targets, and a
    /// multiple of the service's Servpod count). All scenarios share
    /// the same diurnal curve, heavy-tailed backlog and 240 s horizon,
    /// so their metrics are directly comparable; only the disruption
    /// differs.
    pub fn library(machines: usize, seed: u64) -> Vec<Scenario> {
        assert!(machines >= 8, "the fault schedules address machines 0–7");
        let horizon_s = 240u64;
        let base = |seed_off: u64| -> ClusterConfig {
            let mut cfg = ClusterConfig::new(machines);
            cfg.duration_s = horizon_s;
            cfg.seed = seed.wrapping_add(seed_off);
            cfg.threads = 4;
            cfg.telemetry = TelemetryConfig::full();
            cfg.load = LoadGen::diurnal(
                2,
                SimDuration::from_secs(horizon_s),
                120,
                0.25,
                0.85,
                0.03,
                seed,
            );
            // The Alibaba σ=1.7 spread, with the median compressed to
            // fit the 240 s horizon the same way the paper compresses
            // its 5-day trace into 6 hours — short jobs finish inside
            // the window, the tail still dominates machine-seconds.
            cfg.job_plan = heavy_tailed_plan(
                4 * machines,
                &cfg.be_mix.clone(),
                &JobSizeDist::LogNormal {
                    median_s: 18.0,
                    sigma: 1.7,
                },
                2.0,
                180.0,
                seed,
            );
            cfg
        };
        let mut out = Vec::new();
        out.push(Scenario {
            name: "baseline-diurnal",
            summary: "diurnal curve + heavy-tailed backlog, no faults (the reference)",
            cfg: base(0),
            fault_at_s: None,
            restart_epoch: None,
        });
        let mut flash = base(1);
        // Spike lands at mid-cycle (t = 120 s of the 240 s horizon).
        flash.load = flash.load.with_flash_crowd(0.5, 1.6, 10);
        out.push(Scenario {
            name: "flash-crowd",
            summary: "+60% traffic at mid-cycle, ramping down over 20 s",
            cfg: flash,
            fault_at_s: Some(0.5 * horizon_s as f64),
            restart_epoch: None,
        });
        let mut rolling = base(2);
        rolling.faults = FaultPlan::new()
            .crash(60.0, 1)
            .recover(96.0, 1)
            .crash(100.0, 3)
            .recover(136.0, 3)
            .crash(140.0, 5)
            .recover(176.0, 5);
        out.push(Scenario {
            name: "rolling-crashes",
            summary: "machines 1, 3, 5 crash in sequence, each down for 36 s",
            cfg: rolling,
            fault_at_s: Some(60.0),
            restart_epoch: None,
        });
        let mut rack = base(3);
        let rack_members: Vec<u64> = (machines as u64 / 2..machines as u64).collect();
        rack.faults = {
            let mut plan = FaultPlan::new().correlated(80.0, rack_members.clone());
            for &m in &rack_members {
                plan = plan.recover(140.0, m);
            }
            plan
        };
        out.push(Scenario {
            name: "correlated-rack-failure",
            summary: "the upper half of the cluster fails at once, back after 60 s",
            cfg: rack,
            fault_at_s: Some(80.0),
            restart_epoch: None,
        });
        let mut straggler = base(4);
        straggler.faults = FaultPlan::new().slow_node(60.0, 2, 0.6).recover(180.0, 2);
        out.push(Scenario {
            name: "straggler-node",
            summary: "machine 2 silently degrades to 60% frequency for 120 s",
            cfg: straggler,
            fault_at_s: Some(60.0),
            restart_epoch: None,
        });
        let mut restart = base(5);
        restart.faults = FaultPlan::new().crash(64.0, 1).recover(120.0, 1);
        out.push(Scenario {
            name: "crash-restart",
            summary: "scheduler process dies at epoch 50 (t=100 s, one machine down) and resumes",
            cfg: restart,
            fault_at_s: Some(64.0),
            restart_epoch: Some(50),
        });
        out
    }

    /// Runs the scenario under `choice`. The crash-restart drill runs
    /// the experiment twice (reference + snapshot/resume) and reports
    /// the resumed outcome; everything else runs once.
    pub fn run(&self, ctx: &ServiceContext, choice: &ControllerChoice) -> ScenarioOutcome {
        let (outcome, restart) = match self.restart_epoch {
            Some(epoch) => {
                // Resume on a different worker count — determinism must
                // not depend on it.
                let (outcome, check) =
                    crash_restart(ctx, choice, &self.cfg, epoch, self.cfg.threads + 1);
                (outcome, Some(check))
            }
            None => (run_cluster(ctx, choice, &self.cfg), None),
        };
        let recovery = self.fault_at_s.and_then(|at| {
            outcome
                .telemetry
                .as_ref()
                .and_then(|t| recovery_time(&t.cluster_tail, at))
        });
        ScenarioOutcome {
            name: self.name.to_string(),
            fingerprint: outcome_fingerprint(&outcome),
            metrics: outcome.metrics,
            recovery,
            restart,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_cluster::PlacementPolicy;
    use rhythm_workloads::{apps, BeKind, BeSpec};

    #[test]
    fn library_is_well_formed() {
        let lib = Scenario::library(8, 7);
        assert!(lib.len() >= 6, "the standard library has six scenarios");
        let names: std::collections::BTreeSet<&str> = lib.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), lib.len(), "names are unique");
        for want in [
            "baseline-diurnal",
            "flash-crowd",
            "rolling-crashes",
            "correlated-rack-failure",
            "straggler-node",
            "crash-restart",
        ] {
            assert!(names.contains(want), "missing {want}");
        }
        for s in &lib {
            s.cfg.faults.validate(s.cfg.machines).expect("valid plan");
            assert!(
                s.cfg.telemetry.enabled,
                "recovery metric needs the tail series"
            );
            assert!(!s.cfg.job_plan.is_empty(), "heavy-tailed backlog present");
            if !s.cfg.faults.is_empty() || s.name == "flash-crowd" {
                assert!(s.fault_at_s.is_some(), "{} has a recovery anchor", s.name);
            }
        }
        assert!(lib.iter().any(|s| s.restart_epoch.is_some()));
        // Scenarios are pure functions of (machines, seed).
        let again = Scenario::library(8, 7);
        for (a, b) in lib.iter().zip(&again) {
            assert_eq!(a.cfg.faults.fingerprint(), b.cfg.faults.fingerprint());
            assert_eq!(a.cfg.load.peak_fraction(), b.cfg.load.peak_fraction());
        }
    }

    #[test]
    fn scenario_runs_are_fingerprint_stable() {
        // A miniature scenario (2 machines, 60 s) so the unit test stays
        // fast; the full library runs under `repro chaos`.
        let ctx = ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 23);
        let mini = |threads: usize| {
            let mut cfg = ClusterConfig::new(2).with_scaled_jobs(0.02);
            cfg.duration_s = 60;
            cfg.jobs_per_machine = 3;
            cfg.policy = PlacementPolicy::RoundRobin;
            cfg.threads = threads;
            cfg.telemetry = TelemetryConfig::full();
            cfg.load = LoadGen::diurnal(1, SimDuration::from_secs(60), 30, 0.3, 0.7, 0.02, 5);
            cfg.faults = FaultPlan::new().crash(20.0, 1).recover(40.0, 1);
            Scenario {
                name: "mini",
                summary: "unit-test scenario",
                cfg,
                fault_at_s: Some(20.0),
                restart_epoch: None,
            }
        };
        let a = mini(1).run(&ctx, &ControllerChoice::Rhythm);
        let b = mini(3).run(&ctx, &ControllerChoice::Rhythm);
        assert_eq!(a.fingerprint, b.fingerprint, "thread-count invariant");
        assert!(
            a.recovery.is_some(),
            "fault + tail series yield an estimate"
        );
        assert!(a.metrics.completed_requests > 0);
        assert!(a.restart.is_none());
    }
}
