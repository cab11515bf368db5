//! The chaos campaign: the six-scenario library under Rhythm.
//!
//! Runs [`Scenario::library`] over an 8-machine cluster (two e-commerce
//! replicas): the diurnal baseline, a flash crowd, rolling machine
//! crashes, a correlated rack failure, a silent straggler, and the
//! crash-restart drill that kills the scheduler process at an epoch
//! barrier and resumes it from the snapshot bytes. Reports SLA
//! violations, EMU, job outcomes, the tail-latency recovery time of
//! every disruption, and a per-scenario run fingerprint. Writes
//! `results/chaos.{txt,json}` — byte-identical for a given seed, for
//! any worker-thread count.

use crate::Report;
use rhythm_chaos::{Scenario, ScenarioOutcome};
use rhythm_core::experiment::ControllerChoice;
use rhythm_telemetry::json;

/// Machines in the chaos cell (two e-commerce replicas).
pub const MACHINES: usize = 8;

/// Base seed of the campaign.
pub const SEED: u64 = 0xCA05;

fn fmt_outcome(o: &ScenarioOutcome) -> Vec<String> {
    let m = &o.metrics;
    let mut lines = vec![format!(
        "{:<24} EMU {:>5.3}  p99/SLA {:>5.2}  sla-viol {:>4}  jobs {:>3}/{:<3}  \
         kills {:>3}  requeues {:>3}  fp {:#018x}",
        o.name,
        m.emu,
        m.tail_ratio,
        m.sla_violations,
        m.jobs.completed,
        m.jobs.submitted,
        m.jobs.kills,
        m.requeues,
        o.fingerprint,
    )];
    if let Some(r) = &o.recovery {
        let when = match r.recovered_s {
            Some(s) => format!("{s:.0}s"),
            None => "censored".to_string(),
        };
        lines.push(format!(
            "{:<24} recovery {when}  (baseline p99 {:.2}ms, peak {:.2}ms)",
            "", r.baseline_p99_ms, r.peak_p99_ms,
        ));
    }
    if let Some(c) = &o.restart {
        lines.push(format!(
            "{:<24} restart @epoch {} (t={:.0}s, {} snapshot bytes): {}",
            "",
            c.epoch,
            c.t_s,
            c.snapshot_bytes,
            if c.bit_identical() {
                "resumed run bit-identical"
            } else {
                "MISMATCH"
            },
        ));
    }
    lines
}

/// Runs the campaign and writes `results/chaos.{txt,json}`.
pub fn run() -> std::io::Result<()> {
    let ctx = crate::cluster::context(SEED);
    let mut report = Report::new(
        "chaos",
        "Chaos campaign: trace-shaped load + deterministic fault injection \
         (8 machines, diurnal curve, heavy-tailed backlog)",
    );
    let mut outcomes = Vec::new();
    for scenario in Scenario::library(MACHINES, SEED) {
        report.line(format!("-- {}: {} --", scenario.name, scenario.summary));
        let outcome = scenario.run(&ctx, &ControllerChoice::Rhythm);
        for line in fmt_outcome(&outcome) {
            report.line(line);
        }
        report.blank();
        outcomes.push(outcome);
    }
    let drill_ok = outcomes
        .iter()
        .filter_map(|o| o.restart.as_ref())
        .all(|c| c.bit_identical());
    report.line(format!(
        "crash-restart drill: {}",
        if drill_ok {
            "all comparisons bit-identical"
        } else {
            "MISMATCH — resumed run diverged"
        }
    ));
    report.finish(json::object(|o| {
        o.field("machines", MACHINES)
            .field("seed", SEED)
            .field("controller", "rhythm")
            .field("restart_bit_identical", drill_ok)
            .field("scenarios", &outcomes);
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_library_matches_the_report() {
        let lib = Scenario::library(MACHINES, SEED);
        assert!(lib.len() >= 6);
        assert!(lib.iter().any(|s| s.restart_epoch.is_some()));
        // Every scenario fits the report cell: same machine count, a
        // horizon the recovery metric can observe.
        for s in &lib {
            assert_eq!(s.cfg.machines, MACHINES);
            assert!(s.cfg.duration_s >= 120);
        }
    }
}
