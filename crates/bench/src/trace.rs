//! `repro trace` — replays a cluster run with full telemetry and
//! exports everything the flight recorder, audit trail and tail
//! timelines captured.
//!
//! Runs the paper's 4-machine e-commerce testbed under the Rhythm
//! controller with [`TelemetryConfig::full`] and writes, under
//! `results/` (override with `RHYTHM_RESULTS_DIR`):
//!
//! * `trace.jsonl` — the line-per-record export: a meta line, then
//!   every replica's events, audit records and tail points, then the
//!   merged cluster tail series;
//! * `trace_chrome.json` — the same run as a `chrome://tracing` /
//!   Perfetto trace (instant events per action, counter tracks for
//!   tail latency and slack);
//! * `trace.txt` / `trace.json` — the usual report pair, including the
//!   human-readable "why did Rhythm do X at t=Y" decision log.
//!
//! Both exports are byte-identical for any worker-thread count.

use crate::report::{results_dir, Report};
use rhythm_cluster::{run_cluster, ClusterConfig, PlacementPolicy};
use rhythm_core::experiment::{ControllerChoice, ServiceContext};
use rhythm_telemetry::recorder::DEFAULT_RING_CAPACITY;
use rhythm_telemetry::TelemetryConfig;
use rhythm_workloads::{apps, BeKind, BeSpec};
use serde_json::json;
use std::collections::BTreeMap;

/// The traced cell: the paper's 4-machine testbed at 85% load, short
/// enough to stay interactive, with every telemetry stream on.
pub fn trace_config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(4).with_scaled_jobs(0.05);
    cfg.duration_s = 120;
    cfg.jobs_per_machine = 4;
    cfg.policy = PlacementPolicy::InterferenceScore;
    cfg.seed = seed;
    cfg.threads = 4;
    cfg.telemetry = TelemetryConfig::full();
    cfg
}

/// Runs the traced cluster and writes the exports + report.
pub fn run() -> std::io::Result<()> {
    let ctx = ServiceContext::prepare(
        apps::ecommerce(),
        &[
            BeSpec::of(BeKind::Wordcount),
            BeSpec::of(BeKind::StreamDram { big: true }),
        ],
        0x7ACE,
    );
    let cfg = trace_config(0x7ACE);
    let outcome = run_cluster(&ctx, &ControllerChoice::Rhythm, &cfg);
    let tel = outcome
        .telemetry
        .expect("telemetry was enabled in the config");

    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let jsonl_path = dir.join("trace.jsonl");
    std::fs::write(&jsonl_path, tel.export_jsonl())?;
    let chrome_path = dir.join("trace_chrome.json");
    std::fs::write(&chrome_path, tel.chrome_trace())?;

    let recorded: u64 = tel.replicas.iter().map(|r| r.recorded).sum();
    let dropped: u64 = tel.replicas.iter().map(|r| r.dropped).sum();
    let mut by_action: BTreeMap<&'static str, usize> = BTreeMap::new();
    for rep in &tel.replicas {
        for rec in &rep.audit {
            *by_action.entry(rec.action.name()).or_insert(0) += 1;
        }
    }

    let mut report = Report::new(
        "trace",
        "Telemetry of one cluster run (flight recorder + decision audit + tail timelines)",
    );
    report.line(format!(
        "cell: {} machines, {} replicas, {}s at load 0.85, seed {:#x}",
        cfg.machines,
        tel.replicas.len(),
        cfg.duration_s,
        cfg.seed
    ));
    report.line(format!(
        "flight recorder: {recorded} events recorded, {dropped} dropped (ring capacity {})",
        DEFAULT_RING_CAPACITY
    ));
    report.line(format!(
        "audit trail: {} controller decisions; cluster tail: {} epoch points",
        tel.decisions(),
        tel.cluster_tail.len()
    ));
    report.blank();
    report.line("decisions by action:");
    for (name, count) in &by_action {
        report.line(format!("  {name:<18} {count:>5}"));
    }
    report.blank();
    report.line("decision log (why did Rhythm do X at t=Y):");
    let why = tel.why_report();
    let total_lines = why.lines().count();
    for line in why.lines().take(40) {
        report.line(format!("  {line}"));
    }
    if total_lines > 40 {
        report.line(format!(
            "  ... {} more decisions in {}",
            total_lines - 40,
            jsonl_path.display()
        ));
    }
    report.blank();
    if let (Some(first), Some(last)) = (tel.cluster_tail.first(), tel.cluster_tail.last()) {
        report.line(format!(
            "cluster tail: p99 {:.1} -> {:.1} ms, slack {:+.3} -> {:+.3} over {} epochs",
            first.p99_ms,
            last.p99_ms,
            first.slack,
            last.slack,
            tel.cluster_tail.len()
        ));
    }
    report.line(format!(
        "[exports: {} and {}]",
        jsonl_path.display(),
        chrome_path.display()
    ));

    let actions_json: Vec<serde_json::Value> = by_action
        .iter()
        .map(|(name, count)| json!({ "action": *name, "count": *count }))
        .collect();
    let tail_json: Vec<serde_json::Value> = tel
        .cluster_tail
        .iter()
        .map(|p| {
            json!({
                "t_s": p.t_s,
                "count": p.count,
                "p95_ms": p.p95_ms,
                "p99_ms": p.p99_ms,
                "slack": p.slack,
            })
        })
        .collect();
    report.finish(&json!({
        "machines": cfg.machines,
        "duration_s": cfg.duration_s,
        "seed": cfg.seed,
        "events_recorded": recorded,
        "events_dropped": dropped,
        "decisions": tel.decisions(),
        "decisions_by_action": actions_json,
        "cluster_tail": tail_json,
        "exports": json!({
            "jsonl": jsonl_path.display().to_string(),
            "chrome_trace": chrome_path.display().to_string(),
        }),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_config_enables_all_streams() {
        let c = trace_config(1);
        assert!(c.telemetry.enabled);
        assert!(c.machines >= 4);
    }
}
