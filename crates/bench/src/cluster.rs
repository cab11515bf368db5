//! The cluster experiment: Rhythm vs Heracles at N ∈ {4, 16, 64}
//! machines.
//!
//! Scales the paper's 4-machine evaluation up with the cluster layer:
//! each cell runs the shared-backlog BE dispatcher (interference-score
//! placement) over N machines at 85% load — the regime where the two
//! controllers diverge — and reports cluster-wide EMU / CPU / MemBW plus
//! the job-level outcomes only the cluster can see: BE completion times
//! and wasted work. Writes `results/cluster.{txt,json}`.

use crate::Report;
use rhythm_cluster::{compare_cluster, ClusterConfig, ClusterMetrics, JobSpec, PlacementPolicy};
use rhythm_core::experiment::ServiceContext;
use rhythm_machine::MachineSpec;
use rhythm_workloads::{apps, BeKind, BeSpec};
use serde_json::json;

/// Cluster sizes evaluated (the paper's testbed is N=4).
pub const SIZES: [usize; 3] = [4, 16, 64];

/// The cluster configuration one cell runs (shared by the scaling
/// benchmark so BENCH numbers describe the same workload).
pub fn cell_config(machines: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(machines).with_scaled_jobs(0.05);
    cfg.duration_s = 300;
    cfg.jobs_per_machine = 4;
    cfg.policy = PlacementPolicy::InterferenceScore;
    cfg.seed = seed;
    cfg.threads = 8;
    cfg
}

/// The prepared e-commerce context every cell shares.
pub fn context(seed: u64) -> ServiceContext {
    ServiceContext::prepare(
        apps::ecommerce(),
        &[
            BeSpec::of(BeKind::Wordcount),
            BeSpec::of(BeKind::StreamDram { big: true }),
        ],
        seed,
    )
}

fn fmt_row(name: &str, m: &ClusterMetrics) -> String {
    let mut row = format!(
        "{name:<10} EMU {:>5.3}  LC {:>5.3}  BE {:>5.3}  CPU {:>4.1}%  MemBW {:>4.1}%  \
         p99/SLA {:>5.2}  jobs {:>3}/{:<3}  compl-mean {:>6.1}s  wasted {:>5.2} jobs  kills {:>3}",
        m.emu,
        m.lc_throughput,
        m.be_throughput,
        m.cpu_util * 100.0,
        m.membw_util * 100.0,
        m.tail_ratio,
        m.jobs.completed,
        m.jobs.submitted,
        m.jobs.completion_mean_s,
        m.jobs.wasted_jobs,
        m.jobs.kills,
    );
    // Deadline column only when the plan has dated jobs, so homogeneous
    // reports render exactly as before.
    if m.jobs.deadline_total > 0 {
        row.push_str(&format!(
            "  dmiss {:>2}/{:<2} ({:>4.1}%)",
            m.jobs.deadline_missed,
            m.jobs.deadline_total,
            m.jobs.deadline_miss_rate * 100.0,
        ));
    }
    row
}

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let ctx = context(0xC1);
    let mut report = Report::new(
        "cluster",
        "Cluster-level Rhythm vs Heracles at N machines (shared BE backlog, interference-score placement)",
    );
    let mut cells = Vec::new();
    for &n in &SIZES {
        let cfg = cell_config(n, 0xC1);
        let (rhythm, heracles) = compare_cluster(&ctx, &cfg);
        report.line(format!(
            "-- N = {n} machines ({} replicas) --",
            rhythm.metrics.replicas
        ));
        report.line(fmt_row("rhythm", &rhythm.metrics));
        report.line(fmt_row("heracles", &heracles.metrics));
        let gain = if heracles.metrics.emu > 0.0 {
            (rhythm.metrics.emu / heracles.metrics.emu - 1.0) * 100.0
        } else {
            0.0
        };
        report.line(format!("EMU improvement: {gain:+.1}%"));
        report.blank();
        cells.push(json!({
            "machines": n,
            "rhythm": rhythm.metrics,
            "heracles": heracles.metrics,
            "emu_gain_pct": gain,
        }));
    }
    report.finish(&json!({
        "policy": "interference-score",
        "load": 0.85,
        "duration_s": 300,
        "cells": cells,
    }))
}

/// Machine specs of the heterogeneous 4-machine cell: a dense compute
/// node, two paper testbeds and a lean node — two distinct hardware
/// classes beyond the baseline, in fixed global order.
pub fn hetero_specs() -> Vec<MachineSpec> {
    vec![
        MachineSpec::dense_compute(),
        MachineSpec::paper_testbed(),
        MachineSpec::lean_node(),
        MachineSpec::paper_testbed(),
    ]
}

/// The heterogeneous cluster cell: 4 machines of 3 hardware classes,
/// hetero-aware placement, priority preemption, queue aging, and a job
/// plan mixing best-effort work with dated priority jobs and one
/// 3-instance gang.
pub fn hetero_config(seed: u64) -> ClusterConfig {
    let mut cfg = cell_config(4, seed);
    cfg.policy = PlacementPolicy::HeteroAware;
    cfg.machine_specs = hetero_specs();
    cfg.priority_preemption = true;
    cfg.queue_aging_s = Some(60.0);
    let wc = cfg.be_mix[0].clone();
    let ic = cfg.be_mix[1].clone();
    let lstm = cfg.be_mix[2].clone();
    cfg.job_plan = vec![
        // An urgent class-2 job and a batch of dated class-1 jobs.
        JobSpec::solitary(lstm.clone())
            .with_priority(2)
            .with_deadline(90.0),
        JobSpec::solitary(ic.clone())
            .with_priority(1)
            .with_deadline(120.0),
        JobSpec::solitary(ic.clone())
            .with_priority(1)
            .with_deadline(180.0),
        JobSpec::solitary(ic).with_priority(1).with_deadline(240.0),
        // A gang of three co-scheduled instances.
        JobSpec::solitary(wc.clone()).with_priority(1).with_gang(3),
        // Best-effort filler the high classes preempt.
        JobSpec::solitary(wc.clone()),
        JobSpec::solitary(wc.clone()),
        JobSpec::solitary(wc.clone()),
        JobSpec::solitary(lstm),
        JobSpec::solitary(wc),
    ];
    cfg
}

/// Runs the heterogeneous experiment and writes
/// `results/cluster_hetero.{txt,json}`.
pub fn run_hetero() -> std::io::Result<()> {
    let ctx = context(0xC1);
    let cfg = hetero_config(0xC1);
    let mut report = Report::new(
        "cluster_hetero",
        "Heterogeneous 4-machine cluster: 3 hardware classes, priority/deadline jobs, \
         one 3-instance gang (hetero-aware placement, priority preemption, queue aging)",
    );
    let (rhythm, heracles) = compare_cluster(&ctx, &cfg);
    let classes: Vec<&str> = vec![
        "dense-compute",
        "paper-testbed",
        "lean-node",
        "paper-testbed",
    ];
    report.line(format!(
        "-- 4 machines [{}], {} jobs ({} gang instances) --",
        classes.join(", "),
        cfg.total_jobs(),
        cfg.job_plan
            .iter()
            .filter(|e| e.gang > 1)
            .map(|e| e.gang)
            .sum::<u32>(),
    ));
    report.line(fmt_row("rhythm", &rhythm.metrics));
    report.line(fmt_row("heracles", &heracles.metrics));
    let gain = if heracles.metrics.emu > 0.0 {
        (rhythm.metrics.emu / heracles.metrics.emu - 1.0) * 100.0
    } else {
        0.0
    };
    report.line(format!("EMU improvement: {gain:+.1}%"));
    report.blank();
    report.finish(&json!({
        "policy": "hetero-aware",
        "load": 0.85,
        "duration_s": cfg.duration_s,
        "machine_classes": classes,
        "priority_preemption": true,
        "queue_aging_s": 60.0,
        "gang_patience_epochs": cfg.gang_patience_epochs,
        "jobs": cfg.total_jobs(),
        "rhythm": rhythm.metrics,
        "heracles": heracles.metrics,
        "emu_gain_pct": gain,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_config_scales_with_n() {
        for &n in &SIZES {
            let c = cell_config(n, 1);
            assert_eq!(c.machines, n);
            assert_eq!(c.total_jobs(), 4 * n);
        }
    }

    #[test]
    fn hetero_config_is_well_formed() {
        let c = hetero_config(1);
        assert_eq!(c.machines, 4);
        assert_eq!(c.machine_specs.len(), 4);
        let distinct: std::collections::BTreeSet<u32> = c
            .machine_specs
            .iter()
            .map(|s| s.total_cores() * s.max_freq_mhz)
            .collect();
        assert!(distinct.len() >= 2, "at least two hardware classes");
        assert!(c.job_plan.iter().any(|e| e.gang > 1), "plan has a gang");
        assert!(
            c.job_plan.iter().any(|e| e.deadline_s.is_some()),
            "plan has dated jobs"
        );
        assert!(c.priority_preemption);
        assert_eq!(c.total_jobs(), 12, "9 solitary + 3 gang instances");
    }
}
