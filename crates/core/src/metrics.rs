//! The evaluation metrics of §5.1.
//!
//! * **EMU** (effective machine utilization) = LC throughput + BE
//!   throughput, where LC throughput is the request load normalized to
//!   max load and BE throughput is jobs-per-hour normalized to a solo
//!   run. EMU may exceed 100% thanks to resource sharing.
//! * **CPU utilization** and **memory-bandwidth utilization** averaged
//!   across the service's machines.
//! * SLA accounting: worst tail relative to the SLA, violation counts,
//!   BE kills.

use crate::runtime::EngineOutput;
use serde::Serialize;

/// Per-Servpod metrics of one run.
#[derive(Clone, Debug, Serialize)]
pub struct PodMetrics {
    /// Servpod name.
    pub name: String,
    /// Normalized BE throughput at this machine.
    pub be_throughput: f64,
    /// Machine CPU utilization (LC + BE), `[0,1]`.
    pub cpu_util: f64,
    /// Memory-bandwidth utilization (LC + BE), `[0,1]`.
    pub membw_util: f64,
    /// Average live BE instances.
    pub be_instances: f64,
    /// Controller periods that observed an SLA violation.
    pub sla_violations: u64,
    /// BE jobs killed by StopBE.
    pub be_kills: u64,
}

/// Service-level metrics of one run.
#[derive(Clone, Debug, Serialize)]
pub struct RunMetrics {
    /// Average LC load (requests served / max load).
    pub lc_throughput: f64,
    /// Average normalized BE throughput across machines.
    pub be_throughput: f64,
    /// `lc_throughput + be_throughput`.
    pub emu: f64,
    /// Average machine CPU utilization.
    pub cpu_util: f64,
    /// Average machine memory-bandwidth utilization.
    pub membw_util: f64,
    /// 99th-percentile latency over the measured window, in ms.
    pub p99_ms: f64,
    /// The SLA target in ms.
    pub sla_ms: f64,
    /// `p99 / SLA` (≤ 1 means the SLA held).
    pub tail_ratio: f64,
    /// Total controller periods with slack < 0.
    pub sla_violations: u64,
    /// Total BE jobs killed.
    pub be_kills: u64,
    /// Per-Servpod breakdown.
    pub pods: Vec<PodMetrics>,
}

impl RunMetrics {
    /// Summarizes an engine run.
    pub fn from_output(out: &EngineOutput) -> RunMetrics {
        let pods: Vec<PodMetrics> = out
            .pods
            .iter()
            .map(|p| PodMetrics {
                name: p.name.clone(),
                be_throughput: p.be_throughput,
                cpu_util: p.cpu_util,
                membw_util: p.membw_util,
                be_instances: p.be_instances_avg,
                sla_violations: p.agent.map(|a| a.sla_violations).unwrap_or(0),
                be_kills: p.agent.map(|a| a.be_kills).unwrap_or(0),
            })
            .collect();
        let n = pods.len().max(1) as f64;
        let be_throughput = pods.iter().map(|p| p.be_throughput).sum::<f64>() / n;
        let cpu_util = pods.iter().map(|p| p.cpu_util).sum::<f64>() / n;
        let membw_util = pods.iter().map(|p| p.membw_util).sum::<f64>() / n;
        let lc_throughput = out.offered_load_avg;
        let p99 = out.p99_ms();
        RunMetrics {
            lc_throughput,
            be_throughput,
            emu: lc_throughput + be_throughput,
            cpu_util,
            membw_util,
            p99_ms: p99,
            sla_ms: out.sla_ms,
            tail_ratio: if out.sla_ms.is_finite() && out.sla_ms > 0.0 {
                p99 / out.sla_ms
            } else {
                0.0
            },
            sla_violations: pods.iter().map(|p| p.sla_violations).sum(),
            be_kills: pods.iter().map(|p| p.be_kills).sum(),
            pods,
        }
    }

    /// Finds the metrics of a Servpod by name.
    pub fn pod(&self, name: &str) -> Option<&PodMetrics> {
        self.pods.iter().find(|p| p.name == name)
    }
}

/// Relative improvement `(a − b) / b`, guarded against a zero baseline
/// (returns `a` in that case, matching "improvement over nothing").
pub fn improvement(a: f64, b: f64) -> f64 {
    if b.abs() < 1e-12 {
        a
    } else {
        (a - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Engine, EngineConfig};
    use rhythm_workloads::apps;

    #[test]
    fn from_output_aggregates() {
        let out = Engine::new(apps::solr(), EngineConfig::solo(0.5, 20, 1)).run();
        let m = RunMetrics::from_output(&out);
        assert_eq!(m.pods.len(), 2);
        assert!(m.lc_throughput > 0.4 && m.lc_throughput < 0.6);
        assert_eq!(m.be_throughput, 0.0, "solo run has no BE");
        assert!((m.emu - m.lc_throughput).abs() < 1e-12);
        assert!(m.cpu_util > 0.0);
        assert_eq!(m.sla_violations, 0);
        assert!(m.pod("zookeeper").is_some());
        assert!(m.pod("nope").is_none());
    }

    #[test]
    fn improvement_math() {
        assert!((improvement(1.2, 1.0) - 0.2).abs() < 1e-12);
        assert!((improvement(0.8, 1.0) + 0.2).abs() < 1e-12);
        assert_eq!(improvement(0.5, 0.0), 0.5);
    }

    #[test]
    fn tail_ratio_guards_infinite_sla() {
        let out = Engine::new(apps::solr(), EngineConfig::solo(0.3, 15, 2)).run();
        let m = RunMetrics::from_output(&out);
        assert_eq!(m.tail_ratio, 0.0, "solo config has infinite SLA");
    }
}
