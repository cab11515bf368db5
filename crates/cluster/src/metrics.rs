//! Cluster-wide metrics: the per-replica engine outputs merged into one
//! EMU/utilization view plus the job-level outcomes only the cluster
//! layer can observe (completion times, wasted work, requeues).

use crate::job::{ClusterJob, JobStats};
use rhythm_core::metrics::RunMetrics;
use rhythm_core::runtime::EngineOutput;
use rhythm_sim::LatencyHistogram;
use rhythm_telemetry::json::{Obj, Sink, ToJson};
use rhythm_telemetry::{ClusterEvent, TailPoint, TelemetryOutput};

/// Merged metrics of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterMetrics {
    /// Machines in the cluster.
    pub machines: usize,
    /// Service replicas (engines).
    pub replicas: usize,
    /// Mean LC throughput across replicas (served / max load).
    pub lc_throughput: f64,
    /// Mean normalized BE throughput across machines.
    pub be_throughput: f64,
    /// `lc_throughput + be_throughput` (the paper's EMU).
    pub emu: f64,
    /// Mean machine CPU utilization.
    pub cpu_util: f64,
    /// Mean machine memory-bandwidth utilization.
    pub membw_util: f64,
    /// Cluster-wide p99 latency in ms (merged histograms).
    pub p99_ms: f64,
    /// The SLA target in ms.
    pub sla_ms: f64,
    /// `p99 / SLA`.
    pub tail_ratio: f64,
    /// Controller periods with slack < 0, summed over machines.
    pub sla_violations: u64,
    /// StopBE kills summed over machines.
    pub be_kills: u64,
    /// Requests completed cluster-wide (post-warmup).
    pub completed_requests: u64,
    /// BE job outcomes.
    pub jobs: JobStats,
    /// Queue requeues (kills + withdrawn offers re-entering the queue).
    pub requeues: u64,
}

impl ToJson for ClusterMetrics {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("machines", self.machines)
            .field("replicas", self.replicas)
            .field("lc_throughput", self.lc_throughput)
            .field("be_throughput", self.be_throughput)
            .field("emu", self.emu)
            .field("cpu_util", self.cpu_util)
            .field("membw_util", self.membw_util)
            .field("p99_ms", self.p99_ms)
            .field("sla_ms", self.sla_ms)
            .field("tail_ratio", self.tail_ratio)
            .field("sla_violations", self.sla_violations)
            .field("be_kills", self.be_kills)
            .field("completed_requests", self.completed_requests)
            .field("jobs", &self.jobs)
            .field("requeues", self.requeues)
            .close();
    }
}

impl ClusterMetrics {
    /// Merges per-replica outputs and the job ledger. `horizon_s` is the
    /// run length in virtual seconds: a job whose deadline fell inside
    /// the window but did not finish by it counts as a deadline miss.
    pub fn merge(
        machines: usize,
        outputs: &[EngineOutput],
        per_replica: &[RunMetrics],
        jobs: &[ClusterJob],
        requeues: u64,
        horizon_s: f64,
    ) -> ClusterMetrics {
        let replicas = per_replica.len().max(1) as f64;
        let mean = |f: &dyn Fn(&RunMetrics) -> f64| -> f64 {
            per_replica.iter().map(&f).sum::<f64>() / replicas
        };
        let lc = mean(&|m: &RunMetrics| m.lc_throughput);
        let be = mean(&|m: &RunMetrics| m.be_throughput);
        let mut hist = LatencyHistogram::new();
        for o in outputs {
            hist.merge(&o.latency);
        }
        let p99 = hist.p99();
        let sla_ms = outputs.first().map(|o| o.sla_ms).unwrap_or(f64::INFINITY);
        ClusterMetrics {
            machines,
            replicas: per_replica.len(),
            lc_throughput: lc,
            be_throughput: be,
            emu: lc + be,
            cpu_util: mean(&|m: &RunMetrics| m.cpu_util),
            membw_util: mean(&|m: &RunMetrics| m.membw_util),
            p99_ms: p99,
            sla_ms,
            tail_ratio: if sla_ms.is_finite() && sla_ms > 0.0 {
                p99 / sla_ms
            } else {
                0.0
            },
            sla_violations: per_replica.iter().map(|m| m.sla_violations).sum(),
            be_kills: per_replica.iter().map(|m| m.be_kills).sum(),
            completed_requests: outputs.iter().map(|o| o.completed).sum(),
            jobs: JobStats::from_jobs_at(jobs, horizon_s),
            requeues,
        }
    }
}

/// Everything one cluster run produces.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Merged cluster metrics.
    pub metrics: ClusterMetrics,
    /// Per-replica run metrics (index = replica).
    pub per_replica: Vec<RunMetrics>,
    /// The full job ledger.
    pub jobs: Vec<ClusterJob>,
    /// Per-machine fingerprints (index = global machine index): a hash
    /// of the machine's measured aggregates, for bit-reproducibility
    /// checks across thread counts.
    pub fingerprints: Vec<u64>,
    /// Telemetry collected by every replica plus the merged cluster tail
    /// series (`None` when [`crate::ClusterConfig::telemetry`] was
    /// disabled).
    pub telemetry: Option<ClusterTelemetry>,
}

/// Telemetry of one cluster run: every replica's recorder/audit/tail
/// output plus the cluster-wide tail series merged at the epoch
/// barriers. All exports are byte-identical for any worker-thread count.
#[derive(Clone, Debug, Default)]
pub struct ClusterTelemetry {
    /// Per-replica telemetry, in replica order.
    pub replicas: Vec<TelemetryOutput>,
    /// The cluster-wide tail series: per-engine epoch windows merged in
    /// fixed replica order at each barrier.
    pub cluster_tail: Vec<TailPoint>,
    /// Cluster-scheduler events (gang lifecycle, deadline misses), in
    /// emission order. Empty for homogeneous runs without gangs or
    /// deadlines, keeping their exports byte-identical to older ones.
    pub cluster_events: Vec<ClusterEvent>,
}

impl ClusterTelemetry {
    /// The full JSONL export (meta line, per-replica events/audit/tail,
    /// merged cluster tail, cluster-scheduler events).
    pub fn export_jsonl(&self) -> String {
        rhythm_telemetry::export_jsonl(&self.replicas, &self.cluster_tail, &self.cluster_events)
    }

    /// The Chrome-trace (`chrome://tracing`) export.
    pub fn chrome_trace(&self) -> String {
        rhythm_telemetry::chrome_trace(&self.replicas)
    }

    /// The human-readable decision report, one line per controller
    /// action, replicas in order.
    pub fn why_report(&self) -> String {
        let mut out = String::new();
        for (r, rep) in self.replicas.iter().enumerate() {
            for rec in &rep.audit {
                out.push_str(&format!("[replica {r}] {}\n", rec.why()));
            }
        }
        out
    }

    /// Total controller decisions in the audit trail.
    pub fn decisions(&self) -> usize {
        self.replicas.iter().map(|r| r.audit.len()).sum()
    }
}

/// FNV-1a over per-machine output aggregates. Two runs that processed
/// identical event sequences produce identical fingerprints; any drift
/// in BE scheduling, progress accrual or latency sampling shows up.
pub fn machine_fingerprints(outputs: &[EngineOutput]) -> Vec<u64> {
    let mut fps = Vec::new();
    for o in outputs {
        for p in &o.pods {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut feed = |v: u64| {
                h ^= v;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            };
            feed(o.completed);
            feed(p.cpu_util.to_bits());
            feed(p.lc_cpu_util.to_bits());
            feed(p.membw_util.to_bits());
            feed(p.be_throughput.to_bits());
            feed(p.be_instances_avg.to_bits());
            feed(p.sojourn_stats.count());
            fps.push(h);
        }
    }
    fps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ClusterJob;
    use rhythm_workloads::{BeKind, BeSpec};
    use std::sync::Arc;

    #[test]
    fn merge_of_nothing_is_benign() {
        let jobs: Vec<ClusterJob> = vec![ClusterJob::new(
            0,
            Arc::new(BeSpec::of(BeKind::Wordcount)),
            0.0,
        )];
        let m = ClusterMetrics::merge(4, &[], &[], &jobs, 0, 600.0);
        assert_eq!(m.machines, 4);
        assert_eq!(m.jobs.submitted, 1);
        assert_eq!(m.jobs.completed, 0);
        assert_eq!(m.completed_requests, 0);
    }

    /// Tests compare merged metrics through their compact JSON, so the
    /// text must tell apart every pair of distinct `f64` field values:
    /// one ulp up, and `0.0` against `-0.0`.
    #[test]
    fn compact_json_tells_apart_one_ulp_and_the_sign_of_zero() {
        use rhythm_telemetry::json::to_string;
        let fields: [fn(&mut ClusterMetrics) -> &mut f64; 13] = [
            |m| &mut m.lc_throughput,
            |m| &mut m.be_throughput,
            |m| &mut m.emu,
            |m| &mut m.cpu_util,
            |m| &mut m.membw_util,
            |m| &mut m.p99_ms,
            |m| &mut m.sla_ms,
            |m| &mut m.tail_ratio,
            |m| &mut m.jobs.completion_mean_s,
            |m| &mut m.jobs.completion_p99_s,
            |m| &mut m.jobs.wasted_jobs,
            |m| &mut m.jobs.wasted_machine_s,
            |m| &mut m.jobs.deadline_miss_rate,
        ];
        let base = ClusterMetrics::merge(4, &[], &[], &[], 0, 600.0);
        for (i, field) in fields.into_iter().enumerate() {
            let mut m = base.clone();
            *field(&mut m) = 0.1 + 0.2;
            let before = to_string(&m);
            *field(&mut m) = f64::from_bits((0.1f64 + 0.2).to_bits() + 1);
            assert_ne!(to_string(&m), before, "field {i}: one ulp");
            *field(&mut m) = 0.0;
            let zero = to_string(&m);
            *field(&mut m) = -0.0;
            assert_ne!(to_string(&m), zero, "field {i}: sign of zero");
        }
    }
}
