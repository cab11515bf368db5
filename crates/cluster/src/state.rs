//! Cluster state model: N machines as replicas of the service.
//!
//! The paper deploys one Servpod per machine (§3.1), so an N-machine
//! cluster hosts `N / service.len()` replicas of the LC service — the
//! 4-machine testbed is exactly one e-commerce deployment. Each replica
//! runs in its own engine (with its own load generator, controllers and
//! RNG streams); the cluster layer addresses machines by a **global
//! index** `replica * pods + pod`.

use crate::fault::FaultPlan;
use crate::job::JobSpec;
use crate::placement::PlacementPolicy;
use rhythm_machine::MachineSpec;
use rhythm_telemetry::TelemetryConfig;
use rhythm_workloads::{BeKind, BeSpec, LoadGen};
use std::collections::BTreeMap;

/// A global machine index resolved to its replica and Servpod.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineRef {
    /// Which service replica (engine) the machine belongs to.
    pub replica: usize,
    /// Which Servpod (machine index within the engine).
    pub pod: usize,
}

/// Resolves a global machine index (`pods` = Servpods per replica).
pub fn machine_ref(global: usize, pods: usize) -> MachineRef {
    MachineRef {
        replica: global / pods,
        pod: global % pods,
    }
}

/// The global index of `(replica, pod)`.
pub fn global_index(replica: usize, pod: usize, pods: usize) -> usize {
    replica * pods + pod
}

/// An independent seed for one replica's engine (splitmix64 over the
/// base seed, so replicas never share RNG streams and adding replicas
/// never perturbs existing ones).
pub fn replica_seed(base: u64, replica: usize) -> u64 {
    let mut z = base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(replica as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Total machines; must be a multiple of the service's Servpod count.
    pub machines: usize,
    /// Worker threads for the parallel runner (results are identical for
    /// any value ≥ 1).
    pub threads: usize,
    /// Placement policy of the BE dispatcher.
    pub policy: PlacementPolicy,
    /// Backlog size: jobs submitted at t=0 per machine.
    pub jobs_per_machine: u32,
    /// Checkpoint granularity: a killed job rolls back to the last
    /// multiple of this fraction (0.1 = checkpoints every 10%).
    pub checkpoint_fraction: f64,
    /// Run length in virtual seconds.
    pub duration_s: u64,
    /// Offered load on every replica.
    pub load: LoadGen,
    /// Base seed.
    pub seed: u64,
    /// Controller period in ms — also the cluster epoch (paper: 2000).
    pub controller_period_ms: u64,
    /// BE workload mix the backlog cycles through.
    pub be_mix: Vec<BeSpec>,
    /// Telemetry collection in every replica engine (plus the merged
    /// cluster tail series). Disabled by default.
    pub telemetry: TelemetryConfig,
    /// Per-machine hardware overrides, indexed by **global machine
    /// index**. Empty (the default) keeps every machine on the engines'
    /// uniform spec; non-empty must hold one spec per machine.
    pub machine_specs: Vec<MachineSpec>,
    /// Explicit job plan. Empty (the default) derives the classic
    /// backlog: `jobs_per_machine × machines` solitary best-effort jobs
    /// cycling through `be_mix`. Non-empty replaces it with the listed
    /// entries (gang entries expand to their instance count).
    pub job_plan: Vec<JobSpec>,
    /// Priority-aware preemption in the per-machine controllers: StopBE
    /// kills only the lowest-priority class and CutBE shrinks only the
    /// lowest class. Off by default (paper behaviour).
    pub priority_preemption: bool,
    /// Queue aging: a waiting job rises one priority class per this many
    /// virtual seconds (anti-starvation). `None` disables aging.
    pub queue_aging_s: Option<f64>,
    /// Epochs a forming gang may wait for all of its instances to be
    /// admitted before the dispatcher aborts and requeues it.
    pub gang_patience_epochs: u32,
    /// Deterministic fault-injection schedule, applied at epoch
    /// barriers. Empty (the default) injects nothing and leaves the
    /// run — including its snapshot bytes — identical to a
    /// pre-chaos build.
    pub faults: FaultPlan,
}

impl ClusterConfig {
    /// A sensible default cluster of `machines` machines: 85% load (the
    /// regime where Rhythm and Heracles diverge), a 10-minute run, the
    /// paper's three real BE workloads, and 10% checkpoints.
    pub fn new(machines: usize) -> ClusterConfig {
        ClusterConfig {
            machines,
            threads: 4,
            policy: PlacementPolicy::InterferenceScore,
            jobs_per_machine: 4,
            checkpoint_fraction: 0.1,
            duration_s: 600,
            load: LoadGen::constant(0.85),
            seed: 42,
            controller_period_ms: 2_000,
            be_mix: vec![
                BeSpec::of(BeKind::Wordcount),
                BeSpec::of(BeKind::ImageClassify),
                BeSpec::of(BeKind::Lstm),
            ],
            telemetry: TelemetryConfig::disabled(),
            machine_specs: Vec::new(),
            job_plan: Vec::new(),
            priority_preemption: false,
            queue_aging_s: None,
            gang_patience_epochs: 4,
            faults: FaultPlan::new(),
        }
    }

    /// Scales every job in the mix (and any explicit plan) to `factor`
    /// of its solo runtime (pressure characteristics unchanged). Short
    /// runs use this so completion-time distributions are observable
    /// inside the window.
    pub fn with_scaled_jobs(mut self, factor: f64) -> ClusterConfig {
        for spec in &mut self.be_mix {
            spec.job_seconds = (spec.job_seconds * factor).max(1.0);
        }
        for entry in &mut self.job_plan {
            entry.spec.job_seconds = (entry.spec.job_seconds * factor).max(1.0);
        }
        self
    }

    /// The workload catalog (by name) the engines and the placer share.
    pub fn catalog(&self) -> BTreeMap<String, BeSpec> {
        self.be_mix
            .iter()
            .chain(self.job_plan.iter().map(|e| &e.spec))
            .map(|s| (s.name.clone(), s.clone()))
            .collect()
    }

    /// The effective job plan: the explicit `job_plan` when set,
    /// otherwise the classic derived backlog (`jobs_per_machine ×
    /// machines` solitary best-effort jobs cycling through `be_mix`).
    pub fn effective_plan(&self) -> Vec<JobSpec> {
        if !self.job_plan.is_empty() {
            return self.job_plan.clone();
        }
        (0..self.jobs_per_machine as usize * self.machines)
            .map(|i| JobSpec::solitary(self.be_mix[i % self.be_mix.len()].clone()))
            .collect()
    }

    /// The epoch length in milliseconds: the controller period, at
    /// least 100 ms.
    pub fn epoch_ms(&self) -> u64 {
        self.controller_period_ms.max(100)
    }

    /// Epoch barriers in a run, ⌈duration ÷ epoch⌉: the last epoch is
    /// cut short at the horizon but still ends in a barrier.
    pub fn barriers(&self) -> u64 {
        (self.duration_s * 1000).div_ceil(self.epoch_ms())
    }

    /// Total jobs in the backlog (gang entries count every instance).
    pub fn total_jobs(&self) -> usize {
        if self.job_plan.is_empty() {
            self.jobs_per_machine as usize * self.machines
        } else {
            self.job_plan.iter().map(|e| e.gang.max(1) as usize).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_index_round_trips() {
        for pods in [1usize, 2, 4] {
            for g in 0..16 {
                let r = machine_ref(g, pods);
                assert_eq!(global_index(r.replica, r.pod, pods), g);
                assert!(r.pod < pods);
            }
        }
    }

    #[test]
    fn replica_seeds_differ() {
        let seeds: Vec<u64> = (0..16).map(|r| replica_seed(7, r)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn explicit_plan_overrides_backlog() {
        let mut c = ClusterConfig::new(4);
        assert_eq!(c.total_jobs(), 16);
        assert_eq!(c.effective_plan().len(), 16);
        c.job_plan = vec![
            JobSpec::solitary(BeSpec::of(BeKind::Wordcount)).with_priority(1),
            JobSpec::solitary(BeSpec::of(BeKind::Lstm)).with_gang(3),
        ];
        assert_eq!(c.total_jobs(), 4, "gang counts every instance");
        assert_eq!(c.effective_plan().len(), 2);
        assert!(c.catalog().contains_key("wordcount"));
    }

    #[test]
    fn scaling_touches_plan_entries() {
        let mut c = ClusterConfig::new(4);
        c.job_plan = vec![JobSpec::solitary(BeSpec::of(BeKind::Wordcount))];
        let solo = c.job_plan[0].spec.job_seconds;
        let c = c.with_scaled_jobs(0.1);
        assert!((c.job_plan[0].spec.job_seconds - (solo * 0.1).max(1.0)).abs() < 1e-12);
    }

    #[test]
    fn scaled_jobs_shrink() {
        let c = ClusterConfig::new(4).with_scaled_jobs(0.1);
        for s in &c.be_mix {
            assert!(s.job_seconds <= 120.0, "{} {}", s.name, s.job_seconds);
        }
    }
}
