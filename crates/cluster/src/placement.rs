//! Placement policies for the BE dispatcher.
//!
//! The dispatcher only ever considers machines whose controller currently
//! signals AllowBEGrowth (§3.5: the cluster scheduler is driven purely by
//! the per-machine signals). Among those, the policy picks where the next
//! queued job goes:
//!
//! * **RoundRobin** — rotate over eligible machines; the baseline any
//!   real scheduler starts from.
//! * **LeastPressure** — place on the machine whose current BE population
//!   exerts the least aggregate resource pressure.
//! * **InterferenceScore** — score each eligible machine by the
//!   service-time inflation its LC component *would* suffer with one
//!   probe instance of the job added, using the calibrated
//!   `rhythm-interference` sensitivities, and pick the minimum (cf. the
//!   scoring mechanism of the related microservice-interference work).
//! * **HeteroAware** — the interference score divided by the machine's
//!   normalized capacity headroom (free cores × max frequency against
//!   the paper testbed), plus a straggler penalty that steers gang
//!   members toward machines of similar capacity — a gang finishes when
//!   its *slowest* member does, so co-placing a member on a much weaker
//!   machine wastes the faster peers.

use rhythm_interference::{InterferenceModel, Pressure};
use rhythm_machine::Machine;
use rhythm_workloads::{BeSpec, ComponentSpec};
use serde::Serialize;
use std::collections::BTreeMap;

/// Which placement policy the dispatcher uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PlacementPolicy {
    /// Rotate over eligible machines.
    RoundRobin,
    /// Least aggregate BE pressure first.
    LeastPressure,
    /// Lowest predicted LC inflation first.
    InterferenceScore,
    /// Inflation weighted by capacity headroom plus a gang straggler
    /// penalty (heterogeneous clusters).
    HeteroAware,
}

impl PlacementPolicy {
    /// Short name used in reports and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::LeastPressure => "least-pressure",
            PlacementPolicy::InterferenceScore => "interference-score",
            PlacementPolicy::HeteroAware => "hetero-aware",
        }
    }

    /// Parses a CLI name (see [`PlacementPolicy::name`]).
    pub fn parse(s: &str) -> Option<PlacementPolicy> {
        match s {
            "round-robin" | "rr" => Some(PlacementPolicy::RoundRobin),
            "least-pressure" | "lp" => Some(PlacementPolicy::LeastPressure),
            "interference-score" | "is" => Some(PlacementPolicy::InterferenceScore),
            "hetero-aware" | "ha" => Some(PlacementPolicy::HeteroAware),
            _ => None,
        }
    }
}

/// One eligible machine as the placer sees it.
pub struct CandidateMachine<'a> {
    /// Global machine index within the cluster.
    pub global: usize,
    /// The machine's current state.
    pub machine: &'a Machine,
    /// The LC component hosted on this machine.
    pub component: &'a ComponentSpec,
}

/// Stateful placer (the round-robin cursor persists across epochs).
#[derive(Clone, Debug)]
pub struct Placer {
    policy: PlacementPolicy,
    model: InterferenceModel,
    cursor: usize,
}

impl Placer {
    /// A placer for `policy` scoring with `model`.
    pub fn new(policy: PlacementPolicy, model: InterferenceModel) -> Placer {
        Placer {
            policy,
            model,
            cursor: 0,
        }
    }

    /// The policy this placer runs.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Picks the machine (global index) for one instance of `job` among
    /// `eligible` (must be sorted by global index; deterministic:
    /// ties break toward the lowest index). Returns `None` when nothing
    /// is eligible.
    pub fn choose(
        &mut self,
        job: &BeSpec,
        eligible: &[CandidateMachine<'_>],
        specs: &BTreeMap<String, BeSpec>,
    ) -> Option<usize> {
        self.choose_with_peers(job, eligible, specs, &[])
    }

    /// [`Placer::choose`] with gang context: `peer_caps` holds the
    /// normalized capacities of machines already selected for sibling
    /// instances of the same gang. Only `HeteroAware` uses it (to avoid
    /// splitting a gang across machines of very different speeds); the
    /// other policies ignore it entirely, so passing `&[]` makes this
    /// identical to `choose`.
    pub fn choose_with_peers(
        &mut self,
        job: &BeSpec,
        eligible: &[CandidateMachine<'_>],
        specs: &BTreeMap<String, BeSpec>,
        peer_caps: &[f64],
    ) -> Option<usize> {
        if eligible.is_empty() {
            return None;
        }
        match self.policy {
            PlacementPolicy::RoundRobin => {
                // First eligible machine at or after the cursor, wrapping.
                let pick = eligible
                    .iter()
                    .find(|c| c.global >= self.cursor)
                    .unwrap_or(&eligible[0]);
                self.cursor = pick.global + 1;
                Some(pick.global)
            }
            PlacementPolicy::LeastPressure => {
                Self::argmin(eligible.iter().map(|c| {
                    (c.global, Self::pressure_score(c.machine, specs))
                }))
            }
            PlacementPolicy::InterferenceScore => {
                Self::argmin(eligible.iter().map(|c| {
                    (c.global, self.score_on(job, c.component, c.machine, specs))
                }))
            }
            PlacementPolicy::HeteroAware => {
                let peer_mean = if peer_caps.is_empty() {
                    None
                } else {
                    Some(peer_caps.iter().sum::<f64>() / peer_caps.len() as f64)
                };
                Self::argmin(eligible.iter().map(|c| {
                    let cap = Self::capacity(c.machine);
                    let mut s = self.hetero_base(job, c.component, c.machine, specs);
                    if let Some(mean) = peer_mean {
                        // A gang finishes with its slowest member: penalise
                        // capacity mismatch against already-placed siblings.
                        // Weighted to rival the inflation term, since a
                        // straggler wastes every sibling's cycles.
                        s += Self::STRAGGLER_WEIGHT * (cap - mean).abs();
                    }
                    (c.global, s)
                }))
            }
        }
    }

    /// How hard gang co-placement pulls toward capacity-matched peers
    /// (per unit of normalized-capacity mismatch).
    pub(crate) const STRAGGLER_WEIGHT: f64 = 2.0;

    /// The round-robin cursor (next global index the rotation tries).
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// Moves the round-robin cursor (the dispatcher keeps its own
    /// rotation state per pass and mirrors it back here).
    pub(crate) fn set_cursor(&mut self, cursor: usize) {
        self.cursor = cursor;
    }

    /// The LeastPressure score of a machine: aggregate pressure of its
    /// current BE population. Job-independent, so the dispatcher caches
    /// one ranking per dispatch pass.
    pub(crate) fn pressure_score(machine: &Machine, specs: &BTreeMap<String, BeSpec>) -> f64 {
        let p = Pressure::from_machine(machine, specs);
        p.cpu + p.llc + p.dram + p.net
    }

    /// The HeteroAware base score (no gang context): predicted inflation
    /// divided by normalized capacity × core headroom. The straggler
    /// penalty is added on top by the caller when peers exist.
    pub(crate) fn hetero_base(
        &self,
        job: &BeSpec,
        component: &ComponentSpec,
        machine: &Machine,
        specs: &BTreeMap<String, BeSpec>,
    ) -> f64 {
        let cap = Self::capacity(machine);
        let total = machine.spec().total_cores().max(1) as f64;
        let headroom = machine.free_core_count() as f64 / total;
        self.score_on(job, component, machine, specs) / (cap * headroom.max(0.05))
    }

    /// A machine's compute capacity normalized to the paper testbed
    /// (40 cores × 2.0 GHz = 1.0).
    pub fn capacity(machine: &Machine) -> f64 {
        let spec = machine.spec();
        spec.total_cores() as f64 * spec.max_freq_mhz as f64 / (40.0 * 2_000.0)
    }

    /// Predicted LC service-time inflation on `machine` (hosting
    /// `component`) with one probe instance of `job` added to its
    /// current BE population.
    pub(crate) fn score_on(
        &self,
        job: &BeSpec,
        component: &ComponentSpec,
        machine: &Machine,
        specs: &BTreeMap<String, BeSpec>,
    ) -> f64 {
        let mut p = Pressure::from_machine(machine, specs);
        // Probe with a couple of cores: a fresh instance starts at one
        // core but the controller grows it, and a 1-core probe barely
        // separates job characters.
        let probe_cores = job.solo_cores.clamp(1, 2) as f64 * machine.be_dvfs.speed_fraction();
        p.cpu += job.cpu_pressure_per_core * probe_cores;
        p.llc += job.llc_pressure_per_core * probe_cores;
        p.dram += job.dram_pressure_per_core * probe_cores;
        p.net += (job.net_demand_mbps / machine.spec().nic_mbps).max(0.0);
        let p = p.clamped();
        self.model.inflation(component, &p, machine)
    }

    /// Deterministic argmin: strictly-smaller wins, so ties keep the
    /// lowest global index (the iterator is index-sorted).
    fn argmin(scores: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (g, s) in scores {
            match best {
                None => best = Some((g, s)),
                Some((_, bs)) if s < bs => best = Some((g, s)),
                _ => {}
            }
        }
        best.map(|(g, _)| g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_machine::{Allocation, MachineSpec};
    use rhythm_workloads::{apps, BeKind};

    fn machine() -> Machine {
        Machine::new(
            MachineSpec::paper_testbed(),
            Allocation {
                cores: 12,
                llc_ways: 0,
                mem_mb: 32 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 2_000,
            },
        )
    }

    fn grant(cores: u32) -> Allocation {
        Allocation {
            cores,
            llc_ways: 2,
            mem_mb: 2048,
            net_mbps: 0.0,
            freq_mhz: 2_000,
        }
    }

    fn specs() -> BTreeMap<String, BeSpec> {
        let mut m = BTreeMap::new();
        for k in [BeKind::Wordcount, BeKind::StreamDram { big: true }] {
            let s = BeSpec::of(k);
            m.insert(s.name.clone(), s);
        }
        m
    }

    #[test]
    fn round_robin_rotates() {
        let svc = apps::ecommerce();
        let ms: Vec<Machine> = (0..3).map(|_| machine()).collect();
        let cands: Vec<CandidateMachine<'_>> = ms
            .iter()
            .enumerate()
            .map(|(i, m)| CandidateMachine {
                global: i,
                machine: m,
                component: &svc.nodes[0].component,
            })
            .collect();
        let mut p = Placer::new(PlacementPolicy::RoundRobin, InterferenceModel::calibrated());
        let job = BeSpec::of(BeKind::Wordcount);
        let s = specs();
        let picks: Vec<usize> = (0..5).map(|_| p.choose(&job, &cands, &s).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_pressure_avoids_loaded_machine() {
        let svc = apps::ecommerce();
        let mut loaded = machine();
        loaded.admit_be("stream-dram", grant(4)).unwrap();
        let idle = machine();
        let cands = [
            CandidateMachine {
                global: 0,
                machine: &loaded,
                component: &svc.nodes[0].component,
            },
            CandidateMachine {
                global: 1,
                machine: &idle,
                component: &svc.nodes[1].component,
            },
        ];
        let mut p = Placer::new(PlacementPolicy::LeastPressure, InterferenceModel::calibrated());
        let job = BeSpec::of(BeKind::Wordcount);
        assert_eq!(p.choose(&job, &cands, &specs()), Some(1));
    }

    #[test]
    fn interference_score_prefers_tolerant_component() {
        // Same machine state, different components: the job should land
        // on the component least sensitive to its pressure profile.
        let svc = apps::ecommerce();
        let a = machine();
        let b = machine();
        let mut sens: Vec<(usize, f64)> = Vec::new();
        let job = BeSpec::of(BeKind::StreamDram { big: true });
        let model = InterferenceModel::calibrated();
        for (i, m) in [&a, &b].into_iter().enumerate() {
            let c = CandidateMachine {
                global: i,
                machine: m,
                component: &svc.nodes[i].component,
            };
            let placer = Placer::new(PlacementPolicy::InterferenceScore, model);
            sens.push((i, placer.score_on(&job, c.component, c.machine, &specs())));
        }
        let cands = [
            CandidateMachine {
                global: 0,
                machine: &a,
                component: &svc.nodes[0].component,
            },
            CandidateMachine {
                global: 1,
                machine: &b,
                component: &svc.nodes[1].component,
            },
        ];
        let mut p = Placer::new(PlacementPolicy::InterferenceScore, model);
        let expect = if sens[0].1 <= sens[1].1 { 0 } else { 1 };
        assert_eq!(p.choose(&job, &cands, &specs()), Some(expect));
    }

    #[test]
    fn capacity_orders_machine_classes() {
        let of = |s: MachineSpec| {
            Machine::new(
                s,
                Allocation {
                    cores: 8,
                    llc_ways: 0,
                    mem_mb: 16 * 1024,
                    net_mbps: 1_000.0,
                    freq_mhz: s.max_freq_mhz,
                },
            )
        };
        let dense = Placer::capacity(&of(MachineSpec::dense_compute()));
        let paper = Placer::capacity(&of(MachineSpec::paper_testbed()));
        let lean = Placer::capacity(&of(MachineSpec::lean_node()));
        assert!((paper - 1.0).abs() < 1e-12, "testbed normalizes to 1");
        assert!(dense > paper && paper > lean, "{dense} {paper} {lean}");
    }

    #[test]
    fn hetero_aware_prefers_bigger_machine() {
        // Identical load, identical component: the dense node should win
        // purely on capacity headroom.
        let svc = apps::ecommerce();
        let small = Machine::new(
            MachineSpec::lean_node(),
            Allocation {
                cores: 12,
                llc_ways: 0,
                mem_mb: 32 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 1_800,
            },
        );
        let big = Machine::new(
            MachineSpec::dense_compute(),
            Allocation {
                cores: 12,
                llc_ways: 0,
                mem_mb: 32 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 2_600,
            },
        );
        let cands = [
            CandidateMachine {
                global: 0,
                machine: &small,
                component: &svc.nodes[0].component,
            },
            CandidateMachine {
                global: 1,
                machine: &big,
                component: &svc.nodes[0].component,
            },
        ];
        let mut p = Placer::new(PlacementPolicy::HeteroAware, InterferenceModel::calibrated());
        let job = BeSpec::of(BeKind::Wordcount);
        assert_eq!(p.choose(&job, &cands, &specs()), Some(1));
    }

    #[test]
    fn gang_peers_pull_toward_similar_capacity() {
        let svc = apps::ecommerce();
        let mid = Machine::new(
            MachineSpec::paper_testbed(),
            Allocation {
                cores: 12,
                llc_ways: 0,
                mem_mb: 32 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 2_000,
            },
        );
        let big = Machine::new(
            MachineSpec::dense_compute(),
            Allocation {
                cores: 12,
                llc_ways: 0,
                mem_mb: 32 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 2_600,
            },
        );
        let cands = [
            CandidateMachine {
                global: 0,
                machine: &mid,
                component: &svc.nodes[0].component,
            },
            CandidateMachine {
                global: 1,
                machine: &big,
                component: &svc.nodes[0].component,
            },
        ];
        let job = BeSpec::of(BeKind::Wordcount);
        let model = InterferenceModel::calibrated();
        let mut p = Placer::new(PlacementPolicy::HeteroAware, model);
        // Alone, the big machine wins…
        assert_eq!(p.choose_with_peers(&job, &cands, &specs(), &[]), Some(1));
        // …but with siblings already placed on lean nodes the straggler
        // penalty pulls the next member toward the closer-matched machine.
        let lean = Machine::new(
            MachineSpec::lean_node(),
            Allocation {
                cores: 12,
                llc_ways: 0,
                mem_mb: 16 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 1_800,
            },
        );
        let lean_cap = Placer::capacity(&lean);
        let with_peers = p.choose_with_peers(&job, &cands, &specs(), &[lean_cap; 4]);
        assert_eq!(with_peers, Some(0), "gang members cluster by capacity");
    }
}
