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
//!
//! Every policy reads one [`MachineRow`] per machine, derived at the
//! epoch barrier, never the live machine: [`Placer::score`] is the only
//! scorer, and a dispatch pass ranks each job spec's eligible machines
//! once (`Ranking`).

use rhythm_controller::BeAction;
use rhythm_interference::{InterferenceModel, MachineTerms, Pressure};
use rhythm_machine::Machine;
use rhythm_workloads::{BeSpec, ComponentSpec};
use std::collections::{BTreeMap, BTreeSet};

/// Which placement policy the dispatcher uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// Everything placement reads about one machine, derived at the epoch
/// barrier. Each engine writes its machines' rows in the parallel phase
/// of the epoch; the barrier re-derives the rows of the replicas it
/// mutates itself. Eligibility and every ranking builder read only rows,
/// so a dispatch pass never walks live machine state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MachineRow {
    /// The controller's last action allows BE growth (or it has not
    /// ticked yet — the run just started).
    pub grows: bool,
    /// Pressure of the running BE population, looked up in the
    /// scheduler's catalog ([`Pressure::from_machine`]).
    pub pressure: Pressure,
    /// BE DVFS speed fraction (scales the probe instance's pressure).
    pub be_speed: f64,
    /// NIC line rate in Mb/s.
    pub nic_mbps: f64,
    /// The hosted LC component's pressure-independent inflation terms.
    pub terms: MachineTerms,
    /// Free cores as a fraction of all cores.
    pub headroom: f64,
    /// Normalized capacity ([`Placer::capacity`]).
    pub capacity: f64,
}

impl MachineRow {
    /// The row of `machine`, which hosts `component` and whose controller
    /// last took `last_action`, with BE workloads looked up in `catalog`.
    pub fn derive(
        machine: &Machine,
        component: &ComponentSpec,
        last_action: Option<BeAction>,
        catalog: &BTreeMap<String, BeSpec>,
    ) -> MachineRow {
        let total = machine.spec().total_cores().max(1) as f64;
        MachineRow {
            grows: matches!(last_action, None | Some(BeAction::AllowBeGrowth)),
            pressure: Pressure::from_machine(machine, catalog),
            be_speed: machine.be_dvfs.speed_fraction(),
            nic_mbps: machine.spec().nic_mbps,
            terms: MachineTerms::of(component, machine),
            headroom: machine.free_core_count() as f64 / total,
            capacity: Placer::capacity(machine),
        }
    }
}

/// A placement policy with the interference model it scores by. The
/// round-robin cursor is scheduler state (`SchedulerState::rr_cursor`),
/// so the placer itself never changes.
#[derive(Clone, Debug)]
pub struct Placer {
    policy: PlacementPolicy,
    model: InterferenceModel,
}

impl Placer {
    /// A placer for `policy` scoring with the calibrated interference
    /// model.
    pub fn new(policy: PlacementPolicy) -> Placer {
        Placer {
            policy,
            model: InterferenceModel::calibrated(),
        }
    }

    /// The policy this placer runs.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// How hard gang co-placement pulls toward capacity-matched peers
    /// (per unit of normalized-capacity mismatch).
    pub(crate) const STRAGGLER_WEIGHT: f64 = 2.0;

    /// The round-robin pick: the first of `eligible` at or after
    /// `cursor` (the next global index the rotation tries), wrapping to
    /// the lowest; the cursor moves past the pick. `None` (cursor
    /// unmoved) when nothing is eligible.
    pub(crate) fn rotate(eligible: &BTreeSet<usize>, cursor: &mut u64) -> Option<usize> {
        let pick = eligible
            .range(*cursor as usize..)
            .next()
            .or_else(|| eligible.iter().next())
            .copied()?;
        *cursor = pick as u64 + 1;
        Some(pick)
    }

    /// The placement score of the machine behind `row`, hosting
    /// `component`, for one instance of `job`; lower is better.
    /// RoundRobin does not score (`None`).
    ///
    /// * LeastPressure — the summed channels of the row's pressure
    ///   (job-independent).
    /// * InterferenceScore — the predicted LC inflation with a probe
    ///   instance of `job` added.
    /// * HeteroAware — that inflation divided by capacity × core
    ///   headroom (the gang straggler penalty is added by the ranking).
    pub fn score(&self, job: &BeSpec, component: &ComponentSpec, row: &MachineRow) -> Option<f64> {
        match self.policy {
            PlacementPolicy::RoundRobin => None,
            PlacementPolicy::LeastPressure => {
                let p = row.pressure;
                Some(p.cpu + p.llc + p.dram + p.net)
            }
            PlacementPolicy::InterferenceScore => Some(self.probe_inflation(job, component, row)),
            PlacementPolicy::HeteroAware => Some(
                self.probe_inflation(job, component, row) / (row.capacity * row.headroom.max(0.05)),
            ),
        }
    }

    /// Predicted LC service-time inflation on the row's machine with one
    /// probe instance of `job` added to its current BE population.
    fn probe_inflation(&self, job: &BeSpec, component: &ComponentSpec, row: &MachineRow) -> f64 {
        let mut p = row.pressure;
        // Probe with a couple of cores: a fresh instance starts at one
        // core but the controller grows it, and a 1-core probe barely
        // separates job characters.
        let probe_cores = job.solo_cores.clamp(1, 2) as f64 * row.be_speed;
        p.cpu += job.cpu_pressure_per_core * probe_cores;
        p.llc += job.llc_pressure_per_core * probe_cores;
        p.dram += job.dram_pressure_per_core * probe_cores;
        p.net += (job.net_demand_mbps / row.nic_mbps).max(0.0);
        let p = p.clamped();
        self.model.inflation_with(component, &p, &row.terms)
    }

    /// A machine's compute capacity normalized to the paper testbed
    /// (40 cores × 2.0 GHz = 1.0).
    pub fn capacity(machine: &Machine) -> f64 {
        let spec = machine.spec();
        spec.total_cores() as f64 * spec.max_freq_mhz as f64 / (40.0 * 2_000.0)
    }
}

/// One dispatch pass's ranking of the eligible machines for one job
/// spec: `(score, global)` ascending, ties ascending by global index —
/// exactly the order an argmin scan would visit minima in. Rows are
/// constant during a pass (offers apply after the pop loop, a claimed
/// machine is merely excluded), so scores computed once per pass are
/// exact. The buffer is reused across passes.
#[derive(Debug, Default)]
pub(crate) struct Ranking {
    order: Vec<(f64, usize)>,
    /// Entries before this are taken; the head is the current best
    /// offer for the spec.
    cursor: usize,
    /// Whether `order` holds this pass's ranking.
    built: bool,
}

impl Ranking {
    /// Whether this pass's ranking is built.
    pub(crate) fn is_built(&self) -> bool {
        self.built
    }

    /// Marks the ranking stale (a new pass begins).
    pub(crate) fn clear(&mut self) {
        self.built = false;
    }

    /// Scores every machine of `eligible` (ascending globals) for `job`
    /// with `placer`, reading only `rows` and each machine's hosted
    /// `component`, and sorts the result.
    pub(crate) fn build<'a>(
        &mut self,
        placer: &Placer,
        job: &BeSpec,
        eligible: &[usize],
        rows: &[MachineRow],
        component: impl Fn(usize) -> &'a ComponentSpec,
    ) {
        self.order.clear();
        self.cursor = 0;
        self.built = true;
        for &g in eligible {
            if let Some(s) = placer.score(job, component(g), &rows[g]) {
                self.order.push((s, g));
            }
        }
        // Scores are finite and non-negative (pressures, inflations and
        // capacities all are), so total_cmp is the plain `<` order here;
        // ties keep ascending global.
        self.order
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    /// The best machine not yet `taken` this pass. Claims never revert
    /// mid-pass, so the cursor only moves forward.
    pub(crate) fn head(&mut self, taken: &[bool]) -> Option<usize> {
        while self.cursor < self.order.len() && taken[self.order[self.cursor].1] {
            self.cursor += 1;
        }
        self.order.get(self.cursor).map(|&(_, g)| g)
    }

    /// The best machine not yet `taken` for a gang member whose placed
    /// siblings have capacities `peer_caps` (non-empty): the ranked
    /// score plus the straggler penalty against the siblings' mean
    /// capacity. The penalty reorders arbitrarily, so this scans every
    /// entry for the strict minimum, ties keeping the lowest global.
    pub(crate) fn best_with_peers(
        &self,
        taken: &[bool],
        rows: &[MachineRow],
        peer_caps: &[f64],
    ) -> Option<usize> {
        // A gang finishes with its slowest member: penalise capacity
        // mismatch against already-placed siblings. Weighted to rival
        // the inflation term, since a straggler wastes every sibling's
        // cycles.
        let peer_mean = peer_caps.iter().sum::<f64>() / peer_caps.len() as f64;
        let mut best: Option<(f64, usize)> = None;
        for &(base, g) in &self.order {
            if taken[g] {
                continue;
            }
            let s = base + Placer::STRAGGLER_WEIGHT * (rows[g].capacity - peer_mean).abs();
            match best {
                Some((bs, bg)) if !(s < bs || (s == bs && g < bg)) => {}
                _ => best = Some((s, g)),
            }
        }
        best.map(|(_, g)| g)
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

    /// The machine `(global index i)` a dispatch pass would pick for
    /// `job` among `cands`, all eligible and unclaimed: rows, ranking
    /// and gang scan are the dispatcher's own.
    fn pick(
        policy: PlacementPolicy,
        job: &BeSpec,
        cands: &[(&Machine, &ComponentSpec)],
        peer_caps: &[f64],
    ) -> Option<usize> {
        let placer = Placer::new(policy);
        let catalog = specs();
        let rows: Vec<MachineRow> = cands
            .iter()
            .map(|&(m, c)| MachineRow::derive(m, c, None, &catalog))
            .collect();
        let eligible: Vec<usize> = (0..cands.len()).collect();
        let taken = vec![false; cands.len()];
        let mut ranking = Ranking::default();
        ranking.build(&placer, job, &eligible, &rows, |g| cands[g].1);
        if peer_caps.is_empty() {
            ranking.head(&taken)
        } else {
            ranking.best_with_peers(&taken, &rows, peer_caps)
        }
    }

    #[test]
    fn round_robin_rotates() {
        let eligible: BTreeSet<usize> = (0..3).collect();
        let mut cursor = 0;
        let picks: Vec<usize> = (0..5)
            .map(|_| Placer::rotate(&eligible, &mut cursor).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
        let p = Placer::new(PlacementPolicy::RoundRobin);
        let comp = &apps::ecommerce().nodes[0].component;
        let row = MachineRow::derive(&machine(), comp, None, &specs());
        assert_eq!(p.score(&BeSpec::of(BeKind::Wordcount), comp, &row), None);
    }

    #[test]
    fn least_pressure_avoids_loaded_machine() {
        let svc = apps::ecommerce();
        let mut loaded = machine();
        loaded.admit_be("stream-dram", grant(4)).unwrap();
        let idle = machine();
        let cands = [
            (&loaded, &svc.nodes[0].component),
            (&idle, &svc.nodes[1].component),
        ];
        let job = BeSpec::of(BeKind::Wordcount);
        assert_eq!(
            pick(PlacementPolicy::LeastPressure, &job, &cands, &[]),
            Some(1)
        );
    }

    #[test]
    fn interference_score_prefers_tolerant_component() {
        // Same machine state, different components: the job should land
        // on the component least sensitive to its pressure profile.
        let svc = apps::ecommerce();
        let a = machine();
        let b = machine();
        let job = BeSpec::of(BeKind::StreamDram { big: true });
        let cands = [(&a, &svc.nodes[0].component), (&b, &svc.nodes[1].component)];
        let placer = Placer::new(PlacementPolicy::InterferenceScore);
        let sens: Vec<f64> = cands
            .iter()
            .map(|&(m, c)| {
                let row = MachineRow::derive(m, c, None, &specs());
                placer.score(&job, c, &row).unwrap()
            })
            .collect();
        let expect = if sens[0] <= sens[1] { 0 } else { 1 };
        assert_eq!(
            pick(PlacementPolicy::InterferenceScore, &job, &cands, &[]),
            Some(expect)
        );
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
            (&small, &svc.nodes[0].component),
            (&big, &svc.nodes[0].component),
        ];
        let job = BeSpec::of(BeKind::Wordcount);
        assert_eq!(
            pick(PlacementPolicy::HeteroAware, &job, &cands, &[]),
            Some(1)
        );
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
            (&mid, &svc.nodes[0].component),
            (&big, &svc.nodes[0].component),
        ];
        let job = BeSpec::of(BeKind::Wordcount);
        // Alone, the big machine wins…
        assert_eq!(
            pick(PlacementPolicy::HeteroAware, &job, &cands, &[]),
            Some(1)
        );
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
        let with_peers = pick(PlacementPolicy::HeteroAware, &job, &cands, &[lean_cap; 4]);
        assert_eq!(with_peers, Some(0), "gang members cluster by capacity");
    }
}
