//! The four subcontrollers (paper §3.5.2).
//!
//! They adjust the actual resource allocations following the top
//! controller's instruction, at the paper's granularities:
//!
//! 1. **CPU/LLC** — a fresh BE job gets 1 core and 10% of one socket's
//!    LLC; CutBE/AllowBEGrowth step by the same unit.
//! 2. **Frequency** — when socket power exceeds 80% of TDP, BE frequency
//!    steps down 100 MHz to keep power headroom for the LC service.
//! 3. **Memory** — a fresh BE job gets 2 GB; cut/grow steps are 100 MB.
//! 4. **Network** — BE jobs get `B_link − 1.2 · B_LC`.

use rhythm_machine::{Allocation, Machine};
use rhythm_workloads::BeSpec;

/// Growth/admission configuration for the CPU/LLC and memory
/// subcontrollers.
#[derive(Clone, Copy, Debug)]
pub struct GrowthConfig {
    /// Maximum BE instances per machine.
    pub max_instances: u32,
    /// Cores a fresh instance starts with.
    pub initial_cores: u32,
    /// Memory a fresh instance starts with, in MB (paper: 2 GB).
    pub initial_mem_mb: u64,
    /// Memory adjustment step, in MB (paper: 100 MB).
    pub mem_step_mb: u64,
    /// Per-instance core ceiling (growth stops there).
    pub max_cores_per_instance: u32,
    /// Ceiling on the BE class's share of the machine LLC (Intel CAT
    /// always leaves the LC class a protected partition).
    pub max_be_llc_fraction: f64,
    /// Priority-aware victim selection: StopBE kills only the
    /// lowest-priority class (suspending the rest) and CutBE shrinks only
    /// the lowest-priority running class. Off by default — the uniform
    /// paper behaviour treats every BE instance alike.
    pub priority_preemption: bool,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        GrowthConfig {
            max_instances: 16,
            initial_cores: 1,
            initial_mem_mb: 2 * 1024,
            mem_step_mb: 100,
            max_cores_per_instance: 8,
            max_be_llc_fraction: 0.4,
            priority_preemption: false,
        }
    }
}

/// The "10% LLC" step in ways: a tenth of one socket's ways (2 ways on
/// the paper's 20-way sockets).
pub fn llc_step_ways(machine: &Machine) -> u32 {
    (machine.spec().llc_ways_per_socket / 10).max(1)
}

/// CPU/LLC subcontroller: grows the BE population by one step.
///
/// Order per the paper's trial-and-error growth: first enlarge an
/// existing instance (round-robin via smallest-first), then admit a new
/// instance if below the cap. Returns `true` if anything changed.
pub fn grow_step(
    machine: &mut Machine,
    be: &BeSpec,
    cfg: &GrowthConfig,
    more_jobs_available: bool,
) -> bool {
    grow_step_prio(machine, be, cfg, more_jobs_available, 0)
}

/// [`grow_step`] with an explicit priority class for a freshly admitted
/// instance (existing instances are grown regardless of class).
pub fn grow_step_prio(
    machine: &mut Machine,
    be: &BeSpec,
    cfg: &GrowthConfig,
    more_jobs_available: bool,
    priority: u8,
) -> bool {
    let step_ways = llc_step_ways(machine);
    // Resume suspended instances first: coming back is cheaper than
    // admitting (they kept their memory).
    let suspended: Vec<u64> = machine
        .be_instances()
        .filter(|b| b.state == rhythm_machine::machine::BeState::Suspended)
        .map(|b| b.id)
        .collect();
    if let Some(&id) = suspended.first() {
        return machine.resume_be(id).is_ok();
    }
    // Enlarge the smallest growable running instance by 1 core + one LLC
    // step + one memory step.
    let grow_target = machine
        .be_instances()
        .filter(|b| {
            b.state == rhythm_machine::machine::BeState::Running
                && b.alloc.cores < cfg.max_cores_per_instance.min(be.solo_cores)
        })
        .min_by_key(|b| (b.alloc.cores, b.id))
        .map(|b| b.id);
    let be_llc_capped =
        machine.cat().be_fraction() + 1e-9 >= cfg.max_be_llc_fraction.clamp(0.0, 1.0);
    if let Some(id) = grow_target {
        let delta = Allocation {
            cores: 1,
            llc_ways: if be_llc_capped { 0 } else { step_ways },
            mem_mb: cfg.mem_step_mb,
            net_mbps: 0.0,
            freq_mhz: 0,
        };
        if machine.grow_be(id, delta).is_ok() {
            return true;
        }
        // Out of cache ways? Retry growing the core only.
        let delta = Allocation {
            cores: 1,
            llc_ways: 0,
            mem_mb: cfg.mem_step_mb,
            net_mbps: 0.0,
            freq_mhz: 0,
        };
        if machine.grow_be(id, delta).is_ok() {
            return true;
        }
    }
    // Admit a new instance.
    if more_jobs_available && (machine.be_count() as u32) < cfg.max_instances {
        let req = Allocation {
            cores: cfg.initial_cores,
            llc_ways: if be_llc_capped { 0 } else { step_ways },
            mem_mb: cfg.initial_mem_mb.min(be.mem_mb),
            net_mbps: 0.0,
            freq_mhz: machine.be_dvfs.current_mhz(),
        };
        return machine.admit_be_prio(&be.name, req, priority).is_ok();
    }
    false
}

/// CPU/LLC + memory subcontrollers: cuts every running BE instance by one
/// step (1 core, one LLC step, one memory step). Returns the number of
/// instances touched.
pub fn cut_step(machine: &mut Machine, cfg: &GrowthConfig) -> usize {
    cut_ids(machine, cfg, |b| {
        b.state == rhythm_machine::machine::BeState::Running && !b.alloc.is_empty()
    })
}

/// Priority-aware CutBE: shrinks only the lowest-priority class with a
/// running, non-empty instance; higher classes keep their grants. Returns
/// the number of instances touched.
pub fn cut_step_prio(machine: &mut Machine, cfg: &GrowthConfig) -> usize {
    let victim_class = machine
        .be_instances()
        .filter(|b| b.state == rhythm_machine::machine::BeState::Running && !b.alloc.is_empty())
        .map(|b| b.priority)
        .min();
    let Some(victim_class) = victim_class else {
        return 0;
    };
    cut_ids(machine, cfg, |b| {
        b.state == rhythm_machine::machine::BeState::Running
            && !b.alloc.is_empty()
            && b.priority == victim_class
    })
}

fn cut_ids(
    machine: &mut Machine,
    cfg: &GrowthConfig,
    victim: impl Fn(&&rhythm_machine::machine::BeInstance) -> bool,
) -> usize {
    let step_ways = llc_step_ways(machine);
    let ids: Vec<u64> = machine
        .be_instances()
        .filter(victim)
        .map(|b| b.id)
        .collect();
    let mut touched = 0;
    for id in &ids {
        let delta = Allocation {
            cores: 1,
            llc_ways: step_ways,
            mem_mb: cfg.mem_step_mb,
            net_mbps: 0.0,
            freq_mhz: 0,
        };
        if machine.cut_be(*id, delta).is_ok() {
            touched += 1;
        }
    }
    touched
}

/// Frequency subcontroller: steps the BE frequency down 100 MHz when the
/// machine power exceeds 80% of TDP, and back up when there is at least
/// 25% power headroom. Returns the new BE frequency in MHz.
pub fn frequency_step(machine: &mut Machine, lc_cpu_util: f64, be_cpu_util: f64) -> u32 {
    let lc_cores = machine.lc_alloc().cores;
    let be_cores = machine.be_total_alloc().cores;
    let power = machine.power.power_watts(
        lc_cores,
        lc_cpu_util,
        machine.lc_dvfs.current_mhz(),
        be_cores,
        be_cpu_util,
        machine.be_dvfs.current_mhz(),
    );
    if machine.power.over_budget(power) {
        machine.be_dvfs.step_down()
    } else if power < 0.75 * machine.power.tdp_watts {
        machine.be_dvfs.step_up()
    } else {
        machine.be_dvfs.current_mhz()
    }
}

/// Network subcontroller: reapplies the `B_link − 1.2 · B_LC` rule.
/// Returns the BE bandwidth ceiling in Mbit/s.
pub fn network_step(machine: &mut Machine, lc_net_mbps: f64) -> f64 {
    machine.qdisc.reallocate(lc_net_mbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_machine::MachineSpec;
    use rhythm_workloads::BeKind;

    fn machine() -> Machine {
        Machine::new(
            MachineSpec::paper_testbed(),
            Allocation {
                cores: 16,
                llc_ways: 0,
                mem_mb: 64 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 2_000,
            },
        )
    }

    fn wc() -> BeSpec {
        BeSpec::of(BeKind::Wordcount)
    }

    #[test]
    fn llc_step_is_tenth_of_socket() {
        assert_eq!(llc_step_ways(&machine()), 2);
    }

    #[test]
    fn first_growth_admits_an_instance() {
        let mut m = machine();
        assert!(grow_step(&mut m, &wc(), &GrowthConfig::default(), true));
        assert_eq!(m.be_count(), 1);
        let inst = m.be_instances().next().unwrap();
        assert_eq!(inst.alloc.cores, 1);
        assert_eq!(inst.alloc.llc_ways, 2);
        assert_eq!(inst.alloc.mem_mb, 2 * 1024);
    }

    #[test]
    fn growth_enlarges_before_admitting() {
        let mut m = machine();
        let cfg = GrowthConfig::default();
        grow_step(&mut m, &wc(), &cfg, true);
        grow_step(&mut m, &wc(), &cfg, true);
        // Second step grows the existing instance rather than admitting.
        assert_eq!(m.be_count(), 1);
        assert_eq!(m.be_instances().next().unwrap().alloc.cores, 2);
    }

    #[test]
    fn growth_admits_new_after_instance_cap() {
        let mut m = machine();
        let cfg = GrowthConfig {
            max_cores_per_instance: 1,
            ..GrowthConfig::default()
        };
        grow_step(&mut m, &wc(), &cfg, true);
        grow_step(&mut m, &wc(), &cfg, true);
        assert_eq!(m.be_count(), 2);
    }

    #[test]
    fn growth_resumes_suspended_first() {
        let mut m = machine();
        let cfg = GrowthConfig::default();
        grow_step(&mut m, &wc(), &cfg, true);
        m.suspend_all_be();
        assert_eq!(m.running_be_count(), 0);
        grow_step(&mut m, &wc(), &cfg, true);
        assert_eq!(m.running_be_count(), 1);
        assert_eq!(m.be_count(), 1, "resumed, not admitted");
    }

    #[test]
    fn growth_respects_max_instances() {
        let mut m = machine();
        let cfg = GrowthConfig {
            max_instances: 2,
            max_cores_per_instance: 1,
            ..GrowthConfig::default()
        };
        for _ in 0..10 {
            grow_step(&mut m, &wc(), &cfg, true);
        }
        assert_eq!(m.be_count(), 2);
    }

    #[test]
    fn no_admission_without_pending_jobs() {
        let mut m = machine();
        assert!(!grow_step(&mut m, &wc(), &GrowthConfig::default(), false));
        assert_eq!(m.be_count(), 0);
    }

    #[test]
    fn cut_touches_every_running_instance() {
        let mut m = machine();
        let cfg = GrowthConfig {
            max_cores_per_instance: 1,
            ..GrowthConfig::default()
        };
        for _ in 0..3 {
            grow_step(&mut m, &wc(), &cfg, true);
        }
        // Grow them a bit more so the cut has something to take.
        let cfg2 = GrowthConfig::default();
        for _ in 0..3 {
            grow_step(&mut m, &wc(), &cfg2, false);
        }
        let before = m.be_total_alloc();
        let touched = cut_step(&mut m, &cfg2);
        assert_eq!(touched, 3);
        let after = m.be_total_alloc();
        assert_eq!(after.cores, before.cores - 3);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn priority_cut_spares_high_class() {
        let mut m = machine();
        let cfg = GrowthConfig::default();
        let grant = |cores| Allocation {
            cores,
            llc_ways: 2,
            mem_mb: 2 * 1024,
            net_mbps: 0.0,
            freq_mhz: 2_000,
        };
        let low = m.admit_be_prio("low", grant(3), 0).unwrap();
        let high = m.admit_be_prio("high", grant(3), 2).unwrap();
        let touched = cut_step_prio(&mut m, &cfg);
        assert_eq!(touched, 1);
        let cores_of = |m: &Machine, id| m.be_instances().find(|b| b.id == id).unwrap().alloc.cores;
        assert_eq!(cores_of(&m, low), 2, "low class shrank");
        assert_eq!(cores_of(&m, high), 3, "high class untouched");
        // Uniform cut touches both.
        let touched = cut_step(&mut m, &cfg);
        assert_eq!(touched, 2);
    }

    #[test]
    fn priority_grow_admits_at_class() {
        let mut m = machine();
        assert!(grow_step_prio(
            &mut m,
            &wc(),
            &GrowthConfig::default(),
            true,
            3
        ));
        assert_eq!(m.be_instances().next().unwrap().priority, 3);
    }

    #[test]
    fn frequency_throttles_when_hot() {
        let mut m = machine();
        for _ in 0..20 {
            grow_step(&mut m, &wc(), &GrowthConfig::default(), true);
        }
        // Full utilization everywhere: power near TDP.
        let f = frequency_step(&mut m, 1.0, 1.0);
        assert!(f < 2_000, "BE frequency stepped down, got {f}");
    }

    #[test]
    fn frequency_recovers_when_cool() {
        let mut m = machine();
        m.be_dvfs.set_mhz(1_500);
        let f = frequency_step(&mut m, 0.1, 0.0);
        assert_eq!(f, 1_600, "stepped back up");
    }

    #[test]
    fn network_rule_applied() {
        let mut m = machine();
        let be = network_step(&mut m, 2_000.0);
        assert!((be - (10_000.0 - 2_400.0)).abs() < 1e-9);
    }
}
