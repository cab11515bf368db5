//! The calibrated interference model.
//!
//! Combines machine pressure, the isolation state (CAT partition, DVFS
//! points) and a component's sensitivity into a multiplicative
//! service-time inflation factor. Queueing in the service model then
//! amplifies service-time inflation into the large tail-latency
//! inflations of Figure 2.

use crate::pressure::Pressure;
use rhythm_machine::Machine;
use rhythm_workloads::ComponentSpec;

/// Isolation-effectiveness coefficients.
///
/// Real isolation mechanisms leak: CAT partitions ways but misses on the
/// shared ring/prefetchers still collide; qdisc shapes bandwidth but adds
/// queueing jitter; cpuset pins cores but the socket's power and L1/L2
/// bandwidth budgets remain shared. Each coefficient is the fraction of
/// raw pressure that leaks through the corresponding mechanism.
#[derive(Clone, Copy, Debug)]
pub struct InterferenceModel {
    /// LLC pressure fraction that bypasses the CAT partition.
    pub llc_leak: f64,
    /// CPU pressure fraction that bypasses cpuset pinning.
    pub cpu_leak: f64,
    /// Network pressure fraction that bypasses qdisc shaping.
    pub net_leak: f64,
    /// DRAM bandwidth has no hardware partition on the paper's testbed;
    /// this scales raw DRAM pressure (1.0 = unmitigated).
    pub dram_leak: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl InterferenceModel {
    /// The coefficients used throughout the reproduction, chosen so the
    /// characterization harness reproduces Figure 2's orderings and rough
    /// magnitudes.
    pub fn calibrated() -> Self {
        InterferenceModel {
            llc_leak: 0.35,
            cpu_leak: 0.60,
            net_leak: 0.50,
            dram_leak: 1.0,
        }
    }

    /// A hypothetical perfect-isolation configuration (ablation baseline:
    /// only cache-capacity loss and DVFS remain).
    pub fn perfect_isolation() -> Self {
        InterferenceModel {
            llc_leak: 0.0,
            cpu_leak: 0.0,
            net_leak: 0.0,
            dram_leak: 0.0,
        }
    }

    /// No isolation at all (raw pressure reaches the component).
    pub fn no_isolation() -> Self {
        InterferenceModel {
            llc_leak: 1.0,
            cpu_leak: 1.0,
            net_leak: 1.0,
            dram_leak: 1.0,
        }
    }

    /// The effective LLC pressure felt by a component: cache-capacity
    /// loss from ways ceded to the BE class, plus thrash leaking through
    /// the partition.
    ///
    /// * `llc_mb_available` — LLC capacity left to the LC class in MB.
    pub fn effective_llc(&self, comp: &ComponentSpec, raw_llc: f64, llc_mb_available: f64) -> f64 {
        let deficit = if comp.llc_mb <= 0.0 {
            0.0
        } else {
            ((comp.llc_mb - llc_mb_available.max(0.0)) / comp.llc_mb).clamp(0.0, 1.0)
        };
        // Capacity loss only hurts when the BE class is actually
        // thrashing or the ways are simply gone; combine additively and
        // clamp.
        (deficit + self.llc_leak * raw_llc).clamp(0.0, 1.0)
    }

    /// The service-time inflation factor (>= 1) for `comp` given the
    /// machine's pressure and isolation state: the machine terms
    /// ([`MachineTerms::of`]), then the pressure part
    /// ([`InterferenceModel::inflation_with`]).
    ///
    /// * `pressure` — aggregated machine pressure (see
    ///   [`Pressure::from_machine`]).
    /// * `machine` — supplies the CAT partition and the LC DVFS point.
    pub fn inflation(&self, comp: &ComponentSpec, pressure: &Pressure, machine: &Machine) -> f64 {
        self.inflation_with(comp, pressure, &MachineTerms::of(comp, machine))
    }

    /// The pressure part of [`InterferenceModel::inflation`]: leaks
    /// `pressure` through the isolation mechanisms and scales the
    /// component's contention by the precomputed `terms`. Callers that
    /// score many pressures against one machine state derive `terms`
    /// once.
    pub fn inflation_with(
        &self,
        comp: &ComponentSpec,
        pressure: &Pressure,
        terms: &MachineTerms,
    ) -> f64 {
        let eff = Pressure {
            cpu: (self.cpu_leak * pressure.cpu).clamp(0.0, 1.0),
            llc: self.effective_llc(comp, pressure.llc, terms.llc_available),
            dram: (self.dram_leak * pressure.dram).clamp(0.0, 1.0),
            net: (self.net_leak * pressure.net).clamp(0.0, 1.0),
        };
        let contention = comp
            .sensitivity
            .inflation(eff.cpu, eff.llc, eff.dram, eff.net);
        contention * terms.freq_slowdown
    }
}

/// The pressure-independent terms of [`InterferenceModel::inflation`] for
/// one component on one machine: they depend only on the CAT partition,
/// the LC DVFS point and the machine spec, not on the leak coefficients
/// or the BE pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MachineTerms {
    /// LLC capacity left to the LC class in MB, scaled to the
    /// component's socket footprint.
    pub llc_available: f64,
    /// The component's service-time slowdown at the LC DVFS point.
    pub freq_slowdown: f64,
}

impl MachineTerms {
    /// The terms for `comp` hosted on `machine`.
    pub fn of(comp: &ComponentSpec, machine: &Machine) -> MachineTerms {
        let spec = machine.spec();
        let lc_llc_mb = machine.cat().lc_ways() as f64 * spec.llc_mb_per_way();
        // The LC Servpod only spans one socket's worth of cache in
        // practice; scale available cache to the component's socket
        // footprint (cores / cores_per_socket sockets, at least one).
        let sockets_used =
            (comp.cores as f64 / spec.cores_per_socket as f64).clamp(1.0, spec.sockets as f64);
        MachineTerms {
            llc_available: lc_llc_mb * sockets_used / spec.sockets as f64,
            freq_slowdown: comp
                .sensitivity
                .freq_slowdown(machine.lc_dvfs.speed_fraction()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_machine::{Allocation, MachineSpec};
    use rhythm_workloads::apps;

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

    fn mysql() -> ComponentSpec {
        apps::ecommerce().nodes[3].component.clone()
    }

    fn tomcat() -> ComponentSpec {
        apps::ecommerce().nodes[1].component.clone()
    }

    #[test]
    fn no_pressure_no_inflation() {
        let m = machine();
        let model = InterferenceModel::calibrated();
        let f = model.inflation(&mysql(), &Pressure::zero(), &m);
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dram_pressure_inflates_mysql_more_than_tomcat() {
        let m = machine();
        let model = InterferenceModel::calibrated();
        let p = Pressure {
            dram: 1.0,
            ..Pressure::zero()
        };
        let f_mysql = model.inflation(&mysql(), &p, &m);
        let f_tomcat = model.inflation(&tomcat(), &p, &m);
        assert!(f_mysql > f_tomcat, "{f_mysql} vs {f_tomcat}");
        assert!(f_mysql > 2.0);
    }

    #[test]
    fn cat_partition_attenuates_llc_pressure() {
        let mut m = machine();
        let model = InterferenceModel::calibrated();
        let p = Pressure {
            llc: 1.0,
            ..Pressure::zero()
        };
        let with_full_cache = model.inflation(&mysql(), &p, &m);
        // Give the BE class most of the cache: LC keeps 8 of 80 ways.
        for _ in 0..9 {
            m.admit_be("x", Allocation::cores_and_llc(1, 8)).unwrap();
        }
        let with_starved_cache = model.inflation(&mysql(), &p, &m);
        assert!(with_starved_cache > with_full_cache);
    }

    #[test]
    fn perfect_isolation_only_leaves_capacity_and_freq() {
        let m = machine();
        let model = InterferenceModel::perfect_isolation();
        let p = Pressure {
            cpu: 1.0,
            llc: 1.0,
            dram: 1.0,
            net: 1.0,
        };
        // With all ways still LC-owned and full frequency, inflation from
        // leakage is zero; only cache-capacity deficit could remain, and
        // there is none.
        let f = model.inflation(&mysql(), &p, &m);
        assert!((f - 1.0).abs() < 1e-9, "f={f}");
    }

    #[test]
    fn no_isolation_is_worst() {
        let m = machine();
        let p = Pressure {
            cpu: 0.5,
            llc: 0.5,
            dram: 0.5,
            net: 0.5,
        };
        let none = InterferenceModel::no_isolation().inflation(&mysql(), &p, &m);
        let cal = InterferenceModel::calibrated().inflation(&mysql(), &p, &m);
        let perfect = InterferenceModel::perfect_isolation().inflation(&mysql(), &p, &m);
        assert!(none > cal && cal > perfect);
    }

    #[test]
    fn dvfs_slows_frequency_sensitive_components() {
        let mut m = machine();
        let model = InterferenceModel::calibrated();
        let before = model.inflation(&tomcat(), &Pressure::zero(), &m);
        m.lc_dvfs.set_mhz(1_200);
        let after = model.inflation(&tomcat(), &Pressure::zero(), &m);
        assert!(after > before * 1.3, "{after} vs {before}");
    }

    #[test]
    fn effective_llc_deficit() {
        let model = InterferenceModel::calibrated();
        let comp = mysql(); // 16 MB working set.
                            // Plenty of cache, no raw pressure: zero.
        assert_eq!(model.effective_llc(&comp, 0.0, 20.0), 0.0);
        // Half the working set gone.
        let half = model.effective_llc(&comp, 0.0, 8.0);
        assert!((half - 0.5).abs() < 1e-9);
        // No cache at all: full deficit.
        assert_eq!(model.effective_llc(&comp, 0.0, 0.0), 1.0);
    }
}
