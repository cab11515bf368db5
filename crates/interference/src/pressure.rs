//! Machine-wide resource pressure.

use rhythm_machine::machine::BeState;
use rhythm_machine::{Machine, MachineSpec};
use rhythm_workloads::BeSpec;
use std::collections::BTreeMap;

/// Pressure on each shared resource of one machine, each in `[0, 1]`.
///
/// 1.0 means the resource is fully contended (e.g. stream-dram(big) with
/// enough cores saturates the DRAM channel).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pressure {
    /// Core / scheduler / socket-level contention.
    pub cpu: f64,
    /// Raw LLC thrash intensity of the BE population (before CAT
    /// attenuation; the model applies the partition).
    pub llc: f64,
    /// DRAM-bandwidth contention.
    pub dram: f64,
    /// NIC contention: fraction of the link the BE class is using.
    pub net: f64,
}

impl Pressure {
    /// No pressure at all.
    pub const fn zero() -> Self {
        Pressure {
            cpu: 0.0,
            llc: 0.0,
            dram: 0.0,
            net: 0.0,
        }
    }

    /// Clamps every channel into `[0, 1]`.
    pub fn clamped(self) -> Self {
        Pressure {
            cpu: self.cpu.clamp(0.0, 1.0),
            llc: self.llc.clamp(0.0, 1.0),
            dram: self.dram.clamp(0.0, 1.0),
            net: self.net.clamp(0.0, 1.0),
        }
    }

    /// Aggregates the pressure exerted by every *running* BE instance on
    /// `machine`, looking up each instance's workload model in `specs`.
    ///
    /// Suspended instances exert no pressure (they hold only memory).
    /// Each channel saturates at 1.0. BE instances running at a reduced
    /// DVFS point exert proportionally less pressure.
    pub fn from_machine(machine: &Machine, specs: &BTreeMap<String, BeSpec>) -> Pressure {
        let mut p = Pressure::zero();
        let be_freq = machine.be_dvfs.speed_fraction();
        for inst in machine.be_instances() {
            if inst.state != BeState::Running || inst.alloc.cores == 0 {
                continue;
            }
            let Some(spec) = specs.get(&inst.workload) else {
                continue;
            };
            let cores = inst.alloc.cores as f64 * be_freq;
            p.cpu += spec.cpu_pressure_per_core * cores;
            p.llc += spec.llc_pressure_per_core * cores;
            p.dram += spec.dram_pressure_per_core * cores;
            // Network demand is per instance, limited by the qdisc BE
            // ceiling across the whole class.
            p.net += spec.net_demand_mbps;
        }
        let link = machine.spec().nic_mbps;
        let be_ceiling = machine.qdisc.be_limit_mbps();
        p.net = (p.net.min(be_ceiling) / link).clamp(0.0, 1.0);
        p.clamped()
    }

    /// Adds the LC service's own DRAM/NIC usage as baseline utilization
    /// pressure (self-load contributes to channel contention at high
    /// request rates).
    pub fn with_lc_usage(
        mut self,
        spec: &MachineSpec,
        lc_membw_mbps: f64,
        lc_net_mbps: f64,
    ) -> Pressure {
        self.dram += (lc_membw_mbps / spec.total_membw_mbps()).max(0.0) * 0.5;
        self.net += (lc_net_mbps / spec.nic_mbps).max(0.0) * 0.25;
        self.clamped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_machine::Allocation;
    use rhythm_workloads::BeKind;

    fn specs() -> BTreeMap<String, BeSpec> {
        let mut m = BTreeMap::new();
        for k in [
            BeKind::CpuStress,
            BeKind::StreamDram { big: true },
            BeKind::StreamLlc { big: true },
            BeKind::Iperf,
        ] {
            let s = BeSpec::of(k);
            m.insert(s.name.clone(), s);
        }
        m
    }

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

    fn grant(cores: u32) -> Allocation {
        Allocation {
            cores,
            llc_ways: 2,
            mem_mb: 2048,
            net_mbps: 0.0,
            freq_mhz: 2_000,
        }
    }

    #[test]
    fn empty_machine_zero_pressure() {
        let m = machine();
        let p = Pressure::from_machine(&m, &specs());
        assert_eq!(p, Pressure::zero());
    }

    #[test]
    fn stream_dram_builds_dram_pressure() {
        let mut m = machine();
        m.admit_be("stream-dram", grant(4)).unwrap();
        let p = Pressure::from_machine(&m, &specs());
        assert!(p.dram > 0.9, "4 cores of stream-dram(big) saturate: {p:?}");
        assert!(p.llc < 0.5);
        assert!(p.cpu < 0.2);
    }

    #[test]
    fn pressure_scales_with_cores() {
        let mut m = machine();
        m.admit_be("CPU-stress", grant(2)).unwrap();
        let p2 = Pressure::from_machine(&m, &specs());
        m.admit_be("CPU-stress", grant(2)).unwrap();
        let p4 = Pressure::from_machine(&m, &specs());
        assert!((p4.cpu - 2.0 * p2.cpu).abs() < 1e-9);
    }

    #[test]
    fn suspended_instances_exert_nothing() {
        let mut m = machine();
        let id = m.admit_be("stream-dram", grant(4)).unwrap();
        m.suspend_be(id).unwrap();
        let p = Pressure::from_machine(&m, &specs());
        assert_eq!(p, Pressure::zero());
    }

    #[test]
    fn be_dvfs_reduces_pressure() {
        let mut m = machine();
        m.admit_be("stream-dram", grant(2)).unwrap();
        let full = Pressure::from_machine(&m, &specs());
        m.be_dvfs.set_mhz(1_200);
        let throttled = Pressure::from_machine(&m, &specs());
        assert!(throttled.dram < full.dram);
    }

    #[test]
    fn net_pressure_limited_by_qdisc() {
        let mut m = machine();
        m.admit_be("iperf", grant(2)).unwrap();
        // No BE network provisioned yet -> zero network pressure.
        let p = Pressure::from_machine(&m, &specs());
        assert_eq!(p.net, 0.0);
        // Provision BE bandwidth; iperf demands 9 Gb of the 10 Gb link.
        m.qdisc.reallocate(500.0);
        let p = Pressure::from_machine(&m, &specs());
        assert!(p.net > 0.8, "net={}", p.net);
    }

    #[test]
    fn unknown_workload_ignored() {
        let mut m = machine();
        m.admit_be("mystery-job", grant(4)).unwrap();
        let p = Pressure::from_machine(&m, &specs());
        assert_eq!(p, Pressure::zero());
    }

    #[test]
    fn channels_saturate_at_one() {
        let mut m = machine();
        for _ in 0..5 {
            m.admit_be("stream-dram", grant(4)).unwrap();
        }
        let p = Pressure::from_machine(&m, &specs());
        assert_eq!(p.dram, 1.0);
    }

    #[test]
    fn lc_usage_adds_baseline() {
        let spec = MachineSpec::paper_testbed();
        let p = Pressure::zero().with_lc_usage(&spec, spec.total_membw_mbps(), 0.0);
        assert!((p.dram - 0.5).abs() < 1e-9);
        let p = Pressure::zero().with_lc_usage(&spec, 0.0, spec.nic_mbps);
        assert!((p.net - 0.25).abs() < 1e-9);
    }
}
