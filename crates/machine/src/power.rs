//! RAPL-style socket power model.
//!
//! The frequency subcontroller (paper §3.5.2) monitors socket power via
//! RAPL and throttles BE frequency when it exceeds 80% of TDP. We model
//! socket power as idle power plus a dynamic term that scales linearly
//! with active cores and cubically with frequency (the classic `P ∝ C·V²·f`
//! with voltage roughly proportional to frequency).

use crate::spec::MachineSpec;

/// Power model for one machine.
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    /// Idle power of the whole machine in watts.
    pub idle_watts: f64,
    /// Dynamic power of one core running at maximum frequency, in watts.
    pub dynamic_watts_per_core: f64,
    /// Maximum frequency in MHz (reference point for scaling).
    pub max_freq_mhz: u32,
    /// Total TDP in watts.
    pub tdp_watts: f64,
}

impl PowerModel {
    /// Derives a power model from a machine spec: idle is 30% of TDP and
    /// the remaining 70% is divided evenly among cores at full frequency.
    pub fn from_spec(spec: &MachineSpec) -> Self {
        let tdp = spec.total_tdp_watts();
        PowerModel {
            idle_watts: 0.3 * tdp,
            dynamic_watts_per_core: 0.7 * tdp / f64::from(spec.total_cores()),
            max_freq_mhz: spec.max_freq_mhz,
            tdp_watts: tdp,
        }
    }

    /// Instantaneous machine power given the number of active cores in two
    /// frequency domains (LC and BE), each with a utilization in `[0, 1]`.
    pub fn power_watts(
        &self,
        lc_cores: u32,
        lc_util: f64,
        lc_freq_mhz: u32,
        be_cores: u32,
        be_util: f64,
        be_freq_mhz: u32,
    ) -> f64 {
        let dyn_term = |cores: u32, util: f64, freq: u32| {
            let f = (f64::from(freq.min(self.max_freq_mhz)) / f64::from(self.max_freq_mhz)).powi(3);
            self.dynamic_watts_per_core * f64::from(cores) * util.clamp(0.0, 1.0) * f
        };
        self.idle_watts
            + dyn_term(lc_cores, lc_util, lc_freq_mhz)
            + dyn_term(be_cores, be_util, be_freq_mhz)
    }

    /// True if `power` exceeds the paper's 80%-of-TDP throttling threshold.
    pub fn over_budget(&self, power_watts: f64) -> bool {
        power_watts > 0.8 * self.tdp_watts
    }
}

impl rhythm_snapshot::Snapshot for PowerModel {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let PowerModel {
            idle_watts,
            dynamic_watts_per_core,
            max_freq_mhz,
            tdp_watts,
        } = *self;
        w.f64(idle_watts);
        w.f64(dynamic_watts_per_core);
        w.u32(max_freq_mhz);
        w.f64(tdp_watts);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(PowerModel {
            idle_watts: r.f64()?,
            dynamic_watts_per_core: r.f64()?,
            max_freq_mhz: r.u32()?,
            tdp_watts: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::from_spec(&MachineSpec::paper_testbed())
    }

    #[test]
    fn idle_power_at_zero_load() {
        let m = model();
        let p = m.power_watts(0, 0.0, 2000, 0, 0.0, 2000);
        assert!((p - 0.3 * 460.0).abs() < 1e-9);
        assert!(!m.over_budget(p));
    }

    #[test]
    fn full_load_hits_tdp() {
        let m = model();
        let p = m.power_watts(40, 1.0, 2000, 0, 0.0, 2000);
        assert!((p - 460.0).abs() < 1e-9);
        assert!(m.over_budget(p));
    }

    #[test]
    fn dvfs_reduces_power_cubically() {
        let m = model();
        let full = m.power_watts(0, 0.0, 2000, 10, 1.0, 2000) - m.idle_watts;
        let half = m.power_watts(0, 0.0, 2000, 10, 1.0, 1000) - m.idle_watts;
        assert!((half / full - 0.125).abs() < 1e-9, "P scales with f^3");
    }

    #[test]
    fn utilization_clamps() {
        let m = model();
        let p1 = m.power_watts(10, 5.0, 2000, 0, 0.0, 2000);
        let p2 = m.power_watts(10, 1.0, 2000, 0, 0.0, 2000);
        assert_eq!(p1, p2);
    }

    #[test]
    fn budget_threshold_is_80_percent() {
        let m = model();
        assert!(!m.over_budget(0.8 * 460.0));
        assert!(m.over_budget(0.8 * 460.0 + 0.1));
    }
}
