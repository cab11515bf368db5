//! Per-domain dynamic voltage and frequency scaling.
//!
//! The frequency subcontroller (paper §3.5.2) lowers the BE cores'
//! operating point in 100 MHz steps when the socket power exceeds 80% of
//! TDP, and never lets the LC cores drop below the minimum frequency that
//! still meets the SLA.

use crate::spec::MachineSpec;

/// A frequency domain (one group of cores sharing a DVFS operating point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DvfsDomain {
    min_mhz: u32,
    max_mhz: u32,
    step_mhz: u32,
    current_mhz: u32,
}

impl DvfsDomain {
    /// Creates a domain at the machine's maximum frequency.
    pub fn from_spec(spec: &MachineSpec) -> Self {
        DvfsDomain {
            min_mhz: spec.min_freq_mhz,
            max_mhz: spec.max_freq_mhz,
            step_mhz: spec.freq_step_mhz,
            current_mhz: spec.max_freq_mhz,
        }
    }

    /// The current operating point in MHz.
    pub fn current_mhz(&self) -> u32 {
        self.current_mhz
    }

    /// The domain's floor in MHz.
    pub fn min_mhz(&self) -> u32 {
        self.min_mhz
    }

    /// The domain's ceiling in MHz.
    pub fn max_mhz(&self) -> u32 {
        self.max_mhz
    }

    /// Current frequency as a fraction of the maximum (1.0 = full speed).
    pub fn speed_fraction(&self) -> f64 {
        f64::from(self.current_mhz) / f64::from(self.max_mhz)
    }

    /// Steps the frequency down by one step; returns the new frequency.
    /// Saturates at the floor.
    pub fn step_down(&mut self) -> u32 {
        self.current_mhz = self
            .current_mhz
            .saturating_sub(self.step_mhz)
            .max(self.min_mhz);
        self.current_mhz
    }

    /// Steps the frequency up by one step; returns the new frequency.
    /// Saturates at the ceiling.
    pub fn step_up(&mut self) -> u32 {
        self.current_mhz = (self.current_mhz + self.step_mhz).min(self.max_mhz);
        self.current_mhz
    }

    /// Sets the frequency to the nearest valid operating point at or below
    /// `mhz`, clamped to the domain range. Returns the resulting point.
    pub fn set_mhz(&mut self, mhz: u32) -> u32 {
        let clamped = mhz.clamp(self.min_mhz, self.max_mhz);
        // Snap down to the operating-point grid.
        let steps = (clamped - self.min_mhz) / self.step_mhz;
        self.current_mhz = self.min_mhz + steps * self.step_mhz;
        self.current_mhz
    }

    /// Resets to the maximum frequency.
    pub fn reset(&mut self) {
        self.current_mhz = self.max_mhz;
    }

    /// True if the domain is at its floor.
    pub fn at_floor(&self) -> bool {
        self.current_mhz == self.min_mhz
    }
}

impl rhythm_snapshot::Snapshot for DvfsDomain {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let DvfsDomain {
            min_mhz,
            max_mhz,
            step_mhz,
            current_mhz,
        } = *self;
        w.u32(min_mhz);
        w.u32(max_mhz);
        w.u32(step_mhz);
        w.u32(current_mhz);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let d = DvfsDomain {
            min_mhz: r.u32()?,
            max_mhz: r.u32()?,
            step_mhz: r.u32()?,
            current_mhz: r.u32()?,
        };
        if d.min_mhz > d.max_mhz || d.current_mhz < d.min_mhz || d.current_mhz > d.max_mhz {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(
                "DVFS operating point outside its domain range".into(),
            ));
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> DvfsDomain {
        DvfsDomain::from_spec(&MachineSpec::paper_testbed())
    }

    #[test]
    fn starts_at_max() {
        let d = domain();
        assert_eq!(d.current_mhz(), 2_000);
        assert_eq!(d.speed_fraction(), 1.0);
        assert!(!d.at_floor());
    }

    #[test]
    fn step_down_saturates_at_floor() {
        let mut d = domain();
        for _ in 0..100 {
            d.step_down();
        }
        assert_eq!(d.current_mhz(), 1_200);
        assert!(d.at_floor());
    }

    #[test]
    fn step_up_saturates_at_ceiling() {
        let mut d = domain();
        d.step_down();
        d.step_up();
        d.step_up();
        assert_eq!(d.current_mhz(), 2_000);
    }

    #[test]
    fn set_snaps_to_grid() {
        let mut d = domain();
        assert_eq!(d.set_mhz(1_750), 1_700, "snaps down to 100 MHz grid");
        assert_eq!(d.set_mhz(5_000), 2_000);
        assert_eq!(d.set_mhz(100), 1_200);
    }

    #[test]
    fn reset_restores_max() {
        let mut d = domain();
        d.set_mhz(1_200);
        d.reset();
        assert_eq!(d.current_mhz(), 2_000);
    }

    #[test]
    fn speed_fraction_scales() {
        let mut d = domain();
        d.set_mhz(1_500);
        assert!((d.speed_fraction() - 0.75).abs() < 1e-12);
    }
}
