//! A resource grant for one job on one machine.

use std::fmt;
use std::ops::{Add, AddAssign};

/// The bundle of machine resources granted to a job (LC Servpod or one BE
/// instance).
///
/// Units follow the paper's controller granularities (§3.5.2): whole cores,
/// whole LLC ways (10% of a 20-way socket LLC = 2 ways), memory in MB
/// (BE jobs start at 2 GB and step by 100 MB), network in Mbit/s, and a
/// DVFS frequency in MHz.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Allocation {
    /// Number of physical cores.
    pub cores: u32,
    /// Number of LLC ways (machine-wide count).
    pub llc_ways: u32,
    /// DRAM in MB.
    pub mem_mb: u64,
    /// Network bandwidth in Mbit/s.
    pub net_mbps: f64,
    /// Operating frequency in MHz (0 means "machine default").
    pub freq_mhz: u32,
}

impl Allocation {
    /// The empty grant.
    pub const fn none() -> Self {
        Allocation {
            cores: 0,
            llc_ways: 0,
            mem_mb: 0,
            net_mbps: 0.0,
            freq_mhz: 0,
        }
    }

    /// Creates a grant with the given cores and LLC ways and nothing else.
    pub fn cores_and_llc(cores: u32, llc_ways: u32) -> Self {
        Allocation {
            cores,
            llc_ways,
            ..Allocation::none()
        }
    }

    /// True if every field is zero.
    pub fn is_empty(&self) -> bool {
        self.cores == 0
            && self.llc_ways == 0
            && self.mem_mb == 0
            && self.net_mbps == 0.0
            && self.freq_mhz == 0
    }

    /// Component-wise saturating subtraction (frequency is kept from
    /// `self`: cutting resources does not change the DVFS point).
    pub fn saturating_sub(&self, other: &Allocation) -> Allocation {
        Allocation {
            cores: self.cores.saturating_sub(other.cores),
            llc_ways: self.llc_ways.saturating_sub(other.llc_ways),
            mem_mb: self.mem_mb.saturating_sub(other.mem_mb),
            net_mbps: (self.net_mbps - other.net_mbps).max(0.0),
            freq_mhz: self.freq_mhz,
        }
    }

    /// True if every component of `self` fits within `other`.
    pub fn fits_within(&self, other: &Allocation) -> bool {
        self.cores <= other.cores
            && self.llc_ways <= other.llc_ways
            && self.mem_mb <= other.mem_mb
            && self.net_mbps <= other.net_mbps + 1e-9
    }
}

impl rhythm_snapshot::Snapshot for Allocation {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let Allocation {
            cores,
            llc_ways,
            mem_mb,
            net_mbps,
            freq_mhz,
        } = *self;
        w.u32(cores);
        w.u32(llc_ways);
        w.u64(mem_mb);
        w.f64(net_mbps);
        w.u32(freq_mhz);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(Allocation {
            cores: r.u32()?,
            llc_ways: r.u32()?,
            mem_mb: r.u64()?,
            net_mbps: r.f64()?,
            freq_mhz: r.u32()?,
        })
    }
}

impl Add for Allocation {
    type Output = Allocation;

    fn add(self, rhs: Allocation) -> Allocation {
        Allocation {
            cores: self.cores + rhs.cores,
            llc_ways: self.llc_ways + rhs.llc_ways,
            mem_mb: self.mem_mb + rhs.mem_mb,
            net_mbps: self.net_mbps + rhs.net_mbps,
            freq_mhz: self.freq_mhz.max(rhs.freq_mhz),
        }
    }
}

impl AddAssign for Allocation {
    fn add_assign(&mut self, rhs: Allocation) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}c/{}w/{}MB/{:.0}Mbps@{}MHz",
            self.cores, self.llc_ways, self.mem_mb, self.net_mbps, self.freq_mhz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        assert!(Allocation::none().is_empty());
        assert!(!Allocation::cores_and_llc(1, 0).is_empty());
    }

    #[test]
    fn addition_sums_components() {
        let a = Allocation {
            cores: 2,
            llc_ways: 4,
            mem_mb: 1000,
            net_mbps: 100.0,
            freq_mhz: 1800,
        };
        let b = Allocation {
            cores: 1,
            llc_ways: 2,
            mem_mb: 500,
            net_mbps: 50.0,
            freq_mhz: 2000,
        };
        let c = a + b;
        assert_eq!(c.cores, 3);
        assert_eq!(c.llc_ways, 6);
        assert_eq!(c.mem_mb, 1500);
        assert_eq!(c.net_mbps, 150.0);
        assert_eq!(c.freq_mhz, 2000, "addition keeps the higher frequency");
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = Allocation::cores_and_llc(1, 1);
        let b = Allocation::cores_and_llc(5, 5);
        let d = a.saturating_sub(&b);
        assert_eq!(d.cores, 0);
        assert_eq!(d.llc_ways, 0);
    }

    #[test]
    fn fits_within() {
        let small = Allocation::cores_and_llc(2, 2);
        let big = Allocation {
            cores: 4,
            llc_ways: 4,
            mem_mb: 0,
            net_mbps: 0.0,
            freq_mhz: 0,
        };
        assert!(small.fits_within(&big));
        assert!(!big.fits_within(&small));
    }

    #[test]
    fn display_is_compact() {
        let a = Allocation {
            cores: 2,
            llc_ways: 4,
            mem_mb: 2048,
            net_mbps: 100.0,
            freq_mhz: 2000,
        };
        assert_eq!(format!("{a}"), "2c/4w/2048MB/100Mbps@2000MHz");
    }
}
