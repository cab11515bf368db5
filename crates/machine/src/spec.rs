//! Machine capacity specification.

/// Static capacities of one physical machine.
///
/// The default matches the paper's testbed (§5.1): a quad-socket Intel
/// Xeon E7-4820 v4 @ 2.0 GHz with 40 cores total, 20 MB of L3 per socket,
/// 64 GB of DRAM per socket and a 10 Gb NIC. Memory bandwidth per socket
/// is taken as 60 GB/s (the E7-4820 v4's four DDR4-1866 channels), and the
/// per-socket TDP is 115 W.
///
/// # Examples
///
/// ```
/// use rhythm_machine::MachineSpec;
///
/// let spec = MachineSpec::paper_testbed();
/// assert_eq!(spec.total_cores(), 40);
/// assert_eq!(spec.total_llc_ways(), 80);
/// assert_eq!(spec.total_mem_mb(), 4 * 64 * 1024);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Number of CPU sockets.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// LLC ways per socket (Intel CAT partitions at way granularity).
    pub llc_ways_per_socket: u32,
    /// LLC size per socket in MB.
    pub llc_mb_per_socket: f64,
    /// DRAM per socket in MB.
    pub mem_mb_per_socket: u64,
    /// Peak DRAM bandwidth per socket in MB/s.
    pub membw_mbps_per_socket: f64,
    /// NIC line rate in Mbit/s.
    pub nic_mbps: f64,
    /// Nominal (maximum) core frequency in MHz.
    pub max_freq_mhz: u32,
    /// Lowest DVFS operating point in MHz.
    pub min_freq_mhz: u32,
    /// DVFS step in MHz (the paper's frequency subcontroller steps by 100).
    pub freq_step_mhz: u32,
    /// Thermal design power per socket in watts.
    pub tdp_watts_per_socket: f64,
}

impl MachineSpec {
    /// The paper's testbed machine.
    pub fn paper_testbed() -> Self {
        MachineSpec {
            sockets: 4,
            cores_per_socket: 10,
            llc_ways_per_socket: 20,
            llc_mb_per_socket: 20.0,
            mem_mb_per_socket: 64 * 1024,
            membw_mbps_per_socket: 60.0 * 1024.0,
            nic_mbps: 10_000.0,
            max_freq_mhz: 2_000,
            min_freq_mhz: 1_200,
            freq_step_mhz: 100,
            tdp_watts_per_socket: 115.0,
        }
    }

    /// A dense dual-socket compute node: more, faster cores than the
    /// paper testbed but a narrower LLC. Used by heterogeneous cluster
    /// scenarios as the "big" machine class.
    pub fn dense_compute() -> Self {
        MachineSpec {
            sockets: 2,
            cores_per_socket: 24,
            llc_ways_per_socket: 16,
            llc_mb_per_socket: 32.0,
            mem_mb_per_socket: 96 * 1024,
            membw_mbps_per_socket: 100.0 * 1024.0,
            nic_mbps: 25_000.0,
            max_freq_mhz: 2_600,
            min_freq_mhz: 1_400,
            freq_step_mhz: 100,
            tdp_watts_per_socket: 165.0,
        }
    }

    /// A lean dual-socket node: fewer, slower cores and less bandwidth
    /// than the paper testbed. The "small" machine class of heterogeneous
    /// cluster scenarios (still large enough to host any evaluated LC
    /// component).
    pub fn lean_node() -> Self {
        MachineSpec {
            sockets: 2,
            cores_per_socket: 12,
            llc_ways_per_socket: 12,
            llc_mb_per_socket: 16.0,
            mem_mb_per_socket: 48 * 1024,
            membw_mbps_per_socket: 40.0 * 1024.0,
            nic_mbps: 10_000.0,
            max_freq_mhz: 1_800,
            min_freq_mhz: 1_000,
            freq_step_mhz: 100,
            tdp_watts_per_socket: 85.0,
        }
    }

    /// A small two-socket machine useful for fast tests.
    pub fn small() -> Self {
        MachineSpec {
            sockets: 2,
            cores_per_socket: 4,
            llc_ways_per_socket: 10,
            llc_mb_per_socket: 10.0,
            mem_mb_per_socket: 16 * 1024,
            membw_mbps_per_socket: 20.0 * 1024.0,
            nic_mbps: 1_000.0,
            max_freq_mhz: 2_000,
            min_freq_mhz: 1_000,
            freq_step_mhz: 100,
            tdp_watts_per_socket: 65.0,
        }
    }

    /// Total physical cores across sockets.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Total LLC ways across sockets.
    pub fn total_llc_ways(&self) -> u32 {
        self.sockets * self.llc_ways_per_socket
    }

    /// Total LLC capacity in MB.
    pub fn total_llc_mb(&self) -> f64 {
        f64::from(self.sockets) * self.llc_mb_per_socket
    }

    /// Total DRAM in MB.
    pub fn total_mem_mb(&self) -> u64 {
        u64::from(self.sockets) * self.mem_mb_per_socket
    }

    /// Total peak DRAM bandwidth in MB/s.
    pub fn total_membw_mbps(&self) -> f64 {
        f64::from(self.sockets) * self.membw_mbps_per_socket
    }

    /// Total TDP in watts.
    pub fn total_tdp_watts(&self) -> f64 {
        f64::from(self.sockets) * self.tdp_watts_per_socket
    }

    /// LLC capacity of one way in MB.
    pub fn llc_mb_per_way(&self) -> f64 {
        self.llc_mb_per_socket / f64::from(self.llc_ways_per_socket)
    }

    /// Number of DVFS operating points.
    pub fn freq_levels(&self) -> u32 {
        (self.max_freq_mhz - self.min_freq_mhz) / self.freq_step_mhz + 1
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.sockets == 0 || self.cores_per_socket == 0 {
            return Err("machine must have at least one socket and core".into());
        }
        if self.llc_ways_per_socket == 0 {
            return Err("LLC must have at least one way".into());
        }
        if self.min_freq_mhz > self.max_freq_mhz {
            return Err("min frequency exceeds max frequency".into());
        }
        if self.freq_step_mhz == 0 {
            return Err("frequency step must be positive".into());
        }
        if !(self.max_freq_mhz - self.min_freq_mhz).is_multiple_of(self.freq_step_mhz) {
            return Err("frequency range must be a multiple of the step".into());
        }
        if self.membw_mbps_per_socket <= 0.0 || self.nic_mbps <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        Ok(())
    }
}

impl rhythm_snapshot::Snapshot for MachineSpec {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let MachineSpec {
            sockets,
            cores_per_socket,
            llc_ways_per_socket,
            llc_mb_per_socket,
            mem_mb_per_socket,
            membw_mbps_per_socket,
            nic_mbps,
            max_freq_mhz,
            min_freq_mhz,
            freq_step_mhz,
            tdp_watts_per_socket,
        } = *self;
        w.u32(sockets);
        w.u32(cores_per_socket);
        w.u32(llc_ways_per_socket);
        w.f64(llc_mb_per_socket);
        w.u64(mem_mb_per_socket);
        w.f64(membw_mbps_per_socket);
        w.f64(nic_mbps);
        w.u32(max_freq_mhz);
        w.u32(min_freq_mhz);
        w.u32(freq_step_mhz);
        w.f64(tdp_watts_per_socket);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let spec = MachineSpec {
            sockets: r.u32()?,
            cores_per_socket: r.u32()?,
            llc_ways_per_socket: r.u32()?,
            llc_mb_per_socket: r.f64()?,
            mem_mb_per_socket: r.u64()?,
            membw_mbps_per_socket: r.f64()?,
            nic_mbps: r.f64()?,
            max_freq_mhz: r.u32()?,
            min_freq_mhz: r.u32()?,
            freq_step_mhz: r.u32()?,
            tdp_watts_per_socket: r.f64()?,
        };
        spec.validate()
            .map_err(rhythm_snapshot::SnapshotError::Corrupt)?;
        Ok(spec)
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_paper() {
        let s = MachineSpec::paper_testbed();
        assert_eq!(s.total_cores(), 40);
        assert_eq!(s.total_llc_mb(), 80.0);
        assert_eq!(s.total_mem_mb(), 256 * 1024);
        assert_eq!(s.max_freq_mhz, 2_000);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn derived_quantities() {
        let s = MachineSpec::paper_testbed();
        assert_eq!(s.llc_mb_per_way(), 1.0);
        assert_eq!(s.freq_levels(), 9);
        assert_eq!(s.total_tdp_watts(), 460.0);
    }

    #[test]
    fn small_is_valid() {
        assert!(MachineSpec::small().validate().is_ok());
    }

    #[test]
    fn hetero_classes_are_valid_and_distinct() {
        let dense = MachineSpec::dense_compute();
        let lean = MachineSpec::lean_node();
        assert!(dense.validate().is_ok());
        assert!(lean.validate().is_ok());
        assert!(dense.total_cores() > MachineSpec::paper_testbed().total_cores());
        assert!(lean.total_cores() < MachineSpec::paper_testbed().total_cores());
        // Both classes must still host the largest evaluated LC component
        // (20 cores / 48 GB) with room for BE work.
        assert!(lean.total_cores() >= 24);
        assert!(lean.total_mem_mb() >= 64 * 1024);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = MachineSpec::paper_testbed();
        s.sockets = 0;
        assert!(s.validate().is_err());

        let mut s = MachineSpec::paper_testbed();
        s.min_freq_mhz = 3_000;
        assert!(s.validate().is_err());

        let mut s = MachineSpec::paper_testbed();
        s.freq_step_mhz = 0;
        assert!(s.validate().is_err());

        let mut s = MachineSpec::paper_testbed();
        s.freq_step_mhz = 300;
        assert!(s.validate().is_err(), "800 MHz range not divisible by 300");

        let mut s = MachineSpec::paper_testbed();
        s.nic_mbps = 0.0;
        assert!(s.validate().is_err());
    }
}
