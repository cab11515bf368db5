//! Network bandwidth shaping (the Linux `tc qdisc` interface).
//!
//! The network subcontroller (paper §3.5.2) continuously monitors the LC
//! service's bandwidth `B_LC` and allocates `B_link − 1.2 · B_LC` to BE
//! jobs, keeping a 20% headroom above the LC's observed usage.

/// A two-class bandwidth shaper for one NIC.
#[derive(Clone, Copy, Debug)]
pub struct Qdisc {
    link_mbps: f64,
    be_limit_mbps: f64,
}

impl Qdisc {
    /// Creates a shaper for a link of the given rate with BE initially
    /// unprovisioned.
    ///
    /// # Panics
    ///
    /// Panics if `link_mbps` is not positive.
    pub fn new(link_mbps: f64) -> Self {
        assert!(link_mbps > 0.0, "link rate must be positive");
        Qdisc {
            link_mbps,
            be_limit_mbps: 0.0,
        }
    }

    /// Link line rate in Mbit/s.
    pub fn link_mbps(&self) -> f64 {
        self.link_mbps
    }

    /// Current BE class ceiling in Mbit/s.
    pub fn be_limit_mbps(&self) -> f64 {
        self.be_limit_mbps
    }

    /// Applies the paper's rule: BE gets `link − 1.2 · lc_usage`, floored
    /// at zero. Returns the new BE ceiling.
    pub fn reallocate(&mut self, lc_usage_mbps: f64) -> f64 {
        let lc = lc_usage_mbps.max(0.0);
        self.be_limit_mbps = (self.link_mbps - 1.2 * lc).max(0.0);
        self.be_limit_mbps
    }

    /// Removes all BE bandwidth (StopBE / SuspendBE).
    pub fn zero_be(&mut self) {
        self.be_limit_mbps = 0.0;
    }

    /// The headroom the rule reserves above LC usage, in Mbit/s.
    pub fn lc_headroom_mbps(&self, lc_usage_mbps: f64) -> f64 {
        (self.link_mbps - self.be_limit_mbps - lc_usage_mbps).max(0.0)
    }
}

impl rhythm_snapshot::Snapshot for Qdisc {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let Qdisc {
            link_mbps,
            be_limit_mbps,
        } = *self;
        w.f64(link_mbps);
        w.f64(be_limit_mbps);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(Qdisc {
            link_mbps: r.f64()?,
            be_limit_mbps: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reallocate_follows_paper_rule() {
        let mut q = Qdisc::new(10_000.0);
        assert_eq!(q.reallocate(1_000.0), 10_000.0 - 1_200.0);
        assert_eq!(q.be_limit_mbps(), 8_800.0);
    }

    #[test]
    fn reallocate_floors_at_zero() {
        let mut q = Qdisc::new(1_000.0);
        assert_eq!(q.reallocate(900.0), 0.0);
    }

    #[test]
    fn zero_be_clears_limit() {
        let mut q = Qdisc::new(10_000.0);
        q.reallocate(100.0);
        q.zero_be();
        assert_eq!(q.be_limit_mbps(), 0.0);
    }

    #[test]
    fn headroom_accounts_for_both_classes() {
        let mut q = Qdisc::new(10_000.0);
        q.reallocate(2_000.0);
        // BE = 10000 - 2400 = 7600; headroom = 10000 - 7600 - 2000 = 400.
        assert!((q.lc_headroom_mbps(2_000.0) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lc_usage_treated_as_zero() {
        let mut q = Qdisc::new(5_000.0);
        assert_eq!(q.reallocate(-50.0), 5_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_link_panics() {
        Qdisc::new(0.0);
    }
}
