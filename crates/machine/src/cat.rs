//! LLC way partitioning (Intel Cache Allocation Technology).
//!
//! Rhythm splits the last-level cache into an LC part and a BE part
//! (paper §4, isolation mechanism 2). CAT operates at way granularity:
//! a class of service owns a contiguous bitmap of ways. The paper's
//! CPU/LLC subcontroller steps BE cache in units of "10% LLC", i.e. 2 of
//! the 20 ways of one socket.

/// A two-class (LC / BE) LLC way partition for one machine.
///
/// Invariant: `lc_ways + be_ways <= total_ways`, and the LC class always
/// keeps at least one way (a CLOS with an empty mask is invalid on real
/// hardware).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CatPartition {
    total_ways: u32,
    lc_ways: u32,
    be_ways: u32,
}

/// Errors from repartitioning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatError {
    /// Growing the BE class would leave the LC class without its
    /// mandatory way (a CLOS with an empty mask is invalid on real
    /// hardware), or the request simply exceeds what LC can cede.
    LcMinimum,
}

impl std::fmt::Display for CatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatError::LcMinimum => write!(f, "LC class must keep at least one way"),
        }
    }
}

impl std::error::Error for CatError {}

impl CatPartition {
    /// Creates a partition with everything assigned to LC and nothing to
    /// BE (the configuration before any BE job is admitted).
    ///
    /// # Panics
    ///
    /// Panics if `total_ways == 0`.
    pub fn all_lc(total_ways: u32) -> Self {
        assert!(total_ways > 0, "LLC must have at least one way");
        CatPartition {
            total_ways,
            lc_ways: total_ways,
            be_ways: 0,
        }
    }

    /// Total ways on the machine.
    pub fn total_ways(&self) -> u32 {
        self.total_ways
    }

    /// Ways currently owned by the LC class.
    pub fn lc_ways(&self) -> u32 {
        self.lc_ways
    }

    /// Ways currently owned by the BE class.
    pub fn be_ways(&self) -> u32 {
        self.be_ways
    }

    /// Unassigned ways (kept as slack; count toward LC's effective share
    /// on real CAT, but tracked separately here for clarity).
    pub fn free_ways(&self) -> u32 {
        self.total_ways - self.lc_ways - self.be_ways
    }

    /// Fraction of the LLC owned by the BE class.
    pub fn be_fraction(&self) -> f64 {
        self.be_ways as f64 / self.total_ways as f64
    }

    /// Moves `n` ways from the LC class to the BE class.
    pub fn grow_be(&mut self, n: u32) -> Result<(), CatError> {
        if self.lc_ways < n + 1 {
            return Err(CatError::LcMinimum);
        }
        self.lc_ways -= n;
        self.be_ways += n;
        Ok(())
    }

    /// Returns `n` ways from the BE class to the LC class (saturating:
    /// returns however many BE actually had).
    pub fn shrink_be(&mut self, n: u32) -> u32 {
        let taken = n.min(self.be_ways);
        self.be_ways -= taken;
        self.lc_ways += taken;
        taken
    }

    /// Releases the entire BE class back to LC (StopBE).
    pub fn release_all_be(&mut self) {
        self.lc_ways += self.be_ways;
        self.be_ways = 0;
    }

    /// Checks the partition invariants.
    pub fn is_consistent(&self) -> bool {
        self.lc_ways >= 1 && self.lc_ways + self.be_ways <= self.total_ways
    }
}

impl rhythm_snapshot::Snapshot for CatPartition {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u32(self.total_ways);
        w.u32(self.lc_ways);
        w.u32(self.be_ways);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let p = CatPartition {
            total_ways: r.u32()?,
            lc_ways: r.u32()?,
            be_ways: r.u32()?,
        };
        if !p.is_consistent() {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(
                "CAT partition violates its way-count invariant".into(),
            ));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_lc() {
        let p = CatPartition::all_lc(20);
        assert_eq!(p.lc_ways(), 20);
        assert_eq!(p.be_ways(), 0);
        assert_eq!(p.free_ways(), 0);
        assert!(p.is_consistent());
    }

    #[test]
    fn grow_and_shrink() {
        let mut p = CatPartition::all_lc(20);
        p.grow_be(2).unwrap();
        assert_eq!(p.be_ways(), 2);
        assert_eq!(p.lc_ways(), 18);
        assert!((p.be_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(p.shrink_be(1), 1);
        assert_eq!(p.be_ways(), 1);
        assert!(p.is_consistent());
    }

    #[test]
    fn lc_keeps_one_way() {
        let mut p = CatPartition::all_lc(4);
        p.grow_be(3).unwrap();
        assert_eq!(p.lc_ways(), 1);
        assert_eq!(p.grow_be(1), Err(CatError::LcMinimum));
    }

    #[test]
    fn shrink_saturates() {
        let mut p = CatPartition::all_lc(10);
        p.grow_be(4).unwrap();
        assert_eq!(p.shrink_be(100), 4);
        assert_eq!(p.be_ways(), 0);
        assert_eq!(p.lc_ways(), 10);
    }

    #[test]
    fn release_all() {
        let mut p = CatPartition::all_lc(10);
        p.grow_be(5).unwrap();
        p.release_all_be();
        assert_eq!(p.lc_ways(), 10);
        assert_eq!(p.be_ways(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        CatPartition::all_lc(0);
    }
}
