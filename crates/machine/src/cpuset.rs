//! Core-pinning sets (the `cpuset` cgroup interface).
//!
//! Rhythm binds LC and BE jobs to disjoint physical cores (paper §4,
//! isolation mechanism 1). A [`CpuSet`] is a bitmask over the machine's
//! cores; the machine hands out disjoint sets and checks for overlap.

use std::fmt;

/// A set of physical core ids on one machine (up to 128 cores).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuSet {
    bits: u128,
}

impl CpuSet {
    /// The empty set.
    pub const fn empty() -> Self {
        CpuSet { bits: 0 }
    }

    /// The contiguous range `[start, start + count)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds 128 cores.
    pub fn range(start: u32, count: u32) -> Self {
        assert!(start + count <= 128, "CpuSet supports up to 128 cores");
        if count == 0 {
            return CpuSet::empty();
        }
        let mask = if count == 128 {
            u128::MAX
        } else {
            ((1u128 << count) - 1) << start
        };
        CpuSet { bits: mask }
    }

    /// Inserts core `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 128`.
    pub fn insert(&mut self, id: u32) {
        assert!(id < 128, "core id out of range");
        self.bits |= 1u128 << id;
    }

    /// Removes core `id` if present.
    pub fn remove(&mut self, id: u32) {
        if id < 128 {
            self.bits &= !(1u128 << id);
        }
    }

    /// True if core `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        id < 128 && (self.bits >> id) & 1 == 1
    }

    /// Number of cores in the set.
    pub fn count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// True if the two sets share no core.
    pub fn is_disjoint(&self, other: &CpuSet) -> bool {
        self.bits & other.bits == 0
    }

    /// Set union.
    pub fn union(&self, other: &CpuSet) -> CpuSet {
        CpuSet {
            bits: self.bits | other.bits,
        }
    }

    /// Set difference (`self` minus `other`).
    pub fn difference(&self, other: &CpuSet) -> CpuSet {
        CpuSet {
            bits: self.bits & !other.bits,
        }
    }

    /// Iterates over core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..128).filter(|&i| self.contains(i))
    }

    /// Takes the `n` lowest-numbered cores out of the set, returning them
    /// as a new set. Returns `None` (and leaves `self` unchanged) if fewer
    /// than `n` cores are available.
    pub fn take_lowest(&mut self, n: u32) -> Option<CpuSet> {
        if self.count() < n {
            return None;
        }
        let mut taken = CpuSet::empty();
        let mut remaining = n;
        for id in 0..128 {
            if remaining == 0 {
                break;
            }
            if self.contains(id) {
                taken.insert(id);
                remaining -= 1;
            }
        }
        *self = self.difference(&taken);
        Some(taken)
    }
}

impl rhythm_snapshot::Snapshot for CpuSet {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u128(self.bits);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(CpuSet { bits: r.u128()? })
    }
}

impl fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuSet{{")?;
        let mut first = true;
        for id in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{id}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_and_count() {
        let s = CpuSet::range(4, 6);
        assert_eq!(s.count(), 6);
        assert!(s.contains(4));
        assert!(s.contains(9));
        assert!(!s.contains(3));
        assert!(!s.contains(10));
    }

    #[test]
    fn empty_range() {
        assert!(CpuSet::range(5, 0).is_empty());
    }

    #[test]
    fn full_width_range() {
        let s = CpuSet::range(0, 128);
        assert_eq!(s.count(), 128);
    }

    #[test]
    fn insert_remove() {
        let mut s = CpuSet::empty();
        s.insert(7);
        assert!(s.contains(7));
        s.remove(7);
        assert!(!s.contains(7));
        s.remove(7); // Idempotent.
        assert!(s.is_empty());
    }

    #[test]
    fn disjoint_and_union() {
        let a = CpuSet::range(0, 4);
        let b = CpuSet::range(4, 4);
        assert!(a.is_disjoint(&b));
        let u = a.union(&b);
        assert_eq!(u.count(), 8);
        assert!(!u.is_disjoint(&a));
    }

    #[test]
    fn difference() {
        let a = CpuSet::range(0, 8);
        let b = CpuSet::range(0, 4);
        let d = a.difference(&b);
        assert_eq!(d.count(), 4);
        assert!(d.contains(4));
        assert!(!d.contains(3));
    }

    #[test]
    fn take_lowest_takes_in_order() {
        let mut free = CpuSet::range(0, 10);
        let t = free.take_lowest(3).unwrap();
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(free.count(), 7);
        assert!(!free.contains(0));
    }

    #[test]
    fn take_lowest_insufficient() {
        let mut free = CpuSet::range(0, 2);
        assert!(free.take_lowest(3).is_none());
        assert_eq!(free.count(), 2, "failed take must not mutate");
    }

    #[test]
    fn iter_ascending() {
        let mut s = CpuSet::empty();
        s.insert(9);
        s.insert(1);
        s.insert(100);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 9, 100]);
    }

    #[test]
    #[should_panic(expected = "128")]
    fn range_overflow_panics() {
        CpuSet::range(120, 16);
    }
}
