//! A generation-keyed slab arena for hot-path object storage.
//!
//! The discrete-event engine keeps every in-flight request in one of
//! these instead of a `HashMap`: lookups become a bounds-checked index
//! plus a generation compare (no hashing), and freed slots are recycled
//! through a free list so steady-state operation allocates nothing.
//!
//! Keys are *stable* and *generational*: removing a slot bumps its
//! generation, so a stale [`Key`] held after removal can never alias a
//! newer occupant — `get` simply returns `None`. (Generations wrap after
//! 2³² reuses of a single slot; event horizons in the simulator are
//! shorter by many orders of magnitude.)

/// Handle to one arena slot. Packs `(slot index, generation)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    // lint:allow(S02) -- packed: encode writes pack(); decode rebuilds via unpack()
    slot: u32,
    // lint:allow(S02) -- packed: encode writes pack(); decode rebuilds via unpack()
    gen: u32,
}

impl Key {
    /// Packs the key into one `u64` (`slot` in the high half).
    pub fn pack(self) -> u64 {
        (self.slot as u64) << 32 | self.gen as u64
    }

    /// Inverse of [`Key::pack`].
    pub fn unpack(raw: u64) -> Key {
        Key {
            slot: (raw >> 32) as u32,
            // lint:allow(D05) -- intentional: the key's generation is the low 32 bits
            gen: raw as u32,
        }
    }

    /// The slot index (for diagnostics; not unique over time).
    pub fn slot(self) -> usize {
        self.slot as usize
    }
}

struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A slab with a free list and generational keys. See the module docs.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if no values are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever created (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots allocated in memory, created or not, for footprint
    /// accounting. The arena grows on demand.
    pub fn reserved_slots(&self) -> usize {
        self.slots.capacity()
    }

    /// Stores `value`, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> Key {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.value.is_none(), "free-listed slot still occupied");
                s.value = Some(value);
                Key { slot, gen: s.gen }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("arena over 2^32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    value: Some(value),
                });
                Key { slot, gen: 0 }
            }
        }
    }

    /// The value under `key`, or `None` if it was removed (stale keys
    /// fail the generation check even when the slot was reused).
    pub fn get(&self, key: Key) -> Option<&T> {
        let s = self.slots.get(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        s.value.as_ref()
    }

    /// Mutable access to the value under `key`.
    pub fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        s.value.as_mut()
    }

    /// True if `key` refers to a live value.
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Iterates the live values in slot order with their keys.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    Key {
                        slot: i as u32,
                        gen: s.gen,
                    },
                    v,
                )
            })
        })
    }

    /// Iterates the live values mutably, in slot order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().filter_map(|s| s.value.as_mut())
    }

    /// Removes and returns the value under `key`, bumping the slot's
    /// generation so the key (and any copy of it) goes stale.
    pub fn remove(&mut self, key: Key) -> Option<T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        let value = s.value.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(key.slot);
        Some(value)
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl rhythm_snapshot::Snapshot for Key {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u64(self.pack());
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(Key::unpack(r.u64()?))
    }
}

impl<T: rhythm_snapshot::Snapshot> rhythm_snapshot::Snapshot for Arena<T> {
    /// Verbatim encoding of every slot (generation + occupancy) and the
    /// free list, so outstanding [`Key`]s — including stale ones — behave
    /// identically against the restored arena.
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u64(self.slots.len() as u64);
        for s in &self.slots {
            w.u32(s.gen);
            s.value.encode(w);
        }
        w.u64(self.free.len() as u64);
        for &slot in &self.free {
            w.u32(slot);
        }
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let n = r.len(5)?; // 4 (gen) + ≥1 (Option tag)
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let gen = r.u32()?;
            let value = Option::<T>::decode(r)?;
            slots.push(Slot { gen, value });
        }
        let nf = r.len(4)?;
        let mut free = Vec::with_capacity(nf);
        for _ in 0..nf {
            let slot = r.u32()?;
            if slots.get(slot as usize).is_none_or(|s| s.value.is_some()) {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(
                    "arena free list references an occupied or missing slot".into(),
                ));
            }
            free.push(slot);
        }
        let empty = slots.iter().filter(|s| s.value.is_none()).count();
        let mut unique = free.clone();
        unique.sort_unstable();
        unique.dedup();
        if empty != free.len() || unique.len() != free.len() {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(
                "arena free list does not cover every vacant slot exactly once".into(),
            ));
        }
        Ok(Arena { slots, free })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut a = Arena::new();
        let k1 = a.insert("one");
        let k2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(k1), Some(&"one"));
        assert_eq!(a.get(k2), Some(&"two"));
        assert_eq!(a.remove(k1), Some("one"));
        assert_eq!(a.get(k1), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn stale_key_never_aliases_reused_slot() {
        let mut a = Arena::new();
        let k1 = a.insert(1);
        assert_eq!(a.remove(k1), Some(1));
        let k2 = a.insert(2);
        // The slot is reused but the generation moved on.
        assert_eq!(k1.slot(), k2.slot());
        assert_ne!(k1, k2);
        assert_eq!(a.get(k1), None);
        assert_eq!(a.remove(k1), None);
        assert_eq!(a.get(k2), Some(&2));
    }

    #[test]
    fn no_allocation_growth_in_steady_state() {
        let mut a = Arena::new();
        let keys: Vec<Key> = (0..4).map(|i| a.insert(i)).collect();
        for k in keys {
            a.remove(k);
        }
        for round in 0..100 {
            let k = a.insert(round);
            a.remove(k);
        }
        assert_eq!(a.capacity(), 4, "free-listed slots are recycled");
        assert!(a.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut a = Arena::new();
        let k = a.insert(vec![1, 2]);
        a.get_mut(k).unwrap().push(3);
        assert_eq!(a.get(k), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn pack_unpack_round_trips() {
        let mut a = Arena::new();
        let k0 = a.insert(0);
        a.remove(k0);
        let k = a.insert(1); // generation 1, slot 0
        assert_eq!(Key::unpack(k.pack()), k);
        assert!(a.contains(Key::unpack(k.pack())));
    }

    #[test]
    fn snapshot_round_trip_preserves_keys_and_free_list() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut a: Arena<u64> = Arena::new();
        let k0 = a.insert(10);
        let k1 = a.insert(11);
        let _k2 = a.insert(12);
        a.remove(k1); // Leaves a generation-bumped hole in the middle.
        let mut w = Writer::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        let mut b: Arena<u64> = Arena::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(b.len(), a.len());
        assert_eq!(b.get(k0), Some(&10));
        assert_eq!(b.get(k1), None, "stale key stays stale after restore");
        // The restored free list recycles the same slot the original would.
        let ka = a.insert(99);
        let kb = b.insert(99);
        assert_eq!(ka, kb);
    }

    #[test]
    fn snapshot_rejects_bad_free_list() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let mut w = Writer::new();
        w.u64(1); // one slot
        w.u32(0); // gen
        w.u8(1); // Some
        w.u64(7); // value
        w.u64(1); // free list of one
        w.u32(0); // ...pointing at the occupied slot
        let decoded = Arena::<u64>::decode(&mut Reader::new(&w.into_bytes()));
        assert!(matches!(decoded.err(), Some(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn out_of_range_key_is_none() {
        let a: Arena<u8> = Arena::new();
        assert_eq!(a.get(Key { slot: 7, gen: 0 }), None);
    }
}
