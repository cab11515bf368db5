//! Deterministic event calendar.
//!
//! A binary heap of pending events keyed by [`SimTime`], with a monotone
//! sequence number as tiebreaker, so that events scheduled for the same
//! instant pop in insertion (FIFO) order. That stability is what makes
//! whole-cluster simulations bit-reproducible across runs and platforms.
//!
//! The engine's event stream is sparse: the calendar rarely holds more
//! than a few dozen pending entries, so the heap's O(log n) sifts are a
//! handful of compares. Most handlers schedule a follow-up event, so
//! `pop` leaves the popped entry at the top and the next `schedule`
//! overwrites it: one sift per handled event instead of two. A 64-slot
//! bucket wheel measured no end-to-end gain over this heap on any
//! benchmark workload and pre-allocated 11.8 KB per engine (DESIGN.md
//! §7 has the A/B).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
        // `BinaryHeap` (a max-heap) pops earliest-first.
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
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    /// The heap's top is the event `pop` last returned, left in place:
    /// the next `schedule` overwrites it and sifts once, where a removal
    /// and an insertion would sift twice. It is the earliest entry, since
    /// nothing scheduled after it can sort before it.
    spent_top: bool,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            spent_top: false,
        }
    }

    /// Events the heap has room for without reallocating, for footprint
    /// accounting. It grows on demand.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The time of the most recently popped event (the "current" virtual
    /// time).
    pub fn now(&self) -> SimTime {
        self.now
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
        if std::mem::take(&mut self.spent_top) {
            if let Some(mut top) = self.heap.peek_mut() {
                *top = entry;
                return;
            }
        }
        self.heap.push(entry);
    }

    /// Drops the spent top, if `pop` left one.
    fn discard_spent(&mut self) {
        if self.spent_top {
            self.heap.pop();
            self.spent_top = false;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.spent_top)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending events, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = &E> {
        let spent = self
            .heap
            .peek()
            .filter(|_| self.spent_top)
            .map(|top| top.seq);
        self.heap
            .iter()
            .filter(move |e| Some(e.seq) != spent)
            .map(|e| &e.event)
    }
}

impl<E: Copy> Calendar<E> {
    /// Removes and returns the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if_at_or_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `limit` (the epoch-stepped engine's hot path).
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.discard_spent();
        let top = self.heap.peek()?;
        if top.at > limit {
            return None;
        }
        debug_assert!(top.at >= self.now, "calendar time moved backwards");
        let (at, event) = (top.at, top.event);
        self.now = at;
        self.spent_top = true;
        Some((at, event))
    }
}

impl<E: rhythm_snapshot::Snapshot> rhythm_snapshot::Snapshot for Calendar<E> {
    /// Canonical encoding: `(now, next_seq)` plus every pending entry
    /// sorted by `(time, seq)` — independent of the heap's internal
    /// layout, so two calendars with the same pending set and clock
    /// encode to identical bytes.
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let Calendar {
            heap,
            next_seq,
            now,
            spent_top,
        } = self;
        w.u64(now.as_nanos());
        w.u64(*next_seq);
        let mut entries: Vec<&Entry<E>> = heap.iter().collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        let pending = &entries[usize::from(*spent_top)..];
        w.u64(pending.len() as u64);
        for Entry { at, seq, event } in pending {
            w.u64(at.as_nanos());
            w.u64(*seq);
            event.encode(w);
        }
    }

    /// Rebuilds the heap at the restored clock. The pop order — strictly
    /// `(time, seq)` — is preserved exactly, so the restored calendar is
    /// observationally identical to the captured one.
    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let now = SimTime::from_nanos(r.u64()?);
        let next_seq = r.u64()?;
        let count = r.len(16)?; // 8 (at) + 8 (seq) + the event payload
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let at = SimTime::from_nanos(r.u64()?);
            let seq = r.u64()?;
            let event = E::decode(r)?;
            if at < now || seq >= next_seq {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(
                    "calendar entry violates (now, next_seq) bounds".into(),
                ));
            }
            entries.push(Entry { at, seq, event });
        }
        Ok(Calendar {
            heap: BinaryHeap::from(entries),
            next_seq,
            now,
            spent_top: false,
        })
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
    fn far_events_pop_in_order() {
        // Events seconds away (controller ticks, slow arrivals) must
        // interleave correctly with near events.
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(30), "far-b");
        cal.schedule(SimTime::from_millis(5), "near");
        cal.schedule(SimTime::from_secs(10), "far-a");
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.pop().unwrap().1, "near");
        assert_eq!(cal.pop().unwrap().1, "far-a");
        assert_eq!(cal.pop().unwrap().1, "far-b");
        assert!(cal.is_empty());
    }

    #[test]
    fn far_events_at_same_time_are_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(60);
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
        // After a pop, insert again at an equal and a smaller time than
        // the remaining entry.
        assert_eq!(cal.pop().unwrap().1, 0);
        cal.schedule(SimTime::from_micros(900), 2);
        cal.schedule(SimTime::from_micros(700), 3);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn pending_leaves_out_the_popped_event() {
        let mut cal = Calendar::new();
        for (ms, e) in [(3, 'a'), (1, 'b'), (2, 'c')] {
            cal.schedule(SimTime::from_millis(ms), e);
        }
        assert_eq!(cal.pop().unwrap().1, 'b');
        let mut left: Vec<char> = cal.pending().copied().collect();
        left.sort_unstable();
        assert_eq!(left, vec!['a', 'c']);
        assert_eq!(cal.len(), 2);
        cal.schedule(SimTime::from_millis(4), 'd');
        assert_eq!(cal.pending().count(), 3);
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
        // Mix of near, far and simultaneous (FIFO) events.
        cal.schedule(SimTime::from_millis(10), 0u64);
        cal.schedule(SimTime::from_secs(90), 1u64);
        cal.schedule(SimTime::from_millis(10), 2u64);
        cal.schedule(SimTime::from_millis(3), 3u64);
        cal.pop(); // Advance `now` so the restore happens mid-stream.
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
}
