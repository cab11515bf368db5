//! Sliding-window tail-latency tracking.
//!
//! The top-level controller (paper §3.5.2, Algorithm 2) runs every 2
//! seconds and compares the *current* tail latency against the SLA target.
//! "Current" means over a recent window, not since the beginning of time —
//! otherwise an early burst would poison the slack estimate forever. This
//! module provides a ring of per-interval histograms whose union
//! approximates the tail over the last `window` of virtual time.

use crate::hist::LatencyHistogram;
use crate::time::{SimDuration, SimTime};

/// Tail latency over a sliding window of virtual time.
///
/// The window is divided into `slots` sub-intervals; each recorded sample
/// lands in the slot of its timestamp, and expired slots are dropped as
/// time advances. Quantile queries read the live slots together.
///
/// A slot stores only its non-zero buckets of the default
/// [`LatencyHistogram`] layout, so its memory follows the few distinct
/// latencies one interval of a lightly loaded machine sees, not the
/// widest interval it ever saw. Quantiles and counts are those of a
/// ring of `LatencyHistogram`s, and the snapshot writes the same
/// non-zero entries.
///
/// # Examples
///
/// ```
/// use rhythm_sim::{SimDuration, SimTime, TailWindow};
///
/// let mut w = TailWindow::new(SimDuration::from_secs(10), 10);
/// w.record(SimTime::from_secs(1), 5.0);
/// w.record(SimTime::from_secs(2), 7.0);
/// assert!(w.quantile(SimTime::from_secs(3), 0.99) >= 5.0);
/// // 20 seconds later both samples have expired.
/// assert_eq!(w.quantile(SimTime::from_secs(23), 0.99), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct TailWindow {
    slot_len: SimDuration,
    slots: Vec<Slot>,
}

/// One sub-interval's samples: a sparse [`LatencyHistogram`].
#[derive(Clone, Debug)]
struct Slot {
    /// Index of the window slot this slot currently holds
    /// (`timestamp / slot_len`); `u64::MAX` marks an empty slot.
    epoch: u64,
    /// The non-zero buckets as `(bucket, count)`, ascending by bucket.
    buckets: Vec<(usize, u64)>,
    total: u64,
    /// Sum of the recorded values, added in record order.
    sum: f64,
    max: f64,
}

impl Slot {
    const EMPTY: Slot = Slot {
        epoch: u64::MAX,
        buckets: Vec::new(),
        total: 0,
        sum: 0.0,
        max: 0.0,
    };

    /// Empties the slot for interval `epoch`. It keeps its room unless
    /// that is more than twice what the previous interval used, so a
    /// slot never holds on to the widest interval's room, and a steady
    /// load reallocates nothing.
    fn restart(&mut self, epoch: u64) {
        let used = self.buckets.len();
        self.buckets.clear();
        if self.buckets.capacity() > 2 * used {
            self.buckets.shrink_to(used);
        }
        self.epoch = epoch;
        self.total = 0;
        self.sum = 0.0;
        self.max = 0.0;
    }

    /// The highest stored entry whose bucket lies below `bound`.
    fn below(&self, bound: usize) -> Option<(usize, u64)> {
        let k = self.buckets.partition_point(|&(b, _)| b < bound);
        k.checked_sub(1).map(|k| self.buckets[k])
    }
}

impl TailWindow {
    /// Creates a window of length `window` with `slots` sub-intervals.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `window` is zero.
    pub fn new(window: SimDuration, slots: usize) -> Self {
        assert!(slots > 0, "TailWindow needs at least one slot");
        assert!(!window.is_zero(), "TailWindow window must be positive");
        let slot_len = SimDuration::from_nanos((window.as_nanos() / slots as u64).max(1));
        TailWindow {
            slot_len,
            slots: vec![Slot::EMPTY; slots],
        }
    }

    fn epoch_of(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.slot_len.as_nanos()
    }

    /// Records a latency sample observed at time `at`.
    pub fn record(&mut self, at: SimTime, latency_ms: f64) {
        let (bucket, v) = LatencyHistogram::new().locate(latency_ms);
        self.record_located(at, bucket, v);
    }

    /// Records a sample already placed by [`LatencyHistogram::locate`]
    /// on a histogram of the default layout.
    pub fn record_located(&mut self, at: SimTime, bucket: usize, v: f64) {
        debug_assert_eq!(
            (bucket, v.to_bits()),
            {
                let (i, c) = LatencyHistogram::new().locate(v);
                (i, c.to_bits())
            },
            "value located under a different histogram layout"
        );
        let epoch = self.epoch_of(at);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below `slots.len()`, a `usize`"
        )]
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            slot.restart(epoch);
        }
        match slot.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(k) => slot.buckets[k].1 += 1,
            Err(k) => slot.buckets.insert(k, (bucket, 1)),
        }
        slot.total += 1;
        slot.sum += v;
        slot.max = slot.max.max(v);
    }

    /// The slots holding samples inside the window ending at `now`.
    fn live(&self, now: SimTime) -> impl Iterator<Item = &Slot> + Clone {
        let current = self.epoch_of(now);
        let n = self.slots.len() as u64;
        self.slots
            .iter()
            .filter(move |s| s.epoch != u64::MAX && current.saturating_sub(s.epoch) < n)
    }

    /// The p-quantile over samples whose slots are still inside the window
    /// ending at `now`. Returns 0 if the window is empty. Reads the live
    /// slots in place, top-down over the union of their buckets; no
    /// merged histogram is built.
    pub fn quantile(&self, now: SimTime, p: f64) -> f64 {
        let live = self.live(now);
        let total = live.clone().map(|s| s.total).sum();
        if total == 0 {
            return 0.0;
        }
        let max = live.clone().fold(0.0f64, |m, s| m.max(s.max));
        let mut bound = usize::MAX;
        let desc = std::iter::from_fn(|| {
            let top = live
                .clone()
                .filter_map(|s| s.below(bound))
                .map(|e| e.0)
                .max()?;
            let count = live
                .clone()
                .filter_map(|s| s.below(bound))
                .filter(|e| e.0 == top)
                .map(|e| e.1)
                .sum();
            bound = top;
            Some((top, count))
        });
        LatencyHistogram::new().quantile_desc(total, max, p, desc)
    }

    /// Number of live samples in the window ending at `now`.
    pub fn count(&self, now: SimTime) -> u64 {
        self.live(now).map(|s| s.total).sum()
    }

    /// `(bucket, count)` entries held in memory across all slots (the
    /// allocated capacity), for footprint accounting.
    pub fn bucket_capacity(&self) -> usize {
        self.slots.iter().map(|s| s.buckets.capacity()).sum()
    }

    /// Drops all samples and their storage.
    pub fn reset(&mut self) {
        self.slots.fill(Slot::EMPTY);
    }

    /// The slot length and each slot as the interval it holds (`None`
    /// when empty) and its samples as a histogram of the default
    /// layout, in ring order.
    pub fn slot_histograms(
        &self,
    ) -> (
        SimDuration,
        impl Iterator<Item = (Option<u64>, LatencyHistogram)> + '_,
    ) {
        let slots = self.slots.iter().map(|s| {
            let hist =
                LatencyHistogram::from_parts(s.buckets.iter().copied(), s.total, s.sum, s.max);
            ((s.epoch != u64::MAX).then_some(s.epoch), hist)
        });
        (self.slot_len, slots)
    }
}

impl rhythm_snapshot::Snapshot for TailWindow {
    /// The slot length and slot count, then per slot a varint of its
    /// interval plus one (0 for an empty slot, which ends there), and
    /// for a live slot its entries: their count, each bucket as the gap
    /// above the previous one (the first from 0) and its count, all
    /// varints, then the sum and maximum as bit patterns.
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        self.slot_len.encode(w);
        w.varint(self.slots.len() as u64);
        for slot in &self.slots {
            w.varint(slot.epoch.wrapping_add(1));
            if slot.epoch == u64::MAX {
                continue;
            }
            w.varint(slot.buckets.len() as u64);
            let mut prev = 0;
            for &(bucket, count) in &slot.buckets {
                w.varint((bucket - prev) as u64);
                w.varint(count);
                prev = bucket;
            }
            w.f64(slot.sum);
            w.f64(slot.max);
        }
    }

    /// Refuses what `encode` never writes: a zero slot length or slot
    /// count, an interval outside its ring slot, a live slot without
    /// entries, an entry with count 0, a bucket at or below the
    /// previous one or past the highest reachable bucket, counts that
    /// overflow, and a maximum that is not positive and finite.
    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let corrupt = |msg: &str| Err(rhythm_snapshot::SnapshotError::Corrupt(msg.into()));
        let slot_len = SimDuration::decode(r)?;
        if slot_len.is_zero() {
            return corrupt("tail window slot length must be positive");
        }
        let n = r.varint_len(1)?;
        if n == 0 {
            return corrupt("tail window needs at least one slot");
        }
        let limit = LatencyHistogram::bucket_limit();
        let mut slots = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let Some(epoch) = r.varint()?.checked_sub(1) else {
                slots.push(Slot::EMPTY);
                continue;
            };
            if epoch % n as u64 != i {
                return corrupt("tail window interval held in another interval's slot");
            }
            let entries = r.varint_len(2)?;
            if entries == 0 {
                return corrupt("live tail window slot without samples");
            }
            let mut buckets = Vec::with_capacity(entries);
            let mut total = 0u64;
            for k in 0..entries {
                let gap: usize = r.varint_as("tail window bucket gap")?;
                let count = r.varint()?;
                if k > 0 && gap == 0 {
                    return corrupt("tail window buckets repeat or descend");
                }
                let bucket = buckets.last().map_or(0, |&(b, _)| b) + gap.min(limit);
                if bucket >= limit {
                    return corrupt("tail window bucket beyond the highest reachable one");
                }
                if count == 0 {
                    return corrupt("tail window entry with no samples");
                }
                let Some(t) = total.checked_add(count) else {
                    return corrupt("tail window counts overflow");
                };
                total = t;
                buckets.push((bucket, count));
            }
            let sum = r.f64()?;
            let max = r.f64()?;
            if !(max.is_finite() && max > 0.0) {
                return corrupt("tail window slot maximum does not match its samples");
            }
            slots.push(Slot {
                epoch,
                buckets,
                total,
                sum,
                max,
            });
        }
        Ok(TailWindow { slot_len, slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn recent_samples_visible() {
        let mut w = TailWindow::new(SimDuration::from_secs(10), 5);
        w.record(secs(1), 10.0);
        w.record(secs(2), 20.0);
        w.record(secs(3), 30.0);
        let q = w.quantile(secs(4), 1.0);
        assert!((q - 30.0).abs() / 30.0 < 0.02, "q={q}");
        assert_eq!(w.count(secs(4)), 3);
    }

    #[test]
    fn old_samples_expire() {
        let mut w = TailWindow::new(SimDuration::from_secs(10), 5);
        w.record(secs(0), 100.0);
        assert!(w.quantile(secs(5), 0.99) > 0.0);
        assert_eq!(w.quantile(secs(30), 0.99), 0.0);
        assert_eq!(w.count(secs(30)), 0);
    }

    #[test]
    fn slot_reuse_overwrites_stale_epoch() {
        let mut w = TailWindow::new(SimDuration::from_secs(10), 5);
        w.record(secs(1), 5.0);
        // 10+ window lengths later, same ring index, different epoch.
        w.record(secs(101), 50.0);
        let q = w.quantile(secs(102), 1.0);
        assert!((q - 50.0).abs() / 50.0 < 0.02, "q={q}");
        assert_eq!(w.count(secs(102)), 1);
    }

    #[test]
    fn rolling_window_tracks_shift() {
        let mut w = TailWindow::new(SimDuration::from_secs(4), 4);
        for t in 0..4 {
            w.record(secs(t), 1.0);
        }
        let low = w.quantile(secs(3), 0.99);
        assert!(low < 2.0);
        for t in 4..8 {
            w.record(secs(t), 100.0);
        }
        let high = w.quantile(secs(8), 0.99);
        assert!(high > 50.0, "high={high}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut w = TailWindow::new(SimDuration::from_secs(10), 5);
        w.record(secs(1), 5.0);
        w.reset();
        assert_eq!(w.count(secs(1)), 0);
        assert_eq!(w.quantile(secs(1), 0.5), 0.0);
    }

    #[test]
    fn snapshot_round_trip_keeps_live_samples() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut w = TailWindow::new(SimDuration::from_secs(10), 5);
        w.record(secs(1), 10.0);
        w.record(secs(4), 30.0);
        let mut buf = Writer::new();
        w.encode(&mut buf);
        let bytes = buf.into_bytes();
        let r = TailWindow::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(r.count(secs(5)), w.count(secs(5)));
        assert_eq!(
            r.quantile(secs(5), 0.99).to_bits(),
            w.quantile(secs(5), 0.99).to_bits()
        );
        let mut buf2 = Writer::new();
        r.encode(&mut buf2);
        assert_eq!(buf2.into_bytes(), bytes);
    }

    /// A window of `n` one-second slots whose slot `i` is written by
    /// `slot(i, w)`.
    fn window_bytes(n: u64, slot: impl Fn(u64, &mut rhythm_snapshot::Writer)) -> Vec<u8> {
        use rhythm_snapshot::Snapshot;
        let mut w = rhythm_snapshot::Writer::new();
        SimDuration::from_secs(1).encode(&mut w);
        w.varint(n);
        for i in 0..n {
            slot(i, &mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn decode_rejects_slots_encode_never_writes() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let live = |epoch: u64, entries: &[(u64, u64)], max: f64| {
            let entries = entries.to_vec();
            move |i: u64, w: &mut Writer| {
                if i != 0 {
                    w.varint(0);
                    return;
                }
                w.varint(epoch + 1);
                w.varint(entries.len() as u64);
                for &(gap, count) in &entries {
                    w.varint(gap);
                    w.varint(count);
                }
                w.f64(1.0);
                w.f64(max);
            }
        };
        let decode = |bytes: Vec<u8>| TailWindow::decode(&mut Reader::new(&bytes));
        let ok = decode(window_bytes(2, live(4, &[(0, 1), (3, 2)], 1.0))).unwrap();
        assert_eq!(ok.slots[0].buckets, [(0, 1), (3, 2)]);
        assert_eq!(ok.slots[0].total, 3);
        let limit = LatencyHistogram::bucket_limit() as u64;
        let rejected = [
            ("no slots", window_bytes(0, |_, _| {})),
            (
                "interval in the wrong slot",
                window_bytes(2, live(3, &[(0, 1)], 1.0)),
            ),
            (
                "a live slot without entries",
                window_bytes(2, live(4, &[], 1.0)),
            ),
            (
                "a repeated bucket",
                window_bytes(2, live(4, &[(5, 1), (0, 1)], 1.0)),
            ),
            ("an empty entry", window_bytes(2, live(4, &[(5, 0)], 1.0))),
            (
                "a bucket past the last",
                window_bytes(2, live(4, &[(limit, 1)], 1.0)),
            ),
            (
                "a gap past every bucket",
                window_bytes(2, live(4, &[(1, 1), (u64::MAX, 1)], 1.0)),
            ),
            (
                "overflowing counts",
                window_bytes(2, live(4, &[(0, u64::MAX), (1, 1)], 1.0)),
            ),
            ("a zero maximum", window_bytes(2, live(4, &[(0, 1)], 0.0))),
            (
                "a NaN maximum",
                window_bytes(2, live(4, &[(0, 1)], f64::NAN)),
            ),
        ];
        for (what, bytes) in rejected {
            match decode(bytes) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        TailWindow::new(SimDuration::from_secs(1), 0);
    }
}
