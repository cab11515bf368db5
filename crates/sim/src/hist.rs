//! Log-bucketed latency histogram.
//!
//! SLAs in the paper are defined over the 99th-percentile latency; tracking
//! that online over millions of simulated requests needs a compact sketch
//! rather than a sorted vector. This histogram uses geometrically sized
//! buckets with a configurable relative error (default 1%), the same idea
//! as HdrHistogram's log-linear layout but simplified to pure log spacing.
//!
//! Only the occupied bucket range is stored: latencies of a service span a
//! few hundred buckets far above bucket 0, so an idle engine's histograms
//! stay small. The wire format writes that range and nothing else, as
//! varints (see the [`Snapshot`](rhythm_snapshot::Snapshot) impl).

/// Default relative error of quantile estimates.
const DEFAULT_GAMMA_ERR: f64 = 0.01;

/// A latency histogram over positive values with bounded relative error.
///
/// Values are recorded in milliseconds by convention, though any positive
/// unit works. Values below `min_value` are clamped into the first bucket.
///
/// # Examples
///
/// ```
/// use rhythm_sim::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64);
/// }
/// let p99 = h.quantile(0.99);
/// assert!((p99 - 990.0).abs() / 990.0 < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    /// `log(gamma)` where `gamma = (1 + err) / (1 - err)`.
    log_gamma: f64,
    /// Smallest distinguishable value; everything below lands in bucket 0.
    min_value: f64,
    /// Index of the first stored bucket; 0 while nothing is stored.
    lo: usize,
    /// Counts of buckets `lo..lo + counts.len()`, where bucket `i` holds
    /// values up to `min_value · gamma^i`. Every bucket outside that range
    /// is zero, and the first and last stored buckets are non-zero.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates a histogram with 1% relative error and 1 µs (0.001 ms)
    /// minimum value.
    pub fn new() -> Self {
        Self::with_error(DEFAULT_GAMMA_ERR, 1e-3)
    }

    /// Creates a histogram with the given relative error (`0 < err < 1`)
    /// and minimum distinguishable value (`> 0`).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are out of range.
    pub fn with_error(err: f64, min_value: f64) -> Self {
        assert!(err > 0.0 && err < 1.0, "relative error must be in (0,1)");
        assert!(min_value > 0.0, "min_value must be positive");
        let gamma = (1.0 + err) / (1.0 - err);
        LatencyHistogram {
            log_gamma: gamma.ln(),
            min_value,
            lo: 0,
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "past the early return the log ratio is positive and finite; the cast saturates"
    )]
    fn bucket_index(&self, value: f64) -> usize {
        if value <= self.min_value {
            return 0;
        }
        let ratio = value / self.min_value;
        // Past `f64::MAX · min_value` the ratio overflows to ∞, whose
        // bucket would be `usize::MAX`; the difference of logarithms
        // stays finite there. No latency comes near, so every bucket a
        // run can reach is computed exactly as before.
        let log_ratio = if ratio.is_finite() {
            ratio.ln()
        } else {
            value.ln() - self.min_value.ln()
        };
        (log_ratio / self.log_gamma).ceil() as usize
    }

    /// The representative (upper-bound) value of bucket `i`.
    fn bucket_value(&self, i: usize) -> f64 {
        if i == 0 {
            return self.min_value;
        }
        self.min_value * (self.log_gamma * i as f64).exp()
    }

    /// One past the highest stored bucket (0 if nothing is stored).
    fn end(&self) -> usize {
        self.lo + self.counts.len()
    }

    /// Widens the stored range to cover buckets `from..to` (`from < to`).
    fn cover(&mut self, from: usize, to: usize) {
        if self.counts.is_empty() {
            self.lo = from;
            self.counts.resize(to - from, 0);
            return;
        }
        if from < self.lo {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.lo - from));
            self.lo = from;
        }
        if to > self.end() {
            self.counts.resize(to - self.lo, 0);
        }
    }

    /// Records one observation. Non-finite and non-positive values are
    /// clamped into the smallest bucket.
    pub fn record(&mut self, value: f64) {
        let (idx, v) = self.locate(value);
        self.record_located(idx, v);
    }

    /// Where `value` lands: its bucket index, and the value as recorded
    /// (non-finite and non-positive values become `min_value`). One
    /// `locate` serves every histogram of the same layout, so a value
    /// fed to several sketches pays for one logarithm.
    #[inline]
    pub fn locate(&self, value: f64) -> (usize, f64) {
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            self.min_value
        };
        (self.bucket_index(v), v)
    }

    /// Records a value `locate` placed in bucket `idx`, on a histogram of
    /// this layout (debug builds check the bucket against this layout).
    #[inline]
    pub fn record_located(&mut self, idx: usize, v: f64) {
        debug_assert_eq!(
            (idx, v.to_bits()),
            {
                let (i, c) = self.locate(v);
                (i, c.to_bits())
            },
            "value located under a different histogram layout"
        );
        // Below `lo` the offset wraps, so one compare covers both edges.
        match self.counts.get_mut(idx.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => {
                self.cover(idx, idx + 1);
                self.counts[idx - self.lo] += 1;
            }
        }
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Exact maximum recorded value (0 if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Bucket counters held in memory (the allocated capacity), for
    /// footprint accounting.
    pub fn bucket_capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// One past the highest bucket any value reaches in the default
    /// layout (`f64::MAX` lands in the last one). Decoders refuse
    /// buckets at or above it.
    pub(crate) fn bucket_limit() -> usize {
        let h = LatencyHistogram::new();
        h.bucket_index(f64::MAX) + 1
    }

    /// The non-zero buckets as `(bucket, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl DoubleEndedIterator<Item = (usize, u64)> + '_ {
        (self.lo..self.end())
            .zip(self.counts.iter().copied())
            .filter(|&(_, c)| c != 0)
    }

    /// A histogram of the default layout holding the non-zero `buckets`
    /// (ascending `(bucket, count)`) and the given total, sum and
    /// maximum.
    pub(crate) fn from_parts(
        buckets: impl Iterator<Item = (usize, u64)>,
        total: u64,
        sum: f64,
        max: f64,
    ) -> Self {
        let mut h = LatencyHistogram::new();
        for (i, c) in buckets {
            h.cover(i, i + 1);
            h.counts[i - h.lo] = c;
        }
        h.total = total;
        h.sum = sum;
        h.max = max;
        h
    }

    /// The p-quantile with bounded relative error (0 if empty).
    pub fn quantile(&self, p: f64) -> f64 {
        self.quantile_desc(self.total, self.max, p, self.nonzero_buckets().rev())
    }

    /// The p-quantile of `total` samples of this layout with maximum
    /// `max`, whose bucket counts `desc` yields as `(bucket, count)` in
    /// descending bucket order; a bucket may repeat, so several
    /// histograms can be read as their union without merging them (0 if
    /// `total` is 0).
    ///
    /// The answer is the lowest bucket whose prefix count reaches the
    /// rank, which is also the highest bucket whose suffix count exceeds
    /// `total − rank`. The scan runs top-down on the second form: for a
    /// high quantile it stops within the first few occupied buckets.
    pub(crate) fn quantile_desc(
        &self,
        total: u64,
        max: f64,
        p: f64,
        desc: impl Iterator<Item = (usize, u64)>,
    ) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the nearest rank is a whole number in [0, total], then clamped"
        )]
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let above = total - rank;
        let mut suffix = 0u64;
        for (i, c) in desc {
            suffix += c;
            if suffix > above {
                return self.bucket_value(i).min(max);
            }
        }
        max
    }

    /// The 99th percentile (the paper's default tail).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges another histogram with identical parameters into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms were built with different parameters.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert!(
            (self.log_gamma - other.log_gamma).abs() < 1e-12 && self.min_value == other.min_value,
            "cannot merge histograms with different layouts"
        );
        if !other.counts.is_empty() {
            self.cover(other.lo, other.end());
            let at = other.lo - self.lo;
            for (c, &o) in self.counts[at..].iter_mut().zip(&other.counts) {
                *c += o;
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded observations, keeping the layout.
    pub fn reset(&mut self) {
        self.lo = 0;
        self.counts.clear();
        self.total = 0;
        self.sum = 0.0;
        self.max = 0.0;
    }
}

impl rhythm_snapshot::Snapshot for LatencyHistogram {
    /// The layout, then the stored range as varints — `lo`, the number
    /// of stored buckets and each stored count — then the total as a
    /// varint and the sum and maximum as bit patterns.
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.f64(self.log_gamma);
        w.f64(self.min_value);
        w.varint(self.lo as u64);
        w.varint(self.counts.len() as u64);
        for &c in &self.counts {
            w.varint(c);
        }
        w.varint(self.total);
        w.f64(self.sum);
        w.f64(self.max);
    }

    /// Accepts only what `encode` writes for a histogram built by
    /// [`LatencyHistogram::new`]: its exact layout, a stored range that
    /// starts at 0 when empty, ends below the highest reachable bucket
    /// and has non-zero first and last counts, counts summing to the
    /// total, and a maximum that is positive and finite (exactly 0 when
    /// empty). Anything else is `Corrupt`, so a restored histogram never
    /// panics later in `record` or `merge`.
    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let corrupt = |msg: &str| Err(rhythm_snapshot::SnapshotError::Corrupt(msg.into()));
        let log_gamma = r.f64()?;
        let min_value = r.f64()?;
        let mut h = LatencyHistogram::new();
        if log_gamma.to_bits() != h.log_gamma.to_bits()
            || min_value.to_bits() != h.min_value.to_bits()
        {
            return corrupt("histogram layout differs from LatencyHistogram::new()");
        }
        let lo: usize = r.varint_as("histogram first bucket")?;
        let n = r.varint_len(1)?;
        if lo.saturating_add(n) > LatencyHistogram::bucket_limit() {
            return corrupt("histogram bucket beyond the highest reachable one");
        }
        if n == 0 && lo != 0 {
            return corrupt("empty histogram with a first bucket");
        }
        let mut counts = Vec::with_capacity(n);
        let mut bucket_sum = 0u64;
        for _ in 0..n {
            let c = r.varint()?;
            counts.push(c);
            let Some(s) = bucket_sum.checked_add(c) else {
                return corrupt("histogram bucket counts overflow");
            };
            bucket_sum = s;
        }
        let total = r.varint()?;
        let sum = r.f64()?;
        let max = r.f64()?;
        if bucket_sum != total {
            return corrupt("histogram bucket counts do not sum to total");
        }
        if counts.first() == Some(&0) || counts.last() == Some(&0) {
            return corrupt("histogram stored range starts or ends in an empty bucket");
        }
        let max_ok = if total == 0 {
            max.to_bits() == 0
        } else {
            max.is_finite() && max > 0.0
        };
        if !max_ok {
            return corrupt("histogram maximum does not match its samples");
        }
        h.lo = lo;
        h.counts = counts;
        h.total = total;
        h.sum = sum;
        h.max = max;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 0.37);
        }
        let mut w = Writer::new();
        h.encode(&mut w);
        let bytes = w.into_bytes();
        let g = LatencyHistogram::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(g.count(), h.count());
        assert_eq!(g.sum().to_bits(), h.sum().to_bits());
        assert_eq!(g.max().to_bits(), h.max().to_bits());
        assert_eq!(g.quantile(0.99).to_bits(), h.quantile(0.99).to_bits());
        let mut w2 = Writer::new();
        g.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    /// A histogram snapshot assembled field by field: layout, the
    /// stored range (`lo`, then its counts), total, sum and max.
    fn histogram_bytes(
        log_gamma: f64,
        min_value: f64,
        lo: u64,
        buckets: &[u64],
        total: u64,
        max: f64,
    ) -> Vec<u8> {
        let mut w = rhythm_snapshot::Writer::new();
        w.f64(log_gamma);
        w.f64(min_value);
        w.varint(lo);
        w.varint(buckets.len() as u64);
        for &c in buckets {
            w.varint(c);
        }
        w.varint(total);
        w.f64(max * total as f64);
        w.f64(max);
        w.into_bytes()
    }

    #[test]
    fn decode_rejects_layouts_and_shapes_encode_never_writes() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError};
        let new = LatencyHistogram::new();
        let (lg, mv) = (new.log_gamma, new.min_value);
        let decode = |bytes: &[u8]| LatencyHistogram::decode(&mut Reader::new(bytes));

        // What `encode` writes decodes.
        let ok = decode(&histogram_bytes(lg, mv, 3, &[2, 0, 1], 3, 5.0)).unwrap();
        assert_eq!((ok.lo, ok.counts.as_slice()), (3, &[2, 0, 1][..]));
        assert!(decode(&histogram_bytes(lg, mv, 0, &[], 0, 0.0)).is_ok());
        let limit = LatencyHistogram::bucket_limit() as u64;
        assert!(decode(&histogram_bytes(lg, mv, limit - 1, &[1], 1, 1.0)).is_ok());

        let rejected = [
            ("log_gamma 0", histogram_bytes(0.0, mv, 0, &[1], 1, 1.0)),
            (
                "log_gamma NaN",
                histogram_bytes(f64::NAN, mv, 0, &[1], 1, 1.0),
            ),
            (
                "another error bound",
                histogram_bytes(
                    LatencyHistogram::with_error(0.05, 1e-3).log_gamma,
                    mv,
                    0,
                    &[1],
                    1,
                    1.0,
                ),
            ),
            ("min_value 0", histogram_bytes(lg, 0.0, 0, &[1], 1, 1.0)),
            (
                "min_value negative",
                histogram_bytes(lg, -1e-3, 0, &[1], 1, 1.0),
            ),
            (
                "another min_value",
                histogram_bytes(lg, 1.0, 0, &[1], 1, 1.0),
            ),
            (
                "buckets without samples",
                histogram_bytes(lg, mv, 0, &[0, 0], 0, 0.0),
            ),
            (
                "samples without buckets",
                histogram_bytes(lg, mv, 0, &[], 2, 1.0),
            ),
            (
                "an empty range that starts above 0",
                histogram_bytes(lg, mv, 4, &[], 0, 0.0),
            ),
            (
                "leading empty bucket",
                histogram_bytes(lg, mv, 2, &[0, 1], 1, 1.0),
            ),
            (
                "trailing empty bucket",
                histogram_bytes(lg, mv, 1, &[1, 0], 1, 1.0),
            ),
            (
                "a bucket past the last reachable one",
                histogram_bytes(lg, mv, limit, &[1], 1, 1.0),
            ),
            (
                "a range whose end overflows",
                histogram_bytes(lg, mv, u64::MAX, &[1], 1, 1.0),
            ),
            (
                "counts off the total",
                histogram_bytes(lg, mv, 0, &[1, 1], 3, 1.0),
            ),
            (
                "counts overflow",
                histogram_bytes(lg, mv, 0, &[u64::MAX, 2], 1, 1.0),
            ),
            ("NaN max", histogram_bytes(lg, mv, 0, &[1], 1, f64::NAN)),
            (
                "max of an empty histogram",
                histogram_bytes(lg, mv, 0, &[], 0, 4.0),
            ),
        ];
        for (what, bytes) in rejected {
            match decode(&bytes) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// The stored range costs one varint per bucket, however far above
    /// bucket 0 it sits.
    #[test]
    fn encoding_holds_only_the_stored_range() {
        use rhythm_snapshot::{Snapshot, Writer};
        let mut h = LatencyHistogram::new();
        h.record(250.0);
        h.record(260.0);
        let mut w = Writer::new();
        h.encode(&mut w);
        // Layout, lo (2 bytes), length, 3 counts, total, sum, max.
        assert!(h.lo > 500);
        assert_eq!(h.counts.len(), 3);
        assert_eq!(w.len(), 16 + 2 + 1 + 3 + 1 + 16);
    }

    #[test]
    fn stored_range_grows_both_ways() {
        let mut h = LatencyHistogram::new();
        h.record(100.0);
        let top = h.lo;
        assert_eq!(h.counts, [1]);
        h.record(1.0);
        assert!(h.lo < top);
        assert_eq!(h.lo + h.counts.len(), top + 1);
        assert_eq!((h.counts[0], h.counts[h.counts.len() - 1]), (1, 1));
        h.reset();
        assert_eq!((h.lo, h.counts.len()), (0, 0));
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        let xs: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.1).collect();
        for &x in &xs {
            h.record(x);
        }
        for &p in &[0.5, 0.9, 0.99, 0.999] {
            let exact = crate::stats::quantile(&xs, p);
            let approx = h.quantile(p);
            assert!(
                (approx - exact).abs() / exact < 0.025,
                "p={p} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(42.0);
        assert_eq!(h.count(), 1);
        assert!((h.quantile(0.5) - 42.0).abs() / 42.0 < 0.02);
        assert_eq!(h.max(), 42.0);
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn clamps_bad_values() {
        let mut h = LatencyHistogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(0.0);
        assert_eq!(h.count(), 4);
        assert!(h.quantile(1.0) <= 1e-3 + 1e-12);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = LatencyHistogram::new();
        for x in [1.0, 2.0, 1000.0] {
            h.record(x);
        }
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn merge_matches_combined() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 1..=500 {
            a.record(i as f64);
            all.record(i as f64);
        }
        for i in 500..=1000 {
            b.record(i as f64 * 2.0);
            all.record(i as f64 * 2.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
        assert_eq!(a.max(), all.max());
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn merge_layout_mismatch_panics() {
        let mut a = LatencyHistogram::with_error(0.01, 1e-3);
        let b = LatencyHistogram::with_error(0.05, 1e-3);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn merge_min_value_mismatch_panics() {
        let mut a = LatencyHistogram::with_error(0.01, 1e-3);
        let b = LatencyHistogram::with_error(0.01, 1.0);
        a.merge(&b);
    }

    #[test]
    fn clamps_below_min_value() {
        let mut h = LatencyHistogram::with_error(0.01, 1e-3);
        h.record(1e-9);
        h.record(5e-4);
        assert_eq!(h.count(), 2);
        // Both land in bucket 0: indistinguishable, reported at or below
        // min_value (the quantile is capped by the true max).
        assert!(h.quantile(1.0) <= 1e-3 + 1e-12);
        assert_eq!(h.max(), 5e-4);
    }

    #[test]
    fn quantile_p_is_clamped() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
    }

    #[test]
    fn reset_clears() {
        let mut h = LatencyHistogram::new();
        h.record(10.0);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0.0);
        h.record(3.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn p99_tracks_tail_shift() {
        let mut h = LatencyHistogram::new();
        for _ in 0..990 {
            h.record(1.0);
        }
        let before = h.p99();
        for _ in 0..20 {
            h.record(100.0);
        }
        assert!(h.p99() > before * 50.0);
    }
}
