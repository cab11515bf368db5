//! Log-bucketed latency histogram.
//!
//! SLAs in the paper are defined over the 99th-percentile latency; tracking
//! that online over millions of simulated requests needs a compact sketch
//! rather than a sorted vector. This histogram uses geometrically sized
//! buckets with a configurable relative error (default 1%), the same idea
//! as HdrHistogram's log-linear layout but simplified to pure log spacing.

use serde::Serialize;

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
#[derive(Clone, Debug, Serialize)]
pub struct LatencyHistogram {
    /// `log(gamma)` where `gamma = (1 + err) / (1 - err)`.
    log_gamma: f64,
    /// Smallest distinguishable value; everything below lands in bucket 0.
    min_value: f64,
    /// Bucket counts, indexed by `ceil(log(v / min_value) / log_gamma)`.
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
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    fn bucket_index(&self, value: f64) -> usize {
        if value <= self.min_value {
            return 0;
        }
        ((value / self.min_value).ln() / self.log_gamma).ceil() as usize
    }

    /// The representative (upper-bound) value of bucket `i`.
    fn bucket_value(&self, i: usize) -> f64 {
        if i == 0 {
            return self.min_value;
        }
        self.min_value * (self.log_gamma * i as f64).exp()
    }

    /// Records one observation. Non-finite and non-positive values are
    /// clamped into the smallest bucket.
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            self.min_value
        };
        let idx = self.bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
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

    /// The p-quantile with bounded relative error (0 if empty).
    pub fn quantile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_value(i).min(self.max);
            }
        }
        self.max
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
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded observations, keeping the layout.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0.0;
        self.max = 0.0;
    }
}

impl rhythm_snapshot::Snapshot for LatencyHistogram {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.f64(self.log_gamma);
        w.f64(self.min_value);
        w.u64(self.counts.len() as u64);
        for &c in &self.counts {
            w.u64(c);
        }
        w.u64(self.total);
        w.f64(self.sum);
        w.f64(self.max);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let log_gamma = r.f64()?;
        let min_value = r.f64()?;
        let n = r.len(8)?;
        let mut counts = Vec::with_capacity(n);
        for _ in 0..n {
            counts.push(r.u64()?);
        }
        let total = r.u64()?;
        let sum = r.f64()?;
        let max = r.f64()?;
        if counts.iter().sum::<u64>() != total {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(
                "histogram bucket counts do not sum to total".into(),
            ));
        }
        Ok(LatencyHistogram {
            log_gamma,
            min_value,
            counts,
            total,
            sum,
            max,
        })
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
