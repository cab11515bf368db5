//! Streaming statistics used by the contribution analyzer.
//!
//! The analyzer (paper §3.4) needs, per Servpod and per load level: the
//! mean sojourn time, its standard deviation (for the normalized
//! coefficient of variation, Equation 3) and the Pearson correlation
//! between per-load mean sojourn times and the tail latency (Equation 2).

/// Numerically stable online mean/variance accumulator (Welford).
///
/// # Examples
///
/// ```
/// use rhythm_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True if no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n; 0 if fewer than 2 samples).
    pub fn population_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by n-1; 0 if fewer than 2 samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation: `std_dev / mean` (0 if the mean is 0).
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Standard error of the mean: `sqrt(sample_variance / n)`.
    ///
    /// This is the `sqrt(1/(m(m-1)) * sum (x - mean)^2)` term of the
    /// paper's Equation 3.
    pub fn std_error(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl rhythm_snapshot::Snapshot for OnlineStats {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u64(self.n);
        w.f64(self.mean);
        w.f64(self.m2);
        w.f64(self.min);
        w.f64(self.max);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(OnlineStats {
            n: r.u64()?,
            mean: r.f64()?,
            m2: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
        })
    }
}

/// Pearson correlation coefficient between two equal-length series
/// (the paper's Equation 2).
///
/// Returns 0 when either series is constant or the series are shorter
/// than 2 elements.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// The exact p-quantile of a sample by sorting (nearest-rank method).
///
/// Returns 0 for an empty slice. `p` is clamped to `[0, 1]`.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 1.0);
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.5, 3.0, 4.5, 10.0, -2.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -2.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.cov(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.mean(), a.mean());
    }

    #[test]
    fn cov_is_relative_dispersion() {
        let mut tight = OnlineStats::new();
        let mut wide = OnlineStats::new();
        for i in 0..100 {
            tight.push(100.0 + (i % 2) as f64);
            wide.push(100.0 + (i % 2) as f64 * 50.0);
        }
        assert!(wide.cov() > tight.cov());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        let xs = [5.0, 5.0, 5.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
        assert_eq!(pearson(&ys, &xs), 0.0);
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        // Alternating independent pattern.
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let ys: Vec<f64> = (0..1000).map(|i| ((i * 104729) % 1000) as f64).collect();
        assert!(pearson(&xs, &ys).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pearson_length_mismatch_panics() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn quantile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}
