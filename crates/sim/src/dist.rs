//! Sampling distributions for workload models.
//!
//! The component service-time models (paper §2, §5.1) need heavier-than-
//! exponential tails to reproduce the 99th-percentile behaviour the paper
//! reports, so besides the exponential we provide log-normal, gamma,
//! Pareto (bounded) and deterministic/uniform distributions, all sampled
//! from a [`SimRng`] stream.

use crate::rng::SimRng;

/// A parametric sampling distribution over non-negative reals.
///
/// All parameters are in the caller's unit (the workload models use
/// milliseconds).
///
/// # Examples
///
/// ```
/// use rhythm_sim::{Dist, SimRng};
///
/// let d = Dist::LogNormal { median: 2.0, sigma: 0.5 };
/// let mut rng = SimRng::from_seed(1);
/// let x = d.sample(&mut rng);
/// assert!(x > 0.0);
/// assert!((d.mean() - 2.0 * (0.5f64 * 0.5 / 2.0).exp()).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Always returns `value`.
    Deterministic { value: f64 },
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean.
    Exponential { mean: f64 },
    /// Log-normal parameterized by its median (`exp(mu)`) and shape
    /// `sigma`; heavier-tailed as `sigma` grows.
    LogNormal { median: f64, sigma: f64 },
    /// Gamma with the given `shape` (k) and `scale` (theta); mean is
    /// `k * theta`.
    Gamma { shape: f64, scale: f64 },
    /// Pareto with minimum `scale`, tail index `alpha`, truncated at
    /// `cap` (samples above the cap are clamped, keeping the tail finite).
    BoundedPareto { scale: f64, alpha: f64, cap: f64 },
}

impl Dist {
    /// A zero-variance point mass.
    pub const fn constant(value: f64) -> Dist {
        Dist::Deterministic { value }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Dist::Deterministic { value } => value,
            Dist::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            Dist::Exponential { mean } => {
                // Inverse transform; `1 - u` avoids ln(0).
                -mean * (1.0 - rng.uniform()).ln()
            }
            Dist::LogNormal { median, sigma } => median * (sigma * rng.standard_normal()).exp(),
            Dist::Gamma { shape, scale } => sample_gamma(rng, shape) * scale,
            Dist::BoundedPareto { scale, alpha, cap } => {
                let u = 1.0 - rng.uniform();
                (scale / u.powf(1.0 / alpha)).min(cap)
            }
        }
    }

    /// The analytic mean of the distribution (the truncated Pareto mean
    /// ignores the cap and is therefore a slight over-estimate).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Deterministic { value } => value,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Exponential { mean } => mean,
            Dist::LogNormal { median, sigma } => median * (sigma * sigma / 2.0).exp(),
            Dist::Gamma { shape, scale } => shape * scale,
            Dist::BoundedPareto { scale, alpha, .. } => {
                if alpha > 1.0 {
                    alpha * scale / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }

    /// Pre-resolves the distribution into a [`ResolvedDist`] whose sample
    /// loop does no parameter derivation (no `1/alpha`, no Marsaglia–Tsang
    /// constants, no enum-wide match in the caller). Sampling a resolved
    /// distribution consumes the same RNG draws and performs the same
    /// float operations as [`Dist::sample`], so the two are bit-identical
    /// on a shared stream — the engine's hot path relies on this.
    pub fn resolved(&self) -> ResolvedDist {
        match *self {
            Dist::Deterministic { value } => ResolvedDist::Constant { value },
            Dist::Uniform { lo, hi } => ResolvedDist::Uniform { lo, span: hi - lo },
            Dist::Exponential { mean } => ResolvedDist::Exponential { mean },
            Dist::LogNormal { median, sigma } => ResolvedDist::LogNormal { median, sigma },
            Dist::Gamma { shape, scale } => {
                if shape < 1.0 {
                    // Boost trick: Gamma(a) = Gamma(a + 1) · U^(1/a).
                    let d = (shape + 1.0) - 1.0 / 3.0;
                    ResolvedDist::GammaBoost {
                        d,
                        c: 1.0 / (9.0 * d).sqrt(),
                        inv_shape: 1.0 / shape,
                        scale,
                    }
                } else {
                    let d = shape - 1.0 / 3.0;
                    ResolvedDist::Gamma {
                        d,
                        c: 1.0 / (9.0 * d).sqrt(),
                        scale,
                    }
                }
            }
            Dist::BoundedPareto { scale, alpha, cap } => ResolvedDist::Pareto {
                scale,
                inv_alpha: 1.0 / alpha,
                cap,
            },
        }
    }

    /// Returns a copy of the distribution scaled so that every sample is
    /// multiplied by `factor` (used to apply interference inflation and
    /// DVFS slow-down to service times).
    pub fn scaled(&self, factor: f64) -> Dist {
        match *self {
            Dist::Deterministic { value } => Dist::Deterministic {
                value: value * factor,
            },
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * factor,
                hi: hi * factor,
            },
            Dist::Exponential { mean } => Dist::Exponential {
                mean: mean * factor,
            },
            Dist::LogNormal { median, sigma } => Dist::LogNormal {
                median: median * factor,
                sigma,
            },
            Dist::Gamma { shape, scale } => Dist::Gamma {
                shape,
                scale: scale * factor,
            },
            Dist::BoundedPareto { scale, alpha, cap } => Dist::BoundedPareto {
                scale: scale * factor,
                alpha,
                cap: cap * factor,
            },
        }
    }
}

/// A [`Dist`] with all derived sampling constants precomputed.
///
/// Built via [`Dist::resolved`]; bit-identical to sampling the source
/// distribution on the same RNG stream.
#[derive(Clone, Copy, Debug)]
pub enum ResolvedDist {
    /// Point mass.
    Constant { value: f64 },
    /// `lo + span · U`.
    Uniform { lo: f64, span: f64 },
    /// Inverse-transform exponential.
    Exponential { mean: f64 },
    /// `median · exp(sigma · Z)`.
    LogNormal { median: f64, sigma: f64 },
    /// Marsaglia–Tsang with precomputed `d = shape − 1/3`,
    /// `c = 1/√(9d)` (shape ≥ 1).
    Gamma { d: f64, c: f64, scale: f64 },
    /// Shape < 1 via the boost trick: `d`/`c` are for `shape + 1`,
    /// the result is multiplied by `U^inv_shape`.
    GammaBoost {
        d: f64,
        c: f64,
        inv_shape: f64,
        scale: f64,
    },
    /// Bounded Pareto with `inv_alpha = 1/alpha`.
    Pareto {
        scale: f64,
        inv_alpha: f64,
        cap: f64,
    },
}

impl ResolvedDist {
    /// Draws one sample. Same stream consumption as [`Dist::sample`].
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            ResolvedDist::Constant { value } => value,
            ResolvedDist::Uniform { lo, span } => lo + span * rng.uniform(),
            ResolvedDist::Exponential { mean } => -mean * (1.0 - rng.uniform()).ln(),
            ResolvedDist::LogNormal { median, sigma } => {
                median * (sigma * rng.standard_normal()).exp()
            }
            ResolvedDist::Gamma { d, c, scale } => marsaglia_tsang(rng, d, c) * scale,
            ResolvedDist::GammaBoost {
                d,
                c,
                inv_shape,
                scale,
            } => {
                let g = marsaglia_tsang(rng, d, c);
                let u = 1.0 - rng.uniform();
                g * u.powf(inv_shape) * scale
            }
            ResolvedDist::Pareto {
                scale,
                inv_alpha,
                cap,
            } => {
                let u = 1.0 - rng.uniform();
                (scale / u.powf(inv_alpha)).min(cap)
            }
        }
    }
}

/// The Marsaglia–Tsang acceptance loop with precomputed constants.
fn marsaglia_tsang(rng: &mut SimRng, d: f64, c: f64) -> f64 {
    loop {
        let x = rng.standard_normal();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = 1.0 - rng.uniform();
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Samples a Gamma(shape, 1) variate.
///
/// Uses Marsaglia–Tsang squeeze for `shape >= 1` and the boost trick
/// `Gamma(a) = Gamma(a + 1) * U^(1/a)` for `shape < 1`.
fn sample_gamma(rng: &mut SimRng, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        let g = sample_gamma(rng, shape + 1.0);
        let u = 1.0 - rng.uniform();
        return g * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.standard_normal();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = 1.0 - rng.uniform();
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Dist::constant(3.5);
        let mut rng = SimRng::from_seed(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::Exponential { mean: 4.0 };
        let m = empirical_mean(d, 100_000, 2);
        assert!((m - 4.0).abs() / 4.0 < 0.02, "m={m}");
    }

    #[test]
    fn lognormal_mean_matches() {
        let d = Dist::LogNormal {
            median: 10.0,
            sigma: 0.6,
        };
        let m = empirical_mean(d, 200_000, 3);
        let expect = d.mean();
        assert!((m - expect).abs() / expect < 0.02, "m={m} expect={expect}");
    }

    #[test]
    fn gamma_mean_matches() {
        for &(shape, scale) in &[(0.5, 2.0), (2.0, 3.0), (9.0, 0.5)] {
            let d = Dist::Gamma { shape, scale };
            let m = empirical_mean(d, 200_000, 4);
            let expect = shape * scale;
            assert!(
                (m - expect).abs() / expect < 0.03,
                "shape={shape} m={m} expect={expect}"
            );
        }
    }

    #[test]
    fn pareto_respects_bounds() {
        let d = Dist::BoundedPareto {
            scale: 1.0,
            alpha: 1.5,
            cap: 50.0,
        };
        let mut rng = SimRng::from_seed(5);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=50.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn uniform_bounds() {
        let d = Dist::Uniform { lo: 2.0, hi: 3.0 };
        let mut rng = SimRng::from_seed(6);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(d.mean(), 2.5);
    }

    #[test]
    fn scaled_scales_samples_and_mean() {
        let base = Dist::LogNormal {
            median: 5.0,
            sigma: 0.4,
        };
        let scaled = base.scaled(2.0);
        assert!((scaled.mean() - 2.0 * base.mean()).abs() < 1e-9);
        // Same RNG stream: the scaled sample is exactly twice the base
        // sample because log-normal scaling is multiplicative.
        let mut r1 = SimRng::from_seed(7);
        let mut r2 = SimRng::from_seed(7);
        assert!((scaled.sample(&mut r1) - 2.0 * base.sample(&mut r2)).abs() < 1e-9);
    }

    #[test]
    fn samples_are_non_negative() {
        let dists = [
            Dist::Exponential { mean: 1.0 },
            Dist::LogNormal {
                median: 1.0,
                sigma: 1.0,
            },
            Dist::Gamma {
                shape: 0.7,
                scale: 1.3,
            },
            Dist::BoundedPareto {
                scale: 0.5,
                alpha: 2.0,
                cap: 100.0,
            },
        ];
        let mut rng = SimRng::from_seed(8);
        for d in dists {
            for _ in 0..10_000 {
                assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }

    #[test]
    fn resolved_is_bit_identical_to_source() {
        let dists = [
            Dist::constant(3.25),
            Dist::Uniform { lo: 1.5, hi: 9.75 },
            Dist::Exponential { mean: 4.2 },
            Dist::LogNormal {
                median: 10.0,
                sigma: 0.55,
            },
            Dist::Gamma {
                shape: 2.5,
                scale: 1.7,
            },
            Dist::Gamma {
                shape: 0.6,
                scale: 3.0,
            },
            Dist::BoundedPareto {
                scale: 1.0,
                alpha: 1.5,
                cap: 50.0,
            },
        ];
        for (i, d) in dists.iter().enumerate() {
            let r = d.resolved();
            let mut rng_a = SimRng::from_seed(100 + i as u64);
            let mut rng_b = SimRng::from_seed(100 + i as u64);
            for draw in 0..5_000 {
                let a = d.sample(&mut rng_a);
                let b = r.sample(&mut rng_b);
                assert_eq!(a.to_bits(), b.to_bits(), "{d:?} draw {draw}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn lognormal_tail_heavier_with_sigma() {
        // Larger sigma should produce a larger 99th percentile relative to
        // the median.
        let sample_p99 = |sigma: f64| {
            let d = Dist::LogNormal { median: 1.0, sigma };
            let mut rng = SimRng::from_seed(9);
            let mut xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
            xs.sort_by(f64::total_cmp);
            xs[xs.len() * 99 / 100]
        };
        assert!(sample_p99(1.0) > sample_p99(0.3));
    }
}
