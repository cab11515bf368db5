//! Load generators: constant load and a ClarkNet-like production trace.
//!
//! The paper evaluates under constant loads of 5-85% of MaxLoad (§5.2) and
//! under a production trace from ClarkNet with clear 24-hour periodicity,
//! scaled from five days down to six hours (§5.3). The original archive
//! trace is not redistributable, so [`LoadGen::clarknet_like`] synthesizes
//! a load curve with the same structure: diurnal periodicity, day-to-day
//! variation, short bursts, and multiplicative noise.

use rhythm_sim::{SimDuration, SimRng, SimTime};

/// A time-varying offered load, expressed as a fraction of the service's
/// maximum load.
#[derive(Clone, Debug)]
pub enum LoadGen {
    /// A fixed fraction of max load.
    Constant {
        /// Offered load fraction in `[0, 1]` (may slightly exceed 1 to
        /// model overload).
        fraction: f64,
    },
    /// A piecewise-constant trace: `samples[i]` applies during interval
    /// `i` of length `interval`; the trace repeats after it ends.
    Trace {
        /// Load fraction per interval.
        samples: Vec<f64>,
        /// Interval length.
        interval: SimDuration,
    },
}

impl LoadGen {
    /// A constant load at `fraction` of max load.
    pub fn constant(fraction: f64) -> Self {
        LoadGen::Constant {
            fraction: fraction.max(0.0),
        }
    }

    /// Synthesizes a ClarkNet-like trace.
    ///
    /// * `days` — number of simulated "days" of periodicity.
    /// * `total` — wall duration the trace is scaled into (the paper
    ///   scales 5 days into 6 hours; any compression works).
    /// * `intervals` — number of piecewise-constant steps.
    /// * `peak` — load fraction at the diurnal peak.
    ///
    /// The curve is `base + amplitude * diurnal(t)` with per-day amplitude
    /// jitter, occasional 2-interval bursts, and 5% multiplicative noise,
    /// clamped to `[0.05, 1.0]`.
    pub fn clarknet_like(
        days: u32,
        total: SimDuration,
        intervals: usize,
        peak: f64,
        seed: u64,
    ) -> Self {
        assert!(days > 0 && intervals > 0, "need at least one day/interval");
        let mut rng = SimRng::from_seed(seed).split("clarknet");
        let peak = peak.clamp(0.1, 1.0);
        let base = 0.25 * peak;
        let mut samples = Vec::with_capacity(intervals);
        // Per-day peak jitter (production days differ by ~±15%).
        let day_jitter: Vec<f64> = (0..days).map(|_| rng.uniform_range(0.85, 1.15)).collect();
        for i in 0..intervals {
            let frac = i as f64 / intervals as f64;
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "frac is in [0, 1): the day is a whole number below `days`"
            )]
            let day = ((frac * f64::from(days)) as usize).min(days as usize - 1);
            let phase = frac * f64::from(days) * std::f64::consts::TAU;
            // Diurnal shape: deep trough at "night", broad daytime peak.
            let diurnal = 0.5 * (1.0 - phase.cos());
            let mut v = base + (peak - base) * diurnal.powf(1.3) * day_jitter[day];
            // Short bursts: ~3% of intervals spike toward the peak.
            if rng.chance(0.03) {
                v = (v + 0.35 * peak).min(peak * 1.05);
            }
            // Multiplicative noise.
            v *= rng.uniform_range(0.95, 1.05);
            samples.push(v.clamp(0.05, 1.0));
        }
        let interval = SimDuration::from_nanos((total.as_nanos() / intervals as u64).max(1));
        LoadGen::Trace { samples, interval }
    }

    /// Synthesizes a clean diurnal sinusoid-plus-noise curve, the
    /// trace shape of the Alibaba characterization studies (arXiv
    /// 1808.02919): load oscillates between `trough` and `peak` with
    /// `days` full cycles over `total`, with multiplicative noise of
    /// relative width `noise` (e.g. 0.05 = ±5%) drawn from the
    /// deterministic sim RNG. Unlike [`LoadGen::clarknet_like`] there
    /// are no bursts and no per-day jitter, so chaos scenarios can
    /// overlay their own anomalies (see
    /// [`LoadGen::with_flash_crowd`]) on a known-smooth baseline.
    pub fn diurnal(
        days: u32,
        total: SimDuration,
        intervals: usize,
        trough: f64,
        peak: f64,
        noise: f64,
        seed: u64,
    ) -> Self {
        assert!(days > 0 && intervals > 0, "need at least one day/interval");
        assert!(trough <= peak, "trough {trough} above peak {peak}");
        let mut rng = SimRng::from_seed(seed).split("diurnal");
        let trough = trough.clamp(0.02, 1.0);
        let peak = peak.clamp(trough, 1.0);
        let noise = noise.clamp(0.0, 0.5);
        let mid = 0.5 * (trough + peak);
        let amp = 0.5 * (peak - trough);
        let mut samples = Vec::with_capacity(intervals);
        for i in 0..intervals {
            let phase = i as f64 / intervals as f64 * f64::from(days) * std::f64::consts::TAU;
            // Trough at t=0 ("night"), peak mid-cycle.
            let mut v = mid - amp * phase.cos();
            v *= rng.uniform_range(1.0 - noise, 1.0 + noise);
            samples.push(v.clamp(0.02, 1.0));
        }
        let interval = SimDuration::from_nanos((total.as_nanos() / intervals as u64).max(1));
        LoadGen::Trace { samples, interval }
    }

    /// Overlays a flash crowd on a trace: a sudden multiplicative
    /// spike of `magnitude` (e.g. 1.8 = +80% traffic) starting at
    /// fraction `start_frac` of the cycle, ramping linearly back to
    /// the underlying curve over `ramp_intervals` steps. Values cap at
    /// [`LoadGen::OVERLOAD_CAP`] — flash crowds are exactly the moments
    /// a service is pushed past its planned capacity. A no-op on
    /// constant load (no cycle to anchor the spike to).
    pub fn with_flash_crowd(
        mut self,
        start_frac: f64,
        magnitude: f64,
        ramp_intervals: usize,
    ) -> LoadGen {
        if let LoadGen::Trace { samples, .. } = &mut self {
            let n = samples.len();
            if n > 0 && magnitude > 1.0 {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "a clamped fraction of `n`: a whole number in [0, n], then clamped"
                )]
                let start = ((start_frac.clamp(0.0, 1.0) * n as f64) as usize).min(n - 1);
                let ramp = ramp_intervals.max(1);
                for k in 0..=ramp {
                    let Some(slot) = samples.get_mut(start + k) else {
                        break;
                    };
                    // Full magnitude at the spike front, back to 1× at
                    // the end of the ramp.
                    let m = 1.0 + (magnitude - 1.0) * (1.0 - k as f64 / ramp as f64);
                    *slot = (*slot * m).min(Self::OVERLOAD_CAP);
                }
            }
        }
        self
    }

    /// The ceiling [`LoadGen::with_flash_crowd`] may push load to:
    /// modest overload past MaxLoad, the regime flash-crowd scenarios
    /// exist to probe.
    pub const OVERLOAD_CAP: f64 = 1.2;

    /// The load fraction at virtual time `t`.
    pub fn fraction_at(&self, t: SimTime) -> f64 {
        match self {
            LoadGen::Constant { fraction } => *fraction,
            LoadGen::Trace { samples, interval } => {
                if samples.is_empty() {
                    return 0.0;
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the remainder is below `samples.len()`, a `usize`"
                )]
                let idx = ((t.as_nanos() / interval.as_nanos()) % samples.len() as u64) as usize;
                samples[idx]
            }
        }
    }

    /// The maximum fraction the generator will ever produce.
    pub fn peak_fraction(&self) -> f64 {
        match self {
            LoadGen::Constant { fraction } => *fraction,
            LoadGen::Trace { samples, .. } => samples.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Mean fraction over one full cycle of the generator.
    pub fn mean_fraction(&self) -> f64 {
        match self {
            LoadGen::Constant { fraction } => *fraction,
            LoadGen::Trace { samples, .. } => {
                if samples.is_empty() {
                    0.0
                } else {
                    samples.iter().sum::<f64>() / samples.len() as f64
                }
            }
        }
    }

    /// Total duration of one trace cycle (`None` for constant load).
    pub fn cycle(&self) -> Option<SimDuration> {
        match self {
            LoadGen::Constant { .. } => None,
            LoadGen::Trace { samples, interval } => Some(SimDuration::from_nanos(
                interval.as_nanos() * samples.len() as u64,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let g = LoadGen::constant(0.6);
        assert_eq!(g.fraction_at(SimTime::ZERO), 0.6);
        assert_eq!(g.fraction_at(SimTime::from_secs(1_000_000)), 0.6);
        assert_eq!(g.peak_fraction(), 0.6);
        assert_eq!(g.mean_fraction(), 0.6);
        assert!(g.cycle().is_none());
    }

    #[test]
    fn constant_clamps_negative() {
        assert_eq!(LoadGen::constant(-1.0).fraction_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn trace_indexes_by_interval() {
        let g = LoadGen::Trace {
            samples: vec![0.1, 0.5, 0.9],
            interval: SimDuration::from_secs(10),
        };
        assert_eq!(g.fraction_at(SimTime::from_secs(0)), 0.1);
        assert_eq!(g.fraction_at(SimTime::from_secs(15)), 0.5);
        assert_eq!(g.fraction_at(SimTime::from_secs(29)), 0.9);
        // Wraps around.
        assert_eq!(g.fraction_at(SimTime::from_secs(30)), 0.1);
        assert_eq!(g.cycle(), Some(SimDuration::from_secs(30)));
    }

    #[test]
    fn clarknet_structure() {
        let total = SimDuration::from_secs(6 * 3600);
        let g = LoadGen::clarknet_like(5, total, 720, 0.9, 42);
        // Bounded.
        if let LoadGen::Trace { ref samples, .. } = g {
            assert_eq!(samples.len(), 720);
            for &s in samples {
                assert!((0.05..=1.0).contains(&s), "s={s}");
            }
        } else {
            panic!("expected trace");
        }
        // Clear dynamic range: peak well above trough.
        assert!(g.peak_fraction() > 0.7);
        let trough = match &g {
            LoadGen::Trace { samples, .. } => samples.iter().copied().fold(1.0, f64::min),
            _ => unreachable!(),
        };
        assert!(trough < 0.35, "trough={trough}");
    }

    #[test]
    fn clarknet_is_deterministic() {
        let total = SimDuration::from_secs(1000);
        let a = LoadGen::clarknet_like(2, total, 100, 0.9, 7);
        let b = LoadGen::clarknet_like(2, total, 100, 0.9, 7);
        assert_eq!(
            a.fraction_at(SimTime::from_secs(123)),
            b.fraction_at(SimTime::from_secs(123))
        );
    }

    #[test]
    fn clarknet_periodicity() {
        // With 5 days in the trace, samples one "day" apart should
        // correlate strongly.
        let total = SimDuration::from_secs(5 * 1000);
        let g = LoadGen::clarknet_like(5, total, 500, 0.9, 11);
        if let LoadGen::Trace { ref samples, .. } = g {
            let day = 100;
            let xs: Vec<f64> = samples[..samples.len() - day].to_vec();
            let ys: Vec<f64> = samples[day..].to_vec();
            let r = rhythm_sim::pearson(&xs, &ys);
            assert!(r > 0.7, "diurnal correlation r={r}");
        }
    }

    #[test]
    fn diurnal_is_deterministic_and_bounded() {
        let total = SimDuration::from_secs(4 * 1000);
        let a = LoadGen::diurnal(4, total, 400, 0.2, 0.9, 0.05, 13);
        let b = LoadGen::diurnal(4, total, 400, 0.2, 0.9, 0.05, 13);
        let (LoadGen::Trace { samples: sa, .. }, LoadGen::Trace { samples: sb, .. }) = (&a, &b)
        else {
            panic!("expected traces");
        };
        assert_eq!(sa, sb);
        for &s in sa {
            assert!((0.02..=1.0).contains(&s), "s={s}");
        }
        // Different seed, different noise realization.
        let c = LoadGen::diurnal(4, total, 400, 0.2, 0.9, 0.05, 14);
        let LoadGen::Trace { samples: sc, .. } = &c else {
            panic!("expected trace");
        };
        assert_ne!(sa, sc);
    }

    #[test]
    fn diurnal_periodicity_and_range() {
        let total = SimDuration::from_secs(4 * 1000);
        let g = LoadGen::diurnal(4, total, 400, 0.2, 0.9, 0.05, 13);
        let LoadGen::Trace { ref samples, .. } = g else {
            panic!("expected trace");
        };
        // Samples one "day" apart correlate strongly.
        let day = 100;
        let xs: Vec<f64> = samples[..samples.len() - day].to_vec();
        let ys: Vec<f64> = samples[day..].to_vec();
        let r = rhythm_sim::pearson(&xs, &ys);
        assert!(r > 0.9, "diurnal correlation r={r}");
        // Covers (roughly) the requested trough..peak band.
        assert!(g.peak_fraction() > 0.8);
        let trough = samples.iter().copied().fold(1.0, f64::min);
        assert!(trough < 0.3, "trough={trough}");
    }

    #[test]
    fn flash_crowd_spikes_then_ramps_down() {
        let total = SimDuration::from_secs(1000);
        let base = LoadGen::diurnal(1, total, 100, 0.3, 0.5, 0.0, 1);
        let LoadGen::Trace {
            samples: ref before,
            ..
        } = base
        else {
            panic!("expected trace");
        };
        let before = before.clone();
        let spiked = base.clone().with_flash_crowd(0.5, 1.8, 10);
        let LoadGen::Trace { ref samples, .. } = spiked else {
            panic!("expected trace");
        };
        // Untouched before the spike.
        assert_eq!(&samples[..50], &before[..50]);
        // Spike front is magnified (or capped at the overload ceiling).
        let want = (before[50] * 1.8).min(LoadGen::OVERLOAD_CAP);
        assert!((samples[50] - want).abs() < 1e-12, "front={}", samples[50]);
        assert!(samples[50] > before[50]);
        // Multiplier decays monotonically back to 1× across the ramp.
        for k in 50..60 {
            let m0 = samples[k] / before[k];
            let m1 = samples[k + 1] / before[k + 1];
            assert!(m1 <= m0 + 1e-12, "ramp not monotone at {k}");
        }
        assert!((samples[60] - before[60]).abs() < 1e-12);
        assert_eq!(&samples[61..], &before[61..]);
        // Determinism composes: same base + same overlay = same trace.
        let again =
            LoadGen::diurnal(1, total, 100, 0.3, 0.5, 0.0, 1).with_flash_crowd(0.5, 1.8, 10);
        let LoadGen::Trace { samples: s2, .. } = again else {
            panic!("expected trace");
        };
        assert_eq!(samples, &s2);
    }

    #[test]
    fn flash_crowd_noop_on_constant_and_clamps() {
        let g = LoadGen::constant(0.5).with_flash_crowd(0.2, 2.0, 5);
        assert_eq!(g.fraction_at(SimTime::ZERO), 0.5);
        // Magnitude <= 1 is a no-op on traces too.
        let total = SimDuration::from_secs(100);
        let base = LoadGen::diurnal(1, total, 10, 0.4, 0.6, 0.0, 2);
        let same = base.clone().with_flash_crowd(0.0, 1.0, 3);
        let (LoadGen::Trace { samples: a, .. }, LoadGen::Trace { samples: b, .. }) = (&base, &same)
        else {
            panic!("expected traces");
        };
        assert_eq!(a, b);
        // Heavy spikes never exceed the overload cap.
        let spiked = base.with_flash_crowd(0.9, 10.0, 3);
        assert!(spiked.peak_fraction() <= LoadGen::OVERLOAD_CAP);
    }

    #[test]
    fn empty_trace_is_zero() {
        let g = LoadGen::Trace {
            samples: vec![],
            interval: SimDuration::from_secs(1),
        };
        assert_eq!(g.fraction_at(SimTime::from_secs(5)), 0.0);
        assert_eq!(g.mean_fraction(), 0.0);
    }
}
