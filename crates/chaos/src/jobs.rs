//! Heavy-tailed BE job-size plans.
//!
//! The paper's cluster backlog uses the three real BE workloads at
//! their solo runtimes — every job the same size. Production batch
//! tiers are nothing like that: the Alibaba 2017/2018 cluster traces
//! (analyzed in arXiv 1808.02919) show batch durations that are
//! heavily right-skewed — the bulk of jobs finish within a couple of
//! minutes while a long tail runs for hours, well fit by a lognormal
//! body with a Pareto-like tail. [`heavy_tailed_plan`] reproduces that
//! shape deterministically: it cycles the requested BE mix and draws
//! each job's `job_seconds` from a [`JobSizeDist`], all from the
//! deterministic sim RNG, so a plan is a pure function of
//! `(count, mix, dist, seed)`.

use rhythm_cluster::JobSpec;
use rhythm_sim::{Dist, SimRng};
use rhythm_workloads::BeSpec;

/// A job-size distribution for [`heavy_tailed_plan`], in solo-runtime
/// virtual seconds.
#[derive(Clone, Debug)]
pub enum JobSizeDist {
    /// Lognormal: `exp(ln(median) + sigma · z)` with `z` standard
    /// normal. `sigma` ≈ 1.5–2 matches the published Alibaba batch
    /// spread.
    LogNormal {
        /// Median job size in seconds.
        median_s: f64,
        /// Log-space standard deviation.
        sigma: f64,
    },
    /// Bounded Pareto: scale `scale_s`, shape `alpha`, hard cap
    /// `cap_s`. `alpha` just above 1 gives the classic heavy tail with
    /// a finite mean.
    BoundedPareto {
        /// Minimum (scale) job size in seconds.
        scale_s: f64,
        /// Tail index (smaller = heavier tail).
        alpha: f64,
        /// Hard upper bound in seconds.
        cap_s: f64,
    },
}

impl JobSizeDist {
    /// The lognormal fit used by the chaos scenarios: median 72 s,
    /// σ = 1.7 — most jobs under two minutes, p99 in the tens of
    /// minutes, the Alibaba batch-duration shape.
    pub fn alibaba_lognormal() -> JobSizeDist {
        JobSizeDist::LogNormal {
            median_s: 72.0,
            sigma: 1.7,
        }
    }

    /// A bounded-Pareto alternative with the same flavor: 20 s minimum,
    /// α = 1.1, capped at one hour.
    pub fn alibaba_pareto() -> JobSizeDist {
        JobSizeDist::BoundedPareto {
            scale_s: 20.0,
            alpha: 1.1,
            cap_s: 3_600.0,
        }
    }

    /// Draws one job size in seconds (always finite and positive).
    pub fn sample_s(&self, rng: &mut SimRng) -> f64 {
        match *self {
            JobSizeDist::LogNormal { median_s, sigma } => {
                let z = rng.standard_normal();
                (median_s.max(1e-9).ln() + sigma.max(0.0) * z).exp()
            }
            JobSizeDist::BoundedPareto {
                scale_s,
                alpha,
                cap_s,
            } => Dist::BoundedPareto {
                scale: scale_s,
                alpha,
                cap: cap_s,
            }
            .sample(rng),
        }
    }
}

/// Builds a `count`-job solitary backlog cycling through `mix`, with
/// each job's solo runtime drawn from `dist` and clamped to
/// `[min_s, cap_s]` (`cap_s` also bounds the lognormal so one outlier
/// cannot dwarf the horizon). Deterministic in `seed`: the RNG stream
/// is `SimRng::from_seed(seed).split("job-sizes")`.
///
/// Each entry gets a **unique workload name** (`<kind>#<index>`): the
/// engines and the placement catalog key workloads by name, and two
/// jobs of the same kind with different sampled sizes must not alias —
/// progress accrual would otherwise use whichever spec registered the
/// name first. Pressure characteristics stay those of the base kind;
/// only the size varies.
pub fn heavy_tailed_plan(
    count: usize,
    mix: &[BeSpec],
    dist: &JobSizeDist,
    min_s: f64,
    cap_s: f64,
    seed: u64,
) -> Vec<JobSpec> {
    assert!(!mix.is_empty(), "need at least one BE kind in the mix");
    assert!(
        min_s > 0.0 && min_s <= cap_s,
        "size bounds [{min_s}, {cap_s}] are inverted"
    );
    let mut rng = SimRng::from_seed(seed).split("job-sizes");
    (0..count)
        .map(|i| {
            let mut spec = mix[i % mix.len()].clone();
            spec.name = format!("{}#{i:03}", spec.name);
            spec.job_seconds = dist.sample_s(&mut rng).clamp(min_s, cap_s);
            JobSpec::solitary(spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_workloads::BeKind;

    fn mix() -> Vec<BeSpec> {
        vec![BeSpec::of(BeKind::Wordcount), BeSpec::of(BeKind::Lstm)]
    }

    #[test]
    fn plan_is_deterministic_and_bounded() {
        let a = heavy_tailed_plan(64, &mix(), &JobSizeDist::alibaba_lognormal(), 2.0, 600.0, 9);
        let b = heavy_tailed_plan(64, &mix(), &JobSizeDist::alibaba_lognormal(), 2.0, 600.0, 9);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.spec.job_seconds, y.spec.job_seconds);
            assert!((2.0..=600.0).contains(&x.spec.job_seconds));
        }
        let c = heavy_tailed_plan(
            64,
            &mix(),
            &JobSizeDist::alibaba_lognormal(),
            2.0,
            600.0,
            10,
        );
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.spec.job_seconds != y.spec.job_seconds),
            "different seeds draw different sizes"
        );
    }

    #[test]
    fn lognormal_is_heavy_tailed() {
        // Median near the nominal value, mean well above it (skew), and
        // a spread of at least an order of magnitude.
        let plan = heavy_tailed_plan(2048, &mix(), &JobSizeDist::alibaba_lognormal(), 0.1, 1e9, 3);
        let mut sizes: Vec<f64> = plan.iter().map(|j| j.spec.job_seconds).collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sizes[sizes.len() / 2];
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert!((30.0..150.0).contains(&median), "median={median}");
        assert!(mean > 1.5 * median, "mean={mean} median={median}");
        assert!(sizes[sizes.len() - 1] / sizes[0] > 100.0, "dynamic range");
    }

    #[test]
    fn pareto_respects_scale_and_cap() {
        let plan = heavy_tailed_plan(512, &mix(), &JobSizeDist::alibaba_pareto(), 1.0, 3_600.0, 5);
        for j in &plan {
            assert!((20.0..=3_600.0).contains(&j.spec.job_seconds));
        }
    }

    #[test]
    fn plan_cycles_the_mix_with_unique_names() {
        let plan = heavy_tailed_plan(5, &mix(), &JobSizeDist::alibaba_pareto(), 1.0, 100.0, 1);
        assert!(plan[0].spec.name.starts_with("wordcount#"));
        assert!(plan[2].spec.name.starts_with("wordcount#"));
        assert!(plan[1].spec.name.starts_with("LSTM#"));
        let names: std::collections::BTreeSet<&str> =
            plan.iter().map(|j| j.spec.name.as_str()).collect();
        assert_eq!(names.len(), plan.len(), "no two jobs alias a name");
        assert!(plan.iter().all(|j| j.gang == 1 && j.priority == 0));
    }
}
