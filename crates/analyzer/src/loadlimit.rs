//! Loadlimit detection (§3.5.1, Figure 8).
//!
//! The `loadlimit` of a Servpod is the request-load ceiling above which
//! no BE job may run on its machine. The paper derives it from the
//! coefficient of variation of sojourn times across requests at each
//! load level: fluctuation rises sharply as the Servpod saturates, and
//! the loadlimit is "the first load point whose fluctuation is greater
//! than the average".

/// Finds the loadlimit from a CoV-over-load series.
///
/// * `loads` — load fractions, strictly increasing.
/// * `covs` — CoV of request sojourn times at each load.
///
/// Returns the first load whose CoV strictly exceeds the series average
/// *and stays above it at the next point* (a sustained crossing — single
/// noisy samples on measured series must not trigger); if no point
/// qualifies (a perfectly flat series), returns the last load (the
/// Servpod never destabilizes in the measured range).
///
/// # Panics
///
/// Panics if the series are empty or of different lengths.
pub fn find_loadlimit(loads: &[f64], covs: &[f64]) -> f64 {
    assert!(!loads.is_empty(), "empty load series");
    assert_eq!(loads.len(), covs.len(), "series length mismatch");
    let avg = covs.iter().sum::<f64>() / covs.len() as f64;
    // Baseline: the mean of the lower half of the series. A genuinely
    // fluctuating Servpod rises far above its quiet-load baseline; a
    // stable one only wiggles within estimator noise, which must not
    // trigger (its loadlimit is the end of the measured range).
    let mut sorted = covs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let lower = &sorted[..(sorted.len() / 2).max(1)];
    let baseline = lower.iter().sum::<f64>() / lower.len() as f64;
    let threshold = avg.max(1.12 * baseline);
    for (i, (l, c)) in loads.iter().zip(covs).enumerate() {
        let sustained = i + 1 >= covs.len() || covs[i + 1] > threshold;
        if *c > threshold && sustained {
            return *l;
        }
    }
    *loads.last().expect("non-empty")
}

/// 3-point moving average; endpoints average the two available points.
///
/// Measured CoV series carry sampling noise; smoothing keeps a single
/// noisy sample on an otherwise flat series from triggering the
/// first-above-average rule far too early.
pub fn smooth3(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(n - 1);
            xs[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        })
        .collect()
}

/// Loadlimits for every Servpod of a profile, with CoV smoothing.
pub fn loadlimits(profile: &crate::profile::SojournProfile) -> Vec<f64> {
    let loads = profile.loads();
    (0..profile.pods())
        .map(|i| find_loadlimit(&loads, &smooth3(&profile.cov_series(i))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_cov_crosses_average() {
        // CoV flat then rising: the paper's MySQL case (Figure 8a) where
        // fluctuation exceeds the average around 76% load.
        let loads: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
        let covs = vec![0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.5, 0.7, 0.9];
        // Average = 0.33; first exceed is 0.5 at load 0.8.
        let avg = covs.iter().sum::<f64>() / 10.0;
        assert!(covs[7] > avg && covs[6] < avg);
        assert_eq!(find_loadlimit(&loads, &covs), 0.8);
    }

    #[test]
    fn flat_series_returns_last_load() {
        let loads = [0.2, 0.4, 0.6];
        let covs = [0.3, 0.3, 0.3];
        assert_eq!(find_loadlimit(&loads, &covs), 0.6);
    }

    #[test]
    fn isolated_spike_is_ignored() {
        // A single noisy sample above the average does not qualify; the
        // crossing must be sustained.
        let loads = [0.2, 0.4, 0.6, 0.8, 1.0];
        let covs = [0.1, 0.9, 0.1, 0.5, 0.6];
        assert_eq!(find_loadlimit(&loads, &covs), 0.8);
    }

    #[test]
    fn final_point_crossing_counts() {
        let loads = [0.2, 0.4, 0.6];
        let covs = [0.1, 0.1, 0.9];
        assert_eq!(find_loadlimit(&loads, &covs), 0.6);
    }

    #[test]
    fn stable_pod_gets_higher_limit_than_volatile() {
        let loads: Vec<f64> = (1..=20).map(|i| f64::from(i) * 0.05).collect();
        // Volatile pod destabilizes at 60%, stable one at 90%.
        let volatile: Vec<f64> = loads
            .iter()
            .map(|&l| if l < 0.6 { 0.1 } else { 0.1 + (l - 0.6) * 3.0 })
            .collect();
        let stable: Vec<f64> = loads
            .iter()
            .map(|&l| if l < 0.9 { 0.1 } else { 0.1 + (l - 0.9) * 3.0 })
            .collect();
        let lv = find_loadlimit(&loads, &volatile);
        let ls = find_loadlimit(&loads, &stable);
        assert!(lv < ls, "volatile {lv} vs stable {ls}");
    }

    #[test]
    fn profile_wrapper_processes_all_pods() {
        let p = crate::profile::sample_profile();
        let ls = loadlimits(&p);
        assert_eq!(ls.len(), 2);
        for l in ls {
            assert!((0.0..=1.0).contains(&l));
        }
    }

    #[test]
    fn smooth3_flattens_spikes() {
        let xs = [0.1, 0.1, 0.9, 0.1, 0.1];
        let s = smooth3(&xs);
        assert!(s[2] < 0.9);
        assert!(s[1] > 0.1 && s[3] > 0.1);
        assert_eq!(s.len(), 5);
        // Endpoints average two points.
        assert!((s[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn smooth3_single_point() {
        assert_eq!(smooth3(&[0.5]), vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        find_loadlimit(&[0.1, 0.2], &[0.5]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_series_panics() {
        find_loadlimit(&[], &[]);
    }
}
