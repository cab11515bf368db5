//! Slacklimit search — the paper's Algorithm 1.
//!
//! `slacklimit` is the lower bound on the slack (relative gap between
//! current tail latency and the SLA target) below which BE jobs may not
//! grow on a Servpod's machine. Servpods with small contributions get
//! small slacklimits — BE jobs may keep growing until the slack is nearly
//! exhausted — while high-contribution Servpods are controlled
//! conservatively.
//!
//! Algorithm 1 searches iteratively: starting from `slacklimit = 1.0`,
//! every iteration lowers each Servpod's candidate by its step size
//! (proportional to `1 − C_i / Σ C_k`, scaled by a sub-step factor η —
//! the paper recommends running the algorithm multiple times for
//! accuracy, which is equivalent to refining the step), runs the system
//! with the candidate limits for a probation period, and backtracks one
//! step when the SLA is violated.

/// Fraction of the full Algorithm 1 step taken per probation run.
const ETA: f64 = 0.25;

/// No slacklimit descends below this floor: a zero limit would remove
/// the growth guard entirely.
const FLOOR: f64 = 0.02;

/// Outcome of the slacklimit search.
#[derive(Clone, Debug)]
pub struct SlacklimitSearch {
    /// Final slacklimit per Servpod.
    pub slacklimits: Vec<f64>,
    /// Step size per Servpod (`η · (1 − C_i / Σ C_k)`).
    pub step_sizes: Vec<f64>,
    /// Number of probation runs performed.
    pub trials: u32,
    /// True if the search stopped because a trial violated the SLA (and
    /// backtracked), false if it walked all the way down.
    pub hit_violation: bool,
}

/// Runs Algorithm 1.
///
/// * `contributions` — raw contribution values `C_i` (not necessarily
///   normalized).
/// * `run_system` — probation runner: given the candidate slacklimit
///   vector, runs the co-located system "for a while" and returns `true`
///   if the SLA was violated.
///
/// Returns the per-Servpod slacklimits: the last candidate vector that
/// did *not* violate the SLA (or all-1.0 if the very first candidate
/// violated). Low-contribution Servpods take bigger steps, so they end
/// at lower limits when the violation stops everyone — the
/// component-distinguishable outcome the controller relies on.
///
/// # Panics
///
/// Panics if `contributions` is empty.
pub fn find_slacklimits(
    contributions: &[f64],
    mut run_system: impl FnMut(&[f64]) -> bool,
) -> SlacklimitSearch {
    assert!(!contributions.is_empty(), "no contributions");
    let total: f64 = contributions.iter().sum();
    let norm: Vec<f64> = if total <= 0.0 {
        vec![1.0 / contributions.len() as f64; contributions.len()]
    } else {
        contributions.iter().map(|c| (c / total).max(0.0)).collect()
    };
    let step_sizes: Vec<f64> = norm.iter().map(|n| ETA * (1.0 - n)).collect();
    let mut cur: Vec<f64> = vec![1.0; contributions.len()];
    // `Record` of Algorithm 1: the stack of accepted candidates.
    let mut record: Vec<Vec<f64>> = Vec::new();
    let mut trials = 0;
    let mut hit_violation = false;
    loop {
        let candidate: Vec<f64> = cur
            .iter()
            .zip(&step_sizes)
            .map(|(c, s)| (c - s).max(FLOOR))
            .collect();
        if candidate == cur {
            break; // Fixed point: every Servpod is at the floor.
        }
        trials += 1;
        let violated = run_system(&candidate);
        if violated {
            hit_violation = true;
            break;
        }
        record.push(candidate.clone());
        cur = candidate;
    }
    let slacklimits = record.pop().unwrap_or_else(|| vec![1.0; norm.len()]);
    SlacklimitSearch {
        slacklimits,
        step_sizes,
        trials,
        hit_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_violation_walks_to_the_floor() {
        let c = [0.032, 0.078, 0.04, 0.347];
        let result = find_slacklimits(&c, |_| false);
        for &v in &result.slacklimits {
            assert!((v - FLOOR).abs() < 1e-9, "{v}");
        }
        assert!(!result.hit_violation);
        assert!(result.trials > 4, "descends gradually: {}", result.trials);
    }

    #[test]
    fn smaller_contribution_smaller_slacklimit_at_violation() {
        // Violate once the mean candidate drops below 0.5: the larger
        // contributor has descended less by then.
        let c = [0.05, 0.5];
        let r = find_slacklimits(&c, |cand| {
            cand.iter().sum::<f64>() / (cand.len() as f64) < 0.5
        });
        assert!(r.hit_violation);
        assert!(
            r.slacklimits[0] < r.slacklimits[1],
            "low contributor descends faster: {:?}",
            r.slacklimits
        );
    }

    #[test]
    fn violation_returns_last_accepted_candidate() {
        let c = [0.3, 0.3];
        let mut accepted: Vec<Vec<f64>> = Vec::new();
        let r = find_slacklimits(&c, |cand| {
            let bad = cand.iter().any(|&x| x < 0.45);
            if !bad {
                accepted.push(cand.to_vec());
            }
            bad
        });
        assert!(r.hit_violation);
        assert_eq!(&r.slacklimits, accepted.last().expect("accepted some"));
        for &x in &r.slacklimits {
            assert!(x >= 0.45, "{x}");
        }
    }

    #[test]
    fn immediate_violation_keeps_initial_limits() {
        let c = [0.2, 0.8];
        let r = find_slacklimits(&c, |_| true);
        assert_eq!(r.slacklimits, vec![1.0, 1.0]);
        assert_eq!(r.trials, 1);
        assert!(r.hit_violation);
    }

    #[test]
    fn step_sizes_scale_with_complement_of_contribution() {
        let c = [1.0, 3.0];
        let r = find_slacklimits(&c, |_| false);
        assert!((r.step_sizes[0] - ETA * 0.75).abs() < 1e-12);
        assert!((r.step_sizes[1] - ETA * 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_contributions_fall_back_to_uniform() {
        let c = [0.0, 0.0, 0.0];
        let r = find_slacklimits(&c, |_| false);
        let first = r.slacklimits[0];
        for &x in &r.slacklimits {
            assert!((x - first).abs() < 1e-9, "uniform descent");
        }
    }

    #[test]
    fn search_terminates() {
        let c = [0.01, 0.99];
        let r = find_slacklimits(&c, |_| false);
        assert!(r.trials < 500, "trials={}", r.trials);
        for &x in &r.slacklimits {
            assert!(x >= FLOOR - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "no contributions")]
    fn empty_contributions_panic() {
        find_slacklimits(&[], |_| false);
    }
}
