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

/// Algorithm 1's candidate descent, split from its probation runs.
///
/// The candidates do not depend on the probation outcomes until the
/// first violation ends the search: the k-th candidate is the (k+1)-th
/// step down from all-1.0, each Servpod clamped at the floor, and the
/// descent ends at the fixed point where every step is clamped. So a
/// caller may evaluate candidates in any order or several at once, then
/// [`settle`](Descent::settle) on the index of the first violation.
/// Candidates are generated lazily, once each, and kept for `settle`.
#[derive(Clone, Debug)]
pub struct Descent {
    step_sizes: Vec<f64>,
    /// Every candidate generated so far, in descent order.
    candidates: Vec<Vec<f64>>,
    /// True once the fixed point was reached: `candidates` is complete.
    exhausted: bool,
}

impl Descent {
    /// The descent for raw contribution values `C_i` (not necessarily
    /// normalized).
    ///
    /// # Panics
    ///
    /// Panics if `contributions` is empty.
    pub fn new(contributions: &[f64]) -> Descent {
        assert!(!contributions.is_empty(), "no contributions");
        let total: f64 = contributions.iter().sum();
        let norm: Vec<f64> = if total <= 0.0 {
            vec![1.0 / contributions.len() as f64; contributions.len()]
        } else {
            contributions.iter().map(|c| (c / total).max(0.0)).collect()
        };
        Descent {
            step_sizes: norm.iter().map(|n| ETA * (1.0 - n)).collect(),
            candidates: Vec::new(),
            exhausted: false,
        }
    }

    /// The `k`-th candidate (0-based), or `None` if the descent reaches
    /// its fixed point before it.
    pub fn candidate(&mut self, k: usize) -> Option<&[f64]> {
        while self.candidates.len() <= k && !self.exhausted {
            let cur = (self.candidates.last().cloned())
                .unwrap_or_else(|| vec![1.0; self.step_sizes.len()]);
            let next: Vec<f64> = cur
                .iter()
                .zip(&self.step_sizes)
                .map(|(c, s)| (c - s).max(FLOOR))
                .collect();
            if next == cur {
                self.exhausted = true; // Every Servpod is at the floor.
            } else {
                self.candidates.push(next);
            }
        }
        self.candidates.get(k).map(Vec::as_slice)
    }

    /// Ends the search. `first_violation` is the index of the first
    /// candidate whose probation run violated the SLA, or `None` if
    /// every candidate of the descent passed. The result is the one
    /// sequential Algorithm 1 gives: the last passing candidate before
    /// the violation (all-1.0 if there is none), and `trials` counts the
    /// runs the sequential search makes, not any run made past the
    /// first violation.
    pub fn settle(mut self, first_violation: Option<usize>) -> SlacklimitSearch {
        let (trials, accepted) = match first_violation {
            Some(k) => {
                assert!(self.candidate(k).is_some(), "no candidate {k} to violate");
                (k + 1, k)
            }
            None => {
                // Run the descent out to its fixed point.
                while self.candidate(self.candidates.len()).is_some() {}
                (self.candidates.len(), self.candidates.len())
            }
        };
        let n = self.step_sizes.len();
        self.candidates.truncate(accepted);
        SlacklimitSearch {
            slacklimits: self.candidates.pop().unwrap_or_else(|| vec![1.0; n]),
            step_sizes: self.step_sizes,
            trials: u32::try_from(trials).expect("fewer than 2^32 probation runs"),
            hit_violation: first_violation.is_some(),
        }
    }
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
/// This is the [`Descent`] scanned one candidate at a time, stopping at
/// the first violation.
///
/// # Panics
///
/// Panics if `contributions` is empty.
pub fn find_slacklimits(
    contributions: &[f64],
    mut run_system: impl FnMut(&[f64]) -> bool,
) -> SlacklimitSearch {
    let mut descent = Descent::new(contributions);
    let mut k = 0;
    let first_violation = loop {
        match descent.candidate(k) {
            None => break None,
            Some(candidate) if run_system(candidate) => break Some(k),
            Some(_) => k += 1,
        }
    };
    descent.settle(first_violation)
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
    fn settle_on_any_index_matches_the_sequential_search() {
        let c = [0.2, 0.8];
        let total = Descent::new(&c).settle(None).trials as usize;
        for k in 0..total {
            let mut calls = 0;
            let seq = find_slacklimits(&c, |_| {
                calls += 1;
                calls > k
            });
            let mut d = Descent::new(&c);
            // Candidates may be generated past the violation first.
            assert!(d.candidate(total - 1).is_some());
            assert!(d.candidate(total).is_none());
            let settled = d.settle(Some(k));
            assert_eq!(settled.slacklimits, seq.slacklimits, "violation at {k}");
            assert_eq!(settled.trials, seq.trials);
            assert!(settled.hit_violation);
        }
    }

    #[test]
    #[should_panic(expected = "no contributions")]
    fn empty_contributions_panic() {
        find_slacklimits(&[], |_| false);
    }
}
