//! The tail-latency recovery-time metric.
//!
//! "How long until the cluster was healthy again?" is the headline
//! number of every incident review, and none of the paper's metrics
//! capture it: EMU and SLA-violation counts integrate over the whole
//! run. This module derives recovery time from the cluster-wide tail
//! series the runner already records at every epoch barrier:
//!
//! 1. **Baseline** — the median p99 over the non-empty windows that
//!    closed *before* the disruption.
//! 2. **Excursion** — the first post-disruption window whose p99
//!    exceeds [`RECOVERY_THRESHOLD`] × baseline. Queue buildup lags
//!    the disruption itself, so windows *before* the excursion do not
//!    count as recovery: the cluster had not degraded yet. A run whose
//!    tail never leaves the threshold reports zero recovery time.
//! 3. **Recovered** — the first window at or after the excursion from
//!    which the p99 stays in-threshold for
//!    [`RECOVERY_SUSTAIN_POINTS`] consecutive non-empty windows (a
//!    single good window inside an oscillation does not count),
//!    reported as seconds since the disruption.
//! 4. **Censored** — if no such window exists before the horizon, the
//!    run never recovered inside the observation window; the estimate
//!    says so instead of reporting a number.
//!
//! The series is produced single-threaded at the barriers, so the
//! metric inherits the runner's determinism: same seed, same recovery
//! time, for any worker-thread count.

use rhythm_telemetry::json::{Obj, Sink, ToJson};
use rhythm_telemetry::TailPoint;

/// A window's p99 counts as recovered when it is at or below this
/// multiple of the pre-fault baseline (15% headroom for sampling
/// noise in small windows).
pub const RECOVERY_THRESHOLD: f64 = 1.15;

/// Consecutive in-threshold windows required before the first of them
/// counts as the recovery point.
pub const RECOVERY_SUSTAIN_POINTS: usize = 3;

/// A recovery-time estimate for one disruption.
#[derive(Clone, Debug, PartialEq)]
pub struct Recovery {
    /// Median p99 (ms) of the non-empty pre-fault windows.
    pub baseline_p99_ms: f64,
    /// Seconds from the disruption to the first sustained in-threshold
    /// window at or after the excursion. `Some(0.0)` means the tail
    /// never left the threshold; `None` means the run ended still
    /// degraded (censored at the horizon).
    pub recovered_s: Option<f64>,
    /// Worst post-disruption p99 (ms), the depth of the excursion.
    pub peak_p99_ms: f64,
}

impl ToJson for Recovery {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("baseline_p99_ms", self.baseline_p99_ms)
            .field("recovered_s", self.recovered_s)
            .field("peak_p99_ms", self.peak_p99_ms)
            .close();
    }
}

/// Estimates recovery from `tail` for a disruption at `fault_at_s`.
/// Returns `None` when there is no usable pre-fault baseline (no
/// non-empty window closed before the disruption) — without a
/// baseline, "recovered" is undefined.
pub fn recovery_time(tail: &[TailPoint], fault_at_s: f64) -> Option<Recovery> {
    let mut pre: Vec<f64> = tail
        .iter()
        .filter(|p| p.t_s < fault_at_s && p.count > 0)
        .map(|p| p.p99_ms)
        .collect();
    if pre.is_empty() {
        return None;
    }
    pre.sort_by(|a, b| a.partial_cmp(b).expect("p99 values are finite"));
    let baseline = pre[pre.len() / 2];
    let threshold = baseline * RECOVERY_THRESHOLD;
    let post: Vec<&TailPoint> = tail
        .iter()
        .filter(|p| p.t_s >= fault_at_s && p.count > 0)
        .collect();
    let peak = post.iter().map(|p| p.p99_ms).fold(0.0, f64::max);
    // The excursion: queue buildup lags the fault, so good windows
    // before the tail actually degrades are pre-incident, not recovery.
    let Some(excursion) = post.iter().position(|p| p.p99_ms > threshold) else {
        return Some(Recovery {
            baseline_p99_ms: baseline,
            recovered_s: Some(0.0),
            peak_p99_ms: peak,
        });
    };
    // First window at/after the excursion opening a run of
    // RECOVERY_SUSTAIN_POINTS consecutive in-threshold windows. The
    // final windows of the run may open a shorter run; that is not
    // "sustained", so it censors.
    let mut recovered_s = None;
    let mut run_start: Option<usize> = None;
    let mut run_len = 0usize;
    for (i, p) in post.iter().enumerate().skip(excursion) {
        if p.p99_ms <= threshold {
            if run_len == 0 {
                run_start = Some(i);
            }
            run_len += 1;
            if run_len >= RECOVERY_SUSTAIN_POINTS {
                let first = post[run_start.expect("run_start set with run_len > 0")];
                recovered_s = Some((first.t_s - fault_at_s).max(0.0));
                break;
            }
        } else {
            run_len = 0;
            run_start = None;
        }
    }
    Some(Recovery {
        baseline_p99_ms: baseline,
        recovered_s,
        peak_p99_ms: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t_s: f64, p99_ms: f64) -> TailPoint {
        TailPoint {
            t_s,
            count: 100,
            p50_ms: p99_ms * 0.5,
            p95_ms: p99_ms * 0.9,
            p99_ms,
            slack: 0.0,
        }
    }

    #[test]
    fn clean_recovery_is_measured_from_the_fault() {
        // Baseline 10ms, excursion to 40ms at t=50, back under
        // threshold from t=70 onward.
        let mut tail: Vec<TailPoint> = (1..=4).map(|i| pt(f64::from(i) * 10.0, 10.0)).collect();
        tail.push(pt(50.0, 40.0));
        tail.push(pt(60.0, 20.0));
        for i in 7..=12 {
            tail.push(pt(f64::from(i) * 10.0, 10.5));
        }
        let r = recovery_time(&tail, 50.0).expect("baseline exists");
        assert_eq!(r.baseline_p99_ms, 10.0);
        assert_eq!(r.peak_p99_ms, 40.0);
        assert_eq!(r.recovered_s, Some(20.0), "t=70 minus fault at t=50");
    }

    #[test]
    fn single_good_window_does_not_count_as_recovered() {
        // One in-threshold window inside an oscillation, then degraded
        // to the horizon: censored.
        let mut tail: Vec<TailPoint> = (1..=3).map(|i| pt(f64::from(i) * 10.0, 10.0)).collect();
        tail.push(pt(40.0, 50.0));
        tail.push(pt(50.0, 10.0)); // lone good window
        tail.push(pt(60.0, 50.0));
        tail.push(pt(70.0, 48.0));
        let r = recovery_time(&tail, 40.0).expect("baseline exists");
        assert_eq!(r.recovered_s, None, "censored at the horizon");
        assert_eq!(r.peak_p99_ms, 50.0);
    }

    #[test]
    fn unshaken_tail_reports_zero_recovery() {
        let tail: Vec<TailPoint> = (1..=10).map(|i| pt(f64::from(i) * 10.0, 10.0)).collect();
        let r = recovery_time(&tail, 45.0).expect("baseline exists");
        assert_eq!(r.recovered_s, Some(0.0), "tail never left the threshold");
    }

    #[test]
    fn good_windows_before_the_excursion_are_not_recovery() {
        // Fault at t=40, but the tail only degrades at t=70 (queue
        // buildup lag); three good windows in between must not count.
        let mut tail: Vec<TailPoint> = (1..=3).map(|i| pt(f64::from(i) * 10.0, 10.0)).collect();
        for i in 4..=6 {
            tail.push(pt(f64::from(i) * 10.0, 10.5));
        }
        tail.push(pt(70.0, 60.0));
        tail.push(pt(80.0, 55.0));
        for i in 9..=12 {
            tail.push(pt(f64::from(i) * 10.0, 10.0));
        }
        let r = recovery_time(&tail, 40.0).expect("baseline exists");
        assert_eq!(r.recovered_s, Some(50.0), "t=90 minus fault at t=40");
        assert_eq!(r.peak_p99_ms, 60.0);
    }

    #[test]
    fn no_baseline_means_no_estimate() {
        let tail = vec![pt(100.0, 10.0)];
        assert!(recovery_time(&tail, 50.0).is_none(), "no pre-fault window");
        assert!(recovery_time(&[], 50.0).is_none());
        // Empty windows do not establish a baseline either.
        let empty = TailPoint {
            t_s: 10.0,
            count: 0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            slack: 1.0,
        };
        assert!(recovery_time(&[empty], 50.0).is_none());
    }
}
