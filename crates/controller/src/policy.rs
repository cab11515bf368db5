//! The decision policy: Algorithm 2 and the Heracles baseline.

use crate::action::BeAction;

/// The two per-Servpod control thresholds (§3.5.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// Request-load ceiling (fraction of max load) above which BE jobs
    /// are suspended.
    pub loadlimit: f64,
    /// Slack floor below which BE jobs may not grow (and below half of
    /// which they are cut).
    pub slacklimit: f64,
}

impl Thresholds {
    /// The uniform thresholds of the paper's Heracles implementation
    /// (§5.1): no BE when load > 0.85, no BE growth when slack < 0.10.
    pub fn heracles() -> Self {
        Thresholds {
            loadlimit: 0.85,
            slacklimit: 0.10,
        }
    }

    /// Creates thresholds, clamping both into `(0, 1]`.
    pub fn new(loadlimit: f64, slacklimit: f64) -> Self {
        Thresholds {
            loadlimit: loadlimit.clamp(0.01, 1.0),
            slacklimit: slacklimit.clamp(0.001, 1.0),
        }
    }
}

/// The threshold-based decision policy of Algorithm 2.
///
/// Rhythm instantiates one per Servpod with contribution-derived
/// thresholds; the Heracles baseline uses [`Thresholds::heracles`] on
/// every machine.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdPolicy {
    thresholds: Thresholds,
}

impl ThresholdPolicy {
    /// A Rhythm per-Servpod policy.
    pub fn rhythm(thresholds: Thresholds) -> Self {
        ThresholdPolicy { thresholds }
    }

    /// The Heracles uniform-threshold baseline.
    pub fn heracles() -> Self {
        ThresholdPolicy {
            thresholds: Thresholds::heracles(),
        }
    }

    /// The thresholds in force.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The slack for a measured tail latency:
    /// `(T_SLA − T_tail) / T_SLA`.
    pub fn slack(tail_ms: f64, sla_ms: f64) -> f64 {
        (sla_ms - tail_ms) / sla_ms
    }

    /// Algorithm 2: one decision from the measured load fraction and
    /// slack.
    pub fn decide(&self, load_fraction: f64, slack: f64) -> BeAction {
        let t = self.thresholds;
        if slack < 0.0 {
            BeAction::StopBe
        } else if load_fraction > t.loadlimit {
            BeAction::SuspendBe
        } else if slack < t.slacklimit / 2.0 {
            BeAction::CutBe
        } else if slack < t.slacklimit {
            BeAction::DisallowBeGrowth
        } else {
            BeAction::AllowBeGrowth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ThresholdPolicy {
        ThresholdPolicy::rhythm(Thresholds::new(0.76, 0.347))
    }

    #[test]
    fn negative_slack_stops_be() {
        assert_eq!(policy().decide(0.1, -0.01), BeAction::StopBe);
        // StopBE wins even over the loadlimit.
        assert_eq!(policy().decide(0.99, -0.5), BeAction::StopBe);
    }

    #[test]
    fn overload_suspends_be() {
        assert_eq!(policy().decide(0.80, 0.5), BeAction::SuspendBe);
        assert_eq!(
            policy().decide(0.76, 0.5),
            BeAction::AllowBeGrowth,
            "at the limit is allowed"
        );
    }

    #[test]
    fn tight_slack_cuts() {
        // slacklimit/2 = 0.1735.
        assert_eq!(policy().decide(0.5, 0.10), BeAction::CutBe);
        assert_eq!(policy().decide(0.5, 0.0), BeAction::CutBe);
    }

    #[test]
    fn moderate_slack_freezes_growth() {
        assert_eq!(policy().decide(0.5, 0.2), BeAction::DisallowBeGrowth);
        assert_eq!(policy().decide(0.5, 0.34), BeAction::DisallowBeGrowth);
    }

    #[test]
    fn comfortable_slack_allows_growth() {
        assert_eq!(policy().decide(0.5, 0.35), BeAction::AllowBeGrowth);
        assert_eq!(policy().decide(0.5, 0.9), BeAction::AllowBeGrowth);
    }

    #[test]
    fn heracles_uses_uniform_thresholds() {
        let h = ThresholdPolicy::heracles();
        assert_eq!(h.thresholds().loadlimit, 0.85);
        assert_eq!(h.thresholds().slacklimit, 0.10);
        assert_eq!(h.decide(0.86, 0.5), BeAction::SuspendBe);
        assert_eq!(h.decide(0.5, 0.09), BeAction::DisallowBeGrowth);
        assert_eq!(h.decide(0.5, 0.04), BeAction::CutBe);
        assert_eq!(h.decide(0.5, 0.11), BeAction::AllowBeGrowth);
    }

    #[test]
    fn rhythm_beats_heracles_on_low_contribution_pod() {
        // A Zookeeper-like Servpod: loadlimit 0.93, slacklimit 0.035.
        // At load 0.90 with slack 0.06 Heracles suspends/freezes while
        // Rhythm still grows BE jobs — the paper's core mechanism.
        let zk = ThresholdPolicy::rhythm(Thresholds::new(0.93, 0.035));
        let h = ThresholdPolicy::heracles();
        assert_eq!(zk.decide(0.90, 0.06), BeAction::AllowBeGrowth);
        assert_eq!(h.decide(0.90, 0.06), BeAction::SuspendBe);
    }

    #[test]
    fn slack_computation() {
        assert!((ThresholdPolicy::slack(125.0, 250.0) - 0.5).abs() < 1e-12);
        assert!(ThresholdPolicy::slack(300.0, 250.0) < 0.0);
    }

    #[test]
    fn thresholds_clamp() {
        let t = Thresholds::new(5.0, -1.0);
        assert_eq!(t.loadlimit, 1.0);
        assert_eq!(t.slacklimit, 0.001);
    }
}
