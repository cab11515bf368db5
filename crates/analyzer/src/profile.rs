//! Solo-run sojourn profile: the analyzer's input.

/// Measurements at one load level of the solo-run sweep.
#[derive(Clone, Debug)]
pub struct LoadLevel {
    /// Offered load as a fraction of max load.
    pub load: f64,
    /// Mean sojourn time per Servpod in ms (`T_i^j` of the paper).
    pub mean_sojourn_ms: Vec<f64>,
    /// Coefficient of variation of sojourn times *across requests* at
    /// this level, per Servpod (drives `loadlimit`, Figure 8).
    pub sojourn_cov: Vec<f64>,
    /// End-to-end tail latency at this level in ms (`T_tail^j`).
    pub tail_ms: f64,
    /// Number of requests measured.
    pub requests: u64,
}

/// The complete profile of one LC service from its solo-run sweep.
#[derive(Clone, Debug)]
pub struct SojournProfile {
    /// Servpod (component) names, fixing the per-Servpod vector order.
    pub pod_names: Vec<String>,
    /// One entry per load level, in increasing load order.
    pub levels: Vec<LoadLevel>,
}

impl SojournProfile {
    /// Number of Servpods.
    pub fn pods(&self) -> usize {
        self.pod_names.len()
    }

    /// Number of load levels (`m` in the paper's equations).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The per-load mean sojourn series of Servpod `i` (`T_i^j` over j).
    pub fn sojourn_series(&self, i: usize) -> Vec<f64> {
        self.levels.iter().map(|l| l.mean_sojourn_ms[i]).collect()
    }

    /// The per-load tail latency series (`T_tail^j` over j).
    pub fn tail_series(&self) -> Vec<f64> {
        self.levels.iter().map(|l| l.tail_ms).collect()
    }

    /// The per-load CoV series of Servpod `i`.
    pub fn cov_series(&self, i: usize) -> Vec<f64> {
        self.levels.iter().map(|l| l.sojourn_cov[i]).collect()
    }

    /// The load fractions of the sweep.
    pub fn loads(&self) -> Vec<f64> {
        self.levels.iter().map(|l| l.load).collect()
    }

    /// `T̄_i`: the grand mean sojourn of Servpod `i` across load levels.
    pub fn grand_mean(&self, i: usize) -> f64 {
        let s = self.sojourn_series(i);
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.pod_names.is_empty() {
            return Err("profile has no Servpods".into());
        }
        if self.levels.len() < 2 {
            return Err("profile needs at least two load levels".into());
        }
        for (j, l) in self.levels.iter().enumerate() {
            if l.mean_sojourn_ms.len() != self.pods() || l.sojourn_cov.len() != self.pods() {
                return Err(format!("level {j} has wrong vector lengths"));
            }
            if j > 0 && l.load <= self.levels[j - 1].load {
                return Err("load levels must be strictly increasing".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub use tests::sample_profile;

#[cfg(test)]
mod tests {
    use super::*;

    /// A small synthetic 2-pod profile used across analyzer tests.
    pub fn sample_profile() -> SojournProfile {
        let loads = [0.2, 0.4, 0.6, 0.8];
        SojournProfile {
            pod_names: vec!["front".into(), "db".into()],
            levels: loads
                .iter()
                .map(|&load| LoadLevel {
                    load,
                    // Front flat, db grows steeply with load.
                    mean_sojourn_ms: vec![5.0 + load, 10.0 + 60.0 * load * load],
                    sojourn_cov: vec![0.2, 0.3 + load],
                    tail_ms: 40.0 + 200.0 * load * load,
                    requests: 10_000,
                })
                .collect(),
        }
    }

    #[test]
    fn sample_validates() {
        assert!(sample_profile().validate().is_ok());
    }

    #[test]
    fn series_extraction() {
        let p = sample_profile();
        assert_eq!(p.pods(), 2);
        assert_eq!(p.level_count(), 4);
        assert_eq!(p.sojourn_series(0).len(), 4);
        assert_eq!(p.tail_series()[0], 40.0 + 200.0 * 0.04);
        assert_eq!(p.loads(), vec![0.2, 0.4, 0.6, 0.8]);
    }

    #[test]
    fn grand_mean_is_mean_of_levels() {
        let p = sample_profile();
        let s = p.sojourn_series(1);
        let expect = s.iter().sum::<f64>() / 4.0;
        assert!((p.grand_mean(1) - expect).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_problems() {
        let mut p = sample_profile();
        p.levels[1].mean_sojourn_ms.pop();
        assert!(p.validate().is_err());

        let mut p = sample_profile();
        p.levels[2].load = 0.1;
        assert!(p.validate().is_err());

        let mut p = sample_profile();
        p.levels.truncate(1);
        assert!(p.validate().is_err());

        let p = SojournProfile {
            pod_names: vec![],
            levels: vec![],
        };
        assert!(p.validate().is_err());
    }
}
