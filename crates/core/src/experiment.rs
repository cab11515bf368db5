//! Co-location experiment orchestration.
//!
//! The evaluation (§5) repeatedly runs the same shape of experiment: an
//! LC service, a BE workload, a load generator, and a controller (Rhythm
//! with per-Servpod thresholds, or Heracles with uniform ones). A
//! [`ServiceContext`] prepares the expensive one-time work — SLA
//! calibration and the profiling pipeline — and then stamps out runs.

use crate::metrics::RunMetrics;
use crate::par;
use crate::profiling::{offline_stage, ServiceThresholds};
use crate::runtime::{ControlMode, Engine, EngineConfig, EngineOutput};
use rhythm_controller::Thresholds;
use rhythm_sim::SimDuration;
use rhythm_workloads::{BeSpec, LoadGen, ServiceSpec};
use std::borrow::Cow;
use std::sync::Arc;

/// Which controller manages BE jobs in a run.
#[derive(Clone, Debug, PartialEq)]
pub enum ControllerChoice {
    /// LC alone, no BE jobs.
    Solo,
    /// Rhythm: the per-Servpod thresholds derived by profiling.
    Rhythm,
    /// Heracles: uniform thresholds on every machine.
    Heracles,
    /// Custom per-Servpod thresholds (threshold-sweep experiments).
    Custom(Vec<Thresholds>),
}

/// Experiment configuration for one (service, BE, load) cell.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// BE workloads (usually a single job type; several = mixed).
    pub bes: Vec<BeSpec>,
    /// Offered load.
    pub load: LoadGen,
    /// Run length in seconds.
    pub duration_s: u64,
    /// Seed for this run.
    pub seed: u64,
    /// Record the Figure 17 timeline.
    pub record_timeline: bool,
    /// Controller period in ms (paper: 2000). Trace-driven experiments
    /// that compress days of load into minutes scale this down
    /// proportionally, keeping ramp speed per control period realistic.
    pub controller_period_ms: u64,
}

/// Rhythm vs Heracles outcome for one cell.
#[derive(Clone, Debug)]
pub struct ColocationOutcome {
    /// Metrics under Rhythm.
    pub rhythm: RunMetrics,
    /// Metrics under Heracles.
    pub heracles: RunMetrics,
}

/// One-time prepared state for a service: measured SLA, profile and
/// thresholds.
#[derive(Clone, Debug)]
pub struct ServiceContext {
    /// The service (shared: every engine stamped out of this context
    /// reuses the same allocation).
    pub service: Arc<ServiceSpec>,
    /// Measured SLA (paper methodology).
    pub sla_ms: f64,
    /// Derived contributions and thresholds.
    pub thresholds: ServiceThresholds,
    /// Base seed.
    pub seed: u64,
}

impl ServiceContext {
    /// Calibrates the SLA, profiles the service and derives thresholds.
    ///
    /// `probe_bes` are the representative mixed BEs used by the
    /// Algorithm 1 probation runs (the paper recommends mixed-intensity
    /// BEs).
    pub fn prepare(service: ServiceSpec, probe_bes: &[BeSpec], seed: u64) -> ServiceContext {
        let (_, thresholds) = offline_stage(&service, probe_bes, seed, par::width());
        let sla_ms = thresholds.sla_ms;
        ServiceContext {
            service: Arc::new(service),
            sla_ms,
            thresholds,
            seed,
        }
    }

    /// The per-Servpod thresholds for a controller choice. Borrows the
    /// prepared thresholds where possible; only Heracles (uniform
    /// values, materialized per pod) allocates.
    pub fn thresholds_for<'a>(&'a self, choice: &'a ControllerChoice) -> Cow<'a, [Thresholds]> {
        match choice {
            ControllerChoice::Rhythm => Cow::Borrowed(&self.thresholds.thresholds[..]),
            ControllerChoice::Heracles => {
                Cow::Owned(vec![Thresholds::heracles(); self.service.len()])
            }
            ControllerChoice::Custom(t) => Cow::Borrowed(&t[..]),
            ControllerChoice::Solo => Cow::Borrowed(&[]),
        }
    }

    /// Builds the engine configuration one experiment cell runs with —
    /// the single place the (choice, cell) → engine recipe lives, so
    /// other frontends (the cluster runner) stamp out identical engines.
    pub fn engine_config(&self, choice: &ControllerChoice, cfg: &ExperimentConfig) -> EngineConfig {
        let mut ecfg = EngineConfig::solo(0.0, cfg.duration_s, cfg.seed);
        ecfg.load = cfg.load.clone();
        ecfg.sla_ms = self.sla_ms;
        ecfg.record_timeline = cfg.record_timeline;
        ecfg.controller_period = SimDuration::from_millis(cfg.controller_period_ms.max(100));
        match choice {
            ControllerChoice::Solo => {
                ecfg.mode = ControlMode::Solo;
            }
            other => {
                ecfg.bes = cfg.bes.clone();
                ecfg.mode = ControlMode::Managed {
                    thresholds: self.thresholds_for(other).into_owned(),
                };
            }
        }
        ecfg
    }

    /// Runs one experiment cell.
    pub fn run(
        &self,
        choice: ControllerChoice,
        cfg: &ExperimentConfig,
    ) -> (EngineOutput, RunMetrics) {
        let ecfg = self.engine_config(&choice, cfg);
        let out = Engine::new(Arc::clone(&self.service), ecfg).run();
        let metrics = RunMetrics::from_output(&out);
        (out, metrics)
    }

    /// Runs Rhythm and Heracles on the same cell (same seed and load).
    pub fn compare(&self, cfg: &ExperimentConfig) -> ColocationOutcome {
        let (_, rhythm) = self.run(ControllerChoice::Rhythm, cfg);
        let (_, heracles) = self.run(ControllerChoice::Heracles, cfg);
        ColocationOutcome { rhythm, heracles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::improvement;
    use rhythm_workloads::{apps, BeKind};

    fn ctx() -> ServiceContext {
        ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11)
    }

    #[test]
    fn prepare_produces_thresholds() {
        let c = ctx();
        assert_eq!(c.thresholds.thresholds.len(), 2);
        assert!(c.sla_ms > 0.0);
        // Zookeeper's loadlimit should be at least Apache+Solr's (it is
        // the stabler pod).
        let zk = c.service.index_of("zookeeper").unwrap();
        let front = c.service.index_of("apache+solr").unwrap();
        assert!(
            c.thresholds.thresholds[zk].slacklimit <= c.thresholds.thresholds[front].slacklimit
                || c.thresholds.thresholds[zk].loadlimit
                    >= c.thresholds.thresholds[front].loadlimit,
            "zookeeper is controlled less conservatively"
        );
    }

    #[test]
    fn rhythm_beats_heracles_at_high_load() {
        let c = ctx();
        let cell = ExperimentConfig {
            bes: vec![BeSpec::of(BeKind::Wordcount)],
            load: LoadGen::constant(0.85),
            duration_s: 60,
            seed: 23,
            record_timeline: false,
            controller_period_ms: 2_000,
        };
        let outcome = c.compare(&cell);
        // At 85% load Heracles refuses co-location (loadlimit 0.85) while
        // Rhythm still runs BE jobs on tolerant pods.
        assert!(
            outcome.rhythm.be_throughput > outcome.heracles.be_throughput,
            "rhythm {} vs heracles {}",
            outcome.rhythm.be_throughput,
            outcome.heracles.be_throughput
        );
        let emu_gain = improvement(outcome.rhythm.emu, outcome.heracles.emu);
        assert!(emu_gain > 0.0, "EMU gain {emu_gain}");
    }

    #[test]
    fn both_controllers_respect_sla() {
        let c = ctx();
        let cell = ExperimentConfig {
            bes: vec![BeSpec::of(BeKind::StreamDram { big: true })],
            load: LoadGen::constant(0.6),
            duration_s: 60,
            seed: 31,
            record_timeline: false,
            controller_period_ms: 2_000,
        };
        let outcome = c.compare(&cell);
        assert!(
            outcome.rhythm.tail_ratio <= 1.05,
            "rhythm tail ratio {}",
            outcome.rhythm.tail_ratio
        );
        assert!(
            outcome.heracles.tail_ratio <= 1.05,
            "heracles tail ratio {}",
            outcome.heracles.tail_ratio
        );
    }
}
