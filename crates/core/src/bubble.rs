//! The *indirect* profiling alternative the paper rejects (§3.2).
//!
//! "Bubble pressure" (Bubble-Up / Bubble-Flux) characterizes a Servpod by
//! the amount of tunable synthetic pressure it can tolerate before the
//! SLA breaks; the tolerated "bubble size" plays the role of an inverse
//! contribution. The paper argues this is insufficient because a bubble
//! generates *one-dimensional* interference: a CPU-intensive Servpod with
//! a large true contribution can look tolerant to an I/O bubble, and no
//! single bubble suite represents all BE jobs.
//!
//! This module implements the bubble methodology faithfully so the
//! `repro ablate` harness can compare it against the paper's *directed*
//! (sojourn-time) analysis and reproduce that argument quantitatively.

use crate::runtime::{ControlMode, Engine, EngineConfig};
use rhythm_workloads::{BeKind, BeSpec, ServiceSpec};

/// Which one-dimensional bubble to press with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bubble {
    /// CPU-core pressure (CPU-stress).
    Cpu,
    /// LLC pressure (stream-llc).
    Llc,
    /// Memory-bandwidth pressure (stream-dram).
    Dram,
}

impl Bubble {
    /// The BE job realizing this bubble.
    pub fn be(&self) -> BeSpec {
        match self {
            Bubble::Cpu => BeSpec::of(BeKind::CpuStress),
            Bubble::Llc => BeSpec::of(BeKind::StreamLlc { big: true }),
            Bubble::Dram => BeSpec::of(BeKind::StreamDram { big: true }),
        }
    }
}

/// Result of pressing one Servpod with one bubble.
#[derive(Clone, Debug)]
pub struct BubbleScore {
    /// Servpod name.
    pub pod: String,
    /// The bubble used.
    pub bubble: Bubble,
    /// Largest tolerated bubble size in cores (0 = even the smallest
    /// bubble violates; `max_size` = never violated in the sweep).
    pub tolerated_cores: u32,
}

/// Sweeps bubble sizes against one Servpod until the SLA breaks.
///
/// * `load` — LC load fraction during the pressure test.
/// * `sla_ms` — the SLA to check against.
/// * `max_size` — largest bubble, in cores.
pub fn press(
    service: &ServiceSpec,
    pod: usize,
    bubble: Bubble,
    load: f64,
    sla_ms: f64,
    max_size: u32,
    seed: u64,
) -> BubbleScore {
    let mut tolerated = 0;
    for cores in 1..=max_size {
        let mut cfg = EngineConfig::solo(load, 30, seed ^ ((cores as u64) << 16));
        cfg.bes = vec![bubble.be()];
        cfg.mode = ControlMode::Static {
            instances: 1,
            cores,
            llc_ways: 2 * cores.min(8),
            pods: vec![pod],
        };
        let out = Engine::new(service.clone(), cfg).run();
        if out.worst_window_p99_ms > sla_ms {
            break;
        }
        tolerated = cores;
    }
    BubbleScore {
        pod: service.nodes[pod].component.name.clone(),
        bubble,
        tolerated_cores: tolerated,
    }
}

/// Bubble-derived "contributions": pods ranked by how little pressure
/// they tolerate (the indirect method's stand-in for Equation 4).
///
/// Returns, per Servpod, `1 / (1 + tolerated_cores)` for the given
/// bubble — higher means "contributes more" under the bubble methodology.
pub fn bubble_contributions(
    service: &ServiceSpec,
    bubble: Bubble,
    load: f64,
    sla_ms: f64,
    seed: u64,
) -> Vec<BubbleScore> {
    (0..service.len())
        .map(|pod| press(service, pod, bubble, load, sla_ms, 12, seed))
        .collect()
}

/// Kendall-style pairwise agreement between two rankings given as
/// comparable scores (1.0 = identical order, 0.0 = fully reversed).
///
/// Used to quantify how well a bubble ranking matches the directed
/// contribution ranking.
pub fn ranking_agreement(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "ranking length mismatch");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0.0f64;
    let mut total = 0u32;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            if da * db > 0.0 || (da == 0.0 && db == 0.0) {
                agree += 1.0;
            } else if da == 0.0 || db == 0.0 {
                // A tie on one side is half-informative.
                agree += 0.5;
            }
            total += 1;
        }
    }
    agree / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_workloads::apps;

    #[test]
    fn bubbles_map_to_their_stressors() {
        assert_eq!(Bubble::Cpu.be().name, "CPU-stress");
        assert_eq!(Bubble::Llc.be().name, "stream-llc");
        assert_eq!(Bubble::Dram.be().name, "stream-dram");
    }

    #[test]
    fn sensitive_pod_tolerates_less_dram_bubble() {
        let service = apps::redis();
        // A loose SLA relative to the solo tail at this load.
        let solo = Engine::new(service.clone(), EngineConfig::solo(0.7, 30, 9)).run();
        let sla = solo.worst_window_p99_ms * 1.6;
        let master = press(&service, 0, Bubble::Dram, 0.7, sla, 8, 9);
        let slave = press(&service, 1, Bubble::Dram, 0.7, sla, 8, 9);
        assert!(
            master.tolerated_cores <= slave.tolerated_cores,
            "master tolerates {} vs slave {}",
            master.tolerated_cores,
            slave.tolerated_cores
        );
    }

    #[test]
    fn ranking_agreement_bounds() {
        assert_eq!(
            ranking_agreement(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]),
            1.0
        );
        assert_eq!(ranking_agreement(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), 0.0);
        let half = ranking_agreement(&[1.0, 2.0, 3.0], &[2.0, 1.0, 3.0]);
        assert!(half > 0.0 && half < 1.0);
        // Ties on one side are half-informative.
        let tied = ranking_agreement(&[1.0, 2.0], &[5.0, 5.0]);
        assert_eq!(tied, 0.5);
        assert_eq!(ranking_agreement(&[1.0], &[5.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ranking_agreement_length_mismatch() {
        ranking_agreement(&[1.0], &[1.0, 2.0]);
    }
}
