//! The offline stage (§3.2) taken apart for the traced run.
//!
//! `profile_service` and `derive_thresholds` run engines, the tracer and
//! the analyzer behind one call each. The traced run makes the same
//! public calls itself — `Engine::run`, `EventCapture`, `Pairer::pair`,
//! `contributions`, `loadlimits`, `find_slacklimits` — in the order the
//! pipeline uses, with a span around each. The untraced run keeps the
//! library entry points, and the two must agree bit for bit.

use crate::spans::Spans;
use rhythm_analyzer::loadlimit::loadlimits;
use rhythm_analyzer::{contributions, find_slacklimits, LoadLevel, SojournProfile};
use rhythm_controller::Thresholds;
use rhythm_core::metrics::RunMetrics;
use rhythm_core::profiling::{ProfileConfig, ServiceThresholds};
use rhythm_core::{ControlMode, Engine, EngineConfig, EngineOutput};
use rhythm_sim::OnlineStats;
use rhythm_tracer::{CaptureConfig, EventCapture, Pairer};
use rhythm_workloads::{BeSpec, ServiceSpec};

/// Deterministic work the traced pipeline did.
#[derive(Debug, Default)]
pub struct Work {
    pub engine_runs: u64,
    /// Requests completed by those engine runs.
    pub engine_requests: u64,
    pub tracer_events: u64,
    pub tracer_captured: u64,
    pub tracer_paired: u64,
    pub probation_runs: u64,
}

fn engine_run(
    tr: &mut Spans,
    work: &mut Work,
    service: &ServiceSpec,
    cfg: EngineConfig,
) -> EngineOutput {
    let out = tr.time("core.engine_run", |_| {
        Engine::new(service.clone(), cfg).run()
    });
    work.engine_runs += 1;
    work.engine_requests += out.completed;
    out
}

fn mean_and_cov(samples: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let mut stats = OnlineStats::new();
    for s in samples {
        stats.push(s);
    }
    (stats.mean(), stats.cov())
}

/// `profile_service`, one public call at a time.
pub fn profile(
    service: &ServiceSpec,
    cfg: &ProfileConfig,
    tr: &mut Spans,
    work: &mut Work,
) -> SojournProfile {
    let n = service.len();
    let maxload = service.sim_maxload_rps();
    let mut levels = Vec::with_capacity(cfg.load_levels.len());
    for (li, &load) in cfg.load_levels.iter().enumerate() {
        let needed_s = (cfg.min_requests as f64 / (load.max(0.01) * maxload)).ceil() as u64;
        let seed = cfg.seed.wrapping_add(li as u64);
        let mut ecfg = EngineConfig::solo(load, cfg.duration_s.max(needed_s), seed);
        ecfg.collect_sojourns = !cfg.use_tracer;
        ecfg.capture_visits = cfg.use_tracer;
        let out = engine_run(tr, work, service, ecfg);
        let (stats, requests): (Vec<(f64, f64)>, u64) = if cfg.use_tracer {
            let (events, requests) = tr.time("tracer.capture", |_| {
                let capture_cfg = CaptureConfig {
                    noise_events_per_request: 4,
                    ..CaptureConfig::default()
                };
                let mut capture = EventCapture::new(capture_cfg, seed);
                for tree in &out.visit_trees {
                    capture.record_request(tree);
                }
                let requests = capture.request_count();
                (capture.finish(), requests)
            });
            let paired = tr.time("tracer.pair", |_| Pairer::new(0).pair(&events));
            work.tracer_events += events.len() as u64;
            work.tracer_captured += requests;
            work.tracer_paired += paired.request_count;
            let stats = (0..n)
                .map(|pod| mean_and_cov(paired.sojourns(pod as u32)))
                .collect();
            (stats, requests)
        } else {
            let sojourns = out.sojourns.as_deref().unwrap_or(&[]);
            let stats = (0..n)
                .map(|pod| mean_and_cov(sojourns.get(pod).into_iter().flatten().copied()))
                .collect();
            (stats, out.completed)
        };
        levels.push(LoadLevel {
            load,
            mean_sojourn_ms: stats.iter().map(|s| s.0).collect(),
            sojourn_cov: stats.iter().map(|s| s.1).collect(),
            tail_ms: out.p99_ms(),
            requests,
        });
    }
    SojournProfile {
        pod_names: service
            .component_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        levels,
    }
}

/// `derive_thresholds`, one public call at a time: Equations 1-5, the
/// CoV loadlimits, then Algorithm 1 with its probation engine runs.
pub fn thresholds(
    service: &ServiceSpec,
    profile: &SojournProfile,
    sla_ms: f64,
    probe_bes: &[BeSpec],
    seed: u64,
    tr: &mut Spans,
    work: &mut Work,
) -> ServiceThresholds {
    let contribs = tr.time("analyzer.contributions", |_| {
        contributions(profile, service)
    });
    let lls = tr.time("analyzer.loadlimits", |_| loadlimits(profile));
    let raw: Vec<f64> = contribs.iter().map(|c| c.value).collect();
    let search = tr.time("analyzer.slacklimits", |tr| {
        find_slacklimits(&raw, |candidate| {
            let thresholds = lls
                .iter()
                .zip(candidate)
                .map(|(&ll, &sl)| Thresholds::new(ll, sl))
                .collect();
            let mut cfg = EngineConfig::solo(0.8, 300, seed ^ 0xBEE5);
            cfg.bes = probe_bes.to_vec();
            cfg.sla_ms = sla_ms;
            cfg.mode = ControlMode::Managed { thresholds };
            let out = engine_run(tr, work, service, cfg);
            work.probation_runs += 1;
            let m = RunMetrics::from_output(&out);
            m.sla_violations > 0 || out.p99_ms() > sla_ms
        })
    });
    ServiceThresholds {
        contributions: contribs,
        thresholds: lls
            .iter()
            .zip(&search.slacklimits)
            .map(|(&ll, &sl)| Thresholds::new(ll, sl))
            .collect(),
        sla_ms,
    }
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn feed(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn feed_f64(&mut self, v: f64) {
        self.feed(v.to_bits());
    }

    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.feed(u64::from_le_bytes(word));
        }
        self.feed(bytes.len() as u64);
    }
}

/// Fingerprint of derived thresholds: every contribution term, every
/// threshold and the SLA, bit for bit.
pub fn thresholds_fp(t: &ServiceThresholds) -> u64 {
    let mut h = Fnv::default();
    for c in &t.contributions {
        h.feed_bytes(c.name.as_bytes());
        for v in [c.weight, c.correlation, c.variation, c.alpha, c.value] {
            h.feed_f64(v);
        }
    }
    for th in &t.thresholds {
        h.feed_f64(th.loadlimit);
        h.feed_f64(th.slacklimit);
    }
    h.feed_f64(t.sla_ms);
    h.0
}

/// Fingerprint of a sojourn profile, bit for bit.
pub fn profile_fp(p: &SojournProfile) -> u64 {
    let mut h = Fnv::default();
    for l in &p.levels {
        h.feed_f64(l.load);
        h.feed_f64(l.tail_ms);
        h.feed(l.requests);
        for (&m, &c) in l.mean_sojourn_ms.iter().zip(&l.sojourn_cov) {
            h.feed_f64(m);
            h.feed_f64(c);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_core::profiling::{calibrate_sla, derive_thresholds, profile_service};
    use rhythm_workloads::{apps, BeKind};

    /// The taken-apart pipeline derives exactly what the library does,
    /// through the tracer and from ground truth.
    #[test]
    fn decomposed_pipeline_matches_the_library() {
        let service = apps::solr();
        let bes = [BeSpec::of(BeKind::Wordcount)];
        let sla = calibrate_sla(&service, 5);
        for use_tracer in [true, false] {
            let cfg = ProfileConfig {
                load_levels: vec![0.3, 0.6, 0.9],
                duration_s: 10,
                seed: 5,
                min_requests: 300,
                use_tracer,
            };
            let lib = profile_service(&service, &cfg);
            let lib_t = derive_thresholds(&service, &lib, sla, &bes, 5);
            let mut tr = Spans::new(0);
            let mut work = Work::default();
            let ours = profile(&service, &cfg, &mut tr, &mut work);
            let ours_t = thresholds(&service, &ours, sla, &bes, 5, &mut tr, &mut work);
            assert_eq!(
                profile_fp(&lib),
                profile_fp(&ours),
                "use_tracer={use_tracer}"
            );
            assert_eq!(
                thresholds_fp(&lib_t),
                thresholds_fp(&ours_t),
                "use_tracer={use_tracer}"
            );
            assert_eq!(work.engine_runs, 3 + work.probation_runs);
            assert_eq!(tr.count("core.engine_run"), work.engine_runs);
            assert!(work.probation_runs > 1, "Algorithm 1 stepped at least once");
            assert_eq!(work.tracer_events > 0, use_tracer);
        }
    }
}
