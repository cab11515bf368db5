//! The offline profiling pipeline (§3.2): "profiling LC once, feedback
//! control BE".
//!
//! For a newly deployed LC service, Rhythm activates the request tracer
//! and contribution analyzer exactly once:
//!
//! 1. **Solo-run sweep** — the service runs alone under a load generator
//!    sweeping a spectrum of load levels; every request's system events
//!    are captured and paired into per-Servpod sojourn times.
//! 2. **Contribution analysis** — Equations 1-5 turn the per-load mean
//!    sojourns into per-Servpod contributions.
//! 3. **Thresholding** — `loadlimit` from the sojourn CoV curves,
//!    `slacklimit` from Algorithm 1 probation runs with representative
//!    mixed BEs.

use crate::par;
use crate::runtime::{ControlMode, Engine, EngineConfig, EngineOutput};
use rhythm_analyzer::contribution::{contributions, Contribution};
use rhythm_analyzer::loadlimit::loadlimits;
use rhythm_analyzer::profile::{LoadLevel, SojournProfile};
use rhythm_analyzer::slacklimit::{Descent, SlacklimitSearch};
use rhythm_controller::Thresholds;
use rhythm_sim::{OnlineStats, SimDuration, SimTime};
use rhythm_tracer::{CaptureConfig, EventCapture, Pairer, VisitLog};
use rhythm_workloads::{BeSpec, ServiceSpec};

/// Profiling configuration.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Load levels to sweep (fractions of max load).
    pub load_levels: Vec<f64>,
    /// Run length per level in seconds.
    pub duration_s: u64,
    /// RNG seed.
    pub seed: u64,
    /// Minimum requests per level: low-load levels are run longer so CoV
    /// estimates stay comparable across the sweep.
    pub min_requests: u64,
    /// If true, sojourns are extracted through the full tracer pipeline
    /// (event capture → noise filter → pairing); if false, ground-truth
    /// sojourns are read directly from the engine (faster, used by the
    /// large experiment sweeps).
    pub use_tracer: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            load_levels: (1..=19).map(|i| f64::from(i) * 0.05).collect(),
            duration_s: 40,
            seed: 42,
            min_requests: 8_000,
            use_tracer: false,
        }
    }
}

/// The thresholds Rhythm derives for one service.
#[derive(Clone, Debug)]
pub struct ServiceThresholds {
    /// Per-Servpod contributions (Equations 1-5).
    pub contributions: Vec<Contribution>,
    /// Per-Servpod thresholds.
    pub thresholds: Vec<Thresholds>,
    /// The measured SLA in ms (the paper's methodology: the worst tail
    /// at max load during a solo run).
    pub sla_ms: f64,
}

/// Measures the service's SLA the way the paper does (§5.1): run the
/// service solo at its maximum allowable load, record the tail latency
/// per interval, "and set the worst one as the SLA". The worst
/// per-window tail over a long run sits well above the aggregate tail,
/// which is what gives the controller its working slack at lower loads.
pub fn calibrate_sla(service: &ServiceSpec, seed: u64) -> f64 {
    let cfg = EngineConfig::solo(1.0, 600, seed ^ 0x51A);
    let out = Engine::new(service.clone(), cfg).run();
    out.worst_window_p99_ms * 1.05
}

/// Runs the solo-run sweep and builds the sojourn profile.
///
/// The levels are independent seeded runs, so they run side by side
/// ([`par::map`] at [`par::width`]); the profile is the same at any
/// width. A traced level streams its run through the tracer a second of
/// virtual time at a time, so it holds about a second's visit records
/// and kernel events rather than the whole run's, whatever the width.
pub fn profile_service(service: &ServiceSpec, cfg: &ProfileConfig) -> SojournProfile {
    profile_at(par::width(), service, cfg)
}

/// [`profile_service`] with `width` levels in flight.
fn profile_at(width: usize, service: &ServiceSpec, cfg: &ProfileConfig) -> SojournProfile {
    let levels = par::map(width, sweep_jobs(service, cfg).collect());
    sojourn_profile(service, levels)
}

/// The sweep's levels as jobs, last level first. A level's run time
/// grows with its request count, and the default sweep ascends in load,
/// so this hands out the longest runs first and the workers finish
/// together instead of waiting on one late long level.
fn sweep_jobs<'a>(
    service: &'a ServiceSpec,
    cfg: &'a ProfileConfig,
) -> impl Iterator<Item = impl FnOnce() -> LoadLevel + Send + 'a> + 'a {
    (cfg.load_levels.iter().enumerate().rev())
        .map(move |(li, &load)| move || profile_level(service, cfg, li, load))
}

/// Profiles level `li` of the sweep, at `load`: one solo run, stretched
/// at low load so it sees at least `cfg.min_requests` requests.
fn profile_level(service: &ServiceSpec, cfg: &ProfileConfig, li: usize, load: f64) -> LoadLevel {
    let seed = cfg.seed.wrapping_add(li as u64);
    let maxload = service.sim_maxload_rps();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a positive whole number of seconds; the cast saturates"
    )]
    let needed_s = (cfg.min_requests as f64 / (load.max(0.01) * maxload)).ceil() as u64;
    let duration_s = cfg.duration_s.max(needed_s);
    let mut ecfg = EngineConfig::solo(load, duration_s, seed);
    ecfg.collect_sojourns = !cfg.use_tracer;
    ecfg.capture_visits = cfg.use_tracer;
    let engine = Engine::new(service.clone(), ecfg);
    let (out, (means, covs, requests)) = if cfg.use_tracer {
        trace_run(engine, duration_s, service.len(), seed)
    } else {
        let out = engine.run();
        let stats = extract_ground_truth(&out, service.len());
        (out, stats)
    };
    LoadLevel {
        load,
        mean_sojourn_ms: means,
        sojourn_cov: covs,
        tail_ms: out.p99_ms(),
        requests,
    }
}

/// The sojourn profile of a sweep's levels, given in [`sweep_jobs`]'s
/// order.
fn sojourn_profile(service: &ServiceSpec, mut levels: Vec<LoadLevel>) -> SojournProfile {
    assert!(!levels.is_empty(), "no load levels");
    levels.reverse();
    SojournProfile {
        pod_names: service
            .component_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        levels,
    }
}

fn extract_ground_truth(out: &EngineOutput, n: usize) -> (Vec<f64>, Vec<f64>, u64) {
    #[expect(
        clippy::expect_used,
        reason = "the calibration run above enables sojourn capture"
    )]
    let sojourns = out.sojourns.as_ref().expect("engine collected sojourns");
    let mut means = Vec::with_capacity(n);
    let mut covs = Vec::with_capacity(n);
    for pod_sojourns in sojourns.iter().take(n) {
        let mut stats = OnlineStats::new();
        for &s in pod_sojourns {
            stats.push(s);
        }
        means.push(stats.mean());
        covs.push(stats.cov());
    }
    (means, covs, out.completed)
}

/// Runs a `duration_s`-second engine through the §3.3 tracer as a
/// pipeline: the engine steps 1 s of virtual time at a time
/// ([`Engine::run_until`]); after each step the flat visit records of
/// the requests it completed ([`Engine::drain_visit_log`], one buffer
/// reused all run, no visit tree per request) are recorded
/// (synthesizing the kernel event stream, noise included), the capture
/// releases every event up to the watermark `min(earliest in-flight
/// arrival, step end)`, and the pairing takes them. Every event of a
/// request is stamped at or after its arrival, so no request recorded
/// later has an event before the watermark: the released pieces
/// concatenate to the whole run's time-sorted stream and the pairing is
/// the batch one, bit for bit. Per-request sojourns are read out at the
/// end.
fn trace_run(
    mut engine: Engine,
    duration_s: u64,
    n: usize,
    seed: u64,
) -> (EngineOutput, (Vec<f64>, Vec<f64>, u64)) {
    let mut capture = EventCapture::new(
        CaptureConfig {
            noise_events_per_request: 4,
            ..CaptureConfig::default()
        },
        seed,
    );
    let mut pairing = Pairer::new(0).stream();
    let mut log = VisitLog::default();
    let steps = (1..=duration_s).map(|s| SimTime::ZERO + SimDuration::from_secs(s));
    for until in steps.chain([SimTime::MAX]) {
        engine.run_until(until);
        engine.drain_visit_log(&mut log);
        for req in log.requests() {
            capture.record(req);
        }
        log.clear();
        let watermark = engine
            .earliest_in_flight_arrival()
            .map_or(until, |arrival| arrival.min(until));
        for e in capture.release(watermark) {
            pairing.feed(e);
        }
    }
    let requests = capture.request_count();
    debug_assert!(capture.events().is_empty(), "a drained run leaves no event");
    let paired = pairing.finish();
    let mut means = Vec::with_capacity(n);
    let mut covs = Vec::with_capacity(n);
    for pod in (0u32..).take(n) {
        let sojourns = paired.sojourns(pod);
        let mut stats = OnlineStats::new();
        for s in sojourns {
            stats.push(s);
        }
        means.push(stats.mean());
        covs.push(stats.cov());
    }
    (engine.finish_run(), (means, covs, requests))
}

/// Algorithm 1 with the probation runs of `width` consecutive candidates
/// in flight at once ([`par::map`]). The candidates do not depend on the
/// outcomes before the first violation ([`Descent`]), so the result,
/// `trials` included, is the one
/// [`find_slacklimits`](rhythm_analyzer::slacklimit::find_slacklimits)
/// returns; at most `width − 1` runs past the first violation are
/// wasted.
pub fn windowed_slacklimits(
    contributions: &[f64],
    width: usize,
    run_system: impl Fn(&[f64]) -> bool + Sync,
) -> SlacklimitSearch {
    let width = width.max(1);
    let mut descent = Descent::new(contributions);
    let mut start = 0;
    let first_violation = loop {
        let window: Vec<Vec<f64>> = (start..start + width)
            .map_while(|k| descent.candidate(k).map(<[f64]>::to_vec))
            .collect();
        if window.is_empty() {
            break None;
        }
        let run_system = &run_system;
        let jobs = window
            .iter()
            .map(|candidate| move || run_system(candidate))
            .collect();
        let violated = par::map(width, jobs);
        if let Some(i) = violated.iter().position(|&v| v) {
            break Some(start + i);
        }
        start += window.len();
    };
    descent.settle(first_violation)
}

/// Derives the per-Servpod thresholds from a profile (§3.5.1).
///
/// `loadlimit` comes from the CoV curves; `slacklimit` from Algorithm 1,
/// where each probation run co-locates the service with the given mixed
/// BEs at a representative load and checks the SLA.
pub fn derive_thresholds(
    service: &ServiceSpec,
    profile: &SojournProfile,
    sla_ms: f64,
    probe_bes: &[BeSpec],
    seed: u64,
) -> ServiceThresholds {
    thresholds_at(par::width(), service, profile, sla_ms, probe_bes, seed)
}

/// [`derive_thresholds`] with `width` probation runs in flight.
fn thresholds_at(
    width: usize,
    service: &ServiceSpec,
    profile: &SojournProfile,
    sla_ms: f64,
    probe_bes: &[BeSpec],
    seed: u64,
) -> ServiceThresholds {
    let contribs = contributions(profile, service);
    let lls = loadlimits(profile);
    let raw: Vec<f64> = contribs.iter().map(|c| c.value).collect();
    let probe_duration = 300;
    let search = windowed_slacklimits(&raw, width, |candidate| {
        let thresholds: Vec<Thresholds> = lls
            .iter()
            .zip(candidate)
            .map(|(&ll, &sl)| Thresholds::new(ll, sl))
            .collect();
        let mut cfg = EngineConfig::solo(0.8, probe_duration, seed ^ 0xBEE5);
        cfg.bes = probe_bes.to_vec();
        cfg.sla_ms = sla_ms;
        cfg.mode = ControlMode::Managed { thresholds };
        let out = Engine::new(service.clone(), cfg).run();
        // Algorithm 1's SLA_evaluation(): any control period that saw
        // slack < 0 during the probation counts as a violation.
        let m = crate::metrics::RunMetrics::from_output(&out);
        m.sla_violations > 0 || out.p99_ms() > sla_ms
    });
    let thresholds = lls
        .iter()
        .zip(&search.slacklimits)
        .map(|(&ll, &sl)| Thresholds::new(ll, sl))
        .collect();
    ServiceThresholds {
        contributions: contribs,
        thresholds,
        sla_ms,
    }
}

/// The whole offline stage of `ServiceContext::prepare` at `width`: the
/// SLA calibration, the solo sweep (ground-truth sojourns, default
/// levels) and Algorithm 1. The calibration and the sweep's levels are
/// independent runs, so they go side by side, the calibration first
/// because it is the longest single run. Any width gives the same bytes.
pub(crate) fn offline_stage(
    service: &ServiceSpec,
    probe_bes: &[BeSpec],
    seed: u64,
    width: usize,
) -> (SojournProfile, ServiceThresholds) {
    let cfg = ProfileConfig {
        seed,
        ..ProfileConfig::default()
    };
    let mut sla_ms = 0.0;
    let sla = &mut sla_ms;
    let cfg = &cfg;
    let mut jobs: Vec<Box<dyn FnOnce() -> Option<LoadLevel> + Send + '_>> =
        vec![Box::new(move || {
            *sla = calibrate_sla(service, seed);
            None
        })];
    jobs.extend(sweep_jobs(service, cfg).map(|job| Box::new(move || Some(job())) as _));
    let levels = par::map(width, jobs).into_iter().flatten().collect();
    let profile = sojourn_profile(service, levels);
    let thresholds = thresholds_at(width, service, &profile, sla_ms, probe_bes, seed);
    (profile, thresholds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_workloads::apps;
    use rhythm_workloads::BeKind;

    fn quick_cfg() -> ProfileConfig {
        ProfileConfig {
            load_levels: vec![0.2, 0.4, 0.6, 0.8],
            duration_s: 15,
            seed: 7,
            min_requests: 500,
            use_tracer: false,
        }
    }

    #[test]
    fn profile_has_expected_shape() {
        let service = apps::ecommerce();
        let p = profile_service(&service, &quick_cfg());
        assert!(p.validate().is_ok());
        assert_eq!(p.pods(), 4);
        assert_eq!(p.level_count(), 4);
        // Tail grows with load.
        let tails = p.tail_series();
        assert!(tails.last().unwrap() > tails.first().unwrap());
    }

    #[test]
    fn mysql_contributes_most_in_ecommerce() {
        let service = apps::ecommerce();
        let p = profile_service(&service, &quick_cfg());
        let c = contributions(&p, &service);
        let mysql = c.iter().find(|x| x.name == "mysql").unwrap();
        for other in c.iter().filter(|x| x.name != "mysql") {
            assert!(
                mysql.value >= other.value,
                "mysql {} vs {} {}",
                mysql.value,
                other.name,
                other.value
            );
        }
    }

    #[test]
    fn tracer_and_ground_truth_agree_on_means() {
        let service = apps::solr();
        let mut cfg = quick_cfg();
        cfg.load_levels = vec![0.3, 0.6];
        let truth = profile_service(&service, &cfg);
        cfg.use_tracer = true;
        let traced = profile_service(&service, &cfg);
        for j in 0..truth.level_count() {
            for i in 0..truth.pods() {
                let a = truth.levels[j].mean_sojourn_ms[i];
                let b = traced.levels[j].mean_sojourn_ms[i];
                assert!(
                    (a - b).abs() / a.max(1e-9) < 0.02,
                    "pod {i} level {j}: truth {a} vs traced {b}"
                );
            }
        }
    }

    #[test]
    fn offline_stage_is_the_same_at_every_width() {
        // Debug prints every f64 in its shortest round-trip form, so equal
        // text is equal bits.
        let service = apps::solr();
        let bes = [BeSpec::of(BeKind::Wordcount)];
        let at = |width| format!("{:?}", offline_stage(&service, &bes, 11, width));
        let sequential = at(1);
        assert_eq!(at(3), sequential);
    }

    #[test]
    fn traced_profile_is_the_same_at_every_width() {
        // A chain and a fan-out service; levels short enough that some
        // are stretched to `min_requests`.
        let mut cfg = quick_cfg();
        cfg.use_tracer = true;
        cfg.duration_s = 8;
        for service in [apps::ecommerce(), apps::snms()] {
            let at = |width| format!("{:?}", profile_at(width, &service, &cfg));
            let sequential = at(1);
            assert_eq!(at(3), sequential, "{}", service.name);
        }
    }

    #[test]
    fn calibrated_sla_is_generous_at_low_load() {
        let service = apps::solr();
        let sla = calibrate_sla(&service, 3);
        assert!(sla > 0.0);
        let out = Engine::new(service, EngineConfig::solo(0.3, 15, 3)).run();
        assert!(out.p99_ms() < sla, "p99 at 30% load is inside the SLA");
    }

    #[test]
    fn thresholds_reflect_contribution_order() {
        let service = apps::ecommerce();
        let p = profile_service(&service, &quick_cfg());
        let sla = calibrate_sla(&service, 7);
        let t = derive_thresholds(&service, &p, sla, &[BeSpec::of(BeKind::Wordcount)], 7);
        assert_eq!(t.thresholds.len(), 4);
        let idx = |name: &str| service.index_of(name).unwrap();
        // MySQL (largest contribution) gets the largest slacklimit —
        // controlled most conservatively (paper: 0.347 vs 0.078/0.04/
        // 0.032).
        let mysql = t.thresholds[idx("mysql")].slacklimit;
        for name in ["haproxy", "tomcat", "amoeba"] {
            assert!(
                mysql >= t.thresholds[idx(name)].slacklimit,
                "mysql {} vs {name} {}",
                mysql,
                t.thresholds[idx(name)].slacklimit
            );
        }
        // Loadlimits are sane fractions.
        for th in &t.thresholds {
            assert!((0.1..=1.0).contains(&th.loadlimit));
        }
    }
}
