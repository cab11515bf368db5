//! End-to-end integration tests: the full Rhythm pipeline across crates.
//!
//! These span profiling (engine → tracer → analyzer), threshold
//! derivation, and runtime control (controller → machine → interference
//! → engine), asserting the paper's qualitative claims hold in the
//! assembled system.

use rhythm::analyzer::contributions;
use rhythm::analyzer::loadlimit::loadlimits;
use rhythm::controller::BeAction;
use rhythm::core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm::core::{profile_service, ControlMode, Engine, EngineConfig, ProfileConfig};
use rhythm::prelude::*;

fn quick_profile_cfg(levels: usize) -> ProfileConfig {
    ProfileConfig {
        load_levels: (1..=levels)
            .map(|i| i as f64 / (levels as f64 + 1.0))
            .collect(),
        duration_s: 20,
        seed: 99,
        min_requests: 1_500,
        use_tracer: false,
    }
}

#[test]
fn profiling_pipeline_end_to_end() {
    // Engine solo runs → sojourn profile → contributions → loadlimits.
    let service = apps::ecommerce();
    let profile = profile_service(&service, &quick_profile_cfg(6));
    assert!(profile.validate().is_ok());
    let contribs = contributions(&profile, &service);
    assert_eq!(contribs.len(), 4);
    // The bottleneck (MySQL) dominates the contributions.
    let mysql = service.index_of("mysql").unwrap();
    let max = contribs.iter().map(|c| c.value).fold(f64::MIN, f64::max);
    assert!((contribs[mysql].value - max).abs() < 1e-12, "{contribs:?}");
    let lls = loadlimits(&profile);
    for &ll in &lls {
        assert!((0.05..=1.0).contains(&ll));
    }
}

#[test]
fn tracer_profile_matches_ground_truth_profile() {
    let service = apps::solr();
    let mut cfg = quick_profile_cfg(4);
    let truth = profile_service(&service, &cfg);
    cfg.use_tracer = true;
    let traced = profile_service(&service, &cfg);
    for level in 0..truth.level_count() {
        for pod in 0..truth.pods() {
            let a = truth.levels[level].mean_sojourn_ms[pod];
            let b = traced.levels[level].mean_sojourn_ms[pod];
            assert!(
                (a - b).abs() / a < 0.02,
                "level {level} pod {pod}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn interference_degrades_the_right_component() {
    // Static stream-dram next to the Redis master must hurt far more
    // than next to the slave (§2's central observation).
    let service = apps::redis();
    let load = 0.7;
    let p99_with_be_at = |pod: usize| {
        let mut cfg = EngineConfig::solo(load, 40, 5);
        cfg.bes = vec![BeSpec::of(BeKind::StreamDram { big: true })];
        cfg.mode = ControlMode::Static {
            instances: 1,
            cores: 4,
            llc_ways: 2,
            pods: vec![pod],
        };
        Engine::new(service.clone(), cfg).run().p99_ms()
    };
    let solo = Engine::new(service.clone(), EngineConfig::solo(load, 40, 5))
        .run()
        .p99_ms();
    let at_master = p99_with_be_at(0);
    let at_slave = p99_with_be_at(1);
    let master_incr = (at_master - solo) / solo;
    let slave_incr = (at_slave - solo) / solo;
    assert!(
        master_incr > 2.0 * slave_incr.max(0.01),
        "master +{master_incr:.2} vs slave +{slave_incr:.2}"
    );
}

#[test]
fn full_colocation_pipeline_rhythm_vs_heracles() {
    let ctx = ServiceContext::prepare(apps::elasticsearch(), &BeSpec::colocation_set(), 7);
    // Sanity on the derived artifacts.
    assert_eq!(ctx.thresholds.thresholds.len(), 2);
    assert!(ctx.sla_ms.is_finite() && ctx.sla_ms > 0.0);
    let cell = ExperimentConfig {
        bes: vec![BeSpec::of(BeKind::Wordcount)],
        load: LoadGen::constant(0.85),
        duration_s: 90,
        seed: 7,
        record_timeline: false,
        controller_period_ms: 2_000,
    };
    let outcome = ctx.compare(&cell);
    // At 85% load Rhythm out-produces Heracles (whose loadlimit is 0.85).
    assert!(
        outcome.rhythm.be_throughput >= outcome.heracles.be_throughput,
        "rhythm {} vs heracles {}",
        outcome.rhythm.be_throughput,
        outcome.heracles.be_throughput
    );
    assert!(outcome.rhythm.emu >= outcome.heracles.emu);
}

#[test]
fn solo_latency_is_monotone_in_load_for_every_app() {
    for service in apps::all_apps() {
        let p99 = |load: f64| {
            Engine::new(service.clone(), EngineConfig::solo(load, 25, 3))
                .run()
                .p99_ms()
        };
        let lo = p99(0.2);
        let hi = p99(0.95);
        assert!(
            hi > lo,
            "{}: p99 {lo:.1} at 20% vs {hi:.1} at 95%",
            service.name
        );
    }
}

#[test]
fn controller_actions_follow_algorithm_2_in_vivo() {
    // Drive a managed engine through distinct load phases and verify the
    // observed action mix: growth during slack, suspension at overload.
    let service = apps::solr();
    let mut cfg = EngineConfig::solo(0.3, 120, 13);
    cfg.bes = vec![BeSpec::of(BeKind::Wordcount)];
    cfg.sla_ms = 2_000.0;
    cfg.record_timeline = true;
    cfg.load = LoadGen::Trace {
        samples: vec![0.3, 0.3, 0.3, 0.98, 0.98, 0.3],
        interval: rhythm::sim::SimDuration::from_secs(20),
    };
    cfg.mode = ControlMode::Managed {
        thresholds: vec![Thresholds::new(0.9, 0.05); 2],
    };
    let out = Engine::new(service, cfg).run();
    let grew = out
        .timeline
        .iter()
        .any(|p| p.be_cores.iter().sum::<u32>() > 0);
    assert!(grew, "BE population grew during the low-load phase");
    // During the overload phase (load > loadlimit 0.9) running BE cores
    // drop to zero at some point.
    let overload_suspended = out
        .timeline
        .iter()
        .filter(|p| p.load > 0.92)
        .any(|p| p.be_throughput.iter().sum::<f64>() == 0.0);
    assert!(overload_suspended, "suspension during overload");
    for pod in &out.pods {
        let stats = pod.agent.expect("managed run has agents");
        assert!(stats.ticks > 0);
        let allow = stats.action_counts[BeAction::AllowBeGrowth.severity() as usize];
        assert!(allow > 0, "growth happened");
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let ctx_a = ServiceContext::prepare(apps::redis(), &[BeSpec::of(BeKind::Lstm)], 21);
    let ctx_b = ServiceContext::prepare(apps::redis(), &[BeSpec::of(BeKind::Lstm)], 21);
    assert_eq!(ctx_a.sla_ms, ctx_b.sla_ms);
    for (a, b) in ctx_a
        .thresholds
        .thresholds
        .iter()
        .zip(&ctx_b.thresholds.thresholds)
    {
        assert_eq!(a.loadlimit, b.loadlimit);
        assert_eq!(a.slacklimit, b.slacklimit);
    }
    let cell = ExperimentConfig {
        bes: vec![BeSpec::of(BeKind::Lstm)],
        load: LoadGen::constant(0.6),
        duration_s: 40,
        seed: 21,
        record_timeline: false,
        controller_period_ms: 2_000,
    };
    let (_, ma) = ctx_a.run(ControllerChoice::Rhythm, &cell);
    let (_, mb) = ctx_b.run(ControllerChoice::Rhythm, &cell);
    assert_eq!(ma.emu, mb.emu);
    assert_eq!(ma.p99_ms, mb.p99_ms);
}

#[test]
fn suspended_be_keeps_memory_in_vivo() {
    // Overload suspends BEs; the machine accounting must show retained
    // memory (SuspendBE semantics) rather than kills.
    let service = apps::elasticsearch();
    let mut cfg = EngineConfig::solo(0.5, 80, 17);
    cfg.bes = vec![BeSpec::of(BeKind::ImageClassify)];
    cfg.sla_ms = 50_000.0; // Generous: the overload must trip the loadlimit, not StopBE.
    cfg.record_timeline = true;
    cfg.load = LoadGen::Trace {
        samples: vec![0.4, 0.6, 0.93, 0.93],
        interval: rhythm::sim::SimDuration::from_secs(20),
    };
    cfg.mode = ControlMode::Managed {
        thresholds: vec![Thresholds::new(0.85, 0.05); 2],
    };
    let out = Engine::new(service, cfg).run();
    // Find a timeline point in the overload phase with instances alive
    // but zero throughput: suspended, not killed.
    let suspended_point = out.timeline.iter().find(|p| {
        p.load > 0.88
            && p.be_instances.iter().sum::<u32>() > 0
            && p.be_throughput.iter().sum::<f64>() == 0.0
    });
    assert!(
        suspended_point.is_some(),
        "found a suspended-but-alive BE population"
    );
}
