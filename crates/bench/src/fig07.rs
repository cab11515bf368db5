//! Figure 7 — Servpod sensitivity vs contribution.
//!
//! For each E-commerce Servpod: x = its contribution (Equations 1-5 from
//! the solo profile), y = the increase in the service's 99p latency when
//! *only that Servpod* is co-located with a BE group. The paper's
//! validation claim is a positive correlation regardless of BE.

use rhythm_analyzer::contributions;
use rhythm_core::par;
use rhythm_core::{profile_service, ControlMode, Engine, EngineConfig, ProfileConfig};
use rhythm_sim::pearson;
use rhythm_workloads::{apps, BeKind, BeSpec};
use serde::Serialize;

/// The BE groups of Figure 7.
fn groups() -> Vec<(&'static str, Vec<BeSpec>)> {
    vec![
        (
            "mixed",
            vec![
                BeSpec::of(BeKind::Wordcount),
                BeSpec::of(BeKind::ImageClassify),
                BeSpec::of(BeKind::Lstm),
                BeSpec::of(BeKind::CpuStress),
                BeSpec::of(BeKind::StreamDram { big: true }),
                BeSpec::of(BeKind::StreamLlc { big: true }),
            ],
        ),
        (
            "stream-dram",
            vec![BeSpec::of(BeKind::StreamDram { big: true })],
        ),
        ("CPU-stress", vec![BeSpec::of(BeKind::CpuStress)]),
        (
            "stream-llc",
            vec![BeSpec::of(BeKind::StreamLlc { big: true })],
        ),
    ]
}

/// One scatter point.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// BE group label.
    pub group: &'static str,
    /// Servpod name.
    pub pod: String,
    /// Contribution (x-axis).
    pub contribution: f64,
    /// Sensitivity: relative 99p increase under interference (y-axis).
    pub sensitivity: f64,
}

/// The Figure 7 dataset.
#[derive(Clone, Debug, Serialize)]
pub struct Fig07 {
    /// All scatter points.
    pub points: Vec<Point>,
    /// Pearson correlation per group.
    pub correlation: Vec<(&'static str, f64)>,
}

const LOAD: f64 = 0.65;
const DURATION_S: u64 = 120;

/// Collects the dataset.
pub fn collect(seed: u64) -> Fig07 {
    let service = apps::ecommerce();
    let profile = profile_service(
        &service,
        &ProfileConfig {
            seed,
            ..ProfileConfig::default()
        },
    );
    let contribs = contributions(&profile, &service);
    let solo = Engine::new(service.clone(), EngineConfig::solo(LOAD, DURATION_S, seed)).run();
    let solo_p99 = solo.p99_ms();
    let mut jobs: Vec<Box<dyn FnOnce() -> Point + Send>> = Vec::new();
    for (pod, node) in service.nodes.iter().enumerate() {
        for (label, bes) in groups() {
            let service = service.clone();
            let name = node.component.name.clone();
            let contribution = contribs[pod].value;
            jobs.push(Box::new(move || {
                let mut cfg = EngineConfig::solo(LOAD, DURATION_S, seed);
                cfg.bes = bes;
                cfg.mode = ControlMode::Static {
                    instances: 2,
                    cores: 4,
                    llc_ways: 6,
                    pods: vec![pod],
                };
                let out = Engine::new(service, cfg).run();
                Point {
                    group: label,
                    pod: name,
                    contribution,
                    sensitivity: (out.p99_ms() - solo_p99) / solo_p99,
                }
            }));
        }
    }
    let points = par::map(par::width(), jobs);
    let correlation = groups()
        .iter()
        .map(|(label, _)| {
            let xs: Vec<f64> = points
                .iter()
                .filter(|p| p.group == *label)
                .map(|p| p.contribution)
                .collect();
            let ys: Vec<f64> = points
                .iter()
                .filter(|p| p.group == *label)
                .map(|p| p.sensitivity)
                .collect();
            (*label, pearson(&xs, &ys))
        })
        .collect();
    Fig07 {
        points,
        correlation,
    }
}

/// Renders the scatter as a table.
pub fn render(d: &Fig07) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<12} {:>14} {:>14}\n",
        "group", "servpod", "contribution", "sensitivity"
    ));
    for p in &d.points {
        out.push_str(&format!(
            "{:<14} {:<12} {:>14.4} {:>13.2}x\n",
            p.group, p.pod, p.contribution, p.sensitivity
        ));
    }
    out.push('\n');
    for (g, r) in &d.correlation {
        out.push_str(&format!(
            "{g:<14} contribution-sensitivity Pearson r = {r:.3}\n"
        ));
    }
    out
}

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = crate::Report::new("fig07", "Servpod sensitivity vs contribution (Figure 7)");
    let d = collect(0xF07);
    report.line(render(&d));
    report.line("paper: sensitivity is positively correlated with contribution for every BE group");
    report.finish(&d)
}
