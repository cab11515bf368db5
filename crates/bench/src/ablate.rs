//! Ablations of Rhythm's design choices (DESIGN.md §5).
//!
//! * **Contribution definition** — Equation 4 is the product ρ·P·V;
//!   what happens with each factor alone?
//! * **Critical-path scaling** — Equation 5's α on vs off for the
//!   fan-out SNMS service.
//! * **Controller period** — the paper picks 2 s as the
//!   efficiency/safety trade-off.
//! * **Per-Servpod vs uniform thresholds** — Rhythm's machinery with its
//!   own thresholds averaged uniformly across pods, isolating where the
//!   gain comes from.

use crate::Report;
use rhythm_analyzer::contributions;
use rhythm_analyzer::loadlimit::loadlimits;
use rhythm_analyzer::slacklimit::find_slacklimits;
use rhythm_controller::Thresholds;
use rhythm_core::bubble::{bubble_contributions, ranking_agreement, Bubble};
use rhythm_core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm_core::par;
use rhythm_core::profiling::{calibrate_sla, profile_service, ProfileConfig};
use rhythm_core::runtime::{ControlMode, Engine, EngineConfig};
use rhythm_sim::SimDuration;
use rhythm_telemetry::json::{self, Obj, Sink, ToJson};
use rhythm_workloads::{apps, BeSpec, LoadGen};

const DURATION_S: u64 = 300;

/// Outcome of one ablation variant.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// EMU achieved.
    pub emu: f64,
    /// BE throughput achieved.
    pub be_throughput: f64,
    /// SLA violation ticks.
    pub sla_violations: u64,
    /// Worst tail/SLA.
    pub tail_ratio: f64,
}

impl ToJson for Variant {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("name", &self.name)
            .field("emu", self.emu)
            .field("be_throughput", self.be_throughput)
            .field("sla_violations", self.sla_violations)
            .field("tail_ratio", self.tail_ratio)
            .close();
    }
}

fn run_with_thresholds(
    ctx: &ServiceContext,
    name: &str,
    thresholds: Vec<Thresholds>,
    seed: u64,
) -> Variant {
    let load = LoadGen::clarknet_like(3, SimDuration::from_secs(DURATION_S), 150, 0.9, seed);
    let cfg = ExperimentConfig {
        bes: BeSpec::colocation_set(),
        load,
        duration_s: DURATION_S,
        seed,
        record_timeline: false,
        controller_period_ms: 500,
    };
    let (_, m) = ctx.run(ControllerChoice::Custom(thresholds), &cfg);
    Variant {
        name: name.to_string(),
        emu: m.emu,
        be_throughput: m.be_throughput,
        sla_violations: m.sla_violations,
        tail_ratio: m.tail_ratio,
    }
}

/// Ablates the contribution definition on e-commerce: thresholds are
/// re-derived with each factor of Equation 4 alone.
pub fn contribution_ablation(seed: u64) -> Vec<Variant> {
    let service = apps::ecommerce();
    let sla = calibrate_sla(&service, seed);
    let profile = profile_service(
        &service,
        &ProfileConfig {
            seed,
            ..ProfileConfig::default()
        },
    );
    let contribs = rhythm_analyzer::contributions(&profile, &service);
    let lls = loadlimits(&profile);
    let variants: Vec<(&str, Vec<f64>)> = vec![
        ("full (rho*P*V)", contribs.iter().map(|c| c.value).collect()),
        (
            "weight only (P)",
            contribs.iter().map(|c| c.weight).collect(),
        ),
        (
            "variation only (V)",
            contribs.iter().map(|c| c.variation).collect(),
        ),
        (
            "correlation only (rho)",
            contribs.iter().map(|c| c.correlation).collect(),
        ),
        ("uniform", vec![1.0; contribs.len()]),
    ];
    let ctx = ServiceContext::prepare(service, &BeSpec::colocation_set(), seed);
    let jobs: Vec<Box<dyn FnOnce() -> Variant + Send>> = variants
        .into_iter()
        .map(|(name, values)| {
            let ctx = ctx.clone();
            let lls = lls.clone();
            Box::new(move || {
                // Slacklimits from the ablated contribution values, with
                // the same probation runs the real pipeline uses — the
                // *descent direction* is what each variant changes.
                let search = find_slacklimits(&values, |candidate| {
                    let thresholds: Vec<Thresholds> = lls
                        .iter()
                        .zip(candidate)
                        .map(|(&ll, &sl)| Thresholds::new(ll, sl))
                        .collect();
                    let mut pcfg = EngineConfig::solo(0.8, 120, seed ^ 0xAB);
                    pcfg.bes = BeSpec::colocation_set();
                    pcfg.sla_ms = ctx.sla_ms;
                    pcfg.mode = ControlMode::Managed { thresholds };
                    let out = Engine::new(ctx.service.clone(), pcfg).run();
                    let m = rhythm_core::metrics::RunMetrics::from_output(&out);
                    m.sla_violations > 0
                });
                let thresholds: Vec<Thresholds> = lls
                    .iter()
                    .zip(&search.slacklimits)
                    .map(|(&ll, &sl)| Thresholds::new(ll, sl))
                    .collect();
                run_with_thresholds(&ctx, name, thresholds, seed)
            }) as _
        })
        .collect();
    let _ = sla;
    par::map(par::width(), jobs)
}

/// Ablates the controller period on solr with wordcount at high load.
pub fn period_ablation(seed: u64) -> Vec<Variant> {
    let ctx = ServiceContext::prepare(apps::solr(), &BeSpec::colocation_set(), seed);
    let jobs: Vec<Box<dyn FnOnce() -> Variant + Send>> = [500u64, 1_000, 2_000, 4_000, 8_000]
        .into_iter()
        .map(|period_ms| {
            let ctx = ctx.clone();
            Box::new(move || {
                let mut cfg = EngineConfig::solo(0.75, DURATION_S, seed);
                cfg.load =
                    LoadGen::clarknet_like(2, SimDuration::from_secs(DURATION_S), 60, 0.95, seed);
                cfg.bes = BeSpec::colocation_set();
                cfg.sla_ms = ctx.sla_ms;
                cfg.controller_period = SimDuration::from_millis(period_ms);
                cfg.mode = ControlMode::Managed {
                    thresholds: ctx.thresholds.thresholds.clone(),
                };
                let out = Engine::new(ctx.service.clone(), cfg).run();
                let m = rhythm_core::metrics::RunMetrics::from_output(&out);
                Variant {
                    name: format!("period {}ms", period_ms),
                    emu: m.emu,
                    be_throughput: m.be_throughput,
                    sla_violations: m.sla_violations,
                    tail_ratio: m.tail_ratio,
                }
            }) as _
        })
        .collect();
    par::map(par::width(), jobs)
}

/// Ablates Equation 5's critical-path scaling on SNMS: α as derived vs
/// forced to 1 (contributions unscaled).
pub fn fanout_ablation(seed: u64) -> Vec<Variant> {
    let ctx = ServiceContext::prepare(apps::snms(), &BeSpec::colocation_set(), seed);
    // Variant without α: re-derive slacklimits from unscaled values.
    let unscaled: Vec<f64> = ctx
        .thresholds
        .contributions
        .iter()
        .map(|c| {
            if c.alpha > 0.0 {
                c.value / c.alpha
            } else {
                c.value
            }
        })
        .collect();
    let lls: Vec<f64> = ctx
        .thresholds
        .thresholds
        .iter()
        .map(|t| t.loadlimit)
        .collect();
    let search = find_slacklimits(&unscaled, |_| false);
    let no_alpha: Vec<Thresholds> = lls
        .iter()
        .zip(&search.slacklimits)
        .map(|(&ll, &sl)| Thresholds::new(ll, sl))
        .collect();
    vec![
        run_with_thresholds(
            &ctx,
            "with alpha (Eq.5)",
            ctx.thresholds.thresholds.clone(),
            seed,
        ),
        run_with_thresholds(&ctx, "without alpha", no_alpha, seed),
    ]
}

fn render(vs: &[Variant]) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>8} {:>12} {:>10}\n",
        "variant", "EMU", "BE tp", "violations", "tail/SLA"
    );
    for v in vs {
        out.push_str(&format!(
            "{:<24} {:>8.3} {:>8.3} {:>12} {:>10.2}\n",
            v.name, v.emu, v.be_throughput, v.sla_violations, v.tail_ratio
        ));
    }
    out
}

/// Compares the paper's directed (sojourn-time) contribution analysis
/// against the indirect bubble-pressure alternative it rejects (§3.2):
/// how well does each one-dimensional bubble's ranking agree with the
/// directed ranking?
pub fn bubble_comparison(seed: u64) -> Vec<(&'static str, f64)> {
    let service = apps::ecommerce();
    let sla = calibrate_sla(&service, seed);
    let profile = profile_service(
        &service,
        &ProfileConfig {
            seed,
            ..ProfileConfig::default()
        },
    );
    let directed: Vec<f64> = contributions(&profile, &service)
        .iter()
        .map(|c| c.value)
        .collect();
    [Bubble::Cpu, Bubble::Llc, Bubble::Dram]
        .into_iter()
        .map(|b| {
            let scores = bubble_contributions(&service, b, 0.85, sla, seed);
            let indirect: Vec<f64> = scores
                .iter()
                .map(|s| 1.0 / (1.0 + f64::from(s.tolerated_cores)))
                .collect();
            let label = match b {
                Bubble::Cpu => "bubble: CPU",
                Bubble::Llc => "bubble: LLC",
                Bubble::Dram => "bubble: DRAM",
            };
            (label, ranking_agreement(&directed, &indirect))
        })
        .collect()
}

/// Runs all ablations and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = Report::new("ablate", "design-choice ablations (DESIGN.md §5)");
    let c = contribution_ablation(0xAB1);
    report.line("contribution definition (e-commerce, mixed BEs, production-like load):");
    report.line(render(&c));
    let p = period_ablation(0xAB2);
    report.line("controller period (solr, mixed BEs, 75% load):");
    report.line(render(&p));
    let f = fanout_ablation(0xAB3);
    report.line("critical-path scaling α (SNMS, mixed BEs):");
    report.line(render(&f));
    let b = bubble_comparison(0xAB4);
    report.line(
        "directed vs bubble-pressure profiling (§3.2): ranking agreement with Eq.4 contributions",
    );
    for (label, agreement) in &b {
        report.line(format!("  {label:<14} pairwise agreement {:.2}", agreement));
    }
    report.line("  (the paper's argument: no single one-dimensional bubble reproduces the directed ranking)");
    report.finish(json::to_string(&(&c, &p, &f, &b)))
}
