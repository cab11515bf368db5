//! Figure 18 and Table 2 — sensitivity of the thresholds.
//!
//! Fixing the other Servpods at their derived thresholds, MySQL's
//! loadlimit (or slacklimit) is scaled to 70-130% of the derived value;
//! for each level we measure normalized BE throughput, SLA violations
//! and BE kills. The paper finds BE throughput peaks around the 90%
//! level, but below 100% the SLA starts being violated — i.e. the
//! derived thresholds are close to optimal on the safe side.

use crate::Report;
use rhythm_controller::Thresholds;
use rhythm_core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm_core::par;
use rhythm_sim::SimDuration;
use rhythm_telemetry::json::{self, Obj, Sink, ToJson};
use rhythm_workloads::{apps, BeKind, BeSpec, LoadGen};

const DURATION_S: u64 = 600;
const LEVELS: [u32; 7] = [70, 80, 90, 100, 110, 120, 130];

/// One sweep row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Which threshold is varied ("slacklimit" or "loadlimit").
    pub varied: &'static str,
    /// Level in percent of the derived value.
    pub level_pct: u32,
    /// The actual threshold value used.
    pub value: f64,
    /// BE throughput normalized to the 100% level.
    pub be_throughput_norm: f64,
    /// Raw BE throughput.
    pub be_throughput: f64,
    /// SLA violation ticks.
    pub sla_violations: u64,
    /// BE jobs killed.
    pub be_kills: u64,
}

impl ToJson for Row {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("varied", self.varied)
            .field("level_pct", self.level_pct)
            .field("value", self.value)
            .field("be_throughput_norm", self.be_throughput_norm)
            .field("be_throughput", self.be_throughput)
            .field("sla_violations", self.sla_violations)
            .field("be_kills", self.be_kills)
            .close();
    }
}

/// The dataset behind Figure 18 and Table 2.
#[derive(Clone, Debug)]
pub struct Fig18 {
    /// Derived MySQL thresholds (loadlimit, slacklimit).
    pub derived: (f64, f64),
    /// All sweep rows.
    pub rows: Vec<Row>,
}

impl ToJson for Fig18 {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("derived", self.derived)
            .field("rows", &self.rows)
            .close();
    }
}

/// Collects the sweep.
pub fn collect(seed: u64) -> Fig18 {
    let ctx = ServiceContext::prepare(apps::ecommerce(), &BeSpec::colocation_set(), seed);
    let mysql = ctx.service.index_of("mysql").expect("mysql");
    let base = ctx.thresholds.thresholds[mysql];
    let mut jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = Vec::new();
    for varied in ["slacklimit", "loadlimit"] {
        for level in LEVELS {
            if varied == "loadlimit" && level == 130 {
                continue; // The paper's table marks this level as "-".
            }
            let ctx = ctx.clone();
            jobs.push(Box::new(move || {
                let mut thresholds = ctx.thresholds.thresholds.clone();
                let scale = f64::from(level) / 100.0;
                let value;
                thresholds[mysql] = match varied {
                    "slacklimit" => {
                        value = base.slacklimit * scale;
                        Thresholds::new(base.loadlimit, value)
                    }
                    _ => {
                        value = (base.loadlimit * scale).min(1.0);
                        Thresholds::new(value, base.slacklimit)
                    }
                };
                let load =
                    LoadGen::clarknet_like(3, SimDuration::from_secs(DURATION_S), 300, 0.95, seed);
                let cfg = ExperimentConfig {
                    bes: vec![BeSpec::of(BeKind::Wordcount)],
                    load,
                    duration_s: DURATION_S,
                    seed: seed ^ (u64::from(level) << 3),
                    record_timeline: false,
                    controller_period_ms: 500,
                };
                let (_, m) = ctx.run(ControllerChoice::Custom(thresholds), &cfg);
                Row {
                    varied,
                    level_pct: level,
                    value,
                    be_throughput_norm: 0.0, // Filled after the sweep.
                    be_throughput: m.be_throughput,
                    sla_violations: m.sla_violations,
                    be_kills: m.be_kills,
                }
            }));
        }
    }
    let mut rows = par::map(par::width(), jobs);
    for varied in ["slacklimit", "loadlimit"] {
        let base_tp = rows
            .iter()
            .find(|r| r.varied == varied && r.level_pct == 100)
            .map(|r| r.be_throughput)
            .unwrap_or(1.0)
            .max(1e-9);
        for r in rows.iter_mut().filter(|r| r.varied == varied) {
            r.be_throughput_norm = r.be_throughput / base_tp;
        }
    }
    Fig18 {
        derived: (base.loadlimit, base.slacklimit),
        rows,
    }
}

/// Writes the Figure 18 report from a collected sweep.
pub fn render_fig18(d: &Fig18) -> std::io::Result<()> {
    let mut report = Report::new("fig18", "threshold level vs BE throughput (Figure 18)");
    report.line(format!(
        "derived MySQL thresholds: loadlimit={:.0}% slacklimit={:.3}",
        d.derived.0 * 100.0,
        d.derived.1
    ));
    report.line(format!(
        "{:<12} {:>6} {:>9} {:>12} {:>14}",
        "varied", "level", "value", "BE tp", "BE tp (norm)"
    ));
    for r in &d.rows {
        report.line(format!(
            "{:<12} {:>5}% {:>9.3} {:>12.3} {:>14.2}",
            r.varied, r.level_pct, r.value, r.be_throughput, r.be_throughput_norm
        ));
    }
    report.finish(json::to_string(d))
}

/// Runs the experiment and writes the Figure 18 report.
pub fn run() -> std::io::Result<()> {
    render_fig18(&collect(0xF18))
}

/// Runs the sweep and writes the Table 2 report (SLA violations and BE
/// kills per level). Reuses fresh data for a standalone invocation.
pub fn run_tab2() -> std::io::Result<()> {
    let d = collect(0xF18);
    render_tab2(&d)
}

/// Writes the Table 2 report from a collected sweep.
pub fn render_tab2(d: &Fig18) -> std::io::Result<()> {
    let mut report = Report::new(
        "tab2",
        "SLA violations and BE kills when varying loadlimit/slacklimit (Table 2)",
    );
    report.line(format!(
        "{:<7} | {:>10} {:>13} {:>9} | {:>10} {:>13} {:>9}",
        "level", "slacklimit", "SLAviolation", "BEkills", "loadlimit", "SLAviolation", "BEkills"
    ));
    for level in LEVELS {
        let pick = |varied: &str| {
            d.rows
                .iter()
                .find(|r| r.varied == varied && r.level_pct == level)
        };
        let s = pick("slacklimit");
        let l = pick("loadlimit");
        let fmt = |r: Option<&Row>| match r {
            Some(r) => format!(
                "{:>10.3} {:>13} {:>9}",
                r.value, r.sla_violations, r.be_kills
            ),
            None => format!("{:>10} {:>13} {:>9}", "-", "-", "-"),
        };
        report.line(format!("{:<6}% | {} | {}", level, fmt(s), fmt(l)));
    }
    report.line("paper: shrinking slacklimit below 100% causes violations/kills; loadlimit is safe up to 100% and violates above it");
    report.finish(json::to_string(d))
}
