//! Figure 17 — the timeline of Rhythm's running process.
//!
//! E-commerce co-located with Wordcount under the production load; the
//! recorded timeline shows load vs loadlimit, slack vs slacklimit, and
//! the BE population (cores, LLC, instances, throughput) on the Tomcat
//! and MySQL Servpods, driven through growth / SuspendBE / CutBE /
//! recovery cycles.

use crate::Report;
use rhythm_core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm_core::timeline::{phase_summary, render};
use rhythm_sim::SimDuration;
use rhythm_telemetry::json::{self, Obj, Sink, ToJson};
use rhythm_workloads::{apps, BeKind, BeSpec, LoadGen};

const DURATION_S: u64 = 20 * 60;

/// The Figure 17 dataset.
#[derive(Clone, Debug)]
pub struct Fig17 {
    /// Thresholds of the observed pods (name, loadlimit, slacklimit).
    pub thresholds: Vec<(String, f64, f64)>,
    /// Recorded timeline points.
    pub timeline: Vec<rhythm_core::runtime::TimelinePoint>,
    /// Phase labels over time for MySQL.
    pub mysql_phases: Vec<(f64, &'static str)>,
}

impl ToJson for Fig17 {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("thresholds", &self.thresholds)
            .field("timeline", &self.timeline)
            .field("mysql_phases", &self.mysql_phases)
            .close();
    }
}

/// Collects the dataset.
pub fn collect(seed: u64) -> Fig17 {
    let ctx = ServiceContext::prepare(apps::ecommerce(), &BeSpec::colocation_set(), seed);
    // A trace with one pronounced peak per ~7 minutes so the 20-minute
    // window shows growth, suspension and recovery (the paper's Figure 17
    // shows exactly these transitions).
    let load = LoadGen::clarknet_like(3, SimDuration::from_secs(DURATION_S), 300, 1.0, seed);
    let cfg = ExperimentConfig {
        bes: vec![BeSpec::of(BeKind::Wordcount)],
        load,
        duration_s: DURATION_S,
        seed,
        record_timeline: true,
        controller_period_ms: 500,
    };
    let (out, _) = ctx.run(ControllerChoice::Rhythm, &cfg);
    let idx = |name: &str| ctx.service.index_of(name).expect("pod");
    let mysql = idx("mysql");
    Fig17 {
        thresholds: ["tomcat", "mysql"]
            .iter()
            .map(|n| {
                let t = ctx.thresholds.thresholds[idx(n)];
                (n.to_string(), t.loadlimit, t.slacklimit)
            })
            .collect(),
        mysql_phases: phase_summary(&out.timeline, mysql),
        timeline: out.timeline,
    }
}

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = Report::new("fig17", "timeline of Rhythm's running process (Figure 17)");
    let d = collect(0xF17);
    for (n, ll, sl) in &d.thresholds {
        report.line(format!(
            "{n}: loadlimit={:.0}% slacklimit={sl:.3}",
            ll * 100.0
        ));
    }
    report.blank();
    let service = apps::ecommerce();
    let names: Vec<&str> = service.component_names();
    let tomcat = service.index_of("tomcat").expect("tomcat");
    let mysql = service.index_of("mysql").expect("mysql");
    // Print every 5th point to keep the table readable; the JSON holds
    // everything.
    let sampled: Vec<_> = d.timeline.iter().step_by(5).cloned().collect();
    report.line(render(&sampled, &names, &[tomcat, mysql]));
    report.blank();
    report.line("MySQL machine phases:");
    for (t, label) in &d.mysql_phases {
        report.line(format!("  t={t:>7.1}s {label}"));
    }
    let suspended = d
        .mysql_phases
        .iter()
        .any(|(_, l)| *l == "suspended" || *l == "kill/stop");
    let grew = d.mysql_phases.iter().any(|(_, l)| *l == "growth");
    report.line(format!(
        "observed growth={grew} restriction={suspended} (paper: both occur over the window)"
    ));
    report.finish(json::to_string(&d))
}
