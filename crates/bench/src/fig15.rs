//! Figure 15 — performance under the production (ClarkNet-like) load.
//!
//! Five LC services × six BE jobs under the diurnal production trace;
//! panels (a)-(c) report the average improvement of Rhythm over Heracles
//! in EMU / CPU utilization / MemBW utilization, panel (d) the worst 99p
//! latency normalized to the SLA under Rhythm (the paper's headline: the
//! SLA always holds, worst case 0.99×).

use crate::{colocation::prepare_contexts, Report};
use rhythm_core::experiment::ExperimentConfig;
use rhythm_core::metrics::improvement;
use rhythm_core::par;
use rhythm_sim::SimDuration;
use rhythm_workloads::{BeSpec, LoadGen};
use serde::Serialize;

/// Trace length in virtual seconds (five diurnal cycles, the paper's
/// five ClarkNet days compressed ~20x as in §5.3 — compressing harder
/// makes load ramps unrealistically fast relative to the 2 s controller
/// period).
const TRACE_S: u64 = 3_600;

/// One production-load cell.
#[derive(Clone, Debug, Serialize)]
pub struct Cell {
    /// Service name.
    pub service: String,
    /// BE name.
    pub be: String,
    /// EMU improvement (fraction).
    pub emu_gain: f64,
    /// CPU-utilization improvement (fraction).
    pub cpu_gain: f64,
    /// MemBW-utilization improvement (fraction).
    pub membw_gain: f64,
    /// Rhythm's worst 99p / SLA.
    pub tail_ratio: f64,
    /// Rhythm SLA-violation ticks.
    pub sla_violations: u64,
}

/// The Figure 15 dataset.
#[derive(Clone, Debug, Serialize)]
pub struct Fig15 {
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Collects the dataset.
pub fn collect(seed: u64) -> Fig15 {
    let contexts = prepare_contexts(seed);
    let bes = BeSpec::colocation_set();
    let mut jobs: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for ctx in &contexts {
        for be in &bes {
            let ctx = ctx.clone();
            let be = be.clone();
            jobs.push(Box::new(move || {
                let load =
                    LoadGen::clarknet_like(5, SimDuration::from_secs(TRACE_S), 240, 0.95, seed);
                let cfg = ExperimentConfig {
                    bes: vec![be.clone()],
                    load,
                    duration_s: TRACE_S,
                    seed: seed ^ 0x15,
                    record_timeline: false,
                    controller_period_ms: 500,
                };
                let o = ctx.compare(&cfg);
                Cell {
                    service: ctx.service.name.clone(),
                    be: be.name.clone(),
                    emu_gain: improvement(o.rhythm.emu, o.heracles.emu),
                    cpu_gain: improvement(o.rhythm.cpu_util, o.heracles.cpu_util),
                    membw_gain: improvement(o.rhythm.membw_util, o.heracles.membw_util),
                    tail_ratio: o.rhythm.tail_ratio,
                    sla_violations: o.rhythm.sla_violations,
                }
            }));
        }
    }
    Fig15 {
        cells: par::map(par::width(), jobs),
    }
}

fn heatmap(d: &Fig15, pick: impl Fn(&Cell) -> f64, title: &str, fmt_pct: bool) -> String {
    let mut out = format!("({title})\n");
    let services: Vec<String> = {
        let mut seen = Vec::new();
        for c in &d.cells {
            if !seen.contains(&c.service) {
                seen.push(c.service.clone());
            }
        }
        seen
    };
    let bes: Vec<String> = {
        let mut seen = Vec::new();
        for c in &d.cells {
            if !seen.contains(&c.be) {
                seen.push(c.be.clone());
            }
        }
        seen
    };
    out.push_str(&format!("{:<14}", "LC \\ BE"));
    for b in &bes {
        out.push_str(&format!(" {b:>14}"));
    }
    out.push('\n');
    for s in &services {
        out.push_str(&format!("{s:<14}"));
        for b in &bes {
            let cell = d
                .cells
                .iter()
                .find(|c| &c.service == s && &c.be == b)
                .expect("cell");
            let v = pick(cell);
            if fmt_pct {
                out.push_str(&format!(" {:>13.1}%", v * 100.0));
            } else {
                out.push_str(&format!(" {v:>14.2}"));
            }
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = Report::new("fig15", "improvements under production load (Figure 15)");
    let d = collect(0xF15);
    report.line(heatmap(&d, |c| c.emu_gain, "a: EMU improvement", true));
    report.line(heatmap(
        &d,
        |c| c.cpu_gain,
        "b: CPU utilization improvement",
        true,
    ));
    report.line(heatmap(
        &d,
        |c| c.membw_gain,
        "c: MemBW utilization improvement",
        true,
    ));
    report.line(heatmap(
        &d,
        |c| c.tail_ratio,
        "d: worst 99p / SLA under Rhythm",
        false,
    ));
    let worst = d.cells.iter().map(|c| c.tail_ratio).fold(0.0, f64::max);
    let violations: u64 = d.cells.iter().map(|c| c.sla_violations).sum();
    let max_emu = d.cells.iter().map(|c| c.emu_gain).fold(f64::MIN, f64::max);
    let min_emu = d.cells.iter().map(|c| c.emu_gain).fold(f64::MAX, f64::min);
    report.line(format!(
        "worst 99p/SLA = {worst:.2} (paper 0.99); total Rhythm violation ticks = {violations}"
    ));
    report.line(format!(
        "EMU improvement range: {:.1}%..{:.1}% (paper: 12.4%..31.7%)",
        min_emu * 100.0,
        max_emu * 100.0
    ));
    report.finish(&d)
}
