//! Figure 16 — running Rhythm with the SNMS microservice application.
//!
//! SNMS (DeathStarBench social network) is divided into three Servpods
//! (frontend, UserService, MediaService). The figure stacks, per BE and
//! load: the LC service's own EMU/utilization, Heracles' addition, and
//! Rhythm's further addition. The paper derives contributions
//! 0.295/0.14/0.565 (media/frontend/user) and slacklimits
//! 0.189/0.054/0.381.

use crate::Report;
use rhythm_core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm_core::par;
use rhythm_telemetry::json::{self, Obj, Sink, ToJson};
use rhythm_workloads::{apps, BeSpec, LoadGen};

const LOADS_PCT: [u32; 5] = [20, 40, 60, 80, 100];
const DURATION_S: u64 = 180;

/// One stacked cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// BE name.
    pub be: String,
    /// Load percent.
    pub load_pct: u32,
    /// (LC solo, +Heracles, +Rhythm) EMU.
    pub emu: (f64, f64, f64),
    /// (LC solo, +Heracles, +Rhythm) CPU utilization.
    pub cpu: (f64, f64, f64),
    /// (LC solo, +Heracles, +Rhythm) MemBW utilization.
    pub membw: (f64, f64, f64),
}

impl ToJson for Cell {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("be", &self.be)
            .field("load_pct", self.load_pct)
            .field("emu", self.emu)
            .field("cpu", self.cpu)
            .field("membw", self.membw)
            .close();
    }
}

/// The Figure 16 dataset.
#[derive(Clone, Debug)]
pub struct Fig16 {
    /// Per-Servpod (name, contribution, slacklimit).
    pub pods: Vec<(String, f64, f64)>,
    /// All cells.
    pub cells: Vec<Cell>,
    /// Average (EMU, CPU, MemBW) improvement of Rhythm over Heracles.
    pub avg_gain: (f64, f64, f64),
}

impl ToJson for Fig16 {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("pods", &self.pods)
            .field("cells", &self.cells)
            .field("avg_gain", self.avg_gain)
            .close();
    }
}

/// Collects the dataset.
pub fn collect(seed: u64) -> Fig16 {
    let ctx = ServiceContext::prepare(apps::snms(), &BeSpec::colocation_set(), seed);
    let pods: Vec<(String, f64, f64)> = ctx
        .thresholds
        .contributions
        .iter()
        .zip(&ctx.thresholds.thresholds)
        .map(|(c, t)| (c.name.clone(), c.value, t.slacklimit))
        .collect();
    let bes = BeSpec::colocation_set();
    let mut jobs: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for be in &bes {
        for load_pct in LOADS_PCT {
            let ctx = ctx.clone();
            let be = be.clone();
            jobs.push(Box::new(move || {
                let cfg = ExperimentConfig {
                    bes: vec![be.clone()],
                    load: LoadGen::constant(f64::from(load_pct) / 100.0),
                    duration_s: DURATION_S,
                    seed: seed ^ (u64::from(load_pct) << 4),
                    record_timeline: false,
                    controller_period_ms: 2_000,
                };
                let (_, solo) = ctx.run(ControllerChoice::Solo, &cfg);
                let (_, heracles) = ctx.run(ControllerChoice::Heracles, &cfg);
                let (_, rhythm) = ctx.run(ControllerChoice::Rhythm, &cfg);
                Cell {
                    be: be.name.clone(),
                    load_pct,
                    emu: (solo.emu, heracles.emu, rhythm.emu),
                    cpu: (solo.cpu_util, heracles.cpu_util, rhythm.cpu_util),
                    membw: (solo.membw_util, heracles.membw_util, rhythm.membw_util),
                }
            }));
        }
    }
    let cells = par::map(par::width(), jobs);
    // Ratio of means rather than mean of ratios: cells where Heracles
    // collapses to ~0 would otherwise dominate the average.
    let gain = |pick: &dyn Fn(&Cell) -> (f64, f64, f64)| {
        let (mut hs, mut rs) = (0.0, 0.0);
        for c in cells.iter() {
            let (_, h, r) = pick(c);
            hs += h;
            rs += r;
        }
        rhythm_core::metrics::improvement(rs, hs)
    };
    let avg_gain = (
        gain(&|c: &Cell| c.emu),
        gain(&|c: &Cell| c.cpu),
        gain(&|c: &Cell| c.membw),
    );
    Fig16 {
        pods,
        cells,
        avg_gain,
    }
}

fn stack_table(d: &Fig16, pick: impl Fn(&Cell) -> (f64, f64, f64), title: &str) -> String {
    let mut out = format!("{title} (LC / +Heracles / +Rhythm)\n");
    let bes: Vec<String> = {
        let mut seen = Vec::new();
        for c in &d.cells {
            if !seen.contains(&c.be) {
                seen.push(c.be.clone());
            }
        }
        seen
    };
    out.push_str(&format!("{:<18}", "BE \\ load"));
    for l in LOADS_PCT {
        out.push_str(&format!("        {l:>3}%"));
    }
    out.push('\n');
    for be in &bes {
        out.push_str(&format!("{be:<18}"));
        for l in LOADS_PCT {
            let c = d
                .cells
                .iter()
                .find(|c| &c.be == be && c.load_pct == l)
                .expect("cell");
            let (a, b, r) = pick(c);
            out.push_str(&format!(" {a:>3.2}/{b:>3.2}/{r:>3.2}"));
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = Report::new("fig16", "running with the SNMS microservice (Figure 16)");
    let d = collect(0xF16);
    report.line("SNMS Servpods (contribution, slacklimit) — paper: media 0.295/0.189, frontend 0.14/0.054, user 0.565/0.381:");
    for (name, c, sl) in &d.pods {
        report.line(format!("  {name:<14} C={c:.3} slacklimit={sl:.3}"));
    }
    report.blank();
    report.line(stack_table(&d, |c| c.emu, "EMU"));
    report.line(stack_table(&d, |c| c.cpu, "CPU utilization"));
    report.line(stack_table(&d, |c| c.membw, "MemBW utilization"));
    report.line(format!(
        "average Rhythm-over-Heracles improvements: EMU {:.1}% CPU {:.1}% MemBW {:.1}% (paper: 14.3%/30.2%/45.8%)",
        d.avg_gain.0 * 100.0,
        d.avg_gain.1 * 100.0,
        d.avg_gain.2 * 100.0
    ));
    report.finish(json::to_string(&d))
}
