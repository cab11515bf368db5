//! The constant-load co-location grid behind Figures 9-14.
//!
//! Five LC services × six BE jobs × loads {5,25,45,65,85}% × two
//! controllers (Rhythm, Heracles). Figures 9-11 read per-Servpod BE
//! throughput / CPU utilization / memory-bandwidth utilization at one
//! highlighted Servpod per service (Tomcat, Slave, Zookeeper, Memcached,
//! Kibana); Figures 12-14 read service-level EMU / CPU / MemBW
//! improvements of Rhythm over Heracles.

use crate::Report;
use rhythm_core::experiment::{ExperimentConfig, ServiceContext};
use rhythm_core::metrics::{improvement, RunMetrics};
use rhythm_core::par;
use rhythm_telemetry::json::{self, Obj, Sink, ToJson};
use rhythm_workloads::{apps, BeSpec, LoadGen};

/// Loads of the constant-load experiments, in percent of max load.
pub const LOADS_PCT: [u32; 5] = [5, 25, 45, 65, 85];

/// Run length per cell in virtual seconds.
const DURATION_S: u64 = 180;

/// The highlighted Servpod per service (Figures 9-11).
pub fn focus_pod(service: &str) -> &'static str {
    match service {
        "e-commerce" => "tomcat",
        "redis" => "slave",
        "solr" => "zookeeper",
        "elgg" => "memcached",
        "elasticsearch" => "kibana",
        "snms" => "frontend",
        _ => panic!("unknown service {service}"),
    }
}

/// One grid cell: both controllers on the same (service, BE, load).
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Service name.
    pub service: String,
    /// BE workload name.
    pub be: String,
    /// Load in percent of max.
    pub load_pct: u32,
    /// Metrics under Rhythm.
    pub rhythm: RunMetrics,
    /// Metrics under Heracles.
    pub heracles: RunMetrics,
}

impl ToJson for GridCell {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("service", &self.service)
            .field("be", &self.be)
            .field("load_pct", self.load_pct)
            .field("rhythm", &self.rhythm)
            .field("heracles", &self.heracles)
            .close();
    }
}

/// Summary of one prepared service context (thresholds etc.).
#[derive(Clone, Debug)]
pub struct CtxSummary {
    /// Service name.
    pub service: String,
    /// Measured SLA in ms.
    pub sla_ms: f64,
    /// Per-Servpod (name, contribution, loadlimit, slacklimit).
    pub pods: Vec<(String, f64, f64, f64)>,
}

impl ToJson for CtxSummary {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("service", &self.service)
            .field("sla_ms", self.sla_ms)
            .field("pods", &self.pods)
            .close();
    }
}

/// The full grid.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Prepared-context summaries.
    pub contexts: Vec<CtxSummary>,
    /// All cells.
    pub cells: Vec<GridCell>,
}

impl ToJson for Grid {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("contexts", &self.contexts)
            .field("cells", &self.cells)
            .close();
    }
}

fn summarize(ctx: &ServiceContext) -> CtxSummary {
    CtxSummary {
        service: ctx.service.name.clone(),
        sla_ms: ctx.sla_ms,
        pods: ctx
            .thresholds
            .contributions
            .iter()
            .zip(&ctx.thresholds.thresholds)
            .map(|(c, t)| (c.name.clone(), c.value, t.loadlimit, t.slacklimit))
            .collect(),
    }
}

/// Prepares the five evaluation services in parallel.
pub fn prepare_contexts(seed: u64) -> Vec<ServiceContext> {
    let probe = BeSpec::colocation_set();
    let jobs: Vec<Box<dyn FnOnce() -> ServiceContext + Send>> = apps::evaluation_apps()
        .into_iter()
        .map(|service| {
            let probe = probe.clone();
            Box::new(move || ServiceContext::prepare(service, &probe, seed)) as _
        })
        .collect();
    par::map(par::width(), jobs)
}

/// Builds the full grid (expensive; parallelized across cells).
pub fn build(seed: u64) -> Grid {
    let contexts = prepare_contexts(seed);
    let bes = BeSpec::colocation_set();
    let mut jobs: Vec<Box<dyn FnOnce() -> GridCell + Send>> = Vec::new();
    for ctx in &contexts {
        for be in &bes {
            for load_pct in LOADS_PCT {
                let ctx = ctx.clone();
                let be = be.clone();
                jobs.push(Box::new(move || {
                    let cfg = ExperimentConfig {
                        bes: vec![be.clone()],
                        load: LoadGen::constant(f64::from(load_pct) / 100.0),
                        duration_s: DURATION_S,
                        seed: seed ^ (u64::from(load_pct) << 8),
                        record_timeline: false,
                        controller_period_ms: 2_000,
                    };
                    let outcome = ctx.compare(&cfg);
                    GridCell {
                        service: ctx.service.name.clone(),
                        be: be.name.clone(),
                        load_pct,
                        rhythm: outcome.rhythm,
                        heracles: outcome.heracles,
                    }
                }));
            }
        }
    }
    Grid {
        contexts: contexts.iter().map(summarize).collect(),
        cells: par::map(par::width(), jobs),
    }
}

/// Per-Servpod metric selector for Figures 9-11.
fn pod_metric(m: &RunMetrics, pod: &str, which: PodMetric) -> f64 {
    let p = m.pod(pod).expect("focus pod exists");
    match which {
        PodMetric::BeThroughput => p.be_throughput,
        PodMetric::CpuUtil => p.cpu_util * 100.0,
        PodMetric::MembwUtil => p.membw_util * 100.0,
    }
}

#[derive(Clone, Copy)]
enum PodMetric {
    BeThroughput,
    CpuUtil,
    MembwUtil,
}

fn bes_of(grid: &Grid, service: &str) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for c in &grid.cells {
        if c.service == service && !seen.contains(&c.be) {
            seen.push(c.be.clone());
        }
    }
    seen
}

/// The cell of `service` × `be` at each load.
fn cells<'g>(grid: &'g Grid, service: &str, be: &str) -> [&'g GridCell; 5] {
    LOADS_PCT.map(|l| {
        grid.cells
            .iter()
            .find(|c| c.service == service && c.be == be && c.load_pct == l)
            .expect("cell exists")
    })
}

/// Renders Figures 9-11 as text and writes the same series into `o`:
/// per service, the focus Servpod's metric for each BE job at each
/// load, under Rhythm and under Heracles.
fn render_pod_figure(grid: &Grid, which: PodMetric, unit: &'static str, o: &mut Obj) -> String {
    let mut text = String::new();
    o.field("metric", unit)
        .field("loads_pct", LOADS_PCT.as_slice());
    o.arr("services", &grid.contexts, |out, ctx| {
        let pod = focus_pod(&ctx.service);
        text.push_str(&format!("{} — Servpod {pod} ({unit})\n", ctx.service));
        text.push_str(&format!("{:<18}", "BE \\ load"));
        for l in LOADS_PCT {
            text.push_str(&format!("  {l:>3}%R {l:>3}%H"));
        }
        text.push('\n');
        let mut svc = Obj::open(out);
        svc.field("service", &ctx.service).field("pod", pod);
        svc.arr("rows", bes_of(grid, &ctx.service), |out, be| {
            let row = cells(grid, &ctx.service, &be);
            let rhythm = row.map(|c| pod_metric(&c.rhythm, pod, which));
            let heracles = row.map(|c| pod_metric(&c.heracles, pod, which));
            text.push_str(&format!("{be:<18}"));
            for (r, h) in rhythm.iter().zip(&heracles) {
                text.push_str(&format!(" {r:>5.2} {h:>5.2}"));
            }
            text.push('\n');
            Obj::open(out)
                .field("be", &be)
                .field("rhythm", rhythm.as_slice())
                .field("heracles", heracles.as_slice())
                .close();
        });
        svc.close();
        text.push('\n');
    });
    text.push_str("(columns: Rhythm then Heracles at each load)\n");
    text
}

/// Service-level improvement selector for Figures 12-14.
fn svc_improvement(cell: &GridCell, which: SvcMetric) -> f64 {
    let (r, h) = match which {
        SvcMetric::Emu => (cell.rhythm.emu, cell.heracles.emu),
        SvcMetric::Cpu => (cell.rhythm.cpu_util, cell.heracles.cpu_util),
        SvcMetric::Membw => (cell.rhythm.membw_util, cell.heracles.membw_util),
    };
    improvement(r, h) * 100.0
}

#[derive(Clone, Copy)]
enum SvcMetric {
    Emu,
    Cpu,
    Membw,
}

/// Renders Figures 12-14 as text and writes the same series into `o`:
/// per service, Rhythm's improvement over Heracles for each BE job at
/// each load, each job's average, and the service average.
fn render_improvement_figure(
    grid: &Grid,
    which: SvcMetric,
    what: &'static str,
    o: &mut Obj,
) -> String {
    let mut text = String::new();
    o.field("metric", what)
        .field("loads_pct", LOADS_PCT.as_slice());
    o.arr("services", &grid.contexts, |out, ctx| {
        text.push_str(&format!(
            "{} — {what} improvement over Heracles (%)\n",
            ctx.service
        ));
        text.push_str(&format!("{:<18}", "BE \\ load"));
        for l in LOADS_PCT {
            text.push_str(&format!(" {l:>7}%"));
        }
        text.push_str(&format!(" {:>8}\n", "avg"));
        let mut svc = Obj::open(out);
        svc.field("service", &ctx.service);
        svc.arr("rows", bes_of(grid, &ctx.service), |out, be| {
            let pct = cells(grid, &ctx.service, &be).map(|c| svc_improvement(c, which));
            let mut sum = 0.0;
            text.push_str(&format!("{be:<18}"));
            for v in pct {
                sum += v;
                text.push_str(&format!(" {v:>8.1}"));
            }
            let avg = sum / LOADS_PCT.len() as f64;
            text.push_str(&format!(" {avg:>8.1}\n"));
            Obj::open(out)
                .field("be", &be)
                .field("improvement_pct", pct.as_slice())
                .field("avg", avg)
                .close();
        });
        let all: Vec<f64> = grid
            .cells
            .iter()
            .filter(|c| c.service == ctx.service)
            .map(|c| svc_improvement(c, which))
            .collect();
        let avg = all.iter().sum::<f64>() / all.len().max(1) as f64;
        text.push_str(&format!(
            "{:<18} {avg:>8.1}% average across all groups\n\n",
            "=> service avg"
        ));
        svc.field("avg", avg).close();
    });
    text
}

fn thresholds_block(grid: &Grid) -> String {
    let mut out = String::from("derived thresholds (contribution, loadlimit, slacklimit):\n");
    for ctx in &grid.contexts {
        out.push_str(&format!("  {} (SLA {:.1} ms)\n", ctx.service, ctx.sla_ms));
        for (name, c, ll, sl) in &ctx.pods {
            out.push_str(&format!(
                "    {name:<16} C={c:<8.4} loadlimit={:.0}% slacklimit={sl:.3}\n",
                ll * 100.0
            ));
        }
    }
    out
}

/// Writes the whole grid once, as `results/colocation.json`; each
/// figure's report holds only the series its text prints.
pub fn write_grid(grid: &Grid) -> std::io::Result<()> {
    let (path, _) = crate::report::write_json("colocation", &json::to_string(grid))?;
    if !crate::report::json_stdout() {
        println!("[written {}]", path.display());
    }
    Ok(())
}

/// Writes the Figure 9 report from a built grid.
pub fn fig09(grid: &Grid) -> std::io::Result<()> {
    let mut r = Report::new(
        "fig09",
        "BE throughput at Servpods under different loads (Figure 9)",
    );
    r.line(thresholds_block(grid));
    let doc = json::object(|o| {
        o.field("thresholds", &grid.contexts);
        let unit = "normalized BE throughput";
        r.line(render_pod_figure(grid, PodMetric::BeThroughput, unit, o));
    });
    r.finish(doc)
}

/// Writes the Figure 10 report.
pub fn fig10(grid: &Grid) -> std::io::Result<()> {
    let mut r = Report::new(
        "fig10",
        "CPU utilization at Servpods under different loads (Figure 10)",
    );
    let unit = "machine CPU %";
    let doc = json::object(|o| r.line(render_pod_figure(grid, PodMetric::CpuUtil, unit, o)));
    r.finish(doc)
}

/// Writes the Figure 11 report.
pub fn fig11(grid: &Grid) -> std::io::Result<()> {
    let mut r = Report::new(
        "fig11",
        "memory bandwidth utilization at Servpods under different loads (Figure 11)",
    );
    let unit = "machine MemBW %";
    let doc = json::object(|o| r.line(render_pod_figure(grid, PodMetric::MembwUtil, unit, o)));
    r.finish(doc)
}

/// Writes the Figure 12 report.
pub fn fig12(grid: &Grid) -> std::io::Result<()> {
    let mut r = Report::new(
        "fig12",
        "EMU improvements under different loads (Figure 12)",
    );
    let doc = json::object(|o| r.line(render_improvement_figure(grid, SvcMetric::Emu, "EMU", o)));
    r.finish(doc)
}

/// Writes the Figure 13 report.
pub fn fig13(grid: &Grid) -> std::io::Result<()> {
    let mut r = Report::new("fig13", "CPU utilization improvements (Figure 13)");
    let what = "CPU utilization";
    let doc = json::object(|o| r.line(render_improvement_figure(grid, SvcMetric::Cpu, what, o)));
    r.finish(doc)
}

/// Writes the Figure 14 report.
pub fn fig14(grid: &Grid) -> std::io::Result<()> {
    let mut r = Report::new(
        "fig14",
        "memory bandwidth utilization improvements (Figure 14)",
    );
    let what = "MemBW utilization";
    let doc = json::object(|o| r.line(render_improvement_figure(grid, SvcMetric::Membw, what, o)));
    r.finish(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_metrics(be: f64, cpu: f64) -> RunMetrics {
        RunMetrics {
            lc_throughput: 0.5,
            be_throughput: be,
            emu: 0.5 + be,
            cpu_util: cpu,
            membw_util: cpu / 2.0,
            p99_ms: 100.0,
            sla_ms: 200.0,
            tail_ratio: 0.5,
            sla_violations: 0,
            be_kills: 0,
            pods: vec![rhythm_core::metrics::PodMetrics {
                name: "tomcat".into(),
                be_throughput: be,
                cpu_util: cpu,
                membw_util: cpu / 2.0,
                be_instances: 2.0,
                sla_violations: 0,
                be_kills: 0,
            }],
        }
    }

    fn fake_grid() -> Grid {
        let mut cells = Vec::new();
        for &l in &LOADS_PCT {
            cells.push(GridCell {
                service: "e-commerce".into(),
                be: "wordcount".into(),
                load_pct: l,
                rhythm: fake_metrics(0.8, 0.6),
                heracles: fake_metrics(0.4, 0.3),
            });
        }
        Grid {
            contexts: vec![CtxSummary {
                service: "e-commerce".into(),
                sla_ms: 250.0,
                pods: vec![("tomcat".into(), 0.1, 0.9, 0.3)],
            }],
            cells,
        }
    }

    #[test]
    fn focus_pods_cover_every_service() {
        for s in [
            "e-commerce",
            "redis",
            "solr",
            "elgg",
            "elasticsearch",
            "snms",
        ] {
            assert!(!focus_pod(s).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown service")]
    fn focus_pod_rejects_unknown() {
        focus_pod("nope");
    }

    #[test]
    fn pod_figure_renders_both_controllers() {
        let g = fake_grid();
        let mut s = String::new();
        let doc = json::object(|o| s = render_pod_figure(&g, PodMetric::BeThroughput, "BE tp", o));
        assert!(s.contains("tomcat"));
        assert!(s.contains("0.80"), "rhythm value rendered: {s}");
        assert!(s.contains("0.40"), "heracles value rendered");
        // The JSON holds the series the text prints, and not the grid.
        assert!(
            doc.contains(r#""service":"e-commerce","pod":"tomcat""#),
            "{doc}"
        );
        assert!(doc.contains(r#""be":"wordcount","rhythm":[0.8,0.8,0.8,0.8,0.8],"heracles":[0.4,"#));
        assert!(!doc.contains("cells"), "{doc}");
    }

    #[test]
    fn improvement_figure_computes_percentages() {
        let g = fake_grid();
        let mut s = String::new();
        let doc = json::object(|o| s = render_improvement_figure(&g, SvcMetric::Cpu, "CPU", o));
        // (0.6 - 0.3) / 0.3 = 100%.
        assert!(s.contains("100.0"), "{s}");
        assert!(s.contains("service avg"));
        assert!(
            doc.contains(r#""improvement_pct":[100,100,100,100,100],"avg":100}],"avg":100}"#),
            "{doc}"
        );
    }

    #[test]
    fn thresholds_block_lists_pods() {
        let g = fake_grid();
        let s = thresholds_block(&g);
        assert!(s.contains("tomcat"));
        assert!(s.contains("loadlimit=90%"));
        assert!(s.contains("slacklimit=0.300"));
    }
}
