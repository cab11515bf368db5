//! Figure 2 — impact of interference on per-component tail latency.
//!
//! Each LC component is co-located, alone, with one interference
//! generator at a time (stream-dram big/small, stream-llc big/small,
//! DVFS, iperf, CPU-stress) while the service runs at 20/40/60/80% of
//! max load; the reported number is the 99th-percentile latency increase
//! relative to the solo run at the same load.

use rhythm_core::par;
use rhythm_core::{ControlMode, Engine, EngineConfig};
use rhythm_machine::MachineSpec;
use rhythm_workloads::{BeKind, BeSpec, ServiceSpec};
use serde::Serialize;

/// The seven interference groups of Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Group {
    /// stream-dram saturating the DRAM channel.
    StreamDramBig,
    /// stream-dram at half intensity.
    StreamDramSmall,
    /// stream-llc saturating the LLC.
    StreamLlcBig,
    /// stream-llc at half intensity.
    StreamLlcSmall,
    /// LC cores down-clocked to the DVFS floor.
    Dvfs,
    /// iperf saturating the NIC.
    Iperf,
    /// CPU-stress on the sibling cores.
    CpuStress,
}

impl Group {
    /// All groups in the paper's panel order.
    pub fn all() -> [Group; 7] {
        [
            Group::StreamDramBig,
            Group::StreamDramSmall,
            Group::StreamLlcBig,
            Group::StreamLlcSmall,
            Group::Dvfs,
            Group::Iperf,
            Group::CpuStress,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Group::StreamDramBig => "stream_dram(big)",
            Group::StreamDramSmall => "stream_dram(small)",
            Group::StreamLlcBig => "stream_llc(big)",
            Group::StreamLlcSmall => "stream_llc(small)",
            Group::Dvfs => "DVFS",
            Group::Iperf => "iperf",
            Group::CpuStress => "CPU_stress",
        }
    }

    /// The BE job and static allocation (instances, cores, ways) that
    /// realizes this group, or `None` for the DVFS group.
    fn be(&self) -> Option<(BeSpec, u32, u32, u32)> {
        match self {
            Group::StreamDramBig => Some((BeSpec::of(BeKind::StreamDram { big: true }), 1, 4, 2)),
            Group::StreamDramSmall => {
                Some((BeSpec::of(BeKind::StreamDram { big: false }), 1, 4, 2))
            }
            Group::StreamLlcBig => Some((BeSpec::of(BeKind::StreamLlc { big: true }), 1, 4, 8)),
            Group::StreamLlcSmall => Some((BeSpec::of(BeKind::StreamLlc { big: false }), 1, 4, 8)),
            Group::Dvfs => None,
            Group::Iperf => Some((BeSpec::of(BeKind::Iperf), 1, 2, 1)),
            Group::CpuStress => Some((BeSpec::of(BeKind::CpuStress), 1, 12, 2)),
        }
    }
}

/// One measured cell.
#[derive(Clone, Debug, Serialize)]
pub struct Cell {
    /// Component (Servpod) name.
    pub pod: String,
    /// Interference group label.
    pub group: &'static str,
    /// Load as percent of max.
    pub load_pct: u32,
    /// 99th-percentile latency increase relative to solo, in percent.
    pub increase_pct: f64,
}

/// The full characterization of one service.
#[derive(Clone, Debug, Serialize)]
pub struct Characterization {
    /// Service name.
    pub service: String,
    /// All cells.
    pub cells: Vec<Cell>,
}

const LOADS: [u32; 4] = [20, 40, 60, 80];
const DURATION_S: u64 = 60;

fn run_cell(
    service: &ServiceSpec,
    pod: usize,
    group: Group,
    load_pct: u32,
    seed: u64,
) -> (f64, f64) {
    let load = load_pct as f64 / 100.0;
    let solo = Engine::new(service.clone(), EngineConfig::solo(load, DURATION_S, seed)).run();
    let mut cfg = EngineConfig::solo(load, DURATION_S, seed);
    match group.be() {
        Some((be, instances, cores, llc_ways)) => {
            cfg.bes = vec![be];
            cfg.mode = ControlMode::Static {
                instances,
                cores,
                llc_ways,
                pods: vec![pod],
            };
        }
        None => {
            cfg.lc_freq_mhz = Some(MachineSpec::paper_testbed().min_freq_mhz);
            cfg.lc_freq_pods = vec![pod];
        }
    }
    let colocated = Engine::new(service.clone(), cfg).run();
    (solo.p99_ms(), colocated.p99_ms())
}

/// Characterizes every component of `service` against every group.
pub fn characterize(service: &ServiceSpec, seed: u64) -> Characterization {
    let mut jobs: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for (pod, node) in service.nodes.iter().enumerate() {
        let pod_name = node.component.name.clone();
        for group in Group::all() {
            for load_pct in LOADS {
                let service = service.clone();
                let pod_name = pod_name.clone();
                jobs.push(Box::new(move || {
                    let (solo, coloc) = run_cell(&service, pod, group, load_pct, seed);
                    Cell {
                        pod: pod_name,
                        group: group.label(),
                        load_pct,
                        increase_pct: (coloc - solo) / solo * 100.0,
                    }
                }));
            }
        }
    }
    Characterization {
        service: service.name.clone(),
        cells: par::map(par::width(), jobs),
    }
}

/// Renders one characterization as a text matrix.
pub fn render(c: &Characterization) -> String {
    let mut out = String::new();
    let pods: Vec<&str> = {
        let mut seen = Vec::new();
        for cell in &c.cells {
            if !seen.contains(&cell.pod.as_str()) {
                seen.push(cell.pod.as_str());
            }
        }
        seen
    };
    out.push_str(&format!(
        "{} — 99p latency increase (%) vs solo\n",
        c.service
    ));
    out.push_str(&format!("{:<20} {:>5}", "group", "load"));
    for p in &pods {
        out.push_str(&format!(" {p:>14}"));
    }
    out.push('\n');
    for group in Group::all() {
        for load in LOADS {
            out.push_str(&format!("{:<20} {:>4}%", group.label(), load));
            for p in &pods {
                let v = c
                    .cells
                    .iter()
                    .find(|cell| {
                        cell.pod == *p && cell.group == group.label() && cell.load_pct == load
                    })
                    .map(|cell| cell.increase_pct)
                    .unwrap_or(f64::NAN);
                out.push_str(&format!(" {v:>13.1}%"));
            }
            out.push('\n');
        }
    }
    out
}

/// One-line comparison of the two headline pods (the paper's claim:
/// interference tolerance differs wildly between components).
pub fn summary(c: &Characterization, sensitive: &str, tolerant: &str) -> String {
    let avg = |pod: &str| {
        let xs: Vec<f64> = c
            .cells
            .iter()
            .filter(|cell| cell.pod == pod)
            .map(|cell| cell.increase_pct)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    format!(
        "{}: avg increase {}={:.1}% vs {}={:.1}% (ratio {:.1}x)",
        c.service,
        sensitive,
        avg(sensitive),
        tolerant,
        avg(tolerant),
        avg(sensitive) / avg(tolerant).max(1e-9)
    )
}

/// Runs Figure 2a (Redis) and 2b (E-commerce) and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = crate::Report::new(
        "fig02",
        "interference impact on per-component 99p latency (Figure 2)",
    );
    let redis = characterize(&rhythm_workloads::apps::redis(), 0xF2A);
    let ecom = characterize(&rhythm_workloads::apps::ecommerce(), 0xF2B);
    report.line(render(&redis));
    report.blank();
    report.line(render(&ecom));
    report.line(summary(&redis, "master", "slave"));
    report.line(summary(&ecom, "mysql", "tomcat"));
    report.finish(&(&redis, &ecom))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_groups_in_paper_order() {
        let all = Group::all();
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].label(), "stream_dram(big)");
        assert_eq!(all[4].label(), "DVFS");
    }

    #[test]
    fn dvfs_group_has_no_be() {
        assert!(Group::Dvfs.be().is_none());
        for g in Group::all() {
            if g != Group::Dvfs {
                assert!(g.be().is_some(), "{:?}", g);
            }
        }
    }

    #[test]
    fn cpu_stress_gets_the_biggest_core_grant() {
        let (_, _, cores, _) = Group::CpuStress.be().unwrap();
        for g in [Group::StreamDramBig, Group::StreamLlcBig, Group::Iperf] {
            let (_, _, c, _) = g.be().unwrap();
            assert!(cores > c);
        }
    }

    #[test]
    fn render_and_summary_on_synthetic_cells() {
        let c = Characterization {
            service: "redis".into(),
            cells: vec![
                Cell {
                    pod: "master".into(),
                    group: "DVFS",
                    load_pct: 20,
                    increase_pct: 100.0,
                },
                Cell {
                    pod: "slave".into(),
                    group: "DVFS",
                    load_pct: 20,
                    increase_pct: 10.0,
                },
            ],
        };
        let r = render(&c);
        assert!(r.contains("master") && r.contains("slave"));
        let s = summary(&c, "master", "slave");
        assert!(s.contains("10.0x"), "{s}");
    }
}
