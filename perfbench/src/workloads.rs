//! Workload definitions. Each is a pure function of the seed: the same
//! seed gives the same inputs, and the program receives nothing else.

use rhythm_cluster::{ClusterConfig, FaultPlan, PlacementPolicy};
use rhythm_core::profiling::ProfileConfig;
use rhythm_telemetry::TelemetryConfig;
use rhythm_workloads::{apps, BeKind, BeSpec, LoadGen, ServiceSpec};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["profile-tracer", "warehouse-4096-idle", "durable-chaos-256"];

#[derive(Clone, Debug)]
pub enum Workload {
    Profile(ProfileDef),
    Cluster(Box<ClusterDef>),
}

/// The offline stage (SLA calibration, tracer profiling, Algorithm 1) on
/// a chain DAG and a fan-out DAG.
#[derive(Clone, Debug)]
pub struct ProfileDef {
    pub services: Vec<ServiceSpec>,
    pub profile: ProfileConfig,
    pub probe_bes: Vec<BeSpec>,
}

/// One cluster cell run under Rhythm after preparing its service context.
#[derive(Clone, Debug)]
pub struct ClusterDef {
    pub service: ServiceSpec,
    pub probe_bes: Vec<BeSpec>,
    pub seed: u64,
    pub cfg: ClusterConfig,
    /// Whether the straight-through run uses the parallel worker pool
    /// (the thread count is a host choice, not part of the input).
    pub parallel: bool,
    /// Whether the traced run also times the cell at N/4 machines, to
    /// show how the managed overhead grows with N.
    pub scaling_probe: bool,
    /// The epoch barrier at which the straight-through run is captured,
    /// for a workload whose body also restarts from that snapshot and
    /// exports the telemetry.
    pub snapshot_epoch: Option<u32>,
}

/// The mixed-intensity BEs of the Algorithm 1 probation runs.
fn probe_bes() -> Vec<BeSpec> {
    vec![
        BeSpec::of(BeKind::Wordcount),
        BeSpec::of(BeKind::StreamDram { big: true }),
    ]
}

/// The seven-event crash / slow-node / correlated-failure / recovery plan
/// centred on the middle of a `duration_s` run.
pub fn chaos_plan(duration_s: u64) -> FaultPlan {
    let mid = duration_s as f64 / 2.0;
    FaultPlan::new()
        .crash(mid - 10.0, 3)
        .slow_node(mid - 5.0, 7, 0.6)
        .correlated(mid, vec![11, 12])
        .recover(mid + 10.0, 3)
        .recover(mid + 10.0, 7)
        .recover(mid + 12.0, 11)
        .recover(mid + 12.0, 12)
}

/// The workload `name` at `seed`, or `None` for an unknown name.
pub fn define(name: &str, seed: u64) -> Option<Workload> {
    // The cell of the repository's cluster experiment and scaling grid:
    // interference-score placement, 4 jobs per machine, jobs scaled to
    // 0.05 of their solo runtime. It is spelled out here so that the
    // benchmark's inputs change only when the benchmark does.
    let cell = |machines: usize, load: f64| {
        let mut cfg = ClusterConfig::new(machines).with_scaled_jobs(0.05);
        cfg.jobs_per_machine = 4;
        cfg.policy = PlacementPolicy::InterferenceScore;
        cfg.seed = seed;
        cfg.load = LoadGen::constant(load);
        cfg.duration_s = 120;
        cfg.threads = 1;
        cfg
    };
    match name {
        "profile-tracer" => Some(Workload::Profile(ProfileDef {
            services: vec![apps::ecommerce(), apps::snms()],
            profile: ProfileConfig {
                seed,
                use_tracer: true,
                ..ProfileConfig::default()
            },
            probe_bes: probe_bes(),
        })),
        "warehouse-4096-idle" => Some(Workload::Cluster(Box::new(ClusterDef {
            service: apps::ecommerce(),
            probe_bes: probe_bes(),
            seed,
            cfg: cell(4096, 0.1),
            parallel: false,
            scaling_probe: true,
            snapshot_epoch: None,
        }))),
        "durable-chaos-256" => {
            let mut cfg = cell(256, 0.85);
            cfg.telemetry = TelemetryConfig::full();
            cfg.faults = chaos_plan(cfg.duration_s);
            Some(Workload::Cluster(Box::new(ClusterDef {
                service: apps::ecommerce(),
                probe_bes: probe_bes(),
                seed,
                cfg,
                parallel: true,
                scaling_probe: false,
                snapshot_epoch: Some(30),
            })))
        }
        _ => None,
    }
}

/// Parses a seed written in decimal or as `0x`-prefixed hex.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_are_a_pure_function_of_the_seed() {
        for name in NAMES {
            for seed in [0xC1, 7, u64::MAX] {
                let a = format!("{:?}", define(name, seed).expect("known workload"));
                let b = format!("{:?}", define(name, seed).expect("known workload"));
                assert_eq!(a, b, "{name} at seed {seed}");
            }
            let a = format!("{:?}", define(name, 1));
            let b = format!("{:?}", define(name, 2));
            assert_ne!(a, b, "{name}: the seed must reach the inputs");
        }
        assert!(define("no-such-workload", 1).is_none());
    }

    #[test]
    fn cluster_configs_are_valid() {
        for name in NAMES {
            let Some(Workload::Cluster(def)) = define(name, 0xC1) else {
                continue;
            };
            let pods = def.service.len();
            let n = def.cfg.machines;
            let sizes = if def.scaling_probe {
                vec![n, n / 4]
            } else {
                vec![n]
            };
            for machines in sizes {
                assert!(
                    machines >= pods && machines % pods == 0,
                    "{name}: N={machines}"
                );
                assert_eq!(
                    def.cfg.faults.validate(machines),
                    Ok(()),
                    "{name}: N={machines}"
                );
            }
            if let Some(epoch) = def.snapshot_epoch {
                let epochs = def.cfg.duration_s * 1000 / def.cfg.controller_period_ms.max(100);
                assert!(u64::from(epoch) < epochs, "{name}: capture inside the run");
                assert!(!def.cfg.faults.is_empty());
                assert_eq!(def.cfg.faults.len(), 7);
            }
        }
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("193"), Some(193));
        assert_eq!(parse_seed("0xC1"), Some(193));
        assert_eq!(parse_seed("0xc1"), Some(193));
        assert_eq!(parse_seed("-1"), None);
        assert_eq!(parse_seed("seed"), None);
    }
}
