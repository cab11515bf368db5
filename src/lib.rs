//! # Rhythm — component-distinguishable workload deployment
//!
//! A full reproduction of *"Rhythm: Component-distinguishable Workload
//! Deployment in Datacenters"* (EuroSys 2020) as a Rust workspace: the
//! Servpod abstraction, the non-intrusive request tracer, the
//! tail-latency contribution analyzer, the per-machine co-location
//! controller, the Heracles baseline — and every substrate the paper's
//! evaluation needs (machine model with isolation mechanisms, queueing
//! models of the six LC services and seven BE jobs, an interference
//! model, and a deterministic discrete-event cluster runtime).
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. See the README for the architecture and `DESIGN.md` /
//! `EXPERIMENTS.md` for the paper-experiment index.
//!
//! # Quickstart
//!
//! ```
//! use rhythm::core::{Engine, EngineConfig};
//! use rhythm::workloads::apps;
//!
//! // Run the e-commerce service alone at 50% load for 20 virtual
//! // seconds and read its tail latency.
//! let cfg = EngineConfig::solo(0.5, 20, 42);
//! let out = Engine::new(apps::ecommerce(), cfg).run();
//! assert!(out.completed > 0);
//! assert!(out.p99_ms() > out.mean_ms());
//! ```
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub use rhythm_analyzer as analyzer;
pub use rhythm_chaos as chaos;
pub use rhythm_cluster as cluster;
pub use rhythm_controller as controller;
pub use rhythm_core as core;
pub use rhythm_interference as interference;
pub use rhythm_lint as lint;
pub use rhythm_machine as machine;
pub use rhythm_sim as sim;
pub use rhythm_snapshot as snapshot;
pub use rhythm_telemetry as telemetry;
pub use rhythm_tracer as tracer;
pub use rhythm_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use rhythm_analyzer::{contributions, find_loadlimit, find_slacklimits, SojournProfile};
    pub use rhythm_chaos::{
        crash_restart, heavy_tailed_plan, outcome_fingerprint, recovery_time, JobSizeDist,
        Recovery, RestartCheck, Scenario, ScenarioOutcome,
    };
    pub use rhythm_cluster::{
        compare_cluster, run_cluster, ClusterConfig, ClusterMetrics, ClusterOutcome,
        ClusterTelemetry, FaultKind, FaultPlan, JobSpec, PlacementPolicy,
    };
    pub use rhythm_cluster::{ClusterRun, ClusterRunner, ClusterSnapshot};
    pub use rhythm_controller::{BeAction, ThresholdPolicy, Thresholds};
    pub use rhythm_core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
    pub use rhythm_core::{
        ControlMode, Engine, EngineConfig, EngineOutput, RunMetrics, ServiceThresholds,
    };
    pub use rhythm_interference::{InterferenceModel, Pressure};
    pub use rhythm_machine::{Allocation, Machine, MachineSpec};
    pub use rhythm_sim::{LatencyHistogram, SimDuration, SimRng, SimTime};
    pub use rhythm_snapshot::{Snapshot, SnapshotError, SnapshotFile};
    pub use rhythm_telemetry::{
        chrome_trace, export_jsonl, AuditRecord, ClusterEvent, ClusterEventKind, FlightRecorder,
        TailPoint, Telemetry, TelemetryConfig, TelemetryOutput,
    };
    pub use rhythm_workloads::{apps, BeKind, BeSpec, LoadGen, ServiceSpec};
}
