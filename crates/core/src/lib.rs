//! Rhythm's core: deployment, runtime and experiments.
//!
//! This crate assembles the substrates into the system of the paper:
//!
//! * [`servpod`] — the Servpod abstraction (§3.1): LC components mapped
//!   onto physical machines, one Servpod per machine.
//! * [`runtime`] — the discrete-event cluster engine: open-loop request
//!   arrivals flow through the service DAG's queueing network while BE
//!   jobs run under per-machine controller agents, with interference
//!   coupling the two.
//! * [`plan`] — one in-flight request: its visits to the service's
//!   components, flat and in preorder, and their snapshot codec.
//! * [`metrics`] — EMU (effective machine utilization), CPU and memory
//!   bandwidth utilization, tail latencies (§5.1 metrics).
//! * [`profiling`] — the offline pipeline (§3.2): solo-run sweep →
//!   request tracing → contribution analysis → loadlimit/slacklimit.
//! * [`experiment`] — co-location experiment runner comparing Rhythm,
//!   Heracles and solo baselines.
//! * [`bubble`] — the indirect ("bubble pressure") profiling alternative
//!   the paper rejects in §3.2, implemented for comparison.
//! * [`timeline`] — the Figure 17 running-process recorder.
//! * [`par`] — independent jobs side by side, results in input order
//!   (the offline stage's engine runs, the evaluation's cells).
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod bubble;
pub mod experiment;
pub mod metrics;
pub mod par;
pub mod plan;
pub mod profiling;
pub mod runtime;
pub mod servpod;
pub mod timeline;

/// Layout description of every [`rhythm_snapshot::Snapshot`] impl in this
/// crate. Hashed into snapshot files; **bump the text whenever an encoding
/// here changes shape** so stale snapshots are refused instead of
/// misdecoded.
pub const SNAPSHOT_SCHEMA: &str = "rhythm-core/v1: \
     Ev=tag:u8+payload Visit=(node,parent,children,parallel,phase,n_phases,\
     pending_children,phase_start,sojourn_ns,phase_rec) \
     Request=(arrival,visits[..used]) NodeState=(workers,busy,queue,inflation,\
     busy_area:u128,last_busy_change,visits_done_window) \
     InflationInputs=(epoch,lc_mhz,be_mhz,be_limit_bits,rate_bits) \
     BeProgress=(workload,done) BeAdmission=(machine,instance,workload) \
     BeKill=(machine,instance,workload,progress) TimelinePoint=8 fields \
     EngineMachineSummary=9 fields EngineSummary=(completed_total,inflight,\
     pending_events,machines) \
     Engine=machines,nodes,agents,be_specs,cal,rngs(arrival,service,path),\
     requests,inflation_inputs,tail,arrivals_ring,hist,completed,completed_total,\
     window_hist,window_epoch,worst_window_p99,sojourn_stats,sojourns,timeline,\
     integrals,offers,be_job_progress,last_progress_at,logs,telemetry,audit_prev";

pub use experiment::{ColocationOutcome, ExperimentConfig};
pub use metrics::{PodMetrics, RunMetrics};
pub use profiling::{derive_thresholds, profile_service, ProfileConfig, ServiceThresholds};
pub use runtime::{
    ControlMode, Engine, EngineConfig, EngineMachineSummary, EngineOutput, EngineSummary,
};
pub use servpod::{Deployment, Servpod};
