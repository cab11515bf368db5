//! Workload models for the Rhythm reproduction.
//!
//! The paper evaluates Rhythm on six latency-critical (LC) services and
//! seven best-effort (BE) jobs (Table 1). Running the real applications
//! needs a cluster, so this crate models each LC service as a queueing
//! network over its published component DAG, and each BE job as a
//! resource-pressure/progress model. The calibration targets are the
//! paper's own measurements: the load→latency curves of Figure 6, the
//! per-component interference sensitivities of Figure 2, and the MaxLoad /
//! SLA values of Table 1.
//!
//! * [`sensitivity`] — per-resource interference sensitivity of one LC
//!   component.
//! * [`component`] — one LC component (workers, service-time phases,
//!   footprint).
//! * [`service`] — an LC service: a DAG of components with call patterns,
//!   plus derived capacity.
//! * [`apps`] — constructors for the six LC services of Table 1.
//! * [`be`] — the seven BE jobs of Table 1 (pressure + progress models).
//! * [`loadgen`] — constant and ClarkNet-like production load generators.
//! * [`catalog`] — the Table 1 inventory, used by the harness.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod apps;
pub mod be;
pub mod catalog;
pub mod component;
pub mod loadgen;
pub mod sensitivity;
pub mod service;

/// Layout description of every [`rhythm_snapshot::Snapshot`] impl in this
/// crate. Hashed into snapshot files; **bump the text whenever an encoding
/// here changes shape** so stale snapshots are refused instead of
/// misdecoded.
pub const SNAPSHOT_SCHEMA: &str = "rhythm-workloads/v1: \
     BeKind=(tag:u8,big:bool) \
     BeSpec=(kind,name:str,cpu_p:f64,llc_p:f64,dram_p:f64,net:f64,mem_mb:u64,\
     ways_wanted:u32,cpu_bound:f64,cache_penalty:f64,solo_cores:u32,job_seconds:f64)";

pub use be::{BeKind, BeSpec};
pub use component::ComponentSpec;
pub use loadgen::LoadGen;
pub use sensitivity::Sensitivity;
pub use service::{Call, ServiceNode, ServiceSpec};
