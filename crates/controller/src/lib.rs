//! Runtime co-location controller (paper §3.5.2).
//!
//! Each machine hosting an LC Servpod runs an agent built from one
//! top-level controller and four subcontrollers. Every period (2 seconds
//! in the paper) the top controller compares the measured request load
//! and tail-latency slack against the Servpod's `loadlimit` and
//! `slacklimit` thresholds and picks one of five actions; the
//! subcontrollers then adjust core, LLC, memory, frequency and network
//! allocations accordingly.
//!
//! The Heracles baseline the paper compares against is the same machinery
//! with *uniform* thresholds (no BE when load > 0.85, no BE growth when
//! slack < 0.10) — which isolates exactly the paper's claim: the win
//! comes from per-Servpod thresholds.
//!
//! * [`action`] — the five BE control actions.
//! * [`policy`] — Algorithm 2 and the Heracles variant.
//! * [`subcontrollers`] — CPU/LLC, frequency, memory, network.
//! * [`agent`] — the per-machine agent tying policy and subcontrollers
//!   together.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod action;
pub mod agent;
pub mod policy;
pub mod subcontrollers;

/// Layout description of every [`rhythm_snapshot::Snapshot`] impl in this
/// crate. Hashed into snapshot files; **bump the text whenever an encoding
/// here changes shape** so stale snapshots are refused instead of
/// misdecoded.
pub const SNAPSHOT_SCHEMA: &str = "rhythm-controller/v1: \
     BeAction=severity:u8 \
     AgentStats=(ticks:u64,sla_violations:u64,be_kills:u64,action_counts:[u64;5])";

pub use action::BeAction;
pub use agent::{be_snapshot, AgentInputs, AgentStats, ControllerAgent};
pub use policy::{ThresholdPolicy, Thresholds};
pub use subcontrollers::GrowthConfig;
