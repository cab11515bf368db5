//! Observability for the Rhythm runtime: flight recorder, decision audit
//! trail and streaming tail timelines.
//!
//! Production co-location systems are debugged from logged per-machine
//! timelines (Ren et al.'s Alibaba anomaly study works entirely off such
//! logs); the paper's 2-second decision loop (§3.5, Algorithm 2) is
//! otherwise opaque — when a run shows an SLA violation or a surprising
//! EMU number there is no way to answer *why* an action fired. This crate
//! provides three pieces the engine, controller and cluster layers hook
//! into:
//!
//! * [`recorder`] — a fixed-capacity ring buffer ([`FlightRecorder`]) of
//!   compact, timestamped events ([`Event`]): request admitted/completed,
//!   BE action taken, subcontroller adjustment, BE admission/kill, epoch
//!   boundary. The record path allocates nothing (the ring is
//!   preallocated, events are `Copy`) and a disabled recorder costs one
//!   predictable branch.
//! * [`audit`] — every controller action with its full causal context
//!   ([`AuditRecord`]): measured load vs `loadlimit`, slack vs
//!   `slacklimit`, the triggering condition of Algorithm 2, the hottest
//!   Servpod by mean sojourn, and the BE population before/after.
//!   Renders as JSONL or as a human-readable "why did Rhythm do X at
//!   t=Y" report.
//! * [`tail`] — epoch-aligned p50/p95/p99 + slack series ([`TailSeries`])
//!   built on the [`rhythm_sim::LatencyHistogram`] sketch. Per-engine
//!   windows are merged across cluster worker threads in fixed replica
//!   order at epoch barriers, so exports are byte-identical for any
//!   thread count.
//! * [`export`] — deterministic JSONL and Chrome-trace
//!   (`chrome://tracing`) exporters over the collected
//!   [`TelemetryOutput`]s. They stream every record straight into one
//!   output `String` through [`json`], the workspace's one JSON writer
//!   (the `results/` documents use it too).
//!
//! Everything is off by default ([`TelemetryConfig::disabled`]); the
//! engine's hot path only ever pays the `enabled` check.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod audit;
pub mod cluster;
pub mod event;
pub mod export;
pub mod json;
pub mod recorder;
pub mod tail;

/// Layout description of every [`rhythm_snapshot::Snapshot`] impl in this
/// crate. Hashed into snapshot files; **bump the text whenever an encoding
/// here changes shape** so stale snapshots are refused instead of
/// misdecoded.
pub const SNAPSHOT_SCHEMA: &str = "rhythm-telemetry/v3: \
     EventKind=tag:u8+payload(u8 fields raw,wider ones varint,signed zigzag) \
     ActionCode=severity:u8 \
     AdjustKind=tag:u8 BeSnapshot=6xu32 Trigger=tag:u8 \
     AuditRecord=(t_s,machine,pod,action,trigger,load,loadlimit,slack,slacklimit,\
     tail_ms,sla_ms,hot_pod:Option<u32>,hot_pod_name,hot_pod_ms,before,after) \
     TailPoint=(t_s:f64,count:u64,p50:f64,p95:f64,p99:f64,slack:f64) \
     TailSeries=(window,last_window,points:[TailPoint]) \
     TelemetryConfig=(enabled:bool,ring_capacity:u64,audit:bool,tail:bool) \
     FlightRecorder=(enabled:bool,cap:u64,seq:u64,min(seq,cap) slots in raw slot order:\
     [(t_ns delta from previous slot:zigzag varint,kind)]) \
     Telemetry=(cfg,recorder,audit:[AuditRecord],tail) \
     ClusterEventKind=tag:u8 ClusterEvent=(t_s:f64,kind,job:u64,gang:Option<u32>)";

pub use audit::{AuditRecord, BeSnapshot, Trigger};
pub use cluster::{ClusterEvent, ClusterEventKind};
pub use event::{per_mille_i16, per_mille_u16, ActionCode, AdjustKind, Event, EventKind};
pub use export::{chrome_trace, export_jsonl, export_jsonl_with_events, TelemetryOutput};
pub use recorder::{FlightRecorder, Telemetry, TelemetryConfig};
pub use tail::{TailPoint, TailSeries};
