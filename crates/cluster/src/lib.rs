//! Cluster-level BE scheduling above the per-machine controllers.
//!
//! The paper's controllers are strictly per-machine: each one watches its
//! own Servpod and emits AllowBEGrowth / DisallowBEGrowth / StopBE (§3.5,
//! Algorithm 2). What consumes those signals — the component that decides
//! *where* BE jobs go, and what happens to work a StopBE throws away — is
//! left to "the cluster scheduler". This crate is that scheduler:
//!
//! * [`job`] — BE jobs with checkpoint-fraction progress, priority
//!   classes, deadlines and gang membership, so completion time, wasted
//!   work and deadline-miss rate are first-class, measurable outcomes;
//! * [`queue`] — the shared deterministic backlog: priority classes with
//!   EDF inside each class, optional aging, and requeue-to-front for
//!   killed work;
//! * [`placement`] — pluggable policies: round-robin, least-pressure,
//!   interference-score (predicted LC inflation via the calibrated
//!   `rhythm-interference` sensitivities), and hetero-aware
//!   (capacity-normalized with gang straggler penalties);
//! * [`fault`] — deterministic fault injection: a [`FaultPlan`] of
//!   crash / recover / slow-node / correlated-failure events keyed to
//!   virtual time, applied single-threaded at epoch barriers so chaos
//!   runs stay bit-identical for any thread count;
//! * [`state`] — the N-machine cluster as service replicas, global
//!   machine indexing, per-replica seed derivation;
//! * [`runner`] — the parallel epoch-barrier runner: engines advance one
//!   controller period at a time on scoped threads over disjoint engine
//!   slices, cluster bookkeeping happens single-threaded at the barrier,
//!   and results are bit-identical for any worker-thread count;
//! * [`metrics`] — merged cluster-wide EMU / utilization plus job
//!   completion-time and wasted-work statistics;
//! * [`snapshot`] — durable cluster state: [`ClusterSnapshot`] captured
//!   at epoch barriers, bit-identical resume via
//!   [`ClusterRunner::resume`], and structural snapshot diffs.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (rhythm-lint rule U01 enforces the comment).
#![forbid(unsafe_code)]

pub mod fault;
pub mod job;
pub mod metrics;
pub mod placement;
pub mod queue;
pub mod runner;
pub mod snapshot;
pub mod state;

/// Snapshot layout contract for this crate's [`rhythm_snapshot::Snapshot`]
/// impls and the [`snapshot::ClusterSnapshot`] container. Bump on any
/// wire-format change: the hash of this string is embedded in every
/// snapshot file and checked on resume, so stale readers fail with
/// [`rhythm_snapshot::SnapshotError::Incompatible`] instead of decoding
/// garbage.
pub const SNAPSHOT_SCHEMA: &str = "rhythm-cluster/v2: \
     JobMeta{priority:u8,deadline_s:Option<f64>,enqueued_s:f64,key:Option<(u8,u64,i64,u64)>}; \
     JobQueue{meta:Vec<JobMeta>,next_back:i64,next_front:i64,requeues:u64,aging_s:Option<f64>}; \
     JobState{tag:u8,machine:u64?}; \
     ClusterJob{id:u64,spec:BeSpec,checkpoint:f64,wasted:f64,kills:u32,submitted_s:f64,\
     completed_s:Option<f64>,state:JobState,priority:u8,deadline_s:Option<f64>,gang:Option<u32>}; \
     GangState{members:Vec<u64>,patience_left:u32,forming:bool}; \
     SchedulerState{jobs,queue:JobQueue,offered:Vec<Option<u64>>,\
     bindings:BTreeMap<(u64,u64),u64>,rr_cursor:u64,gangs,events}; \
     ClusterSnapshot{meta:{epoch:u32,t_ns,machines,pods,replicas,seed,duration_s,\
     controller_period_ms:u64,managed:bool},sections:[meta,scheduler,engines,summaries,tail]}";

pub use fault::{ChaosState, FaultEvent, FaultKind, FaultPlan};
pub use job::{ClusterJob, JobId, JobSpec, JobState, JobStats};
pub use metrics::{machine_fingerprints, ClusterMetrics, ClusterOutcome, ClusterTelemetry};
pub use placement::{CandidateMachine, PlacementPolicy, Placer};
pub use queue::{JobQueue, QueueKey};
pub use runner::{compare_cluster, run_cluster, ClusterRun, ClusterRunner};
pub use snapshot::{
    expected_schemas, ChaosSection, ClusterSnapshot, GangState, SchedulerState, SnapshotDiff,
};
pub use state::{global_index, machine_ref, replica_seed, ClusterConfig, MachineRef};
