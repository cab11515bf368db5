//! Chaos harness: trace-shaped workloads + deterministic fault
//! injection over the cluster runner.
//!
//! The paper evaluates Rhythm under constant loads and one scaled
//! production trace (§5.2–5.3) — steady-state conditions. Production
//! clusters are not steady: load follows diurnal curves with flash
//! crowds, BE job sizes are heavy-tailed, machines crash, racks fail
//! together, and nodes silently degrade. This crate packages those
//! conditions as a **deterministic scenario library** over the
//! epoch-barrier cluster runner, so "Rhythm under chaos" is a
//! reproducible experiment, not an anecdote:
//!
//! * [`jobs`] — heavy-tailed BE job-size plans (lognormal /
//!   bounded-Pareto, fit to the published Alibaba trace shape);
//! * [`recovery`] — the tail-latency recovery-time metric: how long
//!   after a disruption the cluster-wide p99 returns to (and stays
//!   near) its pre-fault baseline;
//! * [`scenario`] — named scenarios (baseline-diurnal, flash-crowd,
//!   rolling-crashes, correlated-rack-failure, straggler-node,
//!   crash-restart) built from [`LoadGen`] shapes and
//!   [`FaultPlan`] schedules, each reporting SLA violations, EMU,
//!   recovery time and a run fingerprint;
//! * [`restart`] — the process-crash drill: snapshot at an epoch
//!   barrier, drop the runner, resume from the decoded bytes, and
//!   check the resumed run is **bit-identical** to one that never
//!   stopped (outcome fingerprints and telemetry exports).
//!
//! Everything is driven by the deterministic sim RNG and the runner's
//! barrier discipline: the same seed produces byte-identical scenario
//! results for any worker-thread count.
//!
//! [`LoadGen`]: rhythm_workloads::LoadGen
//! [`FaultPlan`]: rhythm_cluster::FaultPlan
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (rhythm-lint rule U01 enforces the comment).
#![forbid(unsafe_code)]

pub mod jobs;
pub mod recovery;
pub mod restart;
pub mod scenario;

pub use jobs::{heavy_tailed_plan, JobSizeDist};
pub use recovery::{recovery_time, Recovery, RECOVERY_SUSTAIN_POINTS, RECOVERY_THRESHOLD};
pub use restart::{crash_restart, RestartCheck};
pub use scenario::{outcome_fingerprint, Scenario, ScenarioOutcome};
