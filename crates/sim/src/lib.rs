//! Deterministic discrete-event simulation substrate for the Rhythm
//! reproduction.
//!
//! The paper evaluates Rhythm on a four-machine cluster; this crate provides
//! the virtual-time machinery that replaces wall-clock cluster time:
//!
//! * [`time`] — nanosecond-resolution virtual time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`calendar`] — a deterministic event calendar ([`Calendar`]): a
//!   binary heap keyed by `(time, seq)`, so simultaneous events pop in
//!   stable FIFO order.
//! * [`arena`] — a generation-keyed slab ([`Arena`]) backing the engine's
//!   in-flight request table without hashing or steady-state allocation.
//! * [`rng`] — seedable, splittable random-number streams ([`SimRng`]).
//! * [`dist`] — the sampling distributions used by the workload models
//!   (exponential, log-normal, gamma, Pareto, ...).
//! * [`stats`] — streaming statistics (Welford mean/variance, Pearson
//!   correlation, coefficient of variation) used by the contribution
//!   analyzer (paper §3.4).
//! * [`hist`] — a log-bucketed latency histogram for percentile queries
//!   (the 99th-percentile tail the SLA is defined over).
//! * [`window`] — sliding-window tail-latency tracking for the runtime
//!   controller (paper §3.5, Algorithm 2 reads the "current" tail).
//!
//! Everything in this crate is deterministic given a seed: two runs with the
//! same seed produce bit-identical results, which the test suite and the
//! figure-regeneration harness rely on.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod arena;
pub mod calendar;
pub mod dist;
pub mod hist;
pub mod rng;
pub mod stats;
pub mod time;
pub mod window;

/// Layout description of every [`rhythm_snapshot::Snapshot`] impl in this
/// crate. Hashed into snapshot files; **bump the text whenever an encoding
/// here changes shape** so stale snapshots are refused instead of
/// misdecoded.
pub const SNAPSHOT_SCHEMA: &str = "rhythm-sim/v1: \
     SimTime=u64ns SimDuration=u64ns \
     SimRng=(seed:u64,xoshiro256++:[u64;4]) \
     Calendar=(now:u64,next_seq:u64,entries:[(at:u64,seq:u64,event)] sorted) \
     Arena=(slots:[(gen:u32,value:Option)],free:[u32]) Key=u64 \
     LatencyHistogram=(log_gamma:f64,min_value:f64,counts:[u64],total:u64,sum:f64,max:f64) \
     OnlineStats=(n:u64,mean:f64,m2:f64,min:f64,max:f64) \
     TailWindow=(slot_len:u64ns,slots:[(epoch:u64,hist)])";

pub use arena::Arena;
pub use calendar::Calendar;
pub use dist::{Dist, ResolvedDist};
pub use hist::LatencyHistogram;
pub use rng::SimRng;
pub use stats::{pearson, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use window::TailWindow;
