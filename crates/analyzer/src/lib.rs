//! Contribution analyzer (paper §3.4) and thresholding (§3.5.1).
//!
//! Rhythm characterizes each Servpod once, offline, from a solo run of
//! the LC service swept over load levels. From the per-load mean sojourn
//! times the analyzer derives each Servpod's *contribution* to the
//! end-to-end tail latency — the product of three factors (Equation 4):
//!
//! * `P_i` — weight of the Servpod's average sojourn time (Equation 1),
//! * `ρ_i` — Pearson correlation between the Servpod's per-load mean
//!   sojourn and the per-load tail latency (Equation 2),
//! * `V_i` — normalized coefficient of variation of the per-load means
//!   (Equation 3),
//!
//! scaled by `α_i` for Servpods off the critical path of a fan-out
//! service (Equation 5). The contributions then drive two thresholds per
//! Servpod (§3.5.1): `loadlimit` (from the first load level whose
//! sojourn-time CoV exceeds its average) and `slacklimit` (the iterative
//! search of Algorithm 1).
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod contribution;
pub mod loadlimit;
pub mod profile;
pub mod slacklimit;

pub use contribution::{contributions, critical_path_alphas, Contribution};
pub use loadlimit::find_loadlimit;
pub use profile::{LoadLevel, SojournProfile};
pub use slacklimit::{find_slacklimits, Descent, SlacklimitSearch};
