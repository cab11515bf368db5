//! Shared-resource interference model.
//!
//! The paper's §2 characterization shows that co-located BE jobs inflate
//! an LC component's tail latency through four shared-resource channels —
//! cores, LLC, DRAM bandwidth and the NIC — and that isolation mechanisms
//! (cpuset pinning, Intel CAT, qdisc) attenuate but do not eliminate the
//! interference. This crate turns a machine's current BE population into a
//! [`Pressure`] vector and combines it with a component's
//! [`rhythm_workloads::Sensitivity`] into a multiplicative service-time
//! inflation.
//!
//! * [`pressure`] — machine-wide pressure aggregation from BE grants.
//! * [`model`] — the calibrated [`InterferenceModel`].
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod model;
pub mod pressure;

pub use model::{InterferenceModel, MachineTerms};
pub use pressure::Pressure;
