//! Reproduction harness for the paper's evaluation (§5).
//!
//! Each module regenerates one table or figure; the `repro` binary
//! dispatches on experiment id and writes both a human-readable text
//! table and machine-readable JSON under `results/`.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig02`] | Figure 2 — per-component interference characterization |
//! | [`fig06`] | Figure 6 — E-commerce sojourn times and CoV over load |
//! | [`fig07`] | Figure 7 — Servpod sensitivity vs contribution |
//! | [`fig08`] | Figure 8 — CoV curves and loadlimit detection |
//! | [`colocation`] | the Figures 9-14 constant-load grid |
//! | [`fig15`] | Figure 15 — production-load improvements |
//! | [`fig16`] | Figure 16 — SNMS microservice comparison |
//! | [`fig17`] | Figure 17 — controller timeline |
//! | [`fig18`] | Figure 18 + Table 2 — threshold sweeps |
//! | [`tab1`] | Table 1 — workload inventory |
//! | [`ablate`] | ablations of Rhythm's design choices |
//! | [`cluster`] | cluster-level Rhythm vs Heracles at N ∈ {4, 16, 64} |
//! | [`chaos`] | chaos campaign: trace-shaped load + fault injection |
//! | [`trace`] | telemetry exports of one traced cluster run |
//! | [`lint`] | rhythm-lint determinism & invariant pass over the workspace |
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (rhythm-lint rule U01 enforces the comment).
#![forbid(unsafe_code)]

pub mod ablate;
pub mod chaos;
pub mod cluster;
pub mod colocation;
pub mod fig02;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod lint;
pub mod report;
pub mod snapshotcli;
pub mod tab1;
pub mod trace;

pub use report::Report;
