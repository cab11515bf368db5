//! Physical machine model for the Rhythm reproduction.
//!
//! The paper's testbed is four quad-socket Intel Xeon E7-4820 v4 machines
//! (40 cores, 20 MB L3 per socket, 64 GB DRAM per socket, 10 Gb NIC). The
//! runtime controller never touches silicon directly — it actuates Linux
//! and hardware *interfaces*: `cpuset` cgroups for core pinning, Intel CAT
//! for LLC way partitioning, `qdisc` for network bandwidth, and DVFS/RAPL
//! for frequency and power (paper §4, "Isolation"). This crate models those
//! interfaces with the same units and granularities, so the controller code
//! is written exactly as it would be against real hardware.
//!
//! * [`spec`] — machine capacities ([`MachineSpec`], defaults to the
//!   paper's testbed machine).
//! * [`alloc`] — a resource grant ([`Allocation`]) for one job.
//! * [`cpuset`] — core-pinning sets.
//! * [`cat`] — LLC way-bitmap partitioning (Intel CAT).
//! * [`dvfs`] — per-domain frequency scaling.
//! * [`power`] — RAPL-style socket power model with a TDP cap.
//! * [`qdisc`] — network bandwidth shaping.
//! * [`machine`] — the assembled [`Machine`] with LC/BE resource
//!   accounting and capacity invariants.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod alloc;
pub mod cat;
pub mod cpuset;
pub mod dvfs;
pub mod machine;
pub mod power;
pub mod qdisc;
pub mod spec;

/// Layout description of every [`rhythm_snapshot::Snapshot`] impl in this
/// crate. Hashed into snapshot files; **bump the text whenever an encoding
/// here changes shape** so stale snapshots are refused instead of
/// misdecoded.
pub const SNAPSHOT_SCHEMA: &str = "rhythm-machine/v1: \
     Allocation=(cores:u32,llc_ways:u32,mem_mb:u64,net_mbps:f64,freq_mhz:u32) \
     CpuSet=u128 CatPartition=(total:u32,lc:u32,be:u32) \
     DvfsDomain=(min:u32,max:u32,step:u32,current:u32) \
     Qdisc=(link:f64,be_limit:f64) \
     PowerModel=(idle:f64,dyn_per_core:f64,max_freq:u32,tdp:f64) \
     MachineSpec=11 fields \
     BeInstance=(id:u64,workload:str,alloc,cpuset,state:u8,priority:u8,saved:Option) \
     Machine=(spec,lc_alloc,lc_cpuset,free_cores,cat,lc_dvfs,be_dvfs,qdisc,power,\
     bes:[BeInstance],next_be_id:u64,change_epoch:u64,be_started:u64,be_killed:u64)";

pub use alloc::Allocation;
pub use cat::CatPartition;
pub use cpuset::CpuSet;
pub use dvfs::DvfsDomain;
pub use machine::{Machine, MachineError};
pub use power::PowerModel;
pub use qdisc::Qdisc;
pub use spec::MachineSpec;
