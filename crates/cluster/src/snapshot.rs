//! Durable cluster state: the epoch-barrier snapshot container.
//!
//! A [`ClusterSnapshot`] is everything the runner needs to continue a run
//! **bit-identically** from an epoch barrier: the scheduler's durable
//! state ([`SchedulerState`] — job ledger, queue, offers, bindings,
//! round-robin cursor, gangs, event stream — the very value the
//! scheduler runs on, cloned at capture and assigned whole on resume),
//! one opaque byte stream per replica engine (captured by
//! [`Engine::snapshot_encode`]), a structural [`EngineSummary`] digest
//! per replica (so [`ClusterSnapshot::diff`] can render a post-mortem
//! without the service spec), and the cluster tail series collected so
//! far (resume splices the remainder onto it without duplication).
//!
//! On disk the snapshot is an `RSNP` container ([`SnapshotFile`]): magic,
//! format version, the schema hash of **every** state-contributing crate,
//! then named sections. [`ClusterSnapshot::from_bytes`] refuses a file
//! whose version or schema hashes differ
//! ([`SnapshotError::Incompatible`]) and validates the cross-section
//! invariants (engine count = replicas, machines = replicas × pods), so a
//! foreign or stale file fails loudly instead of misdecoding.
//!
//! [`Engine::snapshot_encode`]: rhythm_core::runtime::Engine::snapshot_encode

use crate::fault::{ChaosState, CHAOS_SECTION_VERSION};
use crate::job::{ClusterJob, JobId, JobState};
use crate::queue::JobQueue;
use rhythm_core::runtime::EngineSummary;
use rhythm_machine::machine::BeInstanceId;
use rhythm_snapshot::{
    fnv1a, schema_hash, Reader, Snapshot, SnapshotBuilder, SnapshotError, SnapshotFile, Writer,
};
use rhythm_telemetry::{ClusterEvent, TailPoint};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The expected schema table: every crate whose types appear in a
/// cluster snapshot, with the hash of its layout description.
pub fn expected_schemas() -> [(&'static str, u64); 7] {
    [
        ("rhythm-sim", schema_hash(rhythm_sim::SNAPSHOT_SCHEMA)),
        (
            "rhythm-machine",
            schema_hash(rhythm_machine::SNAPSHOT_SCHEMA),
        ),
        (
            "rhythm-workloads",
            schema_hash(rhythm_workloads::SNAPSHOT_SCHEMA),
        ),
        (
            "rhythm-controller",
            schema_hash(rhythm_controller::SNAPSHOT_SCHEMA),
        ),
        (
            "rhythm-telemetry",
            schema_hash(rhythm_telemetry::SNAPSHOT_SCHEMA),
        ),
        ("rhythm-core", schema_hash(rhythm_core::SNAPSHOT_SCHEMA)),
        ("rhythm-cluster", schema_hash(crate::SNAPSHOT_SCHEMA)),
    ]
}

/// Lifecycle bookkeeping of one gang-scheduled job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GangState {
    /// Member job ids in submission order (the first live member acts
    /// as the gang's representative in the queue).
    pub members: Vec<JobId>,
    /// Epochs left before a forming gang aborts.
    pub patience_left: u32,
    /// Offers are out but not every live member runs yet.
    pub forming: bool,
}

impl Snapshot for GangState {
    fn encode(&self, w: &mut Writer) {
        self.members.encode(w);
        w.u32(self.patience_left);
        w.bool(self.forming);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(GangState {
            members: Snapshot::decode(r)?,
            patience_left: r.u32()?,
            forming: r.bool()?,
        })
    }
}

/// The cluster scheduler's durable state. The scheduler holds one and
/// mutates it in place at every epoch barrier; a capture clones it and
/// resume, once the state checks out against the config, assigns it
/// whole. Everything else in the scheduler (placement rows and caches,
/// per-pass scratch) is derived state rebuilt on the next dispatch pass.
#[derive(Clone, Debug)]
pub struct SchedulerState {
    /// The job ledger, indexed by job id.
    pub jobs: Vec<ClusterJob>,
    /// The backlog awaiting placement.
    pub queue: JobQueue,
    /// Outstanding offer per machine (index = global machine index).
    pub offered: Vec<Option<JobId>>,
    /// `(global machine, BE instance) → job` for running work.
    pub bindings: BTreeMap<(u64, BeInstanceId), JobId>,
    /// The round-robin placement cursor: the next global index the
    /// rotation tries.
    pub rr_cursor: u64,
    /// Gang id → lifecycle, for every gang entry of the plan.
    pub gangs: BTreeMap<u32, GangState>,
    /// Scheduler events (gang lifecycle, deadline misses, faults) in
    /// emission order, populated only when telemetry is enabled (resume
    /// continues the stream without duplication).
    pub events: Vec<ClusterEvent>,
}

impl SchedulerState {
    /// Job `jid`'s ledger entry.
    pub(crate) fn job(&self, jid: JobId) -> &ClusterJob {
        &self.jobs[ledger_slot(jid)]
    }

    /// Job `jid`'s ledger entry, mutably.
    pub(crate) fn job_mut(&mut self, jid: JobId) -> &mut ClusterJob {
        &mut self.jobs[ledger_slot(jid)]
    }
}

/// The ledger position of job `jid`. Ids are positions in
/// [`SchedulerState::jobs`]: the scheduler hands them out in ledger
/// order, and decode refuses any id at or past the ledger's length.
#[expect(
    clippy::cast_possible_truncation,
    reason = "job ids are ledger positions, below a `usize` length"
)]
pub(crate) fn ledger_slot(jid: JobId) -> usize {
    jid as usize
}

impl Snapshot for SchedulerState {
    fn encode(&self, w: &mut Writer) {
        self.jobs.encode(w);
        self.queue.encode(w);
        self.offered.encode(w);
        self.bindings.encode(w);
        w.u64(self.rr_cursor);
        self.gangs.encode(w);
        self.events.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let state = SchedulerState {
            jobs: Snapshot::decode(r)?,
            queue: Snapshot::decode(r)?,
            offered: Snapshot::decode(r)?,
            bindings: Snapshot::decode(r)?,
            rr_cursor: r.u64()?,
            gangs: Snapshot::decode(r)?,
            events: Snapshot::decode(r)?,
        };
        let n = state.jobs.len() as u64;
        for (i, j) in state.jobs.iter().enumerate() {
            if j.id != i as u64 {
                return Err(SnapshotError::Corrupt(format!(
                    "job ledger entry {i} carries id {}",
                    j.id
                )));
            }
        }
        let in_range = |jid: JobId| jid < n;
        if let Some(bad) = state.queue.queued_ids().into_iter().find(|&j| !in_range(j)) {
            return Err(SnapshotError::Corrupt(format!(
                "queue holds unknown job {bad}"
            )));
        }
        if let Some(bad) = state.offered.iter().flatten().find(|&&j| !in_range(j)) {
            return Err(SnapshotError::Corrupt(format!(
                "offer names unknown job {bad}"
            )));
        }
        if let Some(bad) = state.bindings.values().find(|&&j| !in_range(j)) {
            return Err(SnapshotError::Corrupt(format!(
                "binding names unknown job {bad}"
            )));
        }
        for (gid, g) in &state.gangs {
            if let Some(bad) = g.members.iter().find(|&&m| !in_range(m)) {
                return Err(SnapshotError::Corrupt(format!(
                    "gang {gid} lists unknown member {bad}"
                )));
            }
        }
        Ok(state)
    }
}

/// Fault-injection state carried in the snapshot's **optional**
/// `chaos` section: the fingerprint of the configured [`FaultPlan`]
/// (so resume refuses a different plan) plus the runner's dynamic
/// [`ChaosState`]. Present only when the run was configured with a
/// non-empty plan — a chaos-free run's container is byte-identical to
/// the pre-chaos format, which keeps the golden container fixture and
/// every archived snapshot valid.
///
/// [`FaultPlan`]: crate::fault::FaultPlan
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSection {
    /// FNV-1a fingerprint of the **normalized** fault plan.
    pub plan_fp: u64,
    /// Plan cursor + down set at the capturing barrier.
    pub state: ChaosState,
}

/// A resumable image of one cluster run at an epoch barrier.
#[derive(Clone, Debug)]
pub struct ClusterSnapshot {
    /// Epochs completed when the snapshot was captured.
    pub epoch: u32,
    /// Virtual time of the capturing barrier, in nanoseconds.
    pub t_ns: u64,
    /// Machines in the cluster.
    pub machines: u64,
    /// Servpods per replica.
    pub pods: u64,
    /// Service replicas (engines).
    pub replicas: u64,
    /// Base seed of the run.
    pub seed: u64,
    /// Configured run length in virtual seconds.
    pub duration_s: u64,
    /// Controller period (= epoch length) in milliseconds.
    pub controller_period_ms: u64,
    /// Whether a managed controller drives BE work (false for Solo).
    pub managed: bool,
    /// The scheduler's dynamic state.
    pub scheduler: SchedulerState,
    /// One opaque engine stream per replica
    /// ([`Engine::snapshot_encode`](rhythm_core::runtime::Engine::snapshot_encode)).
    pub engines: Vec<Vec<u8>>,
    /// Structural digest of each engine, for diffs and post-mortems.
    pub summaries: Vec<EngineSummary>,
    /// The merged cluster tail series collected so far.
    pub cluster_tail: Vec<TailPoint>,
    /// Fault-injection state (`None` when the run has no fault plan;
    /// see [`ChaosSection`]).
    pub chaos: Option<ChaosSection>,
}

impl ClusterSnapshot {
    /// Serializes the snapshot as an `RSNP` container. Deterministic:
    /// identical state yields identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        for (name, hash) in expected_schemas() {
            b.schema(name, hash);
        }
        let mut meta = Writer::new();
        meta.u32(self.epoch);
        meta.u64(self.t_ns);
        meta.u64(self.machines);
        meta.u64(self.pods);
        meta.u64(self.replicas);
        meta.u64(self.seed);
        meta.u64(self.duration_s);
        meta.u64(self.controller_period_ms);
        meta.bool(self.managed);
        b.section("meta", meta);
        let mut sched = Writer::new();
        self.scheduler.encode(&mut sched);
        b.section("scheduler", sched);
        // `u64` count, then each stream as one length-prefixed slice,
        // copied once into a section allocated at its exact size.
        let mut engines =
            Writer::with_capacity(8 + self.engines.iter().map(|e| 8 + e.len()).sum::<usize>());
        engines.u64(self.engines.len() as u64);
        for e in &self.engines {
            engines.bytes(e);
        }
        b.section("engines", engines);
        let mut summaries = Writer::new();
        self.summaries.encode(&mut summaries);
        b.section("summaries", summaries);
        let mut tail = Writer::new();
        self.cluster_tail.encode(&mut tail);
        b.section("tail", tail);
        if let Some(chaos) = &self.chaos {
            // Optional trailing section: absent for chaos-free runs, so
            // their container bytes match the pre-chaos format exactly.
            // The leading version byte lets the chaos wire format evolve
            // independently of the v1 container layout.
            let mut w = Writer::new();
            w.u8(CHAOS_SECTION_VERSION);
            w.u64(chaos.plan_fp);
            chaos.state.encode(&mut w);
            b.section("chaos", w);
        }
        b.finish()
    }

    /// Parses and validates a snapshot container: magic, format version
    /// and every crate schema hash must match the running code
    /// ([`SnapshotError::Incompatible`] otherwise), each section must
    /// decode exactly, and the cross-section invariants must hold.
    pub fn from_bytes(bytes: &[u8]) -> Result<ClusterSnapshot, SnapshotError> {
        let file = SnapshotFile::parse(bytes)?;
        file.verify_schemas(&expected_schemas())?;
        let read = |name: &str,
                    f: &mut dyn FnMut(&mut Reader<'_>) -> Result<(), SnapshotError>|
         -> Result<(), SnapshotError> {
            let mut r = file.section(name)?;
            f(&mut r)?;
            if !r.is_empty() {
                return Err(SnapshotError::Corrupt(format!(
                    "section `{name}` has {} trailing bytes",
                    r.remaining()
                )));
            }
            Ok(())
        };
        let mut r = file.section("meta")?;
        let epoch = r.u32()?;
        let t_ns = r.u64()?;
        let machines = r.u64()?;
        let pods = r.u64()?;
        let replicas = r.u64()?;
        let seed = r.u64()?;
        let duration_s = r.u64()?;
        let controller_period_ms = r.u64()?;
        let managed = r.bool()?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(
                "section `meta` has trailing bytes".into(),
            ));
        }
        let mut scheduler: Option<SchedulerState> = None;
        read("scheduler", &mut |r| {
            scheduler = Some(Snapshot::decode(r)?);
            Ok(())
        })?;
        let mut engines: Vec<Vec<u8>> = Vec::new();
        read("engines", &mut |r| {
            let n = r.len(8)?;
            engines = Vec::with_capacity(n);
            for _ in 0..n {
                engines.push(r.bytes()?.to_vec());
            }
            Ok(())
        })?;
        let mut summaries: Vec<EngineSummary> = Vec::new();
        read("summaries", &mut |r| {
            summaries = Snapshot::decode(r)?;
            Ok(())
        })?;
        let mut cluster_tail: Vec<TailPoint> = Vec::new();
        read("tail", &mut |r| {
            cluster_tail = Snapshot::decode(r)?;
            Ok(())
        })?;
        let mut chaos: Option<ChaosSection> = None;
        if file.section_names().any(|n| n == "chaos") {
            read("chaos", &mut |r| {
                let version = r.u8()?;
                if version != CHAOS_SECTION_VERSION {
                    return Err(SnapshotError::Incompatible {
                        expected: format!("chaos section v{CHAOS_SECTION_VERSION}"),
                        found: format!("chaos section v{version}"),
                    });
                }
                chaos = Some(ChaosSection {
                    plan_fp: r.u64()?,
                    state: Snapshot::decode(r)?,
                });
                Ok(())
            })?;
        }
        // PANIC: read("scheduler") either filled it or returned Missing.
        let scheduler = scheduler.expect("scheduler section read");
        if pods == 0 || replicas == 0 || replicas.checked_mul(pods) != Some(machines) {
            return Err(SnapshotError::Corrupt(format!(
                "cluster shape is inconsistent: {machines} machines, {replicas} replicas × {pods} pods"
            )));
        }
        if engines.len() as u64 != replicas || summaries.len() as u64 != replicas {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {} engine streams and {} summaries for {replicas} replicas",
                engines.len(),
                summaries.len()
            )));
        }
        if scheduler.offered.len() as u64 != machines {
            return Err(SnapshotError::Corrupt(format!(
                "scheduler offers cover {} machines, meta declares {machines}",
                scheduler.offered.len()
            )));
        }
        if let Some(c) = &chaos {
            if let Some(&bad) = c.state.down.iter().find(|&&m| m >= machines) {
                return Err(SnapshotError::Corrupt(format!(
                    "chaos down set lists machine {bad}, cluster has {machines}"
                )));
            }
        }
        Ok(ClusterSnapshot {
            epoch,
            t_ns,
            machines,
            pods,
            replicas,
            seed,
            duration_s,
            controller_period_ms,
            managed,
            scheduler,
            engines,
            summaries,
            cluster_tail,
            chaos,
        })
    }

    /// FNV-1a over the serialized container — the byte fingerprint used
    /// by goldens and the resume-equality tests.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }

    /// Structural comparison of two snapshots: queues, offers, bindings,
    /// the job ledger, per-machine engine state and metrics deltas.
    pub fn diff(&self, other: &ClusterSnapshot) -> SnapshotDiff {
        let mut d = SnapshotDiff::default();
        let mut meta = |name: &str, a: String, b: String| {
            if a != b {
                d.push(format!("meta: {name} {a} vs {b}"));
            }
        };
        meta("epoch", self.epoch.to_string(), other.epoch.to_string());
        meta("t_ns", self.t_ns.to_string(), other.t_ns.to_string());
        meta(
            "machines",
            self.machines.to_string(),
            other.machines.to_string(),
        );
        meta("pods", self.pods.to_string(), other.pods.to_string());
        meta(
            "replicas",
            self.replicas.to_string(),
            other.replicas.to_string(),
        );
        meta("seed", self.seed.to_string(), other.seed.to_string());
        meta(
            "duration_s",
            self.duration_s.to_string(),
            other.duration_s.to_string(),
        );
        meta(
            "controller_period_ms",
            self.controller_period_ms.to_string(),
            other.controller_period_ms.to_string(),
        );
        meta(
            "managed",
            self.managed.to_string(),
            other.managed.to_string(),
        );
        match (&self.chaos, &other.chaos) {
            (Some(a), Some(b)) => {
                if a.plan_fp != b.plan_fp {
                    d.push(format!(
                        "chaos: plan fingerprint {:#018x} vs {:#018x}",
                        a.plan_fp, b.plan_fp
                    ));
                }
                if a.state.applied != b.state.applied {
                    d.push(format!(
                        "chaos: {} vs {} fault events applied",
                        a.state.applied, b.state.applied
                    ));
                }
                if a.state.down != b.state.down {
                    d.push(format!(
                        "chaos: down set {:?} vs {:?}",
                        a.state.down, b.state.down
                    ));
                }
            }
            (None, None) => {}
            _ => d.push("chaos: fault state present on one side only".to_string()),
        }
        self.diff_scheduler(other, &mut d);
        self.diff_engines(other, &mut d);
        if self.cluster_tail.len() != other.cluster_tail.len() {
            d.push(format!(
                "tail: {} vs {} cluster tail points",
                self.cluster_tail.len(),
                other.cluster_tail.len()
            ));
        } else {
            let changed = self
                .cluster_tail
                .iter()
                .zip(&other.cluster_tail)
                .filter(|(a, b)| {
                    a.t_s.to_bits() != b.t_s.to_bits() || a.p99_ms.to_bits() != b.p99_ms.to_bits()
                })
                .count();
            if changed > 0 {
                d.push(format!("tail: {changed} cluster tail points differ"));
            }
        }
        d
    }

    fn diff_scheduler(&self, other: &ClusterSnapshot, d: &mut SnapshotDiff) {
        let (a, b) = (&self.scheduler, &other.scheduler);
        if a.jobs.len() != b.jobs.len() {
            d.push(format!(
                "jobs: ledger sizes {} vs {}",
                a.jobs.len(),
                b.jobs.len()
            ));
        }
        let state_word = |s: &JobState| match s {
            JobState::Queued => "queued".to_string(),
            JobState::Offered(g) => format!("offered@{g}"),
            JobState::Running(g) => format!("running@{g}"),
            JobState::Done => "done".to_string(),
        };
        let mut job_diffs = 0usize;
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            let mut changes: Vec<String> = Vec::new();
            if ja.state != jb.state {
                changes.push(format!(
                    "{} vs {}",
                    state_word(&ja.state),
                    state_word(&jb.state)
                ));
            }
            if ja.checkpoint.to_bits() != jb.checkpoint.to_bits() {
                changes.push(format!(
                    "checkpoint {:.3} vs {:.3}",
                    ja.checkpoint, jb.checkpoint
                ));
            }
            if ja.kills != jb.kills {
                changes.push(format!("kills {} vs {}", ja.kills, jb.kills));
            }
            if ja.completed_s.map(f64::to_bits) != jb.completed_s.map(f64::to_bits) {
                changes.push(format!(
                    "completed {:?} vs {:?}",
                    ja.completed_s, jb.completed_s
                ));
            }
            if !changes.is_empty() {
                job_diffs += 1;
                if job_diffs <= MAX_LISTED {
                    d.push(format!(
                        "job {} ({}): {}",
                        ja.id,
                        ja.spec.name,
                        changes.join(", ")
                    ));
                }
            }
        }
        if job_diffs > MAX_LISTED {
            d.push(format!(
                "jobs: … and {} more differing jobs",
                job_diffs - MAX_LISTED
            ));
        }
        let (qa, qb) = (a.queue.queued_ids(), b.queue.queued_ids());
        if qa != qb {
            d.push(format!("scheduler: queue {qa:?} vs {qb:?}"));
        }
        if a.queue.requeue_count() != b.queue.requeue_count() {
            d.push(format!(
                "scheduler: requeues {} vs {}",
                a.queue.requeue_count(),
                b.queue.requeue_count()
            ));
        }
        if a.offered != b.offered {
            d.push(format!(
                "scheduler: offers {:?} vs {:?}",
                a.offered, b.offered
            ));
        }
        if a.bindings != b.bindings {
            d.push(format!(
                "scheduler: bindings {:?} vs {:?}",
                a.bindings, b.bindings
            ));
        }
        if a.events.len() != b.events.len() {
            d.push(format!(
                "scheduler: {} vs {} events",
                a.events.len(),
                b.events.len()
            ));
        }
        if a.rr_cursor != b.rr_cursor {
            d.push(format!(
                "scheduler: rr cursor {} vs {}",
                a.rr_cursor, b.rr_cursor
            ));
        }
    }

    fn diff_engines(&self, other: &ClusterSnapshot, d: &mut SnapshotDiff) {
        let replicas = self.summaries.len().max(other.summaries.len());
        for r in 0..replicas {
            let (sa, sb) = match (self.summaries.get(r), other.summaries.get(r)) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    d.push(format!("replica {r}: present on one side only"));
                    continue;
                }
            };
            if sa.completed_total != sb.completed_total {
                d.push(format!(
                    "replica {r}: completed {} vs {} (Δ {})",
                    sa.completed_total,
                    sb.completed_total,
                    sb.completed_total.cast_signed() - sa.completed_total.cast_signed()
                ));
            }
            if sa.inflight != sb.inflight {
                d.push(format!(
                    "replica {r}: in-flight {} vs {}",
                    sa.inflight, sb.inflight
                ));
            }
            if sa.pending_events != sb.pending_events {
                d.push(format!(
                    "replica {r}: pending events {} vs {}",
                    sa.pending_events, sb.pending_events
                ));
            }
            for (m, (ma, mb)) in sa.machines.iter().zip(&sb.machines).enumerate() {
                let mut changes: Vec<String> = Vec::new();
                if ma.be_instances != mb.be_instances || ma.be_running != mb.be_running {
                    changes.push(format!(
                        "BE {}/{} vs {}/{}",
                        ma.be_running, ma.be_instances, mb.be_running, mb.be_instances
                    ));
                }
                if ma.be_cores != mb.be_cores {
                    changes.push(format!("cores {} vs {}", ma.be_cores, mb.be_cores));
                }
                if ma.be_llc_ways != mb.be_llc_ways {
                    changes.push(format!("llc ways {} vs {}", ma.be_llc_ways, mb.be_llc_ways));
                }
                if ma.lc_freq_mhz != mb.lc_freq_mhz || ma.be_freq_mhz != mb.be_freq_mhz {
                    changes.push(format!(
                        "freq lc/be {}/{} vs {}/{}",
                        ma.lc_freq_mhz, ma.be_freq_mhz, mb.lc_freq_mhz, mb.be_freq_mhz
                    ));
                }
                if ma.be_started != mb.be_started || ma.be_killed != mb.be_killed {
                    changes.push(format!(
                        "started/killed {}/{} vs {}/{}",
                        ma.be_started, ma.be_killed, mb.be_started, mb.be_killed
                    ));
                }
                if !changes.is_empty() {
                    d.push(format!(
                        "replica {r} machine {m} ({}): {}",
                        ma.pod,
                        changes.join(", ")
                    ));
                }
            }
            // Summaries equal but raw streams differ: surface it rather
            // than report a false "identical".
            if let (Some(ea), Some(eb)) = (self.engines.get(r), other.engines.get(r)) {
                if ea != eb
                    && !d
                        .differences
                        .iter()
                        .any(|l| l.starts_with(&format!("replica {r}")))
                {
                    d.push(format!(
                        "replica {r}: engine streams differ ({} vs {} bytes, fp {:#018x} vs {:#018x})",
                        ea.len(),
                        eb.len(),
                        fnv1a(ea),
                        fnv1a(eb)
                    ));
                }
            }
        }
    }
}

/// How many per-job difference lines [`ClusterSnapshot::diff`] lists
/// before collapsing the rest into a count.
const MAX_LISTED: usize = 50;

/// The result of [`ClusterSnapshot::diff`]: one line per structural
/// difference (empty for identical snapshots).
#[derive(Clone, Debug, Default)]
pub struct SnapshotDiff {
    /// Human-readable difference lines, in section order.
    pub differences: Vec<String>,
}

impl SnapshotDiff {
    fn push(&mut self, line: String) {
        self.differences.push(line);
    }

    /// True when the snapshots are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.differences.is_empty()
    }

    /// Number of difference lines.
    pub fn len(&self) -> usize {
        self.differences.len()
    }

    /// Renders the post-mortem report.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "0 differences: snapshots are structurally identical\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} difference(s):", self.differences.len());
        for line in &self.differences {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}
