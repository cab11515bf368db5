//! The cluster's unit of batch work: one BE job with checkpointed
//! progress.
//!
//! The paper's cluster scheduler (§3.5) treats StopBE as "kill the BE
//! instances and put the jobs back in the queue". What that costs depends
//! on how much of the killed work survives: real batch frameworks
//! checkpoint periodically, so a kill rolls the job back to its last
//! checkpoint rather than to zero. Modelling the checkpoint fraction
//! makes both *completion time* (queue wait + reruns included) and
//! *wasted work* (progress thrown away by kills) measurable outcomes of a
//! placement policy.

use rhythm_telemetry::json::{Obj, Sink, ToJson};
use rhythm_workloads::BeSpec;
use std::sync::Arc;

/// Cluster-wide job identifier (dense, assigned at submission).
pub type JobId = u64;

/// Where a job currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the shared queue.
    Queued,
    /// Offered to a machine (global index), not yet admitted by its
    /// controller.
    Offered(usize),
    /// Running as a BE instance on a machine (global index).
    Running(usize),
    /// Finished.
    Done,
}

/// One BE job flowing through the cluster.
#[derive(Clone, Debug)]
pub struct ClusterJob {
    /// Job id.
    pub id: JobId,
    /// The workload this job runs (one instance of `spec` = one job).
    /// Shared: the scheduler interns one allocation per distinct spec
    /// when it builds its ledger (and reuses it on resume), so jobs with
    /// equal specs, gang members among them, and every offer posted for
    /// them hold the same allocation, and the per-placement hot path
    /// never deep-clones a spec.
    pub spec: Arc<BeSpec>,
    /// Durable progress in `[0, 1]`: the last checkpoint that survives a
    /// kill.
    pub checkpoint: f64,
    /// Progress thrown away by kills (fractions of one job).
    pub wasted: f64,
    /// Times this job was killed (StopBE) and requeued.
    pub kills: u32,
    /// Submission time in virtual seconds.
    pub submitted_s: f64,
    /// Completion time in virtual seconds (None while unfinished).
    pub completed_s: Option<f64>,
    /// Lifecycle state.
    pub state: JobState,
    /// Priority class (0 = lowest; preemption prefers low classes).
    pub priority: u8,
    /// Completion deadline in virtual seconds (`None` = best effort).
    pub deadline_s: Option<f64>,
    /// Gang id when this job is one instance of a gang-scheduled
    /// multi-instance job (`None` for solitary jobs). All members of a
    /// gang start together and are rolled back together.
    pub gang: Option<u32>,
}

impl ClusterJob {
    /// A fresh solitary best-effort job submitted at `submitted_s`.
    pub fn new(id: JobId, spec: Arc<BeSpec>, submitted_s: f64) -> ClusterJob {
        ClusterJob {
            id,
            spec,
            checkpoint: 0.0,
            wasted: 0.0,
            kills: 0,
            submitted_s,
            completed_s: None,
            state: JobState::Queued,
            priority: 0,
            deadline_s: None,
            gang: None,
        }
    }

    /// True if the job's deadline is missed as of `t_s`: either it
    /// finished late, or it is unfinished with the deadline in the past.
    pub fn deadline_missed_at(&self, t_s: f64) -> bool {
        let Some(deadline) = self.deadline_s else {
            return false;
        };
        match self.completed_s {
            Some(done) => done > deadline,
            None => t_s > deadline,
        }
    }

    /// Total progress if the current incarnation has run `incarnation`
    /// beyond the last checkpoint.
    pub fn total_progress(&self, incarnation: f64) -> f64 {
        self.checkpoint + incarnation
    }

    /// Records a StopBE kill: the incarnation had `incarnation` progress
    /// beyond the checkpoint; everything past the last checkpoint
    /// boundary (multiples of `ckpt_fraction`) is wasted, the rest is
    /// banked. With `ckpt_fraction <= 0` nothing survives a kill beyond
    /// previously banked checkpoints.
    pub fn on_kill(&mut self, incarnation: f64, ckpt_fraction: f64) {
        let total = self.total_progress(incarnation).min(1.0);
        let banked = if ckpt_fraction > 0.0 {
            (total / ckpt_fraction).floor() * ckpt_fraction
        } else {
            self.checkpoint
        };
        let banked = banked.max(self.checkpoint).min(total);
        self.wasted += total - banked;
        self.checkpoint = banked;
        self.kills += 1;
        self.state = JobState::Queued;
    }

    /// Marks the job finished at `t_s`.
    pub fn on_complete(&mut self, t_s: f64) {
        self.completed_s = Some(t_s);
        self.checkpoint = 1.0;
        self.state = JobState::Done;
    }

    /// Checks the job's ledger against `ckpt_fraction`, naming the first
    /// violation:
    ///
    /// * a job never killed wasted nothing, exactly;
    /// * `wasted ≤ kills × ckpt_fraction` (each kill throws away at most
    ///   one open checkpoint interval, a whole job when
    ///   `ckpt_fraction ≤ 0` since [`ClusterJob::on_kill`] then banks
    ///   nothing new);
    /// * the job is `Done` exactly when it has a `completed_s`, and a
    ///   `Done` job is fully checkpointed.
    ///
    /// A checkpoint outside `[0, 1]` or a NaN or negative waste is
    /// refused earlier, by the snapshot decoder, before any state is
    /// assembled from it.
    pub fn check_ledger(&self, ckpt_fraction: f64) -> Result<(), String> {
        let id = self.id;
        if self.kills == 0 && self.wasted != 0.0 {
            return Err(format!("job {id} wasted {} without a kill", self.wasted));
        }
        let per_kill = if ckpt_fraction > 0.0 {
            ckpt_fraction
        } else {
            1.0
        };
        if self.wasted > f64::from(self.kills) * per_kill + 1e-9 {
            return Err(format!(
                "job {id} wasted {} over {} kill(s) at checkpoint fraction {ckpt_fraction}",
                self.wasted, self.kills
            ));
        }
        let done = self.state == JobState::Done;
        if done != self.completed_s.is_some() {
            return Err(format!(
                "job {id} is {:?} with completion time {:?}",
                self.state, self.completed_s
            ));
        }
        if done && self.checkpoint != 1.0 {
            return Err(format!(
                "job {id} is done at checkpoint {}",
                self.checkpoint
            ));
        }
        Ok(())
    }

    /// Queue-to-completion time in virtual seconds (None while
    /// unfinished).
    pub fn completion_time_s(&self) -> Option<f64> {
        self.completed_s.map(|t| t - self.submitted_s)
    }
}

impl rhythm_snapshot::Snapshot for JobState {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        match self {
            JobState::Queued => w.u8(0),
            JobState::Offered(g) => {
                w.u8(1);
                w.u64(*g as u64);
            }
            JobState::Running(g) => {
                w.u8(2);
                w.u64(*g as u64);
            }
            JobState::Done => w.u8(3),
        }
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => JobState::Queued,
            1 => JobState::Offered(r.usize()?),
            2 => JobState::Running(r.usize()?),
            3 => JobState::Done,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown job state tag {t}"
                )))
            }
        })
    }
}

impl rhythm_snapshot::Snapshot for ClusterJob {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let ClusterJob {
            id,
            spec,
            checkpoint,
            wasted,
            kills,
            submitted_s,
            completed_s,
            state,
            priority,
            deadline_s,
            gang,
        } = self;
        w.u64(*id);
        spec.as_ref().encode(w);
        w.f64(*checkpoint);
        w.f64(*wasted);
        w.u32(*kills);
        w.f64(*submitted_s);
        completed_s.encode(w);
        state.encode(w);
        w.u8(*priority);
        deadline_s.encode(w);
        gang.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let id = r.u64()?;
        let spec = Arc::new(rhythm_snapshot::Snapshot::decode(r)?);
        let checkpoint = r.f64()?;
        let wasted = r.f64()?;
        if !(0.0..=1.0).contains(&checkpoint) || wasted.is_nan() || wasted < 0.0 {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                "job {id} progress out of range: checkpoint {checkpoint}, wasted {wasted}"
            )));
        }
        Ok(ClusterJob {
            id,
            spec,
            checkpoint,
            wasted,
            kills: r.u32()?,
            submitted_s: r.f64()?,
            completed_s: rhythm_snapshot::Snapshot::decode(r)?,
            state: rhythm_snapshot::Snapshot::decode(r)?,
            priority: r.u8()?,
            deadline_s: rhythm_snapshot::Snapshot::decode(r)?,
            gang: rhythm_snapshot::Snapshot::decode(r)?,
        })
    }
}

/// One entry of a cluster's job plan: a BE workload plus its scheduling
/// attributes. A gang size of `k > 1` expands into `k` [`ClusterJob`]s
/// sharing a gang id that start and roll back atomically.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The BE workload.
    pub spec: BeSpec,
    /// Priority class (0 = lowest).
    pub priority: u8,
    /// Completion deadline in virtual seconds (`None` = best effort).
    pub deadline_s: Option<f64>,
    /// Number of instances that must be co-scheduled (1 = solitary).
    pub gang: u32,
}

impl JobSpec {
    /// A solitary best-effort entry for `spec`.
    pub fn solitary(spec: BeSpec) -> JobSpec {
        JobSpec {
            spec,
            priority: 0,
            deadline_s: None,
            gang: 1,
        }
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: u8) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Sets the completion deadline.
    pub fn with_deadline(mut self, deadline_s: f64) -> JobSpec {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Makes this a gang of `k` co-scheduled instances.
    pub fn with_gang(mut self, k: u32) -> JobSpec {
        self.gang = k.max(1);
        self
    }
}

/// Aggregate job outcomes of one cluster run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that finished within the run.
    pub completed: u64,
    /// StopBE kills across all jobs.
    pub kills: u64,
    /// Mean completion time of finished jobs, in virtual seconds.
    pub completion_mean_s: f64,
    /// 99th-percentile completion time of finished jobs.
    pub completion_p99_s: f64,
    /// Total wasted work in job-fractions (1.0 = one whole job redone).
    pub wasted_jobs: f64,
    /// Total wasted work in solo-machine-seconds (fraction ×
    /// `job_seconds`).
    pub wasted_machine_s: f64,
    /// Jobs that carried a deadline.
    pub deadline_total: u64,
    /// Dated jobs that finished late or ran out of time.
    pub deadline_missed: u64,
    /// `deadline_missed / deadline_total` (0 when no job had a
    /// deadline).
    pub deadline_miss_rate: f64,
}

impl ToJson for JobStats {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("submitted", self.submitted)
            .field("completed", self.completed)
            .field("kills", self.kills)
            .field("completion_mean_s", self.completion_mean_s)
            .field("completion_p99_s", self.completion_p99_s)
            .field("wasted_jobs", self.wasted_jobs)
            .field("wasted_machine_s", self.wasted_machine_s)
            .field("deadline_total", self.deadline_total)
            .field("deadline_missed", self.deadline_missed)
            .field("deadline_miss_rate", self.deadline_miss_rate)
            .close();
    }
}

impl JobStats {
    /// Summarizes a set of jobs without a run horizon: only jobs that
    /// *completed* late count as deadline misses.
    pub fn from_jobs(jobs: &[ClusterJob]) -> JobStats {
        JobStats::from_jobs_at(jobs, f64::NEG_INFINITY)
    }

    /// Summarizes a set of jobs as of `horizon_s` (the end of the run):
    /// a dated job misses if it completed late **or** is still unfinished
    /// past its deadline.
    pub fn from_jobs_at(jobs: &[ClusterJob], horizon_s: f64) -> JobStats {
        let mut times: Vec<f64> = jobs.iter().filter_map(|j| j.completion_time_s()).collect();
        #[expect(
            clippy::expect_used,
            reason = "completion times derive from SimTime nanos, so they are always finite"
        )]
        times.sort_by(|a, b| a.partial_cmp(b).expect("completion times are finite"));
        let completed = times.len() as u64;
        let mean = if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        };
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the nearest rank is in [1, len]: a non-negative whole number, then clamped"
        )]
        let p99 = if times.is_empty() {
            0.0
        } else {
            times[((times.len() as f64 * 0.99).ceil() as usize).min(times.len()) - 1]
        };
        let deadline_total = jobs.iter().filter(|j| j.deadline_s.is_some()).count() as u64;
        let deadline_missed = jobs
            .iter()
            .filter(|j| j.deadline_missed_at(horizon_s))
            .count() as u64;
        JobStats {
            submitted: jobs.len() as u64,
            completed,
            kills: jobs.iter().map(|j| u64::from(j.kills)).sum(),
            completion_mean_s: mean,
            completion_p99_s: p99,
            wasted_jobs: jobs.iter().map(|j| j.wasted).sum(),
            wasted_machine_s: jobs.iter().map(|j| j.wasted * j.spec.job_seconds).sum(),
            deadline_total,
            deadline_missed,
            deadline_miss_rate: if deadline_total > 0 {
                deadline_missed as f64 / deadline_total as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_workloads::BeKind;

    fn job() -> ClusterJob {
        ClusterJob::new(0, Arc::new(BeSpec::of(BeKind::Wordcount)), 0.0)
    }

    #[test]
    fn kill_rolls_back_to_checkpoint_boundary() {
        let mut j = job();
        // 0.37 done with 10% checkpoints: 0.30 banked, 0.07 wasted.
        j.on_kill(0.37, 0.10);
        assert!((j.checkpoint - 0.30).abs() < 1e-12, "{}", j.checkpoint);
        assert!((j.wasted - 0.07).abs() < 1e-12, "{}", j.wasted);
        assert_eq!(j.kills, 1);
        assert_eq!(j.state, JobState::Queued);
    }

    #[test]
    fn kill_never_loses_banked_progress() {
        let mut j = job();
        j.on_kill(0.37, 0.10);
        // Second incarnation killed almost immediately: checkpoint holds.
        j.on_kill(0.01, 0.10);
        assert!((j.checkpoint - 0.30).abs() < 1e-12);
        assert!((j.wasted - 0.08).abs() < 1e-12, "{}", j.wasted);
    }

    #[test]
    fn zero_fraction_wastes_everything_unbanked() {
        let mut j = job();
        j.on_kill(0.5, 0.0);
        assert_eq!(j.checkpoint, 0.0);
        assert!((j.wasted - 0.5).abs() < 1e-12);
    }

    #[test]
    fn completion_time_measured_from_submission() {
        let mut j = ClusterJob::new(3, Arc::new(BeSpec::of(BeKind::CpuStress)), 10.0);
        j.on_complete(110.0);
        assert_eq!(j.completion_time_s(), Some(100.0));
        assert_eq!(j.state, JobState::Done);
    }

    #[test]
    fn deadline_accounting() {
        let mut on_time = job();
        on_time.deadline_s = Some(100.0);
        on_time.on_complete(80.0);
        let mut late = ClusterJob::new(1, Arc::new(BeSpec::of(BeKind::Wordcount)), 0.0);
        late.deadline_s = Some(100.0);
        late.on_complete(120.0);
        let mut unfinished = ClusterJob::new(2, Arc::new(BeSpec::of(BeKind::Wordcount)), 0.0);
        unfinished.deadline_s = Some(150.0);
        let undated = ClusterJob::new(3, Arc::new(BeSpec::of(BeKind::Wordcount)), 0.0);

        assert!(!on_time.deadline_missed_at(300.0));
        assert!(late.deadline_missed_at(300.0));
        assert!(unfinished.deadline_missed_at(300.0), "out of time");
        assert!(!unfinished.deadline_missed_at(100.0), "still has time");
        assert!(!undated.deadline_missed_at(300.0));

        let jobs = [on_time, late, unfinished, undated];
        let s = JobStats::from_jobs_at(&jobs, 300.0);
        assert_eq!(s.deadline_total, 3);
        assert_eq!(s.deadline_missed, 2);
        assert!((s.deadline_miss_rate - 2.0 / 3.0).abs() < 1e-12);
        // Without a horizon only completed-late counts.
        let s = JobStats::from_jobs(&jobs);
        assert_eq!(s.deadline_missed, 1);
    }

    #[test]
    fn gang_spec_expands_attributes() {
        let js = JobSpec::solitary(BeSpec::of(BeKind::Wordcount))
            .with_priority(2)
            .with_deadline(120.0)
            .with_gang(3);
        assert_eq!(js.priority, 2);
        assert_eq!(js.deadline_s, Some(120.0));
        assert_eq!(js.gang, 3);
        assert_eq!(
            JobSpec::solitary(BeSpec::of(BeKind::Wordcount))
                .with_gang(0)
                .gang,
            1
        );
    }

    #[test]
    fn snapshot_round_trips_job_lifecycle() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let mut j = ClusterJob::new(5, Arc::new(BeSpec::of(BeKind::Lstm)), 12.0);
        j.priority = 2;
        j.deadline_s = Some(90.0);
        j.gang = Some(1);
        j.state = JobState::Running(7);
        j.on_kill(0.34, 0.10);
        let enc = |j: &ClusterJob| {
            let mut w = Writer::new();
            j.encode(&mut w);
            w.into_bytes()
        };
        let bytes = enc(&j);
        let back = ClusterJob::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(enc(&back), bytes);
        assert_eq!(back.id, 5);
        assert_eq!(back.spec.name, j.spec.name);
        assert_eq!(back.state, JobState::Queued, "kill requeued it");
        assert_eq!(back.kills, 1);
        assert!((back.checkpoint - j.checkpoint).abs() < 1e-15);
        // A checkpoint past 1.0 is structurally impossible state.
        let mut w = Writer::new();
        j.encode(&mut w);
        let mut bad = w.into_bytes();
        // Rewind over the fixed-size tail (wasted 8 + kills 4 +
        // submitted 8 + completed-None 1 + state-Queued 1 + priority 1 +
        // deadline-Some 9 + gang-Some 5 = 37) to the checkpoint field.
        let ckpt_at = bad.len() - 37 - 8;
        bad[ckpt_at..ckpt_at + 8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        let err = ClusterJob::decode(&mut Reader::new(&bad));
        assert!(matches!(err.err(), Some(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn stats_aggregate() {
        let mut a = job();
        a.on_kill(0.25, 0.10);
        a.on_complete(50.0);
        let mut b = ClusterJob::new(1, Arc::new(BeSpec::of(BeKind::Wordcount)), 0.0);
        b.on_complete(150.0);
        let c = ClusterJob::new(2, Arc::new(BeSpec::of(BeKind::Wordcount)), 0.0);
        let s = JobStats::from_jobs(&[a, b, c]);
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.kills, 1);
        assert!((s.completion_mean_s - 100.0).abs() < 1e-9);
        assert!((s.wasted_jobs - 0.05).abs() < 1e-12);
    }
}
