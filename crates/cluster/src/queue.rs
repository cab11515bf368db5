//! The shared BE job queue: priority classes with EDF inside each class.
//!
//! Pop order is a total order over three keys:
//!
//! 1. **Priority class**, highest first (0 = lowest). With aging enabled,
//!    the *effective* class of a waiting job rises by one for every
//!    `aging_s` seconds spent in the queue, so the lowest class cannot
//!    starve under a continuous stream of high-priority arrivals.
//! 2. **Deadline** (earliest-deadline-first); jobs without a deadline
//!    sort after every dated job of their class.
//! 3. **Submission sequence**. Fresh submissions take increasing
//!    sequence numbers; requeued work (killed or withdrawn offers) takes
//!    *decreasing negative* ones — within a class this reproduces the
//!    classic FIFO-with-requeue-to-front order exactly: the job already
//!    waited its turn once, and resuming killed work first keeps the
//!    wasted-work metric from compounding with extra queueing delay.

use crate::job::JobId;
use std::collections::{BTreeMap, BTreeSet};

/// Sort key of one queued job. Order: lowest tuple pops first.
pub type QueueKey = (u8, u64, i64, JobId);

/// Per-job bookkeeping that survives pops (requeues reuse it).
#[derive(Clone, Copy, Debug)]
struct JobMeta {
    /// Base priority class (0 = lowest).
    priority: u8,
    /// Deadline in virtual seconds (`None` = best effort only).
    deadline_s: Option<f64>,
    /// First submission time — aging measures from here, so repeated
    /// kills keep accumulating seniority.
    enqueued_s: f64,
    /// Current sort key while queued (`None` after pop).
    key: Option<QueueKey>,
}

/// Deterministic shared queue of jobs awaiting placement.
#[derive(Clone, Debug, Default)]
pub struct JobQueue {
    order: BTreeSet<QueueKey>,
    meta: BTreeMap<JobId, JobMeta>,
    next_back: i64,
    next_front: i64,
    requeues: u64,
    aging_s: Option<f64>,
}

impl JobQueue {
    /// An empty queue without aging.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// An empty queue that promotes a waiting job by one priority class
    /// for every `aging_s` seconds spent queued (anti-starvation).
    pub fn with_aging(aging_s: f64) -> JobQueue {
        JobQueue {
            aging_s: (aging_s > 0.0).then_some(aging_s),
            ..JobQueue::default()
        }
    }

    /// Deadlines order by their bits: all deadlines are non-negative
    /// finite floats, whose IEEE-754 bit patterns sort like the values;
    /// `None` sorts after every dated job.
    fn deadline_bits(deadline_s: Option<f64>) -> u64 {
        match deadline_s {
            Some(d) => d.max(0.0).to_bits(),
            None => u64::MAX,
        }
    }

    /// The effective class of a job at `now_s`: base plus one per
    /// `aging_s` seconds waited. The key stores `u8::MAX - class` so the
    /// highest class sorts first.
    fn class_key(aging_s: Option<f64>, m: &JobMeta, now_s: f64) -> u8 {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a positive wait over a positive period: the cast saturates at u8::MAX, as intended"
        )]
        let boost = match aging_s {
            Some(aging) if now_s > m.enqueued_s => ((now_s - m.enqueued_s) / aging) as u8,
            _ => 0,
        };
        u8::MAX - m.priority.saturating_add(boost)
    }

    fn insert(&mut self, id: JobId, mut m: JobMeta, seq: i64, now_s: f64) {
        let key = (
            Self::class_key(self.aging_s, &m, now_s),
            Self::deadline_bits(m.deadline_s),
            seq,
            id,
        );
        m.key = Some(key);
        self.order.insert(key);
        self.meta.insert(id, m);
    }

    /// Submits a fresh best-effort job (lowest class, no deadline) at
    /// t=0.
    pub fn submit(&mut self, id: JobId) {
        self.submit_with(id, 0, None, 0.0);
    }

    /// Submits a fresh job with its priority class and optional deadline
    /// at virtual time `now_s`.
    pub fn submit_with(&mut self, id: JobId, priority: u8, deadline_s: Option<f64>, now_s: f64) {
        let seq = self.next_back;
        self.next_back += 1;
        let m = JobMeta {
            priority,
            deadline_s,
            enqueued_s: now_s,
            key: None,
        };
        self.insert(id, m, seq, now_s);
    }

    /// Registers scheduling attributes for `id` without queueing it, so
    /// a later [`JobQueue::requeue_at`] keeps the right class — e.g. a
    /// gang member promoted to queue representative after the original
    /// leader finished. A no-op when `id` already has metadata.
    pub fn adopt(&mut self, id: JobId, priority: u8, deadline_s: Option<f64>, enqueued_s: f64) {
        self.meta.entry(id).or_insert(JobMeta {
            priority,
            deadline_s,
            enqueued_s,
            key: None,
        });
    }

    /// Requeues killed or withdrawn work at virtual time `now_s`: the job
    /// keeps its class, deadline and original enqueue time (so aging
    /// seniority survives kills) and re-enters at the *front* of its
    /// class.
    pub fn requeue_at(&mut self, id: JobId, now_s: f64) {
        self.next_front -= 1;
        let seq = self.next_front;
        let m = self.meta.get(&id).copied().unwrap_or(JobMeta {
            priority: 0,
            deadline_s: None,
            enqueued_s: now_s,
            key: None,
        });
        if let Some(key) = m.key {
            // Already queued (defensive; the runner never double-queues).
            debug_assert!(!self.order.contains(&key), "job {id} requeued while queued");
        }
        self.requeues += 1;
        self.insert(id, m, seq, now_s);
    }

    /// [`JobQueue::requeue_at`] at t=0 (kept for homogeneous callers and
    /// tests).
    pub fn requeue(&mut self, id: JobId) {
        self.requeue_at(id, 0.0);
    }

    /// Re-keys every waiting job against `now_s` so aging promotions take
    /// effect. A no-op without aging. Called once per epoch at the
    /// barrier — single-threaded, fixed iteration order, deterministic.
    pub fn age(&mut self, now_s: f64) {
        if self.aging_s.is_none() {
            return;
        }
        for m in self.meta.values_mut() {
            let Some(old_key) = m.key else {
                continue;
            };
            let class = Self::class_key(self.aging_s, m, now_s);
            if class != old_key.0 {
                self.order.remove(&old_key);
                let new_key = (class, old_key.1, old_key.2, old_key.3);
                self.order.insert(new_key);
                m.key = Some(new_key);
            }
        }
    }

    /// Takes the next job to place: highest effective class, earliest
    /// deadline within the class, front-of-class for requeued work.
    pub fn pop(&mut self) -> Option<JobId> {
        let key = *self.order.iter().next()?;
        self.order.remove(&key);
        let id = key.3;
        #[expect(
            clippy::expect_used,
            reason = "the popped key came from `order`, whose ids mirror `meta`"
        )]
        let meta = self.meta.get_mut(&id).expect("queued job has meta");
        meta.key = None;
        Some(id)
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Times `requeue` was called over the run.
    pub fn requeue_count(&self) -> u64 {
        self.requeues
    }

    /// Ids of the waiting jobs, in pop order.
    pub fn queued_ids(&self) -> Vec<JobId> {
        self.order.iter().map(|k| k.3).collect()
    }
}

impl rhythm_snapshot::Snapshot for JobMeta {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let JobMeta {
            priority,
            deadline_s,
            enqueued_s,
            key,
        } = *self;
        w.u8(priority);
        deadline_s.encode(w);
        w.f64(enqueued_s);
        key.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(JobMeta {
            priority: r.u8()?,
            deadline_s: rhythm_snapshot::Snapshot::decode(r)?,
            enqueued_s: r.f64()?,
            key: rhythm_snapshot::Snapshot::decode(r)?,
        })
    }
}

impl rhythm_snapshot::Snapshot for JobQueue {
    /// The `order` set is derived state (exactly the `Some` keys of
    /// `meta`), so only `meta` and the counters are written; decoding
    /// rebuilds `order`, which makes an inconsistent pair unrepresentable.
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let JobQueue {
            order: _, // derived: exactly the `Some` keys of `meta`
            meta,
            next_back,
            next_front,
            requeues,
            aging_s,
        } = self;
        meta.encode(w);
        w.i64(*next_back);
        w.i64(*next_front);
        w.u64(*requeues);
        aging_s.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let meta: BTreeMap<JobId, JobMeta> = rhythm_snapshot::Snapshot::decode(r)?;
        let next_back = r.i64()?;
        let next_front = r.i64()?;
        let requeues = r.u64()?;
        let aging_s: Option<f64> = rhythm_snapshot::Snapshot::decode(r)?;
        if aging_s.is_some_and(|a| !(a.is_finite() && a > 0.0)) {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(
                "queue aging must be a positive finite interval".into(),
            ));
        }
        let mut order = BTreeSet::new();
        for (&id, m) in &meta {
            let Some(key) = m.key else { continue };
            if key.3 != id {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "queue key of job {id} names job {}",
                    key.3
                )));
            }
            order.insert(key);
        }
        Ok(JobQueue {
            order,
            meta,
            next_back,
            next_front,
            requeues,
            aging_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_with_requeue_priority() {
        let mut q = JobQueue::new();
        q.submit(1);
        q.submit(2);
        assert_eq!(q.pop(), Some(1));
        q.requeue(1);
        assert_eq!(q.pop(), Some(1), "requeued work goes first");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.requeue_count(), 1);
    }

    #[test]
    fn higher_class_pops_first() {
        let mut q = JobQueue::new();
        q.submit_with(1, 0, None, 0.0);
        q.submit_with(2, 2, None, 0.0);
        q.submit_with(3, 1, None, 0.0);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn edf_within_class() {
        let mut q = JobQueue::new();
        q.submit_with(1, 1, Some(300.0), 0.0);
        q.submit_with(2, 1, Some(100.0), 0.0);
        q.submit_with(3, 1, None, 0.0);
        q.submit_with(4, 1, Some(200.0), 0.0);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3), "undated jobs go last in their class");
    }

    #[test]
    fn requeue_keeps_class_and_deadline() {
        let mut q = JobQueue::new();
        q.submit_with(1, 2, Some(50.0), 0.0);
        q.submit_with(2, 0, None, 0.0);
        assert_eq!(q.pop(), Some(1));
        q.requeue_at(1, 10.0);
        // Still outranks the class-0 job after the requeue.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn multiple_requeues_are_lifo_within_class() {
        let mut q = JobQueue::new();
        for id in 1..=3 {
            q.submit(id);
        }
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        q.requeue(a);
        q.requeue(b); // Requeued later -> in front of `a`.
        assert_eq!(q.pop(), Some(b));
        assert_eq!(q.pop(), Some(a));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn aging_promotes_waiting_low_class() {
        let mut q = JobQueue::with_aging(10.0);
        q.submit_with(1, 0, None, 0.0);
        q.submit_with(2, 2, None, 20.0);
        // At t=25 the class-0 job has waited 25 s -> +2 classes, tying
        // the fresh class-2 arrival; the tie breaks on the earlier
        // sequence, so the aged job finally goes.
        q.age(25.0);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn snapshot_round_trips_mid_stream_queue() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut q = JobQueue::with_aging(10.0);
        q.submit_with(1, 0, None, 0.0);
        q.submit_with(2, 2, Some(50.0), 0.0);
        q.submit_with(3, 1, None, 5.0);
        assert_eq!(q.pop(), Some(2)); // Popped job keeps meta, no key.
        q.requeue_at(2, 6.0);
        q.age(25.0);
        let enc = |q: &JobQueue| {
            let mut w = Writer::new();
            q.encode(&mut w);
            w.into_bytes()
        };
        let bytes = enc(&q);
        let mut back = JobQueue::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(enc(&back), bytes, "re-encode is canonical");
        assert_eq!(back.len(), q.len());
        assert_eq!(back.requeue_count(), q.requeue_count());
        assert_eq!(back.queued_ids(), q.queued_ids());
        // The restored queue continues identically.
        let mut orig = q;
        loop {
            let (a, b) = (orig.pop(), back.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_rejects_mismatched_key_owner() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let mut q = JobQueue::new();
        q.submit(1);
        let mut w = Writer::new();
        q.encode(&mut w);
        let mut bytes = w.into_bytes();
        // meta is one entry: id u64 at the front of the map body; flip it
        // so the embedded QueueKey names a different job.
        bytes[8] = 9;
        let err = JobQueue::decode(&mut Reader::new(&bytes));
        assert!(matches!(err.err(), Some(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn no_aging_without_flag() {
        let mut q = JobQueue::new();
        q.submit_with(1, 0, None, 0.0);
        q.submit_with(2, 1, None, 0.0);
        q.age(1e6);
        assert_eq!(q.pop(), Some(2));
    }
}
