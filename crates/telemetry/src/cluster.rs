//! Cluster-scheduler events: gang lifecycle and deadline outcomes.
//!
//! The per-engine recorder sees only one replica; decisions the cluster
//! dispatcher takes at the epoch barrier — forming or aborting a gang,
//! observing a deadline miss — span machines and have no per-engine home.
//! They are recorded here, always single-threaded at the barrier in fixed
//! order, so the export stays byte-identical for any worker-thread count.

/// What happened at the cluster scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterEventKind {
    /// Every instance of a gang job was admitted; the gang is running.
    GangFormed,
    /// A gang was rolled back (a member was killed, or placement timed
    /// out) and its leader requeued.
    GangAborted,
    /// A job completed after its deadline, or the run ended with the
    /// deadline already passed.
    DeadlineMiss,
    /// A machine left the cluster (fault injection): its BE work was
    /// killed and requeued. For machine events the `job` field carries
    /// the **global machine index**, not a job id.
    MachineDown,
    /// A crashed machine rejoined the cluster and is again eligible for
    /// BE placement. `job` carries the global machine index.
    MachineUp,
    /// A fault-plan event fired at this barrier (one record per plan
    /// entry, in addition to any per-machine down/up records). `job`
    /// carries the plan-event index.
    FaultInjected,
}

impl ClusterEventKind {
    /// Snake-case name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterEventKind::GangFormed => "gang_formed",
            ClusterEventKind::GangAborted => "gang_aborted",
            ClusterEventKind::DeadlineMiss => "deadline_miss",
            ClusterEventKind::MachineDown => "machine_down",
            ClusterEventKind::MachineUp => "machine_up",
            ClusterEventKind::FaultInjected => "fault_injected",
        }
    }
}

/// One cluster-scheduler event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterEvent {
    /// Virtual time of the epoch barrier that recorded the event.
    pub t_s: f64,
    /// What happened.
    pub kind: ClusterEventKind,
    /// The job involved (a gang's leader for gang events).
    pub job: u64,
    /// Gang id for gang events (`None` for solitary jobs).
    pub gang: Option<u32>,
}

impl rhythm_snapshot::Snapshot for ClusterEventKind {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(match self {
            ClusterEventKind::GangFormed => 0,
            ClusterEventKind::GangAborted => 1,
            ClusterEventKind::DeadlineMiss => 2,
            ClusterEventKind::MachineDown => 3,
            ClusterEventKind::MachineUp => 4,
            ClusterEventKind::FaultInjected => 5,
        });
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => ClusterEventKind::GangFormed,
            1 => ClusterEventKind::GangAborted,
            2 => ClusterEventKind::DeadlineMiss,
            3 => ClusterEventKind::MachineDown,
            4 => ClusterEventKind::MachineUp,
            5 => ClusterEventKind::FaultInjected,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown cluster event kind {t}"
                )))
            }
        })
    }
}

impl rhythm_snapshot::Snapshot for ClusterEvent {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let ClusterEvent {
            t_s,
            kind,
            job,
            gang,
        } = *self;
        w.f64(t_s);
        kind.encode(w);
        w.u64(job);
        gang.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(ClusterEvent {
            t_s: r.f64()?,
            kind: rhythm_snapshot::Snapshot::decode(r)?,
            job: r.u64()?,
            gang: rhythm_snapshot::Snapshot::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_cluster_events() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let events = vec![
            ClusterEvent {
                t_s: 12.0,
                kind: ClusterEventKind::GangFormed,
                job: 7,
                gang: Some(3),
            },
            ClusterEvent {
                t_s: 30.0,
                kind: ClusterEventKind::DeadlineMiss,
                job: 9,
                gang: None,
            },
            ClusterEvent {
                t_s: 42.0,
                kind: ClusterEventKind::MachineDown,
                job: 5, // machine index for machine events
                gang: None,
            },
            ClusterEvent {
                t_s: 60.0,
                kind: ClusterEventKind::MachineUp,
                job: 5,
                gang: None,
            },
            ClusterEvent {
                t_s: 42.0,
                kind: ClusterEventKind::FaultInjected,
                job: 0, // plan-event index for fault records
                gang: None,
            },
        ];
        let mut w = Writer::new();
        events.encode(&mut w);
        let bytes = w.into_bytes();
        let back: Vec<ClusterEvent> =
            rhythm_snapshot::Snapshot::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn renders_compact_jsonl_object() {
        let ev = ClusterEvent {
            t_s: 12.0,
            kind: ClusterEventKind::GangFormed,
            job: 7,
            gang: Some(3),
        };
        let solo = ClusterEvent {
            t_s: 30.0,
            kind: ClusterEventKind::DeadlineMiss,
            job: 9,
            gang: None,
        };
        let jsonl = crate::export_jsonl(&[], &[], &[ev, solo]);
        let lines: Vec<&str> = jsonl.lines().collect();
        let line = lines[1];
        assert!(line.starts_with("{\"type\":\"cluster_event\""), "{line}");
        assert!(line.contains("\"kind\":\"gang_formed\""), "{line}");
        assert!(line.contains("\"gang\":3"), "{line}");
        assert!(!lines[2].contains("gang"), "no gang key");
    }
}
