//! Deterministic fault injection: the [`FaultPlan`] schedule and the
//! runner's dynamic [`ChaosState`].
//!
//! A fault plan is a list of events keyed to **virtual time**; the
//! runner applies every due event single-threaded at the top of each
//! epoch barrier, in plan order, before dispatch. Because application
//! happens only at barriers and draws nothing from wall clock or
//! ambient entropy, a run with a fault plan is exactly as reproducible
//! as one without: same seed + same plan → bit-identical outcome for
//! any worker-thread count.
//!
//! Fault semantics (see DESIGN.md §13 for the model rationale):
//!
//! * [`FaultKind::MachineCrash`] — the machine leaves the cluster: its
//!   outstanding BE offer is withdrawn, every bound BE instance is
//!   killed through the ordinary checkpoint-rollback-requeue path, and
//!   the machine joins the *down set*, which blocks dispatch
//!   eligibility until recovery. The LC service is modeled as failing
//!   over invisibly (the paper's Servpods are replicated); the modeled
//!   cost of a crash is lost batch work plus redistribution pressure
//!   on the survivors.
//! * [`FaultKind::MachineRecover`] — the machine rejoins: it leaves the
//!   down set and its LC DVFS domain is restored to full frequency
//!   (clearing any straggler state), making it eligible for offers at
//!   the same barrier.
//! * [`FaultKind::SlowNode`] — a straggler: the machine's LC frequency
//!   is stepped down to `factor` of its maximum via the existing DVFS
//!   domain, so frequency-sensitive LC components inflate through the
//!   interference model and the slowdown shows up in the cluster tail.
//!   The DVFS floor clamps the effective factor (a 1200–2000 MHz
//!   domain cannot go below 0.6).
//! * [`FaultKind::CorrelatedFailure`] — a rack/PDU event: every listed
//!   machine crashes at the same barrier, in listed order.
//!
//! The snapshot container gains an **optional** `chaos` section (plan
//! fingerprint + [`ChaosState`]) written only when a plan is
//! configured, so non-chaos snapshots stay byte-identical to the
//! pre-chaos format and the golden container fixture holds.
// lint:snapshot-state

use rhythm_snapshot::{fnv1a, Reader, Snapshot, SnapshotError, Writer};
use std::collections::BTreeSet;

/// One kind of injected fault. Machine indices are **global** (replica
/// × pods + pod), matching the scheduler's addressing.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The machine crashes: bound BE work is killed and requeued, and
    /// the machine is ineligible for placement until it recovers.
    MachineCrash {
        /// Global machine index.
        machine: u64,
    },
    /// A crashed machine rejoins the cluster at full frequency.
    MachineRecover {
        /// Global machine index.
        machine: u64,
    },
    /// The machine's LC frequency drops to `factor` of its maximum
    /// (straggler). Recovery is a [`FaultKind::MachineRecover`].
    SlowNode {
        /// Global machine index.
        machine: u64,
        /// Fraction of maximum frequency in `(0, 1]`; the DVFS grid
        /// and floor quantize/clamp the realized value.
        factor: f64,
    },
    /// Every machine in `group` crashes at the same barrier (rack /
    /// power-domain failure), in listed order.
    CorrelatedFailure {
        /// Global machine indices, crashed in order.
        group: Vec<u64>,
    },
}

impl FaultKind {
    /// The machines this event touches, in application order.
    pub fn machines(&self) -> Vec<u64> {
        match self {
            FaultKind::MachineCrash { machine }
            | FaultKind::MachineRecover { machine }
            | FaultKind::SlowNode { machine, .. } => vec![*machine],
            FaultKind::CorrelatedFailure { group } => group.clone(),
        }
    }

    /// Snake-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::MachineCrash { .. } => "machine_crash",
            FaultKind::MachineRecover { .. } => "machine_recover",
            FaultKind::SlowNode { .. } => "slow_node",
            FaultKind::CorrelatedFailure { .. } => "correlated_failure",
        }
    }
}

/// One scheduled fault: `kind` fires at the first epoch barrier whose
/// virtual time is ≥ `at_s`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual time the event becomes due, in seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events.
///
/// Build one with the fluent helpers, then hand it to
/// [`ClusterConfig::faults`](crate::ClusterConfig); the runner
/// normalizes the order (stable sort by due time, so same-time events
/// keep insertion order) and applies due events at each barrier.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the default: no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a machine crash.
    pub fn crash(mut self, at_s: f64, machine: u64) -> FaultPlan {
        self.events.push(FaultEvent {
            at_s,
            kind: FaultKind::MachineCrash { machine },
        });
        self
    }

    /// Schedules a machine recovery.
    pub fn recover(mut self, at_s: f64, machine: u64) -> FaultPlan {
        self.events.push(FaultEvent {
            at_s,
            kind: FaultKind::MachineRecover { machine },
        });
        self
    }

    /// Schedules a straggler: LC frequency drops to `factor` of max.
    pub fn slow_node(mut self, at_s: f64, machine: u64, factor: f64) -> FaultPlan {
        self.events.push(FaultEvent {
            at_s,
            kind: FaultKind::SlowNode { machine, factor },
        });
        self
    }

    /// Schedules a correlated (rack) failure of `group`.
    pub fn correlated(mut self, at_s: f64, group: Vec<u64>) -> FaultPlan {
        self.events.push(FaultEvent {
            at_s,
            kind: FaultKind::CorrelatedFailure { group },
        });
        self
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Stable-sorts the events by due time (same-time events keep
    /// insertion order), making application order a pure function of
    /// the plan. The runner calls this once at startup.
    pub fn normalize(&mut self) {
        self.events.sort_by(|a, b| {
            a.at_s
                .partial_cmp(&b.at_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// Checks every referenced machine index against the cluster size
    /// and every slow-node factor against `(0, 1]`.
    pub fn validate(&self, machines: usize) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            if !ev.at_s.is_finite() || ev.at_s < 0.0 {
                return Err(format!(
                    "fault event {i}: at_s {} is not a valid time",
                    ev.at_s
                ));
            }
            if let FaultKind::SlowNode { factor, .. } = ev.kind {
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(format!(
                        "fault event {i}: slow-node factor {factor} outside (0, 1]"
                    ));
                }
            }
            if let FaultKind::CorrelatedFailure { group } = &ev.kind {
                if group.is_empty() {
                    return Err(format!("fault event {i}: empty correlated-failure group"));
                }
            }
            for m in ev.kind.machines() {
                if m as usize >= machines {
                    return Err(format!(
                        "fault event {i}: machine {m} outside cluster of {machines}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// FNV-1a over the canonical encoding — embedded in the snapshot's
    /// `chaos` section so resume can refuse a mismatched plan.
    pub fn fingerprint(&self) -> u64 {
        let mut w = Writer::new();
        self.encode(&mut w);
        fnv1a(&w.into_bytes())
    }
}

impl Snapshot for FaultKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            FaultKind::MachineCrash { machine } => {
                w.u8(0);
                w.u64(*machine);
            }
            FaultKind::MachineRecover { machine } => {
                w.u8(1);
                w.u64(*machine);
            }
            FaultKind::SlowNode { machine, factor } => {
                w.u8(2);
                w.u64(*machine);
                w.f64(*factor);
            }
            FaultKind::CorrelatedFailure { group } => {
                w.u8(3);
                group.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => FaultKind::MachineCrash { machine: r.u64()? },
            1 => FaultKind::MachineRecover { machine: r.u64()? },
            2 => FaultKind::SlowNode {
                machine: r.u64()?,
                factor: r.f64()?,
            },
            3 => FaultKind::CorrelatedFailure {
                group: Snapshot::decode(r)?,
            },
            t => return Err(SnapshotError::Corrupt(format!("unknown fault kind {t}"))),
        })
    }
}

impl Snapshot for FaultEvent {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.at_s);
        self.kind.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(FaultEvent {
            at_s: r.f64()?,
            kind: Snapshot::decode(r)?,
        })
    }
}

impl Snapshot for FaultPlan {
    fn encode(&self, w: &mut Writer) {
        self.events.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(FaultPlan {
            events: Snapshot::decode(r)?,
        })
    }
}

/// The runner's dynamic fault state, captured in the snapshot's
/// optional `chaos` section: which plan events have fired and which
/// machines are currently down. A version byte leads the section so
/// the chaos wire format can evolve without touching the v1 container
/// layout (whose schema hash the golden fixture pins).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosState {
    /// Plan events applied so far (prefix of the normalized plan).
    pub applied: u64,
    /// Global indices of machines currently down.
    pub down: BTreeSet<u64>,
}

/// Version byte of the `chaos` snapshot section.
pub const CHAOS_SECTION_VERSION: u8 = 1;

impl Snapshot for ChaosState {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.applied);
        self.down.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ChaosState {
            applied: r.u64()?,
            down: Snapshot::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new()
            .crash(60.0, 3)
            .recover(120.0, 3)
            .slow_node(30.0, 1, 0.7)
            .correlated(90.0, vec![4, 5, 6])
    }

    #[test]
    fn normalize_is_stable_by_time() {
        let mut plan = sample_plan();
        plan.normalize();
        let times: Vec<f64> = plan.events.iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![30.0, 60.0, 90.0, 120.0]);
        // Same-time events keep insertion order.
        let mut tie = FaultPlan::new().crash(10.0, 0).recover(10.0, 1);
        tie.normalize();
        assert!(matches!(
            tie.events[0].kind,
            FaultKind::MachineCrash { machine: 0 }
        ));
        assert!(matches!(
            tie.events[1].kind,
            FaultKind::MachineRecover { machine: 1 }
        ));
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(sample_plan().validate(8).is_ok());
        assert!(sample_plan().validate(5).is_err(), "machine 6 out of range");
        assert!(FaultPlan::new().slow_node(1.0, 0, 0.0).validate(4).is_err());
        assert!(FaultPlan::new().slow_node(1.0, 0, 1.5).validate(4).is_err());
        assert!(FaultPlan::new()
            .correlated(1.0, vec![])
            .validate(4)
            .is_err());
        assert!(FaultPlan::new().crash(f64::NAN, 0).validate(4).is_err());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample_plan();
        let mut b = sample_plan();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.normalize();
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "order is part of the identity"
        );
        assert_ne!(FaultPlan::new().fingerprint(), a.fingerprint());
    }

    #[test]
    fn snapshot_round_trips_plan_and_state() {
        let plan = sample_plan();
        let mut w = Writer::new();
        plan.encode(&mut w);
        let bytes = w.into_bytes();
        let back: FaultPlan = Snapshot::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, plan);

        let state = ChaosState {
            applied: 2,
            down: [3u64, 5].into_iter().collect(),
        };
        let mut w = Writer::new();
        state.encode(&mut w);
        let bytes = w.into_bytes();
        let back: ChaosState = Snapshot::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, state);
    }
}
