//! The compact event vocabulary of the flight recorder.
//!
//! Events are `Copy` and fixed-size (16 bytes) so the ring buffer can
//! hold them inline with no per-record heap traffic; anything that needs
//! a string (pod names, workload names) is resolved at export time from
//! the index tables carried by [`crate::TelemetryOutput`].

/// One recorded event: a virtual timestamp plus the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual time in nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The controller decision, mirrored from `rhythm-controller`'s
/// `BeAction` by its severity code so this crate stays a leaf
/// dependency. Ordering matches `BeAction::severity`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionCode {
    /// Subcontrollers may add BE jobs and grow their resources.
    AllowBeGrowth,
    /// Freeze the BE population.
    DisallowBeGrowth,
    /// Reduce part of the BE resources.
    CutBe,
    /// Pause all running BE jobs.
    SuspendBe,
    /// Kill all BE jobs (the SLA is already violated).
    StopBe,
}

impl ActionCode {
    /// Maps a `BeAction::severity()` code (0..=4) back to the action.
    ///
    /// # Panics
    ///
    /// Panics on codes above 4.
    pub fn from_severity(code: u8) -> ActionCode {
        match code {
            0 => ActionCode::AllowBeGrowth,
            1 => ActionCode::DisallowBeGrowth,
            2 => ActionCode::CutBe,
            3 => ActionCode::SuspendBe,
            4 => ActionCode::StopBe,
            other => panic!("unknown action severity {other}"),
        }
    }

    /// The severity code (matches `BeAction::severity`).
    pub fn severity(self) -> u8 {
        match self {
            ActionCode::AllowBeGrowth => 0,
            ActionCode::DisallowBeGrowth => 1,
            ActionCode::CutBe => 2,
            ActionCode::SuspendBe => 3,
            ActionCode::StopBe => 4,
        }
    }

    /// The paper's name for the action.
    pub fn name(self) -> &'static str {
        match self {
            ActionCode::AllowBeGrowth => "AllowBEGrowth",
            ActionCode::DisallowBeGrowth => "DisallowBEGrowth",
            ActionCode::CutBe => "CutBE",
            ActionCode::SuspendBe => "SuspendBE",
            ActionCode::StopBe => "StopBE",
        }
    }
}

/// Which resource dimension a subcontroller adjusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjustKind {
    /// Live BE instance count changed (admission / kill / resume).
    BeInstances,
    /// Total BE cores changed (CPU subcontroller).
    BeCores,
    /// BE LLC ways changed (CAT subcontroller).
    BeLlcWays,
    /// BE frequency point changed, in MHz (power subcontroller).
    BeFreqMhz,
    /// BE bandwidth ceiling changed, in Mbit/s (network subcontroller).
    BeNetMbps,
}

impl AdjustKind {
    /// Snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            AdjustKind::BeInstances => "be_instances",
            AdjustKind::BeCores => "be_cores",
            AdjustKind::BeLlcWays => "be_llc_ways",
            AdjustKind::BeFreqMhz => "be_freq_mhz",
            AdjustKind::BeNetMbps => "be_net_mbps",
        }
    }
}

/// The event payload. Fields are packed small on purpose: per-mille
/// load/slack and microsecond latencies keep every variant in 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A request entered the service.
    RequestAdmitted,
    /// A request completed end-to-end.
    RequestCompleted {
        /// End-to-end latency in microseconds (saturating).
        latency_us: u32,
    },
    /// A BE instance was admitted on a machine.
    BeAdmitted {
        /// Machine (Servpod) index within the engine.
        machine: u16,
        /// Machine-local instance id.
        instance: u32,
    },
    /// A BE instance was killed by StopBE.
    BeKilled {
        /// Machine (Servpod) index within the engine.
        machine: u16,
        /// Machine-local instance id.
        instance: u32,
        /// Progress at kill time, in percent of one job (saturating).
        progress_pct: u8,
    },
    /// The controller took an action.
    Action {
        /// Machine (Servpod) index within the engine.
        machine: u16,
        /// The decision.
        action: ActionCode,
        /// Measured load fraction in per-mille (saturating).
        load_pm: u16,
        /// Measured slack in per-mille (saturating).
        slack_pm: i16,
    },
    /// A subcontroller moved a resource dimension.
    Adjust {
        /// Machine (Servpod) index within the engine.
        machine: u16,
        /// Which dimension.
        kind: AdjustKind,
        /// The new value of that dimension.
        value: i32,
    },
    /// A cluster epoch barrier was crossed.
    Epoch {
        /// Zero-based epoch index.
        epoch: u32,
    },
}

// The flight-recorder ring stores events inline (64 Ki × 16 bytes =
// 1 MiB); a growing payload would silently double its memory footprint
// and evict half the history. Every `Copy` type that can sit in a ring
// slot is size-pinned at compile time — a new variant that breaks the
// contract fails the build here, not in a test run.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);
const _: () = assert!(std::mem::size_of::<EventKind>() <= 8);
const _: () = assert!(std::mem::size_of::<ActionCode>() == 1);
const _: () = assert!(std::mem::size_of::<AdjustKind>() == 1);

impl EventKind {
    /// Snake-case discriminant used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RequestAdmitted => "request_admitted",
            EventKind::RequestCompleted { .. } => "request_completed",
            EventKind::BeAdmitted { .. } => "be_admitted",
            EventKind::BeKilled { .. } => "be_killed",
            EventKind::Action { .. } => "action",
            EventKind::Adjust { .. } => "adjust",
            EventKind::Epoch { .. } => "epoch",
        }
    }
}

impl rhythm_snapshot::Snapshot for ActionCode {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(self.severity());
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let code = r.u8()?;
        if code > 4 {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                "unknown action severity {code}"
            )));
        }
        Ok(ActionCode::from_severity(code))
    }
}

impl rhythm_snapshot::Snapshot for AdjustKind {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(match self {
            AdjustKind::BeInstances => 0,
            AdjustKind::BeCores => 1,
            AdjustKind::BeLlcWays => 2,
            AdjustKind::BeFreqMhz => 3,
            AdjustKind::BeNetMbps => 4,
        });
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => AdjustKind::BeInstances,
            1 => AdjustKind::BeCores,
            2 => AdjustKind::BeLlcWays,
            3 => AdjustKind::BeFreqMhz,
            4 => AdjustKind::BeNetMbps,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown adjust kind {t}"
                )))
            }
        })
    }
}

// The tag byte, then every multi-byte payload field as a varint
// (zigzag for the signed ones); the one-byte fields stay bytes.
impl rhythm_snapshot::Snapshot for EventKind {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        match *self {
            EventKind::RequestAdmitted => w.u8(0),
            EventKind::RequestCompleted { latency_us } => {
                w.u8(1);
                w.varint(latency_us.into());
            }
            EventKind::BeAdmitted { machine, instance } => {
                w.u8(2);
                w.varint(machine.into());
                w.varint(instance.into());
            }
            EventKind::BeKilled {
                machine,
                instance,
                progress_pct,
            } => {
                w.u8(3);
                w.varint(machine.into());
                w.varint(instance.into());
                w.u8(progress_pct);
            }
            EventKind::Action {
                machine,
                action,
                load_pm,
                slack_pm,
            } => {
                w.u8(4);
                w.varint(machine.into());
                action.encode(w);
                w.varint(load_pm.into());
                w.ivarint(slack_pm.into());
            }
            EventKind::Adjust {
                machine,
                kind,
                value,
            } => {
                w.u8(5);
                w.varint(machine.into());
                kind.encode(w);
                w.ivarint(value.into());
            }
            EventKind::Epoch { epoch } => {
                w.u8(6);
                w.varint(epoch.into());
            }
        }
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => EventKind::RequestAdmitted,
            1 => EventKind::RequestCompleted {
                latency_us: r.varint_as("event latency")?,
            },
            2 => EventKind::BeAdmitted {
                machine: r.varint_as("event machine")?,
                instance: r.varint_as("event instance")?,
            },
            3 => EventKind::BeKilled {
                machine: r.varint_as("event machine")?,
                instance: r.varint_as("event instance")?,
                progress_pct: r.u8()?,
            },
            4 => EventKind::Action {
                machine: r.varint_as("event machine")?,
                action: rhythm_snapshot::Snapshot::decode(r)?,
                load_pm: r.varint_as("event load")?,
                slack_pm: r.ivarint_as("event slack")?,
            },
            5 => EventKind::Adjust {
                machine: r.varint_as("event machine")?,
                kind: rhythm_snapshot::Snapshot::decode(r)?,
                value: r.ivarint_as("event value")?,
            },
            6 => EventKind::Epoch {
                epoch: r.varint_as("event epoch")?,
            },
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown event kind tag {t}"
                )))
            }
        })
    }
}

/// Saturating per-mille encoding of a fraction (used by the Action
/// event).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "clamped into u16's range first; NaN saturates to 0"
)]
pub fn per_mille_u16(x: f64) -> u16 {
    (x * 1000.0).clamp(0.0, u16::MAX as f64) as u16
}

/// Saturating signed per-mille encoding (slack can be negative).
#[expect(
    clippy::cast_possible_truncation,
    reason = "clamped into i16's range first; NaN saturates to 0"
)]
pub fn per_mille_i16(x: f64) -> i16 {
    (x * 1000.0).clamp(i16::MIN as f64, i16::MAX as f64) as i16
}

#[cfg(test)]
mod tests {
    use super::*;

    // The `size_of::<Event>() <= 16` contract is a compile-time
    // `const _: () = assert!(...)` next to the type definitions above;
    // it needs no runtime test.

    #[test]
    fn action_code_round_trips_severity() {
        for code in 0u8..=4 {
            assert_eq!(ActionCode::from_severity(code).severity(), code);
        }
    }

    #[test]
    fn per_mille_saturates() {
        assert_eq!(per_mille_u16(0.5), 500);
        assert_eq!(per_mille_u16(-1.0), 0);
        assert_eq!(per_mille_u16(1e9), u16::MAX);
        assert_eq!(per_mille_i16(-0.25), -250);
        assert_eq!(per_mille_i16(-1e9), i16::MIN);
    }

    #[test]
    fn snapshot_round_trips_every_variant() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let kinds = [
            EventKind::RequestAdmitted,
            EventKind::RequestCompleted {
                latency_us: u32::MAX,
            },
            EventKind::BeAdmitted {
                machine: 4,
                instance: 17,
            },
            EventKind::BeKilled {
                machine: u16::MAX,
                instance: 2,
                progress_pct: 63,
            },
            EventKind::Action {
                machine: 0,
                action: ActionCode::SuspendBe,
                load_pm: 710,
                slack_pm: i16::MIN,
            },
            EventKind::Adjust {
                machine: 2,
                kind: AdjustKind::BeFreqMhz,
                value: i32::MIN,
            },
            EventKind::Epoch { epoch: 12 },
        ];
        let mut w = Writer::new();
        for k in &kinds {
            k.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for k in &kinds {
            assert_eq!(EventKind::decode(&mut r).unwrap(), *k);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn snapshot_rejects_unknown_tags_and_wide_payloads() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let decoded = EventKind::decode(&mut Reader::new(&[9]));
        assert!(matches!(decoded.err(), Some(SnapshotError::Corrupt(_))));
        // A machine index past u16 and a value past i32.
        let mut w = Writer::new();
        w.u8(2);
        w.varint(1 << 16);
        w.varint(1);
        let mut v = Writer::new();
        v.u8(5);
        v.varint(0);
        v.u8(0);
        v.ivarint(i64::from(i32::MAX) + 1);
        for bytes in [w.into_bytes(), v.into_bytes()] {
            let decoded = EventKind::decode(&mut Reader::new(&bytes));
            assert!(matches!(decoded.err(), Some(SnapshotError::Corrupt(_))));
        }
    }

    #[test]
    fn event_json_carries_payload() {
        let ev = Event {
            t_ns: 2_000_000_000,
            kind: EventKind::Action {
                machine: 3,
                action: ActionCode::CutBe,
                load_pm: 640,
                slack_pm: 31,
            },
        };
        let mut replicas = vec![crate::TelemetryOutput::default(); 2];
        replicas[1].events.push(ev);
        let jsonl = crate::export_jsonl(&replicas, &[]);
        let s = jsonl.lines().nth(1).unwrap();
        assert!(s.contains("\"kind\":\"action\""), "{s}");
        assert!(s.contains("\"action\":\"CutBE\""), "{s}");
        assert!(s.contains("\"replica\":1"), "{s}");
    }
}
