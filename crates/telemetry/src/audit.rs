//! The decision audit trail: one record per controller tick, carrying
//! everything Algorithm 2 looked at when it chose an action.

use crate::event::ActionCode;

/// The BE population and resource envelope on a machine, captured before
/// and after a controller tick so the audit trail shows what each action
/// actually moved.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BeSnapshot {
    /// BE instances present (running + suspended).
    pub instances: u32,
    /// BE instances currently running.
    pub running: u32,
    /// Cores granted to BE.
    pub cores: u32,
    /// LLC ways granted to BE.
    pub llc_ways: u32,
    /// BE core frequency in MHz.
    pub freq_mhz: u32,
    /// BE network bandwidth ceiling in Mbit/s.
    pub net_mbps: u32,
}

/// Which branch of Algorithm 2 fired. Mirrors the decision ladder in
/// `rhythm-controller`'s `ThresholdPolicy::decide`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// `slack < 0`: the measured tail already exceeds the SLA.
    SlaViolated,
    /// `load > loadlimit`: LC load is above the safe co-location point.
    LoadAboveLimit,
    /// `slack < slacklimit / 2`: headroom is less than half the limit.
    SlackBelowHalfLimit,
    /// `slack < slacklimit`: headroom is below the limit.
    SlackBelowLimit,
    /// None of the above: comfortable headroom.
    ComfortableSlack,
}

impl Trigger {
    /// Classifies a measurement against the thresholds, mirroring the
    /// ladder in Algorithm 2 (same order, same comparisons).
    pub fn classify(load: f64, slack: f64, loadlimit: f64, slacklimit: f64) -> Trigger {
        if slack < 0.0 {
            Trigger::SlaViolated
        } else if load > loadlimit {
            Trigger::LoadAboveLimit
        } else if slack < slacklimit / 2.0 {
            Trigger::SlackBelowHalfLimit
        } else if slack < slacklimit {
            Trigger::SlackBelowLimit
        } else {
            Trigger::ComfortableSlack
        }
    }

    /// Snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::SlaViolated => "sla_violated",
            Trigger::LoadAboveLimit => "load_above_limit",
            Trigger::SlackBelowHalfLimit => "slack_below_half_limit",
            Trigger::SlackBelowLimit => "slack_below_limit",
            Trigger::ComfortableSlack => "comfortable_slack",
        }
    }

    /// The condition as a human-readable comparison.
    pub fn explain(self, load: f64, slack: f64, loadlimit: f64, slacklimit: f64) -> String {
        match self {
            Trigger::SlaViolated => {
                format!("slack {slack:.3} < 0 (tail already beyond the SLA)")
            }
            Trigger::LoadAboveLimit => {
                format!("load {load:.3} > loadlimit {loadlimit:.3}")
            }
            Trigger::SlackBelowHalfLimit => {
                format!("slack {slack:.3} < slacklimit/2 {:.3}", slacklimit / 2.0)
            }
            Trigger::SlackBelowLimit => {
                format!("slack {slack:.3} < slacklimit {slacklimit:.3}")
            }
            Trigger::ComfortableSlack => {
                format!("slack {slack:.3} >= slacklimit {slacklimit:.3}")
            }
        }
    }
}

impl rhythm_snapshot::Snapshot for BeSnapshot {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let BeSnapshot {
            instances,
            running,
            cores,
            llc_ways,
            freq_mhz,
            net_mbps,
        } = *self;
        w.u32(instances);
        w.u32(running);
        w.u32(cores);
        w.u32(llc_ways);
        w.u32(freq_mhz);
        w.u32(net_mbps);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(BeSnapshot {
            instances: r.u32()?,
            running: r.u32()?,
            cores: r.u32()?,
            llc_ways: r.u32()?,
            freq_mhz: r.u32()?,
            net_mbps: r.u32()?,
        })
    }
}

impl rhythm_snapshot::Snapshot for Trigger {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(match self {
            Trigger::SlaViolated => 0,
            Trigger::LoadAboveLimit => 1,
            Trigger::SlackBelowHalfLimit => 2,
            Trigger::SlackBelowLimit => 3,
            Trigger::ComfortableSlack => 4,
        });
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => Trigger::SlaViolated,
            1 => Trigger::LoadAboveLimit,
            2 => Trigger::SlackBelowHalfLimit,
            3 => Trigger::SlackBelowLimit,
            4 => Trigger::ComfortableSlack,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown trigger tag {t}"
                )))
            }
        })
    }
}

/// One controller decision with its full causal context.
#[derive(Clone, Debug)]
pub struct AuditRecord {
    /// Virtual time of the tick, in seconds.
    pub t_s: f64,
    /// Machine (Servpod host) index within the engine.
    pub machine: u32,
    /// Name of the Servpod hosted on the machine.
    pub pod: String,
    /// The action Algorithm 2 chose.
    pub action: ActionCode,
    /// Which branch of the ladder fired.
    pub trigger: Trigger,
    /// Measured LC load fraction.
    pub load: f64,
    /// The `loadlimit` threshold in force.
    pub loadlimit: f64,
    /// Measured slack, `(SLA - tail) / SLA`.
    pub slack: f64,
    /// The `slacklimit` threshold in force.
    pub slacklimit: f64,
    /// Measured tail latency in ms.
    pub tail_ms: f64,
    /// The SLA target in ms.
    pub sla_ms: f64,
    /// Index of the Servpod stage with the highest mean sojourn over the
    /// last tick, if any request finished in the window.
    pub hot_pod: Option<u32>,
    /// Name of that stage (empty when `hot_pod` is `None`).
    pub hot_pod_name: String,
    /// Mean sojourn of that stage over the last tick, in ms.
    pub hot_pod_ms: f64,
    /// BE population before the action was applied.
    pub before: BeSnapshot,
    /// BE population after subcontrollers reacted.
    pub after: BeSnapshot,
}

impl AuditRecord {
    /// One human-readable "why did Rhythm do X at t=Y" line.
    pub fn why(&self) -> String {
        let mut line = format!(
            "t={:.1}s machine {} ({}): {} because {}; tail {:.2}ms vs SLA {:.0}ms",
            self.t_s,
            self.machine,
            self.pod,
            self.action.name(),
            self.trigger
                .explain(self.load, self.slack, self.loadlimit, self.slacklimit),
            self.tail_ms,
            self.sla_ms,
        );
        if let Some(idx) = self.hot_pod {
            line.push_str(&format!(
                "; hottest stage {} ({}) mean sojourn {:.2}ms",
                idx, self.hot_pod_name, self.hot_pod_ms
            ));
        }
        line.push_str(&format!(
            "; BE {}→{} instances ({}→{} running, {}→{} cores)",
            self.before.instances,
            self.after.instances,
            self.before.running,
            self.after.running,
            self.before.cores,
            self.after.cores,
        ));
        line
    }
}

impl rhythm_snapshot::Snapshot for AuditRecord {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let AuditRecord {
            t_s,
            machine,
            pod,
            action,
            trigger,
            load,
            loadlimit,
            slack,
            slacklimit,
            tail_ms,
            sla_ms,
            hot_pod,
            hot_pod_name,
            hot_pod_ms,
            before,
            after,
        } = self;
        w.f64(*t_s);
        w.u32(*machine);
        w.str(pod);
        action.encode(w);
        trigger.encode(w);
        w.f64(*load);
        w.f64(*loadlimit);
        w.f64(*slack);
        w.f64(*slacklimit);
        w.f64(*tail_ms);
        w.f64(*sla_ms);
        hot_pod.encode(w);
        w.str(hot_pod_name);
        w.f64(*hot_pod_ms);
        before.encode(w);
        after.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(AuditRecord {
            t_s: r.f64()?,
            machine: r.u32()?,
            pod: r.str()?,
            action: rhythm_snapshot::Snapshot::decode(r)?,
            trigger: rhythm_snapshot::Snapshot::decode(r)?,
            load: r.f64()?,
            loadlimit: r.f64()?,
            slack: r.f64()?,
            slacklimit: r.f64()?,
            tail_ms: r.f64()?,
            sla_ms: r.f64()?,
            hot_pod: rhythm_snapshot::Snapshot::decode(r)?,
            hot_pod_name: r.str()?,
            hot_pod_ms: r.f64()?,
            before: rhythm_snapshot::Snapshot::decode(r)?,
            after: rhythm_snapshot::Snapshot::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_full_record() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let rec = sample();
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = AuditRecord::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.pod, rec.pod);
        assert_eq!(back.action, rec.action);
        assert_eq!(back.trigger, rec.trigger);
        assert_eq!(back.hot_pod, rec.hot_pod);
        assert_eq!(back.before, rec.before);
        assert_eq!(back.after, rec.after);
        assert_eq!(back.why(), rec.why());
        // Re-encoding the decoded record is bit-identical.
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn classify_mirrors_algorithm_2_ladder() {
        let (ll, sl) = (0.6, 0.1);
        assert_eq!(Trigger::classify(0.3, -0.01, ll, sl), Trigger::SlaViolated);
        assert_eq!(Trigger::classify(0.7, 0.2, ll, sl), Trigger::LoadAboveLimit);
        assert_eq!(
            Trigger::classify(0.3, 0.04, ll, sl),
            Trigger::SlackBelowHalfLimit
        );
        assert_eq!(
            Trigger::classify(0.3, 0.08, ll, sl),
            Trigger::SlackBelowLimit
        );
        assert_eq!(
            Trigger::classify(0.3, 0.5, ll, sl),
            Trigger::ComfortableSlack
        );
        // SLA violation wins even under heavy load, as in the paper.
        assert_eq!(Trigger::classify(0.9, -0.5, ll, sl), Trigger::SlaViolated);
    }

    /// The record's line in a one-replica JSONL export.
    fn audit_line(rec: AuditRecord) -> String {
        let rep = crate::TelemetryOutput {
            audit: vec![rec],
            ..Default::default()
        };
        let jsonl = crate::export_jsonl(&[rep], &[], &[]);
        jsonl.lines().nth(1).unwrap().to_owned()
    }

    fn sample() -> AuditRecord {
        AuditRecord {
            t_s: 12.0,
            machine: 2,
            pod: "front".into(),
            action: ActionCode::CutBe,
            trigger: Trigger::SlackBelowHalfLimit,
            load: 0.41,
            loadlimit: 0.6,
            slack: 0.03,
            slacklimit: 0.1,
            tail_ms: 97.0,
            sla_ms: 100.0,
            hot_pod: Some(1),
            hot_pod_name: "search".into(),
            hot_pod_ms: 8.4,
            before: BeSnapshot {
                instances: 6,
                running: 6,
                cores: 8,
                llc_ways: 6,
                freq_mhz: 2600,
                net_mbps: 4000,
            },
            after: BeSnapshot {
                instances: 6,
                running: 6,
                cores: 6,
                llc_ways: 4,
                freq_mhz: 2200,
                net_mbps: 3000,
            },
        }
    }

    #[test]
    fn why_line_names_action_and_cause() {
        let why = sample().why();
        assert!(why.contains("CutBE"), "{why}");
        assert!(why.contains("slacklimit/2"), "{why}");
        assert!(why.contains("hottest stage 1 (search)"), "{why}");
        assert!(why.contains("8→6 cores"), "{why}");
    }

    #[test]
    fn json_includes_thresholds_and_snapshots() {
        let s = audit_line(sample());
        assert!(s.contains("\"type\":\"audit\""), "{s}");
        assert!(s.contains("\"loadlimit\":0.6"), "{s}");
        assert!(s.contains("\"trigger\":\"slack_below_half_limit\""), "{s}");
        assert!(s.contains("\"before\":{\"instances\":6"), "{s}");
    }

    #[test]
    fn missing_hot_pod_serialises_as_null() {
        let mut r = sample();
        r.hot_pod = None;
        let s = audit_line(r);
        assert!(s.contains("\"hot_pod\":null"), "{s}");
        assert!(!s.contains("hot_pod_name"), "{s}");
    }
}
