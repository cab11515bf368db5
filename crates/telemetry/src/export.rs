//! Deterministic exporters over collected telemetry: JSONL, a
//! human-readable why-report, and Chrome-trace JSON for
//! `chrome://tracing` / Perfetto.
//!
//! Determinism contract: exports are plain functions of the collected
//! data; replicas are always iterated in index order and each record is
//! streamed into the one output `String` with its keys in a fixed order
//! (see [`crate::json`] for the number and escape rules), so two runs that
//! collected identical telemetry (e.g. the same cluster run at different
//! worker-thread counts) render byte-identical text.
//!
//! Sizing: the JSONL and Chrome-trace exports reserve their output once,
//! from an upper bound summed over the records (`bound`), and hand it
//! back trimmed to its length, so an export of tens of megabytes is never
//! grown by doubling and copied on the way.

use crate::audit::{AuditRecord, BeSnapshot};
use crate::cluster::ClusterEvent;
use crate::event::{Event, EventKind};
use crate::json::Obj;
use crate::tail::TailPoint;

/// Everything one engine collected during a run.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOutput {
    /// Servpod names by machine index (resolves `machine` fields in
    /// events and audit records).
    pub pods: Vec<String>,
    /// Flight-recorder contents, oldest first.
    pub events: Vec<Event>,
    /// Total events ever recorded (including ones evicted from the ring).
    pub recorded: u64,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// The decision audit trail, in tick order.
    pub audit: Vec<AuditRecord>,
    /// The per-engine tail series, one point per controller period.
    pub tail: Vec<TailPoint>,
}

impl TelemetryOutput {
    /// The human-readable "why did Rhythm do X at t=Y" report: one line
    /// per audit record, in tick order.
    pub fn why_report(&self) -> String {
        let mut out = String::new();
        for rec in &self.audit {
            out.push_str(&rec.why());
            out.push('\n');
        }
        out
    }
}

/// Renders telemetry as JSON Lines: one compact object per line.
///
/// Line order is fixed — a `meta` header, then per-replica events, audit
/// records and tail points (replicas in index order), then the merged
/// cluster tail series — so the export is byte-identical whenever the
/// collected data is identical.
pub fn export_jsonl(replicas: &[TelemetryOutput], cluster_tail: &[TailPoint]) -> String {
    export_jsonl_with_events(replicas, cluster_tail, &[])
}

/// [`export_jsonl`] plus cluster-scheduler events (gang lifecycle,
/// deadline misses), appended after the merged cluster tail so exports
/// without events are byte-identical to the plain form.
pub fn export_jsonl_with_events(
    replicas: &[TelemetryOutput],
    cluster_tail: &[TailPoint],
    cluster_events: &[ClusterEvent],
) -> String {
    let recorded: u64 = replicas.iter().map(|r| r.recorded).sum();
    let dropped: u64 = replicas.iter().map(|r| r.dropped).sum();
    let size = bound::jsonl(replicas, cluster_tail, cluster_events, recorded, dropped);
    let mut out = String::with_capacity(size);
    Obj::open(&mut out)
        .field("type", "meta")
        .field("schema", "rhythm-trace/v1")
        .field("replicas", replicas.len())
        .field("events_recorded", recorded)
        .field("events_dropped", dropped)
        .close();
    out.push('\n');
    for (idx, rep) in replicas.iter().enumerate() {
        for ev in &rep.events {
            event_line(&mut out, ev, idx);
        }
        for rec in &rep.audit {
            audit_line(&mut out, rec, idx);
        }
        for pt in &rep.tail {
            tail_line(&mut out, pt, Some(idx));
        }
    }
    for pt in cluster_tail {
        tail_line(&mut out, pt, None);
    }
    for ev in cluster_events {
        let mut o = Obj::open(&mut out);
        o.field("type", "cluster_event")
            .field("kind", ev.kind.name())
            .field("t_s", ev.t_s)
            .field("job", ev.job);
        if let Some(gid) = ev.gang {
            o.field("gang", gid);
        }
        o.close();
        out.push('\n');
    }
    bound::trim(out, size)
}

/// One `event` line; `replica` tags which engine the event came from.
fn event_line(out: &mut String, ev: &Event, replica: usize) {
    let mut o = Obj::open(out);
    o.field("type", "event")
        .field("replica", replica)
        .field("t_ns", ev.t_ns)
        .field("kind", ev.kind.name());
    match ev.kind {
        EventKind::RequestAdmitted => {}
        EventKind::RequestCompleted { latency_us } => {
            o.field("latency_us", latency_us);
        }
        EventKind::BeAdmitted { machine, instance } => {
            o.field("machine", machine).field("instance", instance);
        }
        EventKind::BeKilled {
            machine,
            instance,
            progress_pct,
        } => {
            o.field("machine", machine)
                .field("instance", instance)
                .field("progress_pct", progress_pct);
        }
        EventKind::Action {
            machine,
            action,
            load_pm,
            slack_pm,
        } => {
            o.field("machine", machine)
                .field("action", action.name())
                .field("load_pm", load_pm)
                .field("slack_pm", slack_pm);
        }
        EventKind::Adjust {
            machine,
            kind,
            value,
        } => {
            o.field("machine", machine)
                .field("dimension", kind.name())
                .field("value", value);
        }
        EventKind::Epoch { epoch } => {
            o.field("epoch", epoch);
        }
    }
    o.close();
    out.push('\n');
}

/// One `audit` line; `hot_pod_name`/`hot_pod_ms` appear only when a
/// hottest Servpod was attributed.
fn audit_line(out: &mut String, rec: &AuditRecord, replica: usize) {
    let mut o = Obj::open(out);
    o.field("type", "audit")
        .field("replica", replica)
        .field("t_s", rec.t_s)
        .field("machine", rec.machine)
        .field("pod", &rec.pod)
        .field("action", rec.action.name())
        .field("trigger", rec.trigger.name())
        .field("load", rec.load)
        .field("loadlimit", rec.loadlimit)
        .field("slack", rec.slack)
        .field("slacklimit", rec.slacklimit)
        .field("tail_ms", rec.tail_ms)
        .field("sla_ms", rec.sla_ms)
        .field("hot_pod", rec.hot_pod);
    if rec.hot_pod.is_some() {
        o.field("hot_pod_name", &rec.hot_pod_name)
            .field("hot_pod_ms", rec.hot_pod_ms);
    }
    o.obj("before", |b| be_snapshot(b, &rec.before))
        .obj("after", |a| be_snapshot(a, &rec.after))
        .close();
    out.push('\n');
}

fn be_snapshot(o: &mut Obj<'_>, s: &BeSnapshot) {
    o.field("instances", s.instances)
        .field("running", s.running)
        .field("cores", s.cores)
        .field("llc_ways", s.llc_ways)
        .field("freq_mhz", s.freq_mhz)
        .field("net_mbps", s.net_mbps);
}

/// One `tail` line: scope `replica` with its index for per-engine
/// series, scope `cluster` for the merged one.
fn tail_line(out: &mut String, pt: &TailPoint, replica: Option<usize>) {
    let mut o = Obj::open(out);
    o.field("type", "tail");
    match replica {
        Some(r) => o.field("scope", "replica").field("replica", r),
        None => o.field("scope", "cluster"),
    };
    o.field("t_s", pt.t_s)
        .field("count", pt.count)
        .field("p50_ms", pt.p50_ms)
        .field("p95_ms", pt.p95_ms)
        .field("p99_ms", pt.p99_ms)
        .field("slack", pt.slack)
        .close();
    out.push('\n');
}

/// Appends `,` and one Chrome-trace instant entry for `ev`, or nothing
/// for kinds too frequent to chart individually (per-request events).
fn chrome_event(out: &mut String, ev: &Event, replica: usize) {
    let (name, machine) = match ev.kind {
        // Per-request events would swamp the viewer; the tail counters
        // already summarise them.
        EventKind::RequestAdmitted | EventKind::RequestCompleted { .. } => return,
        EventKind::BeAdmitted { machine, .. } => ("be_admitted", machine),
        EventKind::BeKilled { machine, .. } => ("be_killed", machine),
        EventKind::Action {
            machine, action, ..
        } => (action.name(), machine),
        EventKind::Adjust { machine, kind, .. } => (kind.name(), machine),
        EventKind::Epoch { .. } => ("epoch", 0),
    };
    out.push(',');
    Obj::open(out)
        .field("name", name)
        .field("ph", "i")
        .field("s", "t")
        .field("ts", ev.t_ns as f64 / 1000.0)
        .field("pid", replica)
        .field("tid", machine)
        .obj("args", |a| match ev.kind {
            EventKind::BeAdmitted { instance, .. } => {
                a.field("instance", instance);
            }
            EventKind::BeKilled {
                instance,
                progress_pct,
                ..
            } => {
                a.field("instance", instance)
                    .field("progress_pct", progress_pct);
            }
            EventKind::Action {
                load_pm, slack_pm, ..
            } => {
                a.field("load", f64::from(load_pm) / 1000.0)
                    .field("slack", f64::from(slack_pm) / 1000.0);
            }
            EventKind::Adjust { value, .. } => {
                a.field("value", value);
            }
            EventKind::Epoch { epoch } => {
                a.field("epoch", epoch);
            }
            EventKind::RequestAdmitted | EventKind::RequestCompleted { .. } => {}
        })
        .close();
}

/// Renders telemetry as Chrome-trace JSON (`chrome://tracing` /
/// Perfetto "JSON array format"): controller actions, subcontroller
/// adjustments and BE lifecycle as instant events, per-replica tail
/// series as counter tracks.
pub fn chrome_trace(replicas: &[TelemetryOutput]) -> String {
    let size = bound::chrome(replicas);
    let mut out = String::with_capacity(size);
    out.push_str("{\"traceEvents\":[");
    // Every replica opens with its `process_name` entry, so only that
    // entry can be first; everything after it is comma-led.
    for (idx, rep) in replicas.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        Obj::open(&mut out)
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", idx)
            .obj("args", |a| {
                a.field("name", format!("replica {idx}"));
            })
            .close();
        for ev in &rep.events {
            chrome_event(&mut out, ev, idx);
        }
        for pt in &rep.tail {
            let ts = pt.t_s * 1e6;
            out.push(',');
            Obj::open(&mut out)
                .field("name", "tail_ms")
                .field("ph", "C")
                .field("ts", ts)
                .field("pid", idx)
                .obj("args", |a| {
                    a.field("p95", pt.p95_ms).field("p99", pt.p99_ms);
                })
                .close();
            out.push(',');
            Obj::open(&mut out)
                .field("name", "slack")
                .field("ph", "C")
                .field("ts", ts)
                .field("pid", idx)
                .obj("args", |a| {
                    a.field("slack", pt.slack);
                })
                .close();
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    bound::trim(out, size)
}

/// Upper bounds on the export text of each record, summed before an
/// export reserves its output. Integers, keys and names count exactly;
/// a float counts its sign, point, 17 significant digits and the zeros
/// its binary exponent allows; a string counts its escapes. Each
/// function mirrors the writer of the same record above.
mod bound {
    use super::TelemetryOutput;
    use super::{AuditRecord, BeSnapshot, ClusterEvent, Event, EventKind, TailPoint};

    /// `out` trimmed to its length; debug builds check the bound held.
    pub(super) fn trim(mut out: String, size: usize) -> String {
        debug_assert!(
            out.len() <= size,
            "export of {} bytes over its bound of {size}",
            out.len()
        );
        out.shrink_to_fit();
        out
    }

    pub(super) fn uint(v: u64) -> usize {
        v.checked_ilog10().map_or(1, |d| d as usize + 1)
    }

    pub(super) fn int(v: i64) -> usize {
        usize::from(v < 0) + uint(v.unsigned_abs())
    }

    /// `null`, `0`/`-0`, or `{}` `Display`, which never uses an exponent:
    /// at most 20 characters of sign, point and digits plus one digit or
    /// leading zero per factor of ten in the magnitude, which is below
    /// `|e2| · log10 2 + 2` for binary exponent `e2`.
    pub(super) fn float(v: f64) -> usize {
        if !v.is_finite() {
            return 4;
        }
        if v == 0.0 {
            return 2;
        }
        let biased = (v.to_bits() >> 52) & 0x7ff;
        // Subnormals sit below 2^-1022, down to 2^-1074.
        let e2 = if biased == 0 {
            1074
        } else {
            biased.abs_diff(1023)
        };
        // 1233 / 4096 < log10 2 by less than 1 / 100,000.
        24 + ((e2 * 1233) >> 12) as usize
    }

    pub(super) fn str(s: &str) -> usize {
        2 + s
            .bytes()
            .map(|b| match b {
                b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
                0..=0x1f => 6,
                _ => 1,
            })
            .sum::<usize>()
    }

    /// `,"key":` — one comma per key over-counts the first by one.
    fn key(k: &str) -> usize {
        k.len() + 4
    }

    /// `{`, `}` and the newline.
    const LINE: usize = 3;

    pub(super) fn jsonl(
        replicas: &[TelemetryOutput],
        cluster_tail: &[TailPoint],
        cluster_events: &[ClusterEvent],
        recorded: u64,
        dropped: u64,
    ) -> usize {
        let meta = LINE
            + key("type")
            + str("meta")
            + key("schema")
            + str("rhythm-trace/v1")
            + key("replicas")
            + uint(replicas.len() as u64)
            + key("events_recorded")
            + uint(recorded)
            + key("events_dropped")
            + uint(dropped);
        let per_replica: usize = replicas
            .iter()
            .enumerate()
            .map(|(idx, rep)| {
                let idx = idx as u64;
                rep.events.iter().map(|ev| event(ev, idx)).sum::<usize>()
                    + rep.audit.iter().map(|rec| audit(rec, idx)).sum::<usize>()
                    + rep.tail.iter().map(|pt| tail(pt, Some(idx))).sum::<usize>()
            })
            .sum();
        let cluster: usize = cluster_tail.iter().map(|pt| tail(pt, None)).sum::<usize>()
            + cluster_events.iter().map(cluster_event).sum::<usize>();
        meta + per_replica + cluster
    }

    fn event(ev: &Event, replica: u64) -> usize {
        LINE + key("type")
            + str("event")
            + key("replica")
            + uint(replica)
            + key("t_ns")
            + uint(ev.t_ns)
            + key("kind")
            + str(ev.kind.name())
            + payload(&ev.kind)
    }

    fn payload(kind: &EventKind) -> usize {
        match *kind {
            EventKind::RequestAdmitted => 0,
            EventKind::RequestCompleted { latency_us } => {
                key("latency_us") + uint(latency_us.into())
            }
            EventKind::BeAdmitted { machine, instance } => {
                key("machine") + uint(machine.into()) + key("instance") + uint(instance.into())
            }
            EventKind::BeKilled {
                machine,
                instance,
                progress_pct,
            } => {
                key("machine")
                    + uint(machine.into())
                    + key("instance")
                    + uint(instance.into())
                    + key("progress_pct")
                    + uint(progress_pct.into())
            }
            EventKind::Action {
                machine,
                action,
                load_pm,
                slack_pm,
            } => {
                key("machine")
                    + uint(machine.into())
                    + key("action")
                    + str(action.name())
                    + key("load_pm")
                    + uint(load_pm.into())
                    + key("slack_pm")
                    + int(slack_pm.into())
            }
            EventKind::Adjust {
                machine,
                kind,
                value,
            } => {
                key("machine")
                    + uint(machine.into())
                    + key("dimension")
                    + str(kind.name())
                    + key("value")
                    + int(value.into())
            }
            EventKind::Epoch { epoch } => key("epoch") + uint(epoch.into()),
        }
    }

    fn audit(rec: &AuditRecord, replica: u64) -> usize {
        let hot = match rec.hot_pod {
            Some(p) => {
                uint(p.into())
                    + key("hot_pod_name")
                    + str(&rec.hot_pod_name)
                    + key("hot_pod_ms")
                    + float(rec.hot_pod_ms)
            }
            None => 4,
        };
        LINE + key("type")
            + str("audit")
            + key("replica")
            + uint(replica)
            + key("t_s")
            + float(rec.t_s)
            + key("machine")
            + uint(rec.machine.into())
            + key("pod")
            + str(&rec.pod)
            + key("action")
            + str(rec.action.name())
            + key("trigger")
            + str(rec.trigger.name())
            + key("load")
            + float(rec.load)
            + key("loadlimit")
            + float(rec.loadlimit)
            + key("slack")
            + float(rec.slack)
            + key("slacklimit")
            + float(rec.slacklimit)
            + key("tail_ms")
            + float(rec.tail_ms)
            + key("sla_ms")
            + float(rec.sla_ms)
            + key("hot_pod")
            + hot
            + key("before")
            + be_snapshot(&rec.before)
            + key("after")
            + be_snapshot(&rec.after)
    }

    fn be_snapshot(s: &BeSnapshot) -> usize {
        2 + key("instances")
            + uint(s.instances.into())
            + key("running")
            + uint(s.running.into())
            + key("cores")
            + uint(s.cores.into())
            + key("llc_ways")
            + uint(s.llc_ways.into())
            + key("freq_mhz")
            + uint(s.freq_mhz.into())
            + key("net_mbps")
            + uint(s.net_mbps.into())
    }

    fn tail(pt: &TailPoint, replica: Option<u64>) -> usize {
        let scope = match replica {
            Some(r) => str("replica") + key("replica") + uint(r),
            None => str("cluster"),
        };
        LINE + key("type")
            + str("tail")
            + key("scope")
            + scope
            + key("t_s")
            + float(pt.t_s)
            + key("count")
            + uint(pt.count)
            + key("p50_ms")
            + float(pt.p50_ms)
            + key("p95_ms")
            + float(pt.p95_ms)
            + key("p99_ms")
            + float(pt.p99_ms)
            + key("slack")
            + float(pt.slack)
    }

    fn cluster_event(ev: &ClusterEvent) -> usize {
        LINE + key("type")
            + str("cluster_event")
            + key("kind")
            + str(ev.kind.name())
            + key("t_s")
            + float(ev.t_s)
            + key("job")
            + uint(ev.job)
            + ev.gang.map_or(0, |g| key("gang") + uint(g.into()))
    }

    pub(super) fn chrome(replicas: &[TelemetryOutput]) -> usize {
        let frame = "{\"traceEvents\":[".len() + "],\"displayTimeUnit\":\"ms\"}".len();
        frame
            + replicas
                .iter()
                .enumerate()
                .map(|(idx, rep)| {
                    let idx = idx as u64;
                    // The comma before every entry but the first.
                    let process = 1
                        + 2
                        + key("name")
                        + str("process_name")
                        + key("ph")
                        + str("M")
                        + key("pid")
                        + uint(idx)
                        + key("args")
                        + 2
                        + key("name")
                        + str("replica ")
                        + uint(idx);
                    process
                        + rep
                            .events
                            .iter()
                            .map(|ev| chrome_event(ev, idx))
                            .sum::<usize>()
                        + rep
                            .tail
                            .iter()
                            .map(|pt| chrome_tail(pt, idx))
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// One instant entry, with its leading comma; 0 for the per-request
    /// kinds the trace leaves out.
    fn chrome_event(ev: &Event, replica: u64) -> usize {
        let (name, machine, args) = match ev.kind {
            EventKind::RequestAdmitted | EventKind::RequestCompleted { .. } => return 0,
            EventKind::BeAdmitted { machine, instance } => (
                "be_admitted",
                machine,
                key("instance") + uint(instance.into()),
            ),
            EventKind::BeKilled {
                machine,
                instance,
                progress_pct,
            } => (
                "be_killed",
                machine,
                key("instance")
                    + uint(instance.into())
                    + key("progress_pct")
                    + uint(progress_pct.into()),
            ),
            EventKind::Action {
                machine,
                action,
                load_pm,
                slack_pm,
            } => (
                action.name(),
                machine,
                key("load")
                    + float(f64::from(load_pm) / 1000.0)
                    + key("slack")
                    + float(f64::from(slack_pm) / 1000.0),
            ),
            EventKind::Adjust {
                machine,
                kind,
                value,
            } => (kind.name(), machine, key("value") + int(value.into())),
            EventKind::Epoch { epoch } => ("epoch", 0, key("epoch") + uint(epoch.into())),
        };
        1 + 2
            + key("name")
            + str(name)
            + key("ph")
            + str("i")
            + key("s")
            + str("t")
            + key("ts")
            + float(ev.t_ns as f64 / 1000.0)
            + key("pid")
            + uint(replica)
            + key("tid")
            + uint(machine.into())
            + key("args")
            + 2
            + args
    }

    /// The two counter entries of one tail point, with their commas.
    fn chrome_tail(pt: &TailPoint, replica: u64) -> usize {
        let ts = float(pt.t_s * 1e6);
        let head = |name: &str| {
            1 + 2
                + key("name")
                + str(name)
                + key("ph")
                + str("C")
                + key("ts")
                + ts
                + key("pid")
                + uint(replica)
                + key("args")
                + 2
        };
        head("tail_ms")
            + key("p95")
            + float(pt.p95_ms)
            + key("p99")
            + float(pt.p99_ms)
            + head("slack")
            + key("slack")
            + float(pt.slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{BeSnapshot, Trigger};
    use crate::event::ActionCode;

    fn sample_output() -> TelemetryOutput {
        TelemetryOutput {
            pods: vec!["front".into(), "search".into()],
            events: vec![
                Event {
                    t_ns: 2_000_000_000,
                    kind: EventKind::Action {
                        machine: 0,
                        action: ActionCode::SuspendBe,
                        load_pm: 710,
                        slack_pm: 120,
                    },
                },
                Event {
                    t_ns: 2_000_000_000,
                    kind: EventKind::RequestAdmitted,
                },
                Event {
                    t_ns: 4_000_000_000,
                    kind: EventKind::Epoch { epoch: 1 },
                },
            ],
            recorded: 3,
            dropped: 0,
            audit: vec![AuditRecord {
                t_s: 2.0,
                machine: 0,
                pod: "front".into(),
                action: ActionCode::SuspendBe,
                trigger: Trigger::LoadAboveLimit,
                load: 0.71,
                loadlimit: 0.6,
                slack: 0.12,
                slacklimit: 0.1,
                tail_ms: 88.0,
                sla_ms: 100.0,
                hot_pod: None,
                hot_pod_name: String::new(),
                hot_pod_ms: 0.0,
                before: BeSnapshot::default(),
                after: BeSnapshot::default(),
            }],
            tail: vec![TailPoint {
                t_s: 2.0,
                count: 40,
                p50_ms: 10.0,
                p95_ms: 60.0,
                p99_ms: 88.0,
                slack: 0.12,
            }],
        }
    }

    #[test]
    fn jsonl_has_meta_then_lines() {
        let out = sample_output();
        let cluster = vec![out.tail[0]];
        let text = export_jsonl(&[out], &cluster);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3 + 1 + 1 + 1);
        assert!(lines[0].starts_with("{\"type\":\"meta\""), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\":\"action\""), "{}", lines[1]);
        let last = lines.last().unwrap();
        assert!(last.contains("\"scope\":\"cluster\""), "{last}");
        // Every line is a complete object.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn jsonl_is_deterministic() {
        let a = export_jsonl(&[sample_output()], &[]);
        let b = export_jsonl(&[sample_output()], &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn why_report_one_line_per_record() {
        let out = sample_output();
        let report = out.why_report();
        assert_eq!(report.lines().count(), 1);
        assert!(report.contains("SuspendBE"), "{report}");
        assert!(report.contains("loadlimit"), "{report}");
    }

    #[test]
    fn float_bound_covers_display_at_every_exponent() {
        let mut values = vec![
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            0.1,
            -0.30000000000000004,
            1e-5,
            123_456_789.123_456_78,
            1e21,
            1.797_693_134_862_315_7e308,
            -0.0,
        ];
        for e in -1074..=1023 {
            let x = 2f64.powi(e);
            values.extend([x, x * 1.999_999_999_999_999_8, -x * 1.1, x * 0.7]);
        }
        for v in values {
            let text = format!("{v}");
            assert!(
                text.len() <= bound::float(v),
                "{v:e}: {} > {}",
                text.len(),
                bound::float(v)
            );
        }
        assert_eq!(bound::float(f64::NAN), "null".len());
        assert_eq!(bound::uint(0), 1);
        assert_eq!(bound::uint(u64::MAX), 20);
        assert_eq!(bound::int(i64::MIN), 20);
        assert_eq!(bound::str("a\"\u{1}"), "\"a\\\"\\u0001\"".len());
    }

    /// Both exports reserve once from their bound and come back with
    /// no spare room, and the bound stays within a small factor of the
    /// text.
    #[test]
    fn exports_are_sized_to_their_text() {
        let mut rep = sample_output();
        rep.audit[0].hot_pod = Some(1);
        rep.audit[0].hot_pod_name = "se\"arch\n".into();
        let reps = [rep.clone(), rep];
        let cluster = [reps[0].tail[0]];
        let events = [ClusterEvent {
            t_s: 3.5,
            kind: crate::cluster::ClusterEventKind::GangFormed,
            job: 7,
            gang: Some(2),
        }];
        let jsonl = export_jsonl_with_events(&reps, &cluster, &events);
        let chrome = chrome_trace(&reps);
        let jsonl_bound = bound::jsonl(&reps, &cluster, &events, 6, 0);
        for (text, size) in [(&jsonl, jsonl_bound), (&chrome, bound::chrome(&reps))] {
            assert_eq!(text.capacity(), text.len());
            assert!(
                text.len() <= size && size <= 2 * text.len(),
                "{} vs {size}",
                text.len()
            );
        }
    }

    #[test]
    fn chrome_trace_skips_request_noise_and_keeps_actions() {
        let text = chrome_trace(&[sample_output()]);
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.contains("\"name\":\"SuspendBE\""), "{text}");
        assert!(text.contains("\"ph\":\"C\""), "{text}");
        assert!(text.contains("\"name\":\"epoch\""), "{text}");
        assert!(!text.contains("request_admitted"), "{text}");
        assert!(text.ends_with("\"displayTimeUnit\":\"ms\"}"), "{text}");
    }
}
