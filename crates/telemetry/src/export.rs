//! Deterministic exporters over collected telemetry: JSONL, a
//! human-readable why-report, and Chrome-trace JSON for
//! `chrome://tracing` / Perfetto.
//!
//! Determinism contract: exports are plain functions of the collected
//! data; replicas are always iterated in index order and each record is
//! streamed into the one output `String` with its keys in a fixed order
//! (see `json.rs` for the number and escape rules), so two runs that
//! collected identical telemetry (e.g. the same cluster run at different
//! worker-thread counts) render byte-identical text.

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
    let mut out = String::new();
    Obj::open(&mut out)
        .str("type", "meta")
        .str("schema", "rhythm-trace/v1")
        .uint("replicas", replicas.len() as u64)
        .uint("events_recorded", recorded)
        .uint("events_dropped", dropped)
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
        o.str("type", "cluster_event")
            .str("kind", ev.kind.name())
            .float("t_s", ev.t_s)
            .uint("job", ev.job);
        if let Some(gid) = ev.gang {
            o.uint("gang", gid);
        }
        o.close();
        out.push('\n');
    }
    out
}

/// One `event` line; `replica` tags which engine the event came from.
fn event_line(out: &mut String, ev: &Event, replica: usize) {
    let mut o = Obj::open(out);
    o.str("type", "event")
        .uint("replica", replica as u64)
        .uint("t_ns", ev.t_ns)
        .str("kind", ev.kind.name());
    match ev.kind {
        EventKind::RequestAdmitted => {}
        EventKind::RequestCompleted { latency_us } => {
            o.uint("latency_us", latency_us);
        }
        EventKind::BeAdmitted { machine, instance } => {
            o.uint("machine", machine).uint("instance", instance);
        }
        EventKind::BeKilled {
            machine,
            instance,
            progress_pct,
        } => {
            o.uint("machine", machine)
                .uint("instance", instance)
                .uint("progress_pct", progress_pct);
        }
        EventKind::Action {
            machine,
            action,
            load_pm,
            slack_pm,
        } => {
            o.uint("machine", machine)
                .str("action", action.name())
                .uint("load_pm", load_pm)
                .int("slack_pm", slack_pm);
        }
        EventKind::Adjust {
            machine,
            kind,
            value,
        } => {
            o.uint("machine", machine)
                .str("dimension", kind.name())
                .int("value", value);
        }
        EventKind::Epoch { epoch } => {
            o.uint("epoch", epoch);
        }
    }
    o.close();
    out.push('\n');
}

/// One `audit` line; `hot_pod_name`/`hot_pod_ms` appear only when a
/// hottest Servpod was attributed.
fn audit_line(out: &mut String, rec: &AuditRecord, replica: usize) {
    let mut o = Obj::open(out);
    o.str("type", "audit")
        .uint("replica", replica as u64)
        .float("t_s", rec.t_s)
        .uint("machine", rec.machine)
        .str("pod", &rec.pod)
        .str("action", rec.action.name())
        .str("trigger", rec.trigger.name())
        .float("load", rec.load)
        .float("loadlimit", rec.loadlimit)
        .float("slack", rec.slack)
        .float("slacklimit", rec.slacklimit)
        .float("tail_ms", rec.tail_ms)
        .float("sla_ms", rec.sla_ms);
    match rec.hot_pod {
        Some(idx) => {
            o.uint("hot_pod", idx)
                .str("hot_pod_name", &rec.hot_pod_name)
                .float("hot_pod_ms", rec.hot_pod_ms);
        }
        None => {
            o.null("hot_pod");
        }
    }
    o.obj("before", |b| be_snapshot(b, &rec.before))
        .obj("after", |a| be_snapshot(a, &rec.after))
        .close();
    out.push('\n');
}

fn be_snapshot(o: &mut Obj<'_>, s: &BeSnapshot) {
    o.uint("instances", s.instances)
        .uint("running", s.running)
        .uint("cores", s.cores)
        .uint("llc_ways", s.llc_ways)
        .uint("freq_mhz", s.freq_mhz)
        .uint("net_mbps", s.net_mbps);
}

/// One `tail` line: scope `replica` with its index for per-engine
/// series, scope `cluster` for the merged one.
fn tail_line(out: &mut String, pt: &TailPoint, replica: Option<usize>) {
    let mut o = Obj::open(out);
    o.str("type", "tail");
    match replica {
        Some(r) => o.str("scope", "replica").uint("replica", r as u64),
        None => o.str("scope", "cluster"),
    };
    o.float("t_s", pt.t_s)
        .uint("count", pt.count)
        .float("p50_ms", pt.p50_ms)
        .float("p95_ms", pt.p95_ms)
        .float("p99_ms", pt.p99_ms)
        .float("slack", pt.slack)
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
        .str("name", name)
        .str("ph", "i")
        .str("s", "t")
        .float("ts", ev.t_ns as f64 / 1000.0)
        .uint("pid", replica as u64)
        .uint("tid", machine)
        .obj("args", |a| match ev.kind {
            EventKind::BeAdmitted { instance, .. } => {
                a.uint("instance", instance);
            }
            EventKind::BeKilled {
                instance,
                progress_pct,
                ..
            } => {
                a.uint("instance", instance)
                    .uint("progress_pct", progress_pct);
            }
            EventKind::Action {
                load_pm, slack_pm, ..
            } => {
                a.float("load", f64::from(load_pm) / 1000.0)
                    .float("slack", f64::from(slack_pm) / 1000.0);
            }
            EventKind::Adjust { value, .. } => {
                a.int("value", value);
            }
            EventKind::Epoch { epoch } => {
                a.uint("epoch", epoch);
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
    let mut out = String::from("{\"traceEvents\":[");
    // Every replica opens with its `process_name` entry, so only that
    // entry can be first; everything after it is comma-led.
    for (idx, rep) in replicas.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        Obj::open(&mut out)
            .str("name", "process_name")
            .str("ph", "M")
            .uint("pid", idx as u64)
            .obj("args", |a| {
                a.str("name", &format!("replica {idx}"));
            })
            .close();
        for ev in &rep.events {
            chrome_event(&mut out, ev, idx);
        }
        for pt in &rep.tail {
            let ts = pt.t_s * 1e6;
            out.push(',');
            Obj::open(&mut out)
                .str("name", "tail_ms")
                .str("ph", "C")
                .float("ts", ts)
                .uint("pid", idx as u64)
                .obj("args", |a| {
                    a.float("p95", pt.p95_ms).float("p99", pt.p99_ms);
                })
                .close();
            out.push(',');
            Obj::open(&mut out)
                .str("name", "slack")
                .str("ph", "C")
                .float("ts", ts)
                .uint("pid", idx as u64)
                .obj("args", |a| {
                    a.float("slack", pt.slack);
                })
                .close();
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
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
