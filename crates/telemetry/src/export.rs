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
//! Sizing: the JSONL and Chrome-trace exports run their line writers
//! twice, first over the byte-counting sink (`json::Count`, exact but
//! for floats, which count an upper bound), then over a `String`
//! reserved to that count, which they hand back trimmed to its length.
//! So each line's layout is written once, and an export of tens of
//! megabytes is never grown by doubling and copied on the way.

use crate::audit::{AuditRecord, BeSnapshot};
use crate::cluster::ClusterEvent;
use crate::event::{Event, EventKind};
use crate::json::{Count, Obj, Sink};
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
/// cluster tail series, then the cluster-scheduler events (gang
/// lifecycle, deadline misses) — so the export is byte-identical
/// whenever the collected data is identical.
pub fn export_jsonl(
    replicas: &[TelemetryOutput],
    cluster_tail: &[TailPoint],
    cluster_events: &[ClusterEvent],
) -> String {
    let mut size = Count::default();
    jsonl(&mut size, replicas, cluster_tail, cluster_events);
    let mut out = String::with_capacity(size.0);
    jsonl(&mut out, replicas, cluster_tail, cluster_events);
    trim(out, size.0)
}

/// Writes the [`export_jsonl`] text to `out`.
fn jsonl<S: Sink>(
    out: &mut S,
    replicas: &[TelemetryOutput],
    cluster_tail: &[TailPoint],
    cluster_events: &[ClusterEvent],
) {
    let recorded: u64 = replicas.iter().map(|r| r.recorded).sum();
    let dropped: u64 = replicas.iter().map(|r| r.dropped).sum();
    Obj::open(out)
        .field("type", "meta")
        .field("schema", "rhythm-trace/v1")
        .field("replicas", replicas.len())
        .field("events_recorded", recorded)
        .field("events_dropped", dropped)
        .close();
    out.raw("\n");
    for (idx, rep) in replicas.iter().enumerate() {
        for ev in &rep.events {
            event_line(out, ev, idx);
        }
        for rec in &rep.audit {
            audit_line(out, rec, idx);
        }
        for pt in &rep.tail {
            tail_line(out, pt, Some(idx));
        }
    }
    for pt in cluster_tail {
        tail_line(out, pt, None);
    }
    for ev in cluster_events {
        let mut o = Obj::open(out);
        o.field("type", "cluster_event")
            .field("kind", ev.kind.name())
            .field("t_s", ev.t_s)
            .field("job", ev.job);
        if let Some(gid) = ev.gang {
            o.field("gang", gid);
        }
        o.close();
        out.raw("\n");
    }
}

/// `out` trimmed to its length; debug builds check that the counted
/// `size` covered it.
fn trim(mut out: String, size: usize) -> String {
    debug_assert!(
        out.len() <= size,
        "export of {} bytes over its counted {size}",
        out.len()
    );
    out.shrink_to_fit();
    out
}

/// One `event` line; `replica` tags which engine the event came from.
fn event_line<S: Sink>(out: &mut S, ev: &Event, replica: usize) {
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
    out.raw("\n");
}

/// One `audit` line; `hot_pod_name`/`hot_pod_ms` appear only when a
/// hottest Servpod was attributed.
fn audit_line<S: Sink>(out: &mut S, rec: &AuditRecord, replica: usize) {
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
    out.raw("\n");
}

fn be_snapshot<S: Sink>(o: &mut Obj<'_, S>, s: &BeSnapshot) {
    o.field("instances", s.instances)
        .field("running", s.running)
        .field("cores", s.cores)
        .field("llc_ways", s.llc_ways)
        .field("freq_mhz", s.freq_mhz)
        .field("net_mbps", s.net_mbps);
}

/// One `tail` line: scope `replica` with its index for per-engine
/// series, scope `cluster` for the merged one.
fn tail_line<S: Sink>(out: &mut S, pt: &TailPoint, replica: Option<usize>) {
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
    out.raw("\n");
}

/// Appends `,` and one Chrome-trace instant entry for `ev`, or nothing
/// for kinds too frequent to chart individually (per-request events).
fn chrome_event<S: Sink>(out: &mut S, ev: &Event, replica: usize) {
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
    out.raw(",");
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
    let mut size = Count::default();
    chrome(&mut size, replicas);
    let mut out = String::with_capacity(size.0);
    chrome(&mut out, replicas);
    trim(out, size.0)
}

/// Writes the [`chrome_trace`] text to `out`.
fn chrome<S: Sink>(out: &mut S, replicas: &[TelemetryOutput]) {
    out.raw("{\"traceEvents\":[");
    // Every replica opens with its `process_name` entry, so only that
    // entry can be first; everything after it is comma-led.
    for (idx, rep) in replicas.iter().enumerate() {
        if idx > 0 {
            out.raw(",");
        }
        Obj::open(out)
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", idx)
            .obj("args", |a| {
                a.field("name", format!("replica {idx}"));
            })
            .close();
        for ev in &rep.events {
            chrome_event(out, ev, idx);
        }
        for pt in &rep.tail {
            let ts = pt.t_s * 1e6;
            out.raw(",");
            Obj::open(out)
                .field("name", "tail_ms")
                .field("ph", "C")
                .field("ts", ts)
                .field("pid", idx)
                .obj("args", |a| {
                    a.field("p95", pt.p95_ms).field("p99", pt.p99_ms);
                })
                .close();
            out.raw(",");
            Obj::open(out)
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
    out.raw("],\"displayTimeUnit\":\"ms\"}");
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
        let text = export_jsonl(&[out], &cluster, &[]);
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
        let a = export_jsonl(&[sample_output()], &[], &[]);
        let b = export_jsonl(&[sample_output()], &[], &[]);
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

    /// Both exports reserve once from their count and come back with
    /// no spare room. The count is exact for lines without floats (the
    /// meta line and events), and within twice the text with floats.
    #[test]
    fn exports_are_sized_to_their_text() {
        let mut rep = sample_output();
        rep.audit[0].hot_pod = Some(1);
        rep.audit[0].hot_pod_name = "se\"arch\n".into();
        let kinds = [
            EventKind::RequestCompleted {
                latency_us: u32::MAX,
            },
            EventKind::BeAdmitted {
                machine: 9,
                instance: 10,
            },
            EventKind::BeKilled {
                machine: u16::MAX,
                instance: 0,
                progress_pct: 100,
            },
            EventKind::Action {
                machine: 0,
                action: ActionCode::SuspendBe,
                load_pm: 999,
                slack_pm: i16::MIN,
            },
            EventKind::Adjust {
                machine: 1,
                kind: crate::event::AdjustKind::BeCores,
                value: -1,
            },
            EventKind::Epoch { epoch: u32::MAX },
        ];
        let events_only = TelemetryOutput {
            events: (rep.events.iter().map(|e| e.kind).chain(kinds))
                .zip([0, 1, 9, 10, 99, 100, u64::MAX].into_iter().cycle())
                .map(|(kind, t_ns)| Event { t_ns, kind })
                .collect(),
            recorded: u64::MAX / 2,
            dropped: 10,
            audit: Vec::new(),
            tail: Vec::new(),
            ..rep.clone()
        };
        let counted = |reps: &[TelemetryOutput], cluster: &[TailPoint], events: &[ClusterEvent]| {
            let mut size = Count::default();
            jsonl(&mut size, reps, cluster, events);
            size.0
        };
        let exact = [events_only.clone(), events_only];
        assert_eq!(
            counted(&exact, &[], &[]),
            export_jsonl(&exact, &[], &[]).len()
        );

        let reps = [rep.clone(), rep];
        let cluster = [reps[0].tail[0]];
        let events = [ClusterEvent {
            t_s: 3.5,
            kind: crate::cluster::ClusterEventKind::GangFormed,
            job: 7,
            gang: Some(2),
        }];
        let jsonl_text = export_jsonl(&reps, &cluster, &events);
        let chrome_text = chrome_trace(&reps);
        let mut chrome_size = Count::default();
        chrome(&mut chrome_size, &reps);
        for (text, size) in [
            (&jsonl_text, counted(&reps, &cluster, &events)),
            (&chrome_text, chrome_size.0),
        ] {
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
