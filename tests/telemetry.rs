//! End-to-end guarantees of the telemetry subsystem.
//!
//! Three promises are checked against whole cluster runs:
//!
//! 1. **Thread-count invariance** — the JSONL and Chrome-trace exports
//!    of a fully-instrumented run are byte-identical for 1 and 8 worker
//!    threads (per-replica streams are recorded inside each engine; the
//!    cluster tail is merged single-threaded in replica order at the
//!    epoch barriers).
//! 2. **Observation is free** — enabling telemetry does not perturb the
//!    simulation: per-machine fingerprints and merged metrics match an
//!    uninstrumented run bit-for-bit.
//! 3. **The streams are populated** — a managed run produces flight
//!    recorder events, a non-empty decision audit trail whose records
//!    explain themselves, and per-epoch tail points.
//! 4. **Faults are observable and invariant** — with a fault plan
//!    active, the cluster event stream carries the machine-lifecycle
//!    events (fault_injected / machine_down / machine_up) and the
//!    exports remain byte-identical across worker-thread counts.
//! 5. **The streaming writer renders what the value tree rendered** —
//!    on generated telemetry with hostile strings, non-finite and extreme
//!    floats and extreme integers, both exports are byte-equal to an
//!    oracle that builds a `serde_json::Value` per record and prints it.

use proptest::prelude::*;
use rhythm::prelude::*;
use rhythm::telemetry::{
    export_jsonl_with_events, ActionCode, AdjustKind, BeSnapshot, Event, EventKind, Trigger,
};
use serde_json::{json, Value};
use std::sync::OnceLock;

/// One shared profiled context (Algorithm 1 dominates test wall-clock).
fn ctx() -> &'static ServiceContext {
    static CTX: OnceLock<ServiceContext> = OnceLock::new();
    CTX.get_or_init(|| ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11))
}

fn cell(threads: usize, telemetry: TelemetryConfig) -> ClusterConfig {
    let mut c = ClusterConfig::new(2 * ctx().service.len()).with_scaled_jobs(0.02);
    c.duration_s = 60;
    c.jobs_per_machine = 3;
    c.load = LoadGen::constant(0.8);
    c.seed = 0x7E1E;
    c.threads = threads;
    c.telemetry = telemetry;
    c
}

#[test]
fn exports_are_thread_count_invariant() {
    let serial = run_cluster(
        ctx(),
        &ControllerChoice::Rhythm,
        &cell(1, TelemetryConfig::full()),
    );
    let parallel = run_cluster(
        ctx(),
        &ControllerChoice::Rhythm,
        &cell(8, TelemetryConfig::full()),
    );
    let (ts, tp) = (serial.telemetry.unwrap(), parallel.telemetry.unwrap());
    assert!(ts.decisions() > 0, "no decisions audited");
    assert_eq!(
        ts.export_jsonl(),
        tp.export_jsonl(),
        "JSONL export diverged across thread counts"
    );
    assert_eq!(
        ts.chrome_trace(),
        tp.chrome_trace(),
        "Chrome trace diverged across thread counts"
    );
    assert_eq!(ts.why_report(), tp.why_report());
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let off = run_cluster(
        ctx(),
        &ControllerChoice::Rhythm,
        &cell(4, TelemetryConfig::disabled()),
    );
    let on = run_cluster(
        ctx(),
        &ControllerChoice::Rhythm,
        &cell(4, TelemetryConfig::full()),
    );
    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());
    assert_eq!(
        off.fingerprints, on.fingerprints,
        "enabling telemetry changed per-machine results"
    );
    let a = serde_json::to_string(&off.metrics).unwrap();
    let b = serde_json::to_string(&on.metrics).unwrap();
    assert_eq!(a, b, "enabling telemetry changed merged metrics");
}

#[test]
fn fault_exports_are_thread_count_invariant() {
    let faulted = |threads: usize| {
        let mut c = cell(threads, TelemetryConfig::full());
        c.faults = FaultPlan::new()
            .crash(14.0, 1)
            .slow_node(20.0, 2, 0.6)
            .recover(34.0, 1)
            .recover(44.0, 2);
        run_cluster(ctx(), &ControllerChoice::Rhythm, &c)
    };
    let serial = faulted(1);
    let parallel = faulted(8);
    let (ts, tp) = (serial.telemetry.unwrap(), parallel.telemetry.unwrap());
    // The machine-lifecycle events are in the stream, in plan order.
    let kinds: Vec<&ClusterEventKind> = ts.cluster_events.iter().map(|e| &e.kind).collect();
    let count = |want: ClusterEventKind| kinds.iter().filter(|k| ***k == want).count();
    assert_eq!(count(ClusterEventKind::FaultInjected), 4, "{kinds:?}");
    assert_eq!(count(ClusterEventKind::MachineDown), 1);
    assert_eq!(
        count(ClusterEventKind::MachineUp),
        2,
        "crash + straggler recoveries"
    );
    let down = ts
        .cluster_events
        .iter()
        .find(|e| e.kind == ClusterEventKind::MachineDown)
        .expect("machine_down recorded");
    assert_eq!(down.job, 1, "machine_down carries the global machine index");
    // Byte-identical exports for any worker-thread count, faults active.
    assert_eq!(
        ts.export_jsonl(),
        tp.export_jsonl(),
        "JSONL export diverged across thread counts under faults"
    );
    assert_eq!(
        ts.chrome_trace(),
        tp.chrome_trace(),
        "Chrome trace diverged across thread counts under faults"
    );
    assert_eq!(serial.fingerprints, parallel.fingerprints);
    // The JSONL lines name the fault events.
    let jsonl = ts.export_jsonl();
    for needle in ["fault_injected", "machine_down", "machine_up"] {
        assert!(jsonl.contains(needle), "JSONL export lacks {needle}");
    }
}

#[test]
fn streams_are_populated_and_self_describing() {
    let outcome = run_cluster(
        ctx(),
        &ControllerChoice::Rhythm,
        &cell(4, TelemetryConfig::full()),
    );
    let tel = outcome.telemetry.unwrap();
    assert!(!tel.replicas.is_empty());
    assert!(
        !tel.cluster_tail.is_empty(),
        "no cluster tail points merged"
    );
    for (r, rep) in tel.replicas.iter().enumerate() {
        assert!(rep.recorded > 0, "replica {r}: flight recorder empty");
        assert!(!rep.audit.is_empty(), "replica {r}: audit trail empty");
        assert!(!rep.tail.is_empty(), "replica {r}: tail series empty");
        // Every action in the ring has a matching audit record at its
        // timestamp (the recorder may additionally have wrapped).
        let actions = rep
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Action { .. }))
            .count();
        assert!(actions > 0, "replica {r}: no Action events recorded");
        for rec in &rep.audit {
            let why = rec.why();
            assert!(why.contains("because"), "unexplained decision: {why}");
            assert!(rec.slacklimit >= 0.0 && rec.loadlimit > 0.0);
        }
    }
    // The JSONL export has the meta line plus one line per record.
    let jsonl = tel.export_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(
        lines[0].contains("\"rhythm-trace/v1\""),
        "bad meta line: {}",
        lines[0]
    );
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    let records: usize = tel
        .replicas
        .iter()
        .map(|r| r.events.len() + r.audit.len() + r.tail.len())
        .sum::<usize>()
        + tel.cluster_tail.len();
    assert_eq!(lines.len(), 1 + records);
    // The Chrome trace is one JSON document with the required envelope.
    let chrome = tel.chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":"));
}

/// The value-tree renderers the exports were built on before the
/// streaming writer: one `Value` per record, printed compact.
mod oracle {
    use super::*;

    fn push(v: &mut Value, key: &str, val: Value) {
        let Value::Object(pairs) = v else {
            unreachable!()
        };
        pairs.push((key.into(), val));
    }

    fn event(ev: &Event, replica: usize) -> Value {
        let mut v =
            json!({"type": "event", "replica": replica, "t_ns": ev.t_ns, "kind": ev.kind.name()});
        match ev.kind {
            EventKind::RequestAdmitted => {}
            EventKind::RequestCompleted { latency_us } => {
                push(&mut v, "latency_us", json!(latency_us))
            }
            EventKind::BeAdmitted { machine, instance } => {
                push(&mut v, "machine", json!(machine));
                push(&mut v, "instance", json!(instance));
            }
            EventKind::BeKilled {
                machine,
                instance,
                progress_pct,
            } => {
                push(&mut v, "machine", json!(machine));
                push(&mut v, "instance", json!(instance));
                push(&mut v, "progress_pct", json!(progress_pct));
            }
            EventKind::Action {
                machine,
                action,
                load_pm,
                slack_pm,
            } => {
                push(&mut v, "machine", json!(machine));
                push(&mut v, "action", json!(action.name()));
                push(&mut v, "load_pm", json!(load_pm));
                push(&mut v, "slack_pm", json!(slack_pm));
            }
            EventKind::Adjust {
                machine,
                kind,
                value,
            } => {
                push(&mut v, "machine", json!(machine));
                push(&mut v, "dimension", json!(kind.name()));
                push(&mut v, "value", json!(value));
            }
            EventKind::Epoch { epoch } => push(&mut v, "epoch", json!(epoch)),
        }
        v
    }

    fn be(s: &BeSnapshot) -> Value {
        json!({"instances": s.instances, "running": s.running, "cores": s.cores,
               "llc_ways": s.llc_ways, "freq_mhz": s.freq_mhz, "net_mbps": s.net_mbps})
    }

    fn audit(r: &AuditRecord, replica: usize) -> Value {
        let mut v = json!({"type": "audit", "replica": replica, "t_s": r.t_s, "machine": r.machine,
            "pod": r.pod, "action": r.action.name(), "trigger": r.trigger.name(), "load": r.load,
            "loadlimit": r.loadlimit, "slack": r.slack, "slacklimit": r.slacklimit,
            "tail_ms": r.tail_ms, "sla_ms": r.sla_ms});
        push(&mut v, "hot_pod", json!(r.hot_pod));
        if r.hot_pod.is_some() {
            push(&mut v, "hot_pod_name", json!(r.hot_pod_name));
            push(&mut v, "hot_pod_ms", json!(r.hot_pod_ms));
        }
        push(&mut v, "before", be(&r.before));
        push(&mut v, "after", be(&r.after));
        v
    }

    fn tail(p: &TailPoint, scope: &str, replica: Option<usize>) -> Value {
        let mut v = json!({"type": "tail", "scope": scope});
        if let Some(r) = replica {
            push(&mut v, "replica", json!(r));
        }
        for (k, x) in [
            ("t_s", json!(p.t_s)),
            ("count", json!(p.count)),
            ("p50_ms", json!(p.p50_ms)),
            ("p95_ms", json!(p.p95_ms)),
            ("p99_ms", json!(p.p99_ms)),
            ("slack", json!(p.slack)),
        ] {
            push(&mut v, k, x);
        }
        v
    }

    fn cluster_event(e: &ClusterEvent) -> Value {
        let mut v =
            json!({"type": "cluster_event", "kind": e.kind.name(), "t_s": e.t_s, "job": e.job});
        if let Some(g) = e.gang {
            push(&mut v, "gang", json!(g));
        }
        v
    }

    pub fn jsonl(reps: &[TelemetryOutput], pts: &[TailPoint], events: &[ClusterEvent]) -> String {
        let mut lines = vec![json!({"type": "meta", "schema": "rhythm-trace/v1",
            "replicas": reps.len(), "events_recorded": reps.iter().map(|r| r.recorded).sum::<u64>(),
            "events_dropped": reps.iter().map(|r| r.dropped).sum::<u64>()})];
        for (idx, rep) in reps.iter().enumerate() {
            lines.extend(rep.events.iter().map(|e| event(e, idx)));
            lines.extend(rep.audit.iter().map(|r| audit(r, idx)));
            lines.extend(rep.tail.iter().map(|p| tail(p, "replica", Some(idx))));
        }
        lines.extend(pts.iter().map(|p| tail(p, "cluster", None)));
        lines.extend(events.iter().map(cluster_event));
        lines.iter().map(|v| v.to_json_string() + "\n").collect()
    }

    fn instant(name: &str, ts: f64, pid: usize, tid: u16, args: Value) -> Value {
        json!({"name": name, "ph": "i", "s": "t", "ts": ts, "pid": pid, "tid": tid, "args": args})
    }

    fn chrome_event(ev: &Event, pid: usize) -> Option<Value> {
        let ts = ev.t_ns as f64 / 1000.0;
        Some(match ev.kind {
            EventKind::RequestAdmitted | EventKind::RequestCompleted { .. } => return None,
            EventKind::BeAdmitted { machine, instance } => instant(
                "be_admitted",
                ts,
                pid,
                machine,
                json!({"instance": instance}),
            ),
            EventKind::BeKilled {
                machine,
                instance,
                progress_pct,
            } => instant(
                "be_killed",
                ts,
                pid,
                machine,
                json!({"instance": instance, "progress_pct": progress_pct}),
            ),
            EventKind::Action {
                machine,
                action,
                load_pm,
                slack_pm,
            } => instant(
                action.name(),
                ts,
                pid,
                machine,
                json!({"load": load_pm as f64 / 1000.0, "slack": slack_pm as f64 / 1000.0}),
            ),
            EventKind::Adjust {
                machine,
                kind,
                value,
            } => instant(kind.name(), ts, pid, machine, json!({"value": value})),
            EventKind::Epoch { epoch } => instant("epoch", ts, pid, 0, json!({"epoch": epoch})),
        })
    }

    pub fn chrome(reps: &[TelemetryOutput]) -> String {
        let mut entries = Vec::new();
        for (idx, rep) in reps.iter().enumerate() {
            entries.push(json!({"name": "process_name", "ph": "M", "pid": idx,
                "args": json!({"name": format!("replica {idx}")})}));
            entries.extend(rep.events.iter().filter_map(|e| chrome_event(e, idx)));
            for p in &rep.tail {
                entries.push(
                    json!({"name": "tail_ms", "ph": "C", "ts": p.t_s * 1e6, "pid": idx,
                    "args": json!({"p95": p.p95_ms, "p99": p.p99_ms})}),
                );
                entries.push(
                    json!({"name": "slack", "ph": "C", "ts": p.t_s * 1e6, "pid": idx,
                    "args": json!({"slack": p.slack})}),
                );
            }
        }
        json!({"traceEvents": Value::Array(entries), "displayTimeUnit": "ms"}).to_json_string()
    }
}

/// Pod names built from fragments that exercise every escape arm.
fn name() -> impl Strategy<Value = String> {
    const FRAGMENTS: [&str; 10] = [
        "front",
        "\"",
        "\\",
        "\n",
        "\u{1}",
        "\r\t",
        "\u{1f}\u{7f}",
        "é→",
        "search-2",
        " ",
    ];
    prop::collection::vec(0..FRAGMENTS.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// Floats, a third of them special: NaN, ±inf, −0.0, subnormal, extremes.
fn float() -> impl Strategy<Value = f64> {
    (0usize..15, any::<u64>()).prop_map(|(k, bits)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::from_bits(1 + bits % 0x000F_FFFF_FFFF_FFFF),
        5 => f64::MAX,
        6 => f64::MIN,
        7 => f64::from_bits(bits),
        _ => (bits % 4_000_001) as f64 / 1000.0 - 2000.0,
    })
}

fn big_u64() -> impl Strategy<Value = u64> {
    (0usize..4, any::<u64>()).prop_map(|(k, x)| [u64::MAX, 0, x, x % 1000][k])
}

fn event() -> impl Strategy<Value = Event> {
    (big_u64(), 0usize..7, any::<u64>(), 0usize..4).prop_map(|(t_ns, k, b, extreme)| {
        let machine = b as u16;
        let instance = (b >> 16) as u32;
        let wide = (b >> 8) as i32;
        let kind = match k {
            0 => EventKind::RequestAdmitted,
            1 => EventKind::RequestCompleted {
                latency_us: instance,
            },
            2 => EventKind::BeAdmitted { machine, instance },
            3 => EventKind::BeKilled {
                machine,
                instance,
                progress_pct: (b >> 48) as u8,
            },
            4 => EventKind::Action {
                machine,
                action: ActionCode::from_severity((b % 5) as u8),
                load_pm: (b >> 24) as u16,
                slack_pm: if extreme == 0 {
                    i16::MIN
                } else {
                    (b >> 40) as i16
                },
            },
            5 => EventKind::Adjust {
                machine,
                kind: [
                    AdjustKind::BeInstances,
                    AdjustKind::BeCores,
                    AdjustKind::BeLlcWays,
                    AdjustKind::BeFreqMhz,
                    AdjustKind::BeNetMbps,
                ][(b % 5) as usize],
                value: if extreme == 0 { i16::MIN as i32 } else { wide },
            },
            _ => EventKind::Epoch { epoch: instance },
        };
        Event { t_ns, kind }
    })
}

fn be_snapshot() -> impl Strategy<Value = BeSnapshot> {
    (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(instances, running, b)| BeSnapshot {
        instances,
        running,
        cores: b as u32,
        llc_ways: (b >> 8) as u32,
        freq_mhz: (b >> 32) as u32,
        net_mbps: (b >> 40) as u32,
    })
}

fn audit_record() -> impl Strategy<Value = AuditRecord> {
    let floats = (
        float(),
        float(),
        float(),
        float(),
        (float(), float(), float()),
        float(),
    );
    let rest = (
        any::<u32>(),
        name(),
        any::<u64>(),
        prop::option::of(any::<u32>()),
        name(),
    );
    (floats, rest, be_snapshot(), be_snapshot()).prop_map(|(floats, rest, before, after)| {
        let (t_s, load, loadlimit, slack, (slacklimit, tail_ms, sla_ms), hot_pod_ms) = floats;
        let (machine, pod, b, hot_pod, hot_pod_name) = rest;
        AuditRecord {
            t_s,
            machine,
            pod,
            action: ActionCode::from_severity((b % 5) as u8),
            trigger: [
                Trigger::SlaViolated,
                Trigger::LoadAboveLimit,
                Trigger::SlackBelowHalfLimit,
                Trigger::SlackBelowLimit,
                Trigger::ComfortableSlack,
            ][(b >> 8) as usize % 5],
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
        }
    })
}

fn tail_point() -> impl Strategy<Value = TailPoint> {
    (float(), big_u64(), float(), float(), float(), float()).prop_map(
        |(t_s, count, p50_ms, p95_ms, p99_ms, slack)| TailPoint {
            t_s,
            count,
            p50_ms,
            p95_ms,
            p99_ms,
            slack,
        },
    )
}

fn cluster_event() -> impl Strategy<Value = ClusterEvent> {
    (
        float(),
        0usize..6,
        big_u64(),
        prop::option::of(any::<u32>()),
    )
        .prop_map(|(t_s, k, job, gang)| {
            let kind = [
                ClusterEventKind::GangFormed,
                ClusterEventKind::GangAborted,
                ClusterEventKind::DeadlineMiss,
                ClusterEventKind::MachineDown,
                ClusterEventKind::MachineUp,
                ClusterEventKind::FaultInjected,
            ][k];
            ClusterEvent {
                t_s,
                kind,
                job,
                gang,
            }
        })
}

fn replica() -> impl Strategy<Value = TelemetryOutput> {
    (
        prop::collection::vec(event(), 0..12),
        prop::collection::vec(audit_record(), 0..4),
        prop::collection::vec(tail_point(), 0..4),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(events, audit, tail, recorded, dropped)| TelemetryOutput {
            pods: Vec::new(),
            events,
            recorded: u64::from(recorded),
            dropped: u64::from(dropped),
            audit,
            tail,
        })
}

proptest! {
    #[test]
    fn streaming_exports_match_the_value_tree_oracle(
        reps in prop::collection::vec(replica(), 0..4),
        cluster_tail in prop::collection::vec(tail_point(), 0..4),
        events in prop::collection::vec(cluster_event(), 0..6),
    ) {
        prop_assert_eq!(
            export_jsonl_with_events(&reps, &cluster_tail, &events),
            oracle::jsonl(&reps, &cluster_tail, &events)
        );
        prop_assert_eq!(chrome_trace(&reps), oracle::chrome(&reps));
    }
}
