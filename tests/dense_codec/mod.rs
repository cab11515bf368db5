//! The dense engine-stream encoders that the compact wire format
//! replaced, kept as the oracle for it: `rhythm-sim/v1` histograms and
//! tail windows and the `rhythm-telemetry/v2` flight recorder.
//!
//! A v1 histogram writes every bucket from 0 to its last stored one as
//! a `u64`, leading zeros included; a v1 tail window writes each slot's
//! epoch (`u64::MAX` when empty) and that slot's samples as a v1
//! histogram; a v2 recorder writes its slot count and each slot as a
//! `u64` time and fixed-width payload fields. Each encoder reads only
//! the public state of a decoded value, so "decode the compact form,
//! re-encode it here" reproduces the dense bytes of the same state.
//!
//! [`transcode_engine_stream`] applies them to a whole engine stream,
//! and [`DENSE_SCHEMAS`] are the schema strings that described them.

#![allow(dead_code, reason = "each test binary uses a different part")]

use rhythm::sim::{LatencyHistogram, TailWindow};
use rhythm::snapshot::{Reader, Snapshot, Writer};
use rhythm::telemetry::{EventKind, FlightRecorder, TelemetryConfig};
use std::collections::VecDeque;

/// The schema strings of the dense layouts, by crate.
pub const DENSE_SCHEMAS: [(&str, &str); 2] = [
    (
        "rhythm-sim",
        "rhythm-sim/v1: \
         SimTime=u64ns SimDuration=u64ns \
         SimRng=(seed:u64,xoshiro256++:[u64;4]) \
         Calendar=(now:u64,next_seq:u64,entries:[(at:u64,seq:u64,event)] sorted) \
         Arena=(slots:[(gen:u32,value:Option)],free:[u32]) Key=u64 \
         LatencyHistogram=(log_gamma:f64,min_value:f64,counts:[u64],total:u64,sum:f64,max:f64) \
         OnlineStats=(n:u64,mean:f64,m2:f64,min:f64,max:f64) \
         TailWindow=(slot_len:u64ns,slots:[(epoch:u64,hist)])",
    ),
    (
        "rhythm-telemetry",
        "rhythm-telemetry/v2: \
         Event=(t_ns:u64,kind:tagged) EventKind=tag:u8+payload ActionCode=severity:u8 \
         AdjustKind=tag:u8 BeSnapshot=6xu32 Trigger=tag:u8 \
         AuditRecord=(t_s,machine,pod,action,trigger,load,loadlimit,slack,slacklimit,\
         tail_ms,sla_ms,hot_pod:Option<u32>,hot_pod_name,hot_pod_ms,before,after) \
         TailPoint=(t_s:f64,count:u64,p50:f64,p95:f64,p99:f64,slack:f64) \
         TailSeries=(window,last_window,points:[TailPoint]) \
         TelemetryConfig=(enabled:bool,ring_capacity:u64,audit:bool,tail:bool) \
         FlightRecorder=(enabled:bool,cap:u64,seq:u64,buf:[Event] raw slot order) \
         Telemetry=(cfg,recorder,audit:[AuditRecord],tail) \
         ClusterEventKind=tag:u8 ClusterEvent=(t_s:f64,kind,job:u64,gang:Option<u32>)",
    ),
];

/// The 16-byte layout (`log_gamma`, `min_value`) that opens every
/// histogram in both forms.
pub fn histogram_layout() -> Vec<u8> {
    let mut w = Writer::new();
    LatencyHistogram::new().encode(&mut w);
    w.into_bytes()[..16].to_vec()
}

/// A v1 histogram: the layout, the bucket count from 0, every bucket.
pub fn histogram(h: &LatencyHistogram, w: &mut Writer) {
    w.raw(&histogram_layout());
    let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
    let end = buckets.last().map_or(0, |&(b, _)| b + 1);
    w.u64(end as u64);
    let mut next = buckets.iter().peekable();
    for i in 0..end {
        match next.next_if(|&&(b, _)| b == i) {
            Some(&(_, c)) => w.u64(c),
            None => w.u64(0),
        }
    }
    w.u64(h.count());
    w.f64(h.sum());
    w.f64(h.max());
}

/// A v1 tail window: slot length, slot count, each slot's epoch and
/// v1 histogram.
pub fn tail_window(t: &TailWindow, w: &mut Writer) {
    let (slot_len, slots) = t.slot_histograms();
    let slots: Vec<_> = slots.collect();
    slot_len.encode(w);
    w.u64(slots.len() as u64);
    for (epoch, hist) in &slots {
        w.u64(epoch.unwrap_or(u64::MAX));
        histogram(hist, w);
    }
}

/// A v2 event payload: the tag and fixed-width fields.
pub fn event_kind(k: &EventKind, w: &mut Writer) {
    match *k {
        EventKind::RequestAdmitted => w.u8(0),
        EventKind::RequestCompleted { latency_us } => {
            w.u8(1);
            w.u32(latency_us);
        }
        EventKind::BeAdmitted { machine, instance } => {
            w.u8(2);
            w.u16(machine);
            w.u32(instance);
        }
        EventKind::BeKilled {
            machine,
            instance,
            progress_pct,
        } => {
            w.u8(3);
            w.u16(machine);
            w.u32(instance);
            w.u8(progress_pct);
        }
        EventKind::Action {
            machine,
            action,
            load_pm,
            slack_pm,
        } => {
            w.u8(4);
            w.u16(machine);
            w.u8(action.severity());
            w.u16(load_pm);
            w.i16(slack_pm);
        }
        EventKind::Adjust {
            machine,
            kind,
            value,
        } => {
            w.u8(5);
            w.u16(machine);
            kind.encode(w);
            w.i32(value);
        }
        EventKind::Epoch { epoch } => {
            w.u8(6);
            w.u32(epoch);
        }
    }
}

/// A v2 flight recorder: on/off, capacity, `seq`, then the held events
/// in raw slot order with a `u64` count.
pub fn recorder(r: &FlightRecorder, w: &mut Writer) {
    let events = r.events();
    let cap = r.capacity();
    // `events()` is oldest first; a full ring's oldest event sits at the
    // write cursor `seq % cap`, so slot order starts `cursor` events
    // before the end of the age order.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below `cap`, a `usize`"
    )]
    let cursor = (r.recorded() % cap as u64) as usize;
    let split = if events.len() < cap {
        0
    } else {
        events.len() - cursor
    };
    w.bool(r.is_enabled());
    w.u64(cap as u64);
    w.u64(r.recorded());
    w.u64(events.len() as u64);
    for ev in events[split..].iter().chain(&events[..split]) {
        w.u64(ev.t_ns);
        event_kind(&ev.kind, w);
    }
}

/// One engine stream rewritten in the dense form: every histogram, the
/// tail window and the flight recorder are decoded from the compact
/// stream by the production decoders and re-encoded by the encoders
/// above; every other byte is copied.
///
/// Histograms are found by their layout; the tail window (ten
/// one-second slots) is the place before the first histogram where a
/// window, then the arrival ring (`VecDeque<(u64, u32)>`), decode and
/// end exactly at that histogram; the recorder follows the telemetry
/// config. Each span is
/// decoded in full, so a wrong guess fails the decode or the pinned
/// fingerprints, never passes by accident.
pub fn transcode_engine_stream(stream: &[u8], telemetry: TelemetryConfig) -> Vec<u8> {
    let find_all = |needle: &[u8]| -> Vec<usize> {
        stream
            .windows(needle.len())
            .enumerate()
            .filter(|(_, w)| *w == needle)
            .map(|(i, _)| i)
            .collect()
    };
    let decode_at = |at: usize, f: &mut dyn FnMut(&mut Reader<'_>)| -> usize {
        let mut r = Reader::new(&stream[at..]);
        f(&mut r);
        stream.len() - r.remaining()
    };
    // (start, end, dense bytes), ascending.
    let mut spans: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    let hists = find_all(&histogram_layout());
    let first_hist = *hists.first().expect("an engine stream holds histograms");
    for &at in &hists {
        let mut dense = Writer::new();
        let end = decode_at(at, &mut |r| {
            histogram(&LatencyHistogram::decode(r).expect("histogram"), &mut dense);
        });
        spans.push((at, end, dense.into_bytes()));
    }
    // The engine's window: ten slots of one second.
    let mut head = Writer::new();
    rhythm::sim::SimDuration::from_secs(1).encode(&mut head);
    head.varint(10);
    let window_at = find_all(&head.into_bytes())
        .into_iter()
        .filter(|&at| at < first_hist)
        .find(|&at| {
            let mut r = Reader::new(&stream[at..first_hist]);
            TailWindow::decode(&mut r).is_ok()
                && VecDeque::<(u64, u32)>::decode(&mut r).is_ok()
                && r.is_empty()
        })
        .expect("a tail window precedes the first histogram");
    let mut dense = Writer::new();
    let end = decode_at(window_at, &mut |r| {
        tail_window(&TailWindow::decode(r).expect("tail window"), &mut dense);
    });
    spans.push((window_at, end, dense.into_bytes()));
    let mut cfg = Writer::new();
    telemetry.encode(&mut cfg);
    let cfg = cfg.into_bytes();
    // The config, then the recorder's on/off byte and capacity: the
    // last such run in the stream (the audit trail, tail series and
    // audit cache follow it).
    let on = telemetry.enabled;
    let cap: u64 = if on { 65_536 } else { 1 };
    let needle = [&cfg[..], &[u8::from(on)], &cap.to_le_bytes()].concat();
    let rec_at = find_all(&needle)
        .into_iter()
        .rfind(|&at| at > first_hist)
        .expect("the telemetry config follows the histograms")
        + cfg.len();
    let mut dense = Writer::new();
    let end = decode_at(rec_at, &mut |r| {
        recorder(&FlightRecorder::decode(r).expect("recorder"), &mut dense);
    });
    spans.push((rec_at, end, dense.into_bytes()));
    spans.sort_by_key(|s| s.0);
    let mut out = Vec::with_capacity(stream.len() * 4);
    let mut cursor = 0;
    for (start, end, dense) in spans {
        assert!(start >= cursor, "spans overlap at {start}");
        out.extend_from_slice(&stream[cursor..start]);
        out.extend_from_slice(&dense);
        cursor = end;
    }
    out.extend_from_slice(&stream[cursor..]);
    out
}
