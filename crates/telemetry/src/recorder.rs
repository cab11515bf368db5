//! The flight recorder: a fixed-capacity ring of [`Event`]s, plus the
//! [`Telemetry`] bundle the engine embeds.

use crate::audit::AuditRecord;
use crate::event::{Event, EventKind};
use crate::export::TelemetryOutput;
use crate::tail::TailSeries;
use rhythm_sim::SimTime;

/// Default ring capacity: 64 Ki events × 16 bytes = 1 MiB.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// What to collect during a run: nothing (the default), or the flight
/// recorder, the decision audit trail and the epoch-aligned tail series
/// together. When off, the engine hot path pays exactly one predictable
/// branch per instrumentation point.
#[derive(Clone, Copy, Debug, Default)]
pub struct TelemetryConfig {
    /// Master switch. When false nothing is collected and
    /// `EngineOutput::telemetry` stays `None`.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig { enabled: false }
    }

    /// Recorder (default ring capacity) + audit trail + tail series.
    pub fn full() -> TelemetryConfig {
        TelemetryConfig { enabled: true }
    }
}

/// A fixed-capacity ring buffer of [`Event`]s.
///
/// The buffer is allocated once at construction; recording writes a
/// `Copy` event into a slot and never touches the heap. When the ring is
/// full the oldest event is overwritten (and counted as dropped) — a
/// flight recorder keeps the *recent* past, which is what post-mortems
/// need.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    enabled: bool,
    buf: Vec<Event>,
    cap: usize,
    /// Total events ever recorded (slot of record `k` is `k % cap`).
    seq: u64,
    /// The slot the next record goes to: `seq % cap`, kept as a cursor
    /// so recording divides by nothing.
    // lint:allow(S02) -- derived: decode recomputes it as seq % cap
    head: usize,
}

impl FlightRecorder {
    /// An enabled recorder holding up to `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            enabled: true,
            buf: Vec::with_capacity(cap),
            cap,
            seq: 0,
            head: 0,
        }
    }

    /// A recorder that ignores every record call (no allocation).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder {
            enabled: false,
            buf: Vec::new(),
            cap: 1,
            seq: 0,
            head: 0,
        }
    }

    /// True if record calls are stored.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event. The disabled fast path is a single branch.
    #[inline]
    pub fn record(&mut self, t: SimTime, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let ev = Event {
            t_ns: t.as_nanos(),
            kind,
        };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.seq += 1;
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<Event> {
        if self.buf.len() < self.cap {
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.seq - self.buf.len() as u64
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

// The wire keeps the four-field layout `(enabled, ring_capacity,
// audit, tail)`; the capacity is the default and both switches follow
// `enabled`, so anything else is no preset's encoding.
impl rhythm_snapshot::Snapshot for TelemetryConfig {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.bool(self.enabled);
        w.u64(DEFAULT_RING_CAPACITY as u64);
        w.bool(self.enabled);
        w.bool(self.enabled);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let enabled = r.bool()?;
        let (cap, audit, tail) = (r.u64()?, r.bool()?, r.bool()?);
        if cap != DEFAULT_RING_CAPACITY as u64 || audit != enabled || tail != enabled {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                "telemetry config (enabled {enabled}, ring {cap}, audit {audit}, tail {tail}) \
                 is neither preset"
            )));
        }
        Ok(TelemetryConfig { enabled })
    }
}

// The ring is serialised raw (slot order, not age order) together with
// `seq`, so a restored recorder that has already wrapped keeps writing
// into exactly the slot the straight-through run would have used — the
// byte-identity contract survives eviction. The slot count is not
// written: it is `min(seq, cap)` when enabled and 0 otherwise. Each
// slot's time is the zigzag varint of its (wrapping) difference from
// the previous slot's, the first from 0; slot order is time order
// except at the write cursor, where the difference goes negative once.
impl rhythm_snapshot::Snapshot for FlightRecorder {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.bool(self.enabled);
        w.u64(self.cap as u64);
        w.u64(self.seq);
        let mut prev = 0u64;
        for ev in &self.buf {
            w.ivarint(ev.t_ns.wrapping_sub(prev).cast_signed());
            prev = ev.t_ns;
            ev.kind.encode(w);
        }
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let enabled = r.bool()?;
        let cap = r.usize()?;
        let seq = r.u64()?;
        // No config builds a larger ring; refusing one here also keeps
        // the reservation below bounded.
        if cap == 0 || cap > DEFAULT_RING_CAPACITY {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                "flight recorder capacity {cap} is outside 1..={DEFAULT_RING_CAPACITY}"
            )));
        }
        let held = if enabled {
            usize::try_from(seq).map_or(cap, |seq| seq.min(cap))
        } else {
            0
        };
        // Each slot takes a time byte and a tag byte at least.
        if held.saturating_mul(2) > r.remaining() {
            return Err(rhythm_snapshot::SnapshotError::Truncated);
        }
        let mut buf = Vec::with_capacity(if enabled { cap } else { 0 });
        let mut prev = 0u64;
        for _ in 0..held {
            let t_ns = prev.wrapping_add(r.ivarint()?.cast_unsigned());
            prev = t_ns;
            buf.push(Event {
                t_ns,
                kind: rhythm_snapshot::Snapshot::decode(r)?,
            });
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below `cap`, a `usize`"
        )]
        Ok(FlightRecorder {
            enabled,
            buf,
            cap,
            seq,
            head: (seq % cap as u64) as usize,
        })
    }
}

impl rhythm_snapshot::Snapshot for Telemetry {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        self.cfg.encode(w);
        self.recorder.encode(w);
        self.audit.encode(w);
        self.tail.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let t = Telemetry {
            cfg: rhythm_snapshot::Snapshot::decode(r)?,
            recorder: rhythm_snapshot::Snapshot::decode(r)?,
            audit: rhythm_snapshot::Snapshot::decode(r)?,
            tail: rhythm_snapshot::Snapshot::decode(r)?,
        };
        let contradiction = if t.recorder.is_enabled() != t.cfg.enabled {
            "flight recorder on/off differs from the config"
        } else if t.recorder.is_enabled() && t.recorder.capacity() != DEFAULT_RING_CAPACITY {
            "flight recorder capacity is not the default"
        } else if !t.cfg.enabled && !t.audit.is_empty() {
            "disabled telemetry holds audit records"
        } else if !t.cfg.enabled && !t.tail.is_empty() {
            "disabled telemetry holds tail data"
        } else {
            return Ok(t);
        };
        Err(rhythm_snapshot::SnapshotError::Corrupt(
            contradiction.into(),
        ))
    }
}

/// The per-engine telemetry bundle: recorder + audit trail + tail
/// series. The engine owns one and threads it through its event
/// handlers; [`Telemetry::into_output`] freezes it into the run output.
#[derive(Clone, Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// The flight recorder (hot-path instrumentation writes here).
    pub recorder: FlightRecorder,
    /// The decision audit trail, in tick order.
    pub audit: Vec<AuditRecord>,
    /// The epoch-aligned tail series.
    pub tail: TailSeries,
}

impl Telemetry {
    /// Builds the bundle for a config.
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            recorder: if cfg.enabled {
                FlightRecorder::new(DEFAULT_RING_CAPACITY)
            } else {
                FlightRecorder::disabled()
            },
            audit: Vec::new(),
            tail: TailSeries::new(),
            cfg,
        }
    }

    /// Master switch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Feeds one end-to-end latency, already placed in `bucket` by
    /// `LatencyHistogram::locate` on a histogram of the default layout,
    /// into the current tail window.
    #[inline]
    pub fn record_latency_located(&mut self, bucket: usize, ms: f64) {
        if self.cfg.enabled {
            self.tail.record_located(bucket, ms);
        }
    }

    /// Freezes the bundle into a run output (`None` when disabled).
    /// `pods` maps machine indices to Servpod names for exports.
    pub fn into_output(self, pods: Vec<String>) -> Option<TelemetryOutput> {
        if !self.cfg.enabled {
            return None;
        }
        Some(TelemetryOutput {
            pods,
            recorded: self.recorder.recorded(),
            dropped: self.recorder.dropped(),
            events: self.recorder.events(),
            audit: self.audit,
            tail: self.tail.into_points(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = FlightRecorder::disabled();
        for i in 0..100 {
            r.record(at(i), EventKind::RequestAdmitted);
        }
        assert_eq!(r.recorded(), 0);
        assert!(r.is_empty());
        assert_eq!(r.events(), Vec::new());
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10u32 {
            r.record(at(u64::from(i)), EventKind::Epoch { epoch: i });
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        let times: Vec<u64> = evs.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "oldest evicted, order kept");
    }

    #[test]
    fn partial_ring_returns_everything() {
        let mut r = FlightRecorder::new(8);
        for i in 0..3u64 {
            r.record(at(i), EventKind::RequestAdmitted);
        }
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        r.record(at(1), EventKind::RequestAdmitted);
        r.record(at(2), EventKind::RequestAdmitted);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].t_ns, 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_wrapped_ring() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut r = FlightRecorder::new(4);
        for i in 0..10u32 {
            r.record(at(u64::from(i)), EventKind::Epoch { epoch: i });
        }
        let mut w = Writer::new();
        r.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = FlightRecorder::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.recorded(), 10);
        assert_eq!(back.events(), r.events());
        // Continuation writes land in the same slots as the original.
        back.record(at(10), EventKind::RequestAdmitted);
        r.record(at(10), EventKind::RequestAdmitted);
        assert_eq!(back.events(), r.events());
        let mut wa = Writer::new();
        let mut wb = Writer::new();
        back.encode(&mut wa);
        r.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    /// The write cursor is `seq % cap` while the ring fills, across
    /// every wrap, and in a recorder decoded at any point.
    #[test]
    fn head_is_seq_mod_cap_across_wrap_and_decode() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut r = FlightRecorder::new(5);
        for i in 0..13u32 {
            assert_eq!(r.head as u64, r.seq % r.cap as u64);
            let mut w = Writer::new();
            r.encode(&mut w);
            let back = FlightRecorder::decode(&mut Reader::new(&w.into_bytes())).unwrap();
            assert_eq!(back.head, r.head, "after {i} records");
            r.record(at(u64::from(i)), EventKind::Epoch { epoch: i });
        }
        assert_eq!(r.head, 3);
    }

    #[test]
    fn snapshot_rejects_inconsistent_ring() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let mut r = FlightRecorder::new(4);
        r.record(at(1), EventKind::RequestAdmitted);
        let mut w = Writer::new();
        r.encode(&mut w);
        let mut bytes = w.into_bytes();
        // seq claims 3 events recorded, but only 1 is present.
        bytes[9..17].copy_from_slice(&3u64.to_le_bytes());
        let decoded = FlightRecorder::decode(&mut Reader::new(&bytes));
        assert_eq!(decoded.err(), Some(SnapshotError::Truncated));
    }

    /// A slot costs its time gap and its payload, not 16 bytes: the
    /// gaps of a steady event stream take a byte or two.
    #[test]
    fn ring_times_are_delta_coded_across_the_cursor() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut r = FlightRecorder::new(8);
        for i in 0..13u64 {
            r.record(at(1_000_000 + 50 * i), EventKind::RequestAdmitted);
        }
        let mut w = Writer::new();
        r.encode(&mut w);
        let bytes = w.into_bytes();
        // Header, the first slot's absolute time (3 bytes), the drop
        // at the cursor (2 bytes), six 50 ns gaps (a byte each) and the
        // 8 tags.
        assert_eq!(bytes.len(), 17 + 3 + 2 + 6 + 8);
        let back = FlightRecorder::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.events(), r.events());
    }

    #[test]
    fn telemetry_snapshot_round_trips() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut t = Telemetry::new(TelemetryConfig::full());
        t.recorder.record(at(5), EventKind::RequestAdmitted);
        let (bucket, ms) = rhythm_sim::LatencyHistogram::new().locate(12.0);
        t.record_latency_located(bucket, ms);
        t.tail.tick(2.0, 100.0);
        let mut w = Writer::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        let back = Telemetry::decode(&mut Reader::new(&bytes)).unwrap();
        assert!(back.enabled());
        let out = back.into_output(vec!["front".into()]).unwrap();
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.tail.len(), 1);
    }

    /// Both presets keep the four-field wire layout `(enabled: bool,
    /// ring_capacity: u64, audit: bool, tail: bool)`.
    #[test]
    fn config_presets_encode_four_fields() {
        use rhythm_snapshot::{Snapshot, Writer};
        let bytes = |c: TelemetryConfig| {
            let mut w = Writer::new();
            c.encode(&mut w);
            w.into_bytes()
        };
        let cap = 65_536u64.to_le_bytes();
        assert_eq!(
            bytes(TelemetryConfig::disabled()),
            [&[0][..], &cap, &[0, 0]].concat()
        );
        assert_eq!(
            bytes(TelemetryConfig::full()),
            [&[1][..], &cap, &[1, 1]].concat()
        );
    }

    #[test]
    fn disabled_config_yields_no_output() {
        let t = Telemetry::new(TelemetryConfig::disabled());
        assert!(!t.enabled());
        assert!(t.into_output(vec!["a".into()]).is_none());
    }

    #[test]
    fn full_config_round_trips_into_output() {
        let mut t = Telemetry::new(TelemetryConfig::full());
        t.recorder.record(at(5), EventKind::RequestAdmitted);
        let (bucket, ms) = rhythm_sim::LatencyHistogram::new().locate(12.0);
        t.record_latency_located(bucket, ms);
        t.tail.tick(2.0, 100.0);
        let out = t.into_output(vec!["front".into()]).unwrap();
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.recorded, 1);
        assert_eq!(out.tail.len(), 1);
        assert_eq!(out.pods, vec!["front".to_string()]);
    }
}
