//! Streaming tail timelines: epoch-aligned p50/p95/p99 + slack series
//! built on the [`LatencyHistogram`] sketch.
//!
//! Each engine keeps one [`TailSeries`]. Latencies stream into the
//! current window; at every controller period (the cluster epoch) the
//! window is closed into a [`TailPoint`] and kept around as
//! `last_window` so the cluster runner can merge the per-engine sketches
//! in fixed replica order at the barrier — making the cluster-wide
//! series bit-identical for any worker-thread count.

use rhythm_sim::LatencyHistogram;

/// One closed window of the tail timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailPoint {
    /// Virtual time of the window close, in seconds.
    pub t_s: f64,
    /// Requests completed inside the window.
    pub count: u64,
    /// Median latency in ms (0 for an empty window).
    pub p50_ms: f64,
    /// 95th-percentile latency in ms.
    pub p95_ms: f64,
    /// 99th-percentile latency in ms.
    pub p99_ms: f64,
    /// Slack of the window's p99 against the SLA: `(SLA - p99) / SLA`.
    /// An empty window reports full slack (1.0).
    pub slack: f64,
}

impl TailPoint {
    /// Builds a point by summarising a (possibly empty) window sketch.
    pub fn from_window(hist: &LatencyHistogram, t_s: f64, sla_ms: f64) -> TailPoint {
        if hist.is_empty() {
            return TailPoint {
                t_s,
                count: 0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                slack: 1.0,
            };
        }
        let p99 = hist.quantile(0.99);
        TailPoint {
            t_s,
            count: hist.count(),
            p50_ms: hist.quantile(0.50),
            p95_ms: hist.quantile(0.95),
            p99_ms: p99,
            // No (finite) SLA means nothing to run out of: full slack.
            slack: if sla_ms.is_finite() && sla_ms > 0.0 {
                (sla_ms - p99) / sla_ms
            } else {
                1.0
            },
        }
    }
}

/// A streaming tail series: latencies go into the current window, which
/// [`TailSeries::tick`] closes into a point at every controller period.
#[derive(Clone, Debug)]
pub struct TailSeries {
    window: LatencyHistogram,
    /// The sketch of the most recently closed window, kept so a cluster
    /// merge can combine per-engine windows after the tick.
    last_window: LatencyHistogram,
    points: Vec<TailPoint>,
}

impl TailSeries {
    /// An empty series using the default sketch resolution.
    pub fn new() -> TailSeries {
        TailSeries {
            window: LatencyHistogram::new(),
            last_window: LatencyHistogram::new(),
            points: Vec::new(),
        }
    }

    /// Streams one end-to-end latency (ms) into the current window.
    pub fn record(&mut self, ms: f64) {
        self.window.record(ms);
    }

    /// [`TailSeries::record`] for a latency already placed in `bucket`
    /// by [`LatencyHistogram::locate`] on a histogram of the default
    /// layout.
    #[inline]
    pub fn record_located(&mut self, bucket: usize, ms: f64) {
        self.window.record_located(bucket, ms);
    }

    /// Closes the current window at virtual time `t_s`, appends its
    /// point, and retires the sketch into `last_window`.
    pub fn tick(&mut self, t_s: f64, sla_ms: f64) {
        self.points
            .push(TailPoint::from_window(&self.window, t_s, sla_ms));
        std::mem::swap(&mut self.window, &mut self.last_window);
        self.window.reset();
    }

    /// The sketch of the most recently closed window (for cross-engine
    /// merging at an epoch barrier).
    pub fn last_window(&self) -> &LatencyHistogram {
        &self.last_window
    }

    /// Points closed so far.
    pub fn points(&self) -> &[TailPoint] {
        &self.points
    }

    /// True if nothing was recorded or closed: no points and both
    /// window sketches empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty() && self.window.is_empty() && self.last_window.is_empty()
    }

    /// Consumes the series into its points.
    pub fn into_points(self) -> Vec<TailPoint> {
        self.points
    }
}

impl Default for TailSeries {
    fn default() -> Self {
        TailSeries::new()
    }
}

impl rhythm_snapshot::Snapshot for TailPoint {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let TailPoint {
            t_s,
            count,
            p50_ms,
            p95_ms,
            p99_ms,
            slack,
        } = *self;
        w.f64(t_s);
        w.u64(count);
        w.f64(p50_ms);
        w.f64(p95_ms);
        w.f64(p99_ms);
        w.f64(slack);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(TailPoint {
            t_s: r.f64()?,
            count: r.u64()?,
            p50_ms: r.f64()?,
            p95_ms: r.f64()?,
            p99_ms: r.f64()?,
            slack: r.f64()?,
        })
    }
}

impl rhythm_snapshot::Snapshot for TailSeries {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let TailSeries {
            window,
            last_window,
            points,
        } = self;
        window.encode(w);
        last_window.encode(w);
        points.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(TailSeries {
            window: rhythm_snapshot::Snapshot::decode(r)?,
            last_window: rhythm_snapshot::Snapshot::decode(r)?,
            points: rhythm_snapshot::Snapshot::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reports_full_slack() {
        let mut s = TailSeries::new();
        s.tick(2.0, 100.0);
        let p = s.points()[0];
        assert_eq!(p.count, 0);
        assert_eq!(p.p99_ms, 0.0);
        assert_eq!(p.slack, 1.0);
    }

    #[test]
    fn windows_are_disjoint() {
        let mut s = TailSeries::new();
        for _ in 0..100 {
            s.record(10.0);
        }
        s.tick(2.0, 100.0);
        for _ in 0..100 {
            s.record(50.0);
        }
        s.tick(4.0, 100.0);
        let pts = s.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].count, 100);
        assert_eq!(pts[1].count, 100);
        // Each window only sees its own latencies (1% sketch error).
        assert!((pts[0].p99_ms - 10.0).abs() / 10.0 < 0.02, "{:?}", pts[0]);
        assert!((pts[1].p99_ms - 50.0).abs() / 50.0 < 0.02, "{:?}", pts[1]);
        assert!(pts[0].slack > pts[1].slack);
    }

    #[test]
    fn last_window_holds_retired_sketch() {
        let mut s = TailSeries::new();
        for _ in 0..10 {
            s.record(25.0);
        }
        s.tick(2.0, 100.0);
        assert_eq!(s.last_window().count(), 10);
        // A second, empty tick retires an empty window.
        s.tick(4.0, 100.0);
        assert_eq!(s.last_window().count(), 0);
    }

    #[test]
    fn negative_slack_when_tail_beyond_sla() {
        let mut s = TailSeries::new();
        for _ in 0..10 {
            s.record(200.0);
        }
        s.tick(2.0, 100.0);
        assert!(s.points()[0].slack < 0.0);
    }

    #[test]
    fn snapshot_round_trip_keeps_open_window_and_points() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut s = TailSeries::new();
        for _ in 0..50 {
            s.record(10.0);
        }
        s.tick(2.0, 100.0);
        for _ in 0..7 {
            s.record(42.0);
        }
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = TailSeries::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.points(), s.points());
        assert_eq!(back.last_window().count(), 50);
        // The open window resumes mid-stream: closing it sees the 7
        // latencies recorded before the snapshot.
        back.tick(4.0, 100.0);
        assert_eq!(back.points()[1].count, 7);
        // Re-encode of the restored series is bit-identical.
        let mut w2 = Writer::new();
        let restored = TailSeries::decode(&mut Reader::new(&bytes)).unwrap();
        restored.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn json_scopes_replica_and_cluster() {
        let p = TailPoint {
            t_s: 2.0,
            count: 5,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            slack: 0.97,
        };
        let mut replicas = vec![crate::TelemetryOutput::default(); 4];
        replicas[3].tail.push(p);
        let jsonl = crate::export_jsonl(&replicas, &[p], &[]);
        let lines: Vec<&str> = jsonl.lines().collect();
        let (rep, clu) = (lines[1], lines[2]);
        assert!(rep.contains("\"scope\":\"replica\""), "{rep}");
        assert!(rep.contains("\"replica\":3"), "{rep}");
        assert!(clu.contains("\"scope\":\"cluster\""), "{clu}");
        assert!(!clu.contains("\"replica\""), "{clu}");
    }
}
