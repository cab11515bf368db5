//! Intra- and inter-Servpod causality pairing (§3.3).
//!
//! Processing the filtered event stream in timestamp order:
//!
//! * **IntraServpod causality** — a RECV happens-before a SEND sharing
//!   the same context identifier. Each SEND is matched with the earliest
//!   pending RECV of its context (FIFO, "with respect to their order of
//!   occurrence"), closing one *residence segment* whose duration counts
//!   toward the Servpod's sojourn.
//! * **InterServpod causality** — a SEND happens-before the RECV with
//!   the same message identifier on the neighbour Servpod. Request labels
//!   propagate along these edges, so every segment is attributed to the
//!   request that (FIFO-plausibly) caused it.
//!
//! Under non-blocking threads or persistent TCP connections the FIFO
//! matching can attribute a segment to the wrong request — exactly the
//! hazard the paper describes — but the *sum* (hence mean) of segment
//! durations per Servpod is invariant under any such permutation, which
//! is why the contribution analyzer consumes means (Equations 1-3).

use crate::capture::is_lc_program;
use crate::event::{ContextId, EventKind, MessageId, SysEvent};
use rhythm_sim::SimTime;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Result of pairing one event trace.
#[derive(Clone, Debug, Default)]
pub struct PairingOutput {
    /// Residence segments per Servpod: `(request label, duration ms)`.
    pub segments: BTreeMap<u32, Vec<(u64, f64)>>,
    /// Number of distinct requests observed entering the service.
    pub request_count: u64,
    /// SEND events with no pending RECV on their context (fan-out
    /// siblings produce these by construction).
    pub unmatched_sends: u64,
    /// RECV events left pending at the end of the trace.
    pub unmatched_recvs: u64,
    /// Events dropped by the context-identifier noise filter.
    pub filtered_noise: u64,
    /// One past the largest request label handed out (labels are dense
    /// from 0), so every segment's label is below it.
    pub labels: u64,
}

impl PairingOutput {
    /// Servpods that produced at least one segment.
    pub fn pods(&self) -> Vec<u32> {
        self.segments.keys().copied().collect()
    }

    /// Per-request sojourn times at `pod` (sum of the request's segments
    /// there, added in segment order), in request-label order. Requests
    /// that never visited the pod are absent.
    pub fn sojourns(&self, pod: u32) -> Vec<f64> {
        let Some(segs) = self.segments.get(&pod) else {
            return Vec::new();
        };
        let labels = usize::try_from(self.labels).expect("label count fits in memory");
        let mut per_request: Vec<Option<f64>> = vec![None; labels];
        for &(label, ms) in segs {
            *per_request[label as usize].get_or_insert(0.0) += ms;
        }
        per_request.into_iter().flatten().collect()
    }

    /// Mean sojourn time at `pod` in ms (0 if the pod was never visited).
    pub fn mean_sojourn(&self, pod: u32) -> f64 {
        let s = self.sojourns(pod);
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }

    /// Total residence time recorded at `pod` in ms.
    pub fn total_residence(&self, pod: u32) -> f64 {
        self.segments
            .get(&pod)
            .map(|v| v.iter().map(|&(_, ms)| ms).sum())
            .unwrap_or(0.0)
    }
}

/// A pending (unmatched) RECV on some context.
#[derive(Clone, Copy)]
struct PendingRecv {
    at: SimTime,
    label: u64,
}

/// A fixed multiplicative hasher (the FxHash step: rotate, xor, multiply
/// per word) for the pairing tables. Their keys are [`ContextId`] and
/// [`MessageId`], which hash as two packed `u64` words, and SipHash's
/// flood resistance buys nothing on a synthesized trace; on
/// `profile-tracer` std's SipHash made pairing about 1.8× slower than
/// this hasher.
#[derive(Default)]
struct MulHasher(u64);

impl MulHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One live id's queue: its oldest entry inline and, once a second
/// entry arrives, the index of the spill queue holding the rest.
struct Slot<V> {
    head: V,
    spill: Option<u32>,
}

/// FIFO queues keyed by id. The map holds only ids with something
/// queued, and a queue's head lives in the map value, so an id that
/// never holds two entries at once (the common case) never touches a
/// queue. Spill queues that empty go back to a free list, so long traces
/// reuse a small set of them.
struct SlotQueues<K, V> {
    // lint:allow(D01) -- lookup-only: reached only through entry(), never iterated, so hash order cannot reach the output
    slots: HashMap<K, Slot<V>, BuildHasherDefault<MulHasher>>,
    spills: Vec<VecDeque<V>>,
    free: Vec<u32>,
    /// Entries queued over all ids.
    len: usize,
}

impl<K: Eq + std::hash::Hash, V: Copy> SlotQueues<K, V> {
    fn new() -> Self {
        SlotQueues {
            slots: Default::default(),
            spills: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, key: K, v: V) {
        self.len += 1;
        let slot = match self.slots.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Slot {
                    head: v,
                    spill: None,
                });
                return;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        let spill = *slot.spill.get_or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| {
                self.spills.push(VecDeque::new());
                u32::try_from(self.spills.len() - 1).expect("fewer than 2^32 live ids")
            })
        });
        self.spills[spill as usize].push_back(v);
    }

    fn pop(&mut self, key: K) -> Option<V> {
        let Entry::Occupied(mut e) = self.slots.entry(key) else {
            return None;
        };
        self.len -= 1;
        let slot = e.get_mut();
        let Some(spill) = slot.spill else {
            return Some(e.remove().head);
        };
        let queue = &mut self.spills[spill as usize];
        // PANIC: a spill queue goes back to the free list as it empties.
        let next = queue.pop_front().expect("a spill queue holds an entry");
        if queue.is_empty() {
            slot.spill = None;
            self.free.push(spill);
        }
        Some(std::mem::replace(&mut slot.head, next))
    }
}

/// The §3.3 pairing engine.
///
/// A SEND addressed to the client hands its label to no one: no traced
/// host ever RECVs a message addressed to `client_ip`, and
/// [`EventCapture`](crate::EventCapture) never produces one. So the
/// pairer queues no in-flight label for it, and the pairing state stays
/// bounded by the requests in flight, not the length of the trace
/// ([`PairingStream::live_high_water`]). A trace that does RECV such a
/// message at a traced host finds no label for it and gives it a fresh
/// one.
pub struct Pairer {
    client_ip: u32,
}

impl Pairer {
    /// Creates a pairer; requests are recognized as *entering* the
    /// service when their RECV's sender is `client_ip`.
    pub fn new(client_ip: u32) -> Self {
        Pairer { client_ip }
    }

    /// Starts pairing a trace that arrives in pieces: feed its events in
    /// timestamp order ([`PairingStream::feed`]), then
    /// [`finish`](PairingStream::finish). The pieces
    /// [`EventCapture::release`](crate::EventCapture::release) hands out
    /// under its watermark rule are in that order.
    pub fn stream(&self) -> PairingStream {
        PairingStream {
            client_ip: self.client_ip,
            out: PairingOutput::default(),
            segments: Vec::new(),
            pending: SlotQueues::new(),
            in_flight: SlotQueues::new(),
            next_label: 0,
            live_high_water: 0,
        }
    }

    /// Pairs a timestamp-sorted event trace into per-Servpod, per-request
    /// residence segments.
    pub fn pair(&self, events: &[SysEvent]) -> PairingOutput {
        let mut stream = self.stream();
        for e in events {
            stream.feed(e);
        }
        stream.finish()
    }
}

/// The pairing state of a trace fed one event at a time
/// ([`Pairer::stream`]). Feeding a timestamp-sorted trace, in any split
/// into pieces, and finishing gives exactly what [`Pairer::pair`] gives
/// for the whole trace.
pub struct PairingStream {
    client_ip: u32,
    /// Counts; the segments are in `segments` until [`finish`].
    ///
    /// [`finish`]: PairingStream::finish
    out: PairingOutput,
    /// Residence segments per Servpod, Servpods in first-seen order.
    segments: Vec<(u32, Vec<(u64, f64)>)>,
    /// FIFO of pending RECVs per context (intra-Servpod causality).
    pending: SlotQueues<ContextId, PendingRecv>,
    /// FIFO of request labels per in-flight message identifier
    /// (inter-Servpod causality).
    in_flight: SlotQueues<MessageId, u64>,
    next_label: u64,
    live_high_water: usize,
}

impl PairingStream {
    /// Pairs the trace's next event. Events must come in timestamp
    /// order, ties in capture order.
    pub fn feed(&mut self, e: &SysEvent) {
        let out = &mut self.out;
        if !is_lc_program(e.ctx.program) {
            out.filtered_noise += 1;
            return;
        }
        match e.kind {
            EventKind::Accept | EventKind::Close => {
                // Request boundaries; labels are assigned at the entry
                // RECV which carries the client message identifier.
                return;
            }
            EventKind::Recv => {
                let label = if e.msg.sender_ip == self.client_ip {
                    let l = self.next_label;
                    self.next_label += 1;
                    out.request_count += 1;
                    l
                } else {
                    // Inherit from the matching SEND (FIFO per
                    // identifier: persistent connections share
                    // identifiers, so this can mis-attribute).
                    match self.in_flight.pop(e.msg) {
                        Some(l) => l,
                        None => {
                            // A reply/message we never saw sent (should
                            // not happen in a complete trace); treat as a
                            // fresh anonymous label.
                            let l = self.next_label;
                            self.next_label += 1;
                            l
                        }
                    }
                };
                self.pending.push(
                    e.ctx,
                    PendingRecv {
                        at: e.timestamp,
                        label,
                    },
                );
                out.unmatched_recvs += 1;
            }
            EventKind::Send => {
                let label = match self.pending.pop(e.ctx) {
                    Some(recv) => {
                        out.unmatched_recvs -= 1;
                        let pod = e.ctx.host_ip.saturating_sub(1);
                        let ms = e.timestamp.saturating_since(recv.at).as_millis_f64();
                        let at = match self.segments.iter().position(|s| s.0 == pod) {
                            Some(at) => at,
                            None => {
                                self.segments.push((pod, Vec::new()));
                                self.segments.len() - 1
                            }
                        };
                        self.segments[at].1.push((recv.label, ms));
                        recv.label
                    }
                    None => {
                        out.unmatched_sends += 1;
                        // Still propagate *a* label so the downstream RECV
                        // is not orphaned: use the most recent label
                        // (fan-out siblings share the parent's request).
                        let label = self.next_label.saturating_sub(1);
                        out.labels = out.labels.max(label + 1);
                        label
                    }
                };
                // Propagate the label to the receiving side, unless that
                // is the client, which is never traced (see [`Pairer`]).
                if e.msg.receiver_ip != self.client_ip {
                    self.in_flight.push(e.msg, label);
                }
            }
        }
        let live = self.pending.len + self.in_flight.len;
        self.live_high_water = self.live_high_water.max(live);
    }

    /// The most entries the pairing held at once: pending RECVs plus
    /// in-flight labels. A deterministic work counter of the trace fed so
    /// far; it grows with the requests in flight, not with the length of
    /// the trace.
    pub fn live_high_water(&self) -> usize {
        self.live_high_water
    }

    /// Ends the trace: the segments and counts of every event fed.
    pub fn finish(mut self) -> PairingOutput {
        self.out.labels = self.out.labels.max(self.next_label);
        self.out.segments = self.segments.into_iter().collect();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{chain_visit, CaptureConfig, EventCapture, VisitNode};
    use rhythm_sim::SimRng;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// A 3-pod chain request starting at `t0`, with per-pod work
    /// (pre/post around the downstream call).
    fn chain3(t0: u64) -> VisitNode {
        chain_visit(
            &[0, 1, 2],
            &[
                vec![(ms(t0), ms(t0 + 1)), (ms(t0 + 20), ms(t0 + 22))],
                vec![(ms(t0 + 1), ms(t0 + 5)), (ms(t0 + 15), ms(t0 + 20))],
                vec![(ms(t0 + 5), ms(t0 + 15))],
            ],
        )
    }

    fn capture(cfg: CaptureConfig, requests: &[VisitNode], seed: u64) -> Vec<SysEvent> {
        let mut cap = EventCapture::new(cfg, seed);
        for r in requests {
            cap.record_request(r);
        }
        cap.finish()
    }

    #[test]
    fn exact_sojourns_in_blocking_ephemeral_mode() {
        let cfg = CaptureConfig {
            noise_events_per_request: 0,
            ..CaptureConfig::default()
        };
        let events = capture(cfg, &[chain3(0), chain3(100)], 1);
        let out = Pairer::new(0).pair(&events);
        assert_eq!(out.request_count, 2);
        assert_eq!(out.unmatched_sends, 0);
        assert_eq!(out.unmatched_recvs, 0);
        assert_eq!(out.sojourns(0), vec![3.0, 3.0]);
        assert_eq!(out.sojourns(1), vec![9.0, 9.0]);
        assert_eq!(out.sojourns(2), vec![10.0, 10.0]);
    }

    #[test]
    fn noise_is_filtered_not_paired() {
        let cfg = CaptureConfig {
            noise_events_per_request: 40,
            ..CaptureConfig::default()
        };
        let events = capture(cfg, &[chain3(0)], 2);
        let out = Pairer::new(0).pair(&events);
        assert_eq!(out.filtered_noise, 40);
        assert_eq!(out.sojourns(0), vec![3.0]);
        assert_eq!(out.sojourns(1), vec![9.0]);
    }

    #[test]
    fn mean_sojourn_invariant_under_non_blocking_interleave() {
        // Two interleaved requests with *different* per-request sojourns
        // on one non-blocking thread: request A has a short pod-1 visit,
        // request B a long one, overlapping in time (Figure 5 scenario).
        let req_a = chain_visit(
            &[0, 1],
            &[
                vec![(ms(0), ms(1)), (ms(11), ms(12))],
                vec![(ms(1), ms(11))],
            ],
        );
        let req_b = chain_visit(
            &[0, 1],
            &[vec![(ms(2), ms(3)), (ms(7), ms(8))], vec![(ms(3), ms(7))]],
        );
        let cfg = CaptureConfig {
            non_blocking: true,
            noise_events_per_request: 0,
            ..CaptureConfig::default()
        };
        let events = capture(cfg, &[req_a.clone(), req_b.clone()], 3);
        let out = Pairer::new(0).pair(&events);
        // Ground truth means.
        let mut truth = std::collections::BTreeMap::new();
        req_a.accumulate_sojourns(&mut truth);
        req_b.accumulate_sojourns(&mut truth);
        for (pod, sojourns) in truth {
            let true_mean = sojourns.iter().sum::<f64>() / sojourns.len() as f64;
            let got = out.mean_sojourn(pod);
            assert!(
                (got - true_mean).abs() < 1e-9,
                "pod {pod}: mean {got} vs truth {true_mean} (the paper's §3.3 identity)"
            );
        }
    }

    #[test]
    fn mean_sojourn_invariant_under_persistent_connections() {
        // Many overlapping requests on persistent connections: individual
        // attribution may be wrong, mean must hold.
        let mut requests = Vec::new();
        let mut rng = SimRng::from_seed(99);
        let mut t = 0u64;
        for _ in 0..50 {
            t += rng.below(4);
            requests.push(chain3(t));
        }
        let cfg = CaptureConfig {
            persistent_connections: true,
            non_blocking: true,
            noise_events_per_request: 0,
            ..CaptureConfig::default()
        };
        let events = capture(cfg, &requests, 4);
        let out = Pairer::new(0).pair(&events);
        let mut truth = std::collections::BTreeMap::new();
        for r in &requests {
            r.accumulate_sojourns(&mut truth);
        }
        for (pod, sojourns) in truth {
            let true_total: f64 = sojourns.iter().sum();
            let got_total = out.total_residence(pod);
            assert!(
                (got_total - true_total).abs() < 1e-6,
                "pod {pod}: total residence {got_total} vs truth {true_total}"
            );
        }
        assert_eq!(out.request_count, 50);
    }

    #[test]
    fn fan_out_produces_unmatched_sibling_sends() {
        let fan = VisitNode {
            pod: 0,
            phases: vec![(ms(0), ms(1)), (ms(9), ms(10))],
            children: vec![
                VisitNode {
                    pod: 1,
                    phases: vec![(ms(1), ms(6))],
                    children: vec![],
                    parallel: false,
                },
                VisitNode {
                    pod: 2,
                    phases: vec![(ms(1), ms(9))],
                    children: vec![],
                    parallel: false,
                },
            ],
            parallel: true,
        };
        let cfg = CaptureConfig {
            noise_events_per_request: 0,
            ..CaptureConfig::default()
        };
        let events = capture(cfg, &[fan], 5);
        let out = Pairer::new(0).pair(&events);
        // The second sibling SEND has no pending RECV: counted, not lost.
        assert_eq!(out.unmatched_sends, 1);
        // Leaf pods are still exact.
        assert_eq!(out.sojourns(1), vec![5.0]);
        assert_eq!(out.sojourns(2), vec![8.0]);
    }

    #[test]
    fn pairing_output_is_pinned() {
        // Regression pin for the pairing tables (one slot table per id
        // kind, ids mapped to dense slots through a lookup-only hashed
        // map): the exact per-pod segment lists — labels, durations and
        // order — must not move, only sums were ever guaranteed before.
        let cfg = CaptureConfig {
            persistent_connections: true,
            non_blocking: true,
            noise_events_per_request: 7,
            ..CaptureConfig::default()
        };
        let events = capture(cfg, &[chain3(0), chain3(4), chain3(9)], 0xD01);
        let out = Pairer::new(0).pair(&events);
        assert_eq!(out.request_count, 3);
        assert_eq!(out.filtered_noise, 21);
        assert_eq!(out.pods(), vec![0, 1, 2]);
        // Non-blocking mode closes one segment per work phase; the exact
        // (label, duration) sequence below is the deterministic FIFO
        // attribution order.
        assert_eq!(
            out.segments[&0],
            vec![(0, 1.0), (1, 1.0), (2, 1.0), (0, 2.0), (1, 2.0), (2, 2.0)],
            "pod 0 segments moved"
        );
        assert_eq!(
            out.segments[&1],
            vec![(0, 4.0), (1, 4.0), (2, 4.0), (0, 5.0), (1, 5.0), (2, 5.0)],
            "pod 1 segments moved"
        );
        assert_eq!(
            out.segments[&2],
            vec![(0, 10.0), (1, 10.0), (2, 10.0)],
            "pod 2 segments moved"
        );
        assert_eq!(out.sojourns(0), vec![3.0, 3.0, 3.0]);
        assert_eq!(out.sojourns(1), vec![9.0, 9.0, 9.0]);
        assert_eq!(out.unmatched_sends, 0);
        assert_eq!(out.unmatched_recvs, 0);
    }

    #[test]
    fn released_pieces_pair_like_the_whole_trace() {
        // Requests start at 0, 4 and 9 ms and overlap: before recording
        // each one, release up to its start (the watermark rule) and
        // stream what comes out.
        let cfg = CaptureConfig {
            persistent_connections: true,
            non_blocking: true,
            noise_events_per_request: 3,
            ..CaptureConfig::default()
        };
        let requests = [chain3(0), chain3(4), chain3(9)];
        let whole = Pairer::new(0).pair(&capture(cfg.clone(), &requests, 0xD02));
        let mut cap = EventCapture::new(cfg, 0xD02);
        let mut stream = Pairer::new(0).stream();
        for r in &requests {
            for e in cap.release(r.phases[0].0) {
                stream.feed(e);
            }
            cap.record_request(r);
        }
        for e in &cap.finish() {
            stream.feed(e);
        }
        assert_eq!(format!("{:?}", stream.finish()), format!("{whole:?}"));
    }

    #[test]
    fn live_state_is_bounded_by_the_requests_in_flight() {
        // 5,000 chain requests, one every 2 ms, each 22 ms long: at most
        // 12 overlap. A chain works on one pod at a time, so a request
        // holds one pending RECV, plus a label between a SEND and the
        // RECV stamped at the same instant. The live entries stay within
        // a few per request in flight however long the trace runs; a
        // label queued for every reply to the client would add one per
        // request recorded.
        let requests: Vec<VisitNode> = (0..5_000).map(|k| chain3(2 * k)).collect();
        let overlap = 12;
        let mut high_water = Vec::new();
        for persistent_connections in [false, true] {
            for non_blocking in [false, true] {
                let cfg = CaptureConfig {
                    persistent_connections,
                    non_blocking,
                    noise_events_per_request: 2,
                    ..CaptureConfig::default()
                };
                let mut cap = EventCapture::new(cfg, 0xB0D);
                let mut stream = Pairer::new(0).stream();
                for r in &requests {
                    for e in cap.release(r.phases[0].0) {
                        stream.feed(e);
                    }
                    cap.record_request(r);
                }
                for e in &cap.finish() {
                    stream.feed(e);
                }
                let live = stream.live_high_water();
                assert!(
                    live <= 4 * overlap,
                    "{live} live entries for {overlap} requests in flight"
                );
                high_water.push(live);
                let out = stream.finish();
                assert_eq!(out.request_count, 5_000);
                assert_eq!(out.unmatched_recvs, 0);
            }
        }
        assert_eq!(high_water, vec![11, 11, 11, 11], "high-water marks moved");
    }

    #[test]
    fn empty_trace() {
        let out = Pairer::new(0).pair(&[]);
        assert_eq!(out.request_count, 0);
        assert!(out.pods().is_empty());
        assert_eq!(out.mean_sojourn(0), 0.0);
    }

    #[test]
    fn sojourns_absent_pod_empty() {
        let cfg = CaptureConfig {
            noise_events_per_request: 0,
            ..CaptureConfig::default()
        };
        let events = capture(cfg, &[chain3(0)], 6);
        let out = Pairer::new(0).pair(&events);
        assert!(out.sojourns(9).is_empty());
    }
}
