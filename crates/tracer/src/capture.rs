//! Event-stream synthesis: what the kernel probes would have captured.
//!
//! The simulation knows the ground-truth timeline of every request (when
//! it entered and left each Servpod). This module converts those
//! timelines into the raw [`SysEvent`] stream a SystemTap probe would
//! have produced — including the hazards the paper's tracer must survive:
//! interleaved requests on non-blocking threads, shared message
//! identifiers on persistent TCP connections, and unrelated-process noise
//! events.
//!
//! A request's ground truth comes either as a [`VisitNode`] tree or flat
//! ([`FlatRequest`]: visits in preorder plus their phase records), the
//! form a traced engine run appends to a [`VisitLog`] as requests
//! complete. Both go through one walk: a tree is flattened into reused
//! scratch first.

use crate::event::{ContextId, EventKind, MessageId, SysEvent};
use rhythm_sim::{SimRng, SimTime};

/// Ground-truth record of one request's residence in one Servpod.
///
/// `phases` are the local processing intervals: a node that makes `k`
/// sequential downstream calls has `k + 1` phases (work before call 1,
/// between calls, and after the last reply). A fan-out node has exactly 2
/// phases (work before the parallel calls, work after the join). A leaf
/// has 1 phase.
#[derive(Clone, Debug)]
pub struct VisitNode {
    /// Servpod index (0-based; host address is `pod + 1`).
    pub pod: u32,
    /// Local processing intervals, in timestamp order.
    pub phases: Vec<(SimTime, SimTime)>,
    /// Downstream visits, one per call.
    pub children: Vec<VisitNode>,
    /// True if the children were called in parallel (fan-out).
    pub parallel: bool,
}

impl VisitNode {
    /// The ground-truth sojourn of this visit in milliseconds (sum of
    /// local phases; excludes downstream wait).
    pub fn sojourn_ms(&self) -> f64 {
        self.phases
            .iter()
            .map(|&(s, e)| e.saturating_since(s).as_millis_f64())
            .sum()
    }

    /// Accumulates ground-truth sojourns per pod over the whole subtree.
    pub fn accumulate_sojourns(&self, into: &mut std::collections::BTreeMap<u32, Vec<f64>>) {
        into.entry(self.pod).or_default().push(self.sojourn_ms());
        for c in &self.children {
            c.accumulate_sojourns(into);
        }
    }
}

/// One visit of a [`FlatRequest`]: a visit tree's node without its
/// child list. A request's visits are laid out in preorder: visit 0 is
/// the entry visit, visit `i`'s subtree is the range `i..end`, its first
/// child is `i + 1` and each later child starts at its previous
/// sibling's `end`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlatVisit {
    /// Servpod index (0-based; host address is `pod + 1`).
    pub pod: u32,
    /// True if the children were called in parallel (fan-out).
    pub parallel: bool,
    /// One past the last visit of this visit's subtree, counted from the
    /// request's entry visit.
    pub end: u32,
    /// Number of local processing intervals (see [`VisitNode::phases`]).
    pub n_phases: u32,
}

/// One request's ground truth, flat: its visits in preorder and their
/// phase records, `n_phases` per visit, in visit order.
#[derive(Clone, Copy, Debug)]
pub struct FlatRequest<'a> {
    /// The visits, in preorder.
    pub visits: &'a [FlatVisit],
    /// Every visit's phases, in visit order.
    pub phases: &'a [(SimTime, SimTime)],
}

impl FlatRequest<'_> {
    /// The request as a visit tree.
    pub fn to_tree(&self) -> VisitNode {
        self.subtree(0, &mut 0)
    }

    /// Visit `i`'s tree, its phases read from `phases` at `cursor`
    /// (preorder is index order, so the cursor walks them front to back).
    fn subtree(&self, i: usize, cursor: &mut usize) -> VisitNode {
        let v = self.visits[i];
        let n = v.n_phases as usize;
        let phases = self.phases[*cursor..*cursor + n].to_vec();
        *cursor += n;
        let mut children = Vec::new();
        let mut c = i + 1;
        while c < v.end as usize {
            children.push(self.subtree(c, cursor));
            c = self.visits[c].end as usize;
        }
        VisitNode {
            pod: v.pod,
            phases,
            children,
            parallel: v.parallel,
        }
    }
}

/// Completed requests' [`FlatRequest`]s, one after another in buffers
/// that clearing keeps: a traced run appends each request as it
/// completes and the tracer reads them back without a tree per request.
#[derive(Clone, Debug, Default)]
pub struct VisitLog {
    visits: Vec<FlatVisit>,
    phases: Vec<(SimTime, SimTime)>,
    /// Per request: one past its last visit and one past its last phase
    /// record.
    ends: Vec<(usize, usize)>,
}

impl VisitLog {
    /// Appends one request. Its visits must be a non-empty preorder
    /// layout (each visit's `end` past its own index and within the
    /// request) and its phases exactly `n_phases` per visit.
    pub fn push(
        &mut self,
        visits: impl IntoIterator<Item = FlatVisit>,
        phases: &[(SimTime, SimTime)],
    ) {
        let start = self.visits.len();
        self.visits.extend(visits);
        let request = &self.visits[start..];
        let n = request.len();
        assert!(
            n > 0
                && (request.iter().enumerate())
                    .all(|(i, v)| i < v.end as usize && v.end as usize <= n),
            "a request needs an entry visit, and visit ends past each visit and within the request"
        );
        assert_eq!(
            request.iter().map(|v| v.n_phases as usize).sum::<usize>(),
            phases.len(),
            "one phase record per phase"
        );
        self.phases.extend_from_slice(phases);
        self.ends.push((self.visits.len(), self.phases.len()));
    }

    /// Appends the request whose visit tree is `root`.
    pub fn push_tree(&mut self, root: &VisitNode) {
        fn flatten(node: &VisitNode, log: &mut VisitLog, base: usize) {
            let i = log.visits.len();
            log.visits.push(FlatVisit {
                pod: node.pod,
                parallel: node.parallel,
                end: 0,
                n_phases: u32::try_from(node.phases.len()).expect("fewer than 2^32 phases"),
            });
            log.phases.extend_from_slice(&node.phases);
            for child in &node.children {
                flatten(child, log, base);
            }
            log.visits[i].end =
                u32::try_from(log.visits.len() - base).expect("fewer than 2^32 visits");
        }
        let base = self.visits.len();
        flatten(root, self, base);
        self.ends.push((self.visits.len(), self.phases.len()));
    }

    /// Number of requests held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no request is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The requests, in the order they were appended.
    pub fn requests(&self) -> impl Iterator<Item = FlatRequest<'_>> + '_ {
        let mut from = (0, 0);
        self.ends.iter().map(move |&(visits, phases)| {
            let req = FlatRequest {
                visits: &self.visits[from.0..visits],
                phases: &self.phases[from.1..phases],
            };
            from = (visits, phases);
            req
        })
    }

    /// Moves every request of `other` onto the end of this log, leaving
    /// `other` empty. When this log is empty the two swap buffers, so
    /// neither allocates.
    pub fn append(&mut self, other: &mut VisitLog) {
        if self.is_empty() {
            std::mem::swap(self, other);
            other.clear();
            return;
        }
        let (v0, p0) = (self.visits.len(), self.phases.len());
        self.visits.append(&mut other.visits);
        self.phases.append(&mut other.phases);
        self.ends
            .extend(other.ends.drain(..).map(|(v, p)| (v0 + v, p0 + p)));
    }

    /// Drops every request, keeping the buffers.
    pub fn clear(&mut self) {
        self.visits.clear();
        self.phases.clear();
        self.ends.clear();
    }
}

/// Capture behaviour knobs.
#[derive(Clone, Debug)]
pub struct CaptureConfig {
    /// The client's host address (requests enter from here).
    pub client_ip: u32,
    /// If true, each Servpod serves all requests from a single thread
    /// (non-blocking server): interleaved requests share a context.
    pub non_blocking: bool,
    /// If true, inter-Servpod connections are persistent: every message
    /// between a pod pair reuses the same port 4-tuple.
    pub persistent_connections: bool,
    /// Unrelated-process noise events injected per request (the calling
    /// stack "could be associated with a depth of more than hundreds of
    /// system calls ... generated by other unrelated processes").
    pub noise_events_per_request: u32,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            client_ip: 0,
            non_blocking: false,
            persistent_connections: false,
            noise_events_per_request: 8,
        }
    }
}

/// Program-name id of the LC component on pod `pod` (noise programs use
/// ids below 1000).
pub fn lc_program_id(pod: u32) -> u32 {
    1000 + pod
}

/// True if the program id belongs to the LC service (the filter the
/// tracer applies via the context identifier).
pub fn is_lc_program(program: u32) -> bool {
    program >= 1000
}

/// Accumulates the captured event stream across requests.
///
/// Events leave in time order, either all at once ([`finish`]) or in
/// pieces as the trace is still being recorded ([`release`]); both go
/// through the same ordering routine, so the pieces concatenate to the
/// stream `finish` would return.
///
/// [`finish`]: EventCapture::finish
/// [`release`]: EventCapture::release
pub struct EventCapture {
    synth: Synth,
    /// The walk's stack of open visits (reused across requests).
    frames: Vec<Frame>,
    /// Downstream messages of the open fan-out visits (reused).
    downs: Vec<MessageId>,
    /// [`EventCapture::record_request`]'s flattened tree (reused).
    flat: VisitLog,
    /// The last release, in time order (reused across releases).
    released: Vec<SysEvent>,
    sort: SortScratch,
    next_request: u64,
}

/// What synthesizes events: the knobs, the draws and the event buffer.
struct Synth {
    config: CaptureConfig,
    /// Recorded events not yet released, in record order.
    events: Vec<SysEvent>,
    rng: SimRng,
    next_ephemeral_port: u16,
}

/// One open visit of the walk.
struct Frame {
    /// The visit's index in its request.
    visit: usize,
    /// Its first phase record.
    base: usize,
    /// The message that delivered the request to it.
    msg_in: MessageId,
    ctx: ContextId,
    /// The next child to walk (the visit's `end` once all are walked).
    next: usize,
    /// Children walked so far.
    done: usize,
    /// Where its fan-out messages start in the walk's `downs`.
    downs: usize,
}

impl EventCapture {
    /// Creates an empty capture.
    pub fn new(config: CaptureConfig, seed: u64) -> Self {
        EventCapture {
            synth: Synth {
                config,
                events: Vec::new(),
                rng: SimRng::from_seed(seed).split("capture"),
                next_ephemeral_port: 10_000,
            },
            frames: Vec::new(),
            downs: Vec::new(),
            flat: VisitLog::default(),
            released: Vec::new(),
            sort: SortScratch::default(),
            next_request: 0,
        }
    }

    /// Records one request's event trace from its ground-truth visit
    /// tree. Returns the request id assigned.
    pub fn record_request(&mut self, root: &VisitNode) -> u64 {
        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        flat.push_tree(root);
        let req = flat.requests().next().expect("the tree just pushed");
        let request = self.record(req);
        self.flat = flat;
        request
    }

    /// Records one request's event trace from its flat ground truth.
    /// Returns the request id assigned.
    pub fn record(&mut self, req: FlatRequest<'_>) -> u64 {
        let request = self.next_request;
        self.next_request += 1;
        let s = &mut self.synth;
        let root = req.visits[0];
        let client_port = s.port_for(s.config.client_ip, root.pod);
        let entry_msg = MessageId {
            sender_ip: s.config.client_ip,
            sender_port: client_port,
            receiver_ip: Synth::host_of(root.pod),
            receiver_port: 80,
            message_size: 200 + (s.rng.below(800)) as u32,
        };
        let entry_ctx = s.context(root.pod, request);
        let start = req.phases.first().map_or(SimTime::ZERO, |p| p.0);
        let end = (root.n_phases as usize)
            .checked_sub(1)
            .and_then(|last| req.phases.get(last))
            .map_or(start, |p| p.1);
        s.push(EventKind::Accept, start, entry_ctx, MessageId::NONE);
        s.walk(req, entry_msg, request, &mut self.frames, &mut self.downs);
        s.push(EventKind::Close, end, entry_ctx, MessageId::NONE);
        s.inject_noise(start, end);
        request
    }

    /// Number of requests recorded so far.
    pub fn request_count(&self) -> u64 {
        self.next_request
    }

    /// The events recorded and not yet released, in record order (not
    /// yet time-sorted).
    pub fn events(&self) -> &[SysEvent] {
        &self.synth.events
    }

    /// Releases every unreleased event stamped at or before `watermark`,
    /// sorted by timestamp and, for equal times, by record order (as a
    /// kernel trace would be). Later events stay buffered.
    ///
    /// The watermark rule: `watermark` must not pass the earliest event
    /// of any request recorded after this call. Then every event still
    /// to come either is stamped later than all released ones or ties
    /// with them and was recorded after them, so the releases, in call
    /// order, concatenate to exactly the stream [`finish`] would return
    /// for the whole capture. Every event of a request is stamped at or
    /// after its arrival, so the earliest arrival among the requests not
    /// yet recorded is a valid watermark.
    ///
    /// [`finish`]: EventCapture::finish
    pub fn release(&mut self, watermark: SimTime) -> &[SysEvent] {
        self.released.clear();
        let events = &mut self.synth.events;
        if events.iter().all(|e| e.timestamp <= watermark) {
            // Everything goes: hand the buffer over instead of copying.
            std::mem::swap(events, &mut self.released);
        } else {
            let released = &mut self.released;
            events.retain(|e| {
                let due = e.timestamp <= watermark;
                if due {
                    released.push(*e);
                }
                !due
            });
        }
        sort_by_timestamp(&mut self.released, &mut self.sort);
        &self.released
    }

    /// Finishes the capture, returning every unreleased event in
    /// [`release`](EventCapture::release)'s order.
    pub fn finish(mut self) -> Vec<SysEvent> {
        self.release(SimTime::MAX);
        self.released
    }
}

impl Synth {
    fn host_of(pod: u32) -> u32 {
        pod + 1
    }

    fn context(&self, pod: u32, request: u64) -> ContextId {
        ContextId {
            host_ip: Self::host_of(pod),
            program: lc_program_id(pod),
            process_id: 100 + pod,
            // Blocking servers give each in-flight request its own worker
            // thread; non-blocking servers multiplex one event-loop
            // thread.
            thread_id: if self.config.non_blocking {
                1
            } else {
                (request % 1_000_000) as u32 + 1
            },
        }
    }

    fn port_for(&mut self, src: u32, dst: u32) -> u16 {
        if self.config.persistent_connections {
            // One long-lived connection per pod pair: fixed 4-tuple.
            50_000u16
                // lint:allow(D05) -- intentional: the port hash mixes low bits, wrapping is the point
                .wrapping_add((src as u16).wrapping_mul(97))
                // lint:allow(D05) -- intentional: the port hash mixes low bits, wrapping is the point
                .wrapping_add((dst as u16).wrapping_mul(13))
        } else {
            let p = self.next_ephemeral_port;
            self.next_ephemeral_port = self.next_ephemeral_port.wrapping_add(1).max(10_000);
            p
        }
    }

    fn push(&mut self, kind: EventKind, timestamp: SimTime, ctx: ContextId, msg: MessageId) {
        self.events.push(SysEvent {
            kind,
            timestamp,
            ctx,
            msg,
        });
    }

    /// Emits the RECV/SEND events of a request's visits, entry visit
    /// first: the order of a depth-first walk of its tree. `msg_in` is
    /// the message that delivered the request to the entry visit.
    ///
    /// Per visit: its RECV at the start of its first phase; for a
    /// fan-out, every downstream SEND at the end of that phase, then per
    /// child the child's events and the reply's RECV at the child's end;
    /// for sequential calls, per child the SEND at the end of phase `k`,
    /// the child's events and the reply's RECV at the start of phase
    /// `k + 1`; last, the reply upstream at the end of its last phase.
    fn walk(
        &mut self,
        req: FlatRequest<'_>,
        msg_in: MessageId,
        request: u64,
        frames: &mut Vec<Frame>,
        downs: &mut Vec<MessageId>,
    ) {
        let FlatRequest { visits, phases } = req;
        let persistent = self.config.persistent_connections;
        // Visits are entered in preorder, which is index order, so the
        // phase records are taken front to back.
        let mut next_base = 0;
        frames.clear();
        downs.clear();
        let root = self.enter(req, 0, &mut next_base, msg_in, request, downs);
        frames.push(root);
        while let Some(top) = frames.last_mut() {
            let v = visits[top.visit];
            // A sequential visit resumes in its next phase after each
            // call, so it needs exactly one phase more than it has calls.
            let calls_left = top.next < v.end as usize;
            assert!(
                v.parallel || (top.done + 1 < v.n_phases as usize) == calls_left,
                "sequential node needs children+1 phases"
            );
            if calls_left {
                let child = top.next;
                top.next = visits[child].end as usize;
                let m = if v.parallel {
                    downs[top.downs + top.done]
                } else {
                    let m = self.downstream_msg(v.pod, visits[child].pod);
                    self.push(EventKind::Send, phases[top.base + top.done].1, top.ctx, m);
                    m
                };
                let frame = self.enter(req, child, &mut next_base, m, request, downs);
                frames.push(frame);
                continue;
            }
            // Every child is done: reply upstream at the end of the last
            // local phase.
            let last = phases[top.base + v.n_phases as usize - 1].1;
            let reply = Self::reply_of(&top.msg_in, persistent);
            self.push(EventKind::Send, last, top.ctx, reply);
            downs.truncate(top.downs);
            frames.pop();
            if let Some(parent) = frames.last_mut() {
                let at = match visits[parent.visit].parallel {
                    true => last,
                    false => phases[parent.base + parent.done + 1].0,
                };
                self.push(EventKind::Recv, at, parent.ctx, reply);
                parent.done += 1;
            }
        }
    }

    /// Opens visit `i`, delivered by `msg_in`: checks a fan-out's phase
    /// count, emits its RECV and, for a fan-out, all its downstream
    /// SENDs (their messages go onto `downs`).
    fn enter(
        &mut self,
        req: FlatRequest<'_>,
        i: usize,
        next_base: &mut usize,
        msg_in: MessageId,
        request: u64,
        downs: &mut Vec<MessageId>,
    ) -> Frame {
        let v = req.visits[i];
        let base = *next_base;
        *next_base += v.n_phases as usize;
        assert!(v.n_phases > 0, "visit node must have at least one phase");
        let leaf = v.end as usize == i + 1;
        assert!(
            !v.parallel || leaf || v.n_phases == 2,
            "fan-out node needs exactly pre+post phases"
        );
        let ctx = self.context(v.pod, request);
        // Request arrives.
        self.push(EventKind::Recv, req.phases[base].0, ctx, msg_in);
        let fan_out = downs.len();
        if v.parallel {
            // Fan-out: all downstream SENDs at the end of the pre phase.
            let send_at = req.phases[base].1;
            let mut child = i + 1;
            while child < v.end as usize {
                let m = self.downstream_msg(v.pod, req.visits[child].pod);
                self.push(EventKind::Send, send_at, ctx, m);
                downs.push(m);
                child = req.visits[child].end as usize;
            }
        }
        Frame {
            visit: i,
            base,
            msg_in,
            ctx,
            next: i + 1,
            done: 0,
            downs: fan_out,
        }
    }

    /// The reply message identifier for a request message: the reversed
    /// connection with a size derived deterministically from the request
    /// (sender and receiver observe the same bytes, so their identifiers
    /// agree). Persistent RPC replies are fixed-size frames.
    fn reply_of(m: &MessageId, persistent: bool) -> MessageId {
        let size = if persistent {
            1024
        } else {
            64 + m.message_size.wrapping_mul(2_654_435_761) % 3_900
        };
        m.reversed(size)
    }

    fn downstream_msg(&mut self, src_pod: u32, dst_pod: u32) -> MessageId {
        let port = self.port_for(src_pod, dst_pod);
        // Persistent RPC connections exchange fixed-size protocol frames,
        // which is exactly why "multiple requests may share the same
        // message identifier" (§3.3) — the five-tuple stops being unique.
        let size = if self.config.persistent_connections {
            512
        } else {
            100 + self.rng.below(1_900) as u32
        };
        MessageId {
            sender_ip: Self::host_of(src_pod),
            sender_port: port,
            receiver_ip: Self::host_of(dst_pod),
            receiver_port: 3306,
            message_size: size,
        }
    }

    /// Injects unrelated-process events (different program names) spread
    /// over the request's time span.
    fn inject_noise(&mut self, start: SimTime, end: SimTime) {
        let span = end.saturating_since(start).as_nanos().max(1);
        for _ in 0..self.config.noise_events_per_request {
            let t = SimTime::from_nanos(start.as_nanos() + self.rng.below(span));
            let host = 1 + self.rng.below(8) as u32;
            let ctx = ContextId {
                host_ip: host,
                program: 1 + self.rng.below(900) as u32, // Below 1000: not LC.
                process_id: 5_000 + self.rng.below(100) as u32,
                thread_id: 1 + self.rng.below(16) as u32,
            };
            let kind = if self.rng.chance(0.5) {
                EventKind::Recv
            } else {
                EventKind::Send
            };
            let msg = MessageId {
                sender_ip: host,
                sender_port: 20_000 + self.rng.below(1_000) as u16,
                receiver_ip: 1 + self.rng.below(8) as u32,
                receiver_port: 9_999,
                message_size: self.rng.below(4_000) as u32,
            };
            self.push(kind, t, ctx, msg);
        }
    }
}

/// The radix sort's working arrays, kept by the capture so each release
/// reuses the last one's allocations.
#[derive(Debug, Default)]
struct SortScratch {
    /// Each event's offset from the earliest timestamp, shifted up past
    /// its index, in the order sorted so far.
    keys: Vec<u64>,
    /// The next pass's order.
    spare: Vec<u64>,
    /// One digit table per pass, side by side.
    offsets: Vec<u32>,
}

/// Stable LSD radix sort by timestamp, in place: the order
/// `sort_by_key(|e| e.timestamp)` gives, ties included. Each event's key
/// is its timestamp's offset from the earliest one with its index packed
/// below it, so keys are distinct, equal timestamps sort by record
/// order, and a pass reads its keys front to back. The passes cover
/// only the offset's bits, in as many digits (of at most 16 bits) as
/// keep `passes × (4 × len + table size)` least, so a short slice
/// spanning a second of virtual time needs neither a 64 K-entry digit
/// table nor the digits its absolute time would; one read of the keys
/// fills every pass's table. The sorted keys then move each 48-byte
/// event once, in place, along the permutation's cycles, so no second
/// copy of the events is ever live. The keys and tables live in `s` and
/// keep their allocations for the next call. Offsets too wide to pack
/// beside an index (a span of hours of virtual time) fall back to the
/// standard stable sort.
fn sort_by_timestamp(events: &mut [SysEvent], s: &mut SortScratch) {
    let Some((min, max)) = events
        .iter()
        .map(|e| e.timestamp.as_nanos())
        .fold(None, |mm, t| {
            let (lo, hi) = mm.unwrap_or((t, t));
            Some((lo.min(t), hi.max(t)))
        })
    else {
        return;
    };
    let index_bits = usize::BITS - events.len().leading_zeros();
    let span_bits = u64::BITS - (max - min).leading_zeros();
    if index_bits + span_bits > u64::BITS {
        events.sort_by_key(|e| e.timestamp);
        return;
    }
    let SortScratch {
        keys,
        spare,
        offsets,
    } = s;
    keys.clear();
    keys.extend(
        (events.iter().enumerate())
            .map(|(i, e)| ((e.timestamp.as_nanos() - min) << index_bits) | i as u64),
    );
    let len = keys.len() as u64;
    let (digits, digit_bits) = (1..=span_bits.div_ceil(8))
        .map(|d| (d, span_bits.div_ceil(d)))
        .filter(|&(_, bits)| bits <= 16)
        .min_by_key(|&(d, bits)| u64::from(d) * (4 * len + (1 << bits)))
        .unwrap_or((0, 0));
    let mask = (1u64 << digit_bits) - 1;
    let size = 1usize << digit_bits;
    let digit = |key: u64, d: u32| ((key >> (index_bits + d * digit_bits)) & mask) as usize;
    offsets.clear();
    offsets.resize(size * digits as usize, 0);
    for &key in keys.iter() {
        for d in 0..digits {
            offsets[d as usize * size + digit(key, d)] += 1;
        }
    }
    for table in offsets.chunks_mut(size) {
        let mut start = 0;
        for slot in table.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
    }
    spare.clear();
    spare.resize(keys.len(), 0);
    for (d, table) in (0..digits).zip(offsets.chunks_mut(size)) {
        for &key in keys.iter() {
            let slot = &mut table[digit(key, d)];
            spare[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
    // The index in `keys[j]` is the event that belongs at `j`. Walk each
    // cycle once, marking a settled slot by storing `j` itself.
    let index_mask = (1u64 << index_bits) - 1;
    let from = |key: u64| (key & index_mask) as usize;
    for start in 0..keys.len() {
        if from(keys[start]) == start {
            continue;
        }
        let held = events[start];
        let mut j = start;
        loop {
            let next = from(keys[j]);
            keys[j] = j as u64;
            if next == start {
                events[j] = held;
                break;
            }
            events[j] = events[next];
            j = next;
        }
    }
}

/// Convenience: a linear chain visit tree with the given per-pod
/// `(start, end)` residence windows and per-hop `(pre, post)` split.
/// Used heavily by tests.
pub fn chain_visit(pods: &[u32], segments: &[Vec<(SimTime, SimTime)>]) -> VisitNode {
    assert_eq!(pods.len(), segments.len());
    assert!(!pods.is_empty());
    fn build(pods: &[u32], segments: &[Vec<(SimTime, SimTime)>]) -> VisitNode {
        let children = if pods.len() > 1 {
            vec![build(&pods[1..], &segments[1..])]
        } else {
            Vec::new()
        };
        VisitNode {
            pod: pods[0],
            phases: segments[0].clone(),
            children,
            parallel: false,
        }
    }
    build(pods, segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn two_pod_request(offset: u64) -> VisitNode {
        chain_visit(
            &[0, 1],
            &[
                vec![
                    (ms(offset), ms(offset + 2)),
                    (ms(offset + 10), ms(offset + 12)),
                ],
                vec![(ms(offset + 2), ms(offset + 10))],
            ],
        )
    }

    #[test]
    #[should_panic(expected = "visit ends past each visit")]
    fn visit_log_refuses_an_end_off_the_layout() {
        // An `end` at the visit's own index would make the walk spin.
        let v = FlatVisit {
            pod: 0,
            parallel: false,
            end: 0,
            n_phases: 1,
        };
        VisitLog::default().push([v], &[(ms(0), ms(1))]);
    }

    #[test]
    fn sojourn_ms_sums_phases() {
        let v = two_pod_request(0);
        assert_eq!(v.sojourn_ms(), 4.0);
        assert_eq!(v.children[0].sojourn_ms(), 8.0);
    }

    #[test]
    fn capture_emits_expected_event_kinds() {
        let mut cap = EventCapture::new(
            CaptureConfig {
                noise_events_per_request: 0,
                ..CaptureConfig::default()
            },
            1,
        );
        cap.record_request(&two_pod_request(0));
        let events = cap.finish();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::Accept), 1);
        assert_eq!(count(EventKind::Close), 1);
        // Pod 0: RECV(in), SEND(down), RECV(reply), SEND(out) = 2+2.
        // Pod 1: RECV(in), SEND(reply) = 1+1.
        assert_eq!(count(EventKind::Recv), 3);
        assert_eq!(count(EventKind::Send), 3);
    }

    #[test]
    fn events_are_time_sorted() {
        let mut cap = EventCapture::new(CaptureConfig::default(), 2);
        cap.record_request(&two_pod_request(0));
        cap.record_request(&two_pod_request(5));
        let events = cap.finish();
        for w in events.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    /// `len` events with timestamps drawn from `pool` (many ties), each
    /// tagged with its record position.
    fn events_from(rng: &mut SimRng, pool: &[u64], len: u32) -> Vec<SysEvent> {
        (0..len)
            .map(|i| SysEvent {
                kind: EventKind::Recv,
                timestamp: SimTime::from_nanos(pool[rng.below(pool.len() as u64) as usize]),
                ctx: ContextId {
                    host_ip: 1,
                    program: 1000,
                    process_id: 1,
                    thread_id: 1,
                },
                msg: MessageId {
                    message_size: i,
                    ..MessageId::NONE
                },
            })
            .collect()
    }

    fn assert_sorts_stably(mut events: Vec<SysEvent>, scratch: &mut SortScratch) {
        let mut expect = events.clone();
        expect.sort_by_key(|e| e.timestamp);
        sort_by_timestamp(&mut events, scratch);
        assert_eq!(events, expect, "{} events", expect.len());
    }

    #[test]
    fn radix_sort_equals_stable_sort_over_the_full_range() {
        // Few distinct timestamps, spread over all 64 bits: too wide to
        // pack beside an index, so the standard sort takes them.
        // One scratch throughout: each sort starts from the last one's
        // arrays and digit table, longer or shorter.
        let s = &mut SortScratch::default();
        let mut rng = SimRng::from_seed(9);
        let pool: Vec<u64> = (0..12)
            .map(|_| rng.below(u64::MAX) >> rng.below(64))
            .chain([0, u64::MAX])
            .collect();
        assert_sorts_stably(events_from(&mut rng, &pool, 2_000), s);
        // Short slices (8- to 10-bit digits) within a few microseconds,
        // far from zero: the offsets from the earliest event need one or
        // two digits.
        let near: Vec<u64> = (0..40).map(|_| (1 << 40) + rng.below(5_000)).collect();
        for len in [1, 3, 255, 256, 700] {
            assert_sorts_stably(events_from(&mut rng, &near, len), s);
            assert_sorts_stably(events_from(&mut rng, &pool, len), s);
        }
        assert_sorts_stably(Vec::new(), s);
    }

    #[test]
    fn noise_uses_non_lc_programs() {
        let mut cap = EventCapture::new(
            CaptureConfig {
                noise_events_per_request: 50,
                ..CaptureConfig::default()
            },
            3,
        );
        cap.record_request(&two_pod_request(0));
        let events = cap.finish();
        let noise: Vec<_> = events
            .iter()
            .filter(|e| !is_lc_program(e.ctx.program))
            .collect();
        assert_eq!(noise.len(), 50);
    }

    #[test]
    fn ephemeral_ports_differ_per_request() {
        let mut cap = EventCapture::new(
            CaptureConfig {
                noise_events_per_request: 0,
                ..CaptureConfig::default()
            },
            4,
        );
        cap.record_request(&two_pod_request(0));
        cap.record_request(&two_pod_request(100));
        let events = cap.finish();
        let downstream_ports: std::collections::BTreeSet<u16> = events
            .iter()
            .filter(|e| e.kind == EventKind::Send && e.msg.receiver_ip == 2)
            .map(|e| e.msg.sender_port)
            .collect();
        assert_eq!(downstream_ports.len(), 2);
    }

    #[test]
    fn persistent_ports_are_shared() {
        let mut cap = EventCapture::new(
            CaptureConfig {
                persistent_connections: true,
                noise_events_per_request: 0,
                ..CaptureConfig::default()
            },
            5,
        );
        cap.record_request(&two_pod_request(0));
        cap.record_request(&two_pod_request(100));
        let events = cap.finish();
        let downstream_ports: std::collections::BTreeSet<u16> = events
            .iter()
            .filter(|e| e.kind == EventKind::Send && e.msg.receiver_ip == 2)
            .map(|e| e.msg.sender_port)
            .collect();
        assert_eq!(downstream_ports.len(), 1);
    }

    #[test]
    fn blocking_mode_gives_each_request_its_own_thread() {
        let mut cap = EventCapture::new(
            CaptureConfig {
                noise_events_per_request: 0,
                ..CaptureConfig::default()
            },
            6,
        );
        cap.record_request(&two_pod_request(0));
        cap.record_request(&two_pod_request(100));
        let events = cap.finish();
        let tids: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| e.ctx.host_ip == 1 && e.kind == EventKind::Recv)
            .map(|e| e.ctx.thread_id)
            .collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn non_blocking_mode_multiplexes_one_thread() {
        let mut cap = EventCapture::new(
            CaptureConfig {
                non_blocking: true,
                noise_events_per_request: 0,
                ..CaptureConfig::default()
            },
            7,
        );
        cap.record_request(&two_pod_request(0));
        cap.record_request(&two_pod_request(100));
        let events = cap.finish();
        let tids: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| e.ctx.host_ip == 1)
            .map(|e| e.ctx.thread_id)
            .collect();
        assert_eq!(tids.len(), 1);
    }

    #[test]
    fn accumulate_sojourns_collects_subtree() {
        let mut map = std::collections::BTreeMap::new();
        two_pod_request(0).accumulate_sojourns(&mut map);
        assert_eq!(map[&0], vec![4.0]);
        assert_eq!(map[&1], vec![8.0]);
    }

    #[test]
    fn fan_out_capture() {
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
        let mut cap = EventCapture::new(
            CaptureConfig {
                noise_events_per_request: 0,
                ..CaptureConfig::default()
            },
            8,
        );
        cap.record_request(&fan);
        let events = cap.finish();
        // Two downstream SENDs at the same instant (t=1ms).
        let sends_at_1: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Send && e.timestamp == ms(1) && e.ctx.host_ip == 1)
            .collect();
        assert_eq!(sends_at_1.len(), 2);
    }
}
