//! In-flight request state: one request's visits, flat and in preorder.
//!
//! A request walks its service's component DAG (paper §3.3): each call
//! the request takes is one *visit* to a component. The visits of one
//! request form a tree, and [`Planner::plan`] lays that tree out in
//! preorder in one `Vec`:
//!
//! * visit 0 is the entry visit;
//! * visit `i`'s subtree is the contiguous range `i..end`;
//! * its first child is `i + 1`, and each later child starts at its
//!   previous sibling's `end`.
//!
//! So no visit owns a child list, every [`Visit`] is a small `Copy`
//! record, and the engine recycles whole [`Request`] buffers between
//! requests. The snapshot wire format predates this layout and still
//! carries explicit parent and child lists; the codec writes them from
//! the preorder layout and decode checks that they describe one.

use rhythm_sim::{SimRng, SimTime};
use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
use rhythm_tracer::capture::FlatVisit;
use rhythm_workloads::ServiceSpec;

/// The `parent` of the entry visit.
pub(crate) const ROOT: u32 = u32::MAX;

/// One visit of a request to a component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Visit {
    /// Service node (component) index.
    pub(crate) node: u32,
    /// Parent visit index; [`ROOT`] for the entry visit.
    pub(crate) parent: u32,
    /// Position among the parent's children, in call order.
    pub(crate) slot: u32,
    /// One past the last visit of this visit's subtree.
    pub(crate) end: u32,
    pub(crate) n_children: u32,
    /// Phases finished so far.
    pub(crate) phase: u32,
    pub(crate) n_phases: u32,
    /// Children of a parallel visit that have not finished yet.
    pub(crate) pending: u32,
    pub(crate) parallel: bool,
    pub(crate) phase_start: SimTime,
    pub(crate) sojourn_ns: u64,
}

impl Visit {
    /// The service node this visit runs on.
    pub fn node(&self) -> usize {
        self.node as usize
    }

    /// `(parent visit, child slot)`, or `None` for the entry visit.
    pub fn parent(&self) -> Option<(usize, usize)> {
        (self.parent != ROOT).then_some((self.parent as usize, self.slot as usize))
    }

    /// Phases this visit runs: 1 without calls, 2 around a parallel
    /// fan-out, and one more than its calls when sequential.
    pub fn n_phases(&self) -> usize {
        self.n_phases as usize
    }

    /// True if the visit issues its calls concurrently.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// The tracer's view of the visit.
    pub(crate) fn flat(&self) -> FlatVisit {
        FlatVisit {
            pod: self.node,
            parallel: self.parallel,
            end: self.end,
            n_phases: self.n_phases,
        }
    }
}

/// The phase count of a visit with `n_children` calls.
fn phases_for(n_children: u32, parallel: bool) -> u32 {
    match n_children {
        0 => 1,
        _ if parallel => 2,
        n => n + 1,
    }
}

/// Narrows a visit or node index to the record width.
fn narrow(i: usize) -> u32 {
    // PANIC: a request has as many visits as its DAG walk takes calls,
    // far below 2^32, and service node counts are tiny.
    u32::try_from(i).expect("visit index fits in u32")
}

/// Reads a `u64` index of the wire format into the engine's `u32`
/// width; larger values are [`SnapshotError::Corrupt`].
pub(crate) fn read_index(r: &mut Reader<'_>, what: &str) -> Result<u32, SnapshotError> {
    let raw = r.u64()?;
    u32::try_from(raw).map_err(|_| SnapshotError::Corrupt(format!("{what} {raw} exceeds u32")))
}

/// What a visit does after one of its phases ends.
pub(crate) enum Step {
    /// Start the child visits from `first` up to (not including) `stop`,
    /// walking from each child to its next sibling.
    Dispatch { first: u32, stop: u32 },
    /// The visit is done; its parent (or [`ROOT`]) takes over.
    Complete { parent: u32 },
    /// A parallel visit waits for its children.
    Wait,
}

/// One in-flight request: its arrival time and its visits in preorder.
#[derive(Clone, Debug, Default)]
pub struct Request {
    pub(crate) arrival: SimTime,
    pub(crate) visits: Vec<Visit>,
    /// Recorded `(start, end)` of every phase, `n_phases` slots per
    /// visit in visit order; empty unless the engine captures visits.
    pub(crate) phases: Vec<(SimTime, SimTime)>,
}

impl Request {
    /// The visits, in preorder.
    pub fn visits(&self) -> &[Visit] {
        &self.visits
    }

    /// The child visits of visit `i`, in call order.
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let end = self.visits[i].end as usize;
        let mut c = i + 1;
        std::iter::from_fn(move || {
            let child = c;
            (child < end).then(|| {
                c = self.visits[child].end as usize;
                child
            })
        })
    }

    /// Index of visit `i`'s first phase slot in `phases`.
    fn phase_base(&self, i: usize) -> usize {
        self.visits[..i].iter().map(|v| v.n_phases as usize).sum()
    }

    /// Ends the running phase of visit `i` at `now`: adds the phase to
    /// the visit's sojourn (and to its phase records when `capture`) and
    /// advances it. Returns the visit's node and what happens next.
    pub(crate) fn end_phase(&mut self, i: usize, now: SimTime, capture: bool) -> (usize, Step) {
        let base = if capture { self.phase_base(i) } else { 0 };
        let v = &mut self.visits[i];
        let started = v.phase_start;
        v.sojourn_ns += now.saturating_since(started).as_nanos();
        if capture {
            if let Some(rec) = self.phases.get_mut(base + v.phase as usize) {
                *rec = (started, now);
            }
        }
        v.phase += 1;
        let v = *v;
        let step = if v.parallel && v.phase == 1 && v.n_children > 0 {
            self.visits[i].pending = v.n_children;
            Step::Dispatch {
                first: narrow(i + 1),
                stop: v.end,
            }
        } else if !v.parallel && v.phase <= v.n_children {
            let child = self
                .children(i)
                .nth(v.phase as usize - 1)
                // PANIC: the planner and decode keep `n_children` equal to
                // the length of the child walk.
                .expect("sequential child in range");
            Step::Dispatch {
                first: narrow(child),
                stop: self.visits[child].end,
            }
        } else if v.phase >= v.n_phases {
            Step::Complete { parent: v.parent }
        } else {
            Step::Wait
        };
        (v.node as usize, step)
    }

    /// Visit `child`'s node, and the visit after its subtree: the next
    /// sibling when it is below the parent's `end`.
    pub(crate) fn child_and_next(&self, child: u32) -> (usize, u32) {
        let c = &self.visits[child as usize];
        (c.node as usize, c.end)
    }

    /// Child visit of `parent` finished: a sequential parent resumes at
    /// once, a parallel one when its last child is done. Returns the
    /// parent's node if it resumes.
    pub(crate) fn child_done(&mut self, parent: usize) -> Option<usize> {
        let pv = &mut self.visits[parent];
        if pv.parallel {
            pv.pending = pv.pending.saturating_sub(1);
            if pv.pending > 0 {
                return None;
            }
        }
        Some(pv.node as usize)
    }

    /// Matches the phase records to the run: a capturing run needs a
    /// slot for every phase (a snapshot taken before any phase ended
    /// carries none), and a run that does not capture must hold none.
    pub(crate) fn fit_phase_records(&mut self, capture: bool) -> Result<(), SnapshotError> {
        if capture {
            if self.phases.is_empty() {
                let slots = self.phase_base(self.visits.len());
                self.phases.resize(slots, (SimTime::ZERO, SimTime::ZERO));
            }
            Ok(())
        } else if self.phases.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(
                "request carries phase records but the run does not capture visits".into(),
            ))
        }
    }
}

/// Samples request plans. Holds only a reusable DFS stack.
#[derive(Debug, Default)]
pub struct Planner {
    /// Visits still to lay out: `(node, parent visit, child slot)`.
    stack: Vec<(u32, u32, u32)>,
}

impl Planner {
    /// Samples which calls a request arriving at `arrival` takes and lays
    /// its visits out in preorder into `req`, reusing its buffers. Calls
    /// are drawn from `rng` node by node in preorder, each node's calls
    /// in call order; a call with probability ≥ 1 draws nothing. With
    /// `capture`, `req` gets one phase-record slot per phase.
    pub fn plan(
        &mut self,
        service: &ServiceSpec,
        rng: &mut SimRng,
        arrival: SimTime,
        capture: bool,
        req: &mut Request,
    ) {
        req.arrival = arrival;
        req.visits.clear();
        let mut slots = 0;
        self.stack.clear();
        self.stack.push((narrow(ServiceSpec::ENTRY), ROOT, 0));
        while let Some((node, parent, slot)) = self.stack.pop() {
            let spec = &service.nodes[node as usize];
            let idx = narrow(req.visits.len());
            let base = self.stack.len();
            for call in &spec.calls {
                if call.probability >= 1.0 || rng.chance(call.probability) {
                    let k = narrow(self.stack.len() - base);
                    self.stack.push((narrow(call.target), idx, k));
                }
            }
            // Reverse so the LIFO stack lays siblings out in call order.
            self.stack[base..].reverse();
            let n_children = narrow(self.stack.len() - base);
            let n_phases = phases_for(n_children, spec.parallel);
            slots += n_phases as usize;
            req.visits.push(Visit {
                node,
                parent,
                slot,
                end: idx + 1,
                n_children,
                phase: 0,
                n_phases,
                pending: 0,
                parallel: spec.parallel,
                phase_start: arrival,
                sojourn_ns: 0,
            });
        }
        close_subtrees(&mut req.visits);
        req.phases.clear();
        if capture {
            req.phases.resize(slots, (SimTime::ZERO, SimTime::ZERO));
        }
    }
}

/// Fills in every visit's `end` from the parent links of a preorder
/// layout whose `end`s start at `i + 1`: walking backwards, each visit's
/// subtree is complete before it widens its parent's.
fn close_subtrees(visits: &mut [Visit]) {
    for i in (1..visits.len()).rev() {
        let (p, end) = (visits[i].parent as usize, visits[i].end);
        visits[p].end = visits[p].end.max(end);
    }
}

/// The old per-visit wire record: explicit parent and child lists.
struct WireVisit {
    parent: Option<(u64, u64)>,
    children: Vec<u64>,
    records: Vec<(SimTime, SimTime)>,
}

impl Snapshot for Request {
    /// Each visit as `node, parent: Option<(visit, slot)>, children,
    /// parallel, phase, n_phases, pending, phase_start, sojourn_ns,
    /// phase records so far` — the layout the `rhythm-core` schema hash
    /// pins.
    fn encode(&self, w: &mut Writer) {
        self.arrival.encode(w);
        w.u64(self.visits.len() as u64);
        let mut base = 0;
        for (i, v) in self.visits.iter().enumerate() {
            w.u64(u64::from(v.node));
            v.parent().map(|(p, s)| (p as u64, s as u64)).encode(w);
            w.u64(u64::from(v.n_children));
            for c in self.children(i) {
                w.u64(c as u64);
            }
            w.bool(v.parallel);
            w.u64(u64::from(v.phase));
            w.u64(u64::from(v.n_phases));
            w.u64(u64::from(v.pending));
            v.phase_start.encode(w);
            w.u64(v.sojourn_ns);
            let recorded = match self.phases.is_empty() {
                true => &[][..],
                false => &self.phases[base..base + v.phase as usize],
            };
            w.u64(recorded.len() as u64);
            for rec in recorded {
                rec.encode(w);
            }
            base += v.n_phases as usize;
        }
    }

    /// Accepts only a preorder plan: the first visit is the only root,
    /// every parent precedes its child, each child list is exactly the
    /// preorder walk of that visit's subtree in slot order, indices fit
    /// in `u32`, phase counts match the child lists, and phase records
    /// are either absent or one per finished phase everywhere.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let corrupt = |msg: String| Err(SnapshotError::Corrupt(msg));
        let arrival = SimTime::decode(r)?;
        let n = r.len(1)?;
        if n == 0 {
            return corrupt("request has no visits".into());
        }
        let mut visits = Vec::with_capacity(n);
        let mut wire = Vec::with_capacity(n);
        for i in 0..n {
            let node = read_index(r, "visit node")?;
            let parent: Option<(u64, u64)> = Snapshot::decode(r)?;
            let children: Vec<u64> = Snapshot::decode(r)?;
            let parallel = r.bool()?;
            let phase = read_index(r, "visit phase")?;
            let n_phases = read_index(r, "visit phase count")?;
            let pending = read_index(r, "visit pending children")?;
            let phase_start = SimTime::decode(r)?;
            let sojourn_ns = r.u64()?;
            let records: Vec<(SimTime, SimTime)> = Snapshot::decode(r)?;
            let (parent_idx, slot) = match parent {
                None if i == 0 => (ROOT, 0),
                None => return corrupt(format!("visit {i} is a second root")),
                Some((p, s)) => {
                    let (Ok(p), Ok(s)) = (u32::try_from(p), u32::try_from(s)) else {
                        return corrupt(format!("visit {i} parent ({p}, {s}) exceeds u32"));
                    };
                    if p as usize >= i {
                        return corrupt(format!("visit {i} has parent {p} at or after it"));
                    }
                    (p, s)
                }
            };
            let Ok(n_children) = u32::try_from(children.len()) else {
                return corrupt(format!("visit {i} lists too many children"));
            };
            if pending > n_children {
                return corrupt(format!(
                    "visit waits on {pending} children but has {n_children}"
                ));
            }
            if n_phases != phases_for(n_children, parallel) || phase > n_phases {
                return corrupt(format!(
                    "visit {i} is at phase {phase} of {n_phases} with {n_children} children"
                ));
            }
            visits.push(Visit {
                node,
                parent: parent_idx,
                slot,
                end: narrow(i + 1),
                n_children,
                phase,
                n_phases,
                pending,
                parallel,
                phase_start,
                sojourn_ns,
            });
            wire.push(WireVisit {
                parent,
                children,
                records,
            });
        }
        close_subtrees(&mut visits);
        let mut req = Request {
            arrival,
            visits,
            phases: Vec::new(),
        };
        // Every listed child must be where the preorder walk finds it,
        // name its parent and slot, and every non-root visit must be
        // found exactly once.
        let mut found = 0;
        for (i, w) in wire.iter().enumerate() {
            let walk: Vec<usize> = req.children(i).collect();
            let matches = walk.len() == w.children.len()
                && walk
                    .iter()
                    .zip(&w.children)
                    .enumerate()
                    .all(|(k, (&c, &listed))| {
                        c as u64 == listed && wire[c].parent == Some((i as u64, k as u64))
                    });
            if !matches {
                return corrupt(format!(
                    "visit {i} lists children {:?}, its preorder subtree holds {walk:?}",
                    w.children
                ));
            }
            found += walk.len();
        }
        if found + 1 != n {
            return corrupt(format!(
                "{} of {n} visits hang off no parent",
                n - 1 - found
            ));
        }
        if wire.iter().any(|w| !w.records.is_empty()) {
            for (i, (v, w)) in req.visits.iter().zip(&wire).enumerate() {
                if w.records.len() != v.phase as usize {
                    return corrupt(format!(
                        "visit {i} recorded {} phases, finished {}",
                        w.records.len(),
                        v.phase
                    ));
                }
            }
            for (v, w) in req.visits.iter().zip(&wire) {
                req.phases.extend_from_slice(&w.records);
                let blank = (v.n_phases - v.phase) as usize;
                req.phases
                    .extend(std::iter::repeat_n((SimTime::ZERO, SimTime::ZERO), blank));
            }
        }
        Ok(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_workloads::apps;

    /// Every app's plans round-trip through the wire format, and the
    /// child walk of each visit names exactly the visits that point at it.
    #[test]
    fn app_plans_round_trip() {
        let mut planner = Planner::default();
        let mut rng = SimRng::from_seed(9);
        let mut req = Request::default();
        for service in [apps::ecommerce(), apps::snms(), apps::elgg(), apps::redis()] {
            for k in 0..50 {
                planner.plan(
                    &service,
                    &mut rng,
                    SimTime::from_nanos(k),
                    k % 2 == 0,
                    &mut req,
                );
                for i in 0..req.visits.len() {
                    let kids: Vec<usize> = req.children(i).collect();
                    let pointing: Vec<usize> = (0..req.visits.len())
                        .filter(|&c| req.visits[c].parent().map(|(p, _)| p) == Some(i))
                        .collect();
                    assert_eq!(kids, pointing);
                }
                let mut w = Writer::new();
                req.encode(&mut w);
                let bytes = w.into_bytes();
                let back = Request::decode(&mut Reader::new(&bytes)).expect("decodes");
                assert_eq!(back.visits, req.visits);
                let mut w2 = Writer::new();
                back.encode(&mut w2);
                assert_eq!(w2.into_bytes(), bytes);
            }
        }
    }
}
