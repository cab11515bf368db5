//! Allocation budgets of the durable cell's buffers, counted by a
//! global allocator.
//!
//! Only allocations made by a thread inside [`measure`] are counted, so
//! the counts are those of one single-threaded call and do not depend on
//! the other tests of this binary running beside it. Pinned:
//! * each telemetry export reserves its output once and never grows it
//!   (one final shrink to its length is allowed), and no allocation
//!   exceeds twice the output;
//! * `ClusterSnapshot::to_bytes` allocates its output exactly once;
//! * `ClusterSnapshot::from_bytes` allocates the engine streams plus at
//!   most four bytes per byte of the rest of the container (the decoded
//!   scheduler, summaries and tail), plus 4 KiB: a second copy of the
//!   sections does not fit.

use rhythm::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// What one measured call asked of the allocator.
#[derive(Clone, Copy, Debug, Default)]
struct Stats {
    /// Fresh allocations.
    allocs: usize,
    /// Reallocations to a larger size.
    grows: usize,
    /// Reallocations to a smaller size.
    shrinks: usize,
    /// Bytes requested: every allocation's size plus every growth.
    bytes: usize,
    /// The largest single request.
    largest: usize,
    /// Fresh allocations of at least `big` bytes.
    big_allocs: usize,
    /// Reallocations to at least `big` bytes.
    big_reallocs: usize,
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BIG: Cell<usize> = const { Cell::new(usize::MAX) };
    static STATS: Cell<Stats> = const {
        Cell::new(Stats {
            allocs: 0,
            grows: 0,
            shrinks: 0,
            bytes: 0,
            largest: 0,
            big_allocs: 0,
            big_reallocs: 0,
        })
    };
}

/// Applies `f` to this thread's stats if it is measuring.
fn note(f: impl FnOnce(&mut Stats, usize)) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let big = BIG.with(Cell::get);
        STATS.with(|s| {
            let mut st = s.get();
            f(&mut st, big);
            s.set(st);
        });
    }
}

/// The system allocator, counting the measuring thread's requests.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are const-initialised thread-locals without destructors, which never
// allocate and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(|st, big| {
            st.allocs += 1;
            st.bytes += layout.size();
            st.largest = st.largest.max(layout.size());
            st.big_allocs += usize::from(layout.size() >= big);
        });
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|st, big| {
            if new_size > layout.size() {
                st.grows += 1;
                st.bytes += new_size - layout.size();
            } else {
                st.shrinks += 1;
            }
            st.largest = st.largest.max(new_size);
            st.big_reallocs += usize::from(new_size >= big);
        });
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` on this thread, counting its allocations; requests of at
/// least `big` bytes are also counted apart.
fn measure<T>(big: usize, f: impl FnOnce() -> T) -> (T, Stats) {
    STATS.with(|s| s.set(Stats::default()));
    BIG.with(|b| b.set(big));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, STATS.with(Cell::get))
}

/// A 4-machine Solr cell with full telemetry and a machine crash, on
/// one worker thread, captured at epoch 4; fixed thresholds stand in
/// for the offline stage, which a debug build would take seconds over.
fn cell() -> ClusterRun {
    let service = apps::solr();
    let thresholds = ServiceThresholds {
        contributions: Vec::new(),
        thresholds: vec![Thresholds::new(0.85, 0.1); service.len()],
        sla_ms: 350.0,
    };
    let ctx = ServiceContext {
        service: Arc::new(service),
        sla_ms: thresholds.sla_ms,
        thresholds,
        seed: 0xA110C,
    };
    let mut c = ClusterConfig::new(4).with_scaled_jobs(0.02);
    c.duration_s = 12;
    c.load = LoadGen::constant(0.6);
    c.threads = 1;
    c.telemetry = TelemetryConfig::full();
    c.faults = FaultPlan::new().crash(4.0, 1).recover(8.0, 1);
    ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
        .snapshot_at(4)
        .run()
}

#[test]
fn exports_reserve_their_output_once() {
    let run = cell();
    let tel = run.outcome.telemetry.as_ref().expect("telemetry on");
    let (jsonl, js) = measure(usize::MAX, || tel.export_jsonl());
    let (chrome, cs) = measure(usize::MAX, || tel.chrome_trace());
    assert!(jsonl.lines().any(|l| l.contains("\"cluster_event\"")));
    for (name, text, st) in [("jsonl", &jsonl, js), ("chrome", &chrome, cs)] {
        assert_eq!(st.grows, 0, "{name}: the output grew: {st:?}");
        assert!(
            st.shrinks <= 1,
            "{name}: more than one final shrink: {st:?}"
        );
        assert!(
            st.largest <= 2 * text.len(),
            "{name}: a {} B request for {} B of text",
            st.largest,
            text.len()
        );
        assert_eq!(text.capacity(), text.len(), "{name}: spare room kept");
    }
}

#[test]
fn capture_encodes_into_one_allocation() {
    let run = cell();
    let snap = &run.snapshots[0].1;
    let len = snap.to_bytes().len();
    let (bytes, st) = measure(len, || snap.to_bytes());
    assert_eq!(bytes.len(), len);
    assert_eq!(
        (st.big_allocs, st.big_reallocs),
        (1, 0),
        "the {len} B container is allocated once: {st:?}"
    );
}

#[test]
fn capture_decode_copies_each_engine_stream_once() {
    let run = cell();
    let bytes = run.snapshots[0].1.to_bytes();
    let engines: usize = run.snapshots[0].1.engines.iter().map(Vec::len).sum();
    let (snap, st) = measure(usize::MAX, || ClusterSnapshot::from_bytes(&bytes));
    assert_eq!(snap.expect("the capture decodes").engines.len(), 2);
    let rest = bytes.len() - engines;
    let budget = engines + 4 * rest + (4 << 10);
    assert!(
        st.bytes <= budget,
        "decode of {} B ({engines} B of engine streams) asked for {} B, over {budget} B: {st:?}",
        bytes.len(),
        st.bytes
    );
}
