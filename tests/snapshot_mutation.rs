//! Hostile snapshot bytes: mutations of real captures.
//!
//! Each of the six chaos scenarios (time-compressed twentyfold so a
//! debug build runs them in seconds) is captured at a barrier after its
//! faults, and the capture is mutated: single bit flips, container and
//! engine-stream length prefixes moved, a section duplicated or the
//! sections reordered, truncation at every section boundary, and
//! overlong, overflowing and cut-off forms of the varints that open a
//! latency histogram's stored range and the flight recorder's ring. For
//! every mutant, `ClusterSnapshot::from_bytes` + `ClusterRunner::resume`
//! must return a typed `SnapshotError` or a state that passes the
//! scheduler's checker; a resumed mutant then runs its last epochs,
//! which a debug build checks at every barrier. Nothing may panic, and
//! the heap decode + resume reach stays under a bound linear in the
//! input length.
//!
//! A counting global allocator measures that bound, so this file holds
//! one test: no other test of the binary allocates while it measures.

use rhythm::prelude::*;
use rhythm::snapshot::{SnapshotBuilder, Writer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the old and new block both live, as a copying
        // reallocation briefly holds them.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap growth allowed per input byte during decode + resume.
const HEAP_PER_INPUT_BYTE: usize = 4;
/// Heap a fresh replica needs whatever the input: its engine and the
/// flight recorder ring (64 Ki events of 16 bytes) that `Engine::new`
/// builds and its decode reserves again.
const HEAP_PER_REPLICA: usize = 2 << 20;

/// The capture barrier and the horizon of every compressed scenario:
/// faults land between 3 s and 8.8 s, the capture is at 10 s, and a
/// resumed mutant runs the last two 2 s epochs.
const CAPTURE_EPOCH: u32 = 5;
const HORIZON_S: u64 = 14;

/// Solr with fixed thresholds and the paper's 350 ms SLA: the offline
/// stage that would derive them takes longer in a debug build than the
/// whole test, and decoding does not depend on their values.
fn ctx() -> ServiceContext {
    let service = apps::solr();
    let thresholds = ServiceThresholds {
        contributions: Vec::new(),
        thresholds: vec![Thresholds::new(0.85, 0.1); service.len()],
        sla_ms: 350.0,
    };
    ServiceContext {
        service: Arc::new(service),
        sla_ms: thresholds.sla_ms,
        thresholds,
        seed: 0x5EED,
    }
}

/// The chaos library on 8 machines, every fault twenty times earlier;
/// one worker thread.
fn scenarios() -> Vec<(&'static str, ClusterConfig)> {
    Scenario::library(8, 0x5EED)
        .into_iter()
        .map(|s| {
            let mut c = s.cfg;
            c.duration_s = HORIZON_S;
            c.threads = 1;
            for e in &mut c.faults.events {
                e.at_s /= 20.0;
            }
            (s.name, c)
        })
        .collect()
}

/// One section of a parsed container: its name and body, and where its
/// header and body start in the file.
struct Section {
    name: String,
    body: Vec<u8>,
    header_at: usize,
    body_at: usize,
}

/// The container's sections, located by walking its framing (magic,
/// version, schema table, then `name, u64 length, bytes` per section).
fn sections(bytes: &[u8]) -> (Vec<(String, u64)>, Vec<Section>) {
    let file = SnapshotFile::parse(bytes).expect("the capture parses");
    let schemas = file.schemas().to_vec();
    let u64_at = |at: usize| {
        usize::try_from(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())).unwrap()
    };
    let mut at = 4 + 4 + 8;
    for (name, _) in &schemas {
        at += 8 + name.len() + 8;
    }
    at += 8;
    let mut out = Vec::new();
    for name in file.section_names() {
        let header_at = at;
        at += 8 + name.len();
        let len = u64_at(at);
        at += 8;
        out.push(Section {
            name: name.to_string(),
            body: bytes[at..at + len].to_vec(),
            header_at,
            body_at: at,
        });
        at += len;
    }
    assert_eq!(at, bytes.len(), "the walk covers the file");
    (schemas, out)
}

/// A container of `schemas` and the given sections, in order.
fn rebuild(schemas: &[(String, u64)], parts: &[(&str, &[u8])]) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    for (name, hash) in schemas {
        b.schema(name, *hash);
    }
    for (name, body) in parts {
        let mut w = Writer::new();
        w.raw(body);
        b.section(name, w);
    }
    b.finish()
}

/// Every mutant of `bytes`, each named.
fn mutants(bytes: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
    let (schemas, secs) = sections(bytes);
    let mut out = Vec::new();
    let mut rng = SimRng::from_seed(seed);
    let len = bytes.len() as u64;
    for _ in 0..96 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "below the buffer length, a usize"
        )]
        let at = rng.below(len) as usize;
        let bit = rng.below(8);
        let mut m = bytes.to_vec();
        m[at] ^= 1 << bit;
        out.push((format!("bit {bit} of byte {at} flipped"), m));
    }
    let set_u64 = |at: usize, v: u64| {
        let mut m = bytes.to_vec();
        m[at..at + 8].copy_from_slice(&v.to_le_bytes());
        m
    };
    for s in &secs {
        let len_at = s.body_at - 8;
        let n = s.body.len() as u64;
        for v in [0, n - 1, n + 1, 2 * n, u64::MAX] {
            out.push((
                format!("section `{}` length {n} → {v}", s.name),
                set_u64(len_at, v),
            ));
        }
    }
    // The engines section is `u64 count`, then `u64 length, bytes` per
    // engine stream.
    let engines = secs.iter().find(|s| s.name == "engines").expect("engines");
    let mut at = engines.body_at + 8;
    let mut stream = 0;
    while at < engines.body_at + engines.body.len() {
        let n = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        for v in [n - 1, n + 1] {
            out.push((
                format!("engine stream {stream} length {n} → {v}"),
                set_u64(at, v),
            ));
        }
        at += 8 + usize::try_from(n).unwrap();
        stream += 1;
    }
    let parts: Vec<(&str, &[u8])> = secs
        .iter()
        .map(|s| (s.name.as_str(), &s.body[..]))
        .collect();
    let streams = engine_streams(&engines.body);
    for (what, stream) in varint_edits(&streams[0]) {
        let mut edited = streams.clone();
        edited[0] = stream;
        let mut body = Writer::new();
        body.u64(edited.len() as u64);
        for e in &edited {
            body.bytes(e);
        }
        let body = body.into_bytes();
        let swapped: Vec<(&str, &[u8])> = parts
            .iter()
            .map(|&(n, b)| (n, if n == "engines" { &body[..] } else { b }))
            .collect();
        out.push((
            format!("engine stream 0: {what}"),
            rebuild(&schemas, &swapped),
        ));
    }
    for (i, s) in secs.iter().enumerate() {
        let mut dup = parts.clone();
        dup.insert(i + 1, (s.name.as_str(), &s.body));
        out.push((
            format!("section `{}` duplicated", s.name),
            rebuild(&schemas, &dup),
        ));
    }
    let mut reversed = parts.clone();
    reversed.reverse();
    out.push(("sections reversed".into(), rebuild(&schemas, &reversed)));
    for s in &secs {
        for cut in [
            s.header_at,
            s.body_at - 1,
            s.body_at,
            s.body_at + s.body.len() - 1,
        ] {
            out.push((
                format!("cut at byte {cut} (section `{}`)", s.name),
                bytes[..cut].to_vec(),
            ));
        }
    }
    out
}

/// The engine streams of an `engines` section body.
fn engine_streams(body: &[u8]) -> Vec<Vec<u8>> {
    let mut r = rhythm::snapshot::Reader::new(body);
    let n = r.u64().unwrap();
    (0..n).map(|_| r.bytes().unwrap().to_vec()).collect()
}

/// The varint starting at `at` rewritten overlong (a redundant zero
/// group), overflowing (ten groups past `u64::MAX`) and cut off (the
/// stream ends after a byte that promises more).
fn varint_forms(stream: &[u8], at: usize, what: &str) -> Vec<(String, Vec<u8>)> {
    let end = at + stream[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let mut overlong = stream[..end].to_vec();
    overlong[end - 1] |= 0x80;
    overlong.push(0);
    overlong.extend_from_slice(&stream[end..]);
    let overflow = [&stream[..at], &[0xff; 9][..], &[0x02], &stream[end..]].concat();
    let mut cut = stream[..=at].to_vec();
    cut[at] |= 0x80;
    vec![
        (format!("{what} overlong"), overlong),
        (format!("{what} overflowing"), overflow),
        (format!("{what} cut off"), cut),
    ]
}

/// Varint edits of one engine stream: at the first histogram's stored
/// range (after its 16-byte layout) and at the flight recorder's first
/// slot time (after `enabled`, the 65,536-slot capacity and `seq`).
fn varint_edits(stream: &[u8]) -> Vec<(String, Vec<u8>)> {
    let find = |needle: &[u8]| {
        stream
            .windows(needle.len())
            .position(|w| w == needle)
            .map(|p| p + needle.len())
    };
    let mut layout = Writer::new();
    LatencyHistogram::new().encode(&mut layout);
    let layout = &layout.into_bytes()[..16];
    let ring = [&[1][..], &65_536u64.to_le_bytes()].concat();
    let hist_at = find(layout).expect("the stream holds a histogram");
    let ring_at = find(&ring).expect("the stream holds a live recorder") + 8;
    let mut out = varint_forms(stream, hist_at, "histogram first bucket");
    out.extend(varint_forms(stream, ring_at, "first ring slot time"));
    out
}

/// Decodes and resumes `bytes` under `cfg`, then runs what resumed to
/// the horizon. Returns whether it resumed and the heap the decode and
/// resume reached above where they started.
fn try_resume(ctx: &ServiceContext, cfg: &ClusterConfig, bytes: &[u8]) -> (bool, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let runner = ClusterSnapshot::from_bytes(bytes)
        .and_then(|snap| ClusterRunner::resume(&snap, ctx, &ControllerChoice::Rhythm, cfg));
    let reach = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    match runner {
        Ok(runner) => {
            runner.run();
            (true, reach)
        }
        Err(_) => (false, reach),
    }
}

#[test]
fn mutated_captures_fail_typed_or_resume_clean() {
    let ctx = ctx();
    for (k, (name, cfg)) in scenarios().into_iter().enumerate() {
        let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg)
            .snapshot_at(CAPTURE_EPOCH)
            .run();
        let bytes = run.snapshots[0].1.to_bytes();
        let budget = HEAP_PER_INPUT_BYTE * bytes.len() + HEAP_PER_REPLICA * cfg.machines / 2;
        let (resumed, reach) = try_resume(&ctx, &cfg, &bytes);
        assert!(resumed, "{name}: the clean capture resumes");
        assert!(
            reach <= budget,
            "{name}: the clean capture reached {reach} B"
        );
        let mut outcomes = [0usize; 2];
        for (what, m) in mutants(&bytes, k as u64) {
            let got = catch_unwind(AssertUnwindSafe(|| try_resume(&ctx, &cfg, &m)));
            let Ok((resumed, reach)) = got else {
                panic!("{name}: {what}: decode, resume or the resumed run panicked");
            };
            assert!(
                reach <= budget,
                "{name}: {what}: decode + resume reached {reach} B of heap, over {budget} B \
                 for {} input bytes",
                m.len()
            );
            let varint_edit = ["overlong", "overflowing", "cut off"]
                .iter()
                .any(|form| what.ends_with(form));
            assert!(!(varint_edit && resumed), "{name}: {what} resumed");
            outcomes[usize::from(resumed)] += 1;
        }
        assert!(outcomes[0] > 0, "{name}: some mutant is refused");
    }
}
