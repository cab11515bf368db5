//! Property-based tests (proptest) over the core invariants.
//!
//! DESIGN.md §6 lists the invariants: event-calendar ordering, histogram
//! quantile bounds, tracer mean-sojourn invariance (the §3.3 identity),
//! contribution/threshold monotonicity, Algorithm 1's windowed
//! parallel scan against its sequential search, machine resource-accounting
//! safety under arbitrary controller action sequences, and the cluster
//! queue's EDF-within-priority total order (with aging anti-starvation
//! and class preservation across StopBE requeues), and the engine's
//! worker-busy integrals stay bounded and monotone. Differential tests
//! hold the tracer pipeline, the latency histogram, the tail window and
//! the request planner to in-test copies of their earlier
//! implementations, bit for bit.
//!
//! The final block runs whole cluster simulations per case (capped via
//! `proptest_config`) and checks the chaos invariants of DESIGN.md §13:
//! any fault plan leaves the run bit-reproducible across worker-thread
//! layouts, and the job ledger's recovery accounting
//! never wastes more than one checkpoint interval per kill.

mod dense_codec;

use proptest::prelude::*;
use rhythm::analyzer::find_loadlimit;
use rhythm::analyzer::slacklimit::find_slacklimits;
use rhythm::cluster::{
    run_cluster, ClusterConfig, ClusterJob, FaultPlan, JobQueue, JobState, SchedulerState,
};
use rhythm::controller::Thresholds;
use rhythm::core::experiment::{ControllerChoice, ServiceContext};
use rhythm::core::profiling::windowed_slacklimits;
use rhythm::core::{ControlMode, Engine, EngineConfig};
use rhythm::machine::{Allocation, Machine, MachineSpec};
use rhythm::sim::SimRng;
use rhythm::sim::{Arena, Calendar, LatencyHistogram, SimDuration, SimTime};
use rhythm::telemetry::json;
use rhythm::tracer::capture::{chain_visit, CaptureConfig, EventCapture, VisitLog, VisitNode};
use rhythm::tracer::Pairer;
use rhythm::workloads::{apps, BeKind, BeSpec, LoadGen};
use std::sync::OnceLock;

proptest! {
    #[test]
    fn calendar_pop_order_matches_sorted_oracle(
        ops in prop::collection::vec((0u8..10, 0usize..4, 0u64..64), 1..400),
        snap_at in 0usize..400,
    ) {
        // Each op is `(kind, scale, x)` with `t = x · SCALE[scale]`: zero
        // (same-instant ties) or µs, ms or 100 ms steps. Kinds 0–4
        // schedule at `now + t`; 5 at the absolute time `t`, usually
        // already past, so it clamps to `now`; 6–7 pop; 8 pops if due by
        // `now + t`; 9 pops if due by the absolute `t` (or `MAX` at the
        // largest scale).
        const SCALE: [u64; 4] = [0, 1_000, 1_000_000, 100_000_000];
        use rhythm::snapshot::{Reader, Snapshot, Writer};
        let mut cal: Calendar<u64> = Calendar::new();
        // The oracle: pending `(max(at, now), seq)` kept sorted, so the
        // front is always the next event due.
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let (mut now, mut next_seq) = (0u64, 0u64);
        let mut got: Vec<Option<(u64, u64)>> = Vec::new();
        let mut want: Vec<Option<(u64, u64)>> = Vec::new();
        for (i, &(kind, scale, x)) in ops.iter().enumerate() {
            if i == snap_at % ops.len() {
                let mut w = Writer::new();
                cal.encode(&mut w);
                let bytes = w.into_bytes();
                cal = Calendar::decode(&mut Reader::new(&bytes)).unwrap();
                let mut again = Writer::new();
                cal.encode(&mut again);
                prop_assert_eq!(again.into_bytes(), bytes);
            }
            let t = x * SCALE[scale];
            match kind {
                0..=5 => {
                    let at = if kind == 5 { t } else { now + t };
                    cal.schedule(SimTime::from_nanos(at), next_seq);
                    let key = (at.max(now), next_seq);
                    let pos = pending.partition_point(|&p| p < key);
                    pending.insert(pos, key);
                    next_seq += 1;
                }
                _ => {
                    let limit = match kind {
                        6 | 7 => u64::MAX,
                        8 => now + t,
                        _ if scale == 3 => u64::MAX,
                        _ => t,
                    };
                    let popped = if kind <= 7 {
                        cal.pop()
                    } else {
                        cal.pop_if_at_or_before(SimTime::from_nanos(limit))
                    };
                    got.push(popped.map(|(at, id)| (at.as_nanos(), id)));
                    let due = pending.first().is_some_and(|&(at, _)| at <= limit);
                    let expect = due.then(|| pending.remove(0));
                    if let Some((at, _)) = expect {
                        now = at;
                    }
                    want.push(expect);
                }
            }
            prop_assert_eq!(cal.len(), pending.len());
            prop_assert_eq!(cal.now(), SimTime::from_nanos(now));
        }
        while let Some((at, id)) = cal.pop() {
            got.push(Some((at.as_nanos(), id)));
        }
        want.extend(pending.drain(..).map(Some));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn calendar_is_fifo_for_equal_times(n in 1usize..100) {
        let mut cal = Calendar::new();
        let t = SimTime::from_millis(5);
        for i in 0..n {
            cal.schedule(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn histogram_quantile_bounded_by_extremes(values in prop::collection::vec(0.001f64..1e6, 1..500), p in 0.0f64..1.0) {
        let mut h = LatencyHistogram::new();
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for &v in &values {
            h.record(v);
            min = min.min(v);
            max = max.max(v);
        }
        let q = h.quantile(p);
        // Within the histogram's relative error of the true range.
        prop_assert!(q <= max * 1.001 + 1e-9, "q={q} max={max}");
        prop_assert!(q >= min * 0.97 - 1e-9, "q={q} min={min}");
    }

    #[test]
    fn histogram_quantiles_are_monotone_in_p(values in prop::collection::vec(0.01f64..1e4, 2..300)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0.0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            prop_assert!(q >= last - 1e-12);
            last = q;
        }
    }

    /// Splitting a stream of observations at any point and merging the
    /// two halves must reproduce the single-histogram sketch exactly
    /// (count, sum, max and every quantile) — the engine relies on this
    /// when windowed histograms are folded into run totals.
    #[test]
    fn histogram_merge_round_trips(values in prop::collection::vec(0.01f64..1e5, 1..400), split_at in 0usize..400) {
        let split = split_at.min(values.len());
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < split { left.record(v) } else { right.record(v) }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        // Sums differ only by float re-association at the split point.
        prop_assert!((left.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().max(1.0));
        prop_assert_eq!(left.max(), whole.max());
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            prop_assert_eq!(left.quantile(p), whole.quantile(p), "p={}", p);
        }
    }

    /// The request arena never hands out a key that aliases a live slot:
    /// live keys are pairwise distinct, stale keys observe `None`
    /// forever, and every live key reads back its own value — under
    /// arbitrary insert/remove/stale-probe interleavings.
    #[test]
    fn arena_never_reuses_a_live_slot(ops in prop::collection::vec(0u8..4, 1..300)) {
        let mut arena: Arena<u64> = Arena::new();
        let mut live: Vec<(rhythm::sim::arena::Key, u64)> = Vec::new();
        let mut stale: Vec<rhythm::sim::arena::Key> = Vec::new();
        let mut stamp = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                // Insert (biased: two opcodes) so the slab both grows and
                // recycles.
                0 | 1 => {
                    stamp += 1;
                    let k = arena.insert(stamp);
                    prop_assert!(!live.iter().any(|&(l, _)| l == k), "key reissued while live");
                    live.push((k, stamp));
                }
                2 => {
                    if !live.is_empty() {
                        let (k, v) = live.swap_remove(i % live.len());
                        prop_assert_eq!(arena.remove(k), Some(v));
                        stale.push(k);
                    }
                }
                _ => {
                    if let Some(&k) = stale.get(i % stale.len().max(1)) {
                        prop_assert_eq!(arena.get(k), None, "stale key resolved");
                        prop_assert!(!arena.contains(k));
                    }
                }
            }
            prop_assert_eq!(arena.len(), live.len());
            for &(k, v) in &live {
                prop_assert_eq!(arena.get(k), Some(&v));
            }
        }
        // Slots, not keys, are recycled: capacity never exceeds the
        // high-water mark of simultaneously live values plus frees.
        prop_assert!(arena.capacity() <= ops.len());
    }

    /// Merging shards must not degrade accuracy: every quantile of the
    /// merged sketch stays within the advertised relative error of the
    /// exact quantile over the union of observations. The cluster runner
    /// relies on this when per-replica epoch windows are folded into the
    /// cluster-wide tail series.
    #[test]
    fn histogram_merged_quantiles_within_advertised_error(
        a in prop::collection::vec(0.01f64..1e5, 1..300),
        b in prop::collection::vec(0.01f64..1e5, 1..300),
    ) {
        let err = 0.01; // LatencyHistogram::new()'s advertised bound
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        ha.merge(&hb);
        let mut union: Vec<f64> = a.iter().chain(&b).copied().collect();
        union.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let rank = ((p * union.len() as f64).ceil() as usize).clamp(1, union.len());
            let exact = union[rank - 1];
            let approx = ha.quantile(p);
            // Bucket boundaries give one gamma factor of slack on top of
            // the per-value error, hence 2.5 * err.
            prop_assert!(
                (approx - exact).abs() <= exact * 2.5 * err + 1e-9,
                "p={p} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn histogram_merge_count_is_additive(a in prop::collection::vec(0.01f64..1e4, 0..200), b in prop::collection::vec(0.01f64..1e4, 0..200)) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        let (ca, cb) = (ha.count(), hb.count());
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), ca + cb);
    }

    /// The §3.3 identity: under a non-blocking single-threaded server
    /// with persistent connections, FIFO pairing preserves total (and
    /// hence mean) residence time per Servpod, for arbitrary request
    /// overlap patterns.
    #[test]
    fn tracer_mean_sojourn_invariance(
        offsets in prop::collection::vec(0u64..40, 1..30),
        pod1_ms in prop::collection::vec(1u64..30, 1..30),
    ) {
        let n = offsets.len().min(pod1_ms.len());
        let mut requests = Vec::new();
        let mut t = 0u64;
        for i in 0..n {
            t += offsets[i];
            let mid = pod1_ms[i];
            // Chain: pod0 (1 ms pre, 1 ms post) -> pod1 (mid ms).
            requests.push(chain_visit(
                &[0, 1],
                &[
                    vec![
                        (SimTime::from_millis(t), SimTime::from_millis(t + 1)),
                        (SimTime::from_millis(t + 1 + mid), SimTime::from_millis(t + 2 + mid)),
                    ],
                    vec![(SimTime::from_millis(t + 1), SimTime::from_millis(t + 1 + mid))],
                ],
            ));
        }
        let mut cap = EventCapture::new(
            CaptureConfig {
                non_blocking: true,
                persistent_connections: true,
                noise_events_per_request: 3,
                ..CaptureConfig::default()
            },
            42,
        );
        let mut truth = std::collections::BTreeMap::new();
        for r in &requests {
            cap.record_request(r);
            r.accumulate_sojourns(&mut truth);
        }
        let out = Pairer::new(0).pair(&cap.finish());
        for (pod, sojourns) in truth {
            let expect: f64 = sojourns.iter().sum();
            let got = out.total_residence(pod);
            prop_assert!((got - expect).abs() < 1e-6, "pod {pod}: {got} vs {expect}");
        }
    }

    #[test]
    fn loadlimit_is_one_of_the_loads(covs in prop::collection::vec(0.01f64..3.0, 2..40)) {
        let loads: Vec<f64> = (1..=covs.len()).map(|i| i as f64 / covs.len() as f64).collect();
        let ll = find_loadlimit(&loads, &covs);
        prop_assert!(loads.iter().any(|&l| (l - ll).abs() < 1e-12));
    }

    #[test]
    fn slacklimits_are_valid_fractions(contribs in prop::collection::vec(0.0f64..10.0, 1..8), stop_at in 0.05f64..0.95) {
        let r = find_slacklimits(&contribs, |cand| {
            cand.iter().sum::<f64>() / (cand.len() as f64) < stop_at
        });
        for &s in &r.slacklimits {
            prop_assert!((0.0..=1.0).contains(&s), "{s}");
        }
    }

    /// Algorithm 1 scanned in windows of 1-4 parallel probation runs
    /// settles exactly where the sequential search does, for any
    /// violation predicate, monotone in the descent or not: the same
    /// slacklimits and step sizes bit for bit, the same `trials` and the
    /// same `hit_violation`.
    #[test]
    fn windowed_slacklimits_match_sequential_search(
        contribs in prop::collection::vec(0.0f64..10.0, 1..8),
        salt in any::<u64>(),
        rate in 0u64..=8,
        width in 1usize..=4,
    ) {
        // Violates on a pseudo-random eighth-fraction `rate` of the
        // candidates, keyed on their bits: never (0) to always (8).
        let violated = |cand: &[f64]| {
            let h = cand.iter().fold(salt, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3).rotate_left(29)
            });
            h % 8 < rate
        };
        let seq = find_slacklimits(&contribs, violated);
        let win = windowed_slacklimits(&contribs, width, violated);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&win.slacklimits), bits(&seq.slacklimits));
        prop_assert_eq!(bits(&win.step_sizes), bits(&seq.step_sizes));
        prop_assert_eq!(win.trials, seq.trials);
        prop_assert_eq!(win.hit_violation, seq.hit_violation);
    }

    /// Machine resource accounting stays consistent under arbitrary
    /// interleavings of admit / grow / cut / suspend / resume / kill.
    #[test]
    fn machine_invariants_under_arbitrary_ops(ops in prop::collection::vec(0u8..6, 1..120), lc_cores in 1u32..30) {
        let mut m = Machine::new(
            MachineSpec::paper_testbed(),
            Allocation {
                cores: lc_cores,
                llc_ways: 0,
                mem_mb: 16 * 1024,
                net_mbps: 500.0,
                freq_mhz: 2_000,
            },
        );
        let mut ids: Vec<u64> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let pick = |ids: &Vec<u64>| ids.get(i % ids.len().max(1)).copied();
            match op {
                0 => {
                    if let Ok(id) = m.admit_be("job", Allocation {
                        cores: 1 + (i as u32 % 3),
                        llc_ways: (i as u32 % 4) * 2,
                        mem_mb: 1024,
                        net_mbps: 0.0,
                        freq_mhz: 2_000,
                    }) {
                        ids.push(id);
                    }
                }
                1 => {
                    if let Some(id) = pick(&ids) {
                        let _ = m.grow_be(id, Allocation::cores_and_llc(1, 2));
                    }
                }
                2 => {
                    if let Some(id) = pick(&ids) {
                        let _ = m.cut_be(id, Allocation::cores_and_llc(1, 2));
                    }
                }
                3 => {
                    if let Some(id) = pick(&ids) {
                        let _ = m.suspend_be(id);
                    }
                }
                4 => {
                    if let Some(id) = pick(&ids) {
                        let _ = m.resume_be(id);
                    }
                }
                _ => {
                    if let Some(id) = pick(&ids) {
                        let _ = m.kill_be(id);
                        ids.retain(|&x| x != id);
                    }
                }
            }
            prop_assert!(m.check_invariants().is_ok(), "after op {op} at step {i}: {:?}", m.check_invariants());
        }
        // StopBE from any state releases everything.
        m.kill_all_be();
        prop_assert_eq!(m.be_count(), 0);
        prop_assert_eq!(m.cat().be_ways(), 0);
        prop_assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn pressure_is_bounded(cores in prop::collection::vec(1u32..6, 0..10)) {
        use rhythm::interference::Pressure;
        use rhythm::workloads::{BeKind, BeSpec};
        let mut m = Machine::new(
            MachineSpec::paper_testbed(),
            Allocation { cores: 8, llc_ways: 0, mem_mb: 8 * 1024, net_mbps: 100.0, freq_mhz: 2_000 },
        );
        let spec = BeSpec::of(BeKind::StreamDram { big: true });
        let mut specs = std::collections::BTreeMap::new();
        specs.insert(spec.name.clone(), spec.clone());
        for &c in &cores {
            let _ = m.admit_be(&spec.name, Allocation {
                cores: c, llc_ways: 0, mem_mb: 512, net_mbps: 0.0, freq_mhz: 2_000,
            });
        }
        let p = Pressure::from_machine(&m, &specs);
        for v in [p.cpu, p.llc, p.dram, p.net] {
            prop_assert!((0.0..=1.0).contains(&v), "{p:?}");
        }
    }

    #[test]
    fn queue_pops_edf_within_priority(jobs in prop::collection::vec((0u8..4, 0u64..3, 1u64..1000), 1..60)) {
        // Pop order is a total order: class (highest first), then
        // deadline (earliest first, undated last), then submission order.
        let meta: Vec<(u8, Option<f64>)> = jobs
            .iter()
            .map(|&(p, dated, d)| (p, (dated > 0).then_some(d as f64)))
            .collect();
        let mut q = JobQueue::new();
        for (i, &(p, dl)) in meta.iter().enumerate() {
            q.submit_with(i as u64, p, dl, 0.0);
        }
        let mut popped = Vec::new();
        while let Some(id) = q.pop() {
            popped.push(id);
        }
        prop_assert_eq!(popped.len(), meta.len());
        let key = |id: u64| {
            let (p, dl) = meta[id as usize];
            (u8::MAX - p, dl.map(f64::to_bits).unwrap_or(u64::MAX), id)
        };
        for w in popped.windows(2) {
            prop_assert!(
                key(w[0]) < key(w[1]),
                "pop order violated: {} (key {:?}) before {} (key {:?})",
                w[0], key(w[0]), w[1], key(w[1])
            );
        }
    }

    #[test]
    fn queue_aging_prevents_starvation(aging in 4.0f64..20.0, arrivals_per_epoch in 1usize..3) {
        // A lone class-0 job under a continuous stream of class-3
        // arrivals must still pop in bounded time — the lowest class
        // cannot starve. The arrivals age too, so the bound is not just
        // "three classes of aging": with one pop per epoch and `a`
        // arrivals per epoch, the oldest unserved arrival is about
        // (1 - 1/a)·e epochs old at epoch e, and the class-0 job
        // overtakes it once 2e/aging ≥ 3 + 2(1-1/a)e/aging, i.e. around
        // e = 3·aging·a/2 (epoch = 2 s); a few epochs of slack absorb
        // the floor() boundaries.
        let mut q = JobQueue::with_aging(aging);
        q.submit_with(0, 0, None, 0.0);
        let mut next_id = 1u64;
        let epoch = 2.0;
        let bound = (3.0 * aging * arrivals_per_epoch as f64 / epoch).ceil() as usize + 6;
        let mut popped_low = false;
        for e in 0..bound {
            let now = e as f64 * epoch;
            q.age(now);
            for _ in 0..arrivals_per_epoch {
                q.submit_with(next_id, 3, None, now);
                next_id += 1;
            }
            if q.pop() == Some(0) {
                popped_low = true;
                break;
            }
        }
        prop_assert!(
            popped_low,
            "class-0 job starved for {bound} epochs under continuous class-3 arrivals (aging {aging})"
        );
    }

    #[test]
    fn queue_requeue_preserves_class_and_order(
        jobs in prop::collection::vec((0u8..4, 0u64..3, 1u64..1000), 2..40),
        take in 1usize..10,
    ) {
        // StopBE pops and requeues work: the requeued jobs keep their
        // (class, deadline) rank, go in front of same-rank jobs that
        // never left, and keep their relative order among themselves.
        let meta: Vec<(u8, Option<f64>)> = jobs
            .iter()
            .map(|&(p, dated, d)| (p, (dated > 0).then_some(d as f64)))
            .collect();
        let mut q = JobQueue::new();
        for (i, &(p, dl)) in meta.iter().enumerate() {
            q.submit_with(i as u64, p, dl, 0.0);
        }
        let mut killed = Vec::new();
        for _ in 0..take.min(meta.len()) {
            if let Some(id) = q.pop() {
                killed.push(id);
            }
        }
        // Requeue in reverse pop order (as the dispatcher withdraws
        // offers) so the original relative order is restored.
        for &id in killed.iter().rev() {
            q.requeue(id);
        }
        let mut popped = Vec::new();
        while let Some(id) = q.pop() {
            popped.push(id);
        }
        prop_assert_eq!(popped.len(), meta.len());
        let rank = |id: u64| {
            let (p, dl) = meta[id as usize];
            (u8::MAX - p, dl.map(f64::to_bits).unwrap_or(u64::MAX))
        };
        let pos = |id: u64| popped.iter().position(|&x| x == id).unwrap();
        // The (class, deadline) total order survives the requeues.
        for w in popped.windows(2) {
            prop_assert!(rank(w[0]) <= rank(w[1]), "rank order violated after requeue");
        }
        // Requeued jobs precede same-rank jobs that never left the
        // queue, and keep their mutual pop order.
        for &k in &killed {
            for other in 0..meta.len() as u64 {
                if !killed.contains(&other) && rank(other) == rank(k) {
                    prop_assert!(
                        pos(k) < pos(other),
                        "requeued {k} should precede untouched same-rank {other}"
                    );
                }
            }
        }
        for w in killed.windows(2) {
            if rank(w[0]) == rank(w[1]) {
                prop_assert!(pos(w[0]) < pos(w[1]), "requeued jobs lost their mutual order");
            }
        }
    }
}

/// One of four engine cell shapes: three services in solo mode plus the
/// managed, co-located e-commerce cell, whose controller path exercises
/// BE worker transitions on top of the LC phase traffic.
fn engine_cell(kind: u8, load: f64, secs: u64, seed: u64) -> Engine {
    let service = match kind % 4 {
        1 => apps::solr(),
        2 => apps::snms(),
        _ => apps::ecommerce(),
    };
    let mut cfg = EngineConfig::solo(load, secs, seed);
    if kind % 4 == 3 {
        cfg.bes = vec![BeSpec::of(BeKind::Wordcount)];
        cfg.sla_ms = 400.0;
        cfg.mode = ControlMode::Managed {
            thresholds: vec![Thresholds::new(0.9, 0.05); service.len()],
        };
    }
    Engine::new(service, cfg)
}

proptest! {
    /// Utilization invariants of the worker-busy integrals: a node never
    /// accumulates more busy time than `workers × elapsed`, and its
    /// integral never decreases as the run advances.
    #[test]
    fn busy_integrals_bounded_and_monotone(
        (kind, load, secs, seed) in (any::<u8>(), 0.2f64..0.95, 6u64..16, any::<u64>()),
        steps in 3usize..9,
    ) {
        let mut e = engine_cell(kind, load, secs, seed);
        let mut prev = vec![0u128; e.machine_count()];
        for s in 1..=steps {
            let t = SimTime::ZERO
                + SimDuration::from_secs_f64(secs as f64 * s as f64 / steps as f64);
            e.run_until(t);
            for (i, p) in prev.iter_mut().enumerate() {
                let a = e.busy_area_ns(i);
                prop_assert!(a >= *p, "node {} integral decreased", i);
                prop_assert!(
                    a <= u128::from(e.node_workers(i)) * u128::from(t.as_nanos()),
                    "node {} busier than workers × elapsed",
                    i
                );
                *p = a;
            }
        }
    }
}

/// The engine's visit planner before visits went flat, kept as the
/// differential oracle for `Planner::plan`: a DFS that creates each
/// visit when it pops it, with explicit child lists wired afterwards,
/// plus the per-visit snapshot encoding of that layout.
mod plan_oracle {
    use rhythm::sim::{SimRng, SimTime};
    use rhythm::snapshot::{Snapshot, Writer};
    use rhythm::workloads::ServiceSpec;

    pub struct Visit {
        pub node: usize,
        pub parent: Option<(usize, usize)>,
        pub children: Vec<usize>,
        pub parallel: bool,
        pub n_phases: usize,
    }

    pub fn plan_visits(service: &ServiceSpec, rng: &mut SimRng) -> Vec<Visit> {
        let mut visits: Vec<Visit> = Vec::new();
        // Stack of (node, parent visit, child slot).
        let mut stack: Vec<(usize, Option<(usize, usize)>)> = vec![(ServiceSpec::ENTRY, None)];
        let mut sampled = Vec::new();
        while let Some((node, parent)) = stack.pop() {
            let spec = &service.nodes[node];
            sampled.clear();
            for call in &spec.calls {
                if call.probability >= 1.0 || rng.chance(call.probability) {
                    sampled.push(call.target);
                }
            }
            let idx = visits.len();
            let n_phases = if sampled.is_empty() {
                1
            } else if spec.parallel {
                2
            } else {
                sampled.len() + 1
            };
            visits.push(Visit {
                node,
                parent,
                children: Vec::new(),
                parallel: spec.parallel,
                n_phases,
            });
            // Push in reverse so the LIFO stack creates sibling visits in
            // call order.
            for (slot, &child) in sampled.iter().enumerate().rev() {
                stack.push((child, Some((idx, slot))));
            }
        }
        // Wire children arrays (the stack pushed children after parents,
        // so parent indices are valid).
        for i in 0..visits.len() {
            if let Some((p, _)) = visits[i].parent {
                visits[p].children.push(i);
            }
        }
        visits
    }

    /// The snapshot bytes of a request planned at `arrival` and not yet
    /// started: every visit at phase 0, nothing pending, no time spent,
    /// no phase records.
    pub fn encode(arrival: SimTime, visits: &[Visit], w: &mut Writer) {
        arrival.encode(w);
        w.u64(visits.len() as u64);
        for v in visits {
            w.u64(v.node as u64);
            v.parent.map(|(p, s)| (p as u64, s as u64)).encode(w);
            let children: Vec<u64> = v.children.iter().map(|&c| c as u64).collect();
            children.encode(w);
            w.bool(v.parallel);
            w.u64(0); // phase
            w.u64(v.n_phases as u64);
            w.u64(0); // pending children
            arrival.encode(w); // phase start
            w.u64(0); // sojourn
            Vec::<(SimTime, SimTime)>::new().encode(w); // phase records
        }
    }
}

/// One random DAG node: whether it calls in parallel, and per call a
/// target pick, a probability kind (0: never, 1: always, else `p`) and
/// `p`.
type NodeShape = (bool, Vec<(u8, u8, f64)>);

/// A random service DAG: node `i` calls later nodes only, each call
/// with probability 0, 1 or in between, sequentially or in parallel.
fn random_service(shape: &[NodeShape]) -> rhythm::workloads::ServiceSpec {
    use rhythm::workloads::{Call, ServiceNode, ServiceSpec};
    let component = apps::ecommerce().nodes[0].component.clone();
    let n = shape.len();
    let nodes = shape
        .iter()
        .enumerate()
        .map(|(i, (parallel, calls))| ServiceNode {
            component: component.clone(),
            calls: match n - i - 1 {
                0 => Vec::new(),
                later => calls
                    .iter()
                    .map(|&(t, kind, p)| Call {
                        target: i + 1 + t as usize % later,
                        probability: match kind {
                            0 => 0.0,
                            1 => 1.0,
                            _ => p,
                        },
                    })
                    .collect(),
            },
            parallel: *parallel,
        })
        .collect();
    ServiceSpec {
        name: "random-dag".into(),
        nodes,
        sla_ms: 100.0,
        nominal_maxload_qps: 100.0,
        containers: 1,
    }
}

proptest! {
    /// The flat preorder planner takes the same random draws as the DFS
    /// oracle and lays out the same tree: per visit the same node,
    /// parent, slot, children and phase count, and the same snapshot
    /// bytes as the old per-visit encoding. Successive requests reuse
    /// one buffer, as the engine's pool does.
    #[test]
    fn planner_matches_dfs_oracle(
        shape in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((any::<u8>(), 0u8..4, 0.0f64..1.0), 0..4)),
            1..7,
        ),
        seed in any::<u64>(),
        requests in 1usize..6,
    ) {
        use rhythm::core::plan::{Planner, Request};
        use rhythm::snapshot::{Snapshot, Writer};
        let service = random_service(&shape);
        let mut rng_old = SimRng::from_seed(seed);
        let mut rng_new = SimRng::from_seed(seed);
        let mut planner = Planner::default();
        let mut req = Request::default();
        for k in 0..requests {
            let arrival = SimTime::from_millis(k as u64);
            let want = plan_oracle::plan_visits(&service, &mut rng_old);
            planner.plan(&service, &mut rng_new, arrival, k % 2 == 1, &mut req);
            prop_assert_eq!(req.visits().len(), want.len());
            for (i, (got, want)) in req.visits().iter().zip(&want).enumerate() {
                prop_assert_eq!(got.node(), want.node, "visit {} node", i);
                prop_assert_eq!(got.parent(), want.parent, "visit {} parent and slot", i);
                prop_assert_eq!(req.children(i).collect::<Vec<_>>(), want.children.clone());
                prop_assert_eq!(got.n_phases(), want.n_phases, "visit {} phases", i);
                prop_assert_eq!(got.parallel(), want.parallel);
            }
            prop_assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "draws diverged");
            let mut got = Writer::new();
            req.encode(&mut got);
            let mut old = Writer::new();
            plan_oracle::encode(arrival, &want, &mut old);
            prop_assert_eq!(got.into_bytes(), old.into_bytes());
        }
    }
}

/// Locating a value once and recording it by bucket is exactly
/// `record`, including at the clamps: NaN, ±0, negatives, ±∞, values
/// at or below `min_value` and values far above any latency.
#[test]
fn histogram_locate_then_record_equals_record() {
    use rhythm::snapshot::{Snapshot, Writer};
    let values = [
        f64::NAN,
        0.0,
        -0.0,
        -1.0,
        -1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        f64::MIN_POSITIVE,
        5e-4,
        1e-3,
        1.000_000_000_1e-3,
        0.75,
        123.456,
        1e12,
        1e300,
        f64::MAX,
    ];
    let mut recorded = LatencyHistogram::new();
    let mut located = LatencyHistogram::new();
    for &v in &values {
        recorded.record(v);
        let (bucket, clamped) = located.locate(v);
        assert!(
            clamped.is_finite() && clamped > 0.0,
            "{v} clamps to {clamped}"
        );
        located.record_located(bucket, clamped);
        let (mut a, mut b) = (Writer::new(), Writer::new());
        recorded.encode(&mut a);
        located.encode(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes(), "after {v}");
    }
}

/// The tracer's pre-optimisation pipeline, kept verbatim as the
/// differential oracle: the comparison time sort, the `BTreeMap`-keyed
/// FIFO slot pairer and the `BTreeMap` per-request sojourn sums. The
/// shipped tracer must reproduce its event order, pairing output and
/// sojourns bit for bit.
mod tracer_oracle {
    use rhythm::sim::SimTime;
    use rhythm::tracer::capture::is_lc_program;
    use rhythm::tracer::{ContextId, EventKind, MessageId, SysEvent};
    use std::collections::btree_map::Entry;
    use std::collections::{BTreeMap, VecDeque};

    pub fn sort(mut events: Vec<SysEvent>) -> Vec<SysEvent> {
        events.sort_by_key(|a| a.timestamp);
        events
    }

    #[derive(Default)]
    pub struct Output {
        pub segments: BTreeMap<u32, Vec<(u64, f64)>>,
        pub request_count: u64,
        pub unmatched_sends: u64,
        pub unmatched_recvs: u64,
        pub filtered_noise: u64,
        /// One past the largest label assigned or propagated.
        pub labels: u64,
    }

    impl Output {
        pub fn sojourns(&self, pod: u32) -> Vec<f64> {
            let Some(segs) = self.segments.get(&pod) else {
                return Vec::new();
            };
            let mut per_request: BTreeMap<u64, f64> = BTreeMap::new();
            for &(label, ms) in segs {
                *per_request.entry(label).or_insert(0.0) += ms;
            }
            per_request.into_values().collect()
        }
    }

    struct SlotQueues<K, V> {
        slots: BTreeMap<K, u32>,
        queues: Vec<VecDeque<V>>,
        free: Vec<u32>,
    }

    impl<K: Ord, V> SlotQueues<K, V> {
        fn new() -> Self {
            SlotQueues {
                slots: BTreeMap::new(),
                queues: Vec::new(),
                free: Vec::new(),
            }
        }

        fn push(&mut self, key: K, v: V) {
            let slot = match self.slots.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.queues.push(VecDeque::new());
                        u32::try_from(self.queues.len() - 1).unwrap()
                    });
                    *e.insert(slot)
                }
            };
            self.queues[slot as usize].push_back(v);
        }

        fn pop(&mut self, key: K) -> Option<V> {
            let Entry::Occupied(e) = self.slots.entry(key) else {
                return None;
            };
            let slot = *e.get();
            let queue = &mut self.queues[slot as usize];
            let v = queue.pop_front();
            if queue.is_empty() {
                e.remove();
                self.free.push(slot);
            }
            v
        }
    }

    pub fn pair(client_ip: u32, events: &[SysEvent]) -> Output {
        let mut out = Output::default();
        let mut pending: SlotQueues<ContextId, (SimTime, u64)> = SlotQueues::new();
        let mut in_flight: SlotQueues<MessageId, u64> = SlotQueues::new();
        let mut next_label = 0u64;
        let handed_out = |out: &mut Output, l: u64| out.labels = out.labels.max(l + 1);
        for e in events {
            if !is_lc_program(e.ctx.program) {
                out.filtered_noise += 1;
                continue;
            }
            match e.kind {
                EventKind::Accept | EventKind::Close => {}
                EventKind::Recv => {
                    let label = if e.msg.sender_ip == client_ip {
                        let l = next_label;
                        next_label += 1;
                        out.request_count += 1;
                        l
                    } else {
                        match in_flight.pop(e.msg) {
                            Some(l) => l,
                            None => {
                                let l = next_label;
                                next_label += 1;
                                l
                            }
                        }
                    };
                    handed_out(&mut out, label);
                    pending.push(e.ctx, (e.timestamp, label));
                    out.unmatched_recvs += 1;
                }
                EventKind::Send => match pending.pop(e.ctx) {
                    Some((at, label)) => {
                        out.unmatched_recvs -= 1;
                        let pod = e.ctx.host_ip.saturating_sub(1);
                        let ms = e.timestamp.saturating_since(at).as_millis_f64();
                        out.segments.entry(pod).or_default().push((label, ms));
                        in_flight.push(e.msg, label);
                    }
                    None => {
                        out.unmatched_sends += 1;
                        let label = next_label.saturating_sub(1);
                        handed_out(&mut out, label);
                        in_flight.push(e.msg, label);
                    }
                },
            }
        }
        out.labels = out.labels.max(next_label);
        out
    }
}

/// The capture's event synthesis as it was before requests reached it
/// flat: the recursive walk over a `VisitNode` tree, with its ports,
/// message sizes, contexts and noise, kept verbatim as the differential
/// oracle. The shipped capture, which walks a flat preorder record with
/// an explicit stack, must emit the same events in the same record
/// order.
mod capture_oracle {
    use rhythm::sim::{SimRng, SimTime};
    use rhythm::tracer::capture::{lc_program_id, CaptureConfig, VisitNode};
    use rhythm::tracer::{ContextId, EventKind, MessageId, SysEvent};

    pub struct Capture {
        config: CaptureConfig,
        pub events: Vec<SysEvent>,
        rng: SimRng,
        next_ephemeral_port: u16,
        next_request: u64,
    }

    impl Capture {
        pub fn new(config: CaptureConfig, seed: u64) -> Self {
            Capture {
                config,
                events: Vec::new(),
                rng: SimRng::from_seed(seed).split("capture"),
                next_ephemeral_port: 10_000,
                next_request: 0,
            }
        }

        fn host_of(pod: u32) -> u32 {
            pod + 1
        }

        fn context(&self, pod: u32, request: u64) -> ContextId {
            ContextId {
                host_ip: Self::host_of(pod),
                program: lc_program_id(pod),
                process_id: 100 + pod,
                thread_id: if self.config.non_blocking {
                    1
                } else {
                    (request % 1_000_000) as u32 + 1
                },
            }
        }

        fn port_for(&mut self, src: u32, dst: u32) -> u16 {
            if self.config.persistent_connections {
                50_000u16
                    .wrapping_add((src as u16).wrapping_mul(97))
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

        pub fn record_request(&mut self, root: &VisitNode) -> u64 {
            let request = self.next_request;
            self.next_request += 1;
            let client_port = self.port_for(self.config.client_ip, root.pod);
            let entry_msg = MessageId {
                sender_ip: self.config.client_ip,
                sender_port: client_port,
                receiver_ip: Self::host_of(root.pod),
                receiver_port: 80,
                message_size: 200 + (self.rng.below(800)) as u32,
            };
            let entry_ctx = self.context(root.pod, request);
            let start = root.phases.first().map(|p| p.0).unwrap_or(SimTime::ZERO);
            let end = root.phases.last().map(|p| p.1).unwrap_or(start);
            self.push(EventKind::Accept, start, entry_ctx, MessageId::NONE);
            self.walk(root, entry_msg, request);
            self.push(EventKind::Close, end, entry_ctx, MessageId::NONE);
            self.inject_noise(start, end);
            request
        }

        fn walk(&mut self, node: &VisitNode, msg_in: MessageId, request: u64) {
            let ctx = self.context(node.pod, request);
            assert!(
                !node.phases.is_empty(),
                "visit node must have at least one phase"
            );
            if node.parallel {
                assert!(
                    node.phases.len() == 2 || node.children.is_empty(),
                    "fan-out node needs exactly pre+post phases"
                );
            } else {
                assert_eq!(
                    node.phases.len(),
                    node.children.len() + 1,
                    "sequential node needs children+1 phases"
                );
            }
            self.push(EventKind::Recv, node.phases[0].0, ctx, msg_in);
            if node.parallel && !node.children.is_empty() {
                let send_at = node.phases[0].1;
                let mut down_msgs = Vec::with_capacity(node.children.len());
                for child in &node.children {
                    let m = self.downstream_msg(node.pod, child.pod);
                    self.push(EventKind::Send, send_at, ctx, m);
                    down_msgs.push(m);
                }
                for (child, m) in node.children.iter().zip(&down_msgs) {
                    self.walk(child, *m, request);
                    let child_end = child.phases.last().map(|p| p.1).unwrap_or(send_at);
                    let reply = Self::reply_of(m, self.config.persistent_connections);
                    self.push(EventKind::Recv, child_end, ctx, reply);
                }
            } else {
                for (i, child) in node.children.iter().enumerate() {
                    let send_at = node.phases[i].1;
                    let m = self.downstream_msg(node.pod, child.pod);
                    self.push(EventKind::Send, send_at, ctx, m);
                    self.walk(child, m, request);
                    let reply = Self::reply_of(&m, self.config.persistent_connections);
                    self.push(EventKind::Recv, node.phases[i + 1].0, ctx, reply);
                }
            }
            let reply_at = node.phases.last().expect("non-empty").1;
            let reply_msg = Self::reply_of(&msg_in, self.config.persistent_connections);
            self.push(EventKind::Send, reply_at, ctx, reply_msg);
        }

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

        fn inject_noise(&mut self, start: SimTime, end: SimTime) {
            let span = end.saturating_since(start).as_nanos().max(1);
            for _ in 0..self.config.noise_events_per_request {
                let t = SimTime::from_nanos(start.as_nanos() + self.rng.below(span));
                let host = 1 + self.rng.below(8) as u32;
                let ctx = ContextId {
                    host_ip: host,
                    program: 1 + self.rng.below(900) as u32,
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
}

/// A random visit tree on a coarse 0.1 ms grid starting at tick `t`:
/// leaves, sequential callers and fan-out callers, with phase lengths of
/// 0–3 ticks, so equal timestamps are common and a request's segment
/// durations (0.1, 0.2, 0.3 ms) do not sum exactly in every order.
/// Returns the tree and its end tick.
fn random_visit(rng: &mut SimRng, t: u64, depth: u32) -> (VisitNode, u64) {
    let at = |tick: u64| SimTime::from_nanos(tick * 100_000);
    let pod = rng.below(6) as u32;
    let kind = if depth == 0 { 0 } else { rng.below(3) };
    let pre_end = t + rng.below(4);
    match kind {
        0 => (
            VisitNode {
                pod,
                phases: vec![(at(t), at(pre_end))],
                children: vec![],
                parallel: false,
            },
            pre_end,
        ),
        1 => {
            let mut phases = vec![(at(t), at(pre_end))];
            let mut children = Vec::new();
            let mut now = pre_end;
            for _ in 0..1 + rng.below(3) {
                let (child, end) = random_visit(rng, now, depth - 1);
                children.push(child);
                let resume = end + rng.below(2);
                now = resume + rng.below(4);
                phases.push((at(resume), at(now)));
            }
            (
                VisitNode {
                    pod,
                    phases,
                    children,
                    parallel: false,
                },
                now,
            )
        }
        _ => {
            let mut children = Vec::new();
            let mut join = pre_end;
            for _ in 0..2 + rng.below(2) {
                let (child, end) = random_visit(rng, pre_end, depth - 1);
                children.push(child);
                join = join.max(end);
            }
            let resume = join + rng.below(2);
            let end = resume + rng.below(4);
            let phases = vec![(at(t), at(pre_end)), (at(resume), at(end))];
            (
                VisitNode {
                    pod,
                    phases,
                    children,
                    parallel: true,
                },
                end,
            )
        }
    }
}

proptest! {
    /// The shipped capture sort, pairer and sojourn sums against the
    /// oracle above, on overlapping random chain and fan-out requests
    /// under every thread/connection model and noise level. Start times
    /// reach 2^46 ticks (over 2^62 ns), far from the earliest-event
    /// origin the sort's keys are offsets from.
    #[test]
    fn tracer_matches_reference_pipeline(
        seed in any::<u64>(),
        requests in 1usize..40,
        base_tick in (0usize..3, 0u64..(1u64 << 46)).prop_map(|(k, v)| [0, v % 1_000, v][k]),
        noise in 0u32..=16,
    ) {
        for (non_blocking, persistent_connections) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            check_tracer_against_oracle(seed, requests, base_tick, non_blocking, persistent_connections, noise);
        }
    }
}

fn check_tracer_against_oracle(
    seed: u64,
    requests: usize,
    base_tick: u64,
    non_blocking: bool,
    persistent_connections: bool,
    noise: u32,
) {
    let mut rng = SimRng::from_seed(seed);
    let mut cap = EventCapture::new(
        CaptureConfig {
            non_blocking,
            persistent_connections,
            noise_events_per_request: noise,
            ..CaptureConfig::default()
        },
        seed,
    );
    let mut t = base_tick;
    for _ in 0..requests {
        t += rng.below(5);
        let (tree, _) = random_visit(&mut rng, t, 3);
        cap.record_request(&tree);
    }
    let expect_events = tracer_oracle::sort(cap.events().to_vec());
    let events = cap.finish();
    prop_assert_eq!(
        &events,
        &expect_events,
        "event order differs from the stable sort"
    );

    let bits = |v: &[(u64, f64)]| {
        v.iter()
            .map(|&(l, ms)| (l, ms.to_bits()))
            .collect::<Vec<_>>()
    };
    let got = Pairer::new(0).pair(&events);
    let expect = tracer_oracle::pair(0, &events);
    prop_assert_eq!(
        got.pods(),
        expect.segments.keys().copied().collect::<Vec<_>>()
    );
    for (pod, segs) in &expect.segments {
        prop_assert_eq!(bits(&got.segments[pod]), bits(segs), "pod {} segments", pod);
    }
    prop_assert_eq!(
        (
            got.request_count,
            got.unmatched_sends,
            got.unmatched_recvs,
            got.filtered_noise
        ),
        (
            expect.request_count,
            expect.unmatched_sends,
            expect.unmatched_recvs,
            expect.filtered_noise
        )
    );
    prop_assert_eq!(got.labels, expect.labels);
    for pod in 0..8 {
        let sojourn_bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            sojourn_bits(got.sojourns(pod)),
            sojourn_bits(expect.sojourns(pod)),
            "pod {} sojourns",
            pod
        );
    }
}

proptest! {
    /// The flat event synthesis against the recursive oracle above: the
    /// same random chain and fan-out trees, recorded both as trees
    /// (flattened into the capture's scratch) and from a `VisitLog`
    /// holding all of them, under every thread/connection model and
    /// noise level. Both must emit the oracle's events field for field,
    /// in record order (the order that breaks timestamp ties).
    #[test]
    fn flat_capture_matches_recursive_oracle(
        seed in any::<u64>(),
        requests in 1usize..40,
        noise in 0u32..=16,
    ) {
        for (non_blocking, persistent_connections) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let cfg = CaptureConfig {
                non_blocking,
                persistent_connections,
                noise_events_per_request: noise,
                ..CaptureConfig::default()
            };
            let mut rng = SimRng::from_seed(seed);
            let mut t = 0;
            let trees: Vec<VisitNode> = (0..requests)
                .map(|_| {
                    t += rng.below(5);
                    random_visit(&mut rng, t, 3).0
                })
                .collect();
            let mut oracle = capture_oracle::Capture::new(cfg.clone(), seed);
            let mut from_trees = EventCapture::new(cfg.clone(), seed);
            let mut log = VisitLog::default();
            for (k, tree) in trees.iter().enumerate() {
                prop_assert_eq!(oracle.record_request(tree), k as u64);
                prop_assert_eq!(from_trees.record_request(tree), k as u64);
                log.push_tree(tree);
            }
            let mut from_log = EventCapture::new(cfg, seed);
            for (req, tree) in log.requests().zip(&trees) {
                prop_assert_eq!(format!("{:?}", req.to_tree()), format!("{tree:?}"));
                from_log.record(req);
            }
            prop_assert_eq!(log.len(), requests);
            let modes = (non_blocking, persistent_connections);
            prop_assert_eq!(from_trees.events(), &oracle.events[..], "trees, {:?}", modes);
            prop_assert_eq!(from_log.events(), &oracle.events[..], "log, {:?}", modes);
        }
    }
}

proptest! {
    /// The streamed tracer against the batch one: random visit trees,
    /// recorded in a random order and in random batches, released after
    /// each batch at a random watermark that never passes the earliest
    /// event of a request not yet recorded, and fed to `Pairer::stream`.
    /// The releases concatenate to the oracle's stable sort of the whole
    /// capture, and the streamed pairing equals `pair(&finish())`.
    #[test]
    fn streamed_tracer_matches_batch_pipeline(
        seed in any::<u64>(),
        requests in 1usize..40,
        noise in 0u32..=8,
        non_blocking in any::<bool>(),
        persistent_connections in any::<bool>(),
    ) {
        let cfg = CaptureConfig {
            non_blocking,
            persistent_connections,
            noise_events_per_request: noise,
            ..CaptureConfig::default()
        };
        check_streamed_capture(seed, requests, cfg);
    }
}

fn check_streamed_capture(seed: u64, requests: usize, cfg: CaptureConfig) {
    let tick = |t: u64| SimTime::from_nanos(t * 100_000);
    let mut rng = SimRng::from_seed(seed);
    let mut t = 0;
    let mut trees: Vec<(u64, VisitNode)> = (0..requests)
        .map(|_| {
            t += rng.below(5);
            (t, random_visit(&mut rng, t, 3).0)
        })
        .collect();
    // Record in a random order (the engine records in completion order).
    for i in (1..trees.len()).rev() {
        trees.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut batch = EventCapture::new(cfg.clone(), seed);
    for (_, tree) in &trees {
        batch.record_request(tree);
    }
    let expect_events = tracer_oracle::sort(batch.events().to_vec());
    let expect = Pairer::new(0).pair(&batch.finish());

    let mut capture = EventCapture::new(cfg, seed);
    let mut stream = Pairer::new(0).stream();
    let mut released = Vec::new();
    let mut watermark = 0;
    let mut next = 0;
    while next < trees.len() {
        let end = next + 1 + rng.below((trees.len() - next) as u64) as usize;
        for (_, tree) in &trees[next..end] {
            capture.record_request(tree);
        }
        next = end;
        // Every event of a tree is stamped at or after its start tick.
        let bound = trees[next..].iter().map(|&(start, _)| start).min();
        let bound = bound.unwrap_or(t + 20);
        watermark += rng.below(bound.saturating_sub(watermark) + 1);
        for e in capture.release(tick(watermark)) {
            released.push(*e);
            stream.feed(e);
        }
    }
    for e in &capture.finish() {
        released.push(*e);
        stream.feed(e);
    }
    prop_assert_eq!(
        &released,
        &expect_events,
        "released events differ from the stable sort"
    );
    // Debug prints every f64 in its shortest round-trip form, so equal
    // text is equal bits.
    prop_assert_eq!(format!("{:?}", stream.finish()), format!("{expect:?}"));
}

/// The dense latency histogram and the merge-all-live-slots tail-window
/// quantile as they were before the histogram stored only its occupied
/// bucket range, kept verbatim as the differential oracle. The shipped
/// `LatencyHistogram` and `TailWindow` must reproduce their counts,
/// sums, maxima, quantiles and snapshot bytes bit for bit.
mod hist_oracle {
    use rhythm::sim::{SimDuration, SimTime};
    use rhythm::snapshot::Writer;

    #[derive(Clone, Debug)]
    pub struct Dense {
        log_gamma: f64,
        min_value: f64,
        counts: Vec<u64>,
        total: u64,
        sum: f64,
        max: f64,
    }

    impl Dense {
        pub fn new() -> Dense {
            let err = 0.01;
            let gamma = (1.0 + err) / (1.0 - err);
            Dense {
                log_gamma: f64::ln(gamma),
                min_value: 1e-3,
                counts: Vec::new(),
                total: 0,
                sum: 0.0,
                max: 0.0,
            }
        }

        fn bucket_index(&self, value: f64) -> usize {
            if value <= self.min_value {
                return 0;
            }
            ((value / self.min_value).ln() / self.log_gamma).ceil() as usize
        }

        fn bucket_value(&self, i: usize) -> f64 {
            if i == 0 {
                return self.min_value;
            }
            self.min_value * (self.log_gamma * i as f64).exp()
        }

        pub fn record(&mut self, value: f64) {
            let v = if value.is_finite() && value > 0.0 {
                value
            } else {
                self.min_value
            };
            let idx = self.bucket_index(v);
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
            self.total += 1;
            self.sum += v;
            self.max = self.max.max(v);
        }

        pub fn count(&self) -> u64 {
            self.total
        }

        pub fn sum(&self) -> f64 {
            self.sum
        }

        pub fn max(&self) -> f64 {
            self.max
        }

        pub fn quantile(&self, p: f64) -> f64 {
            if self.total == 0 {
                return 0.0;
            }
            let p = p.clamp(0.0, 1.0);
            let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return self.bucket_value(i).min(self.max);
                }
            }
            self.max
        }

        pub fn merge(&mut self, other: &Dense) {
            if other.counts.len() > self.counts.len() {
                self.counts.resize(other.counts.len(), 0);
            }
            for (i, &c) in other.counts.iter().enumerate() {
                self.counts[i] += c;
            }
            self.total += other.total;
            self.sum += other.sum;
            self.max = self.max.max(other.max);
        }

        pub fn reset(&mut self) {
            self.counts.clear();
            self.total = 0;
            self.sum = 0.0;
            self.max = 0.0;
        }

        pub fn encode(&self, w: &mut Writer) {
            w.f64(self.log_gamma);
            w.f64(self.min_value);
            w.u64(self.counts.len() as u64);
            for &c in &self.counts {
                w.u64(c);
            }
            w.u64(self.total);
            w.f64(self.sum);
            w.f64(self.max);
        }
    }

    pub struct Window {
        slot_len: SimDuration,
        slots: Vec<(u64, Dense)>,
    }

    impl Window {
        pub fn new(window: SimDuration, slots: usize) -> Window {
            let slot_len = SimDuration::from_nanos((window.as_nanos() / slots as u64).max(1));
            Window {
                slot_len,
                slots: (0..slots).map(|_| (u64::MAX, Dense::new())).collect(),
            }
        }

        fn epoch_of(&self, at: SimTime) -> u64 {
            at.as_nanos() / self.slot_len.as_nanos()
        }

        pub fn record(&mut self, at: SimTime, latency_ms: f64) {
            let epoch = self.epoch_of(at);
            let idx = (epoch % self.slots.len() as u64) as usize;
            let slot = &mut self.slots[idx];
            if slot.0 != epoch {
                slot.1.reset();
                slot.0 = epoch;
            }
            slot.1.record(latency_ms);
        }

        /// Every live slot merged into one histogram; the old
        /// `quantile(now, p)` was `merged(now).quantile(p)`.
        pub fn merged(&self, now: SimTime) -> Dense {
            let mut merged = Dense::new();
            let current = self.epoch_of(now);
            let live = self.slots.len() as u64;
            for (epoch, hist) in &self.slots {
                if *epoch != u64::MAX && current.saturating_sub(*epoch) < live {
                    merged.merge(hist);
                }
            }
            merged
        }

        pub fn count(&self, now: SimTime) -> u64 {
            let current = self.epoch_of(now);
            let live = self.slots.len() as u64;
            self.slots
                .iter()
                .filter(|(e, _)| *e != u64::MAX && current.saturating_sub(*e) < live)
                .map(|(_, h)| h.count())
                .sum()
        }

        pub fn encode(&self, w: &mut Writer) {
            w.u64(self.slot_len.as_nanos());
            w.u64(self.slots.len() as u64);
            for (epoch, hist) in &self.slots {
                w.u64(*epoch);
                hist.encode(w);
            }
        }
    }
}

/// A latency draw for the histogram oracle: mostly log-uniform over
/// 1e-5..1e7 ms (so later values often land below the stored range),
/// sometimes one of the clamped or extreme inputs.
fn oracle_latency(rng: &mut SimRng) -> f64 {
    const SPECIAL: [f64; 10] = [
        0.0,
        -0.0,
        -3.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e9,
        5e-4,
        1e-3,
        f64::MIN_POSITIVE,
    ];
    if rng.chance(0.2) {
        SPECIAL[rng.below(SPECIAL.len() as u64) as usize]
    } else {
        10f64.powf(rng.uniform_range(-5.0, 7.0))
    }
}

/// The quantiles to compare: p = 0, 0.01, …, 1 plus out-of-range and
/// NaN probes at checkpoints (`full`), a few spot values in between. The
/// full grid dominates these tests' cost in debug builds.
fn oracle_ps(full: bool) -> Vec<f64> {
    if full {
        (0..=100)
            .map(|i| i as f64 / 100.0)
            .chain([-0.5, 1.5, f64::NAN])
            .collect()
    } else {
        vec![0.0, 0.01, 0.5, 0.99, 1.0]
    }
}

/// Compares count, sum and max bits, quantile bits at `oracle_ps(full)`
/// and, with `full`, the snapshot round trip: the decoded histogram
/// re-encoded by the dense encoder must give the oracle's bytes.
fn assert_matches_dense(got: &LatencyHistogram, want: &hist_oracle::Dense, full: bool, ctx: &str) {
    use rhythm::snapshot::Writer;
    assert_eq!(got.count(), want.count(), "{ctx}: count");
    assert_eq!(got.sum().to_bits(), want.sum().to_bits(), "{ctx}: sum");
    assert_eq!(got.max().to_bits(), want.max().to_bits(), "{ctx}: max");
    for p in oracle_ps(full) {
        assert_eq!(
            got.quantile(p).to_bits(),
            want.quantile(p).to_bits(),
            "{ctx}: quantile({p})"
        );
    }
    if !full {
        return;
    }
    let mut w = Writer::new();
    want.encode(&mut w);
    let (back, _) = snapshot_round_trip(got);
    let mut dense = Writer::new();
    dense_codec::histogram(&back, &mut dense);
    assert_eq!(
        dense.into_bytes(),
        w.into_bytes(),
        "{ctx}: dense snapshot bytes"
    );
    assert_eq!(
        back.quantile(0.99).to_bits(),
        want.quantile(0.99).to_bits(),
        "{ctx}: decoded p99"
    );
}

proptest! {
    /// Random record/merge/reset sequences over three histograms, each
    /// mirrored by a dense oracle histogram. After every operation the
    /// touched histogram must match its oracle in count, sum and max
    /// bits, every quantile's bits and the snapshot bytes.
    #[test]
    fn histogram_matches_dense_oracle(seed in any::<u64>(), ops in 1usize..200) {
        let mut rng = SimRng::from_seed(seed);
        let mut got: Vec<LatencyHistogram> = (0..3).map(|_| LatencyHistogram::new()).collect();
        let mut want: Vec<hist_oracle::Dense> = (0..3).map(|_| hist_oracle::Dense::new()).collect();
        for op in 0..ops {
            let k = rng.below(3) as usize;
            match rng.below(20) {
                0 => {
                    got[k].reset();
                    want[k].reset();
                }
                1..=3 => {
                    let from = rng.below(3) as usize;
                    let (g, w) = (got[from].clone(), want[from].clone());
                    got[k].merge(&g);
                    want[k].merge(&w);
                }
                _ => {
                    let v = oracle_latency(&mut rng);
                    got[k].record(v);
                    want[k].record(v);
                }
            }
            let full = op % 16 == 0 || op + 1 == ops;
            assert_matches_dense(&got[k], &want[k], full, &format!("seed {seed:#x} op {op} hist {k}"));
        }
    }

    /// The in-place tail-window quantile against merging every live slot
    /// into one dense histogram. Time advances in steps that sometimes
    /// exceed the whole window, so slots expire and are reused; queries
    /// land on slot edges, just before them, and ahead of the last
    /// sample.
    #[test]
    fn tail_window_matches_merge_oracle(
        seed in any::<u64>(),
        samples in 1usize..120,
        slots in 1usize..12,
        window_s in 1u64..20,
    ) {
        use rhythm::sim::{SimDuration, TailWindow};
        use rhythm::snapshot::Writer;
        let mut rng = SimRng::from_seed(seed);
        let window = SimDuration::from_secs(window_s);
        let mut got = TailWindow::new(window, slots);
        let mut want = hist_oracle::Window::new(window, slots);
        let slot_ns = (window.as_nanos() / slots as u64).max(1);
        let mut t = rng.below(1_000_000_000);
        let check = |got: &TailWindow, want: &hist_oracle::Window, now: u64, full: bool, ctx: &str| {
            let now = SimTime::from_nanos(now);
            let merged = want.merged(now);
            assert_eq!(got.count(now), merged.count(), "{ctx} now {now:?}: count");
            assert_eq!(got.count(now), want.count(now), "{ctx} now {now:?}: oracle count");
            for p in oracle_ps(full) {
                assert_eq!(
                    got.quantile(now, p).to_bits(),
                    merged.quantile(p).to_bits(),
                    "{ctx} now {now:?}: quantile({p})"
                );
            }
        };
        for i in 0..samples {
            t += match rng.below(10) {
                0 => window.as_nanos() + rng.below(3 * window.as_nanos()),
                1 => 0,
                _ => rng.below(slot_ns),
            };
            let v = oracle_latency(&mut rng);
            got.record(SimTime::from_nanos(t), v);
            want.record(SimTime::from_nanos(t), v);
            let edge = (t / slot_ns + rng.below(slots as u64 + 2)) * slot_ns;
            let ahead = t + rng.below(2 * window.as_nanos());
            let ctx = format!("seed {seed:#x} sample {i}");
            let full = i % 16 == 0 || i + 1 == samples;
            for now in [t, edge, edge.saturating_sub(1), ahead] {
                check(&got, &want, now, full, &ctx);
            }
        }
        let mut w = Writer::new();
        want.encode(&mut w);
        let (back, _) = snapshot_round_trip(&got);
        let mut dense = Writer::new();
        dense_codec::tail_window(&back, &mut dense);
        prop_assert_eq!(dense.into_bytes(), w.into_bytes(), "dense window snapshot bytes");
    }
}

/// The tail window as it was before its slots stored only their
/// non-zero buckets: a ring of full `LatencyHistogram`s, kept as the
/// differential oracle of the sparse `TailWindow`. Its in-place union
/// quantile is written here as the merge it equals.
mod ring_oracle {
    use rhythm::sim::{LatencyHistogram, SimDuration, SimTime};
    use rhythm::snapshot::{Snapshot, Writer};

    pub struct Ring {
        slot_len: SimDuration,
        slots: Vec<(u64, LatencyHistogram)>,
    }

    impl Ring {
        pub fn new(window: SimDuration, slots: usize) -> Ring {
            let slot_len = SimDuration::from_nanos((window.as_nanos() / slots as u64).max(1));
            Ring {
                slot_len,
                slots: (0..slots)
                    .map(|_| (u64::MAX, LatencyHistogram::new()))
                    .collect(),
            }
        }

        fn epoch_of(&self, at: SimTime) -> u64 {
            at.as_nanos() / self.slot_len.as_nanos()
        }

        pub fn record(&mut self, at: SimTime, latency_ms: f64) {
            let epoch = self.epoch_of(at);
            let idx = (epoch % self.slots.len() as u64) as usize;
            let slot = &mut self.slots[idx];
            if slot.0 != epoch {
                slot.1.reset();
                slot.0 = epoch;
            }
            slot.1.record(latency_ms);
        }

        fn live(&self, now: SimTime) -> impl Iterator<Item = &LatencyHistogram> {
            let current = self.epoch_of(now);
            let n = self.slots.len() as u64;
            self.slots
                .iter()
                .filter(move |(e, _)| *e != u64::MAX && current.saturating_sub(*e) < n)
                .map(|(_, h)| h)
        }

        pub fn quantile(&self, now: SimTime, p: f64) -> f64 {
            let mut merged = LatencyHistogram::new();
            for h in self.live(now) {
                merged.merge(h);
            }
            merged.quantile(p)
        }

        pub fn count(&self, now: SimTime) -> u64 {
            self.live(now).map(|h| h.count()).sum()
        }

        /// The dense form of the window.
        pub fn encode(&self, w: &mut Writer) {
            self.slot_len.encode(w);
            w.u64(self.slots.len() as u64);
            for (epoch, hist) in &self.slots {
                w.u64(*epoch);
                crate::dense_codec::histogram(hist, w);
            }
        }
    }
}

proptest! {
    /// The sparse tail window against the ring of full histograms it
    /// replaced: random records (clamped, huge and non-finite latencies,
    /// gaps longer than the window, slot reuse) interleaved with
    /// quantiles at random `p`, counts and snapshot round trips. Quantile
    /// bits and counts must match, decoding then re-encoding must give
    /// the same bytes, and the decoded window in the dense form must
    /// give the ring's bytes.
    #[test]
    fn sparse_tail_window_matches_ring_oracle(
        seed in any::<u64>(),
        ops in 1usize..300,
        slots in 1usize..12,
        window_s in 1u64..20,
    ) {
        use rhythm::sim::TailWindow;
        use rhythm::snapshot::Writer;
        let mut rng = SimRng::from_seed(seed);
        let window = SimDuration::from_secs(window_s);
        let mut got = TailWindow::new(window, slots);
        let mut want = ring_oracle::Ring::new(window, slots);
        let slot_ns = (window.as_nanos() / slots as u64).max(1);
        let mut t = rng.below(1_000_000_000);
        for op in 0..ops {
            let ctx = format!("seed {seed:#x} op {op}");
            match rng.below(10) {
                0..=5 => {
                    t += match rng.below(12) {
                        0 => window.as_nanos() + rng.below(3 * window.as_nanos()),
                        1 | 2 => 0,
                        _ => rng.below(2 * slot_ns),
                    };
                    let v = oracle_latency(&mut rng);
                    got.record(SimTime::from_nanos(t), v);
                    want.record(SimTime::from_nanos(t), v);
                }
                6..=8 => {
                    let now = SimTime::from_nanos(t + rng.below(2 * window.as_nanos()));
                    let p = match rng.below(8) {
                        0 => f64::NAN,
                        1 => 1.0,
                        2 => 0.0,
                        _ => rng.uniform_range(-0.1, 1.1),
                    };
                    prop_assert_eq!(
                        got.quantile(now, p).to_bits(),
                        want.quantile(now, p).to_bits(),
                        "{}: quantile({}) at {:?}", ctx, p, now
                    );
                    prop_assert_eq!(got.count(now), want.count(now), "{}: count", ctx);
                }
                _ => {
                    let mut w = Writer::new();
                    want.encode(&mut w);
                    let (back, _) = snapshot_round_trip(&got);
                    let mut dense = Writer::new();
                    dense_codec::tail_window(&back, &mut dense);
                    prop_assert_eq!(dense.into_bytes(), w.into_bytes(), "{}: dense snapshot bytes", ctx);
                    got = back;
                }
            }
        }
    }
}

/// One job-ledger entry with every field drawn (its id is set by the
/// caller): the checkpoint in the `[0, 1)` and the waste in the `>= 0`
/// that decode accepts.
fn ledger_entry() -> impl Strategy<Value = ClusterJob> {
    let kinds = [BeKind::Wordcount, BeKind::Lstm, BeKind::Iperf];
    let state = (0u8..4, 0usize..4096).prop_map(|(tag, machine)| match tag {
        0 => JobState::Queued,
        1 => JobState::Offered(machine),
        2 => JobState::Running(machine),
        _ => JobState::Done,
    });
    let progress = (
        0.0f64..1.0,
        0.0f64..8.0,
        any::<u32>(),
        0.0f64..1e4,
        prop::option::of(0.0f64..1e4),
    );
    let schedule = (
        state,
        any::<u8>(),
        prop::option::of(0.0f64..1e4),
        prop::option::of(any::<u32>()),
    );
    (0usize..kinds.len(), progress, schedule).prop_map(move |(kind, progress, schedule)| {
        let (checkpoint, wasted, kills, submitted_s, completed_s) = progress;
        let (state, priority, deadline_s, gang) = schedule;
        ClusterJob {
            checkpoint,
            wasted,
            kills,
            completed_s,
            state,
            priority,
            deadline_s,
            gang,
            ..ClusterJob::new(0, std::sync::Arc::new(BeSpec::of(kinds[kind])), submitted_s)
        }
    })
}

/// Encode → decode → re-encode; the re-encoding must be byte-identical
/// (snapshot encodings are canonical) and the reader fully consumed.
fn snapshot_round_trip<T: rhythm::snapshot::Snapshot>(x: &T) -> (T, Vec<u8>) {
    use rhythm::snapshot::{Reader, Writer};
    let mut w = Writer::new();
    x.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let y = T::decode(&mut r).expect("decode of a fresh encode");
    assert!(r.is_empty(), "decode left trailing bytes");
    let mut w2 = Writer::new();
    y.encode(&mut w2);
    assert_eq!(w2.into_bytes(), bytes, "re-encode is not canonical");
    (y, bytes)
}

/// In-test copies of the machine-walking placement scorer the barrier
/// rows replaced (`Placer::score_on`, `hetero_base`, `pressure_score`
/// and the monolithic `InterferenceModel::inflation` they called), kept
/// here as the oracle for `placement_rows_match_machine_scores`.
mod score_oracle {
    use rhythm::interference::{InterferenceModel, Pressure};
    use rhythm::machine::Machine;
    use rhythm::workloads::{BeSpec, ComponentSpec};
    use std::collections::BTreeMap;

    pub fn inflation(
        model: &InterferenceModel,
        comp: &ComponentSpec,
        pressure: &Pressure,
        machine: &Machine,
    ) -> f64 {
        let spec = machine.spec();
        let lc_llc_mb = machine.cat().lc_ways() as f64 * spec.llc_mb_per_way();
        let sockets_used =
            (comp.cores as f64 / spec.cores_per_socket as f64).clamp(1.0, spec.sockets as f64);
        let llc_available = lc_llc_mb * sockets_used / spec.sockets as f64;
        let eff = Pressure {
            cpu: (model.cpu_leak * pressure.cpu).clamp(0.0, 1.0),
            llc: model.effective_llc(comp, pressure.llc, llc_available),
            dram: (model.dram_leak * pressure.dram).clamp(0.0, 1.0),
            net: (model.net_leak * pressure.net).clamp(0.0, 1.0),
        };
        let contention = comp
            .sensitivity
            .inflation(eff.cpu, eff.llc, eff.dram, eff.net);
        let freq = comp
            .sensitivity
            .freq_slowdown(machine.lc_dvfs.speed_fraction());
        contention * freq
    }

    pub fn pressure_score(machine: &Machine, specs: &BTreeMap<String, BeSpec>) -> f64 {
        let p = Pressure::from_machine(machine, specs);
        p.cpu + p.llc + p.dram + p.net
    }

    pub fn capacity(machine: &Machine) -> f64 {
        let spec = machine.spec();
        spec.total_cores() as f64 * spec.max_freq_mhz as f64 / (40.0 * 2_000.0)
    }

    pub fn score_on(
        model: &InterferenceModel,
        job: &BeSpec,
        component: &ComponentSpec,
        machine: &Machine,
        specs: &BTreeMap<String, BeSpec>,
    ) -> f64 {
        let mut p = Pressure::from_machine(machine, specs);
        let probe_cores = job.solo_cores.clamp(1, 2) as f64 * machine.be_dvfs.speed_fraction();
        p.cpu += job.cpu_pressure_per_core * probe_cores;
        p.llc += job.llc_pressure_per_core * probe_cores;
        p.dram += job.dram_pressure_per_core * probe_cores;
        p.net += (job.net_demand_mbps / machine.spec().nic_mbps).max(0.0);
        let p = p.clamped();
        inflation(model, component, &p, machine)
    }

    pub fn hetero_base(
        model: &InterferenceModel,
        job: &BeSpec,
        component: &ComponentSpec,
        machine: &Machine,
        specs: &BTreeMap<String, BeSpec>,
    ) -> f64 {
        let cap = capacity(machine);
        let total = machine.spec().total_cores().max(1) as f64;
        let headroom = machine.free_core_count() as f64 / total;
        score_on(model, job, component, machine, specs) / (cap * headroom.max(0.05))
    }
}

proptest! {
    /// The barrier rows score exactly like the machine walk they
    /// replaced: for random machine states (every allocation-changing
    /// operation, LC and BE DVFS moves, qdisc ceiling moves, three
    /// hardware classes) and every policy, `Placer::score` over
    /// `MachineRow::derive` equals the oracle bit for bit, and the row's
    /// growth signal and capacity match the machine.
    #[test]
    fn placement_rows_match_machine_scores(
        ops in prop::collection::vec((0u8..9, 0u32..1000), 1..60),
        class in 0u8..3,
        lc_cores in 1u32..16,
        comp_idx in 0usize..16,
        action in 0u8..6,
    ) {
        use rhythm::cluster::{MachineRow, PlacementPolicy, Placer};
        use rhythm::controller::BeAction;
        use rhythm::interference::InterferenceModel;
        use std::collections::BTreeMap;

        let spec = match class {
            0 => MachineSpec::paper_testbed(),
            1 => MachineSpec::dense_compute(),
            _ => MachineSpec::lean_node(),
        };
        let mut m = Machine::new(
            spec,
            Allocation {
                cores: lc_cores,
                llc_ways: 0,
                mem_mb: 8 * 1024,
                net_mbps: 500.0,
                freq_mhz: spec.max_freq_mhz,
            },
        );
        let kinds = [
            BeKind::Wordcount,
            BeKind::StreamDram { big: true },
            BeKind::StreamLlc { big: false },
            BeKind::Iperf,
            BeKind::CpuStress,
        ];
        // The catalog lacks the last kind: instances of it exert no
        // pressure in either scorer.
        let catalog: BTreeMap<String, BeSpec> = kinds[..4]
            .iter()
            .map(|&k| {
                let s = BeSpec::of(k);
                (s.name.clone(), s)
            })
            .collect();
        let names: Vec<String> = kinds.iter().map(|&k| BeSpec::of(k).name).collect();
        let mut ids: Vec<u64> = Vec::new();
        for &(op, x) in &ops {
            let pick = ids.get(x as usize % ids.len().max(1)).copied();
            match op {
                0 => {
                    let grant = Allocation {
                        cores: 1 + x % 3,
                        llc_ways: (x % 4) * 2,
                        mem_mb: 512,
                        net_mbps: 0.0,
                        freq_mhz: spec.max_freq_mhz,
                    };
                    if let Ok(id) = m.admit_be(&names[x as usize % names.len()], grant) {
                        ids.push(id);
                    }
                }
                1 => {
                    if let Some(id) = pick {
                        let _ = m.grow_be(id, Allocation::cores_and_llc(1 + x % 2, 2));
                    }
                }
                2 => {
                    if let Some(id) = pick {
                        let _ = m.cut_be(id, Allocation::cores_and_llc(1, x % 3));
                    }
                }
                3 => {
                    if let Some(id) = pick {
                        let _ = m.suspend_be(id);
                    }
                }
                4 => {
                    if let Some(id) = pick {
                        let _ = m.resume_be(id);
                    }
                }
                5 => {
                    if let Some(id) = pick {
                        let _ = m.kill_be(id);
                        ids.retain(|&i| i != id);
                    }
                }
                6 => {
                    let (lo, hi) = (m.lc_dvfs.min_mhz(), m.lc_dvfs.max_mhz());
                    m.lc_dvfs.set_mhz(lo + x % (hi - lo + 1));
                }
                7 => {
                    let (lo, hi) = (m.be_dvfs.min_mhz(), m.be_dvfs.max_mhz());
                    m.be_dvfs.set_mhz(lo + x % (hi - lo + 1));
                }
                _ => {
                    m.qdisc.reallocate(f64::from(x) * 12.5);
                }
            }
        }
        let svc = apps::ecommerce();
        let comp = &svc.nodes[comp_idx % svc.len()].component;
        let last_action = match action {
            0 => None,
            1 => Some(BeAction::StopBe),
            2 => Some(BeAction::SuspendBe),
            3 => Some(BeAction::CutBe),
            4 => Some(BeAction::DisallowBeGrowth),
            _ => Some(BeAction::AllowBeGrowth),
        };
        let row = MachineRow::derive(&m, comp, last_action, &catalog);
        prop_assert_eq!(row.grows, matches!(last_action, None | Some(BeAction::AllowBeGrowth)));
        prop_assert_eq!(row.capacity.to_bits(), score_oracle::capacity(&m).to_bits());
        let model = InterferenceModel::calibrated();
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastPressure,
            PlacementPolicy::InterferenceScore,
            PlacementPolicy::HeteroAware,
        ] {
            let placer = Placer::new(policy);
            for kind in kinds {
                let job = BeSpec::of(kind);
                let want = match policy {
                    PlacementPolicy::RoundRobin => None,
                    PlacementPolicy::LeastPressure => {
                        Some(score_oracle::pressure_score(&m, &catalog))
                    }
                    PlacementPolicy::InterferenceScore => {
                        Some(score_oracle::score_on(&model, &job, comp, &m, &catalog))
                    }
                    PlacementPolicy::HeteroAware => {
                        Some(score_oracle::hetero_base(&model, &job, comp, &m, &catalog))
                    }
                };
                let got = placer.score(&job, comp, &row);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{:?} scoring {} on {:?}: row {:?} vs machine {:?}",
                    policy, job.name, row, got, want
                );
            }
        }
    }
}

// The case count honours `PROPTEST_CASES` (the vendored runner reads it,
// as upstream does), so CI smoke jobs can dial the effort down and soak
// runs can dial it up without editing the tests.
proptest! {
    // Queue section: a mid-stream queue (pops consumed, kills requeued
    // to the front, aging on or off) survives encode/decode with its
    // exact pop order.
    #[test]
    fn snapshot_queue_section_round_trips(
        jobs in prop::collection::vec(
            (0u8..4, prop::option::of(1.0f64..500.0), 0.0f64..100.0),
            1..40,
        ),
        pops in 0usize..40,
        aging in prop::option::of(1.0f64..60.0),
    ) {
        let mut q = match aging {
            Some(a) => JobQueue::with_aging(a),
            None => JobQueue::new(),
        };
        for (i, (p, d, t)) in jobs.iter().enumerate() {
            q.submit_with(i as u64, *p, *d, *t);
        }
        let mut popped = Vec::new();
        for _ in 0..pops.min(jobs.len()) {
            if let Some(id) = q.pop() {
                popped.push(id);
            }
        }
        // Requeue every other popped job: negative front sequences.
        for (k, &id) in popped.iter().enumerate() {
            if k % 2 == 0 {
                q.requeue_at(id, 50.0);
            }
        }
        let (mut decoded, _) = snapshot_round_trip(&q);
        let mut orig = q.clone();
        let a: Vec<_> = std::iter::from_fn(|| orig.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| decoded.pop()).collect();
        prop_assert_eq!(a, b, "decoded queue pops in a different order");
    }

    // Scheduler section: job ledger + queue + outstanding offers +
    // instance bindings.
    #[test]
    fn snapshot_scheduler_section_round_trips(
        ledger in prop::collection::vec(ledger_entry(), 1..64),
        ids in prop::collection::btree_set(0u64..500, 0..24),
        offered in prop::collection::vec(prop::option::of(0u64..500), 0..16),
        bindings in prop::collection::btree_map(
            (0u64..16, 0u64..4),
            0u64..500,
            0..20,
        ),
        rr_cursor in 0u64..16,
    ) {
        // Every id the scheduler references must name a ledger entry.
        let jobs = ledger.len() as u64;
        let mut queue = JobQueue::new();
        for id in ids.iter().map(|id| id % jobs).collect::<std::collections::BTreeSet<_>>() {
            queue.submit(id);
        }
        let state = SchedulerState {
            jobs: ledger
                .into_iter()
                .zip(0..)
                .map(|(job, id)| ClusterJob { id, ..job })
                .collect(),
            queue,
            offered: offered.iter().map(|o| o.map(|j| j % jobs)).collect(),
            bindings: bindings.iter().map(|(&k, &j)| (k, j % jobs)).collect(),
            rr_cursor,
            gangs: Default::default(),
            events: Vec::new(),
        };
        let (decoded, _) = snapshot_round_trip(&state);
        // Field by field: `Debug` prints every field, floats exactly.
        prop_assert_eq!(format!("{:?}", decoded.jobs), format!("{:?}", state.jobs));
        prop_assert_eq!(decoded.offered, state.offered);
        prop_assert_eq!(decoded.bindings, state.bindings);
        prop_assert_eq!(decoded.queue.queued_ids(), state.queue.queued_ids());
        prop_assert_eq!(decoded.rr_cursor, state.rr_cursor);
    }

    // RNG section: a restored stream continues exactly where the
    // original left off, draw for draw.
    #[test]
    fn snapshot_rng_section_round_trips(
        seed in 0u64..u64::MAX,
        burn in 0usize..200,
        draws in 1usize..50,
    ) {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..burn {
            let _ = rng.uniform();
        }
        let (mut restored, _) = snapshot_round_trip(&rng);
        for _ in 0..draws {
            prop_assert_eq!(
                rng.uniform().to_bits(),
                restored.uniform().to_bits(),
                "restored RNG diverged from the original stream"
            );
        }
    }
}

/// One shared profiled context for the cluster-level fault properties
/// (Algorithm 1 dominates the wall-clock; profile once).
fn fault_ctx() -> &'static ServiceContext {
    static CTX: OnceLock<ServiceContext> = OnceLock::new();
    CTX.get_or_init(|| ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 31))
}

/// A small managed cell with `plan` active: short horizon, scaled jobs
/// so the backlog both completes and gets killed within it.
fn fault_cell(plan: FaultPlan, threads: usize, ckpt: f64) -> ClusterConfig {
    let mut c = ClusterConfig::new(2 * fault_ctx().service.len()).with_scaled_jobs(0.02);
    c.duration_s = 40;
    c.jobs_per_machine = 4;
    c.checkpoint_fraction = ckpt;
    c.load = LoadGen::constant(0.8);
    c.seed = 0xFA17;
    c.threads = threads;
    c.faults = plan;
    c
}

// Each case below runs whole cluster simulations — four orders of
// magnitude more expensive than the in-memory properties above — so
// the block pins its own case count instead of honouring
// `PROPTEST_CASES`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos does not break reproducibility: for an arbitrary fault
    /// plan (crashes, recoveries, stragglers, correlated failures at
    /// arbitrary epochs), the merged metrics serialize byte-identically
    /// and the per-machine fingerprints match across worker-thread
    /// layouts (3 threads over 2 replicas leaves one thread idle).
    #[test]
    fn fault_runs_are_layout_invariant(
        ops in prop::collection::vec((0u8..4, 4u32..36, 0u64..32), 1..5),
        ckpt_pick in 0usize..3,
    ) {
        let machines = 2 * fault_ctx().service.len();
        let ckpt = [0.05, 0.1, 0.25][ckpt_pick];
        let mut plan = FaultPlan::new();
        for &(kind, t, m) in &ops {
            let (t, m) = (f64::from(t), m % machines as u64);
            plan = match kind {
                0 => plan.crash(t, m),
                1 => plan.recover(t, m),
                2 => plan.slow_node(t, m, 0.6),
                _ => plan.correlated(t, vec![m]),
            };
        }
        prop_assert!(plan.validate(machines).is_ok());
        let runs: Vec<_> = [1usize, 3, 2]
            .iter()
            .map(|&threads| {
                run_cluster(
                    fault_ctx(),
                    &ControllerChoice::Rhythm,
                    &fault_cell(plan.clone(), threads, ckpt),
                )
            })
            .collect();
        let baseline = json::to_string(&runs[0].metrics);
        for r in &runs[1..] {
            let other = json::to_string(&r.metrics);
            prop_assert_eq!(&other, &baseline, "metrics diverged across layouts");
            prop_assert_eq!(&r.fingerprints, &runs[0].fingerprints, "machine fingerprints diverged");
        }
    }

    /// Recovery accounting: a kill rolls a job back to its last banked
    /// checkpoint, so the work a fault destroys is bounded — every job
    /// passes `ClusterJob::check_ledger` (`wasted ≤ kills ×
    /// checkpoint_fraction`, checkpoints in `[0, 1]`, a finished job
    /// fully checkpointed), which the scheduler's barrier checker also
    /// applies. The merged stats must agree with the ledger they were
    /// derived from, and every kill re-enters the queue.
    #[test]
    fn job_ledger_accounts_for_recovery(
        crashes in prop::collection::vec((4u32..20, 0u64..32, 6u32..16), 1..4),
        ckpt in 0.05f64..0.5,
    ) {
        let machines = 2 * fault_ctx().service.len();
        let mut plan = FaultPlan::new();
        for &(t, m, dt) in &crashes {
            let m = m % machines as u64;
            plan = plan.crash(f64::from(t), m).recover(f64::from(t + dt), m);
        }
        let out = run_cluster(
            fault_ctx(),
            &ControllerChoice::Rhythm,
            &fault_cell(plan, 2, ckpt),
        );
        prop_assert!(!out.jobs.is_empty());
        let mut kills = 0u64;
        let mut wasted = 0.0;
        for j in &out.jobs {
            let ledger = j.check_ledger(ckpt);
            prop_assert!(ledger.is_ok(), "{ledger:?}");
            kills += u64::from(j.kills);
            wasted += j.wasted;
        }
        prop_assert_eq!(out.metrics.jobs.kills, kills, "merged kill count disagrees with the ledger");
        prop_assert!((out.metrics.jobs.wasted_jobs - wasted).abs() <= 1e-9);
        prop_assert!(out.metrics.requeues >= kills, "every kill re-enters the queue");
    }
}
