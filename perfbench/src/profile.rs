//! `profile-tracer`: the offline stage on a chain DAG (e-commerce) and a
//! fan-out DAG (SNMS) — SLA calibration as set-up, then tracer profiling
//! over 19 load levels and Algorithm 1 as the timed body.

use crate::pipeline::{self, profile_fp, thresholds_fp, Work};
use crate::report::{median, Checks, Metrics};
use crate::spans::{Spans, Stopwatch};
use crate::workloads::ProfileDef;
use crate::{repeat, Opts, MIN_REPS, SETUP_REPS};
use rhythm_core::profiling::{calibrate_sla, derive_thresholds, profile_service};

/// What one body repetition produced.
struct Rep {
    wall_s: f64,
    profile_s: f64,
    requests: u64,
    /// Per service: (profile fingerprint, thresholds fingerprint).
    fps: Vec<(u64, u64)>,
}

fn body(def: &ProfileDef, slas: &[f64]) -> Rep {
    let start = Stopwatch::start();
    let mut profile_s = 0.0;
    let mut requests = 0;
    let mut fps = Vec::new();
    for (service, &sla) in def.services.iter().zip(slas) {
        let t = Stopwatch::start();
        let p = profile_service(service, &def.profile);
        profile_s += t.elapsed_s();
        let th = derive_thresholds(service, &p, sla, &def.probe_bes, def.profile.seed);
        requests += p.levels.iter().map(|l| l.requests).sum::<u64>();
        fps.push((profile_fp(&p), thresholds_fp(&th)));
    }
    Rep {
        wall_s: start.elapsed_s(),
        profile_s,
        requests,
        fps,
    }
}

pub fn run(def: &ProfileDef, opts: &Opts, m: &mut Metrics, checks: &mut Checks) -> Option<Spans> {
    let seed = def.profile.seed;
    let setups = repeat(SETUP_REPS, 0.0, |_| {
        let t = Stopwatch::start();
        let slas: Vec<f64> = def
            .services
            .iter()
            .map(|s| calibrate_sla(s, seed))
            .collect();
        (t.elapsed_s(), slas)
    });
    let slas = setups[0].1.clone();
    for (i, (_, s)) in setups.iter().enumerate().skip(1) {
        checks.check(s == &slas, || {
            format!("set-up {i} calibrated other SLAs: {s:?} vs {slas:?}")
        });
    }
    let reps = repeat(MIN_REPS, opts.seconds, |_| body(def, &slas));
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        checks.check(r.fps == first.fps && r.requests == first.requests, || {
            format!("repetition {i} profiled or thresholded differently")
        });
    }
    checks.check(first.requests > 0, || "no requests profiled".into());
    println!(
        "profile-tracer: {} services, {} load levels, {} set-ups, {} repetitions, {} profiled requests per repetition",
        def.services.len(),
        def.profile.load_levels.len(),
        setups.len(),
        reps.len(),
        first.requests
    );
    let setup_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let wall_s: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    crate::print_samples(&setup_s, &wall_s);
    m.set("setup_s", median(&setup_s));
    m.set("wall_s", median(&wall_s));
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.requests as f64 / r.profile_s)
        .collect();
    m.set("sim_req_per_s", median(&rates));
    if !opts.trace {
        return None;
    }

    let mut tr = Spans::new(0);
    let mut work = Work::default();
    let traced_slas: Vec<f64> = tr.time("setup", |tr| {
        def.services
            .iter()
            .map(|s| tr.time("core.calibrate", |_| calibrate_sla(s, seed)))
            .collect()
    });
    checks.check(traced_slas == slas, || {
        "traced set-up calibrated other SLAs".into()
    });
    let fps: Vec<(u64, u64)> = tr.time("body", |tr| {
        def.services
            .iter()
            .zip(&slas)
            .map(|(service, &sla)| {
                let p = tr.time("core.profile", |tr| {
                    pipeline::profile(service, &def.profile, tr, &mut work)
                });
                let th = tr.time("core.thresholds", |tr| {
                    pipeline::thresholds(service, &p, sla, &def.probe_bes, seed, tr, &mut work)
                });
                (profile_fp(&p), thresholds_fp(&th))
            })
            .collect()
    });
    for (i, (traced, untraced)) in fps.iter().zip(&first.fps).enumerate() {
        checks.check(traced.0 == untraced.0, || {
            format!("service {i}: traced profile differs")
        });
        checks.check(traced.1 == untraced.1, || {
            format!("service {i}: traced thresholds differ")
        });
    }
    crate::layer_metrics(m, &tr, &work, opts, 1);
    m.set("trace.overhead_s", tr.total_s("body") - median(&wall_s));
    m.set("work.sim_requests", first.requests as f64);
    Some(tr)
}
