//! The cluster workloads: `ServiceContext::prepare` as set-up, then one
//! cell run under Rhythm as the timed body. On a durable workload the
//! body also captures a snapshot, round-trips it through the codec,
//! resumes it to the end on one thread and exports the telemetry.

use crate::jsoncheck;
use crate::pipeline::{self, thresholds_fp, Fnv, Work};
use crate::report::{median, Checks, Metrics};
use crate::spans::{Spans, Stopwatch};
use crate::workloads::ClusterDef;
use crate::{repeat, Opts, MIN_REPS, SETUP_REPS};
use rhythm_chaos::outcome_fingerprint;
use rhythm_cluster::{ClusterConfig, ClusterRun, ClusterRunner, ClusterSnapshot};
use rhythm_core::experiment::{ControllerChoice, ServiceContext};
use rhythm_core::profiling::{calibrate_sla, ProfileConfig};
use rhythm_telemetry::TelemetryConfig;
use std::sync::Arc;

/// Worker threads of the resumed run.
const RESUME_THREADS: usize = 1;

/// Repetitions of each probe run of the traced pass; the difference
/// metrics use their median.
const PROBE_REPS: usize = 3;

/// The simulated outcome and work counts of one repetition, all
/// deterministic: every repetition of a workload must produce the same.
#[derive(Clone, Debug, Default, PartialEq)]
struct Summary {
    requests: u64,
    emu_bits: u64,
    p99_bits: u64,
    jobs_completed: u64,
    kills: u64,
    outcome_fp: u64,
    machines_fp: u64,
    requeues: u64,
    snapshot_bytes: u64,
    jsonl_bytes: u64,
    decisions: u64,
    /// Hashes of the snapshot bytes, the JSONL export and the Chrome trace.
    durable_fp: Option<(u64, u64, u64)>,
}

/// What the durable stages of the body produced.
struct Restart {
    bytes: Vec<u8>,
    resumed: ClusterRun,
    jsonl: String,
    chrome: String,
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.feed_bytes(bytes);
    h.0
}

fn run_cell(
    ctx: &ServiceContext,
    choice: &ControllerChoice,
    cfg: &ClusterConfig,
    capture: Option<u32>,
) -> ClusterRun {
    let mut runner = ClusterRunner::new(ctx, choice, cfg);
    if let Some(epoch) = capture {
        runner = runner.snapshot_at(epoch);
    }
    runner.run()
}

/// One repetition of the body, each stage in its own span. The outputs
/// are returned for checking, so checks and deallocation stay untimed.
fn body(
    def: &ClusterDef,
    ctx: &ServiceContext,
    cfg: &ClusterConfig,
    tr: &mut Spans,
) -> Result<(ClusterRun, Option<Restart>), String> {
    tr.time("body", |tr| {
        let run = tr.time("cluster.run", |_| {
            run_cell(ctx, &ControllerChoice::Rhythm, cfg, def.snapshot_epoch)
        });
        if def.snapshot_epoch.is_none() {
            return Ok((run, None));
        }
        let (_, snapshot) = run.snapshots.first().ok_or("no snapshot was captured")?;
        let bytes = tr.time("snapshot.encode", |_| snapshot.to_bytes());
        let mut resume_cfg = cfg.clone();
        resume_cfg.threads = RESUME_THREADS;
        let resumed = tr.time("restart", |tr| {
            let snap = tr
                .time("snapshot.decode", |_| ClusterSnapshot::from_bytes(&bytes))
                .map_err(|e| format!("snapshot decode: {e}"))?;
            let runner = tr
                .time("cluster.resume_build", |_| {
                    ClusterRunner::resume(&snap, ctx, &ControllerChoice::Rhythm, &resume_cfg)
                })
                .map_err(|e| format!("resume: {e}"))?;
            Ok::<_, String>(tr.time("cluster.resume_run", |_| runner.run()))
        })?;
        let tel = run
            .outcome
            .telemetry
            .as_ref()
            .ok_or("the run recorded no telemetry")?;
        let (jsonl, chrome) = tr.time("export", |tr| {
            (
                tr.time("telemetry.jsonl", |_| tel.export_jsonl()),
                tr.time("telemetry.chrome", |_| tel.chrome_trace()),
            )
        });
        Ok((
            run,
            Some(Restart {
                bytes,
                resumed,
                jsonl,
                chrome,
            }),
        ))
    })
}

/// Every line of a JSONL export parses as JSON.
fn check_jsonl(checks: &mut Checks, text: &str) {
    let bad = text
        .lines()
        .enumerate()
        .find_map(|(i, line)| jsoncheck::validate(line).err().map(|at| (i + 1, at)));
    checks.check(bad.is_none() && !text.is_empty(), || {
        format!("JSONL export: (line, offset) {bad:?} is not JSON")
    });
}

/// Checks one repetition's outputs and condenses them. `full` adds the
/// checks that re-export the resumed run and parse the exports.
fn verify(run: &ClusterRun, restart: Option<&Restart>, checks: &mut Checks, full: bool) -> Summary {
    let out = &run.outcome;
    let mut machines = Fnv::default();
    out.fingerprints.iter().for_each(|&fp| machines.feed(fp));
    let mut summary = Summary {
        requests: out.metrics.completed_requests,
        emu_bits: out.metrics.emu.to_bits(),
        p99_bits: out.metrics.p99_ms.to_bits(),
        jobs_completed: out.metrics.jobs.completed,
        kills: out.metrics.jobs.kills,
        outcome_fp: outcome_fingerprint(out),
        machines_fp: machines.0,
        requeues: out.metrics.requeues,
        ..Summary::default()
    };
    let Some(r) = restart else {
        return summary;
    };
    checks.check(r.resumed.outcome.fingerprints == out.fingerprints, || {
        "resumed run's machine fingerprints differ from the straight-through run's".into()
    });
    checks.check(
        outcome_fingerprint(&r.resumed.outcome) == summary.outcome_fp,
        || "resumed run's outcome differs from the straight-through run's".into(),
    );
    if full {
        let resumed_jsonl = r
            .resumed
            .outcome
            .telemetry
            .as_ref()
            .map(|t| t.export_jsonl());
        checks.check(resumed_jsonl.as_deref() == Some(r.jsonl.as_str()), || {
            "resumed run's JSONL export differs from the straight-through run's".into()
        });
        check_jsonl(checks, &r.jsonl);
        checks.check(jsoncheck::validate(&r.chrome).is_ok(), || {
            "Chrome trace is not JSON".into()
        });
    }
    summary.durable_fp = Some((
        hash(&r.bytes),
        hash(r.jsonl.as_bytes()),
        hash(r.chrome.as_bytes()),
    ));
    summary.snapshot_bytes = r.bytes.len() as u64;
    summary.jsonl_bytes = r.jsonl.len() as u64;
    summary.decisions = out.telemetry.as_ref().map_or(0, |t| t.decisions() as u64);
    summary
}

pub fn run(def: &ClusterDef, opts: &Opts, m: &mut Metrics, checks: &mut Checks) -> Option<Spans> {
    let mut cfg = def.cfg.clone();
    cfg.threads = if def.parallel { opts.threads } else { 1 };
    let n = cfg.machines;
    let epochs = cfg.duration_s * 1000 / cfg.controller_period_ms.max(100);
    let capture = def.snapshot_epoch;

    let setups = repeat(SETUP_REPS, 0.0, |_| {
        let t = Stopwatch::start();
        let ctx = ServiceContext::prepare(def.service.clone(), &def.probe_bes, def.seed);
        (t.elapsed_s(), thresholds_fp(&ctx.thresholds), ctx)
    });
    let (_, ctx_fp, ctx) = &setups[0];
    for (i, s) in setups.iter().enumerate().skip(1) {
        checks.check(s.1 == *ctx_fp, || {
            format!("set-up {i} derived other thresholds")
        });
    }

    // Every repetition records its stage spans under its own run id.
    let mut tr = Spans::new(0);
    let reps: Vec<Summary> = repeat(MIN_REPS, opts.seconds, |i| {
        tr.set_run(i);
        body(def, ctx, &cfg, &mut tr)
            .map(|(run, restart)| verify(&run, restart.as_ref(), checks, i == 0))
    })
    .into_iter()
    .filter_map(|r| r.map_err(|e| checks.check(false, || e)).ok())
    .collect();
    let first = reps.first()?;
    for (i, s) in reps.iter().enumerate().skip(1) {
        checks.check(s == first, || {
            format!("repetition {i} simulated {s:?}, repetition 0 {first:?}")
        });
    }
    checks.check(first.requests > 0, || "no requests simulated".into());
    let untraced_body = tr.durations_s("body");
    let wall_s = median(&untraced_body);
    let med = |tr: &Spans, name: &str| {
        let d = tr.durations_s(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    println!(
        "cell: {n} machines, {epochs} epochs, {} worker threads, {} set-ups, {} repetitions, {} sim requests and {} machine-epochs per repetition",
        cfg.threads,
        setups.len(),
        reps.len(),
        first.requests,
        n as u64 * epochs
    );
    if def.snapshot_epoch.is_some() {
        println!(
            "durable stages (median): restart {:.6} s, export {:.6} s, snapshot {} bytes, JSONL {} bytes",
            med(&tr, "restart"),
            med(&tr, "export"),
            first.snapshot_bytes,
            first.jsonl_bytes
        );
    }
    let setup_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    crate::print_samples(&setup_s, &untraced_body);
    m.set("setup_s", median(&setup_s));
    m.set("wall_s", wall_s);
    let rates: Vec<f64> = tr
        .durations_s("cluster.run")
        .iter()
        .map(|s| first.requests as f64 / s)
        .collect();
    m.set("sim_req_per_s", median(&rates));
    if !opts.trace {
        return None;
    }

    // The traced pass: the set-up taken apart into its public calls,
    // then one more body on the context it derived.
    tr.set_run(reps.len());
    let mut work = Work::default();
    let traced_ctx = tr.time("setup", |tr| {
        let sla_ms = tr.time("core.calibrate", |_| calibrate_sla(&def.service, def.seed));
        let pcfg = ProfileConfig {
            seed: def.seed,
            ..ProfileConfig::default()
        };
        let p = tr.time("core.profile", |tr| {
            pipeline::profile(&def.service, &pcfg, tr, &mut work)
        });
        let thresholds = tr.time("core.thresholds", |tr| {
            pipeline::thresholds(
                &def.service,
                &p,
                sla_ms,
                &def.probe_bes,
                def.seed,
                tr,
                &mut work,
            )
        });
        ServiceContext {
            service: Arc::new(def.service.clone()),
            sla_ms,
            thresholds,
            seed: def.seed,
        }
    });
    checks.check(thresholds_fp(&traced_ctx.thresholds) == *ctx_fp, || {
        "traced set-up derived other thresholds than ServiceContext::prepare".into()
    });
    let summary = match body(def, &traced_ctx, &cfg, &mut tr) {
        Ok((run, restart)) => verify(&run, restart.as_ref(), checks, false),
        Err(e) => {
            checks.check(false, || format!("traced run: {e}"));
            return Some(tr);
        }
    };
    checks.check(summary == *first, || {
        "traced run simulated another outcome".into()
    });
    let traced_body = tr.durations_s("body").last().copied().unwrap_or(0.0);

    // Probes: the same cell with no BE management, the cell at N/4 both
    // ways, and (with telemetry) telemetry switched off.
    let mut quarter = cfg.clone();
    quarter.machines = n / 4;
    let mut quiet = cfg.clone();
    quiet.telemetry = TelemetryConfig::disabled();
    tr.time("probes", |tr| {
        for _ in 0..PROBE_REPS {
            tr.time("probe.solo_run", |_| {
                run_cell(ctx, &ControllerChoice::Solo, &cfg, capture)
            });
            if def.scaling_probe {
                tr.time("probe.quarter_run", |_| {
                    run_cell(ctx, &ControllerChoice::Rhythm, &quarter, capture)
                });
                tr.time("probe.quarter_solo_run", |_| {
                    run_cell(ctx, &ControllerChoice::Solo, &quarter, capture)
                });
            }
            if cfg.telemetry.enabled {
                tr.time("probe.untelemetered_run", |_| {
                    run_cell(ctx, &ControllerChoice::Rhythm, &quiet, capture)
                });
            }
        }
    });

    crate::layer_metrics(m, &tr, &work, opts, cfg.threads);
    let run_s = med(&tr, "cluster.run");
    let solo_s = med(&tr, "probe.solo_run");
    let overhead = run_s - solo_s;
    m.set("cluster.run_s", run_s);
    m.set("cluster.solo_run_s", solo_s);
    m.set("cluster.managed_overhead_s", overhead);
    m.set(
        "cluster.ns_per_machine_epoch",
        run_s * 1e9 / (n as u64 * epochs) as f64,
    );
    if def.scaling_probe {
        let quarter_overhead = med(&tr, "probe.quarter_run") - med(&tr, "probe.quarter_solo_run");
        m.set("cluster.overhead_growth_4x", overhead / quarter_overhead);
    }
    m.set("cluster.jobs_completed", summary.jobs_completed as f64);
    m.set("cluster.kills", summary.kills as f64);
    m.set("cluster.requeues", summary.requeues as f64);
    if def.snapshot_epoch.is_some() {
        m.set("cluster.resume_build_s", med(&tr, "cluster.resume_build"));
        m.set("snapshot.encode_s", med(&tr, "snapshot.encode"));
        m.set("snapshot.decode_s", med(&tr, "snapshot.decode"));
        m.set("snapshot.bytes", summary.snapshot_bytes as f64);
        m.set(
            "telemetry.record_overhead_s",
            run_s - med(&tr, "probe.untelemetered_run"),
        );
        m.set("telemetry.jsonl_s", med(&tr, "telemetry.jsonl"));
        m.set("telemetry.jsonl_bytes", summary.jsonl_bytes as f64);
        m.set("telemetry.chrome_s", med(&tr, "telemetry.chrome"));
        m.set("telemetry.decisions", summary.decisions as f64);
        m.set("restart_s", med(&tr, "restart"));
        m.set("export_s", med(&tr, "export"));
    }
    m.set("trace.overhead_s", traced_body - wall_s);
    m.set("work.sim_requests", summary.requests as f64);
    m.set("work.machine_epochs", (n as u64 * epochs) as f64);
    Some(tr)
}
