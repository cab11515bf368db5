//! Same-host benchmark of the Rhythm simulator.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!                       [--threads <n>]
//! ```
//!
//! One process runs one workload of `BENCHMARK.json`: it builds the
//! workload's inputs from the seed (default `0xC1`), times the set-up
//! several times and the body repeatedly for `--seconds`, checks the
//! outputs, prints every metric with its unit and ends with one JSON
//! result line. Medians are reported. `--trace 1` adds one traced pass
//! that wraps every layer call in a span and reports per-crate layer
//! metrics instead of the end-to-end ones; its spans go to standard
//! error as JSON lines when the run ends. `--threads` sets the worker
//! pool of the parallel straight-through run (default min(2, nproc)) and
//! may not exceed nproc.
//!
//! Every layer is driven only through its crate's public functions, and
//! all timing happens here, so the simulated results are those of the
//! library: a speed-only change must leave every check passing.

mod cluster;
mod jsoncheck;
mod pipeline;
mod profile;
mod report;
mod spans;
mod workloads;

use pipeline::Work;
use report::{Checks, Metrics};
use spans::{Spans, Stopwatch};
use std::process::ExitCode;
use workloads::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Minimum body repetitions per run, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;

pub struct Opts {
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads of a parallel straight-through run.
    pub threads: usize,
    pub nproc: usize,
}

/// Calls `f(i)` for i = 0, 1, … until at least `min` calls were made and
/// `budget_s` seconds have passed.
pub fn repeat<T>(min: usize, budget_s: f64, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Stopwatch::start();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed_s() < budget_s {
        out.push(f(out.len()));
    }
    out
}

/// Prints every set-up and body sample of the run, in seconds.
pub fn print_samples(setup_s: &[f64], body_s: &[f64]) {
    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("set-up samples (s): {}", fmt(setup_s));
    println!("body samples (s): {}", fmt(body_s));
}

/// The core, tracer and analyzer metrics of a traced pass, from its
/// spans and work counts, plus the host description.
pub fn layer_metrics(m: &mut Metrics, tr: &Spans, work: &Work, opts: &Opts, threads: usize) {
    let engine_s = tr.total_s("core.engine_run");
    m.set("core.engine_run_s", engine_s);
    m.set("core.engine_runs", work.engine_runs as f64);
    m.set(
        "core.ns_per_sim_req",
        engine_s * 1e9 / work.engine_requests.max(1) as f64,
    );
    m.set("core.calibrate_s", tr.total_s("core.calibrate"));
    m.set("core.profile_s", tr.total_s("core.profile"));
    m.set("core.thresholds_s", tr.total_s("core.thresholds"));
    if work.tracer_events > 0 {
        let capture_s = tr.total_s("tracer.capture");
        let pair_s = tr.total_s("tracer.pair");
        m.set("tracer.capture_s", capture_s);
        m.set("tracer.pair_s", pair_s);
        m.set("tracer.events", work.tracer_events as f64);
        m.set(
            "tracer.ns_per_event",
            (capture_s + pair_s) * 1e9 / work.tracer_events as f64,
        );
        m.set(
            "tracer.paired_frac",
            work.tracer_paired as f64 / work.tracer_captured.max(1) as f64,
        );
    }
    m.set("analyzer.contrib_s", tr.total_s("analyzer.contributions"));
    m.set("analyzer.loadlimit_s", tr.total_s("analyzer.loadlimits"));
    m.set(
        "analyzer.slacklimit_self_s",
        tr.self_s("analyzer.slacklimits"),
    );
    m.set("analyzer.probation_runs", work.probation_runs as f64);
    m.set("host.nproc", opts.nproc as f64);
    m.set("host.threads", threads as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0xC1,
        seconds: 10.0,
        trace: false,
        threads: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = workloads::parse_seed(&v).ok_or(format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--threads" => {
                let v = value()?;
                args.threads = Some(v.parse().map_err(|_| format!("bad --threads {v:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.threads.unwrap_or(nproc.min(2));
    if threads == 0 || threads > nproc {
        eprintln!("perfbench: --threads {threads} must be between 1 and nproc ({nproc})");
        return ExitCode::from(2);
    }
    let Some(def) = workloads::define(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let opts = Opts {
        seconds: args.seconds,
        trace: args.trace,
        threads,
        nproc,
    };
    println!(
        "perfbench: workload {} seed {:#x} seconds {} trace {} nproc {nproc} threads {threads}",
        args.workload, args.seed, opts.seconds, opts.trace as u8
    );

    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let spans = match &def {
        Workload::Profile(d) => profile::run(d, &opts, &mut m, &mut checks),
        Workload::Cluster(d) => cluster::run(d, &opts, &mut m, &mut checks),
    };
    if let Some(mb) = report::peak_rss_mb() {
        m.set("peak_rss_mb", mb);
    }
    if let Some(tr) = &spans {
        eprint!("{}", tr.to_jsonl());
    }
    let catalog = if opts.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    report::emit(&m, catalog, !opts.trace, &mut checks);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "profile-tracer",
            "--seed",
            "0x10",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("profile-tracer", 16, 3.0, true)
        );
        assert_eq!(parse(&["--workload", "x"]).map(|a| a.seed).ok(), Some(0xC1));
        for bad in [
            &["--trace", "2", "--workload", "x"][..],
            &["--workload"],
            &["--seconds", "-1", "--workload", "x"],
            &["--seed", "abc", "--workload", "x"],
            &["--bogus"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn repeat_honours_minimum_and_budget() {
        assert_eq!(repeat(3, 0.0, |i| i), vec![0, 1, 2]);
        let start = Stopwatch::start();
        let n = repeat(1, 0.02, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        })
        .len();
        assert!(n >= 2 && start.elapsed_s() >= 0.02);
    }
}
