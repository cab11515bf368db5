//! Durable cluster state from the CLI: `repro snapshot`, `repro resume`
//! and `repro snapshot-diff`.
//!
//! ```text
//! repro snapshot [--machines N] [--epoch E] [--seed S] [--duration S]
//!                [--out FILE]       # capture the standard cluster cell
//!                                   # (N ≤ MAX_MACHINES)
//! repro resume FILE [--threads T]   # continue a capture to the horizon
//! repro snapshot-diff A B           # structural post-mortem diff
//! ```
//!
//! `snapshot` runs the same cell as `repro cluster` ([`crate::cluster`]'s
//! e-commerce context and config) under Rhythm, captures at the requested
//! epoch barrier, and writes the versioned binary to `FILE` (default
//! `results/snapshot_n<N>.bin`). `resume` rebuilds the cell from the
//! snapshot's own metadata (machines, seed, horizon, epoch length are all
//! embedded), so the only inputs it needs are the file and, optionally, a
//! worker-thread count — the continuation is bit-identical regardless.

use crate::report::results_dir;
use rhythm_chaos::outcome_fingerprint;
use rhythm_cluster::{ClusterOutcome, ClusterRunner, ClusterSnapshot};
use rhythm_core::experiment::ControllerChoice;
use std::io;
use std::path::PathBuf;

/// The most machines `repro snapshot --machines` accepts: 16 times the
/// largest cell any experiment or benchmark runs (4096 machines), and
/// small enough that the cell's job ledger and per-machine state are
/// bounded before anything is built.
pub const MAX_MACHINES: usize = 1 << 16;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `--flag value` pairs pulled out of an argument list.
type FlagPairs = Vec<(String, String)>;

/// Parses `--flag value` pairs and positionals out of `args`.
fn parse(args: &[String], flags: &[&str]) -> io::Result<(Vec<String>, FlagPairs)> {
    let mut positional = Vec::new();
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !flags.contains(&name) {
                return Err(invalid(format!("unknown flag --{name}")));
            }
            let v = it
                .next()
                .ok_or_else(|| invalid(format!("--{name} needs a value")))?;
            pairs.push((name.to_string(), v.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, pairs))
}

fn flag<T: std::str::FromStr>(pairs: &[(String, String)], name: &str, default: T) -> io::Result<T> {
    match pairs.iter().rev().find(|(n, _)| n == name) {
        None => Ok(default),
        Some((_, v)) => v
            .parse()
            .map_err(|_| invalid(format!("--{name}: cannot parse {v:?}"))),
    }
}

/// The standard cell for `snap`'s metadata: config fields that shape
/// state (machines, seed, horizon, epoch length) come from the snapshot
/// itself; everything else is [`crate::cluster::cell_config`]. A
/// machine count above [`MAX_MACHINES`] is refused before anything is
/// built.
fn cell_for(snap: &ClusterSnapshot, threads: usize) -> io::Result<rhythm_cluster::ClusterConfig> {
    let machines = usize::try_from(snap.machines)
        .ok()
        .filter(|&m| m <= MAX_MACHINES)
        .ok_or_else(|| {
            invalid(format!(
                "snapshot cell of {} machines: above the ceiling of {MAX_MACHINES}",
                snap.machines
            ))
        })?;
    let mut cfg = crate::cluster::cell_config(machines, snap.seed);
    cfg.duration_s = snap.duration_s;
    cfg.controller_period_ms = snap.controller_period_ms;
    cfg.threads = threads;
    Ok(cfg)
}

/// Reads and decodes a snapshot file; errors name the file.
fn read_snapshot(path: &str) -> io::Result<ClusterSnapshot> {
    let bytes =
        std::fs::read(path).map_err(|e| io::Error::new(e.kind(), format!("{path}: {e}")))?;
    ClusterSnapshot::from_bytes(&bytes).map_err(|e| invalid(format!("{path}: {e}")))
}

/// The headline metrics plus the full outcome fingerprint, so two runs
/// print the same line only when their outcomes agree bit for bit.
fn outcome_line(out: &ClusterOutcome) -> String {
    let m = &out.metrics;
    format!(
        "EMU {:.3}  LC {:.3}  BE {:.3}  jobs {}/{}  requeues {}  kills {}  outcome {:#018x}",
        m.emu,
        m.lc_throughput,
        m.be_throughput,
        m.jobs.completed,
        m.jobs.submitted,
        m.requeues,
        m.jobs.kills,
        outcome_fingerprint(out),
    )
}

/// `repro snapshot`: run the standard cell, capture, write the file.
pub fn snapshot(args: &[String]) -> io::Result<()> {
    let (pos, pairs) = parse(args, &["machines", "epoch", "seed", "duration", "out"])?;
    if !pos.is_empty() {
        return Err(invalid(format!("unexpected argument {:?}", pos[0])));
    }
    let machines: usize = flag(&pairs, "machines", 64)?;
    let epoch: u32 = flag(&pairs, "epoch", 5)?;
    let seed: u64 = flag(&pairs, "seed", 0xC1)?;
    let duration: u64 = flag(&pairs, "duration", 300)?;
    let out: String = flag(
        &pairs,
        "out",
        results_dir()
            .join(format!("snapshot_n{machines}.bin"))
            .to_string_lossy()
            .into_owned(),
    )?;
    if epoch == 0 {
        return Err(invalid("--epoch must be at least 1".into()));
    }
    if machines > MAX_MACHINES {
        return Err(invalid(format!(
            "--machines {machines}: above the ceiling of {MAX_MACHINES}"
        )));
    }

    let ctx = crate::cluster::context(seed);
    let pods = ctx.service.len();
    if machines < pods || !machines.is_multiple_of(pods) {
        return Err(invalid(format!(
            "--machines {machines}: must be a positive multiple of the service's {pods} Servpods"
        )));
    }
    let mut cfg = crate::cluster::cell_config(machines, seed);
    cfg.duration_s = duration;
    eprintln!(
        "[snapshot] running N={machines} seed={seed:#x} for {duration}s, capturing at epoch {epoch}"
    );
    let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &cfg)
        .snapshot_at(epoch)
        .run();
    let snap = run.snapshots.first().map(|(_, s)| s).ok_or_else(|| {
        invalid(format!(
            "epoch {epoch} is past the end of the {duration}s run"
        ))
    })?;
    let bytes = snap.to_bytes();
    if let Some(parent) = PathBuf::from(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out, &bytes)?;
    println!(
        "snapshot: epoch {epoch} (t={}s)  {} bytes  fingerprint {:#018x}  -> {out}",
        snap.t_ns / 1_000_000_000,
        bytes.len(),
        snap.fingerprint(),
    );
    println!("run:      {}", outcome_line(&run.outcome));
    Ok(())
}

/// `repro resume`: continue a captured cell to the end of its horizon.
pub fn resume(args: &[String]) -> io::Result<()> {
    let (pos, pairs) = parse(args, &["threads"])?;
    let [path] = pos.as_slice() else {
        return Err(invalid("usage: repro resume FILE [--threads T]".into()));
    };
    let threads: usize = flag(&pairs, "threads", 8)?;
    let snap = read_snapshot(path)?;
    let ctx = crate::cluster::context(snap.seed);
    let cfg = cell_for(&snap, threads)?;
    eprintln!(
        "[resume] {path}: N={} epoch {} (t={}s), continuing to {}s on {threads} threads",
        snap.machines,
        snap.epoch,
        snap.t_ns / 1_000_000_000,
        snap.duration_s,
    );
    let run = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &cfg)
        .map_err(|e| invalid(e.to_string()))?
        .run();
    println!("resumed:  {}", outcome_line(&run.outcome));
    Ok(())
}

/// `repro snapshot-diff`: render the structural diff of two captures.
pub fn diff(args: &[String]) -> io::Result<()> {
    let (pos, _) = parse(args, &[])?;
    let [a, b] = pos.as_slice() else {
        return Err(invalid("usage: repro snapshot-diff A B".into()));
    };
    let (sa, sb) = (read_snapshot(a)?, read_snapshot(b)?);
    print!("{}", sa.diff(&sb).render());
    Ok(())
}
