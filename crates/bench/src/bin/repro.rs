//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <id> [...]   # one or more of: tab1 fig02 fig06 fig07 fig08
//!                    #   fig09 fig10 fig11 fig12 fig13 fig14
//!                    #   fig15 fig16 fig17 fig18 tab2 ablate cluster
//!                    #   chaos trace lint
//! repro all          # everything (reuses the Figures 9-14 grid)
//! repro --json <id>  # print the JSON document instead of text tables
//! repro cluster --hetero  # heterogeneous 4-machine cell instead of the
//!                         # homogeneous N ∈ {4,16,64} sweep
//! repro lint --github     # also emit ::error workflow commands so CI
//!                         # annotates findings inline in the PR diff
//! repro snapshot [--machines N] [--epoch E] [--out FILE]
//!                         # capture the standard cell at an epoch barrier
//! repro resume FILE       # continue a capture to the end of its horizon
//! repro snapshot-diff A B # structural diff of two captures
//! ```
//!
//! Results are written as text + JSON under `results/` (override with
//! `RHYTHM_RESULTS_DIR`). `--json` switches stdout from the text tables
//! to the same JSON document written to `results/<id>.json`. A bad
//! argument or file prints one `repro: <msg>` line and exits 2.

use rhythm_bench as b;
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
}

fn run() -> std::io::Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_mode = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let hetero = args.iter().any(|a| a == "--hetero");
    args.retain(|a| a != "--hetero");
    let github = args.iter().any(|a| a == "--github");
    args.retain(|a| a != "--github");
    b::report::set_json_stdout(json_mode);
    // The snapshot family takes its own flags/positionals, not a target
    // list — dispatch before the experiment loop.
    match args.first().map(String::as_str) {
        Some("snapshot") => return b::snapshotcli::snapshot(&args[1..]),
        Some("resume") => return b::snapshotcli::resume(&args[1..]),
        Some("snapshot-diff") => return b::snapshotcli::diff(&args[1..]),
        _ => {}
    }
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "tab1",
            "fig02",
            "fig06",
            "fig07",
            "fig08",
            "grid",
            "fig15",
            "fig16",
            "fig17",
            "fig18+tab2",
            "ablate",
            "cluster",
            "chaos",
            "trace",
            "lint",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let grid_ids = ["fig09", "fig10", "fig11", "fig12", "fig13", "fig14"];
    let mut grid: Option<b::colocation::Grid> = None;
    for t in targets {
        let started = Instant::now();
        eprintln!("[repro] running {t} ...");
        match t {
            "tab1" => b::tab1::run()?,
            "fig02" => b::fig02::run()?,
            "fig06" => b::fig06::run()?,
            "fig07" => b::fig07::run()?,
            "fig08" => b::fig08::run()?,
            id if id == "grid" || grid_ids.contains(&id) => {
                let g = match grid {
                    Some(ref g) => g,
                    None => {
                        let g = b::colocation::build(0xF09);
                        b::colocation::write_grid(&g)?;
                        grid.insert(g)
                    }
                };
                use b::colocation::{fig09, fig10, fig11, fig12, fig13, fig14};
                let figs = [fig09, fig10, fig11, fig12, fig13, fig14];
                for (fig_id, fig) in grid_ids.iter().zip(figs) {
                    if id == "grid" || id == *fig_id {
                        fig(g)?;
                    }
                }
            }
            "fig15" => b::fig15::run()?,
            "fig16" => b::fig16::run()?,
            "fig17" => b::fig17::run()?,
            "fig18+tab2" => {
                let d = b::fig18::collect(0xF18);
                b::fig18::render_fig18(&d)?;
                b::fig18::render_tab2(&d)?;
            }
            "fig18" => b::fig18::run()?,
            "tab2" => b::fig18::run_tab2()?,
            "ablate" => b::ablate::run()?,
            "cluster" if hetero => b::cluster::run_hetero()?,
            "cluster" => b::cluster::run()?,
            "chaos" => b::chaos::run()?,
            "trace" => b::trace::run()?,
            "lint" => b::lint::run(github)?,
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("unknown experiment id: {other}"),
                ))
            }
        }
        eprintln!(
            "[repro] {t} done in {:.1}s",
            started.elapsed().as_secs_f64()
        );
    }
    Ok(())
}
