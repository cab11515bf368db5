//! A production day: co-locate the SNMS microservice application with a
//! batch workload under a diurnal (ClarkNet-like) load trace, and watch
//! the controller ride the load curve.
//!
//! ```text
//! cargo run --release --example production_day
//! ```

use rhythm::core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm::core::timeline::phase_summary;
use rhythm::prelude::*;

fn main() {
    // SNMS: the DeathStarBench social network divided into three
    // Servpods (frontend / UserService / MediaService, §5.3.2).
    let ctx = ServiceContext::prepare(apps::snms(), &BeSpec::colocation_set(), 2026);
    println!("SNMS measured SLA: {:.0} ms", ctx.sla_ms);
    for (c, t) in ctx
        .thresholds
        .contributions
        .iter()
        .zip(&ctx.thresholds.thresholds)
    {
        println!(
            "  {:<13} contribution {:.3} (alpha {:.2}) -> loadlimit {:.0}%, slacklimit {:.3}",
            c.name,
            c.value,
            c.alpha,
            t.loadlimit * 100.0,
            t.slacklimit
        );
    }

    // One compressed "day" of diurnal load, peaking at 95% of max.
    let day = 1_200; // Virtual seconds.
    let load = LoadGen::clarknet_like(1, SimDuration::from_secs(day), 120, 0.95, 2026);
    println!(
        "\ndiurnal trace: mean load {:.0}%, peak {:.0}%",
        load.mean_fraction() * 100.0,
        load.peak_fraction() * 100.0
    );
    let cell = ExperimentConfig {
        bes: vec![BeSpec::of(BeKind::Wordcount)],
        load,
        duration_s: day,
        seed: 2026,
        record_timeline: true,
        controller_period_ms: 500,
    };
    let (out, rhythm) = ctx.run(ControllerChoice::Rhythm, &cell);
    let (_, heracles) = ctx.run(ControllerChoice::Heracles, &cell);

    println!("\nover the day (Rhythm vs Heracles):");
    println!("  EMU            {:.2} vs {:.2}", rhythm.emu, heracles.emu);
    println!(
        "  BE throughput  {:.2} vs {:.2}",
        rhythm.be_throughput, heracles.be_throughput
    );
    println!(
        "  CPU util       {:.0}% vs {:.0}%",
        rhythm.cpu_util * 100.0,
        heracles.cpu_util * 100.0
    );
    println!(
        "  worst p99/SLA  {:.2} vs {:.2}",
        rhythm.tail_ratio, heracles.tail_ratio
    );

    // The UserService machine's phases through the day.
    let user = ctx.service.index_of("userservice").expect("pod");
    println!("\nUserService machine phases (Rhythm):");
    for (t, label) in phase_summary(&out.timeline, user).iter().take(24) {
        println!("  t={t:>7.0}s {label}");
    }
}
