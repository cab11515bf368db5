//! Table 1 — the workload inventory, rendered from the live specs.

use rhythm_telemetry::json::{self, Obj};
use rhythm_workloads::catalog;

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = crate::Report::new("tab1", "LC workloads and BE jobs (Table 1)");
    report.line(catalog::render_table1());
    let lc = catalog::lc_rows();
    let be = catalog::be_rows();
    report.line(format!("{} LC services, {} BE jobs", lc.len(), be.len()));
    report.finish(json::object(|o| {
        o.arr("lc", &lc, |out, r| {
            Obj::open(out)
                .field("workload", &r.workload)
                .field("domain", r.domain)
                .field("servpods", &r.servpods)
                .field("maxload_qps", r.maxload_qps)
                .field("sla_ms", r.sla_ms)
                .field("containers", r.containers)
                .close();
        })
        .arr("be", &be, |out, r| {
            Obj::open(out)
                .field("workload", &r.workload)
                .field("domain", r.domain)
                .field("intensive", r.intensive)
                .close();
        });
    }))
}
