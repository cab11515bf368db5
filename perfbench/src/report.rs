//! Metric catalog, output checks and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them on an
/// untraced run. `(name, unit)`; `BENCHMARK.json` lists the same.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, named `<crate>.<metric>`. A
/// workload that never calls a layer reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.engine_run_s", "s"),
    ("core.engine_runs", "count"),
    ("core.ns_per_sim_req", "ns"),
    ("core.calibrate_s", "s"),
    ("core.profile_s", "s"),
    ("core.thresholds_s", "s"),
    ("tracer.capture_s", "s"),
    ("tracer.pair_s", "s"),
    ("tracer.events", "count"),
    ("tracer.ns_per_event", "ns"),
    ("tracer.paired_frac", "ratio"),
    ("analyzer.contrib_s", "s"),
    ("analyzer.loadlimit_s", "s"),
    ("analyzer.slacklimit_self_s", "s"),
    ("analyzer.probation_runs", "count"),
    ("cluster.run_s", "s"),
    ("cluster.solo_run_s", "s"),
    ("cluster.managed_overhead_s", "s"),
    ("cluster.ns_per_machine_epoch", "ns"),
    ("cluster.overhead_growth_4x", "ratio"),
    ("cluster.jobs_completed", "count"),
    ("cluster.kills", "count"),
    ("cluster.requeues", "count"),
    ("cluster.resume_build_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("telemetry.record_overhead_s", "s"),
    ("telemetry.jsonl_s", "s"),
    ("telemetry.jsonl_bytes", "bytes"),
    ("telemetry.chrome_s", "s"),
    ("telemetry.decisions", "count"),
    ("restart_s", "s"),
    ("export_s", "s"),
    ("trace.overhead_s", "s"),
    ("work.sim_requests", "count"),
    ("work.machine_epochs", "count"),
    ("host.nproc", "count"),
    ("host.threads", "count"),
];

/// Output checks: each is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Measured metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Prints the metrics of `catalog` one per line, then the result line
/// (the last line of standard output). An end-to-end metric the run did
/// not measure fails the run; a per-layer metric of a layer the workload
/// never calls reads 0.
pub fn emit(
    metrics: &Metrics,
    catalog: &[(&'static str, &str)],
    required: bool,
    checks: &mut Checks,
) {
    let mut fields = Vec::new();
    for &(name, unit) in catalog {
        let measured = metrics.get(name);
        checks.check(measured.map_or(!required, f64::is_finite), || {
            format!("metric {name} reads {measured:?}")
        });
        let value = measured.filter(|v| v.is_finite()).unwrap_or(0.0);
        let note = if measured.is_none() {
            "  (layer not exercised)"
        } else {
            ""
        };
        println!("{name:<30} {value:>18.6} {unit}{note}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for f in &checks.failures {
        println!("check failed: {f}");
    }
    let error_rate = checks.failed() as f64 / checks.attempted.max(1) as f64;
    println!(
        "checks: {} attempted, {} failed, error_rate {error_rate} ratio",
        checks.attempted,
        checks.failed()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.attempted.max(1),
        checks.failed(),
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsoncheck;
    use crate::workloads::NAMES;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    /// The `"name"` of every metric object (the lines carrying a unit).
    fn declared_metrics(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK_JSON[start..];
        let end = body.find(']').expect("section is a list");
        let field = |line: &str, key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        body[..end]
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    #[test]
    fn benchmark_json_is_valid_json() {
        assert_eq!(jsoncheck::validate(BENCHMARK_JSON), Ok(()));
    }

    #[test]
    fn every_metric_is_named_validly_and_declared_with_its_unit() {
        for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = declared_metrics(section);
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{section} in BENCHMARK.json vs the catalog");
            for (name, _) in &ours {
                assert!(valid_name(name), "{name}");
            }
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(before, all.len(), "metric names are unique");
    }

    #[test]
    fn every_workload_is_declared() {
        for name in NAMES {
            let key = format!("\"name\": \"{name}\", \"why\": ");
            assert!(
                BENCHMARK_JSON.contains(&key),
                "{name} missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("core.ns_per_sim_req"));
        assert!(valid_name("a-b_c.9"));
        assert!(!valid_name(""));
        assert!(!valid_name("req/s"));
        assert!(!valid_name("wall s"));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || "never".into());
        c.check(false, || "broken".into());
        assert_eq!((c.attempted, c.failed()), (2, 1));
        assert_eq!(c.failures, vec!["broken".to_string()]);
    }
}
