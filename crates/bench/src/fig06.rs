//! Figure 6 — average sojourn times of the E-commerce Servpods and
//! their normalized coefficients of variation, collected in solo-run.

use rhythm_core::{profile_service, ProfileConfig};
use rhythm_telemetry::json::{self, Obj, Sink, ToJson};
use rhythm_workloads::apps;

/// The Figure 6 dataset.
#[derive(Clone, Debug)]
pub struct Fig06 {
    /// Servpod names.
    pub pods: Vec<String>,
    /// Load fractions.
    pub loads: Vec<f64>,
    /// Mean sojourn per pod per load (ms), `[pod][load]`.
    pub mean_sojourn_ms: Vec<Vec<f64>>,
    /// 99p latency per load (ms).
    pub p99_ms: Vec<f64>,
    /// Normalized CoV share per pod per load (each load column sums to
    /// 1), `[pod][load]`.
    pub cov_share: Vec<Vec<f64>>,
}

impl ToJson for Fig06 {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("pods", &self.pods)
            .field("loads", &self.loads)
            .field("mean_sojourn_ms", &self.mean_sojourn_ms)
            .field("p99_ms", &self.p99_ms)
            .field("cov_share", &self.cov_share)
            .close();
    }
}

/// Collects the Figure 6 dataset via the profiling pipeline (the full
/// tracer path: events → filter → pairing → sojourns).
pub fn collect(seed: u64) -> Fig06 {
    let service = apps::ecommerce();
    let cfg = ProfileConfig {
        load_levels: (1..=17).map(|i| f64::from(i) * 0.05).collect(),
        duration_s: 40,
        seed,
        min_requests: 3_000,
        use_tracer: true,
    };
    let profile = profile_service(&service, &cfg);
    let n = profile.pods();
    let loads = profile.loads();
    let mean_sojourn_ms: Vec<Vec<f64>> = (0..n).map(|i| profile.sojourn_series(i)).collect();
    let p99_ms = profile.tail_series();
    let mut cov_share = vec![vec![0.0; loads.len()]; n];
    for (j, level) in profile.levels.iter().enumerate() {
        let total: f64 = level.sojourn_cov.iter().sum();
        for (i, share) in cov_share.iter_mut().enumerate().take(n) {
            share[j] = if total > 0.0 {
                level.sojourn_cov[i] / total
            } else {
                0.0
            };
        }
    }
    Fig06 {
        pods: profile.pod_names.clone(),
        loads,
        mean_sojourn_ms,
        p99_ms,
        cov_share,
    }
}

/// Renders the dataset as two text tables (6a and 6b).
pub fn render(d: &Fig06) -> String {
    let mut out = String::new();
    out.push_str("(a) average sojourn time (ms) and overall 99p\n");
    out.push_str(&format!("{:<8}", "load"));
    for p in &d.pods {
        out.push_str(&format!(" {p:>12}"));
    }
    out.push_str(&format!(" {:>10}\n", "99th"));
    for (j, &load) in d.loads.iter().enumerate() {
        out.push_str(&format!("{:<7.0}%", load * 100.0));
        for i in 0..d.pods.len() {
            out.push_str(&format!(" {:>12.2}", d.mean_sojourn_ms[i][j]));
        }
        out.push_str(&format!(" {:>10.1}\n", d.p99_ms[j]));
    }
    out.push_str("\n(b) normalized coefficient-of-variation share\n");
    out.push_str(&format!("{:<8}", "load"));
    for p in &d.pods {
        out.push_str(&format!(" {p:>12}"));
    }
    out.push('\n');
    for (j, &load) in d.loads.iter().enumerate() {
        out.push_str(&format!("{:<7.0}%", load * 100.0));
        for i in 0..d.pods.len() {
            out.push_str(&format!(" {:>12.3}", d.cov_share[i][j]));
        }
        out.push('\n');
    }
    out
}

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = crate::Report::new(
        "fig06",
        "E-commerce Servpod sojourn times and CoV over load (Figure 6)",
    );
    let d = collect(0xF06);
    report.line(render(&d));
    // Headline checks from the paper's discussion.
    let idx = |name: &str| d.pods.iter().position(|p| p == name).expect("pod");
    let (hap, tom, myq) = (idx("haproxy"), idx("tomcat"), idx("mysql"));
    let last = d.loads.len() - 1;
    let hap_share = d.mean_sojourn_ms[hap][last]
        / d.pods
            .iter()
            .enumerate()
            .map(|(i, _)| d.mean_sojourn_ms[i][last])
            .sum::<f64>();
    report.line(format!(
        "haproxy sojourn share at max load: {:.1}% (paper: <5%)",
        hap_share * 100.0
    ));
    report.line(format!(
        "haproxy CoV share at max load: {:.1}% (paper: >20%)",
        d.cov_share[hap][last] * 100.0
    ));
    report.line(format!(
        "mysql sojourn at max load {:.1} ms vs tomcat {:.1} ms (paper: mysql grows fastest beyond 50%)",
        d.mean_sojourn_ms[myq][last], d.mean_sojourn_ms[tom][last]
    ));
    report.finish(json::to_string(&d))
}
