//! Figure 8 — sojourn-time CoV over load and loadlimit detection.
//!
//! The CoV of per-request sojourn times rises sharply as a Servpod
//! approaches its fluctuation knee; `loadlimit` is the first load point
//! whose CoV exceeds the series average (paper: 76% for MySQL, 87% for
//! Tomcat in E-commerce).

use rhythm_analyzer::loadlimit::{find_loadlimit, smooth3};
use rhythm_core::{profile_service, ProfileConfig};
use rhythm_telemetry::json::{self, Obj, Sink, ToJson};
use rhythm_workloads::apps;

/// The Figure 8 dataset for one service.
#[derive(Clone, Debug)]
pub struct Fig08 {
    /// Servpod names.
    pub pods: Vec<String>,
    /// Load fractions.
    pub loads: Vec<f64>,
    /// CoV per pod per load, `[pod][load]`.
    pub cov: Vec<Vec<f64>>,
    /// Series-average CoV per pod.
    pub avg_cov: Vec<f64>,
    /// Detected loadlimit per pod.
    pub loadlimit: Vec<f64>,
}

impl ToJson for Fig08 {
    fn write_json(&self, out: &mut impl Sink) {
        Obj::open(out)
            .field("pods", &self.pods)
            .field("loads", &self.loads)
            .field("cov", &self.cov)
            .field("avg_cov", &self.avg_cov)
            .field("loadlimit", &self.loadlimit)
            .close();
    }
}

/// Collects CoV curves for the E-commerce Servpods over a dense sweep.
pub fn collect(seed: u64) -> Fig08 {
    let service = apps::ecommerce();
    let cfg = ProfileConfig {
        load_levels: (1..=19).map(|i| f64::from(i) * 0.05).collect(),
        duration_s: 80,
        seed,
        min_requests: 6_000,
        use_tracer: false,
    };
    let profile = profile_service(&service, &cfg);
    let loads = profile.loads();
    let n = profile.pods();
    let cov: Vec<Vec<f64>> = (0..n).map(|i| smooth3(&profile.cov_series(i))).collect();
    let avg_cov: Vec<f64> = cov
        .iter()
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let loadlimit: Vec<f64> = cov.iter().map(|c| find_loadlimit(&loads, c)).collect();
    Fig08 {
        pods: profile.pod_names.clone(),
        loads,
        cov,
        avg_cov,
        loadlimit,
    }
}

/// Renders the CoV table with the detected limits.
pub fn render(d: &Fig08) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<8}", "load"));
    for p in &d.pods {
        out.push_str(&format!(" {p:>12}"));
    }
    out.push('\n');
    for (j, &load) in d.loads.iter().enumerate() {
        out.push_str(&format!("{:<7.0}%", load * 100.0));
        for i in 0..d.pods.len() {
            out.push_str(&format!(" {:>12.3}", d.cov[i][j]));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<8}", "avg"));
    for &a in &d.avg_cov {
        out.push_str(&format!(" {a:>12.3}"));
    }
    out.push('\n');
    out.push_str(&format!("{:<8}", "limit"));
    for &l in &d.loadlimit {
        out.push_str(&format!(" {:>11.0}%", l * 100.0));
    }
    out.push('\n');
    out
}

/// Runs the experiment and writes the report.
pub fn run() -> std::io::Result<()> {
    let mut report = crate::Report::new(
        "fig08",
        "sojourn CoV over load and loadlimit detection (Figure 8)",
    );
    let d = collect(0xF08);
    report.line(render(&d));
    let idx = |name: &str| d.pods.iter().position(|p| p == name).expect("pod");
    report.line(format!(
        "detected loadlimits: mysql {:.0}% (paper 76%), tomcat {:.0}% (paper 87%)",
        d.loadlimit[idx("mysql")] * 100.0,
        d.loadlimit[idx("tomcat")] * 100.0
    ));
    report.finish(json::to_string(&d))
}
