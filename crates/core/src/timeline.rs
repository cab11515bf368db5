//! Figure 17 timeline rendering.
//!
//! The engine records a [`TimelinePoint`] per controller period; this
//! module renders the running process as aligned text rows (load, slack,
//! CPU, BE LLC/cores/instances/throughput over time) for the `repro
//! fig17` harness target.

use crate::runtime::TimelinePoint;

/// Renders the timeline of selected pods as a text table.
///
/// `pod_names` provides labels; `pods` selects which Servpod indices to
/// print (Figure 17 shows Tomcat and MySQL).
pub fn render(points: &[TimelinePoint], pod_names: &[&str], pods: &[usize]) -> String {
    let mut out = String::new();
    if points.is_empty() {
        out.push_str("(empty timeline)\n");
        return out;
    }
    out.push_str(&format!("{:>8} {:>6} {:>7}", "t(s)", "load", "slack"));
    for &p in pods {
        let name = pod_names.get(p).copied().unwrap_or("?");
        out.push_str(&format!(
            " | {name:>10}: {:>6} {:>5} {:>5} {:>5} {:>6}",
            "cpu%", "llc", "cores", "inst", "beTh"
        ));
    }
    out.push('\n');
    for pt in points {
        out.push_str(&format!(
            "{:>8.1} {:>6.2} {:>7.3}",
            pt.t_s, pt.load, pt.slack
        ));
        for &p in pods {
            out.push_str(&format!(
                " | {:>12} {:>6.1} {:>5} {:>5} {:>5} {:>6.3}",
                "",
                pt.cpu_util_pct.get(p).copied().unwrap_or(0.0),
                pt.be_llc_ways.get(p).copied().unwrap_or(0),
                pt.be_cores.get(p).copied().unwrap_or(0),
                pt.be_instances.get(p).copied().unwrap_or(0),
                pt.be_throughput.get(p).copied().unwrap_or(0.0),
            ));
        }
        out.push('\n');
    }
    out
}

/// Summarizes which of the five actions dominated each phase of a
/// timeline by looking at BE-core deltas (growth, cuts, suspends).
pub fn phase_summary(points: &[TimelinePoint], pod: usize) -> Vec<(f64, &'static str)> {
    let mut phases = Vec::new();
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let ca = a.be_cores.get(pod).copied().unwrap_or(0) as i64;
        let cb = b.be_cores.get(pod).copied().unwrap_or(0) as i64;
        let ia = a.be_instances.get(pod).copied().unwrap_or(0) as i64;
        let ib = b.be_instances.get(pod).copied().unwrap_or(0) as i64;
        let label = if ib < ia {
            "kill/stop"
        } else if cb > ca || ib > ia {
            "growth"
        } else if cb < ca {
            "cut"
        } else if b.be_throughput.get(pod).copied().unwrap_or(0.0) == 0.0 && ib > 0 {
            "suspended"
        } else {
            "steady"
        };
        match phases.last_mut() {
            Some((_, l)) if *l == label => {}
            _ => phases.push((b.t_s, label)),
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t: f64, cores: u32, inst: u32, thr: f64) -> TimelinePoint {
        TimelinePoint {
            t_s: t,
            load: 0.5,
            slack: 0.2,
            cpu_util_pct: vec![40.0],
            be_llc_ways: vec![4],
            be_cores: vec![cores],
            be_instances: vec![inst],
            be_throughput: vec![thr],
        }
    }

    #[test]
    fn render_contains_rows() {
        let pts = vec![point(2.0, 1, 1, 0.1), point(4.0, 2, 1, 0.2)];
        let s = render(&pts, &["mysql"], &[0]);
        assert!(s.contains("mysql"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn render_empty() {
        assert!(render(&[], &["x"], &[0]).contains("empty"));
    }

    #[test]
    fn phase_summary_detects_growth_and_cut() {
        let pts = vec![
            point(2.0, 1, 1, 0.1),
            point(4.0, 2, 1, 0.2),  // Growth.
            point(6.0, 3, 2, 0.3),  // Growth.
            point(8.0, 2, 2, 0.2),  // Cut.
            point(10.0, 2, 2, 0.2), // Steady.
        ];
        let phases = phase_summary(&pts, 0);
        let labels: Vec<&str> = phases.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec!["growth", "cut", "steady"]);
    }

    #[test]
    fn phase_summary_detects_kills() {
        let pts = vec![point(2.0, 4, 3, 0.5), point(4.0, 0, 0, 0.0)];
        let phases = phase_summary(&pts, 0);
        assert_eq!(phases[0].1, "kill/stop");
    }
}
