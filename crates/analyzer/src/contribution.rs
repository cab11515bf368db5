//! Per-Servpod contributions to the tail latency (Equations 1-5).

use crate::profile::SojournProfile;
use rhythm_sim::pearson;
use rhythm_workloads::ServiceSpec;

/// The contribution of one Servpod, with the factors it was built from.
#[derive(Clone, Debug)]
pub struct Contribution {
    /// Servpod name.
    pub name: String,
    /// `P_i`: weight of the average sojourn time (Equation 1).
    pub weight: f64,
    /// `ρ_i`: Pearson correlation with the tail latency (Equation 2).
    pub correlation: f64,
    /// `V_i`: normalized coefficient of variation (Equation 3).
    pub variation: f64,
    /// `α_i`: critical-path scale (Equation 5; 1.0 on the critical path).
    pub alpha: f64,
    /// `C_i = α_i · ρ_i · P_i · V_i` (Equations 4-5).
    pub value: f64,
}

/// Computes Equation 1: `P_i = T̄_i / Σ_k T̄_k`.
fn weights(profile: &SojournProfile) -> Vec<f64> {
    let means: Vec<f64> = (0..profile.pods()).map(|i| profile.grand_mean(i)).collect();
    let total: f64 = means.iter().sum();
    if total <= 0.0 {
        vec![0.0; means.len()]
    } else {
        means.iter().map(|m| m / total).collect()
    }
}

/// Computes Equation 3: `V_i = (1/T̄_i)·sqrt(1/(m(m-1)) Σ_j (T_i^j - T̄_i)²)`.
fn variation(profile: &SojournProfile, i: usize) -> f64 {
    let series = profile.sojourn_series(i);
    let m = series.len();
    if m < 2 {
        return 0.0;
    }
    let mean = profile.grand_mean(i);
    if mean <= 0.0 {
        return 0.0;
    }
    let ss: f64 = series.iter().map(|x| (x - mean).powi(2)).sum();
    (ss / (m as f64 * (m as f64 - 1.0))).sqrt() / mean
}

/// Computes the critical-path scale `α_i` of Equation 5 for every node.
///
/// The end-to-end latency of a fan-out service is set by its critical
/// path — the root-to-leaf call path `R` with the largest total mean
/// sojourn. A Servpod `i` off `R` tolerates more interference; its
/// contribution is scaled by `α_i = Σ_{j ∈ ¬R_i} T_j / Σ_{k ∈ R} T_k`,
/// where `¬R_i` is the longest path through `i` among non-critical paths.
///
/// Nodes on the critical path get `α = 1`.
pub fn critical_path_alphas(service: &ServiceSpec, mean_sojourns: &[f64]) -> Vec<f64> {
    assert_eq!(service.len(), mean_sojourns.len(), "sojourn vector length");
    // Enumerate all root-to-leaf paths (DAGs here are small: ≤ 4 nodes).
    let mut paths: Vec<Vec<usize>> = Vec::new();
    let mut stack = vec![(ServiceSpec::ENTRY, vec![ServiceSpec::ENTRY])];
    while let Some((node, path)) = stack.pop() {
        let calls = &service.nodes[node].calls;
        if calls.is_empty() {
            paths.push(path);
            continue;
        }
        if service.nodes[node].parallel {
            // A fan-out node: each branch is its own path; the node also
            // terminates a path if some requests skip all branches, but
            // for α we only need call paths.
            for c in calls {
                let mut p = path.clone();
                p.push(c.target);
                stack.push((c.target, p));
            }
        } else {
            // Sequential calls: the path visits every callee in turn;
            // treat the chain of sequential calls as one path through all
            // of them.
            let mut p = path.clone();
            let mut last = node;
            for c in calls {
                p.push(c.target);
                last = c.target;
            }
            stack.push((last, p));
        }
    }
    let path_time = |p: &[usize]| -> f64 { p.iter().map(|&i| mean_sojourns[i]).sum() };
    let critical = paths
        .iter()
        .max_by(|a, b| path_time(a).total_cmp(&path_time(b)))
        .cloned()
        .unwrap_or_default();
    let critical_time = path_time(&critical).max(f64::EPSILON);
    let mut alphas = vec![1.0; service.len()];
    for (i, alpha) in alphas.iter_mut().enumerate() {
        if critical.contains(&i) {
            continue;
        }
        // Longest path through i among all (necessarily non-critical)
        // paths containing i.
        let best = paths
            .iter()
            .filter(|p| p.contains(&i))
            .map(|p| path_time(p))
            .fold(0.0, f64::max);
        *alpha = (best / critical_time).clamp(0.0, 1.0);
    }
    alphas
}

/// Computes the contribution of every Servpod (Equations 1-5).
///
/// `service` supplies the DAG used for the critical-path scale; pass the
/// service the profile was measured on.
///
/// # Panics
///
/// Panics if the profile fails validation or does not match the service.
pub fn contributions(profile: &SojournProfile, service: &ServiceSpec) -> Vec<Contribution> {
    profile.validate().expect("invalid profile");
    assert_eq!(
        profile.pods(),
        service.len(),
        "profile/service Servpod count mismatch"
    );
    let tail = profile.tail_series();
    let w = weights(profile);
    let grand_means: Vec<f64> = (0..profile.pods()).map(|i| profile.grand_mean(i)).collect();
    let alphas = critical_path_alphas(service, &grand_means);
    (0..profile.pods())
        .map(|i| {
            let series = profile.sojourn_series(i);
            let rho = pearson(&series, &tail).max(0.0);
            let v = variation(profile, i);
            let value = alphas[i] * rho * w[i] * v;
            Contribution {
                name: profile.pod_names[i].clone(),
                weight: w[i],
                correlation: rho,
                variation: v,
                alpha: alphas[i],
                value,
            }
        })
        .collect()
}

/// Normalizes contribution values to sum to 1 (used as Algorithm 1 step
/// sizes).
pub fn normalized_values(contribs: &[Contribution]) -> Vec<f64> {
    let total: f64 = contribs.iter().map(|c| c.value).sum();
    if total <= 0.0 {
        vec![1.0 / contribs.len().max(1) as f64; contribs.len()]
    } else {
        contribs.iter().map(|c| c.value / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::sample_profile;
    use rhythm_workloads::apps;
    use rhythm_workloads::component::ComponentBuilder;
    use rhythm_workloads::service::{Call, ServiceNode};

    fn two_pod_service() -> ServiceSpec {
        ServiceSpec {
            name: "test".into(),
            nodes: vec![
                ServiceNode::seq(
                    ComponentBuilder::new("front", 5.0, 0.2).build(),
                    vec![Call::always(1)],
                ),
                ServiceNode::leaf(ComponentBuilder::new("db", 10.0, 0.2).build()),
            ],
            sla_ms: 100.0,
            nominal_maxload_qps: 100.0,
            containers: 2,
        }
    }

    #[test]
    fn db_contributes_more_than_front() {
        let c = contributions(&sample_profile(), &two_pod_service());
        assert_eq!(c.len(), 2);
        assert!(c[1].value > c[0].value, "{c:?}");
        assert!(c[1].weight > c[0].weight);
        assert!(c[1].variation > c[0].variation);
    }

    #[test]
    fn correlation_in_unit_range_and_positive() {
        for c in contributions(&sample_profile(), &two_pod_service()) {
            assert!((0.0..=1.0).contains(&c.correlation));
        }
    }

    #[test]
    fn flat_pod_has_low_contribution() {
        // A pod with constant sojourn across loads: V=0 so C=0 (the
        // paper's principle 3: uncorrelated pods should not contribute).
        let mut p = sample_profile();
        for l in &mut p.levels {
            l.mean_sojourn_ms[0] = 5.0;
        }
        let c = contributions(&p, &two_pod_service());
        assert_eq!(c[0].value, 0.0);
        assert!(c[1].value > 0.0);
    }

    #[test]
    fn weights_sum_to_one() {
        let c = contributions(&sample_profile(), &two_pod_service());
        let sum: f64 = c.iter().map(|x| x.weight).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_values_sum_to_one() {
        let c = contributions(&sample_profile(), &two_pod_service());
        let n = normalized_values(&c);
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_values_uniform_when_all_zero() {
        let c = vec![
            Contribution {
                name: "a".into(),
                weight: 0.0,
                correlation: 0.0,
                variation: 0.0,
                alpha: 1.0,
                value: 0.0,
            };
            4
        ];
        let n = normalized_values(&c);
        assert_eq!(n, vec![0.25; 4]);
    }

    #[test]
    fn chain_alphas_all_one() {
        let service = apps::ecommerce();
        let sojourns = vec![2.0, 25.0, 3.0, 20.0];
        let a = critical_path_alphas(&service, &sojourns);
        assert_eq!(a, vec![1.0; 4], "a chain has a single path");
    }

    #[test]
    fn fan_out_scales_off_critical_branch() {
        let service = apps::snms();
        // frontend, userservice, mediaservice.
        let sojourns = vec![9.0, 25.0, 16.0];
        let a = critical_path_alphas(&service, &sojourns);
        assert_eq!(a[0], 1.0, "frontend on every path");
        assert_eq!(a[1], 1.0, "userservice on critical path");
        // mediaservice path = 9+16 = 25 vs critical 9+25 = 34.
        assert!((a[2] - 25.0 / 34.0).abs() < 1e-9, "alpha={}", a[2]);
    }

    #[test]
    fn fan_out_alpha_reduces_contribution() {
        // Same profile numbers, chain vs fan-out topology: the off-path
        // pod's contribution shrinks by alpha.
        let service = apps::redis();
        let p = SojournProfile {
            pod_names: vec!["master".into(), "slave".into()],
            levels: (1..=4)
                .map(|j| crate::profile::LoadLevel {
                    load: 0.2 * j as f64,
                    mean_sojourn_ms: vec![10.0 + j as f64, 5.0 + 0.5 * j as f64],
                    sojourn_cov: vec![0.3, 0.3],
                    tail_ms: 30.0 + 5.0 * j as f64,
                    requests: 1000,
                })
                .collect(),
        };
        let c = contributions(&p, &service);
        // Redis: master fans out to slave; slave is on the only leaf path
        // master->slave, so both are on the critical path here.
        assert_eq!(c[0].alpha, 1.0);
        assert_eq!(c[1].alpha, 1.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_service_panics() {
        let p = sample_profile();
        contributions(&p, &apps::ecommerce());
    }
}
