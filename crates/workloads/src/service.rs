//! A latency-critical service: a DAG of components with call patterns.
//!
//! The paper represents an LC workload as a directed acyclic graph whose
//! vertices are components (§3.1). Requests enter at the entry component
//! and flow along call edges; where the DAG fans out (e.g. the Redis
//! master calling its slaves), the branches execute in parallel and the
//! end-to-end latency is determined by the critical path (§3.4,
//! Equation 5).

use crate::component::ComponentSpec;

/// A downstream call edge.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Index of the callee node in [`ServiceSpec::nodes`].
    pub target: usize,
    /// Probability that a given request takes this edge (1.0 =
    /// unconditional). Probabilities of sibling calls are independent.
    pub probability: f64,
}

impl Call {
    /// An unconditional call edge.
    pub fn always(target: usize) -> Self {
        Call {
            target,
            probability: 1.0,
        }
    }

    /// A probabilistic call edge.
    pub fn sometimes(target: usize, probability: f64) -> Self {
        Call {
            target,
            probability: probability.clamp(0.0, 1.0),
        }
    }
}

/// One node of the service DAG.
#[derive(Clone, Debug)]
pub struct ServiceNode {
    /// The component running at this node.
    pub component: ComponentSpec,
    /// Downstream calls issued between the pre and post phases.
    pub calls: Vec<Call>,
    /// If true the calls are issued concurrently (fan-out) and joined;
    /// if false they are issued sequentially.
    pub parallel: bool,
}

impl ServiceNode {
    /// A leaf node with no downstream calls.
    pub fn leaf(component: ComponentSpec) -> Self {
        ServiceNode {
            component,
            calls: Vec::new(),
            parallel: false,
        }
    }

    /// A node that calls the given targets sequentially.
    pub fn seq(component: ComponentSpec, calls: Vec<Call>) -> Self {
        ServiceNode {
            component,
            calls,
            parallel: false,
        }
    }

    /// A node that fans out to the given targets in parallel.
    pub fn fan_out(component: ComponentSpec, calls: Vec<Call>) -> Self {
        ServiceNode {
            component,
            calls,
            parallel: true,
        }
    }
}

/// A complete LC service specification.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Service name ("e-commerce", "redis", ...).
    pub name: String,
    /// DAG nodes; node 0 is the entry component.
    pub nodes: Vec<ServiceNode>,
    /// Tail-latency SLA in ms (Table 1).
    pub sla_ms: f64,
    /// The published maximum load in QPS (Table 1; reporting only — the
    /// simulation runs at [`ServiceSpec::sim_maxload_rps`]).
    pub nominal_maxload_qps: f64,
    /// Container count (Table 1; reporting only).
    pub containers: u32,
}

impl ServiceSpec {
    /// Index of the entry node.
    pub const ENTRY: usize = 0;

    /// Number of components (== number of Servpods when each component is
    /// deployed on its own machine).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the service has no nodes (never valid; see
    /// [`ServiceSpec::validate`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The component names in node order.
    pub fn component_names(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .map(|n| n.component.name.as_str())
            .collect()
    }

    /// Finds a node index by component name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.component.name == name)
    }

    /// Expected number of visits per request for every node, from walking
    /// the DAG edge probabilities.
    pub fn expected_visits(&self) -> Vec<f64> {
        let mut visits = vec![0.0; self.nodes.len()];
        // The DAG is validated acyclic with forward edges, so one pass in
        // index order starting from a unit visit at the entry suffices.
        if !self.nodes.is_empty() {
            visits[Self::ENTRY] = 1.0;
            for i in 0..self.nodes.len() {
                let v = visits[i];
                if v == 0.0 {
                    continue;
                }
                for call in &self.nodes[i].calls {
                    visits[call.target] += v * call.probability;
                }
            }
        }
        visits
    }

    /// The simulated maximum load in requests/second: 95% of the
    /// bottleneck component's capacity (divided by its expected visits).
    ///
    /// The paper measures MaxLoad "when the arrival speed approaches the
    /// maximum processing speed"; the 10% margin keeps the queueing system
    /// stable at 100% load, where the tail is large but finite — which is
    /// where the paper measures its SLA.
    pub fn sim_maxload_rps(&self) -> f64 {
        let visits = self.expected_visits();
        0.90 * self
            .nodes
            .iter()
            .zip(&visits)
            .map(|(n, &v)| {
                if v <= 0.0 {
                    f64::INFINITY
                } else {
                    n.component.capacity_rps() / v
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Index of the bottleneck component (highest utilization per unit
    /// offered load).
    pub fn bottleneck(&self) -> usize {
        let visits = self.expected_visits();
        let mut best = 0;
        let mut best_cap = f64::INFINITY;
        for (i, (n, &v)) in self.nodes.iter().zip(&visits).enumerate() {
            let cap = if v <= 0.0 {
                f64::INFINITY
            } else {
                n.component.capacity_rps() / v
            };
            if cap < best_cap {
                best_cap = cap;
                best = i;
            }
        }
        best
    }

    /// Validates the DAG: non-empty, edges point strictly forward
    /// (guaranteeing acyclicity), targets are in range, probabilities in
    /// `[0,1]`, and all components valid.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err(format!("service {}: no components", self.name));
        }
        if self.sla_ms <= 0.0 {
            return Err(format!("service {}: non-positive SLA", self.name));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            node.component.validate()?;
            for call in &node.calls {
                if call.target >= self.nodes.len() {
                    return Err(format!(
                        "service {}: node {} calls out-of-range node {}",
                        self.name, i, call.target
                    ));
                }
                if call.target <= i {
                    return Err(format!(
                        "service {}: node {} calls backward/self edge to {}",
                        self.name, i, call.target
                    ));
                }
                if !(0.0..=1.0).contains(&call.probability) {
                    return Err(format!(
                        "service {}: node {} has probability {}",
                        self.name, i, call.probability
                    ));
                }
            }
        }
        // Every non-entry node must be reachable.
        let visits = self.expected_visits();
        for (i, &v) in visits.iter().enumerate() {
            if i != Self::ENTRY && v == 0.0 {
                return Err(format!(
                    "service {}: node {} ({}) unreachable",
                    self.name, i, self.nodes[i].component.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentBuilder;

    fn comp(name: &str, work_ms: f64, workers: u32) -> ComponentSpec {
        ComponentBuilder::new(name, work_ms, 0.0)
            .workers(workers)
            .build()
    }

    fn chain() -> ServiceSpec {
        ServiceSpec {
            name: "chain".into(),
            nodes: vec![
                ServiceNode::seq(comp("a", 1.0, 10), vec![Call::always(1)]),
                ServiceNode::seq(comp("b", 2.0, 10), vec![Call::always(2)]),
                ServiceNode::leaf(comp("c", 4.0, 10)),
            ],
            sla_ms: 100.0,
            nominal_maxload_qps: 1000.0,
            containers: 3,
        }
    }

    #[test]
    fn chain_validates() {
        assert!(chain().validate().is_ok());
    }

    #[test]
    fn expected_visits_chain() {
        let v = chain().expected_visits();
        assert_eq!(v, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn expected_visits_probabilistic() {
        let mut s = chain();
        s.nodes[1].calls = vec![Call::sometimes(2, 0.25)];
        let v = s.expected_visits();
        assert_eq!(v[2], 0.25);
    }

    #[test]
    fn bottleneck_is_slowest_per_visit() {
        let s = chain();
        // c has 4 ms work and 10 workers; with the default contention
        // factor 2.0 its full-load capacity is 10/(0.004*3) = 833.3 rps,
        // the lowest; sim maxload applies the 5% stability margin.
        assert_eq!(s.bottleneck(), 2);
        assert!((s.sim_maxload_rps() - 0.90 * 10.0 / 0.012).abs() < 1e-6);
    }

    #[test]
    fn fan_out_visits_both_branches() {
        let s = ServiceSpec {
            name: "fan".into(),
            nodes: vec![
                ServiceNode::fan_out(
                    comp("master", 1.0, 10),
                    vec![Call::always(1), Call::always(2)],
                ),
                ServiceNode::leaf(comp("s1", 1.0, 10)),
                ServiceNode::leaf(comp("s2", 1.0, 10)),
            ],
            sla_ms: 10.0,
            nominal_maxload_qps: 100.0,
            containers: 3,
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.expected_visits(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn validate_rejects_backward_edge() {
        let mut s = chain();
        s.nodes[2].calls = vec![Call::always(0)];
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut s = chain();
        s.nodes[2].calls = vec![Call::always(99)];
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_unreachable() {
        let mut s = chain();
        s.nodes[1].calls.clear();
        assert!(s.validate().is_err(), "node 2 became unreachable");
    }

    #[test]
    fn validate_rejects_empty_and_bad_sla() {
        let mut s = chain();
        s.sla_ms = 0.0;
        assert!(s.validate().is_err());
        let s = ServiceSpec {
            name: "empty".into(),
            nodes: vec![],
            sla_ms: 1.0,
            nominal_maxload_qps: 1.0,
            containers: 0,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn index_of_finds_components() {
        let s = chain();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zzz"), None);
        assert_eq!(s.component_names(), vec!["a", "b", "c"]);
    }
}
