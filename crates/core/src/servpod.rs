//! The Servpod abstraction (§3.1) and service deployment.
//!
//! A Servpod is the collection of LC components deployed together on one
//! physical machine. The paper assumes the scheduler has already placed
//! components; following its evaluation we deploy one component per
//! machine, so the number of Servpods equals the number of machines.

use rhythm_machine::{Allocation, Machine, MachineSpec};
use rhythm_workloads::ServiceSpec;
use std::sync::Arc;

/// One Servpod: the mapping of a service component onto a machine.
#[derive(Clone, Debug)]
pub struct Servpod {
    /// Index of the Servpod (== machine index == DAG node index).
    pub index: usize,
    /// Name of the component(s) it hosts.
    pub name: String,
}

/// A deployed LC service: machines plus the Servpod mapping.
pub struct Deployment {
    /// The service being deployed (shared with the engine and any
    /// sibling deployments of the same spec).
    pub service: Arc<ServiceSpec>,
    /// One machine per Servpod.
    pub machines: Vec<Machine>,
    /// The Servpod records.
    pub servpods: Vec<Servpod>,
}

impl Deployment {
    /// Deploys `service` with one component per paper-testbed machine,
    /// reserving each component's cores/memory for the LC side.
    ///
    /// # Panics
    ///
    /// Panics if the service fails validation or a component exceeds the
    /// machine capacity.
    pub fn new(service: impl Into<Arc<ServiceSpec>>) -> Deployment {
        let service = service.into();
        let specs = vec![MachineSpec::paper_testbed(); service.len()];
        Deployment::with_machine_specs(service, &specs)
    }

    /// Deploys `service` on heterogeneous hardware: one component per
    /// machine, with `specs[i]` describing the machine hosting component
    /// `i`.
    ///
    /// # Panics
    ///
    /// Panics if `specs.len() != service.len()`, the service fails
    /// validation, or a component exceeds its machine's capacity.
    pub fn with_machine_specs(
        service: impl Into<Arc<ServiceSpec>>,
        specs: &[MachineSpec],
    ) -> Deployment {
        let service = service.into();
        // PANIC: constructor contract — an invalid ServiceSpec is a
        // caller bug, documented on this function.
        service.validate().expect("invalid service");
        assert_eq!(
            specs.len(),
            service.len(),
            "one machine spec per service component"
        );
        let maxload = service.sim_maxload_rps();
        let visits = service.expected_visits();
        let machines: Vec<Machine> = service
            .nodes
            .iter()
            .zip(&visits)
            .zip(specs)
            .map(|((node, &v), &machine_spec)| {
                let c = &node.component;
                // Reserve network headroom for the component's peak rate.
                let peak_net = c.net_mbps_at(maxload * v) * 1.5;
                Machine::new(
                    machine_spec,
                    Allocation {
                        cores: c.cores,
                        llc_ways: 0,
                        mem_mb: c.mem_mb,
                        net_mbps: peak_net,
                        freq_mhz: machine_spec.max_freq_mhz,
                    },
                )
            })
            .collect();
        let servpods = service
            .nodes
            .iter()
            .enumerate()
            .map(|(index, node)| Servpod {
                index,
                name: node.component.name.clone(),
            })
            .collect();
        Deployment {
            service,
            machines,
            servpods,
        }
    }

    /// Number of Servpods (== machines).
    pub fn len(&self) -> usize {
        self.servpods.len()
    }

    /// True if the deployment is empty (never happens for a valid
    /// service).
    pub fn is_empty(&self) -> bool {
        self.servpods.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_workloads::apps;

    #[test]
    fn one_machine_per_component() {
        let d = Deployment::new(apps::ecommerce());
        assert_eq!(d.len(), 4);
        assert_eq!(d.machines.len(), 4);
        assert_eq!(d.servpods[3].name, "mysql");
    }

    #[test]
    fn lc_reservations_match_components() {
        let d = Deployment::new(apps::ecommerce());
        for (m, node) in d.machines.iter().zip(&d.service.nodes) {
            assert_eq!(m.lc_alloc().cores, node.component.cores);
            assert_eq!(m.lc_alloc().mem_mb, node.component.mem_mb);
            assert!(m.check_invariants().is_ok());
        }
    }

    #[test]
    fn heterogeneous_specs_apply_per_machine() {
        let specs = [
            MachineSpec::dense_compute(),
            MachineSpec::paper_testbed(),
            MachineSpec::lean_node(),
            MachineSpec::paper_testbed(),
        ];
        let d = Deployment::with_machine_specs(apps::ecommerce(), &specs);
        for (m, spec) in d.machines.iter().zip(&specs) {
            assert_eq!(m.spec(), spec);
            assert_eq!(m.lc_alloc().freq_mhz, spec.max_freq_mhz);
            assert!(m.check_invariants().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "one machine spec per service component")]
    fn spec_count_mismatch_rejected() {
        Deployment::with_machine_specs(apps::ecommerce(), &[MachineSpec::paper_testbed()]);
    }

    #[test]
    fn all_apps_deploy() {
        for app in apps::all_apps() {
            let d = Deployment::new(app);
            assert!(!d.is_empty());
        }
    }
}
