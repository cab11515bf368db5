//! One latency-critical service component.
//!
//! A component (HAProxy, Tomcat, MySQL, a Redis master, ...) is modelled
//! as a multi-server queue: `workers` parallel request slots, each request
//! visit consuming a sampled amount of work split into a *pre* phase
//! (before any downstream call) and a *post* phase (after the downstream
//! reply). The sojourn time the paper's tracer extracts (§3.3, Figure 5)
//! is exactly `pre + post` plus queueing delay — local residence time,
//! excluding time spent waiting for downstream components.

use crate::sensitivity::Sensitivity;
use rhythm_sim::Dist;

/// Specification of one LC component.
#[derive(Clone, Debug)]
pub struct ComponentSpec {
    /// Component name (unique within its service).
    pub name: String,
    /// Parallel request slots (threads/connections the container serves).
    pub workers: u32,
    /// Work before the downstream call, in ms.
    pub pre_ms: Dist,
    /// Work after the downstream reply, in ms (zero-mass for components
    /// that reply immediately after their downstream finishes).
    pub post_ms: Dist,
    /// Interference sensitivity (calibrated to the paper's Figure 2).
    pub sensitivity: Sensitivity,
    /// Cores the component's Servpod reserves on its machine.
    pub cores: u32,
    /// Resident memory of the component in MB.
    pub mem_mb: u64,
    /// DRAM traffic per request in MB (drives memory-bandwidth usage).
    pub membw_mb_per_req: f64,
    /// Network traffic per request in KB (request + reply).
    pub net_kb_per_req: f64,
    /// LLC working-set in MB (how much cache the component wants).
    pub llc_mb: f64,
    /// Load-contention factor γ: service times inflate by `1 + γ·f³` at
    /// offered load fraction `f`, modelling the lock/pool/GC contention
    /// that makes real components degrade well before their worker pools
    /// saturate (the paper's Figure 6a sojourn growth).
    pub contention: f64,
    /// Burst knee: the load fraction around which the component's
    /// sojourn-time fluctuation blows up (Figure 8). Rare large service
    /// bursts (GC pauses, compactions, lock convoys) start appearing
    /// ~0.15 of load before the knee and reach full probability at it.
    pub burst_knee: f64,
}

impl ComponentSpec {
    /// Mean local work per visit in ms (pre + post, no queueing).
    pub fn mean_work_ms(&self) -> f64 {
        self.pre_ms.mean() + self.post_ms.mean()
    }

    /// Capacity of the component in requests/second at full load: how
    /// many visits per second its worker pool can absorb once the
    /// full-load contention inflation `1 + γ` applies.
    pub fn capacity_rps(&self) -> f64 {
        let work_s = self.mean_work_ms() * (1.0 + self.contention) / 1e3;
        if work_s <= 0.0 {
            f64::INFINITY
        } else {
            self.workers as f64 / work_s
        }
    }

    /// The load-contention service-time multiplier at offered load
    /// fraction `f` (clamped to `[0, 1.05]`): `1 + γ·f³`.
    pub fn contention_factor(&self, f: f64) -> f64 {
        let f = f.clamp(0.0, 1.05);
        1.0 + self.contention * f * f * f
    }

    /// Probability that one request visit hits a service burst at load
    /// fraction `f`: zero below `burst_knee − 0.08`, ramping linearly to
    /// 2% slightly past the knee. The bursts make the sojourn-time CoV
    /// rise sharply around the knee — the signal the loadlimit detector
    /// reads (Figure 8).
    pub fn burst_probability(&self, f: f64) -> f64 {
        let onset = self.burst_knee - 0.08;
        0.02 * ((f - onset) / 0.1).clamp(0.0, 1.0)
    }

    /// DRAM bandwidth demand in MB/s at the given request rate.
    pub fn membw_mbps_at(&self, rps: f64) -> f64 {
        self.membw_mb_per_req * rps.max(0.0)
    }

    /// Network demand in Mbit/s at the given request rate.
    pub fn net_mbps_at(&self, rps: f64) -> f64 {
        self.net_kb_per_req * 8.0 / 1e3 * rps.max(0.0)
    }

    /// Validates the specification.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("component name must not be empty".into());
        }
        if self.workers == 0 {
            return Err(format!("component {}: zero workers", self.name));
        }
        if self.cores == 0 {
            return Err(format!("component {}: zero cores", self.name));
        }
        if self.mean_work_ms() <= 0.0 {
            return Err(format!("component {}: zero mean work", self.name));
        }
        Ok(())
    }
}

/// Builder for [`ComponentSpec`] with sane defaults, used by the app
/// constructors.
#[derive(Clone, Debug)]
pub struct ComponentBuilder {
    spec: ComponentSpec,
}

impl ComponentBuilder {
    /// Starts a component with the given name and log-normal pre-phase
    /// work (median `pre_median_ms`, shape `pre_sigma`).
    pub fn new(name: &str, pre_median_ms: f64, pre_sigma: f64) -> Self {
        ComponentBuilder {
            spec: ComponentSpec {
                name: name.to_string(),
                workers: 8,
                pre_ms: Dist::LogNormal {
                    median: pre_median_ms,
                    sigma: pre_sigma,
                },
                post_ms: Dist::constant(0.0),
                sensitivity: Sensitivity::zero(),
                cores: 8,
                mem_mb: 8 * 1024,
                membw_mb_per_req: 1.0,
                net_kb_per_req: 4.0,
                llc_mb: 4.0,
                contention: 2.0,
                burst_knee: 0.85,
            },
        }
    }

    /// Sets the post-phase work distribution.
    pub fn post(mut self, median_ms: f64, sigma: f64) -> Self {
        self.spec.post_ms = Dist::LogNormal {
            median: median_ms,
            sigma,
        };
        self
    }

    /// Sets the worker count.
    pub fn workers(mut self, w: u32) -> Self {
        self.spec.workers = w;
        self
    }

    /// Sets the Servpod core reservation.
    pub fn cores(mut self, c: u32) -> Self {
        self.spec.cores = c;
        self
    }

    /// Sets the interference sensitivity.
    pub fn sensitivity(mut self, s: Sensitivity) -> Self {
        self.spec.sensitivity = s;
        self
    }

    /// Sets the resident memory in MB.
    pub fn mem_mb(mut self, mb: u64) -> Self {
        self.spec.mem_mb = mb;
        self
    }

    /// Sets the DRAM traffic per request in MB.
    pub fn membw_per_req(mut self, mb: f64) -> Self {
        self.spec.membw_mb_per_req = mb;
        self
    }

    /// Sets the network traffic per request in KB.
    pub fn net_per_req(mut self, kb: f64) -> Self {
        self.spec.net_kb_per_req = kb;
        self
    }

    /// Sets the LLC working-set in MB.
    pub fn llc_mb(mut self, mb: f64) -> Self {
        self.spec.llc_mb = mb;
        self
    }

    /// Sets the load-contention factor γ.
    pub fn contention(mut self, gamma: f64) -> Self {
        self.spec.contention = gamma.max(0.0);
        self
    }

    /// Sets the burst knee (the Figure 8 fluctuation onset).
    pub fn knee(mut self, k: f64) -> Self {
        self.spec.burst_knee = k.clamp(0.2, 1.0);
        self
    }

    /// Finishes the component.
    ///
    /// # Panics
    ///
    /// Panics if the resulting spec is invalid (components are built from
    /// static app constructors, so this is a programming error).
    pub fn build(self) -> ComponentSpec {
        self.spec.validate().expect("invalid component spec");
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let c = ComponentBuilder::new("tomcat", 10.0, 0.4).build();
        assert_eq!(c.name, "tomcat");
        assert!(c.validate().is_ok());
        assert!(c.mean_work_ms() > 0.0);
    }

    #[test]
    fn capacity_is_workers_over_contended_work() {
        let c = ComponentBuilder::new("x", 10.0, 0.0)
            .workers(5)
            .contention(2.0)
            .build();
        // LogNormal sigma=0 -> mean = median = 10 ms; full-load work is
        // 30 ms; 5 workers / 0.03 s.
        assert!((c.capacity_rps() - 5.0 / 0.03).abs() < 1e-6);
    }

    #[test]
    fn contention_factor_shape() {
        let c = ComponentBuilder::new("x", 1.0, 0.0).contention(6.0).build();
        assert_eq!(c.contention_factor(0.0), 1.0);
        assert!((c.contention_factor(1.0) - 7.0).abs() < 1e-12);
        assert!(c.contention_factor(0.5) < c.contention_factor(0.9));
        // Clamped above 1.05.
        assert_eq!(c.contention_factor(5.0), c.contention_factor(1.05));
    }

    #[test]
    fn burst_probability_ramps_at_knee() {
        let c = ComponentBuilder::new("x", 1.0, 0.0).knee(0.8).build();
        assert_eq!(c.burst_probability(0.3), 0.0);
        assert_eq!(c.burst_probability(0.70), 0.0);
        let mid = c.burst_probability(0.77);
        assert!(mid > 0.0 && mid < 0.02, "mid-ramp {mid}");
        assert_eq!(c.burst_probability(0.85), 0.02);
        assert_eq!(c.burst_probability(1.0), 0.02);
    }

    #[test]
    fn earlier_knee_bursts_earlier() {
        let early = ComponentBuilder::new("x", 1.0, 0.0).knee(0.76).build();
        let late = ComponentBuilder::new("x", 1.0, 0.0).knee(0.9).build();
        assert!(early.burst_probability(0.72) > late.burst_probability(0.72));
    }

    #[test]
    fn zero_contention_never_inflates() {
        let c = ComponentBuilder::new("x", 1.0, 0.0).contention(0.0).build();
        assert_eq!(c.contention_factor(0.9), 1.0);
    }

    #[test]
    fn post_phase_adds_work() {
        let a = ComponentBuilder::new("x", 10.0, 0.0).build();
        let b = ComponentBuilder::new("x", 10.0, 0.0).post(5.0, 0.0).build();
        assert!(b.mean_work_ms() > a.mean_work_ms());
    }

    #[test]
    fn bandwidth_scales_with_rate() {
        let c = ComponentBuilder::new("x", 1.0, 0.0)
            .membw_per_req(2.0)
            .net_per_req(10.0)
            .build();
        assert_eq!(c.membw_mbps_at(100.0), 200.0);
        assert!((c.net_mbps_at(100.0) - 8.0).abs() < 1e-9);
        assert_eq!(c.membw_mbps_at(-5.0), 0.0);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = ComponentBuilder::new("x", 1.0, 0.1).build();
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = ComponentBuilder::new("x", 1.0, 0.1).build();
        c.name.clear();
        assert!(c.validate().is_err());
        let mut c = ComponentBuilder::new("x", 1.0, 0.1).build();
        c.cores = 0;
        assert!(c.validate().is_err());
    }
}
