//! Per-resource interference sensitivity of an LC component.
//!
//! Section 2 of the paper measures how each component's 99th-percentile
//! latency inflates when co-located with microbenchmarks that pressure one
//! shared resource. A [`Sensitivity`] captures that response: the
//! service-time inflation factor the component experiences at *full*
//! pressure on each resource. The interference model multiplies these by
//! the actual (partial) pressure present on the machine.

/// Interference sensitivity of one component.
///
/// Each field is the fractional service-time inflation at full pressure on
/// that resource: `0.5` means service times grow by 50% when the resource
/// is fully contended. Queueing then amplifies service-time inflation into
/// much larger tail-latency inflation, matching the paper's log-scale
/// Figure 2.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sensitivity {
    /// Core/scheduler contention (CPU-stress on sibling cores).
    pub cpu: f64,
    /// Last-level-cache pollution (stream-llc).
    pub llc: f64,
    /// DRAM bandwidth contention (stream-dram).
    pub dram: f64,
    /// NIC bandwidth contention (iperf).
    pub net: f64,
    /// Frequency scaling: extra slowdown beyond the linear `f_max/f`
    /// factor when the core is downclocked (memory-bound components are
    /// *less* frequency sensitive; compute-bound ones more).
    pub freq: f64,
}

impl Sensitivity {
    /// A component insensitive to everything.
    pub const fn zero() -> Self {
        Sensitivity {
            cpu: 0.0,
            llc: 0.0,
            dram: 0.0,
            net: 0.0,
            freq: 0.0,
        }
    }

    /// Builds a sensitivity vector; values are clamped to be non-negative.
    pub fn new(cpu: f64, llc: f64, dram: f64, net: f64, freq: f64) -> Self {
        Sensitivity {
            cpu: cpu.max(0.0),
            llc: llc.max(0.0),
            dram: dram.max(0.0),
            net: net.max(0.0),
            freq: freq.max(0.0),
        }
    }

    /// The service-time inflation factor (>= 1) under the given pressure
    /// levels, each in `[0, 1]`.
    ///
    /// Inflations from different resources compound multiplicatively: a
    /// component starved of both cache and memory bandwidth is slower than
    /// the sum of the individual effects, which matches the super-additive
    /// behaviour of real co-location studies.
    pub fn inflation(&self, cpu: f64, llc: f64, dram: f64, net: f64) -> f64 {
        let term = |s: f64, p: f64| 1.0 + s * p.clamp(0.0, 1.0);
        term(self.cpu, cpu) * term(self.llc, llc) * term(self.dram, dram) * term(self.net, net)
    }

    /// The additional slowdown factor when running at `freq_fraction` of
    /// maximum frequency (1.0 = full speed → factor 1.0).
    ///
    /// The linear part `1/f` models lost cycles; the `freq` sensitivity
    /// scales how much of the component's work is actually frequency
    /// bound.
    pub fn freq_slowdown(&self, freq_fraction: f64) -> f64 {
        let f = freq_fraction.clamp(0.05, 1.0);
        // A fraction `freq` of the work scales with 1/f; the rest is
        // memory/IO time that does not.
        let bound = self.freq.clamp(0.0, 1.0);
        bound / f + (1.0 - bound)
    }

    /// The largest single-resource sensitivity (used for reporting).
    pub fn max_component(&self) -> f64 {
        self.cpu.max(self.llc).max(self.dram).max(self.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sensitivity_never_inflates() {
        let s = Sensitivity::zero();
        assert_eq!(s.inflation(1.0, 1.0, 1.0, 1.0), 1.0);
        assert_eq!(s.freq_slowdown(0.5), 1.0);
    }

    #[test]
    fn inflation_grows_with_pressure() {
        let s = Sensitivity::new(0.5, 1.0, 0.0, 0.0, 0.0);
        assert_eq!(s.inflation(0.0, 0.0, 0.0, 0.0), 1.0);
        let half = s.inflation(0.0, 0.5, 0.0, 0.0);
        let full = s.inflation(0.0, 1.0, 0.0, 0.0);
        assert!(half > 1.0 && full > half);
        assert_eq!(full, 2.0);
    }

    #[test]
    fn inflation_compounds_multiplicatively() {
        let s = Sensitivity::new(1.0, 1.0, 0.0, 0.0, 0.0);
        let both = s.inflation(1.0, 1.0, 0.0, 0.0);
        assert_eq!(both, 4.0, "(1+1)*(1+1)");
    }

    #[test]
    fn pressure_clamps() {
        let s = Sensitivity::new(1.0, 0.0, 0.0, 0.0, 0.0);
        assert_eq!(s.inflation(5.0, 0.0, 0.0, 0.0), 2.0);
        assert_eq!(s.inflation(-3.0, 0.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn freq_slowdown_linear_when_fully_bound() {
        let s = Sensitivity::new(0.0, 0.0, 0.0, 0.0, 1.0);
        assert!((s.freq_slowdown(0.5) - 2.0).abs() < 1e-12);
        assert_eq!(s.freq_slowdown(1.0), 1.0);
    }

    #[test]
    fn freq_slowdown_partial_binding() {
        let s = Sensitivity::new(0.0, 0.0, 0.0, 0.0, 0.5);
        // Half the work doubles, half stays: 0.5*2 + 0.5 = 1.5.
        assert!((s.freq_slowdown(0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn constructor_clamps_negatives() {
        let s = Sensitivity::new(-1.0, -2.0, 3.0, -4.0, -0.1);
        assert_eq!(s.cpu, 0.0);
        assert_eq!(s.dram, 3.0);
        assert_eq!(s.max_component(), 3.0);
    }
}
