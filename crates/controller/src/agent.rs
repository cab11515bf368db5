//! The per-machine controller agent.
//!
//! One agent runs on every machine hosting an LC Servpod. Each period
//! (2 s in the paper) it reads the monitored load and tail latency,
//! lets the policy pick an action (Algorithm 2), and drives the four
//! subcontrollers to implement it.

use crate::action::BeAction;
use crate::policy::ThresholdPolicy;
use crate::subcontrollers::{
    cut_step, cut_step_prio, frequency_step, grow_step_prio, network_step, GrowthConfig,
};
use rhythm_machine::Machine;
use rhythm_sim::SimTime;
use rhythm_telemetry::{
    per_mille_i16, per_mille_u16, ActionCode, AdjustKind, BeSnapshot, EventKind, FlightRecorder,
};
use rhythm_workloads::BeSpec;

/// Captures a machine's BE population and resource envelope for the
/// telemetry audit trail.
pub fn be_snapshot(machine: &Machine) -> BeSnapshot {
    let alloc = machine.be_total_alloc();
    BeSnapshot {
        instances: machine.be_count() as u32,
        running: machine.running_be_count() as u32,
        cores: alloc.cores,
        llc_ways: alloc.llc_ways,
        freq_mhz: machine.be_dvfs.current_mhz(),
        net_mbps: machine.qdisc.be_limit_mbps() as u32,
    }
}

/// Monitoring inputs for one control period.
#[derive(Clone, Copy, Debug)]
pub struct AgentInputs {
    /// Measured request load as a fraction of max load.
    pub load_fraction: f64,
    /// Measured tail latency over the monitoring window, in ms.
    pub tail_ms: f64,
    /// The SLA target in ms.
    pub sla_ms: f64,
    /// LC network usage in Mbit/s (for the network subcontroller).
    pub lc_net_mbps: f64,
    /// LC CPU utilization in `[0,1]` (for the power model).
    pub lc_cpu_util: f64,
    /// BE CPU utilization in `[0,1]`.
    pub be_cpu_util: f64,
    /// True if the scheduler has BE jobs waiting for this machine.
    pub be_jobs_pending: bool,
    /// Priority class of the BE job currently offered to this machine
    /// (0 = lowest; only meaningful while `be_jobs_pending`).
    pub be_priority: u8,
}

/// Cumulative agent statistics (reported in Table 2 / Figure 17).
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentStats {
    /// Control periods executed.
    pub ticks: u64,
    /// Periods that observed an SLA violation (slack < 0).
    pub sla_violations: u64,
    /// BE jobs killed by StopBE.
    pub be_kills: u64,
    /// Count of each action taken, indexed by
    /// [`BeAction::severity`].
    pub action_counts: [u64; 5],
}

impl rhythm_snapshot::Snapshot for AgentStats {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u64(self.ticks);
        w.u64(self.sla_violations);
        w.u64(self.be_kills);
        for &c in &self.action_counts {
            w.u64(c);
        }
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let ticks = r.u64()?;
        let sla_violations = r.u64()?;
        let be_kills = r.u64()?;
        let mut action_counts = [0u64; 5];
        for c in &mut action_counts {
            *c = r.u64()?;
        }
        Ok(AgentStats {
            ticks,
            sla_violations,
            be_kills,
            action_counts,
        })
    }
}

/// The per-machine agent.
#[derive(Clone, Debug)]
pub struct ControllerAgent {
    policy: ThresholdPolicy,
    growth: GrowthConfig,
    stats: AgentStats,
    last_action: Option<BeAction>,
}

impl ControllerAgent {
    /// Creates an agent with the given policy and growth configuration.
    pub fn new(policy: ThresholdPolicy, growth: GrowthConfig) -> Self {
        ControllerAgent {
            policy,
            growth,
            stats: AgentStats::default(),
            last_action: None,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &ThresholdPolicy {
        &self.policy
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// The most recent action (None before the first tick).
    pub fn last_action(&self) -> Option<BeAction> {
        self.last_action
    }

    /// Reinstates the agent's mutable state from a snapshot. The policy
    /// and growth configuration are *not* part of the snapshot — they are
    /// pure functions of the experiment config and the caller rebuilds
    /// the agent with [`ControllerAgent::new`] before restoring.
    pub fn restore_state(&mut self, stats: AgentStats, last_action: Option<BeAction>) {
        self.stats = stats;
        self.last_action = last_action;
    }

    /// Executes one control period: decide, then actuate.
    ///
    /// Returns the action taken.
    pub fn tick(&mut self, machine: &mut Machine, be: &BeSpec, inputs: &AgentInputs) -> BeAction {
        let mut rec = FlightRecorder::disabled();
        self.tick_traced(machine, be, inputs, &mut rec, SimTime::ZERO, 0)
            .0
    }

    /// [`ControllerAgent::tick`] with flight-recorder instrumentation:
    /// records the decision (with per-mille load/slack) and one `Adjust`
    /// event per resource dimension the subcontrollers moved.
    ///
    /// Returns the action plus the BE snapshots before and after
    /// actuation (both zeroed when `rec` is disabled, so the untraced
    /// path does no extra work).
    pub fn tick_traced(
        &mut self,
        machine: &mut Machine,
        be: &BeSpec,
        inputs: &AgentInputs,
        rec: &mut FlightRecorder,
        now: SimTime,
        machine_idx: u16,
    ) -> (BeAction, BeSnapshot, BeSnapshot) {
        let traced = rec.is_enabled();
        let before = if traced {
            be_snapshot(machine)
        } else {
            BeSnapshot::default()
        };
        let slack = ThresholdPolicy::slack(inputs.tail_ms, inputs.sla_ms);
        let action = self.policy.decide(inputs.load_fraction, slack);
        self.stats.ticks += 1;
        if slack < 0.0 {
            self.stats.sla_violations += 1;
        }
        self.stats.action_counts[action.severity() as usize] += 1;
        match action {
            BeAction::StopBe => {
                if self.growth.priority_preemption && machine.be_count() > 0 {
                    // Victim selection: kill only the lowest-priority
                    // class; suspend the survivors so the LC service
                    // still reclaims the whole machine this period.
                    self.stats.be_kills += machine.kill_min_priority_be() as u64;
                    machine.suspend_all_be();
                } else {
                    self.stats.be_kills += machine.be_count() as u64;
                    machine.kill_all_be();
                }
                machine.qdisc.zero_be();
            }
            BeAction::SuspendBe => {
                machine.suspend_all_be();
                machine.qdisc.zero_be();
            }
            BeAction::CutBe => {
                if self.growth.priority_preemption {
                    cut_step_prio(machine, &self.growth);
                } else {
                    cut_step(machine, &self.growth);
                }
            }
            BeAction::DisallowBeGrowth => {
                // Existing BE jobs keep running untouched.
            }
            BeAction::AllowBeGrowth => {
                grow_step_prio(
                    machine,
                    be,
                    &self.growth,
                    inputs.be_jobs_pending,
                    inputs.be_priority,
                );
            }
        }
        // The frequency and network subcontrollers run every period
        // regardless of the decision (they guard power and LC traffic).
        frequency_step(machine, inputs.lc_cpu_util, inputs.be_cpu_util);
        if matches!(action, BeAction::StopBe | BeAction::SuspendBe) {
            machine.qdisc.zero_be();
        } else {
            network_step(machine, inputs.lc_net_mbps);
        }
        self.last_action = Some(action);
        debug_assert!(machine.check_invariants().is_ok());
        if !traced {
            return (action, before, before);
        }
        let after = be_snapshot(machine);
        rec.record(
            now,
            EventKind::Action {
                machine: machine_idx,
                action: ActionCode::from_severity(action.severity()),
                load_pm: per_mille_u16(inputs.load_fraction),
                slack_pm: per_mille_i16(slack),
            },
        );
        let deltas = [
            (AdjustKind::BeInstances, before.running, after.running),
            (AdjustKind::BeCores, before.cores, after.cores),
            (AdjustKind::BeLlcWays, before.llc_ways, after.llc_ways),
            (AdjustKind::BeFreqMhz, before.freq_mhz, after.freq_mhz),
            (AdjustKind::BeNetMbps, before.net_mbps, after.net_mbps),
        ];
        for (kind, was, now_v) in deltas {
            if was != now_v {
                rec.record(
                    now,
                    EventKind::Adjust {
                        machine: machine_idx,
                        kind,
                        value: now_v as i32,
                    },
                );
            }
        }
        (action, before, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Thresholds;
    use rhythm_machine::{Allocation, MachineSpec};
    use rhythm_workloads::BeKind;

    fn machine() -> Machine {
        Machine::new(
            MachineSpec::paper_testbed(),
            Allocation {
                cores: 16,
                llc_ways: 0,
                mem_mb: 64 * 1024,
                net_mbps: 1_000.0,
                freq_mhz: 2_000,
            },
        )
    }

    fn agent() -> ControllerAgent {
        ControllerAgent::new(
            ThresholdPolicy::rhythm(Thresholds::new(0.87, 0.08)),
            GrowthConfig::default(),
        )
    }

    fn inputs(load: f64, tail: f64) -> AgentInputs {
        AgentInputs {
            load_fraction: load,
            tail_ms: tail,
            sla_ms: 250.0,
            lc_net_mbps: 500.0,
            lc_cpu_util: 0.5,
            be_cpu_util: 0.3,
            be_jobs_pending: true,
            be_priority: 0,
        }
    }

    #[test]
    fn comfortable_slack_grows_be() {
        let mut m = machine();
        let mut a = agent();
        for _ in 0..5 {
            let act = a.tick(&mut m, &BeSpec::of(BeKind::Wordcount), &inputs(0.3, 100.0));
            assert_eq!(act, BeAction::AllowBeGrowth);
        }
        assert!(m.be_count() >= 1);
        assert!(m.qdisc.be_limit_mbps() > 0.0);
        assert_eq!(a.stats().ticks, 5);
        assert_eq!(a.stats().sla_violations, 0);
    }

    #[test]
    fn sla_violation_stops_and_counts_kills() {
        let mut m = machine();
        let mut a = agent();
        let wc = BeSpec::of(BeKind::Wordcount);
        for _ in 0..3 {
            a.tick(&mut m, &wc, &inputs(0.3, 100.0));
        }
        let live = m.be_count() as u64;
        assert!(live > 0);
        let act = a.tick(&mut m, &wc, &inputs(0.3, 300.0));
        assert_eq!(act, BeAction::StopBe);
        assert_eq!(m.be_count(), 0);
        assert_eq!(a.stats().be_kills, live);
        assert_eq!(a.stats().sla_violations, 1);
        assert_eq!(m.qdisc.be_limit_mbps(), 0.0);
    }

    #[test]
    fn overload_suspends_but_keeps_instances() {
        let mut m = machine();
        let mut a = agent();
        let wc = BeSpec::of(BeKind::Wordcount);
        for _ in 0..3 {
            a.tick(&mut m, &wc, &inputs(0.3, 100.0));
        }
        let live = m.be_count();
        let act = a.tick(&mut m, &wc, &inputs(0.95, 100.0));
        assert_eq!(act, BeAction::SuspendBe);
        assert_eq!(m.be_count(), live, "instances retained");
        assert_eq!(m.running_be_count(), 0);
        assert_eq!(m.qdisc.be_limit_mbps(), 0.0);
    }

    #[test]
    fn recovery_resumes_suspended_jobs() {
        let mut m = machine();
        let mut a = agent();
        let wc = BeSpec::of(BeKind::Wordcount);
        for _ in 0..3 {
            a.tick(&mut m, &wc, &inputs(0.3, 100.0));
        }
        a.tick(&mut m, &wc, &inputs(0.95, 100.0));
        assert_eq!(m.running_be_count(), 0);
        a.tick(&mut m, &wc, &inputs(0.3, 100.0));
        assert!(m.running_be_count() > 0, "Figure 17: BE returns to growth");
    }

    #[test]
    fn tight_slack_cuts_resources() {
        let mut m = machine();
        let mut a = agent();
        let wc = BeSpec::of(BeKind::Wordcount);
        for _ in 0..6 {
            a.tick(&mut m, &wc, &inputs(0.3, 100.0));
        }
        let before = m.be_total_alloc().cores;
        // Slack = (250-245)/250 = 0.02 < 0.04 = slacklimit/2.
        let act = a.tick(&mut m, &wc, &inputs(0.3, 245.0));
        assert_eq!(act, BeAction::CutBe);
        assert!(m.be_total_alloc().cores < before);
        assert_eq!(
            m.be_count() as u64,
            a.stats().be_kills + m.be_count() as u64,
            "no kills"
        );
    }

    #[test]
    fn disallow_growth_keeps_allocations() {
        let mut m = machine();
        let mut a = agent();
        let wc = BeSpec::of(BeKind::Wordcount);
        for _ in 0..4 {
            a.tick(&mut m, &wc, &inputs(0.3, 100.0));
        }
        let before = m.be_total_alloc();
        // Slack = 0.06, between slacklimit/2=0.04 and slacklimit=0.08.
        let act = a.tick(&mut m, &wc, &inputs(0.3, 235.0));
        assert_eq!(act, BeAction::DisallowBeGrowth);
        let after = m.be_total_alloc();
        assert_eq!(before.cores, after.cores);
        assert_eq!(before.llc_ways, after.llc_ways);
    }

    #[test]
    fn priority_preemption_stop_kills_low_class_only() {
        let mut m = machine();
        let mut a = ControllerAgent::new(
            ThresholdPolicy::rhythm(Thresholds::new(0.87, 0.08)),
            GrowthConfig {
                priority_preemption: true,
                ..GrowthConfig::default()
            },
        );
        let grant = |_| Allocation {
            cores: 1,
            llc_ways: 2,
            mem_mb: 2 * 1024,
            net_mbps: 0.0,
            freq_mhz: 2_000,
        };
        m.admit_be_prio("low", grant(0), 0).unwrap();
        m.admit_be_prio("high", grant(0), 2).unwrap();
        let act = a.tick(&mut m, &BeSpec::of(BeKind::Wordcount), &inputs(0.3, 300.0));
        assert_eq!(act, BeAction::StopBe);
        assert_eq!(a.stats().be_kills, 1, "only the low class was killed");
        assert_eq!(m.be_count(), 1, "high class survives (suspended)");
        assert_eq!(m.running_be_count(), 0);
        assert_eq!(m.min_be_priority(), Some(2));
        // Recovery resumes the survivor instead of re-admitting.
        let act = a.tick(&mut m, &BeSpec::of(BeKind::Wordcount), &inputs(0.3, 100.0));
        assert_eq!(act, BeAction::AllowBeGrowth);
        assert_eq!(m.running_be_count(), 1);
        assert_eq!(m.be_count(), 1);
    }

    #[test]
    fn traced_tick_records_action_then_adjustments() {
        let mut m = machine();
        let mut a = agent();
        let wc = BeSpec::of(BeKind::Wordcount);
        let mut rec = FlightRecorder::new(64);
        let (act, before, after) = a.tick_traced(
            &mut m,
            &wc,
            &inputs(0.3, 100.0),
            &mut rec,
            SimTime::from_secs(2),
            7,
        );
        assert_eq!(act, BeAction::AllowBeGrowth);
        assert!(
            after.running > before.running,
            "growth admitted an instance"
        );
        let evs = rec.events();
        assert!(
            matches!(
                evs[0].kind,
                EventKind::Action {
                    machine: 7,
                    action: ActionCode::AllowBeGrowth,
                    ..
                }
            ),
            "{evs:?}"
        );
        assert!(
            evs[1..]
                .iter()
                .all(|e| matches!(e.kind, EventKind::Adjust { machine: 7, .. })),
            "{evs:?}"
        );
        assert!(evs.len() >= 2, "growth moved at least one dimension");
    }

    #[test]
    fn untraced_tick_matches_traced_decision() {
        let wc = BeSpec::of(BeKind::Wordcount);
        let (mut m1, mut a1) = (machine(), agent());
        let (mut m2, mut a2) = (machine(), agent());
        let mut rec = FlightRecorder::new(16);
        for step in [(0.3, 100.0), (0.95, 100.0), (0.3, 245.0), (0.3, 300.0)] {
            let plain = a1.tick(&mut m1, &wc, &inputs(step.0, step.1));
            let (traced, _, _) = a2.tick_traced(
                &mut m2,
                &wc,
                &inputs(step.0, step.1),
                &mut rec,
                SimTime::ZERO,
                0,
            );
            assert_eq!(plain, traced);
        }
        assert_eq!(m1.be_count(), m2.be_count());
        assert_eq!(a1.stats().action_counts, a2.stats().action_counts);
    }

    #[test]
    fn action_counts_accumulate() {
        let mut m = machine();
        let mut a = agent();
        let wc = BeSpec::of(BeKind::Wordcount);
        a.tick(&mut m, &wc, &inputs(0.3, 100.0)); // Allow.
        a.tick(&mut m, &wc, &inputs(0.95, 100.0)); // Suspend.
        a.tick(&mut m, &wc, &inputs(0.3, 300.0)); // Stop.
        let s = a.stats();
        assert_eq!(
            s.action_counts[BeAction::AllowBeGrowth.severity() as usize],
            1
        );
        assert_eq!(s.action_counts[BeAction::SuspendBe.severity() as usize], 1);
        assert_eq!(s.action_counts[BeAction::StopBe.severity() as usize], 1);
        assert_eq!(a.last_action(), Some(BeAction::StopBe));
    }
}
