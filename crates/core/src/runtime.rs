//! The discrete-event cluster runtime.
//!
//! One engine run simulates an LC service deployed across its Servpod
//! machines (one component per machine) under an offered load, optionally
//! co-located with BE jobs that are either statically pinned (the §2
//! characterization) or managed by per-machine controller agents (Rhythm
//! or the Heracles baseline — the difference is only the thresholds).
//!
//! The coupling loop of the paper is reproduced end to end: BE grants →
//! machine pressure → LC service-time inflation → queueing → tail latency
//! → slack → controller actions → BE grants.

use crate::plan::{read_index, Planner, Request, Step, Visit, ROOT};
use crate::servpod::Deployment;
use rhythm_controller::{
    AgentInputs, AgentStats, BeAction, ControllerAgent, GrowthConfig, ThresholdPolicy, Thresholds,
};
use rhythm_interference::{InterferenceModel, Pressure};
use rhythm_machine::machine::{BeInstanceId, BeState};
use rhythm_machine::{Allocation, Machine, MachineSpec};
use rhythm_sim::arena::{Arena, Key as ReqKey};
use rhythm_sim::{
    Calendar, Dist, LatencyHistogram, OnlineStats, ResolvedDist, SimDuration, SimRng, SimTime,
    TailWindow,
};
use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
use rhythm_telemetry::json::{Obj, ToJson};
use rhythm_telemetry::{
    ActionCode, AuditRecord, EventKind, Telemetry, TelemetryConfig, TelemetryOutput, Trigger,
};
use rhythm_tracer::capture::{VisitLog, VisitNode};
use rhythm_workloads::{BeSpec, LoadGen, ServiceSpec};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How BE jobs are (or are not) run alongside the LC service.
#[derive(Clone, Debug)]
pub enum ControlMode {
    /// LC service alone (profiling / SLA calibration runs).
    Solo,
    /// BE instances pinned at a fixed allocation with no runtime control
    /// (the §2 characterization in Figure 2).
    Static {
        /// Instances started per machine at t=0.
        instances: u32,
        /// Cores per instance.
        cores: u32,
        /// LLC ways per instance.
        llc_ways: u32,
        /// Servpods to co-locate on (empty = all machines). Figure 2
        /// interferes with a single component at a time.
        pods: Vec<usize>,
    },
    /// Per-machine controller agents with the given per-Servpod
    /// thresholds (Rhythm) — pass uniform [`Thresholds::heracles`] values
    /// for the baseline.
    Managed {
        /// One threshold pair per Servpod.
        thresholds: Vec<Thresholds>,
    },
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Per-Servpod machine specs for heterogeneous deployments: empty
    /// means the paper testbed on every Servpod, otherwise one spec per
    /// Servpod.
    pub machine_specs: Vec<MachineSpec>,
    /// BE workloads to run (round-robin admission); empty means no BE.
    pub bes: Vec<BeSpec>,
    /// Control mode.
    pub mode: ControlMode,
    /// Offered load over time.
    pub load: LoadGen,
    /// Run length. Its first tenth in whole seconds (at least 2 s) is
    /// warm-up, excluded from metrics.
    pub duration: SimDuration,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Priority-aware victim selection in the controllers (see
    /// [`GrowthConfig::priority_preemption`]); the other growth
    /// parameters are the paper's fixed steps.
    pub priority_preemption: bool,
    /// SLA target in ms used by the controllers.
    pub sla_ms: f64,
    /// Optional LC DVFS override in MHz (the Figure 2 DVFS group).
    pub lc_freq_mhz: Option<u32>,
    /// Servpods the DVFS override applies to (empty = all).
    pub lc_freq_pods: Vec<usize>,
    /// Controller period (paper: 2 s).
    pub controller_period: SimDuration,
    /// Collect per-request, per-pod sojourn times (profiling).
    pub collect_sojourns: bool,
    /// Record every completed request's visits and phases for the
    /// tracer (profiling) in the engine's [`VisitLog`].
    /// [`Engine::drain_visit_log`] empties it; what is left at the end
    /// becomes [`EngineOutput::visit_trees`].
    pub capture_visits: bool,
    /// Record the Figure 17 timeline.
    pub record_timeline: bool,
    /// Cluster mode: BE admission is driven by per-machine offers set
    /// through [`Engine::set_be_offer`] instead of the internal
    /// round-robin over `bes` — a machine only admits a new instance
    /// while a cluster dispatcher has a job offered to it. `bes` still
    /// provides the workload catalog for pressure lookups.
    pub external_be: bool,
    /// Telemetry collection (flight recorder, audit trail, tail series).
    /// Disabled by default; the hot path then pays one branch per
    /// instrumentation point.
    pub telemetry: TelemetryConfig,
}

impl EngineConfig {
    /// A solo run at constant `load` for `duration` seconds.
    pub fn solo(load: f64, duration_s: u64, seed: u64) -> Self {
        EngineConfig {
            machine_specs: Vec::new(),
            bes: Vec::new(),
            mode: ControlMode::Solo,
            load: LoadGen::constant(load),
            duration: SimDuration::from_secs(duration_s),
            seed,
            priority_preemption: false,
            sla_ms: f64::INFINITY,
            lc_freq_mhz: None,
            lc_freq_pods: Vec::new(),
            controller_period: SimDuration::from_secs(2),
            collect_sojourns: false,
            capture_visits: false,
            record_timeline: false,
            external_be: false,
            telemetry: TelemetryConfig::disabled(),
        }
    }
}

/// One BE instance admitted on a machine during an epoch (reported to the
/// cluster dispatcher through [`Engine::drain_be_admissions`]).
#[derive(Clone, Debug)]
pub struct BeAdmission {
    /// Machine (Servpod) index within this engine.
    pub machine: usize,
    /// Machine-local instance id.
    pub instance: BeInstanceId,
    /// BE workload name.
    pub workload: String,
}

/// One BE instance killed by StopBE (reported to the cluster dispatcher
/// through [`Engine::drain_be_kills`] so the job can be requeued).
#[derive(Clone, Debug)]
pub struct BeKill {
    /// Machine (Servpod) index within this engine.
    pub machine: usize,
    /// Machine-local instance id.
    pub instance: BeInstanceId,
    /// BE workload name.
    pub workload: String,
    /// Fraction of one job this instance had completed when killed.
    pub progress: f64,
}

/// Per-instance progress ledger entry.
#[derive(Clone, Debug)]
struct BeProgress {
    workload: String,
    /// Fraction of one job completed (1.0 = a full job).
    done: f64,
}

/// One machine's BE progress ledger, ascending by instance id. Ids are
/// handed out in increasing order, so a new entry almost always
/// appends.
#[derive(Clone, Debug, Default)]
struct Ledger(Vec<(BeInstanceId, BeProgress)>);

impl Ledger {
    fn find(&self, id: BeInstanceId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&id, |e| e.0)
    }

    fn get(&self, id: BeInstanceId) -> Option<&BeProgress> {
        self.find(id).ok().map(|k| &self.0[k].1)
    }

    /// The entry of `id`, made by `new` if absent.
    fn get_or_insert_with(
        &mut self,
        id: BeInstanceId,
        new: impl FnOnce() -> BeProgress,
    ) -> &mut BeProgress {
        let k = self.find(id).unwrap_or_else(|k| {
            self.0.insert(k, (id, new()));
            k
        });
        &mut self.0[k].1
    }

    fn remove(&mut self, id: BeInstanceId) -> Option<BeProgress> {
        self.find(id).ok().map(|k| self.0.remove(k).1)
    }
}

impl Snapshot for Ledger {
    /// The bytes of the `BTreeMap<BeInstanceId, BeProgress>` this ledger
    /// replaced: a length, then `(id, progress)` pairs ascending by id.
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let entries: Vec<(BeInstanceId, BeProgress)> = Snapshot::decode(r)?;
        if entries.windows(2).any(|p| p[0].0 >= p[1].0) {
            return Err(SnapshotError::Corrupt(
                "progress ledger ids duplicated or out of order".into(),
            ));
        }
        Ok(Ledger(entries))
    }
}

/// One point of the Figure 17 timeline (sampled every controller period).
#[derive(Clone, Debug)]
pub struct TimelinePoint {
    /// Sample time in seconds.
    pub t_s: f64,
    /// Measured load fraction.
    pub load: f64,
    /// Measured slack.
    pub slack: f64,
    /// Per-pod machine CPU utilization (LC + BE) in percent.
    pub cpu_util_pct: Vec<f64>,
    /// Per-pod BE LLC ways.
    pub be_llc_ways: Vec<u32>,
    /// Per-pod BE cores.
    pub be_cores: Vec<u32>,
    /// Per-pod BE instance counts.
    pub be_instances: Vec<u32>,
    /// Per-pod BE throughput rate (solo-machine equivalents).
    pub be_throughput: Vec<f64>,
}

impl ToJson for TimelinePoint {
    fn write_json(&self, out: &mut String) {
        Obj::open(out)
            .field("t_s", self.t_s)
            .field("load", self.load)
            .field("slack", self.slack)
            .field("cpu_util_pct", &self.cpu_util_pct)
            .field("be_llc_ways", &self.be_llc_ways)
            .field("be_cores", &self.be_cores)
            .field("be_instances", &self.be_instances)
            .field("be_throughput", &self.be_throughput)
            .close();
    }
}

/// Per-pod aggregates over the measured (post-warmup) window.
#[derive(Clone, Debug)]
pub struct PodRuntime {
    /// Servpod name.
    pub name: String,
    /// Average machine CPU utilization (LC + BE) in `[0,1]`.
    pub cpu_util: f64,
    /// Average LC-only CPU utilization in `[0,1]`.
    pub lc_cpu_util: f64,
    /// Average memory-bandwidth utilization (LC + BE) in `[0,1]`.
    pub membw_util: f64,
    /// Time-averaged BE throughput (normalized jobs/hour basis; 1.0 =
    /// one solo machine's worth of batch work).
    pub be_throughput: f64,
    /// Average number of live BE instances.
    pub be_instances_avg: f64,
    /// Controller statistics (None in Solo/Static modes).
    pub agent: Option<AgentStats>,
    /// Per-request sojourn statistics.
    pub sojourn_stats: OnlineStats,
}

/// Everything an engine run produces.
#[derive(Clone, Debug)]
pub struct EngineOutput {
    /// Requests completed after warm-up.
    pub completed: u64,
    /// Requests completed in total.
    pub completed_total: u64,
    /// End-to-end latency histogram (post-warmup).
    pub latency: LatencyHistogram,
    /// The SLA used by the controllers, in ms.
    pub sla_ms: f64,
    /// Offered max load of the service in requests/second.
    pub maxload_rps: f64,
    /// Average offered load fraction over the measured window.
    pub offered_load_avg: f64,
    /// Measured window length in seconds.
    pub measured_s: f64,
    /// Worst 99th percentile over any 10-second window (post-warmup) —
    /// the statistic the paper's SLA methodology uses.
    pub worst_window_p99_ms: f64,
    /// Per-Servpod aggregates.
    pub pods: Vec<PodRuntime>,
    /// Per-request per-pod sojourns (if `collect_sojourns`): outer index
    /// = pod, inner = request.
    pub sojourns: Option<Vec<Vec<f64>>>,
    /// Tracer visit trees (if `capture_visits`), in completion order,
    /// of the requests [`Engine::drain_visit_log`] did not take during
    /// the run; built by [`Engine::finish_run`].
    pub visit_trees: Vec<VisitNode>,
    /// Figure 17 timeline (if `record_timeline`).
    pub timeline: Vec<TimelinePoint>,
    /// Collected telemetry (if [`EngineConfig::telemetry`] was enabled).
    pub telemetry: Option<TelemetryOutput>,
}

impl EngineOutput {
    /// The 99th-percentile latency in ms over the measured window.
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99()
    }

    /// Mean end-to-end latency in ms.
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean()
    }
}

/// Simulation events. 16 bytes, so a calendar entry is 32.
#[derive(Clone, Copy)]
enum Ev {
    Arrive,
    PhaseEnd { req: ReqKey, visit: u32 },
    Control,
    Metrics,
}

/// Precomputed per-component sampling state: resolved distributions and
/// the hoisted contention/burst terms, so `start_phase` does no `Dist`
/// matching, no `mean()` re-derivation and no `burst_knee` arithmetic
/// per phase.
struct NodeSampler {
    pre: ResolvedDist,
    post: ResolvedDist,
    /// `n_phases == 1` with skipped calls does both phases' work locally.
    single_phase_adds_post: bool,
    /// Load-contention factor γ of the component.
    contention: f64,
    /// `burst_knee − 0.08` (the ramp onset of `burst_probability`).
    burst_onset: f64,
    /// The burst-magnitude distribution (exponential, mean 2).
    burst: ResolvedDist,
}

/// Everything `refresh_inflations` reads for one node, captured so the
/// `Pressure` rebuild and model evaluation run only when an input moved.
/// The BE population is summarized by the machine's change epoch; DVFS
/// points and the qdisc ceiling are read directly (they mutate through
/// public fields the epoch cannot see); the LC rate folds in the load
/// fraction.
#[derive(Clone, Copy, PartialEq, Eq)]
struct InflationInputs {
    epoch: u64,
    lc_mhz: u32,
    be_mhz: u32,
    be_limit_bits: u64,
    rate_bits: u64,
}

/// One machine's BE-derived facts, as the metrics integrals and the
/// progress ledger read them. Recomputed only when its key moves: the
/// machine's change epoch (BE population, grants, suspensions), the BE
/// DVFS point and the qdisc BE ceiling — everything the facts read that
/// the epoch does not cover. Every live instance's workload is in the
/// engine's spec map from its admission on (offers register their spec
/// first), so spec insertions cannot move a summary either.
#[derive(Clone, Debug, Default, PartialEq)]
struct BeSummary {
    /// `(change epoch, BE MHz, BE-ceiling bits)` the facts were computed
    /// at; `None` before the first computation.
    key: Option<(u64, u32, u64)>,
    /// Instantaneous BE progress rate, in solo-machine equivalents
    /// (clamped at 1.0: a machine cannot out-produce a dedicated one).
    progress_rate: f64,
    /// Cores granted to running BE instances.
    running_cores: u32,
    /// The BE class's DRAM-bandwidth utilization term.
    dram: f64,
    /// Per running instance: job fraction accrued per second, already
    /// scaled by the solo-machine clamp. The buffer is reused.
    rates: Vec<(BeInstanceId, f64)>,
}

impl BeSummary {
    fn key_of(m: &Machine) -> (u64, u32, u64) {
        (
            m.change_epoch(),
            m.be_dvfs.current_mhz(),
            m.qdisc.be_limit_mbps().to_bits(),
        )
    }

    /// Brings the summary up to date with `m`. Debug builds check a hit
    /// against a fresh computation, so a key that misses an input fails
    /// the first time that input moves alone.
    fn refresh(&mut self, m: &Machine, specs: &BTreeMap<String, BeSpec>) {
        let key = Self::key_of(m);
        if self.key == Some(key) {
            debug_assert_eq!(*self, Self::derive(m, specs), "stale BE summary");
            return;
        }
        self.compute(m, specs);
        self.key = Some(key);
    }

    /// A fresh summary of `m` (with its key).
    fn derive(m: &Machine, specs: &BTreeMap<String, BeSpec>) -> BeSummary {
        let mut s = BeSummary::default();
        s.compute(m, specs);
        s.key = Some(Self::key_of(m));
        s
    }

    fn compute(&mut self, m: &Machine, specs: &BTreeMap<String, BeSpec>) {
        let freq = m.be_dvfs.speed_fraction();
        let running = || m.be_instances().filter(|b| b.state == BeState::Running);
        let total_demand: f64 = running()
            .filter_map(|b| specs.get(&b.workload))
            .map(|s| s.net_demand_mbps)
            .sum();
        let net_frac = if total_demand > 0.0 {
            (m.qdisc.be_limit_mbps() / total_demand).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let total: f64 = running()
            .filter_map(|b| {
                specs
                    .get(&b.workload)
                    .map(|s| s.progress_rate(b.alloc.cores, freq, b.alloc.llc_ways, net_frac))
            })
            .sum();
        // A machine cannot out-produce a dedicated solo machine: the solo
        // run already saturates the job's bottleneck resource (§5.1
        // normalization).
        self.progress_rate = total.min(1.0);
        self.running_cores = running().map(|b| b.alloc.cores).sum();
        self.dram = running()
            .filter_map(|b| {
                specs
                    .get(&b.workload)
                    .map(|s| s.dram_pressure_per_core * b.alloc.cores as f64 * freq)
            })
            .sum();
        // Per-instance job rates under the same solo-machine clamp: if
        // the machine's raw rates sum past 1.0, every instance is scaled
        // down pro rata.
        self.rates.clear();
        let mut total = 0.0;
        for b in running() {
            let Some(s) = specs.get(&b.workload) else {
                continue;
            };
            let r =
                s.progress_rate(b.alloc.cores, freq, b.alloc.llc_ways, net_frac) / s.job_seconds;
            total += r * s.job_seconds;
            self.rates.push((b.id, r));
        }
        let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
        for (_, r) in &mut self.rates {
            *r *= scale;
        }
    }
}

/// Per-node (per-machine) queueing state in struct-of-arrays layout.
///
/// The per-event path (`enqueue_phase` → `start_phase` → `on_phase_end`)
/// touches only the dense parallel `Vec`s below — contiguous scalars,
/// one cache line per field for a whole service — while the cold,
/// pointer-heavy waiting queues live in a side table it never walks
/// unless a node is saturated.
struct NodeTables {
    workers: Vec<u32>,
    busy: Vec<u32>,
    /// Current service-time inflation factor per node.
    inflation: Vec<f64>,
    /// Time of each node's last busy transition.
    last_busy_change: Vec<SimTime>,
    /// Completed visit counter (for per-node rate estimates).
    visits_done_window: Vec<u64>,
    /// Worker-busy integral (ns × workers), settled at each busy
    /// transition up to `last_busy_change`.
    busy_area: Vec<u128>,
    /// Cold side table: per-node FIFO of waiting `(request, visit)`
    /// phases, only touched when a node has no free worker.
    queue: Vec<VecDeque<(ReqKey, u32)>>,
}

impl NodeTables {
    fn with_workers(workers: Vec<u32>) -> NodeTables {
        let n = workers.len();
        NodeTables {
            workers,
            busy: vec![0; n],
            inflation: vec![1.0; n],
            last_busy_change: vec![SimTime::ZERO; n],
            visits_done_window: vec![0; n],
            busy_area: vec![0; n],
            queue: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    fn len(&self) -> usize {
        self.workers.len()
    }
}

/// The engine itself.
pub struct Engine {
    service: Arc<ServiceSpec>,
    cfg: EngineConfig,
    deployment: Deployment,
    nodes: NodeTables,
    /// Precomputed sampling state, one entry per node.
    samplers: Vec<NodeSampler>,
    agents: Vec<Option<ControllerAgent>>,
    be_specs: BTreeMap<String, BeSpec>,
    cal: Calendar<Ev>,
    rng_arrival: SimRng,
    rng_service: SimRng,
    rng_path: SimRng,
    /// In-flight requests. Generational keys keep `PhaseEnd` events
    /// honest across slot reuse; lookups are an index, not a hash.
    requests: Arena<Request>,
    /// Recycled buffers of completed requests (steady state plans a
    /// request without allocating).
    request_pool: Vec<Request>,
    planner: Planner,
    /// Last inputs each node's inflation was computed from.
    inflation_inputs: Vec<Option<InflationInputs>>,
    /// Per-machine BE facts, keyed on their inputs (derived; never
    /// encoded, recomputed on first use after a restore).
    be_summaries: Vec<BeSummary>,
    maxload: f64,
    /// Expected visits per node (constant for the service; cached).
    visits: Vec<f64>,
    tail: TailWindow,
    /// Ring of arrival counts for the last 10 seconds.
    arrivals_ring: VecDeque<(u64, u32)>,
    // Measurement accumulators (post-warmup).
    hist: LatencyHistogram,
    completed: u64,
    completed_total: u64,
    window_hist: LatencyHistogram,
    window_epoch: u64,
    worst_window_p99: f64,
    sojourn_stats: Vec<OnlineStats>,
    sojourns: Option<Vec<Vec<f64>>>,
    /// Completed requests' visits (if `capture_visits`), not yet drained.
    visit_log: VisitLog,
    timeline: Vec<TimelinePoint>,
    // Integrals.
    be_progress_int: Vec<f64>,
    be_instances_int: Vec<f64>,
    cpu_util_int: Vec<f64>,
    lc_cpu_util_int: Vec<f64>,
    membw_int: Vec<f64>,
    offered_int: f64,
    int_time: f64,
    last_integral_at: SimTime,
    measure_from: SimTime,
    end_at: SimTime,
    // Cluster interface (epoch-stepped runs).
    started: bool,
    /// Per-machine job offered by the cluster dispatcher (external
    /// mode), with its priority class. `Arc`: the dispatcher shares one
    /// allocation per job across its ledger and every offer, so posting
    /// an offer is a pointer bump, not a deep spec clone.
    be_offers: Vec<Option<(Arc<BeSpec>, u8)>>,
    /// Per-machine, per-instance progress, accrued over the *whole* run
    /// (cluster job completion times include warm-up, unlike the
    /// measured-window integrals above).
    be_job_progress: Vec<Ledger>,
    last_progress_at: SimTime,
    admitted_log: Vec<BeAdmission>,
    killed_log: Vec<BeKill>,
    /// Telemetry bundle (recorder + audit trail + tail series).
    telemetry: Telemetry,
    /// Per-node `(count, sum)` snapshots of `sojourn_stats` at the last
    /// control tick, for hot-Servpod attribution in the audit trail.
    audit_prev: Vec<(u64, f64)>,
}

impl Engine {
    /// Builds an engine for `service` under `cfg`. Accepts either an
    /// owned spec or a shared `Arc` (sweeps reuse one allocation).
    pub fn new(service: impl Into<Arc<ServiceSpec>>, cfg: EngineConfig) -> Engine {
        let service = service.into();
        let deployment = if cfg.machine_specs.is_empty() {
            Deployment::new(Arc::clone(&service))
        } else {
            Deployment::with_machine_specs(Arc::clone(&service), &cfg.machine_specs)
        };
        let maxload = service.sim_maxload_rps();
        let visits = service.expected_visits();
        let n = service.len();
        let root = SimRng::from_seed(cfg.seed);
        let nodes = NodeTables::with_workers(
            service
                .nodes
                .iter()
                .map(|node| node.component.workers)
                .collect(),
        );
        let samplers = service
            .nodes
            .iter()
            .map(|node| {
                let c = &node.component;
                NodeSampler {
                    pre: c.pre_ms.resolved(),
                    post: c.post_ms.resolved(),
                    single_phase_adds_post: !node.calls.is_empty() && c.post_ms.mean() > 0.0,
                    contention: c.contention,
                    burst_onset: c.burst_knee - 0.08,
                    burst: Dist::Exponential { mean: 2.0 }.resolved(),
                }
            })
            .collect();
        let agents: Vec<Option<ControllerAgent>> = match &cfg.mode {
            ControlMode::Managed { thresholds } => {
                assert_eq!(thresholds.len(), n, "one threshold pair per Servpod");
                let growth = GrowthConfig {
                    priority_preemption: cfg.priority_preemption,
                    ..GrowthConfig::default()
                };
                thresholds
                    .iter()
                    .map(|&t| Some(ControllerAgent::new(ThresholdPolicy::rhythm(t), growth)))
                    .collect()
            }
            _ => (0..n).map(|_| None).collect(),
        };
        let be_specs = cfg
            .bes
            .iter()
            .map(|b| (b.name.clone(), b.clone()))
            .collect();
        let sojourns = cfg.collect_sojourns.then(|| vec![Vec::new(); n]);
        let whole_secs = cfg.duration.as_nanos() / 1_000_000_000;
        let measure_from = SimTime::ZERO + SimDuration::from_secs((whole_secs / 10).max(2));
        let end_at = SimTime::ZERO + cfg.duration;
        Engine {
            nodes,
            samplers,
            agents,
            be_specs,
            cal: Calendar::new(),
            rng_arrival: root.split("arrivals"),
            rng_service: root.split("service"),
            rng_path: root.split("path"),
            requests: Arena::new(),
            request_pool: Vec::new(),
            planner: Planner::default(),
            inflation_inputs: vec![None; n],
            be_summaries: vec![BeSummary::default(); n],
            maxload,
            visits,
            tail: TailWindow::new(SimDuration::from_secs(10), 10),
            arrivals_ring: VecDeque::new(),
            hist: LatencyHistogram::new(),
            completed: 0,
            completed_total: 0,
            window_hist: LatencyHistogram::new(),
            window_epoch: 0,
            worst_window_p99: 0.0,
            sojourn_stats: vec![OnlineStats::new(); n],
            sojourns,
            visit_log: VisitLog::default(),
            timeline: Vec::new(),
            be_progress_int: vec![0.0; n],
            be_instances_int: vec![0.0; n],
            cpu_util_int: vec![0.0; n],
            lc_cpu_util_int: vec![0.0; n],
            membw_int: vec![0.0; n],
            offered_int: 0.0,
            int_time: 0.0,
            last_integral_at: measure_from,
            measure_from,
            end_at,
            started: false,
            be_offers: vec![None; n],
            be_job_progress: vec![Ledger::default(); n],
            last_progress_at: SimTime::ZERO,
            admitted_log: Vec::new(),
            killed_log: Vec::new(),
            telemetry: Telemetry::new(cfg.telemetry),
            audit_prev: vec![(0, 0.0); n],
            deployment,
            service,
            cfg,
        }
    }

    /// Runs the simulation to completion and returns the outputs.
    pub fn run(mut self) -> EngineOutput {
        self.start();
        self.run_until(SimTime::MAX);
        self.finish_run()
    }

    /// Prepares the run (schedules the first arrival and the periodic
    /// events). Idempotent; called automatically by [`Engine::run`] and
    /// [`Engine::run_until`].
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.setup();
    }

    /// Processes every event due at or before `until` (virtual time),
    /// then returns. Drives epoch-stepped cluster execution: the caller
    /// may inspect and mutate BE state between steps, then continue.
    /// `run_until(SimTime::MAX)` drains the calendar completely.
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        while let Some((now, ev)) = self.cal.pop_if_at_or_before(until) {
            match ev {
                Ev::Arrive => self.on_arrive(now),
                Ev::PhaseEnd { req, visit } => self.on_phase_end(now, req, visit),
                Ev::Control => self.on_control(now),
                Ev::Metrics => self.on_metrics(now),
            }
        }
    }

    /// The engine's current virtual time.
    pub fn now(&self) -> SimTime {
        self.cal.now()
    }

    /// Number of machines (Servpods) this engine simulates.
    pub fn machine_count(&self) -> usize {
        self.nodes.len()
    }

    /// The machine hosting Servpod `i`.
    pub fn machine(&self, i: usize) -> &Machine {
        &self.deployment.machines[i]
    }

    /// The service this engine runs.
    pub fn service(&self) -> &ServiceSpec {
        &self.service
    }

    /// Sets the LC DVFS operating point of machine `i` to `mhz`
    /// (snapped to the domain grid, clamped to its range) and refreshes
    /// interference inflations immediately, so the new frequency is in
    /// effect from the barrier that requested it. The cluster fault
    /// injector uses this for slow-node (straggler) faults and their
    /// recovery; returns the realized frequency.
    pub fn set_lc_frequency(&mut self, i: usize, mhz: u32) -> u32 {
        let realized = self.deployment.machines[i].lc_dvfs.set_mhz(mhz);
        self.refresh_inflations();
        realized
    }

    /// The LC DVFS ceiling of machine `i`, for restoring a slowed
    /// machine to full speed.
    pub fn lc_max_mhz(&self, i: usize) -> u32 {
        self.deployment.machines[i].lc_dvfs.max_mhz()
    }

    /// The sliding tail window the controllers read (for footprint
    /// accounting).
    pub fn tail_window(&self) -> &TailWindow {
        &self.tail
    }

    /// The controller's most recent action on machine `i` (None in
    /// Solo/Static modes or before the first control period).
    pub fn last_action(&self, i: usize) -> Option<BeAction> {
        self.agents[i].as_ref().and_then(|a| a.last_action())
    }

    /// Sets (or clears) the BE job the cluster dispatcher offers to
    /// machine `i`, tagged with its priority class (0 = lowest). Only
    /// meaningful with [`EngineConfig::external_be`]. The controller
    /// admits the instance at that class, so preemption can select
    /// victims by priority later. The spec is shared, not cloned: the
    /// cluster ledger and the offer hold the same allocation.
    pub fn set_be_offer(&mut self, i: usize, offer: Option<(Arc<BeSpec>, u8)>) {
        if let Some((spec, _)) = &offer {
            // The pressure model looks workloads up by name; make sure
            // offered specs are resolvable even if absent from `cfg.bes`.
            // Offers repeat the same few specs, so look before cloning.
            if !self.be_specs.contains_key(&spec.name) {
                self.be_specs.insert(spec.name.clone(), (**spec).clone());
            }
        }
        self.be_offers[i] = offer;
    }

    /// Cumulative progress (fraction of one job) of BE instance
    /// `instance` on machine `i`, accrued since its admission.
    pub fn be_progress(&self, i: usize, instance: BeInstanceId) -> Option<f64> {
        self.be_job_progress[i].get(instance).map(|p| p.done)
    }

    /// Moves the BE admissions logged since the last call onto the end
    /// of `out`.
    pub fn drain_be_admissions(&mut self, out: &mut Vec<BeAdmission>) {
        out.append(&mut self.admitted_log);
    }

    /// Moves the StopBE kills logged since the last call onto the end of
    /// `out`.
    pub fn drain_be_kills(&mut self, out: &mut Vec<BeKill>) {
        out.append(&mut self.killed_log);
    }

    /// Moves the visits of the requests completed since the last call
    /// (with `capture_visits`) onto the end of `out`, in completion
    /// order; they no longer reach [`EngineOutput::visit_trees`]. Into an
    /// empty `out` the two logs swap buffers, so a caller that clears
    /// `out` after each drain keeps both allocations.
    pub fn drain_visit_log(&mut self, out: &mut VisitLog) {
        out.append(&mut self.visit_log);
    }

    /// The earliest arrival among the requests still in flight, `None`
    /// when there are none. A scan of the request arena.
    pub fn earliest_in_flight_arrival(&self) -> Option<SimTime> {
        self.requests.iter().map(|(_, r)| r.arrival).min()
    }

    /// Accrues per-instance BE progress up to time `t` using the current
    /// allocations. The cluster barrier MUST call this before mutating BE
    /// state between epochs, so a job suspended or removed mid-tick does
    /// not accrue (or lose) progress for the wrong fraction of the tick.
    pub fn sync_be_progress(&mut self, t: SimTime) {
        self.accrue_be_progress(t);
    }

    /// The exact worker-busy integral of node `i` (ns × workers),
    /// settled to the node's last busy transition.
    pub fn busy_area_ns(&self, i: usize) -> u128 {
        self.nodes.busy_area[i]
    }

    /// Worker count of node `i` (bounds the busy integral:
    /// `busy_area ≤ workers × elapsed`).
    pub fn node_workers(&self, i: usize) -> u32 {
        self.nodes.workers[i]
    }

    /// The telemetry collected so far (recorder, audit trail, tail
    /// series). Enabled via [`EngineConfig::telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Records a cluster epoch-boundary marker at virtual time `at`
    /// (called by the cluster runner at each barrier; a no-op when the
    /// recorder is disabled).
    pub fn note_epoch(&mut self, epoch: u32, at: SimTime) {
        self.telemetry
            .recorder
            .record(at, EventKind::Epoch { epoch });
    }

    /// Removes BE instance `instance` from machine `i` without counting
    /// it as a kill (the cluster calls this when a job *completes*).
    /// Returns the instance's final progress fraction.
    pub fn remove_be(&mut self, i: usize, instance: BeInstanceId) -> Option<f64> {
        let p = self.be_job_progress[i].remove(instance)?;
        let _ = self.deployment.machines[i].kill_be(instance);
        Some(p.done)
    }

    fn setup(&mut self) {
        if let Some(mhz) = self.cfg.lc_freq_mhz {
            let pods = &self.cfg.lc_freq_pods;
            for (i, m) in self.deployment.machines.iter_mut().enumerate() {
                if pods.is_empty() || pods.contains(&i) {
                    m.lc_dvfs.set_mhz(mhz);
                }
            }
        }
        if let ControlMode::Static {
            instances,
            cores,
            llc_ways,
            ref pods,
        } = self.cfg.mode
        {
            let specs = &self.cfg.bes;
            if !specs.is_empty() {
                for (mi, m) in self.deployment.machines.iter_mut().enumerate() {
                    if !pods.is_empty() && !pods.contains(&mi) {
                        continue;
                    }
                    for i in 0..instances {
                        let be = &specs[i as usize % specs.len()];
                        let req = Allocation {
                            cores,
                            llc_ways,
                            mem_mb: be.mem_mb,
                            net_mbps: 0.0,
                            freq_mhz: m.be_dvfs.current_mhz(),
                        };
                        let _ = m.admit_be(&be.name, req);
                    }
                    // Static colocation gives BE jobs the full leftover
                    // bandwidth rule once (no controller protects LC).
                    m.qdisc.reallocate(0.0);
                }
            }
        }
        self.refresh_inflations();
        self.schedule_next_arrival(SimTime::ZERO);
        // The telemetry tail series closes its windows on the control
        // tick, so telemetry keeps the tick alive even in uncontrolled
        // (Solo/Static) runs. The tick consumes no randomness, so this
        // cannot perturb the simulated trajectory.
        if matches!(self.cfg.mode, ControlMode::Managed { .. }) || self.telemetry.enabled() {
            self.cal
                .schedule(SimTime::ZERO + self.cfg.controller_period, Ev::Control);
        }
        self.cal
            .schedule(SimTime::ZERO + SimDuration::from_secs(1), Ev::Metrics);
    }

    fn schedule_next_arrival(&mut self, now: SimTime) {
        if now >= self.end_at {
            return;
        }
        let frac = self.cfg.load.fraction_at(now).max(1e-6);
        let rate = frac * self.maxload; // Requests per second.
        let gap_s = -(1.0 - self.rng_arrival.uniform()).ln() / rate;
        let at = now + SimDuration::from_secs_f64(gap_s);
        if at < self.end_at {
            self.cal.schedule(at, Ev::Arrive);
        }
    }

    fn on_arrive(&mut self, now: SimTime) {
        let mut r = self.request_pool.pop().unwrap_or_default();
        self.planner.plan(
            &self.service,
            &mut self.rng_path,
            now,
            self.cfg.capture_visits,
            &mut r,
        );
        let entry = r.visits[0].node();
        let req = self.requests.insert(r);
        self.count_arrival(now);
        self.telemetry
            .recorder
            .record(now, EventKind::RequestAdmitted);
        self.enqueue_phase(now, req, 0, entry);
        self.schedule_next_arrival(now);
    }

    fn count_arrival(&mut self, now: SimTime) {
        let sec = now.as_nanos() / 1_000_000_000;
        match self.arrivals_ring.back_mut() {
            Some((s, c)) if *s == sec => *c += 1,
            _ => self.arrivals_ring.push_back((sec, 1)),
        }
        while let Some(&(s, _)) = self.arrivals_ring.front() {
            if sec - s >= 11 {
                self.arrivals_ring.pop_front();
            } else {
                break;
            }
        }
    }

    /// Measured request rate over the last 10 *complete* seconds
    /// (requests/second). The current partial second is excluded — it
    /// would bias the estimate low.
    fn measured_rate(&self, now: SimTime) -> f64 {
        let sec = now.as_nanos() / 1_000_000_000;
        let total: u32 = self
            .arrivals_ring
            .iter()
            .filter(|&&(s, _)| {
                let age = sec.saturating_sub(s);
                (1..=10).contains(&age)
            })
            .map(|&(_, c)| c)
            .sum();
        let window = 10.0_f64.min(sec.max(1) as f64);
        total as f64 / window
    }

    /// Applies a busy-count transition on `node` at `now`, first
    /// settling the node's busy integral up to `now`.
    ///
    /// Every `-1` must match an earlier `+1`; a mismatched delta is a
    /// phase-accounting bug and trips the `debug_assert` below. Release
    /// builds saturate instead (the effective delta stops at zero busy
    /// workers), which keeps the busy count *and* the integral mutually
    /// consistent rather than silently corrupting utilization.
    fn update_busy(&mut self, node: usize, now: SimTime, delta: i32) {
        let busy = self.nodes.busy[node];
        debug_assert!(
            delta >= 0 || busy >= delta.unsigned_abs(),
            "node {node} busy underflow at {} ns: busy={busy} delta={delta}",
            now.as_nanos()
        );
        let dt = now - self.nodes.last_busy_change[node];
        self.nodes.busy_area[node] += busy as u128 * dt.as_nanos() as u128;
        self.nodes.busy[node] = if delta < 0 {
            busy.saturating_sub(delta.unsigned_abs())
        } else {
            busy + delta.unsigned_abs()
        };
        self.nodes.last_busy_change[node] = now;
    }

    /// Starts the next phase of visit `visit` of `req`, which runs on
    /// `node`, now, or queues it if every worker is busy.
    fn enqueue_phase(&mut self, now: SimTime, req: ReqKey, visit: u32, node: usize) {
        if self.nodes.busy[node] < self.nodes.workers[node] {
            self.start_phase(now, req, visit, node);
        } else {
            self.nodes.queue[node].push_back((req, visit));
        }
    }

    fn start_phase(&mut self, now: SimTime, req: ReqKey, visit: u32, node: usize) {
        let dur_ms;
        {
            // PANIC: req keys flow from live-request calendar events.
            let r = self.requests.get_mut(req).expect("request exists");
            let v = &mut r.visits[visit as usize];
            v.phase_start = now;
            let s = &self.samplers[node];
            let rng = &mut self.rng_service;
            // The work of one phase: phase 0 samples the pre
            // distribution, later phases the post distribution. A node
            // whose downstream calls were all skipped this request
            // (single phase, but the component *has* call edges) does
            // both phases' work locally.
            let base = if v.n_phases == 1 {
                if s.single_phase_adds_post {
                    s.pre.sample(rng) + s.post.sample(rng)
                } else {
                    s.pre.sample(rng)
                }
            } else if v.phase == 0 {
                s.pre.sample(rng)
            } else {
                s.post.sample(rng)
            };
            // Interference inflation compounds with the load-contention
            // inflation (locks/pools degrade with offered load), plus
            // rare service bursts whose probability ramps up around the
            // component's knee (GC pauses, compactions — Figure 8).
            let f = self.cfg.load.fraction_at(now);
            let burst = if rng.chance(0.02 * ((f - s.burst_onset) / 0.1).clamp(0.0, 1.0)) {
                1.0 + s.burst.sample(rng)
            } else {
                1.0
            };
            let fc = f.clamp(0.0, 1.05);
            let contention = 1.0 + s.contention * fc * fc * fc;
            dur_ms = base * self.nodes.inflation[node] * contention * burst;
        }
        self.update_busy(node, now, 1);
        let at = now + SimDuration::from_millis_f64(dur_ms.max(1e-6));
        self.cal.schedule(at, Ev::PhaseEnd { req, visit });
    }

    fn on_phase_end(&mut self, now: SimTime, req: ReqKey, visit: u32) {
        // Advancing the visit first is safe: it touches only this
        // visit, which no queued phase can be, and draws no randomness.
        let (node, step) = self
            .requests
            .get_mut(req)
            // PANIC: req keys flow from calendar events scheduled while the
            // request was live; the arena removes a key exactly once.
            .expect("request exists")
            .end_phase(visit as usize, now, self.cfg.capture_visits);
        self.update_busy(node, now, -1);
        // Start the next queued phase on this node.
        if let Some((q_req, q_visit)) = self.nodes.queue[node].pop_front() {
            self.start_phase(now, q_req, q_visit, node);
        }
        match step {
            Step::Dispatch { first, stop } => {
                let mut child = first;
                while child < stop {
                    // PANIC: req keys flow from live-request calendar events.
                    let r = self.requests.get(req).expect("request exists");
                    let (node, next) = r.child_and_next(child);
                    self.enqueue_phase(now, req, child, node);
                    child = next;
                }
            }
            Step::Complete { parent } => {
                self.nodes.visits_done_window[node] += 1;
                self.on_visit_complete(now, req, parent);
            }
            Step::Wait => {}
        }
    }

    /// A visit of `req` finished; `parent` is its parent visit, or
    /// [`ROOT`] when the whole request is done.
    fn on_visit_complete(&mut self, now: SimTime, req: ReqKey, parent: u32) {
        if parent == ROOT {
            self.on_request_complete(now, req);
            return;
        }
        // PANIC: req keys flow from live-request calendar events.
        let r = self.requests.get_mut(req).expect("request exists");
        if let Some(node) = r.child_done(parent as usize) {
            self.enqueue_phase(now, req, parent, node);
        }
    }

    fn on_request_complete(&mut self, now: SimTime, req: ReqKey) {
        // PANIC: completion fires once per request — the key is still live.
        let r = self.requests.remove(req).expect("request exists");
        let latency_ms = now.saturating_since(r.arrival).as_millis_f64();
        // Every latency sketch shares `LatencyHistogram::new()`'s layout,
        // so the bucket is found once and reused by all of them.
        let (bucket, clamped) = self.hist.locate(latency_ms);
        self.tail.record_located(now, bucket, clamped);
        if self.telemetry.enabled() {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "the event keeps whole microseconds, saturating"
            )]
            let latency_us = (latency_ms * 1000.0) as u32;
            self.telemetry
                .recorder
                .record(now, EventKind::RequestCompleted { latency_us });
            self.telemetry.record_latency_located(bucket, clamped);
        }
        self.completed_total += 1;
        if now < self.measure_from {
            self.request_pool.push(r);
            return;
        }
        self.completed += 1;
        self.hist.record_located(bucket, clamped);
        // Track the worst 10-second-window tail (the paper's SLA
        // statistic).
        let epoch = now.as_nanos() / 10_000_000_000;
        if epoch != self.window_epoch {
            if !self.window_hist.is_empty() {
                self.worst_window_p99 = self.worst_window_p99.max(self.window_hist.p99());
            }
            self.window_hist.reset();
            self.window_epoch = epoch;
        }
        self.window_hist.record_located(bucket, clamped);
        for v in &r.visits {
            let ms = v.sojourn_ns as f64 / 1e6;
            self.sojourn_stats[v.node()].push(ms);
            if let Some(s) = &mut self.sojourns {
                s[v.node()].push(ms);
            }
        }
        if self.cfg.capture_visits {
            self.visit_log
                .push(r.visits.iter().map(Visit::flat), &r.phases);
        }
        self.request_pool.push(r);
    }

    /// Recomputes the interference inflation of every node from the
    /// machines' current BE population and isolation state. Nodes whose
    /// inputs (BE population epoch, DVFS points, qdisc ceiling, LC rate)
    /// have not moved since the last refresh keep their cached factor —
    /// solo runs never rebuild a `Pressure` after setup.
    fn refresh_inflations(&mut self) {
        for i in 0..self.nodes.len() {
            let machine = &self.deployment.machines[i];
            let rate = self.current_node_rate(i);
            let inputs = InflationInputs {
                epoch: machine.change_epoch(),
                lc_mhz: machine.lc_dvfs.current_mhz(),
                be_mhz: machine.be_dvfs.current_mhz(),
                be_limit_bits: machine.qdisc.be_limit_mbps().to_bits(),
                rate_bits: rate.to_bits(),
            };
            if self.inflation_inputs[i] == Some(inputs) {
                continue;
            }
            let comp = &self.service.nodes[i].component;
            let pressure = Pressure::from_machine(machine, &self.be_specs).with_lc_usage(
                machine.spec(),
                comp.membw_mbps_at(rate),
                comp.net_mbps_at(rate),
            );
            self.nodes.inflation[i] =
                InterferenceModel::calibrated().inflation(comp, &pressure, machine);
            self.inflation_inputs[i] = Some(inputs);
        }
    }

    /// Estimated request rate at node `i` (service rate × expected
    /// visits).
    fn current_node_rate(&self, i: usize) -> f64 {
        let frac = self.cfg.load.fraction_at(self.cal.now());
        frac * self.maxload * self.visits[i]
    }

    /// Brings every machine's BE summary up to date (a key compare per
    /// machine when nothing moved).
    fn refresh_be_summaries(&mut self) {
        let Engine {
            deployment,
            be_specs,
            be_summaries,
            ..
        } = self;
        for (m, summary) in deployment.machines.iter().zip(be_summaries.iter_mut()) {
            summary.refresh(m, be_specs);
        }
    }

    /// Instantaneous machine CPU utilization split (LC busy fraction,
    /// BE cores). Reads the BE summary, which must be fresh.
    fn cpu_utils(&self, i: usize) -> (f64, f64) {
        // Instantaneous busy fraction approximated by current busy count.
        let lc_busy_frac =
            (self.nodes.busy[i] as f64 / self.nodes.workers[i] as f64).clamp(0.0, 1.0);
        let m = &self.deployment.machines[i];
        let lc_cores_busy = lc_busy_frac * m.lc_alloc().cores as f64;
        let be_cores = self.be_summaries[i].running_cores;
        (
            lc_cores_busy / m.spec().total_cores() as f64,
            be_cores as f64 * m.be_dvfs.speed_fraction() / m.spec().total_cores() as f64,
        )
    }

    /// Integrates the slow-moving metrics since the last integration
    /// point (they only change at controller/metric ticks).
    fn integrate(&mut self, now: SimTime) {
        if now <= self.measure_from {
            return;
        }
        let from = self.last_integral_at.max(self.measure_from);
        let dt = now.saturating_since(from).as_secs_f64();
        self.last_integral_at = now;
        if dt <= 0.0 {
            return;
        }
        self.int_time += dt;
        self.offered_int += self.cfg.load.fraction_at(now).min(1.0) * dt;
        self.refresh_be_summaries();
        for i in 0..self.nodes.len() {
            let summary = &self.be_summaries[i];
            let m = &self.deployment.machines[i];
            self.be_progress_int[i] += summary.progress_rate * dt;
            self.be_instances_int[i] += m.be_count() as f64 * dt;
            let (lc, be) = self.cpu_utils(i);
            self.lc_cpu_util_int[i] += lc * dt;
            self.cpu_util_int[i] += (lc + be).min(1.0) * dt;
            // Memory-bandwidth utilization: the LC rate's share plus the
            // BE class's term.
            let comp = &self.service.nodes[i].component;
            let lc_membw =
                comp.membw_mbps_at(self.current_node_rate(i)) / m.spec().total_membw_mbps();
            self.membw_int[i] += (lc_membw + summary.dram).clamp(0.0, 1.0) * dt;
        }
    }

    /// Accrues per-instance BE progress for the interval since the last
    /// accrual, using the allocations in effect over that interval. Must
    /// run *before* any BE mutation (controller tick, cluster barrier):
    /// a job suspended mid-epoch accrues only for the fraction of the
    /// tick it actually ran, never for the suspended remainder.
    fn accrue_be_progress(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_progress_at).as_secs_f64();
        if now > self.last_progress_at {
            self.last_progress_at = now;
        }
        if dt <= 0.0 {
            return;
        }
        self.refresh_be_summaries();
        let Engine {
            deployment,
            be_summaries,
            be_job_progress,
            ..
        } = self;
        for (i, summary) in be_summaries.iter().enumerate() {
            for &(id, r) in &summary.rates {
                let entry = be_job_progress[i].get_or_insert_with(id, || {
                    // Instance admitted outside the reconcile path (e.g.
                    // Static mode pre-population): start a ledger lazily.
                    let workload = deployment.machines[i]
                        .be_instances()
                        .find(|b| b.id == id)
                        .map(|b| b.workload.clone())
                        .unwrap_or_default();
                    BeProgress {
                        workload,
                        done: 0.0,
                    }
                });
                entry.done += r * dt;
            }
        }
    }

    /// Diffs each machine's live BE instances against the progress
    /// ledger: new instances are logged as admissions, vanished ones as
    /// kills (StopBE), carrying the progress accrued so far so the
    /// cluster can roll the job back to its last checkpoint.
    fn reconcile_be_ledger(&mut self, now: SimTime) {
        let Engine {
            deployment,
            be_job_progress,
            admitted_log,
            killed_log,
            telemetry,
            ..
        } = self;
        for (i, m) in deployment.machines.iter().enumerate() {
            let ledger = &mut be_job_progress[i];
            for b in m.be_instances() {
                if let Err(k) = ledger.find(b.id) {
                    let progress = BeProgress {
                        workload: b.workload.clone(),
                        done: 0.0,
                    };
                    ledger.0.insert(k, (b.id, progress));
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "compact event: pod indices fit u16, machine-local instance ids u32"
                    )]
                    telemetry.recorder.record(
                        now,
                        EventKind::BeAdmitted {
                            machine: i as u16,
                            instance: b.id as u32,
                        },
                    );
                    admitted_log.push(BeAdmission {
                        machine: i,
                        instance: b.id,
                        workload: b.workload.clone(),
                    });
                }
            }
            if ledger.0.len() != m.be_count() {
                let dead: Vec<BeInstanceId> = ledger
                    .0
                    .iter()
                    .map(|e| e.0)
                    .filter(|&id| !m.be_instances().any(|b| b.id == id))
                    .collect();
                for id in dead {
                    // PANIC: `dead` was collected from this ledger just above.
                    let p = ledger.remove(id).expect("dead id came from ledger");
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "compact event: pod indices fit u16, machine-local instance ids \
                                  u32, and the progress percent saturates"
                    )]
                    telemetry.recorder.record(
                        now,
                        EventKind::BeKilled {
                            machine: i as u16,
                            instance: id as u32,
                            progress_pct: (p.done * 100.0) as u8,
                        },
                    );
                    killed_log.push(BeKill {
                        machine: i,
                        instance: id,
                        workload: p.workload,
                        progress: p.done,
                    });
                }
            }
        }
    }

    fn on_metrics(&mut self, now: SimTime) {
        self.integrate(now);
        self.accrue_be_progress(now);
        let next = now + SimDuration::from_secs(1);
        if next < self.end_at {
            self.cal.schedule(next, Ev::Metrics);
        }
    }

    fn on_control(&mut self, now: SimTime) {
        self.integrate(now);
        self.accrue_be_progress(now);
        let load_fraction = self.measured_rate(now) / self.maxload;
        let tail_ms = self.tail.quantile(now, 0.99);
        let slack = ThresholdPolicy::slack(tail_ms, self.cfg.sla_ms);
        let n = self.nodes.len();
        // Hot-Servpod attribution for the audit trail: the stage with the
        // highest mean sojourn over requests completed since the last
        // tick (delta of the cumulative per-node statistics).
        let audit_on = self.telemetry.enabled();
        let mut hot: Option<(u32, f64)> = None;
        if audit_on {
            for i in 0..n {
                let count = self.sojourn_stats[i].count();
                let sum = self.sojourn_stats[i].mean() * count as f64;
                let (prev_count, prev_sum) = self.audit_prev[i];
                self.audit_prev[i] = (count, sum);
                let dc = count - prev_count;
                if dc > 0 {
                    let mean = (sum - prev_sum) / dc as f64;
                    if hot.is_none_or(|(_, m)| mean > m) {
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "a pod index, below the service's node count"
                        )]
                        let pod = i as u32;
                        hot = Some((pod, mean));
                    }
                }
            }
        }
        {
            // Borrow fields separately so the agents can mutate the
            // machines while the specs stay borrowed from the config —
            // no per-tick clone of the BE spec list.
            let Engine {
                agents,
                deployment,
                cfg,
                service,
                nodes,
                visits,
                maxload,
                be_offers,
                telemetry,
                ..
            } = self;
            let bes = &cfg.bes;
            for i in 0..n {
                let Some(agent) = agents[i].as_mut() else {
                    continue;
                };
                if bes.is_empty() && be_offers[i].is_none() {
                    continue;
                }
                let machine = &mut deployment.machines[i];
                let comp = &service.nodes[i].component;
                let rate = cfg.load.fraction_at(now) * *maxload * visits[i];
                let lc_cpu = (nodes.busy[i] as f64 / nodes.workers[i] as f64).clamp(0.0, 1.0);
                let be_cpu = if machine.running_be_count() > 0 {
                    1.0
                } else {
                    0.0
                };
                let (pending, be, be_priority) = if cfg.external_be {
                    // Cluster mode: the dispatcher offers at most one job
                    // per machine per epoch; the machine's own queue is
                    // empty unless an offer is posted.
                    match &be_offers[i] {
                        Some((spec, prio)) => (true, &**spec, *prio),
                        None => {
                            let Some(fallback) = bes.first() else {
                                continue;
                            };
                            (false, fallback, 0)
                        }
                    }
                } else {
                    // Round-robin the BE workload offered to the
                    // admission step. Without a cluster dispatcher the
                    // BE backlog is unbounded: a job is always pending.
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "the remainder is below `bes.len()`, a `usize`"
                    )]
                    let be = &bes[(machine.be_started % bes.len() as u64) as usize];
                    (true, be, 0)
                };
                let inputs = AgentInputs {
                    load_fraction,
                    tail_ms,
                    sla_ms: cfg.sla_ms,
                    lc_net_mbps: comp.net_mbps_at(rate),
                    lc_cpu_util: lc_cpu,
                    be_cpu_util: be_cpu,
                    be_jobs_pending: pending,
                    be_priority,
                };
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a pod index, below the service's node count (< 2^16)"
                )]
                let (action, before, after) =
                    agent.tick_traced(machine, be, &inputs, &mut telemetry.recorder, now, i as u16);
                if audit_on {
                    let th = agent.policy().thresholds();
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "a pod index, below the service's node count"
                    )]
                    telemetry.audit.push(AuditRecord {
                        t_s: now.as_secs_f64(),
                        machine: i as u32,
                        pod: service.nodes[i].component.name.clone(),
                        action: ActionCode::from_severity(action.severity()),
                        trigger: Trigger::classify(
                            load_fraction,
                            slack,
                            th.loadlimit,
                            th.slacklimit,
                        ),
                        load: load_fraction,
                        loadlimit: th.loadlimit,
                        slack,
                        slacklimit: th.slacklimit,
                        tail_ms,
                        sla_ms: cfg.sla_ms,
                        hot_pod: hot.map(|(idx, _)| idx),
                        hot_pod_name: hot
                            .map(|(idx, _)| service.nodes[idx as usize].component.name.clone())
                            .unwrap_or_default(),
                        hot_pod_ms: hot.map(|(_, ms)| ms).unwrap_or(0.0),
                        before,
                        after,
                    });
                }
            }
        }
        self.reconcile_be_ledger(now);
        self.refresh_inflations();
        if self.cfg.record_timeline && now >= self.measure_from {
            self.refresh_be_summaries();
            let point = TimelinePoint {
                t_s: now.as_secs_f64(),
                load: load_fraction,
                slack,
                cpu_util_pct: (0..n)
                    .map(|i| {
                        let (lc, be) = self.cpu_utils(i);
                        (lc + be) * 100.0
                    })
                    .collect(),
                be_llc_ways: (0..n)
                    .map(|i| self.deployment.machines[i].cat().be_ways())
                    .collect(),
                be_cores: (0..n)
                    .map(|i| self.deployment.machines[i].be_total_alloc().cores)
                    .collect(),
                be_instances: (0..n)
                    .map(|i| {
                        u32::try_from(self.deployment.machines[i].be_count()).unwrap_or(u32::MAX)
                    })
                    .collect(),
                be_throughput: self.be_summaries.iter().map(|s| s.progress_rate).collect(),
            };
            self.timeline.push(point);
        }
        if self.telemetry.enabled() {
            self.telemetry.tail.tick(now.as_secs_f64(), self.cfg.sla_ms);
        }
        let next = now + self.cfg.controller_period;
        if next < self.end_at {
            self.cal.schedule(next, Ev::Control);
        }
    }

    /// Consumes the engine and produces the run's outputs. With the
    /// epoch-stepped API, call after `run_until` has drained the
    /// calendar (or at whatever point the cluster ends the run).
    pub fn finish_run(mut self) -> EngineOutput {
        let end = self.end_at;
        self.integrate(end);
        self.accrue_be_progress(end);
        if !self.window_hist.is_empty() {
            self.worst_window_p99 = self.worst_window_p99.max(self.window_hist.p99());
        }
        let t = self.int_time.max(1e-9);
        let pods = (0..self.nodes.len())
            .map(|i| PodRuntime {
                name: self.service.nodes[i].component.name.clone(),
                cpu_util: self.cpu_util_int[i] / t,
                lc_cpu_util: self.lc_cpu_util_int[i] / t,
                membw_util: self.membw_int[i] / t,
                be_throughput: self.be_progress_int[i] / t,
                be_instances_avg: self.be_instances_int[i] / t,
                agent: self.agents[i].as_ref().map(|a| a.stats()),
                sojourn_stats: self.sojourn_stats[i],
            })
            .collect();
        let pod_names: Vec<String> = self
            .service
            .nodes
            .iter()
            .map(|n| n.component.name.clone())
            .collect();
        let telemetry = self.telemetry.into_output(pod_names);
        EngineOutput {
            completed: self.completed,
            completed_total: self.completed_total,
            latency: self.hist,
            sla_ms: self.cfg.sla_ms,
            maxload_rps: self.maxload,
            offered_load_avg: self.offered_int / t,
            measured_s: t,
            worst_window_p99_ms: self.worst_window_p99,
            pods,
            sojourns: self.sojourns,
            visit_trees: self.visit_log.requests().map(|r| r.to_tree()).collect(),
            timeline: self.timeline,
            telemetry,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot support: everything below serialises the engine's *dynamic*
// state. Structure derived purely from `(service, cfg)` — samplers,
// maxload, expected visits, agent policies — is rebuilt by `Engine::new`
// on restore and never written, so the codec stays small and a schema
// mismatch is caught by the crate hash, not a garbage decode.
//
// Excluded by design: `request_pool` / `planner` (recycled scratch;
// capacity only, never behaviour) and `visit_log` (the flat visit
// buffer of profiling captures; cluster runs never enable
// `capture_visits`).
// ---------------------------------------------------------------------------

impl Snapshot for Ev {
    fn encode(&self, w: &mut Writer) {
        match *self {
            Ev::Arrive => w.u8(0),
            Ev::PhaseEnd { req, visit } => {
                w.u8(1);
                req.encode(w);
                w.u64(u64::from(visit));
            }
            Ev::Control => w.u8(2),
            Ev::Metrics => w.u8(3),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Ev::Arrive,
            1 => Ev::PhaseEnd {
                req: Snapshot::decode(r)?,
                visit: read_index(r, "event visit index")?,
            },
            2 => Ev::Control,
            3 => Ev::Metrics,
            t => return Err(SnapshotError::Corrupt(format!("unknown event tag {t}"))),
        })
    }
}

impl Snapshot for InflationInputs {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.epoch);
        w.u32(self.lc_mhz);
        w.u32(self.be_mhz);
        w.u64(self.be_limit_bits);
        w.u64(self.rate_bits);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(InflationInputs {
            epoch: r.u64()?,
            lc_mhz: r.u32()?,
            be_mhz: r.u32()?,
            be_limit_bits: r.u64()?,
            rate_bits: r.u64()?,
        })
    }
}

impl NodeTables {
    /// Encodes node `i` in the original array-of-structs field order —
    /// the wire layout predates the SoA refactor and is pinned by the
    /// `rhythm-core` schema hash and the container byte golden, so the
    /// SoA tables serialise through the same per-node record.
    fn encode_node(&self, i: usize, w: &mut Writer) {
        w.u32(self.workers[i]);
        w.u32(self.busy[i]);
        w.u64(self.queue[i].len() as u64);
        for &(k, v) in &self.queue[i] {
            k.encode(w);
            w.u64(u64::from(v));
        }
        w.f64(self.inflation[i]);
        w.u128(self.busy_area[i]);
        self.last_busy_change[i].encode(w);
        w.u64(self.visits_done_window[i]);
    }

    /// Decodes one node record into slot `i`. Rejects records whose
    /// busy count exceeds the worker pool or whose integral exceeds the
    /// `workers × elapsed` bound — both impossible for any real run.
    fn decode_node(&mut self, i: usize, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let workers = r.u32()?;
        let busy = r.u32()?;
        if busy > workers {
            return Err(SnapshotError::Corrupt(format!(
                "node claims {busy} busy workers of {workers}"
            )));
        }
        let n_queued = r.len(16)?;
        let mut queue = VecDeque::with_capacity(n_queued);
        for _ in 0..n_queued {
            let key = ReqKey::decode(r)?;
            queue.push_back((key, read_index(r, "queued visit index")?));
        }
        let inflation = r.f64()?;
        let busy_area = r.u128()?;
        let last_busy_change: SimTime = Snapshot::decode(r)?;
        let visits_done_window = r.u64()?;
        if workers != self.workers[i] {
            return Err(SnapshotError::Corrupt(format!(
                "node {i} has {workers} workers, service says {}",
                self.workers[i]
            )));
        }
        if busy_area > workers as u128 * last_busy_change.as_nanos() as u128 {
            return Err(SnapshotError::Corrupt(format!(
                "node {i} busy integral exceeds workers × elapsed"
            )));
        }
        self.busy[i] = busy;
        self.queue[i] = queue;
        self.inflation[i] = inflation;
        self.busy_area[i] = busy_area;
        self.last_busy_change[i] = last_busy_change;
        self.visits_done_window[i] = visits_done_window;
        Ok(())
    }
}

impl Snapshot for BeProgress {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.workload);
        w.f64(self.done);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(BeProgress {
            workload: r.str()?,
            done: r.f64()?,
        })
    }
}

impl Snapshot for BeAdmission {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.machine as u64);
        w.u64(self.instance);
        w.str(&self.workload);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(BeAdmission {
            machine: r.usize()?,
            instance: r.u64()?,
            workload: r.str()?,
        })
    }
}

impl Snapshot for BeKill {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.machine as u64);
        w.u64(self.instance);
        w.str(&self.workload);
        w.f64(self.progress);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(BeKill {
            machine: r.usize()?,
            instance: r.u64()?,
            workload: r.str()?,
            progress: r.f64()?,
        })
    }
}

impl Snapshot for TimelinePoint {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.t_s);
        w.f64(self.load);
        w.f64(self.slack);
        self.cpu_util_pct.encode(w);
        self.be_llc_ways.encode(w);
        self.be_cores.encode(w);
        self.be_instances.encode(w);
        self.be_throughput.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(TimelinePoint {
            t_s: r.f64()?,
            load: r.f64()?,
            slack: r.f64()?,
            cpu_util_pct: Snapshot::decode(r)?,
            be_llc_ways: Snapshot::decode(r)?,
            be_cores: Snapshot::decode(r)?,
            be_instances: Snapshot::decode(r)?,
            be_throughput: Snapshot::decode(r)?,
        })
    }
}

/// Structural digest of one machine for snapshot post-mortems
/// ([`crate::Engine::snapshot_summary`]); rendered by `repro
/// snapshot-diff`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineMachineSummary {
    /// Servpod (component) name hosted on the machine.
    pub pod: String,
    /// BE instances present (running + suspended).
    pub be_instances: u32,
    /// BE instances currently running.
    pub be_running: u32,
    /// Cores granted to BE.
    pub be_cores: u32,
    /// LLC ways granted to BE.
    pub be_llc_ways: u32,
    /// LC DVFS point in MHz.
    pub lc_freq_mhz: u32,
    /// BE DVFS point in MHz.
    pub be_freq_mhz: u32,
    /// BE instances ever started.
    pub be_started: u64,
    /// BE instances ever killed.
    pub be_killed: u64,
}

/// Structural digest of one engine for snapshot post-mortems: enough to
/// diff two snapshots without decoding the full engine byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineSummary {
    /// Requests completed in total (including warm-up).
    pub completed_total: u64,
    /// Requests in flight at the snapshot point.
    pub inflight: u64,
    /// Events pending in the calendar.
    pub pending_events: u64,
    /// Per-machine digests, in Servpod order.
    pub machines: Vec<EngineMachineSummary>,
}

impl Snapshot for EngineMachineSummary {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.pod);
        w.u32(self.be_instances);
        w.u32(self.be_running);
        w.u32(self.be_cores);
        w.u32(self.be_llc_ways);
        w.u32(self.lc_freq_mhz);
        w.u32(self.be_freq_mhz);
        w.u64(self.be_started);
        w.u64(self.be_killed);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(EngineMachineSummary {
            pod: r.str()?,
            be_instances: r.u32()?,
            be_running: r.u32()?,
            be_cores: r.u32()?,
            be_llc_ways: r.u32()?,
            lc_freq_mhz: r.u32()?,
            be_freq_mhz: r.u32()?,
            be_started: r.u64()?,
            be_killed: r.u64()?,
        })
    }
}

impl Snapshot for EngineSummary {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.completed_total);
        w.u64(self.inflight);
        w.u64(self.pending_events);
        self.machines.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(EngineSummary {
            completed_total: r.u64()?,
            inflight: r.u64()?,
            pending_events: r.u64()?,
            machines: Snapshot::decode(r)?,
        })
    }
}

impl Engine {
    /// Serialises the engine's dynamic state. The stream is canonical:
    /// identical state yields identical bytes, and re-encoding a restored
    /// engine reproduces the stream bit for bit.
    pub fn snapshot_encode(&self, w: &mut Writer) {
        self.deployment.machines.encode(w);
        w.u64(self.nodes.len() as u64);
        for i in 0..self.nodes.len() {
            self.nodes.encode_node(i, w);
        }
        let agents: Vec<Option<(AgentStats, Option<BeAction>)>> = self
            .agents
            .iter()
            .map(|a| a.as_ref().map(|a| (a.stats(), a.last_action())))
            .collect();
        agents.encode(w);
        self.be_specs.encode(w);
        self.cal.encode(w);
        self.rng_arrival.encode(w);
        self.rng_service.encode(w);
        self.rng_path.encode(w);
        self.requests.encode(w);
        self.inflation_inputs.encode(w);
        self.tail.encode(w);
        self.arrivals_ring.encode(w);
        self.hist.encode(w);
        w.u64(self.completed);
        w.u64(self.completed_total);
        self.window_hist.encode(w);
        w.u64(self.window_epoch);
        w.f64(self.worst_window_p99);
        self.sojourn_stats.encode(w);
        self.sojourns.encode(w);
        self.timeline.encode(w);
        self.be_progress_int.encode(w);
        self.be_instances_int.encode(w);
        self.cpu_util_int.encode(w);
        self.lc_cpu_util_int.encode(w);
        self.membw_int.encode(w);
        w.f64(self.offered_int);
        w.f64(self.int_time);
        self.last_integral_at.encode(w);
        let offers: Vec<Option<(BeSpec, u8)>> = self
            .be_offers
            .iter()
            .map(|o| o.as_ref().map(|(s, p)| ((**s).clone(), *p)))
            .collect();
        offers.encode(w);
        self.be_job_progress.encode(w);
        self.last_progress_at.encode(w);
        self.admitted_log.encode(w);
        self.killed_log.encode(w);
        self.telemetry.encode(w);
        self.audit_prev.encode(w);
    }

    /// Rebuilds an engine from `(service, cfg)` — which must match the
    /// capturing run — and the dynamic state in `r`. The restored engine
    /// continues bit-identically to the one that was captured; state that
    /// contradicts the deployment (wrong machine count or spec, dangling
    /// request keys) is refused as [`SnapshotError::Corrupt`], and
    /// telemetry switched on or off unlike the capture as
    /// [`SnapshotError::Incompatible`].
    pub fn snapshot_restore(
        service: impl Into<Arc<ServiceSpec>>,
        cfg: EngineConfig,
        r: &mut Reader<'_>,
    ) -> Result<Engine, SnapshotError> {
        let mut e = Engine::new(service, cfg);
        let n = e.nodes.len();
        let machines: Vec<Machine> = Snapshot::decode(r)?;
        if machines.len() != n {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {} machines, deployment has {n}",
                machines.len()
            )));
        }
        for (m, fresh) in machines.iter().zip(&e.deployment.machines) {
            if m.spec() != fresh.spec() {
                return Err(SnapshotError::Corrupt(
                    "snapshot machine spec differs from the configured deployment".into(),
                ));
            }
        }
        e.deployment.machines = machines;
        let n_nodes = r.len(8)?;
        if n_nodes != n {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n_nodes} nodes, service has {n}"
            )));
        }
        for i in 0..n {
            e.nodes.decode_node(i, r)?;
        }
        let agents: Vec<Option<(AgentStats, Option<BeAction>)>> = Snapshot::decode(r)?;
        if agents.len() != n {
            return Err(SnapshotError::Corrupt("agent count mismatch".into()));
        }
        for (i, state) in agents.into_iter().enumerate() {
            match (e.agents[i].as_mut(), state) {
                (Some(agent), Some((stats, last))) => agent.restore_state(stats, last),
                (None, None) => {}
                _ => {
                    return Err(SnapshotError::Corrupt(
                        "agent presence differs from the configured control mode".into(),
                    ))
                }
            }
        }
        e.be_specs = Snapshot::decode(r)?;
        e.cal = Snapshot::decode(r)?;
        if e.nodes.last_busy_change.iter().any(|&t| t > e.cal.now()) {
            return Err(SnapshotError::Corrupt(
                "node busy transition after the calendar's clock".into(),
            ));
        }
        e.rng_arrival = Snapshot::decode(r)?;
        e.rng_service = Snapshot::decode(r)?;
        e.rng_path = Snapshot::decode(r)?;
        e.requests = Snapshot::decode(r)?;
        for (_k, req) in e.requests.iter() {
            if req.visits().iter().any(|v| v.node() >= n) {
                return Err(SnapshotError::Corrupt("visit node out of range".into()));
            }
        }
        for req in e.requests.values_mut() {
            req.fit_phase_records(e.cfg.capture_visits)?;
        }
        let in_flight = |key: ReqKey, visit: u32| {
            e.requests
                .get(key)
                .is_some_and(|req| (visit as usize) < req.visits().len())
        };
        if !e
            .nodes
            .queue
            .iter()
            .flatten()
            .all(|&(key, visit)| in_flight(key, visit))
        {
            return Err(SnapshotError::Corrupt(
                "node queue references a request that is not in flight".into(),
            ));
        }
        let dangling = e.cal.pending().any(|ev| match *ev {
            Ev::PhaseEnd { req, visit } => !in_flight(req, visit),
            _ => false,
        });
        if dangling {
            return Err(SnapshotError::Corrupt(
                "phase-end event references a visit that is not in flight".into(),
            ));
        }
        e.inflation_inputs = Snapshot::decode(r)?;
        if e.inflation_inputs.len() != n {
            return Err(SnapshotError::Corrupt(
                "inflation cache length mismatch".into(),
            ));
        }
        e.tail = Snapshot::decode(r)?;
        e.arrivals_ring = Snapshot::decode(r)?;
        let now_sec = e.cal.now().as_nanos() / 1_000_000_000;
        let mut prev_sec = None;
        for &(sec, count) in &e.arrivals_ring {
            // Seconds ascend and never pass the clock; no second holds
            // 2^28 arrivals, so counting and summing the ring never
            // overflow.
            if prev_sec.is_some_and(|p| p >= sec) || sec > now_sec || count >= 1 << 28 {
                return Err(SnapshotError::Corrupt(format!(
                    "arrival ring entry ({sec} s, {count}) at clock second {now_sec}"
                )));
            }
            prev_sec = Some(sec);
        }
        e.hist = Snapshot::decode(r)?;
        e.completed = r.u64()?;
        e.completed_total = r.u64()?;
        e.window_hist = Snapshot::decode(r)?;
        e.window_epoch = r.u64()?;
        e.worst_window_p99 = r.f64()?;
        e.sojourn_stats = Snapshot::decode(r)?;
        if e.sojourn_stats.len() != n {
            return Err(SnapshotError::Corrupt(
                "sojourn stats length mismatch".into(),
            ));
        }
        e.sojourns = Snapshot::decode(r)?;
        if e.sojourns.is_some() != e.cfg.collect_sojourns {
            return Err(SnapshotError::Corrupt(
                "sojourn collection differs from the configured run".into(),
            ));
        }
        e.timeline = Snapshot::decode(r)?;
        e.be_progress_int = Snapshot::decode(r)?;
        e.be_instances_int = Snapshot::decode(r)?;
        e.cpu_util_int = Snapshot::decode(r)?;
        e.lc_cpu_util_int = Snapshot::decode(r)?;
        e.membw_int = Snapshot::decode(r)?;
        w_len_check(&e.be_progress_int, n)?;
        w_len_check(&e.be_instances_int, n)?;
        w_len_check(&e.cpu_util_int, n)?;
        w_len_check(&e.lc_cpu_util_int, n)?;
        w_len_check(&e.membw_int, n)?;
        e.offered_int = r.f64()?;
        e.int_time = r.f64()?;
        e.last_integral_at = Snapshot::decode(r)?;
        let offers: Vec<Option<(BeSpec, u8)>> = Snapshot::decode(r)?;
        if offers.len() != n {
            return Err(SnapshotError::Corrupt("offer table length mismatch".into()));
        }
        e.be_offers = offers
            .into_iter()
            .map(|o| o.map(|(s, p)| (Arc::new(s), p)))
            .collect();
        e.be_job_progress = Snapshot::decode(r)?;
        if e.be_job_progress.len() != n {
            return Err(SnapshotError::Corrupt(
                "progress ledger length mismatch".into(),
            ));
        }
        e.last_progress_at = Snapshot::decode(r)?;
        e.admitted_log = Snapshot::decode(r)?;
        e.killed_log = Snapshot::decode(r)?;
        e.telemetry = Snapshot::decode(r)?;
        if e.telemetry.enabled() != e.cfg.telemetry.enabled {
            let word = |on: bool| format!("telemetry {}", if on { "on" } else { "off" });
            return Err(SnapshotError::Incompatible {
                expected: word(e.cfg.telemetry.enabled),
                found: word(e.telemetry.enabled()),
            });
        }
        e.audit_prev = Snapshot::decode(r)?;
        if e.audit_prev.len() != n {
            return Err(SnapshotError::Corrupt("audit cache length mismatch".into()));
        }
        // The cache holds each node's count at the last tick, and counts
        // only grow.
        if e.audit_prev
            .iter()
            .zip(&e.sojourn_stats)
            .any(|(&(prev, _), stats)| prev > stats.count())
        {
            return Err(SnapshotError::Corrupt(
                "audit cache counts more sojourns than the node has seen".into(),
            ));
        }
        // The captured run had already started; `start()` must not
        // re-run setup on the restored state.
        e.started = true;
        Ok(e)
    }

    /// A structural digest of the engine for snapshot post-mortems
    /// (stored next to the full byte stream so `repro snapshot-diff`
    /// never needs the service spec to render a comparison).
    pub fn snapshot_summary(&self) -> EngineSummary {
        EngineSummary {
            completed_total: self.completed_total,
            inflight: self.requests.len() as u64,
            pending_events: self.cal.len() as u64,
            machines: (0..self.nodes.len())
                .map(|i| {
                    let m = &self.deployment.machines[i];
                    EngineMachineSummary {
                        pod: self.service.nodes[i].component.name.clone(),
                        be_instances: u32::try_from(m.be_count()).unwrap_or(u32::MAX),
                        be_running: u32::try_from(m.running_be_count()).unwrap_or(u32::MAX),
                        be_cores: m.be_total_alloc().cores,
                        be_llc_ways: m.cat().be_ways(),
                        lc_freq_mhz: m.lc_dvfs.current_mhz(),
                        be_freq_mhz: m.be_dvfs.current_mhz(),
                        be_started: m.be_started,
                        be_killed: m.be_killed,
                    }
                })
                .collect(),
        }
    }
}

fn w_len_check(v: &[f64], n: usize) -> Result<(), SnapshotError> {
    if v.len() != n {
        return Err(SnapshotError::Corrupt("integral length mismatch".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_workloads::apps;
    use rhythm_workloads::BeKind;

    fn quick_solo(load: f64, seed: u64) -> EngineOutput {
        let cfg = EngineConfig::solo(load, 30, seed);
        Engine::new(apps::ecommerce(), cfg).run()
    }

    /// Warm-up is a tenth of the run in whole seconds, never under 2 s:
    /// a 600 s run measures from 60 s, a 45 s run from 4 s and a 10 s
    /// run from 2 s.
    #[test]
    fn warmup_is_a_tenth_of_the_run_at_least_two_seconds() {
        for (duration_s, from_s) in [(600, 60), (45, 4), (10, 2)] {
            let e = Engine::new(apps::ecommerce(), EngineConfig::solo(0.5, duration_s, 1));
            assert_eq!(
                e.measure_from,
                SimTime::ZERO + SimDuration::from_secs(from_s)
            );
        }
    }

    #[test]
    fn solo_run_completes_requests() {
        let out = quick_solo(0.5, 1);
        // 0.5 × ~590 rps × ~27 measured seconds.
        assert!(out.completed > 500, "completed={}", out.completed);
        assert!(out.p99_ms() > out.mean_ms());
        assert!(out.mean_ms() > 20.0, "mean={}", out.mean_ms());
    }

    #[test]
    fn latency_grows_with_load() {
        let low = quick_solo(0.2, 2);
        let high = quick_solo(0.9, 2);
        assert!(
            high.p99_ms() > 1.5 * low.p99_ms(),
            "p99 {} vs {}",
            high.p99_ms(),
            low.p99_ms()
        );
    }

    #[test]
    fn determinism() {
        let a = quick_solo(0.6, 7);
        let b = quick_solo(0.6, 7);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99_ms(), b.p99_ms());
        let c = quick_solo(0.6, 8);
        assert_ne!(a.completed, c.completed);
    }

    #[test]
    fn sojourn_ordering_matches_figure6() {
        // MySQL should have the largest mean sojourn at high load;
        // HAProxy and Amoeba tiny.
        let out = quick_solo(0.8, 3);
        let by_name: std::collections::BTreeMap<&str, f64> = out
            .pods
            .iter()
            .map(|p| (p.name.as_str(), p.sojourn_stats.mean()))
            .collect();
        assert!(by_name["mysql"] > by_name["amoeba"]);
        assert!(by_name["mysql"] > by_name["haproxy"]);
        assert!(by_name["tomcat"] > by_name["amoeba"]);
    }

    #[test]
    fn static_colocation_inflates_latency() {
        let solo = quick_solo(0.6, 4);
        let mut cfg = EngineConfig::solo(0.6, 30, 4);
        cfg.bes = vec![BeSpec::of(BeKind::StreamDram { big: true })];
        cfg.mode = ControlMode::Static {
            instances: 2,
            cores: 4,
            llc_ways: 4,
            pods: Vec::new(),
        };
        let coloc = Engine::new(apps::ecommerce(), cfg).run();
        assert!(
            coloc.p99_ms() > 1.3 * solo.p99_ms(),
            "colocated p99 {} vs solo {}",
            coloc.p99_ms(),
            solo.p99_ms()
        );
    }

    #[test]
    fn managed_mode_launches_and_controls_be() {
        let solo = quick_solo(0.5, 5);
        let mut cfg = EngineConfig::solo(0.5, 60, 5);
        cfg.bes = vec![BeSpec::of(BeKind::Wordcount)];
        cfg.sla_ms = solo.p99_ms() * 1.6;
        cfg.mode = ControlMode::Managed {
            thresholds: vec![Thresholds::new(0.9, 0.05); 4],
        };
        let sla_ms = cfg.sla_ms;
        let out = Engine::new(apps::ecommerce(), cfg).run();
        let total_be: f64 = out.pods.iter().map(|p| p.be_throughput).sum();
        assert!(total_be > 0.05, "BE made progress: {total_be}");
        for p in &out.pods {
            assert!(p.agent.is_some());
            assert!(p.cpu_util >= p.lc_cpu_util);
        }
        // SLA should hold with these generous targets.
        assert!(
            out.p99_ms() <= sla_ms * 1.05,
            "p99 {} sla {}",
            out.p99_ms(),
            sla_ms
        );
    }

    #[test]
    fn sojourn_collection_and_visit_trees() {
        let mut cfg = EngineConfig::solo(0.4, 20, 6);
        cfg.collect_sojourns = true;
        cfg.capture_visits = true;
        let out = Engine::new(apps::ecommerce(), cfg).run();
        let s = out.sojourns.as_ref().unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].len() as u64, out.completed);
        assert_eq!(out.visit_trees.len() as u64, out.completed);
        // Ground truth: tree sojourns equal collected sojourns on average.
        let tree_mean: f64 = out.visit_trees.iter().map(|t| t.sojourn_ms()).sum::<f64>()
            / out.visit_trees.len() as f64;
        let collected_mean = s[0].iter().sum::<f64>() / s[0].len() as f64;
        assert!((tree_mean - collected_mean).abs() < 1e-6);
    }

    #[test]
    fn stepped_run_with_drained_visit_log_matches_a_straight_run() {
        // Debug prints every f64 in its shortest round-trip form, so equal
        // text is equal bits.
        let cfg = || {
            let mut cfg = EngineConfig::solo(0.7, 12, 9);
            cfg.capture_visits = true;
            cfg
        };
        let straight = Engine::new(apps::snms(), cfg()).run();
        let mut engine = Engine::new(apps::snms(), cfg());
        let mut log = VisitLog::default();
        let mut drained = VisitLog::default();
        let mut watermark = SimTime::ZERO;
        let steps = (1..=12).map(|s| SimTime::ZERO + SimDuration::from_secs(s));
        for until in steps.chain([SimTime::MAX]) {
            engine.run_until(until);
            engine.drain_visit_log(&mut log);
            // A request drained now starts no earlier than the watermark
            // taken after the previous step.
            for req in log.requests() {
                assert!(
                    req.phases[0].0 >= watermark,
                    "request starts before the watermark"
                );
            }
            // Empties `log`, so the next drain swaps buffers again.
            drained.append(&mut log);
            watermark = engine
                .earliest_in_flight_arrival()
                .map_or(until, |arrival| arrival.min(until));
        }
        assert_eq!(engine.earliest_in_flight_arrival(), None);
        let mut stepped = engine.finish_run();
        assert!(stepped.visit_trees.is_empty(), "drained visits stay out");
        let trees: Vec<VisitNode> = drained.requests().map(|r| r.to_tree()).collect();
        let bits = |trees: &[VisitNode]| -> Vec<u64> {
            trees.iter().map(|t| t.sojourn_ms().to_bits()).collect()
        };
        assert_eq!(bits(&trees), bits(&straight.visit_trees));
        stepped.visit_trees = trees;
        assert_eq!(format!("{stepped:?}"), format!("{straight:?}"));
    }

    #[test]
    fn fan_out_service_runs() {
        let cfg = EngineConfig::solo(0.6, 30, 7);
        let out = Engine::new(apps::snms(), cfg).run();
        assert!(out.completed > 500, "completed={}", out.completed);
        // All three pods visited.
        for p in &out.pods {
            assert!(p.sojourn_stats.count() > 0, "{} never visited", p.name);
        }
    }

    #[test]
    fn probabilistic_calls_visit_sometimes() {
        let cfg = EngineConfig::solo(0.5, 20, 8);
        let out = Engine::new(apps::elgg(), cfg).run();
        let mysql_visits = out.pods[2].sojourn_stats.count();
        let front_visits = out.pods[0].sojourn_stats.count();
        assert!(mysql_visits > 0);
        let ratio = mysql_visits as f64 / front_visits as f64;
        assert!((0.2..0.4).contains(&ratio), "p=0.3 visits, got {ratio}");
    }

    #[test]
    fn suspended_instance_accrues_no_progress() {
        // Hand-computed timeline for the progress ledger: one wordcount
        // instance with a fixed 2-core / 2-way grant on machine 0 of an
        // otherwise-solo run (no controller touches it).
        //
        //   t in [0.0, 3.5)  running   -> accrues at `rate`
        //   t in [3.5, 5.0)  suspended -> accrues nothing
        //   t in [5.0, 8.0)  running   -> accrues at `rate`
        //
        // so progress(5.0) = 3.5·rate and progress(8.0) = 6.5·rate. A
        // ledger that accrues the whole tick for a job suspended mid-tick
        // would report 4·rate and 7·rate instead.
        let spec = BeSpec::of(BeKind::Wordcount);
        let mut cfg = EngineConfig::solo(0.3, 30, 5);
        cfg.bes = vec![spec.clone()];
        let mut engine = Engine::new(apps::ecommerce(), cfg);
        engine.start();
        let m = &mut engine.deployment.machines[0];
        let grant = Allocation {
            cores: 2,
            llc_ways: 2,
            mem_mb: spec.mem_mb,
            net_mbps: 0.0,
            freq_mhz: m.be_dvfs.current_mhz(),
        };
        let freq = m.be_dvfs.speed_fraction();
        // Wordcount is network-hungry and the solo machine grants BE no
        // qdisc share, so the engine accrues at the 5% network floor.
        let net_frac = (m.qdisc.be_limit_mbps() / spec.net_demand_mbps).clamp(0.0, 1.0);
        let id = m.admit_be(&spec.name, grant).expect("machine has headroom");
        let rate = spec.progress_rate(2, freq, 2, net_frac) / spec.job_seconds;
        assert!(rate > 0.0);
        let at = |s_ms: u64| SimTime::ZERO + SimDuration::from_millis(s_ms);

        engine.run_until(at(3_000));
        engine.sync_be_progress(at(3_500));
        engine.deployment.machines[0]
            .suspend_be(id)
            .expect("suspend");
        engine.run_until(at(5_000));
        engine.sync_be_progress(at(5_000));
        let at_5 = engine.be_progress(0, id).expect("ledger entry");
        engine.deployment.machines[0].resume_be(id).expect("resume");
        engine.run_until(at(8_000));
        engine.sync_be_progress(at(8_000));
        let at_8 = engine.be_progress(0, id).expect("ledger entry");

        assert!(
            (at_5 - 3.5 * rate).abs() < 1e-12,
            "suspended fraction of the tick accrued: {at_5} vs {}",
            3.5 * rate
        );
        assert!(
            (at_8 - 6.5 * rate).abs() < 1e-12,
            "resume accrual off: {at_8} vs {}",
            6.5 * rate
        );
    }

    #[test]
    fn be_summary_tracks_every_machine_move() {
        // One managed machine, driven by hand through every
        // allocation-changing operation and every DVFS and qdisc move;
        // after each step the keyed summary must equal a fresh
        // derivation. A key that misses an input keeps a stale summary
        // at the step that moves only that input.
        let mut cfg = managed_cfg(3);
        cfg.bes = vec![
            BeSpec::of(BeKind::Wordcount),
            BeSpec::of(BeKind::StreamDram { big: true }),
            BeSpec::of(BeKind::Iperf),
        ];
        let names: Vec<String> = cfg.bes.iter().map(|b| b.name.clone()).collect();
        let mut engine = Engine::new(apps::ecommerce(), cfg);
        engine.start();
        let check = |e: &mut Engine, what: &str| {
            e.refresh_be_summaries();
            let fresh = BeSummary::derive(&e.deployment.machines[0], &e.be_specs);
            assert_eq!(e.be_summaries[0], fresh, "{what}");
            fresh
        };
        let grant = |cores: u32| Allocation {
            cores,
            llc_ways: 2,
            mem_mb: 1024,
            net_mbps: 0.0,
            freq_mhz: 2_000,
        };
        let empty = check(&mut engine, "empty machine");
        assert!(empty.rates.is_empty());
        fn m(e: &mut Engine) -> &mut Machine {
            &mut e.deployment.machines[0]
        }
        let a = m(&mut engine).admit_be(&names[0], grant(2)).expect("admit");
        check(&mut engine, "admit");
        let b = m(&mut engine)
            .admit_be_prio(&names[1], grant(2), 1)
            .expect("admit at class 1");
        let c = m(&mut engine).admit_be(&names[2], grant(1)).expect("admit");
        check(&mut engine, "admit with priority");
        m(&mut engine)
            .grow_be(a, Allocation::cores_and_llc(2, 2))
            .expect("grow");
        check(&mut engine, "grow");
        m(&mut engine)
            .cut_be(a, Allocation::cores_and_llc(1, 2))
            .expect("cut");
        check(&mut engine, "cut");
        m(&mut engine).suspend_be(c).expect("suspend");
        check(&mut engine, "suspend");
        m(&mut engine).resume_be(c).expect("resume");
        let before = check(&mut engine, "resume");
        m(&mut engine).be_dvfs.set_mhz(1_200);
        let after = check(&mut engine, "BE DVFS down");
        assert_ne!(
            before.dram.to_bits(),
            after.dram.to_bits(),
            "a BE DVFS move changes the facts"
        );
        m(&mut engine).be_dvfs.step_up();
        check(&mut engine, "BE DVFS step up");
        m(&mut engine).lc_dvfs.set_mhz(1_400);
        check(&mut engine, "LC DVFS move");
        m(&mut engine).qdisc.reallocate(400.0);
        check(&mut engine, "qdisc ceiling up");
        m(&mut engine).qdisc.reallocate(9_000.0);
        check(&mut engine, "qdisc ceiling down");
        m(&mut engine).suspend_all_be();
        check(&mut engine, "suspend all");
        m(&mut engine).resume_all_be();
        check(&mut engine, "resume all");
        m(&mut engine).kill_min_priority_be();
        check(&mut engine, "kill lowest class");
        m(&mut engine).kill_be(b).expect("kill");
        check(&mut engine, "kill");
        m(&mut engine).kill_all_be();
        let last = check(&mut engine, "kill all");
        assert!(last.rates.is_empty() && last.running_cores == 0);
    }

    fn managed_cfg(seed: u64) -> EngineConfig {
        let mut cfg = EngineConfig::solo(0.5, 60, seed);
        cfg.bes = vec![BeSpec::of(BeKind::Wordcount)];
        cfg.sla_ms = 400.0;
        cfg.mode = ControlMode::Managed {
            thresholds: vec![Thresholds::new(0.9, 0.05); 4],
        };
        cfg.telemetry = TelemetryConfig::full();
        cfg
    }

    /// Fingerprint of a finished run, bit-exact (f64s compared by bits).
    fn run_fingerprint(out: &EngineOutput) -> (u64, u64, u64, u64, usize, usize) {
        let t = out.telemetry.as_ref().expect("telemetry on");
        (
            out.completed,
            out.completed_total,
            out.p99_ms().to_bits(),
            out.worst_window_p99_ms.to_bits(),
            t.events.len(),
            t.audit.len(),
        )
    }

    /// An idle engine holds only what it used: a managed e-commerce
    /// engine at load 0.1 stores the occupied histogram bucket range
    /// (not ~1,000 buckets per histogram), only the non-zero buckets of
    /// each tail-window slot (not the widest second's range), BE tables
    /// of the few instances it ran, and a request arena and event heap
    /// grown to the few requests and events in flight rather than
    /// pre-sized to 1,024 entries.
    #[test]
    fn idle_engine_footprint_is_bounded() {
        let mut cfg = managed_cfg(23);
        cfg.load = LoadGen::constant(0.1);
        cfg.duration = SimDuration::from_secs(30);
        let mut e = Engine::new(apps::ecommerce(), cfg);
        e.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let buckets = e.hist.bucket_capacity() + e.window_hist.bucket_capacity();
        assert!(buckets <= 1_000, "{buckets} histogram buckets stored");
        let tail = e.tail.bucket_capacity();
        assert!(tail <= 160, "{tail} tail-window entries stored");
        let machines: usize = e.deployment.machines.iter().map(|m| m.be_capacity()).sum();
        assert!(machines <= 16, "{machines} BE instance records stored");
        let ledgers: usize = e.be_job_progress.iter().map(|l| l.0.capacity()).sum();
        assert!(ledgers <= 16, "{ledgers} progress ledger entries stored");
        let (arena, cal) = (e.requests.reserved_slots(), e.cal.capacity());
        assert!(arena <= 64, "request arena reserved {arena} slots");
        assert!(cal <= 64, "calendar reserved {cal} entries");
    }

    /// The request path's records stay small: an event fits in 16 bytes,
    /// so a calendar entry `(time, seq, event)` takes 32, and a visit is
    /// a 56-byte `Copy` record that owns no heap buffer.
    #[test]
    fn request_path_records_are_compact() {
        use std::mem::size_of;
        assert!(size_of::<Ev>() <= 16, "Ev is {} bytes", size_of::<Ev>());
        assert_eq!(size_of::<(SimTime, u64, Ev)>(), 32);
        assert_eq!(size_of::<crate::plan::Visit>(), 56);
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        // Straight-through run.
        let direct = Engine::new(apps::ecommerce(), managed_cfg(21)).run();

        // Run to t=20s, snapshot, restore, run to completion.
        let mut first = Engine::new(apps::ecommerce(), managed_cfg(21));
        first.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        let mut w = Writer::new();
        first.snapshot_encode(&mut w);
        let bytes = w.into_bytes();
        let resumed =
            Engine::snapshot_restore(apps::ecommerce(), managed_cfg(21), &mut Reader::new(&bytes))
                .expect("snapshot restores");
        // Re-encoding the restored engine is byte-identical (canonical
        // codec).
        let mut w2 = Writer::new();
        resumed.snapshot_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        let out = resumed.run();
        assert_eq!(run_fingerprint(&out), run_fingerprint(&direct));
        // Tail-series splice: no duplicated or missing points.
        let a = &out.telemetry.as_ref().unwrap().tail;
        let b = &direct.telemetry.as_ref().unwrap().tail;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_restore_rejects_wrong_deployment() {
        let mut e = Engine::new(apps::ecommerce(), managed_cfg(22));
        e.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let mut w = Writer::new();
        e.snapshot_encode(&mut w);
        let bytes = w.into_bytes();
        // Wrong service shape (3 pods instead of 4).
        let mut cfg = managed_cfg(22);
        cfg.mode = ControlMode::Managed {
            thresholds: vec![Thresholds::new(0.9, 0.05); 3],
        };
        let r = Engine::snapshot_restore(apps::snms(), cfg, &mut Reader::new(&bytes));
        assert!(matches!(r.err(), Some(SnapshotError::Corrupt(_))));
        // Truncated stream.
        let r = Engine::snapshot_restore(
            apps::ecommerce(),
            managed_cfg(22),
            &mut Reader::new(&bytes[..bytes.len() / 2]),
        );
        assert!(r.is_err());
    }

    /// A phase end of a request that is not in flight, or of a visit
    /// past the request's plan, would panic at its arena lookup or
    /// index once the restored engine reached it.
    #[test]
    fn snapshot_restore_rejects_dangling_phase_end() {
        let mut e = Engine::new(apps::ecommerce(), managed_cfg(22));
        e.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let (live, _) = e.requests.iter().next().expect("a request is in flight");
        let visits = e.requests.get(live).map(|r| r.visits().len()).unwrap_or(0);
        let gone = e.requests.insert(Request::default());
        e.requests.remove(gone);
        let at = e.now() + SimDuration::from_millis(1);
        for (req, visit) in [(gone, 0), (live, u32::try_from(visits).unwrap())] {
            let mut bad = Engine::new(apps::ecommerce(), managed_cfg(22));
            bad.run_until(SimTime::ZERO + SimDuration::from_secs(10));
            bad.cal.schedule(at, Ev::PhaseEnd { req, visit });
            let mut w = Writer::new();
            bad.snapshot_encode(&mut w);
            let r = Engine::snapshot_restore(
                apps::ecommerce(),
                managed_cfg(22),
                &mut Reader::new(&w.into_bytes()),
            );
            assert!(
                matches!(r.err(), Some(SnapshotError::Corrupt(_))),
                "({req:?}, {visit})"
            );
        }
    }

    /// A ledger `encode` never writes — a duplicated id, which a map
    /// decode would collapse into one entry, or ids out of order — is
    /// refused, not restored with fewer entries than it declares.
    #[test]
    fn snapshot_restore_rejects_unsorted_progress_ledger() {
        let mut e = Engine::new(apps::ecommerce(), managed_cfg(22));
        e.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        let i = e
            .be_job_progress
            .iter()
            .position(|l| !l.0.is_empty())
            .expect("some machine runs BE work");
        let entry = e.be_job_progress[i].0[0].clone();
        let forge = |edit: &dyn Fn(&mut Ledger)| {
            let mut bad = Engine::new(apps::ecommerce(), managed_cfg(22));
            bad.run_until(SimTime::ZERO + SimDuration::from_secs(20));
            edit(&mut bad.be_job_progress[i]);
            let mut w = Writer::new();
            bad.snapshot_encode(&mut w);
            Engine::snapshot_restore(
                apps::ecommerce(),
                managed_cfg(22),
                &mut Reader::new(&w.into_bytes()),
            )
        };
        let duplicated = forge(&|l| l.0.push(entry.clone()));
        assert!(matches!(duplicated.err(), Some(SnapshotError::Corrupt(_))));
        let reversed = forge(&|l| l.0.insert(0, (entry.0 + 1, entry.1.clone())));
        assert!(matches!(reversed.err(), Some(SnapshotError::Corrupt(_))));
        assert!(forge(&|_| {}).is_ok());
    }

    /// A node whose last busy transition lies after the restored clock
    /// would settle its busy integral backwards in time.
    #[test]
    fn snapshot_restore_rejects_busy_transition_after_clock() {
        let mut e = Engine::new(apps::ecommerce(), managed_cfg(22));
        e.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        e.nodes.last_busy_change[0] = e.now() + SimDuration::from_secs(1);
        let mut w = Writer::new();
        e.snapshot_encode(&mut w);
        let bytes = w.into_bytes();
        let r =
            Engine::snapshot_restore(apps::ecommerce(), managed_cfg(22), &mut Reader::new(&bytes));
        assert!(matches!(r.err(), Some(SnapshotError::Corrupt(_))));
    }

    /// A `-1` busy delta with no matching `+1` is a phase-accounting
    /// bug; debug builds must refuse it loudly instead of letting it
    /// corrupt utilization accounting.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "busy underflow")]
    fn busy_underflow_is_caught_in_debug() {
        let mut e = Engine::new(apps::ecommerce(), EngineConfig::solo(0.5, 10, 1));
        e.update_busy(0, SimTime::from_millis(5), -1);
    }

    /// Release builds saturate a mismatched delta at zero busy workers,
    /// and the clamp keeps the busy count and the integral mutually
    /// consistent: later transitions still produce the exact integral.
    #[cfg(not(debug_assertions))]
    #[test]
    fn busy_underflow_saturates_in_release() {
        let mut e = Engine::new(apps::ecommerce(), EngineConfig::solo(0.5, 10, 1));
        e.update_busy(0, SimTime::from_nanos(1_000), -1);
        assert_eq!(e.nodes.busy[0], 0, "saturated at zero");
        assert_eq!(e.busy_area_ns(0), 0, "no phantom area from the clamp");
        e.update_busy(0, SimTime::from_nanos(2_000), 1);
        e.update_busy(0, SimTime::from_nanos(5_000), -1);
        assert_eq!(e.nodes.busy[0], 0);
        assert_eq!(e.busy_area_ns(0), 3_000, "integral of the real +1/-1 pair");
    }

    mod node_table_roundtrip {
        use super::*;
        use proptest::prelude::*;

        /// One synthetic node record honouring the decode invariants:
        /// `busy ≤ workers` and `busy_area ≤ workers × elapsed`.
        fn record() -> impl Strategy<Value = (u32, u32, f64, u64, u64, u64)> {
            (
                1u32..=64,
                any::<u32>(),
                0.5f64..16.0,
                0u64..=86_400_000_000_000,
                any::<u64>(),
                any::<u64>(),
            )
                .prop_map(
                    |(workers, busy_seed, inflation, last, area_seed, visits)| {
                        let busy = busy_seed % (workers + 1);
                        (workers, busy, inflation, last, area_seed, visits)
                    },
                )
        }

        proptest! {
            /// Encode → decode → re-encode over arbitrary SoA node-state
            /// tables is byte-identical and restores every busy integral.
            #[test]
            fn soa_node_tables_round_trip(records in prop::collection::vec(record(), 1..12)) {
                let workers: Vec<u32> = records.iter().map(|r| r.0).collect();
                let mut src = NodeTables::with_workers(workers.clone());
                for (i, &(w, busy, inflation, last, area_seed, visits)) in records.iter().enumerate() {
                    let bound = w as u128 * last as u128;
                    let area = if bound == 0 { 0 } else { area_seed as u128 % (bound + 1) };
                    src.busy[i] = busy;
                    src.inflation[i] = inflation;
                    src.last_busy_change[i] = SimTime::from_nanos(last);
                    src.busy_area[i] = area;
                    src.visits_done_window[i] = visits;
                }
                let mut w = Writer::new();
                for i in 0..src.len() {
                    src.encode_node(i, &mut w);
                }
                let bytes = w.into_bytes();
                let mut dst = NodeTables::with_workers(workers);
                let mut r = Reader::new(&bytes);
                for i in 0..dst.len() {
                    dst.decode_node(i, &mut r).expect("valid record decodes");
                }
                let mut w2 = Writer::new();
                for i in 0..dst.len() {
                    dst.encode_node(i, &mut w2);
                }
                prop_assert_eq!(w2.into_bytes(), bytes);
                for i in 0..dst.len() {
                    prop_assert_eq!(dst.busy_area[i], src.busy_area[i]);
                }
            }

            /// Organic round trip: a mid-run engine (queues, in-flight
            /// requests, busy integrals) snapshots, restores and
            /// re-encodes bit-identically.
            #[test]
            fn mid_run_engine_snapshot_round_trips(secs in 3u64..25, seed in 0u64..200) {
                let mut e = Engine::new(apps::ecommerce(), managed_cfg(seed));
                e.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
                let mut w = Writer::new();
                e.snapshot_encode(&mut w);
                let bytes = w.into_bytes();
                let restored = Engine::snapshot_restore(
                    apps::ecommerce(),
                    managed_cfg(seed),
                    &mut Reader::new(&bytes),
                )
                .expect("snapshot restores");
                let mut w2 = Writer::new();
                restored.snapshot_encode(&mut w2);
                prop_assert_eq!(w2.into_bytes(), bytes);
                for i in 0..e.machine_count() {
                    prop_assert_eq!(restored.busy_area_ns(i), e.busy_area_ns(i));
                }
            }
        }
    }

    #[test]
    fn timeline_recorded_in_managed_mode() {
        let mut cfg = EngineConfig::solo(0.5, 30, 9);
        cfg.bes = vec![BeSpec::of(BeKind::Wordcount)];
        cfg.sla_ms = 500.0;
        cfg.mode = ControlMode::Managed {
            thresholds: vec![Thresholds::new(0.9, 0.1); 4],
        };
        cfg.record_timeline = true;
        let out = Engine::new(apps::ecommerce(), cfg).run();
        assert!(!out.timeline.is_empty());
        let p = &out.timeline[0];
        assert_eq!(p.cpu_util_pct.len(), 4);
        assert_eq!(p.be_cores.len(), 4);
    }
}
