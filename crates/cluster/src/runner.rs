//! The parallel epoch-barrier cluster runner.
//!
//! Replicas advance **independently** between controller ticks: nothing
//! couples two engines except the dispatcher, and the dispatcher only
//! acts on controller signals, which are emitted every 2 s of virtual
//! time. So the runner advances all engines up to the next epoch boundary
//! on scoped threads, each owning a disjoint slice of the engines, then
//! performs the cluster-level bookkeeping (admission binding,
//! kill/requeue, completion, placement) in a **single-threaded merge in
//! fixed machine order**. Every engine owns independent splitmix-derived
//! RNG streams and the merge never observes scheduling order, so the
//! result is bit-identical for any worker-thread count — determinism is
//! a property of the protocol, not of luck.
//!
//! One scheduler holds the whole cluster's queue, offers and bindings,
//! and its durable state is one [`SchedulerState`]: the job ledger,
//! queue, offers, bindings, round-robin cursor, gangs and events the
//! barrier mutates in place are exactly what a snapshot stores. A capture
//! clones it. [`ClusterRunner::resume`] checks a captured one against the
//! config, assigns it to the scheduler that [`ClusterRunner::run`] then
//! continues with the restored engines, and so restores it exactly once.
//! Dispatch caches placement rankings per pass: machine state is constant
//! during a pass, so each job spec's ranking over the eligible machines
//! is scored and sorted once, and later pops of the same spec resume at a
//! cursor instead of rescoring every machine.
//!
//! Epoch protocol (epoch = controller period, paper: 2 s):
//!
//! 1. *Dispatch* — withdraw offers no controller consumed (forming-gang
//!    offers persist), then offer queued jobs to machines signalling
//!    AllowBEGrowth, one per machine, placed by the configured policy. A
//!    gang needs one eligible machine per live member or it goes back to
//!    the queue untouched (all-or-nothing).
//! 2. *Run* — every engine processes events up to the epoch end in
//!    parallel (the controller tick at the boundary is included), then
//!    syncs its own BE progress to the boundary — still inside the
//!    parallel phase, since progress accrual is engine-local.
//! 3. *Merge* — in replica order bind admissions to their offered jobs,
//!    roll killed jobs back to their checkpoint and requeue them, and
//!    retire jobs whose progress reached 1.0. A gang lifecycle pass
//!    follows: gangs whose members all run are *formed*; a killed member
//!    — or patience running out while forming — aborts the whole gang,
//!    rolling every running member back to its checkpoint and
//!    requeueing the gang. Debug builds then check the scheduler's
//!    cross-layer invariants (`Scheduler::check_invariants`).

use crate::fault::{ChaosState, FaultKind, FaultPlan};
use crate::job::{ClusterJob, JobId, JobState};
use crate::metrics::{machine_fingerprints, ClusterMetrics, ClusterOutcome, ClusterTelemetry};
use crate::placement::{MachineRow, PlacementPolicy, Placer, Ranking};
use crate::queue::JobQueue;
use crate::snapshot::{ledger_slot, ClusterSnapshot, GangState, SchedulerState};
use crate::state::{global_index, machine_ref, replica_seed, ClusterConfig};
use rhythm_core::experiment::{ControllerChoice, ExperimentConfig, ServiceContext};
use rhythm_core::metrics::RunMetrics;
use rhythm_core::runtime::{BeAdmission, BeKill, Engine, EngineConfig};
use rhythm_machine::machine::BeInstanceId;
use rhythm_sim::{LatencyHistogram, SimDuration, SimTime};
use rhythm_snapshot::{Reader, SnapshotError, Writer};
use rhythm_telemetry::{ClusterEvent, ClusterEventKind, TailPoint};
use rhythm_workloads::{BeSpec, ServiceSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// The cluster scheduler: its durable [`SchedulerState`] (what a
/// snapshot stores) plus the config, fault plan, barrier rows and
/// per-pass scratch. Mutated only at the epoch barrier (single-threaded,
/// fixed iteration order), so every decision is deterministic.
struct Scheduler<'c> {
    cfg: &'c ClusterConfig,
    /// The LC service every replica runs (machine `g` hosts the
    /// component of Servpod `g % pods`).
    service: &'c ServiceSpec,
    pods: usize,
    /// Whether a controller drives BE work (false for Solo runs, whose
    /// backlog is never queued).
    managed: bool,
    /// Job ledger, queue, offers, bindings, round-robin cursor, gangs
    /// and events: mutated in place at every barrier, cloned by a
    /// capture, replaced whole by a resume.
    state: SchedulerState,
    /// Catalog position of each job's spec (index = job id), the key of
    /// its per-pass ranking.
    spec_slot: Vec<usize>,
    placer: Placer,
    catalog: BTreeMap<String, BeSpec>,
    /// The normalized fault schedule (empty when no chaos is
    /// configured; never mutated after construction).
    plan: FaultPlan,
    /// Dynamic fault state: plan cursor + the set of down machines.
    chaos: ChaosState,
    /// One placement row per global machine (empty in Solo runs). The
    /// engines write them in the parallel phase of each epoch; the
    /// barrier re-derives the rows of `stale` replicas before dispatch.
    rows: Vec<MachineRow>,
    /// Replicas whose machines the barrier mutated since their rows were
    /// written (all of them before the first epoch).
    stale: Vec<bool>,
    /// Scratch: machines eligible for new work this dispatch pass
    /// (AllowBEGrowth, no outstanding offer, not down), ascending.
    eligible: Vec<usize>,
    /// Scratch: per-spec rankings this dispatch pass, indexed by catalog
    /// position (the job-independent LeastPressure ranking uses slot 0).
    ranked: Vec<Ranking>,
    /// Scratch, reused across passes: machines claimed this pass…
    taken: Vec<bool>,
    /// …and which entries of `taken` to reset next pass.
    touched: Vec<usize>,
    /// Scratch: eligible globals for the round-robin rotation.
    rr: BTreeSet<usize>,
}

impl<'c> Scheduler<'c> {
    /// Builds the job ledger from the config's effective plan (gang
    /// entries expand to their instance count) and queues the work:
    /// solitary jobs directly, gangs through their first member. Jobs
    /// with equal specs share one allocation.
    fn new(cfg: &'c ClusterConfig, service: &'c ServiceSpec, managed: bool) -> Scheduler<'c> {
        let pods = service.len();
        let mut jobs: Vec<ClusterJob> = Vec::new();
        let mut gangs = BTreeMap::new();
        let mut interned: Vec<Arc<BeSpec>> = Vec::new();
        for (entry, spec) in (0u32..).zip(cfg.effective_plan()) {
            let shared = match interned.iter().find(|s| ***s == spec.spec) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = Arc::new(spec.spec);
                    interned.push(Arc::clone(&s));
                    s
                }
            };
            let k = spec.gang.max(1);
            let gang_id = (k > 1).then_some(entry);
            let mut members = Vec::with_capacity(k as usize);
            for _ in 0..k {
                let id = jobs.len() as JobId;
                let mut j = ClusterJob::new(id, Arc::clone(&shared), 0.0);
                j.priority = spec.priority;
                j.deadline_s = spec.deadline_s;
                j.gang = gang_id;
                members.push(id);
                jobs.push(j);
            }
            if let Some(gid) = gang_id {
                gangs.insert(
                    gid,
                    GangState {
                        members,
                        patience_left: cfg.gang_patience_epochs.max(1),
                        forming: false,
                    },
                );
            }
        }
        let mut queue = match cfg.queue_aging_s {
            Some(aging) => JobQueue::with_aging(aging),
            None => JobQueue::new(),
        };
        if managed {
            for j in &jobs {
                let leads_gang = match j.gang {
                    // One queue entry per gang: its first member.
                    Some(gid) => gangs[&gid].members[0] == j.id,
                    None => true,
                };
                if leads_gang {
                    queue.submit_with(j.id, j.priority, j.deadline_s, 0.0);
                }
            }
        }
        let catalog = cfg.catalog();
        #[expect(
            clippy::expect_used,
            reason = "the catalog holds every spec of the effective plan"
        )]
        let spec_slot = jobs
            .iter()
            .map(|j| {
                catalog
                    .keys()
                    .position(|k| *k == j.spec.name)
                    .expect("spec in catalog")
            })
            .collect();
        let replicas = cfg.machines / pods;
        Scheduler {
            cfg,
            service,
            pods,
            managed,
            taken: vec![false; cfg.machines],
            state: SchedulerState {
                jobs,
                queue,
                offered: vec![None; cfg.machines],
                bindings: BTreeMap::new(),
                rr_cursor: 0,
                gangs,
                events: Vec::new(),
            },
            spec_slot,
            placer: Placer::new(cfg.policy),
            ranked: (0..catalog.len().max(1))
                .map(|_| Ranking::default())
                .collect(),
            catalog,
            plan: {
                let mut plan = cfg.faults.clone();
                plan.normalize();
                plan
            },
            chaos: ChaosState::default(),
            rows: if managed {
                vec![MachineRow::default(); cfg.machines]
            } else {
                Vec::new()
            },
            stale: vec![true; replicas],
            eligible: Vec::new(),
            touched: Vec::new(),
            rr: BTreeSet::new(),
        }
    }

    /// Member ids of gang `gid` that have not finished.
    fn live_members(&self, gid: u32) -> impl Iterator<Item = JobId> + '_ {
        self.state.gangs[&gid]
            .members
            .iter()
            .copied()
            .filter(|&m| self.state.job(m).state != JobState::Done)
    }

    /// Records a cluster event when telemetry is enabled.
    fn note(&mut self, t_s: f64, kind: ClusterEventKind, job: u64, gang: Option<u32>) {
        if self.cfg.telemetry.enabled {
            self.state.events.push(ClusterEvent {
                t_s,
                kind,
                job,
                gang,
            });
        }
    }

    /// Marks `jid` finished, recording a deadline-miss event if it
    /// completed past its deadline.
    fn complete(&mut self, jid: JobId, now_s: f64) {
        self.state.job_mut(jid).on_complete(now_s);
        let job = self.state.job(jid);
        if job.deadline_missed_at(now_s) {
            let gang = job.gang;
            self.note(now_s, ClusterEventKind::DeadlineMiss, jid, gang);
        }
    }

    /// Applies every fault-plan event due at this barrier, in plan
    /// order. Runs single-threaded at the top of the epoch (before
    /// dispatch), so fault application is as deterministic as every
    /// other barrier mutation: same plan + same seed → same outcome for
    /// any worker-thread count.
    fn apply_faults(&mut self, engines: &mut [Engine], now_s: f64) {
        while let Some(ev) = usize::try_from(self.chaos.applied)
            .ok()
            .and_then(|i| self.plan.events.get(i))
        {
            if ev.at_s > now_s {
                break;
            }
            let idx = self.chaos.applied;
            let kind = ev.kind.clone();
            self.chaos.applied += 1;
            self.note(now_s, ClusterEventKind::FaultInjected, idx, None);
            match kind {
                FaultKind::MachineCrash { machine } => {
                    self.crash_machine(machine_index(machine), engines, now_s);
                }
                FaultKind::MachineRecover { machine } => {
                    self.recover_machine(machine_index(machine), engines, now_s);
                }
                FaultKind::SlowNode { machine, factor } => {
                    let r = machine_ref(machine_index(machine), self.pods);
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "validate() keeps factor in (0, 1]: the target is within [0, max MHz]"
                    )]
                    let target = (factor * f64::from(engines[r.replica].lc_max_mhz(r.pod))) as u32;
                    engines[r.replica].set_lc_frequency(r.pod, target);
                    self.stale[r.replica] = true;
                }
                FaultKind::CorrelatedFailure { group } => {
                    for m in group {
                        self.crash_machine(machine_index(m), engines, now_s);
                    }
                }
            }
        }
    }

    /// Takes machine `g` out of the cluster: withdraws its outstanding
    /// offer, kills every bound BE instance through the ordinary
    /// checkpoint-rollback-requeue path (a killed gang member aborts
    /// its gang atomically) and adds the machine to the down set, which
    /// blocks dispatch eligibility until recovery. The LC service is
    /// modeled as failing over invisibly — the cost of a crash is lost
    /// batch work plus redistribution pressure on the survivors.
    fn crash_machine(&mut self, g: usize, engines: &mut [Engine], now_s: f64) {
        if !self.chaos.down.insert(g as u64) {
            return; // already down
        }
        if let Some(jid) = self.withdraw_offer(g, engines) {
            // A solitary job goes straight back to the queue; a forming
            // gang keeps waiting on its patience budget and the gang
            // pass aborts (and requeues) it when that runs out.
            if self.state.job(jid).gang.is_none() {
                self.state.queue.requeue_at(jid, now_s);
            }
        }
        let r = machine_ref(g, self.pods);
        let bound: Vec<(BeInstanceId, JobId)> = self
            .state
            .bindings
            .range(binding_keys(g..g + 1))
            .map(|(&(_, inst), &jid)| (inst, jid))
            .collect();
        let mut dirty_gangs: BTreeSet<u32> = BTreeSet::new();
        for (inst, jid) in bound {
            // Progress was synced to the boundary before the barrier,
            // so the rollback banks exactly what ran.
            let progress = engines[r.replica].be_progress(r.pod, inst).unwrap_or(0.0);
            engines[r.replica].remove_be(r.pod, inst);
            self.stale[r.replica] = true;
            self.state.bindings.remove(&(g as u64, inst));
            self.settle_kill(jid, progress, now_s, &mut dirty_gangs);
        }
        for gid in dirty_gangs {
            self.abort_gang(gid, engines, now_s);
        }
        self.note(now_s, ClusterEventKind::MachineDown, g as u64, None);
    }

    /// Withdraws the offer outstanding on machine `g`, if any, and
    /// returns its job, now `Queued` again. Whether the job re-enters
    /// the queue is the caller's call.
    fn withdraw_offer(&mut self, g: usize, engines: &mut [Engine]) -> Option<JobId> {
        let jid = self.state.offered[g].take()?;
        let r = machine_ref(g, self.pods);
        engines[r.replica].set_be_offer(r.pod, None);
        self.state.job_mut(jid).state = JobState::Queued;
        Some(jid)
    }

    /// Settles a killed instance of job `jid` that had made `progress`:
    /// completes the job if the instance had in fact finished it by kill
    /// time; otherwise rolls it back to its checkpoint and requeues it,
    /// or, for a gang member, marks its gang for the abort pass.
    fn settle_kill(
        &mut self,
        jid: JobId,
        progress: f64,
        now_s: f64,
        dirty_gangs: &mut BTreeSet<u32>,
    ) {
        if self.state.job(jid).total_progress(progress) >= 1.0 {
            self.complete(jid, now_s);
            return;
        }
        let job = self.state.job_mut(jid);
        job.on_kill(progress, self.cfg.checkpoint_fraction);
        match job.gang {
            Some(gid) => {
                dirty_gangs.insert(gid);
            }
            None => self.state.queue.requeue_at(jid, now_s),
        }
    }

    /// Brings machine `g` back: removes it from the down set and
    /// restores its LC frequency to the ceiling (clearing straggler
    /// state), making it eligible for offers at this same barrier.
    fn recover_machine(&mut self, g: usize, engines: &mut [Engine], now_s: f64) {
        self.chaos.down.remove(&(g as u64));
        let r = machine_ref(g, self.pods);
        let max = engines[r.replica].lc_max_mhz(r.pod);
        engines[r.replica].set_lc_frequency(r.pod, max);
        self.stale[r.replica] = true;
        self.note(now_s, ClusterEventKind::MachineUp, g as u64, None);
    }

    /// Epoch step 1: withdraw unconsumed solitary offers, then place
    /// queued jobs on machines signalling AllowBEGrowth (one offer per
    /// machine per epoch; a gang claims one machine per live member,
    /// all-or-nothing).
    fn dispatch(&mut self, engines: &mut [Engine], now_s: f64) {
        self.state.queue.age(now_s);
        // Withdraw offers the controllers did not consume last epoch, in
        // reverse global order so the requeue-to-front restores the
        // original relative order. Offers of forming gangs stay out —
        // their patience counter bounds the wait instead.
        for g in (0..self.state.offered.len()).rev() {
            if self.state.offered[g].is_some_and(|jid| self.state.job(jid).gang.is_none()) {
                if let Some(jid) = self.withdraw_offer(g, engines) {
                    self.state.queue.requeue_at(jid, now_s);
                }
            }
        }
        self.refresh_stale_rows(engines);
        if cfg!(debug_assertions) {
            self.check_rows(engines);
        }
        // Eligibility, once per pass. Offers and rows do not change
        // inside a pass, so this — and every score derived from it —
        // stays valid until the pass ends.
        self.eligible.clear();
        for ranking in &mut self.ranked {
            ranking.clear();
        }
        for g in 0..self.cfg.machines {
            if self.state.offered[g].is_none()
                && (self.chaos.down.is_empty() || !self.chaos.down.contains(&(g as u64)))
                && self.rows[g].grows
            {
                self.eligible.push(g);
            }
        }
        let rr_policy = self.placer.policy() == PlacementPolicy::RoundRobin;
        self.rr.clear();
        if rr_policy {
            self.rr.extend(self.eligible.iter().copied());
        }
        for &g in &self.touched {
            self.taken[g] = false;
        }
        self.touched.clear();
        // (machine, member) assignments of this pass; the live members
        // of the job being placed, the machines chosen for them and the
        // capacities of already-chosen gang siblings (reused per pop).
        let mut assignments: Vec<(usize, JobId)> = Vec::new();
        let mut members: Vec<JobId> = Vec::new();
        let mut chosen: Vec<usize> = Vec::new();
        let mut peer_caps: Vec<f64> = Vec::new();
        // Pop queued work in queue order while eligible machines remain.
        while let Some(jid) = self.state.queue.pop() {
            members.clear();
            match self.state.job(jid).gang {
                Some(gid) => members.extend(self.live_members(gid)),
                None => members.push(jid),
            }
            chosen.clear();
            peer_caps.clear();
            for _ in 0..members.len() {
                let pick = if rr_policy {
                    let p = Placer::rotate(&self.rr, &mut self.state.rr_cursor);
                    if let Some(g) = p {
                        self.rr.remove(&g);
                    }
                    p
                } else {
                    self.pick_scored(jid, &peer_caps)
                };
                match pick {
                    Some(g) => {
                        self.taken[g] = true;
                        self.touched.push(g);
                        peer_caps.push(self.rows[g].capacity);
                        chosen.push(g);
                    }
                    None => break,
                }
            }
            if chosen.len() < members.len() {
                // Not enough eligible machines this epoch (for a gang:
                // all-or-nothing); release any partial claim and put the
                // job back at the front of its class.
                for &g in &chosen {
                    self.taken[g] = false;
                }
                self.state.queue.requeue_at(jid, now_s);
                break;
            }
            for (&g, &m) in chosen.iter().zip(&members) {
                assignments.push((g, m));
            }
            if let Some(gid) = self.state.job(jid).gang {
                let tracker = self.state.gang_mut(gid);
                tracker.forming = true;
                tracker.patience_left = self.cfg.gang_patience_epochs.max(1);
            }
        }
        for &(g, jid) in &assignments {
            self.state.offered[g] = Some(jid);
            self.state.job_mut(jid).state = JobState::Offered(g);
            let spec = Arc::clone(&self.state.job(jid).spec);
            let priority = self.state.job(jid).priority;
            let r = machine_ref(g, self.pods);
            engines[r.replica].set_be_offer(r.pod, Some((spec, priority)));
        }
    }

    /// Re-derives the rows of every replica the barrier mutated since
    /// the parallel phase wrote them (every replica before the first
    /// epoch and after a resume).
    fn refresh_stale_rows(&mut self, engines: &[Engine]) {
        for (r, stale) in self.stale.iter_mut().enumerate() {
            if std::mem::take(stale) {
                let rows = &mut self.rows[r * self.pods..(r + 1) * self.pods];
                write_rows(&engines[r], rows, &self.catalog);
            }
        }
    }

    /// Debug builds: every row must equal a fresh derivation from its
    /// engine, so a barrier mutation that forgot to mark its replica
    /// stale fails at the next dispatch.
    fn check_rows(&self, engines: &[Engine]) {
        let mut fresh = vec![MachineRow::default(); self.pods];
        for (r, engine) in engines.iter().enumerate() {
            write_rows(engine, &mut fresh, &self.catalog);
            let rows = &self.rows[r * self.pods..(r + 1) * self.pods];
            for (pod, (row, want)) in rows.iter().zip(&fresh).enumerate() {
                assert_eq!(
                    row,
                    want,
                    "stale placement row for machine {}",
                    global_index(r, pod, self.pods)
                );
            }
        }
    }

    /// The best unclaimed eligible machine for job `jid` from the pass's
    /// ranking of its spec (built lazily from the rows, once per spec per
    /// pass). Ties keep the lowest global index.
    fn pick_scored(&mut self, jid: JobId, peer_caps: &[f64]) -> Option<usize> {
        let policy = self.placer.policy();
        // LeastPressure ignores the job entirely: one shared ranking.
        let slot = if policy == PlacementPolicy::LeastPressure {
            0
        } else {
            self.spec_slot[ledger_slot(jid)]
        };
        let ranking = &mut self.ranked[slot];
        if !ranking.is_built() {
            let (service, pods) = (self.service, self.pods);
            ranking.build(
                &self.placer,
                &self.state.job(jid).spec,
                &self.eligible,
                &self.rows,
                |g| &service.nodes[g % pods].component,
            );
        }
        if policy == PlacementPolicy::HeteroAware && !peer_caps.is_empty() {
            // Gang context shifts every machine's score by its own
            // capacity-mismatch penalty.
            return ranking.best_with_peers(&self.taken, &self.rows, peer_caps);
        }
        ranking.head(&self.taken)
    }

    /// Epoch step 3: the deterministic merge at the barrier. Every
    /// engine's BE progress was already synced to the boundary by the
    /// thread that ran it (engine-local work), so reading or mutating BE
    /// state — including the cross-replica gang rollback — cannot
    /// mis-attribute any fraction of the tick.
    fn merge(&mut self, engines: &mut [Engine], now: SimTime) {
        let now_s = now.as_secs_f64();
        let mut dirty_gangs: BTreeSet<u32> = BTreeSet::new();
        // One replica's admissions, kills and bindings, reused across
        // replicas.
        let mut admitted: Vec<BeAdmission> = Vec::new();
        let mut killed: Vec<BeKill> = Vec::new();
        let mut bound: Vec<((u64, BeInstanceId), JobId)> = Vec::new();
        for (r, engine) in engines.iter_mut().enumerate() {
            engine.drain_be_admissions(&mut admitted);
            engine.drain_be_kills(&mut killed);
            let keys =
                binding_keys(global_index(r, 0, self.pods)..global_index(r + 1, 0, self.pods));
            // A replica with nothing logged and nothing bound has nothing
            // to merge.
            if admitted.is_empty()
                && killed.is_empty()
                && self.state.bindings.range(keys.clone()).next().is_none()
            {
                continue;
            }
            // Admissions: bind each new instance to the job offered to
            // its machine.
            for adm in admitted.drain(..) {
                let g = global_index(r, adm.machine, self.pods);
                if let Some(jid) = self.state.offered[g].take() {
                    self.state.bindings.insert((g as u64, adm.instance), jid);
                    self.state.job_mut(jid).state = JobState::Running(g);
                    engine.set_be_offer(adm.machine, None);
                }
            }
            // Kills: roll back to the checkpoint and requeue — unless the
            // instance had in fact already finished the job by kill time.
            // A killed gang member marks its gang for the abort pass.
            for kill in killed.drain(..) {
                let g = global_index(r, kill.machine, self.pods);
                if let Some(jid) = self.state.bindings.remove(&(g as u64, kill.instance)) {
                    self.settle_kill(jid, kill.progress, now_s, &mut dirty_gangs);
                }
            }
            // Completions: retire bound instances whose job reached 1.0.
            bound.clear();
            bound.extend(self.state.bindings.range(keys).map(|(&k, &j)| (k, j)));
            for &((g, inst), jid) in &bound {
                let pod = machine_ref(machine_index(g), self.pods).pod;
                let done = engine.be_progress(pod, inst).unwrap_or(0.0);
                if self.state.job(jid).total_progress(done) >= 1.0 {
                    engine.remove_be(pod, inst);
                    self.stale[r] = true;
                    self.complete(jid, now_s);
                    self.state.bindings.remove(&(g, inst));
                }
            }
        }
        self.gang_pass(engines, &dirty_gangs, now_s);
    }

    /// The gang lifecycle pass, in gang-id order: aborts gangs with a
    /// killed member, marks gangs whose live members all run as formed,
    /// and counts down (then aborts) the patience of still-forming ones.
    fn gang_pass(&mut self, engines: &mut [Engine], dirty: &BTreeSet<u32>, now_s: f64) {
        let gids: Vec<u32> = self.state.gangs.keys().copied().collect();
        for &gid in &gids {
            if dirty.contains(&gid) {
                self.abort_gang(gid, engines, now_s);
                continue;
            }
            if !self.state.gangs[&gid].forming {
                continue;
            }
            let live: Vec<JobId> = self.live_members(gid).collect();
            if live
                .iter()
                .all(|&m| matches!(self.state.job(m).state, JobState::Running(_)))
            {
                self.state.gang_mut(gid).forming = false;
                let leader = live.first().copied().unwrap_or_default();
                self.note(now_s, ClusterEventKind::GangFormed, leader, Some(gid));
            } else {
                let tracker = self.state.gang_mut(gid);
                tracker.patience_left = tracker.patience_left.saturating_sub(1);
                if tracker.patience_left == 0 {
                    self.abort_gang(gid, engines, now_s);
                }
            }
        }
    }

    /// Atomically rolls gang `gid` back: withdraws its outstanding
    /// offers, kills its running members (progress rolls back to the
    /// last checkpoint; the loss counts as wasted work) and requeues the
    /// gang through its first live member.
    fn abort_gang(&mut self, gid: u32, engines: &mut [Engine], now_s: f64) {
        let live: Vec<JobId> = self.live_members(gid).collect();
        for &m in &live {
            match self.state.job(m).state {
                JobState::Offered(g) => {
                    let withdrawn = self.withdraw_offer(g, engines);
                    debug_assert_eq!(withdrawn, Some(m), "offer slot and job state agree");
                }
                JobState::Running(g) => {
                    let inst = self
                        .state
                        .bindings
                        .range(binding_keys(g..g + 1))
                        .find(|&(_, &jid)| jid == m)
                        .map(|(&(_, inst), _)| inst);
                    if let Some(inst) = inst {
                        let r = machine_ref(g, self.pods);
                        // Progress was synced for all engines before the
                        // merge, so the rollback banks exactly what ran.
                        let progress = engines[r.replica].be_progress(r.pod, inst).unwrap_or(0.0);
                        engines[r.replica].remove_be(r.pod, inst);
                        self.stale[r.replica] = true;
                        self.state.bindings.remove(&(g as u64, inst));
                        self.state
                            .job_mut(m)
                            .on_kill(progress, self.cfg.checkpoint_fraction);
                    }
                }
                JobState::Queued | JobState::Done => {}
            }
        }
        let tracker = self.state.gang_mut(gid);
        tracker.forming = false;
        tracker.patience_left = self.cfg.gang_patience_epochs.max(1);
        if let Some(&leader) = live.first() {
            // The original leader may have finished; make sure the new
            // representative carries the gang's class and deadline into
            // the queue.
            let job = self.state.job(leader);
            let (priority, deadline_s, submitted_s) =
                (job.priority, job.deadline_s, job.submitted_s);
            let queue = &mut self.state.queue;
            queue.adopt(leader, priority, deadline_s, submitted_s);
            queue.requeue_at(leader, now_s);
            self.note(now_s, ClusterEventKind::GangAborted, leader, Some(gid));
        }
    }

    /// Runs epoch `epoch_idx` (0-based) from the barrier at `t` to the
    /// one at `next`: the faults due, dispatch, every engine advanced
    /// on up to `threads` threads, and the merge. Debug builds then
    /// check the scheduler's invariants.
    fn run_epoch(
        &mut self,
        engines: &mut [Engine],
        t: SimTime,
        next: SimTime,
        threads: usize,
        epoch_idx: u32,
    ) {
        // Faults first: a machine crashing at this barrier must not
        // receive an offer in the same pass.
        if !self.plan.is_empty() {
            self.apply_faults(engines, t.as_secs_f64());
        }
        if self.managed {
            self.dispatch(engines, t.as_secs_f64());
        }
        advance_all(engines, &mut self.rows, &self.catalog, threads, next);
        self.merge(engines, next);
        if cfg!(debug_assertions) {
            #[expect(
                clippy::panic,
                reason = "a broken barrier invariant is a scheduler bug; debug builds stop at the \
                          first barrier that shows it"
            )]
            if let Err(why) = self.check_invariants() {
                panic!(
                    "scheduler invariant broken after epoch {}: {why}",
                    epoch_idx + 1
                );
            }
        }
    }

    /// Checks the cross-layer invariants that must hold at every epoch
    /// barrier, naming the first violation:
    ///
    /// * `offered[g] == Some(j)` exactly when job `j` is `Offered(g)`;
    /// * a binding `(g, _) → j` exists exactly when job `j` is
    ///   `Running(g)`, and no job holds two bindings;
    /// * queued ids are unique and every one of them is `Queued`;
    /// * the queue holds at most one member of each gang;
    /// * every gang roster lists its members ascending, each carrying
    ///   that gang id, and every job with a gang id is listed in that
    ///   gang's roster;
    /// * in managed runs, every `Queued` solitary job is in the queue
    ///   (gang members wait through their representative);
    /// * every job's ledger passes [`ClusterJob::check_ledger`] at the
    ///   configured checkpoint fraction;
    /// * no down machine holds an offer or a binding.
    fn check_invariants(&self) -> Result<(), String> {
        let state = |j: JobId| self.state.jobs.get(ledger_slot(j)).map(|job| job.state);
        for (g, slot) in self.state.offered.iter().enumerate() {
            if let Some(j) = *slot {
                if state(j) != Some(JobState::Offered(g)) {
                    return Err(format!(
                        "machine {g} offers job {j}, whose state is {:?}",
                        state(j)
                    ));
                }
            }
        }
        let mut bound: BTreeMap<JobId, usize> = BTreeMap::new();
        for (&(g, inst), &j) in &self.state.bindings {
            let g = machine_index(g);
            if state(j) != Some(JobState::Running(g)) {
                return Err(format!(
                    "instance {inst} on machine {g} is bound to job {j}, whose state is {:?}",
                    state(j)
                ));
            }
            if bound.insert(j, g).is_some() {
                return Err(format!("job {j} holds more than one binding"));
            }
        }
        let queued = self.state.queue.queued_ids();
        let in_queue: BTreeSet<JobId> = queued.iter().copied().collect();
        if in_queue.len() != queued.len() {
            return Err("the queue holds a job twice".into());
        }
        if let Some(&j) = queued.iter().find(|&&j| state(j) != Some(JobState::Queued)) {
            return Err(format!("queued job {j} is in state {:?}", state(j)));
        }
        // One queue entry per gang: dispatch expands the entry into every
        // live member, so a second entry would place the gang twice.
        let mut queued_gangs = BTreeSet::new();
        for &j in &queued {
            let gang = self.state.jobs.get(ledger_slot(j)).and_then(|job| job.gang);
            if let Some(g) = gang.filter(|&g| !queued_gangs.insert(g)) {
                return Err(format!("the queue holds two members of gang {g}"));
            }
        }
        for (&gid, gang) in &self.state.gangs {
            if gang.members.windows(2).any(|p| p[0] >= p[1]) {
                return Err(format!("gang {gid} lists its members out of order"));
            }
            let gang_of = |m: JobId| self.state.jobs.get(ledger_slot(m)).and_then(|job| job.gang);
            if let Some(&m) = gang.members.iter().find(|&&m| gang_of(m) != Some(gid)) {
                return Err(format!(
                    "gang {gid} lists job {m}, whose gang is {:?}",
                    gang_of(m)
                ));
            }
        }
        for job in &self.state.jobs {
            job.check_ledger(self.cfg.checkpoint_fraction)?;
            if let Some(gid) = job.gang {
                let listed = self.state.gangs.get(&gid);
                if listed.is_none_or(|g| g.members.binary_search(&job.id).is_err()) {
                    return Err(format!(
                        "job {} is in gang {gid}, whose roster does not list it",
                        job.id
                    ));
                }
            }
            match job.state {
                JobState::Offered(g) if self.state.offered.get(g) != Some(&Some(job.id)) => {
                    return Err(format!(
                        "job {} is offered to machine {g}, which offers something else",
                        job.id
                    ));
                }
                JobState::Running(g) if bound.get(&job.id) != Some(&g) => {
                    return Err(format!(
                        "job {} runs on machine {g} without a binding there",
                        job.id
                    ));
                }
                JobState::Queued
                    if self.managed && job.gang.is_none() && !in_queue.contains(&job.id) =>
                {
                    return Err(format!(
                        "solitary job {} is queued but not in the queue",
                        job.id
                    ));
                }
                _ => {}
            }
        }
        for &down in &self.chaos.down {
            let g = machine_index(down);
            if self.state.offered.get(g).is_some_and(Option::is_some) {
                return Err(format!("down machine {g} holds an offer"));
            }
            if self
                .state
                .bindings
                .range(binding_keys(g..g + 1))
                .next()
                .is_some()
            {
                return Err(format!("down machine {g} holds a binding"));
            }
        }
        Ok(())
    }

    /// Replaces the fresh state with a captured one, and the fault state
    /// with the one captured next to it. The plan-derived structure (job
    /// ledger shape, gang ids, machine count) must match what
    /// `Scheduler::new` built from the config, and the captured state
    /// must satisfy [`Scheduler::check_invariants`], whose roster rule
    /// then pins each gang's members to the plan's; anything else is
    /// refused. A captured spec equal to the plan's shares its
    /// allocation.
    fn restore_state(
        &mut self,
        mut st: SchedulerState,
        chaos: Option<ChaosState>,
    ) -> Result<(), SnapshotError> {
        let fresh = &self.state;
        if st.jobs.len() != fresh.jobs.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot ledgers {} jobs, the config's plan produces {}",
                st.jobs.len(),
                fresh.jobs.len()
            )));
        }
        for (snap, plan) in st.jobs.iter_mut().zip(&fresh.jobs) {
            if snap.spec.name != plan.spec.name || snap.gang != plan.gang {
                return Err(SnapshotError::Corrupt(format!(
                    "job {} is {:?} (gang {:?}) in the snapshot but {:?} (gang {:?}) in the plan",
                    plan.id, snap.spec.name, snap.gang, plan.spec.name, plan.gang
                )));
            }
            if snap.spec == plan.spec {
                snap.spec = Arc::clone(&plan.spec);
            }
        }
        if !st.gangs.keys().eq(fresh.gangs.keys()) {
            return Err(SnapshotError::Corrupt(
                "snapshot gang ids differ from the config's job plan".into(),
            ));
        }
        if st.offered.len() != fresh.offered.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot offers cover {} machines, the cluster has {}",
                st.offered.len(),
                fresh.offered.len()
            )));
        }
        if let Some(&(g, _)) = st
            .bindings
            .keys()
            .find(|&&(g, _)| g >= self.cfg.machines as u64)
        {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot binds machine {g}, the cluster has {}",
                self.cfg.machines
            )));
        }
        self.state = st;
        if let Some(chaos) = chaos {
            self.chaos = chaos;
        }
        self.check_invariants().map_err(|why| {
            SnapshotError::Corrupt(format!("scheduler state is inconsistent: {why}"))
        })
    }

    /// Captures a full cluster snapshot at the epoch barrier: `epoch`
    /// epochs are complete, every engine is quiescent at virtual time
    /// `now` (the merge has run), and the next dispatch pass has not
    /// started.
    fn capture(
        &self,
        engines: &[Engine],
        epoch: u32,
        now: SimTime,
        cluster_tail: &[TailPoint],
    ) -> ClusterSnapshot {
        ClusterSnapshot {
            epoch,
            t_ns: now.as_nanos(),
            machines: self.cfg.machines as u64,
            pods: self.pods as u64,
            replicas: engines.len() as u64,
            seed: self.cfg.seed,
            duration_s: self.cfg.duration_s,
            controller_period_ms: self.cfg.controller_period_ms,
            managed: self.managed,
            scheduler: self.state.clone(),
            engines: engines
                .iter()
                .map(|e| {
                    let mut w = Writer::new();
                    e.snapshot_encode(&mut w);
                    w.into_bytes()
                })
                .collect(),
            summaries: engines.iter().map(|e| e.snapshot_summary()).collect(),
            cluster_tail: cluster_tail.to_vec(),
            chaos: (!self.plan.is_empty()).then(|| crate::snapshot::ChaosSection {
                plan_fp: self.plan.fingerprint(),
                state: self.chaos.clone(),
            }),
        }
    }
}

/// One [`ClusterRunner`] run: the experiment outcome plus every
/// snapshot captured at the epoch barriers requested via
/// [`ClusterRunner::snapshot_at`].
pub struct ClusterRun {
    /// The experiment result, identical to what [`run_cluster`] returns.
    pub outcome: ClusterOutcome,
    /// Captured `(epoch, snapshot)` pairs in ascending epoch order.
    pub snapshots: Vec<(u32, ClusterSnapshot)>,
}

/// Where the epoch loop starts: the scheduler and the engines at the
/// barrier where `epoch` epochs are complete (virtual time `t`), and
/// the cluster tail series collected up to it.
struct Start<'a> {
    sched: Scheduler<'a>,
    engines: Vec<Engine>,
    epoch: u32,
    t: SimTime,
    cluster_tail: Vec<TailPoint>,
}

/// A configurable cluster run: [`run_cluster`] plus snapshot capture at
/// chosen epoch barriers and resume from a captured snapshot.
///
/// Captures happen at the single-threaded epoch barrier — after the
/// merge, before the next dispatch — where every engine is quiescent, so
/// the snapshot is exact, not racy. Resuming a snapshot continues the
/// run **bit-identically** to one that never stopped, for any
/// worker-thread count.
pub struct ClusterRunner<'a> {
    ctx: &'a ServiceContext,
    choice: &'a ControllerChoice,
    cfg: &'a ClusterConfig,
    capture_at: BTreeSet<u32>,
    /// The restored start point; `None` starts fresh at t = 0.
    resumed: Option<Start<'a>>,
}

impl<'a> ClusterRunner<'a> {
    /// Prepares a fresh run of `cfg.machines` machines under `choice`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.machines` is not a positive multiple of the
    /// service's Servpod count, or if `cfg.machine_specs` is non-empty
    /// but does not hold exactly one spec per machine.
    pub fn new(
        ctx: &'a ServiceContext,
        choice: &'a ControllerChoice,
        cfg: &'a ClusterConfig,
    ) -> ClusterRunner<'a> {
        let pods = ctx.service.len();
        assert!(
            cfg.machines >= pods && cfg.machines.is_multiple_of(pods),
            "cluster size {} must be a positive multiple of the service's {pods} Servpods",
            cfg.machines
        );
        assert!(
            cfg.machine_specs.is_empty() || cfg.machine_specs.len() == cfg.machines,
            "machine_specs holds {} specs for {} machines",
            cfg.machine_specs.len(),
            cfg.machines
        );
        #[expect(
            clippy::panic,
            reason = "constructor contract: an invalid fault plan is a configuration bug, not a \
                      runtime condition"
        )]
        if let Err(why) = cfg.faults.validate(cfg.machines) {
            panic!("invalid fault plan: {why}");
        }
        ClusterRunner {
            ctx,
            choice,
            cfg,
            capture_at: BTreeSet::new(),
            resumed: None,
        }
    }

    /// Requests a snapshot at the barrier where `epoch` epochs have
    /// completed (virtual time `epoch × controller period`). Epoch 0 is
    /// the initial state and is not a barrier; requests past the end of
    /// the run never fire. May be called repeatedly for multiple capture
    /// points.
    pub fn snapshot_at(mut self, epoch: u32) -> ClusterRunner<'a> {
        if epoch > 0 {
            self.capture_at.insert(epoch);
        }
        self
    }

    /// Prepares a run that continues `snapshot` to the end of the
    /// horizon. `ctx`, `choice` and `cfg` must describe the same
    /// experiment that produced the snapshot — everything that shapes
    /// state (machines, seed, horizon, epoch length, job plan, fault
    /// plan, telemetry) is checked, and a mismatch is refused with
    /// [`SnapshotError::Incompatible`]. `cfg.threads` is free to differ:
    /// determinism does not depend on the worker count.
    ///
    /// All decoding and validation happens here: the engines and the
    /// scheduler restored here are the ones [`run`](ClusterRunner::run)
    /// continues, so it cannot fail.
    pub fn resume(
        snapshot: &ClusterSnapshot,
        ctx: &'a ServiceContext,
        choice: &'a ControllerChoice,
        cfg: &'a ClusterConfig,
    ) -> Result<ClusterRunner<'a>, SnapshotError> {
        let mut runner = ClusterRunner::new(ctx, choice, cfg);
        let mut sched = Scheduler::new(cfg, &ctx.service, runner.managed());
        let pods = ctx.service.len();
        let replicas = cfg.machines / pods;
        let expect = [
            ("machines", cfg.machines as u64, snapshot.machines),
            ("pods", pods as u64, snapshot.pods),
            ("replicas", replicas as u64, snapshot.replicas),
            ("seed", cfg.seed, snapshot.seed),
            ("duration_s", cfg.duration_s, snapshot.duration_s),
            (
                "controller_period_ms",
                cfg.controller_period_ms,
                snapshot.controller_period_ms,
            ),
            (
                "managed",
                u64::from(sched.managed),
                u64::from(snapshot.managed),
            ),
        ];
        for (name, want, got) in expect {
            if want != got {
                return Err(SnapshotError::Incompatible {
                    expected: format!("{name}={want}"),
                    found: format!("{name}={got}"),
                });
            }
        }
        // The fault plan shapes every decision after its first event, so
        // a resumed run must carry exactly the plan the snapshot ran
        // under — present/absent and fingerprint both checked.
        let plan_fp = (!sched.plan.is_empty()).then(|| sched.plan.fingerprint());
        let snap_fp = snapshot.chaos.as_ref().map(|c| c.plan_fp);
        if plan_fp != snap_fp {
            let word = |fp: Option<u64>| match fp {
                Some(fp) => format!("fault plan {fp:#018x}"),
                None => "no fault plan".to_string(),
            };
            return Err(SnapshotError::Incompatible {
                expected: word(plan_fp),
                found: word(snap_fp),
            });
        }
        if u64::from(snapshot.epoch) > cfg.barriers() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot taken at epoch {} but the run has {} barriers",
                snapshot.epoch,
                cfg.barriers()
            )));
        }
        // A capture is taken at a barrier, and barrier k sits at
        // min(k × epoch, duration): any other time is not one the run
        // could have stopped at.
        let barrier_ms = (u64::from(snapshot.epoch) * cfg.epoch_ms()).min(cfg.duration_s * 1000);
        if snapshot.t_ns != barrier_ms * 1_000_000 {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot taken at epoch {} holds time {} ns, not its barrier's {} ns",
                snapshot.epoch,
                snapshot.t_ns,
                barrier_ms * 1_000_000
            )));
        }
        if snapshot.engines.len() != replicas {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {} engine streams for {replicas} replicas",
                snapshot.engines.len()
            )));
        }
        let engines = runner
            .engine_configs()
            .zip(&snapshot.engines)
            .enumerate()
            .map(|(r, (ec, bytes))| {
                let mut rd = Reader::new(bytes);
                let e = Engine::snapshot_restore(Arc::clone(&ctx.service), ec, &mut rd)?;
                if !rd.is_empty() {
                    return Err(SnapshotError::Corrupt(format!(
                        "replica {r} engine stream has {} trailing bytes",
                        rd.remaining()
                    )));
                }
                Ok(e)
            })
            .collect::<Result<_, _>>()?;
        let chaos = snapshot.chaos.as_ref().map(|c| c.state.clone());
        sched.restore_state(snapshot.scheduler.clone(), chaos)?;
        runner.resumed = Some(Start {
            sched,
            engines,
            epoch: snapshot.epoch,
            t: SimTime::from_nanos(snapshot.t_ns),
            cluster_tail: snapshot.cluster_tail.clone(),
        });
        Ok(runner)
    }

    /// Whether a controller drives BE work (false for Solo runs).
    fn managed(&self) -> bool {
        !matches!(self.choice, ControllerChoice::Solo)
    }

    /// One engine config per replica, derived from `cfg` the same way
    /// for a fresh engine and a restored one, so a restored engine
    /// validates against the same deployment.
    fn engine_configs(&self) -> impl Iterator<Item = EngineConfig> + '_ {
        let cfg = self.cfg;
        let pods = self.ctx.service.len();
        let expt = ExperimentConfig {
            bes: cfg.be_mix.clone(),
            load: cfg.load.clone(),
            duration_s: cfg.duration_s,
            seed: cfg.seed,
            record_timeline: false,
            controller_period_ms: cfg.controller_period_ms,
        };
        (0..cfg.machines / pods).map(move |r| {
            let mut ec = self.ctx.engine_config(self.choice, &expt);
            ec.seed = replica_seed(cfg.seed, r);
            ec.external_be = self.managed();
            ec.telemetry = cfg.telemetry;
            ec.priority_preemption = cfg.priority_preemption;
            if !cfg.machine_specs.is_empty() {
                // This replica's slice of the per-machine hardware.
                ec.machine_specs = cfg.machine_specs[r * pods..(r + 1) * pods].to_vec();
            }
            ec
        })
    }

    /// The start point of a fresh run: a new scheduler and new engines
    /// at t = 0.
    fn fresh(&self) -> Start<'a> {
        let (ctx, cfg) = (self.ctx, self.cfg);
        Start {
            sched: Scheduler::new(cfg, &ctx.service, self.managed()),
            engines: self
                .engine_configs()
                .map(|ec| Engine::new(Arc::clone(&ctx.service), ec))
                .collect(),
            epoch: 0,
            t: SimTime::ZERO,
            cluster_tail: Vec::new(),
        }
    }

    /// Runs the experiment (fresh or resumed) to the end of the horizon.
    pub fn run(mut self) -> ClusterRun {
        let ctx = self.ctx;
        let cfg = self.cfg;
        let Start {
            mut sched,
            mut engines,
            epoch: mut epoch_idx,
            mut t,
            mut cluster_tail,
        } = self.resumed.take().unwrap_or_else(|| self.fresh());

        let epoch = SimDuration::from_millis(cfg.epoch_ms());
        let end = SimTime::ZERO + SimDuration::from_secs(cfg.duration_s);
        let threads = cfg.threads.max(1);
        let mut snapshots: Vec<(u32, ClusterSnapshot)> = Vec::new();
        while t < end {
            let next = (t + epoch).min(end);
            sched.run_epoch(&mut engines, t, next, threads, epoch_idx);
            // Telemetry at the barrier, always single-threaded and in
            // fixed replica order: mark the epoch in every recorder,
            // then merge the per-engine tail windows the controller tick
            // just closed into one cluster-wide point. Independent of
            // worker scheduling, so exports are bit-identical for any
            // `threads`.
            if cfg.telemetry.enabled {
                for e in engines.iter_mut() {
                    e.note_epoch(epoch_idx, next);
                }
                // The engines' control tick does not fire at the very end
                // of the run (`next == end`): no new window closed there.
                if next < end {
                    let mut merged = LatencyHistogram::new();
                    for e in &engines {
                        merged.merge(e.telemetry().tail.last_window());
                    }
                    cluster_tail.push(TailPoint::from_window(
                        &merged,
                        next.as_secs_f64(),
                        ctx.sla_ms,
                    ));
                }
            }
            // Snapshot at the barrier: `epoch_idx + 1` epochs are now
            // complete and the merge and telemetry splice have run — the
            // exact state a resumed run re-enters the loop with.
            if self.capture_at.contains(&(epoch_idx + 1)) {
                snapshots.push((
                    epoch_idx + 1,
                    sched.capture(&engines, epoch_idx + 1, next, &cluster_tail),
                ));
            }
            epoch_idx += 1;
            t = next;
        }
        // Drain in-flight requests past the end of the run.
        advance_all(&mut engines, &mut [], &sched.catalog, threads, SimTime::MAX);

        let mut outputs: Vec<_> = engines.into_iter().map(Engine::finish_run).collect();
        let per_replica: Vec<RunMetrics> = outputs.iter().map(RunMetrics::from_output).collect();
        let fingerprints = machine_fingerprints(&outputs);
        let metrics = ClusterMetrics::merge(
            cfg.machines,
            &outputs,
            &per_replica,
            &sched.state.jobs,
            sched.state.queue.requeue_count(),
            cfg.duration_s as f64,
        );
        let telemetry = cfg.telemetry.enabled.then(|| ClusterTelemetry {
            replicas: outputs
                .iter_mut()
                .map(|o| o.telemetry.take().unwrap_or_default())
                .collect(),
            cluster_tail,
            cluster_events: std::mem::take(&mut sched.state.events),
        });
        let outcome = ClusterOutcome {
            metrics,
            per_replica,
            jobs: sched.state.jobs,
            fingerprints,
            telemetry,
        };
        ClusterRun { outcome, snapshots }
    }
}

/// Advances every engine to `target`, splitting the engines into at most
/// `threads` contiguous chunks, one scoped thread each (the calling
/// thread takes the first). Engines share no state, so the partition
/// cannot affect results. At an epoch boundary each engine also syncs its
/// BE progress, settles its busy integrals to `target` and writes its
/// machines' placement rows — engine-local work, so it runs here rather
/// than in the single-threaded merge. `rows` (one per machine, or empty
/// when nothing places BE work) is split in step with the engines.
fn advance_all(
    engines: &mut [Engine],
    rows: &mut [MachineRow],
    catalog: &BTreeMap<String, BeSpec>,
    threads: usize,
    target: SimTime,
) {
    let pods = engines.first().map_or(1, Engine::machine_count);
    let advance = move |engines: &mut [Engine], rows: &mut [MachineRow]| {
        for (i, engine) in engines.iter_mut().enumerate() {
            engine.run_until(target);
            if target != SimTime::MAX {
                // The final drain has no merge after it: nothing reads BE
                // progress past `end`, so only epoch boundaries sync.
                engine.sync_be_progress(target);
                if let Some(rows) = rows.get_mut(i * pods..(i + 1) * pods) {
                    write_rows(engine, rows, catalog);
                }
            }
        }
    };
    let chunk = engines.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let mut row_parts = rows.chunks_mut(chunk * pods);
        let mut parts = engines
            .chunks_mut(chunk)
            .map(|part| (part, row_parts.next().unwrap_or_default()));
        let own = parts.next();
        for (part, rows) in parts {
            s.spawn(move || advance(part, rows));
        }
        if let Some((part, rows)) = own {
            advance(part, rows);
        }
    });
}

/// A global machine index the scheduler holds as a `u64`: a fault
/// target (`FaultPlan::validate` checks it below `cfg.machines`), a
/// down-set entry or a binding key (made from `usize` indices; snapshot
/// decode and resume check them below the machine count).
#[expect(
    clippy::cast_possible_truncation,
    reason = "every such id is below the machine count, a `usize`"
)]
fn machine_index(g: u64) -> usize {
    g as usize
}

/// The binding keys of the global machines in `machines`.
fn binding_keys(machines: Range<usize>) -> Range<(u64, BeInstanceId)> {
    (machines.start as u64, BeInstanceId::MIN)..(machines.end as u64, BeInstanceId::MIN)
}

/// Writes the placement rows of `engine`'s machines (`rows[pod]`), with
/// BE workloads looked up in the scheduler's `catalog`.
fn write_rows(engine: &Engine, rows: &mut [MachineRow], catalog: &BTreeMap<String, BeSpec>) {
    for (pod, row) in rows.iter_mut().enumerate() {
        *row = MachineRow::derive(
            engine.machine(pod),
            &engine.service().nodes[pod].component,
            engine.last_action(pod),
            catalog,
        );
    }
}

/// Runs one cluster experiment: `cfg.machines` machines under `choice`,
/// with the shared BE backlog dispatched by `cfg.policy`. Equivalent to
/// [`ClusterRunner::new`]`(..).run()` with no snapshots requested.
///
/// # Panics
///
/// Panics if `cfg.machines` is not a positive multiple of the service's
/// Servpod count, or if `cfg.machine_specs` is non-empty but does not
/// hold exactly one spec per machine.
pub fn run_cluster(
    ctx: &ServiceContext,
    choice: &ControllerChoice,
    cfg: &ClusterConfig,
) -> ClusterOutcome {
    ClusterRunner::new(ctx, choice, cfg).run().outcome
}

/// Runs Rhythm and Heracles on the same cluster (same seeds, same
/// backlog) and returns both outcomes.
pub fn compare_cluster(
    ctx: &ServiceContext,
    cfg: &ClusterConfig,
) -> (ClusterOutcome, ClusterOutcome) {
    (
        run_cluster(ctx, &ControllerChoice::Rhythm, cfg),
        run_cluster(ctx, &ControllerChoice::Heracles, cfg),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::placement::PlacementPolicy;
    use rhythm_machine::MachineSpec;
    use rhythm_workloads::{apps, BeKind};

    fn ctx() -> ServiceContext {
        ServiceContext::prepare(apps::solr(), &[BeSpec::of(BeKind::Wordcount)], 11)
    }

    fn small_cfg() -> ClusterConfig {
        // Tiny jobs: with ~0.2-0.3 solo rate per instance, a 12-24 s
        // (solo) job finishes well inside the 90 s window.
        let mut c = ClusterConfig::new(2).with_scaled_jobs(0.02);
        c.duration_s = 90;
        c.jobs_per_machine = 3;
        c.load = rhythm_workloads::LoadGen::constant(0.5);
        c.policy = PlacementPolicy::RoundRobin;
        c.threads = 1;
        c
    }

    #[test]
    fn cluster_completes_jobs_and_requests() {
        let ctx = ctx();
        let out = run_cluster(&ctx, &ControllerChoice::Rhythm, &small_cfg());
        assert_eq!(out.metrics.machines, 2);
        assert_eq!(out.metrics.replicas, 1);
        assert!(out.metrics.completed_requests > 0);
        assert_eq!(out.metrics.jobs.submitted, 6);
        assert!(
            out.metrics.jobs.completed > 0,
            "scaled jobs finish inside the window: {:?}",
            out.metrics.jobs
        );
        assert_eq!(out.fingerprints.len(), 2);
    }

    /// An N=64 cell's tail windows hold only their non-zero buckets and
    /// give back room when a busier second leaves the window. The 32
    /// engines' 320 slots end holding 1,894 non-zero buckets in 3,116
    /// entries; slots that kept their widest second's room would hold
    /// 3,960, and slots of dense bucket ranges far more.
    #[test]
    fn tail_windows_store_what_they_hold() {
        let ctx = ctx();
        let mut c = ClusterConfig::new(64).with_scaled_jobs(0.05);
        c.jobs_per_machine = 4;
        c.policy = PlacementPolicy::InterferenceScore;
        c.load = rhythm_workloads::LoadGen::constant(0.1);
        c.duration_s = 60;
        c.threads = 1;
        let runner = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c);
        let Start {
            mut sched,
            mut engines,
            ..
        } = runner.fresh();
        let epoch = SimDuration::from_millis(c.epoch_ms());
        let end = SimTime::ZERO + SimDuration::from_secs(c.duration_s);
        let (mut t, mut k) = (SimTime::ZERO, 0);
        while t < end {
            let next = (t + epoch).min(end);
            sched.run_epoch(&mut engines, t, next, 1, k);
            (t, k) = (next, k + 1);
        }
        let stored: usize = engines
            .iter()
            .map(|e| e.tail_window().bucket_capacity())
            .sum();
        assert!(stored <= 3_300, "{stored} tail-window entries stored");
    }

    #[test]
    fn solo_cluster_runs_no_jobs() {
        let ctx = ctx();
        let out = run_cluster(&ctx, &ControllerChoice::Solo, &small_cfg());
        assert_eq!(out.metrics.jobs.completed, 0);
        assert_eq!(out.metrics.be_throughput, 0.0);
        assert!(out.metrics.completed_requests > 0);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn odd_cluster_size_rejected() {
        let ctx = ctx();
        let mut c = small_cfg();
        c.machines = 3; // solr has 2 Servpods
        run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
    }

    #[test]
    #[should_panic(expected = "machine_specs")]
    fn wrong_spec_count_rejected() {
        let ctx = ctx();
        let mut c = small_cfg();
        c.machine_specs = vec![MachineSpec::paper_testbed()]; // 2 machines
        run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
    }

    #[test]
    fn hetero_gang_cluster_completes() {
        let ctx = ctx();
        let mut c = small_cfg();
        c.machine_specs = vec![MachineSpec::dense_compute(), MachineSpec::lean_node()];
        c.policy = PlacementPolicy::HeteroAware;
        c.priority_preemption = true;
        c.queue_aging_s = Some(30.0);
        let spec = c.be_mix[0].clone();
        c.job_plan = vec![
            JobSpec::solitary(spec.clone())
                .with_priority(1)
                .with_deadline(60.0),
            JobSpec::solitary(spec.clone()).with_gang(2),
            JobSpec::solitary(spec),
        ];
        let out = run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
        assert_eq!(out.metrics.jobs.submitted, 4, "gang counts both members");
        assert_eq!(out.metrics.jobs.deadline_total, 1);
        assert!(
            out.metrics.jobs.completed > 0,
            "hetero cluster still completes work: {:?}",
            out.metrics.jobs
        );
        // Gang members either both finished or neither did (atomicity).
        let members: Vec<&ClusterJob> = out.jobs.iter().filter(|j| j.gang.is_some()).collect();
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn gang_members_never_run_alone_for_long() {
        // With only 2 machines and patience 1, a gang of 2 either forms
        // or aborts within an epoch — its members must never end the run
        // split (one done, one never started) without the abort pass
        // having rolled the runner back.
        let ctx = ctx();
        let mut c = small_cfg();
        c.gang_patience_epochs = 1;
        let spec = c.be_mix[0].clone();
        c.job_plan = vec![JobSpec::solitary(spec).with_gang(2)];
        let out = run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
        assert_eq!(out.metrics.jobs.submitted, 2);
        for j in &out.jobs {
            assert_eq!(j.gang, Some(0));
        }
    }

    /// Every observable the outcome carries, compared bit-for-bit.
    fn assert_outcomes_identical(a: &ClusterOutcome, b: &ClusterOutcome, what: &str) {
        assert_eq!(a.fingerprints, b.fingerprints, "{what}: fingerprints");
        assert_eq!(a.metrics.jobs, b.metrics.jobs, "{what}: job stats");
        assert_eq!(a.metrics.requeues, b.metrics.requeues, "{what}: requeues");
        assert_eq!(
            a.metrics.completed_requests, b.metrics.completed_requests,
            "{what}: completed requests"
        );
        match (&a.telemetry, &b.telemetry) {
            (None, None) => {}
            (Some(ta), Some(tb)) => {
                assert_eq!(ta.export_jsonl(), tb.export_jsonl(), "{what}: jsonl export");
                assert_eq!(ta.chrome_trace(), tb.chrome_trace(), "{what}: chrome trace");
                assert_eq!(ta.why_report(), tb.why_report(), "{what}: why report");
            }
            _ => panic!("{what}: telemetry presence differs"),
        }
    }

    #[test]
    fn resume_is_bit_identical_to_straight_run() {
        // The tentpole invariant in miniature: run 8 machines straight
        // through with full telemetry, then snapshot the same experiment
        // at epoch 10 and resume it — on a different worker count — and
        // every observable (fingerprints, metrics, telemetry exports,
        // spliced tail series) must match bit-for-bit.
        let ctx = ctx();
        let mut c = small_cfg();
        c.machines = 8;
        c.duration_s = 60;
        c.telemetry = rhythm_telemetry::TelemetryConfig::full();
        let straight = run_cluster(&ctx, &ControllerChoice::Rhythm, &c);

        let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
            .snapshot_at(10)
            .run();
        assert_outcomes_identical(&straight, &run.outcome, "capturing run");
        assert_eq!(run.snapshots.len(), 1);
        let (epoch, snap) = &run.snapshots[0];
        assert_eq!(*epoch, 10);

        // Round-trip the container through bytes before resuming, so the
        // test covers the codec, not just the in-memory structures.
        let bytes = snap.to_bytes();
        let snap = ClusterSnapshot::from_bytes(&bytes).expect("snapshot bytes parse");
        assert_eq!(snap.to_bytes(), bytes, "re-encode is byte-identical");
        assert!(
            snap.diff(&snap).is_empty(),
            "self-diff reports no differences"
        );

        let mut c4 = c.clone();
        c4.threads = 4;
        let resumed = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &c4)
            .expect("snapshot matches its own config")
            .run();
        assert_outcomes_identical(&straight, &resumed.outcome, "resumed run");
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let ctx = ctx();
        let c = small_cfg();
        let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
            .snapshot_at(5)
            .run();
        let snap = &run.snapshots[0].1;

        let mut wrong_seed = c.clone();
        wrong_seed.seed ^= 1;
        assert!(matches!(
            ClusterRunner::resume(snap, &ctx, &ControllerChoice::Rhythm, &wrong_seed).err(),
            Some(SnapshotError::Incompatible { .. })
        ));

        let mut wrong_horizon = c.clone();
        wrong_horizon.duration_s += 30;
        assert!(matches!(
            ClusterRunner::resume(snap, &ctx, &ControllerChoice::Rhythm, &wrong_horizon).err(),
            Some(SnapshotError::Incompatible { .. })
        ));

        // Solo disables cluster management entirely — a managed snapshot
        // cannot continue under it.
        assert!(matches!(
            ClusterRunner::resume(snap, &ctx, &ControllerChoice::Solo, &c).err(),
            Some(SnapshotError::Incompatible { .. })
        ));
    }

    #[test]
    fn faults_emit_events_and_apply_in_order() {
        let ctx = ctx();
        let mut c = small_cfg();
        c.machines = 8;
        c.duration_s = 60;
        c.telemetry = rhythm_telemetry::TelemetryConfig::full();
        c.faults = FaultPlan::new()
            .crash(10.0, 2)
            .slow_node(10.0, 5, 0.6)
            .recover(30.0, 2)
            .correlated(40.0, vec![6, 7]);
        let out = run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
        let t = out.telemetry.as_ref().expect("telemetry enabled");
        let count =
            |kind: ClusterEventKind| t.cluster_events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(
            count(ClusterEventKind::FaultInjected),
            4,
            "every plan event fired"
        );
        assert_eq!(
            count(ClusterEventKind::MachineDown),
            3,
            "crash + 2 correlated"
        );
        assert_eq!(count(ClusterEventKind::MachineUp), 1);
        let down: Vec<u64> = t
            .cluster_events
            .iter()
            .filter(|e| e.kind == ClusterEventKind::MachineDown)
            .map(|e| e.job)
            .collect();
        assert_eq!(down, vec![2, 6, 7], "machine index rides in the job field");
        assert!(
            out.metrics.completed_requests > 0,
            "cluster survives the chaos"
        );
    }

    #[test]
    fn invalid_fault_plans_are_refused() {
        let ctx = ctx();
        let mut c = small_cfg();
        c.faults = FaultPlan::new().crash(10.0, 99);
        let result = std::panic::catch_unwind(|| {
            run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
        });
        assert!(
            result.is_err(),
            "out-of-range machine index panics at construction"
        );
    }

    #[test]
    fn chaos_resume_is_bit_identical_and_plan_checked() {
        // Crash at 16 s, snapshot at epoch 10 (20 s) — while machine 3
        // is down — recover at 36 s: the resumed run must replay the
        // recovery and end bit-identical to the uninterrupted one.
        let ctx = ctx();
        let mut c = small_cfg();
        c.machines = 8;
        c.duration_s = 60;
        c.telemetry = rhythm_telemetry::TelemetryConfig::full();
        c.faults = FaultPlan::new().crash(16.0, 3).recover(36.0, 3);
        let straight = run_cluster(&ctx, &ControllerChoice::Rhythm, &c);

        let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
            .snapshot_at(10)
            .run();
        assert_outcomes_identical(&straight, &run.outcome, "capturing chaos run");
        let (_, snap) = &run.snapshots[0];
        let chaos = snap.chaos.as_ref().expect("chaos section present");
        assert_eq!(chaos.state.applied, 1, "crash applied, recovery pending");
        assert!(chaos.state.down.contains(&3));

        let bytes = snap.to_bytes();
        let snap = ClusterSnapshot::from_bytes(&bytes).expect("chaos snapshot parses");
        assert_eq!(snap.to_bytes(), bytes, "re-encode is byte-identical");

        let mut c4 = c.clone();
        c4.threads = 4;
        let resumed = ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &c4)
            .expect("matching plan resumes")
            .run();
        assert_outcomes_identical(&straight, &resumed.outcome, "resumed chaos run");

        // A different plan — or no plan at all — is refused.
        let mut other = c.clone();
        other.faults = FaultPlan::new().crash(16.0, 4).recover(36.0, 4);
        assert!(matches!(
            ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &other).err(),
            Some(SnapshotError::Incompatible { .. })
        ));
        let mut none = c.clone();
        none.faults = FaultPlan::new();
        assert!(matches!(
            ClusterRunner::resume(&snap, &ctx, &ControllerChoice::Rhythm, &none).err(),
            Some(SnapshotError::Incompatible { .. })
        ));
    }

    #[test]
    fn snapshot_requests_past_the_horizon_never_fire() {
        let ctx = ctx();
        let c = small_cfg(); // 90 s at 2 s epochs = 45 barriers
        let run = ClusterRunner::new(&ctx, &ControllerChoice::Rhythm, &c)
            .snapshot_at(0)
            .snapshot_at(1000)
            .run();
        assert!(run.snapshots.is_empty());
        let straight = run_cluster(&ctx, &ControllerChoice::Rhythm, &c);
        assert_outcomes_identical(&straight, &run.outcome, "no-op capture run");
    }
}
