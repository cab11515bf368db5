//! The assembled machine: LC + BE resource accounting with invariants.
//!
//! One [`Machine`] hosts exactly one LC Servpod (the paper deploys one
//! Servpod per physical machine, §3.1) plus any number of BE job
//! instances. The four subcontrollers manipulate BE instances through this
//! type; it enforces that grants never exceed capacity and that suspended
//! BE jobs keep their memory but release cores and cache (paper §3.5.2,
//! SuspendBE "pauses all of the running BE jobs, but they can still keep
//! their memory space").

use crate::alloc::Allocation;
use crate::cat::CatPartition;
use crate::cpuset::CpuSet;
use crate::dvfs::DvfsDomain;
use crate::power::PowerModel;
use crate::qdisc::Qdisc;
use crate::spec::MachineSpec;
use std::fmt;

/// Identifier of one BE instance on one machine.
pub type BeInstanceId = u64;

/// Run state of a BE instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeState {
    /// Scheduled on cores and making progress.
    Running,
    /// Paused: keeps memory, holds no cores/LLC/network.
    Suspended,
}

/// One BE job instance and its current grant.
#[derive(Clone, Debug)]
pub struct BeInstance {
    /// Stable id on this machine.
    pub id: BeInstanceId,
    /// Name of the BE workload (e.g. "wordcount").
    pub workload: String,
    /// Current resource grant. When suspended, `cores`/`llc_ways`/
    /// `net_mbps` are zero but `mem_mb` is retained.
    pub alloc: Allocation,
    /// Cores the instance is pinned to (empty while suspended).
    pub cpuset: CpuSet,
    /// Run state.
    pub state: BeState,
    /// Job priority class (0 = lowest). Preemption prefers low classes.
    pub priority: u8,
    /// Grant held before suspension, restored on resume.
    saved: Option<Allocation>,
}

/// Errors from machine resource operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// Not enough free cores/LLC/memory/network for the request.
    Insufficient(String),
    /// Unknown BE instance id.
    NoSuchInstance(BeInstanceId),
    /// Operation invalid in the instance's current state.
    BadState(BeInstanceId, BeState),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Insufficient(what) => write!(f, "insufficient resources: {what}"),
            MachineError::NoSuchInstance(id) => write!(f, "no BE instance {id}"),
            MachineError::BadState(id, s) => write!(f, "BE instance {id} in state {s:?}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// One physical machine hosting an LC Servpod and BE instances.
#[derive(Clone, Debug)]
pub struct Machine {
    spec: MachineSpec,
    /// Resources reserved for the LC Servpod.
    lc_alloc: Allocation,
    /// Cores pinned to the LC Servpod.
    lc_cpuset: CpuSet,
    /// Cores not owned by LC or any BE instance.
    free_cores: CpuSet,
    /// LLC partition between LC and BE classes.
    cat: CatPartition,
    /// Frequency domain of the LC cores.
    pub lc_dvfs: DvfsDomain,
    /// Frequency domain of the BE cores.
    pub be_dvfs: DvfsDomain,
    /// Network shaper.
    pub qdisc: Qdisc,
    /// Power model.
    pub power: PowerModel,
    /// Live BE instances, ascending by id. Ids come from `next_be_id`,
    /// so an admission appends and a kill removes in place.
    bes: Vec<BeInstance>,
    next_be_id: BeInstanceId,
    /// Bumped by every allocation-changing operation (admit / grow / cut
    /// / suspend / resume / kill); lets observers cache derived state
    /// (e.g. interference pressure) and invalidate only on change.
    change_epoch: u64,
    /// Cumulative counters for reporting.
    pub be_started: u64,
    pub be_killed: u64,
}

impl Machine {
    /// Creates a machine and reserves `lc_alloc` for its LC Servpod.
    ///
    /// The LC cores are pinned from core 0 upward; the LLC starts fully
    /// owned by the LC class.
    ///
    /// # Panics
    ///
    /// Panics if the LC reservation alone exceeds the machine or the spec
    /// is invalid.
    pub fn new(spec: MachineSpec, lc_alloc: Allocation) -> Self {
        spec.validate().expect("invalid machine spec");
        assert!(
            lc_alloc.cores <= spec.total_cores(),
            "LC reservation exceeds core count"
        );
        assert!(
            lc_alloc.mem_mb <= spec.total_mem_mb(),
            "LC reservation exceeds memory"
        );
        let mut all = CpuSet::range(0, spec.total_cores());
        let lc_cpuset = all
            .take_lowest(lc_alloc.cores)
            .expect("LC cores fit by the assertion above");
        Machine {
            lc_alloc,
            lc_cpuset,
            free_cores: all,
            cat: CatPartition::all_lc(spec.total_llc_ways()),
            lc_dvfs: DvfsDomain::from_spec(&spec),
            be_dvfs: DvfsDomain::from_spec(&spec),
            qdisc: Qdisc::new(spec.nic_mbps),
            power: PowerModel::from_spec(&spec),
            bes: Vec::new(),
            next_be_id: 0,
            change_epoch: 0,
            be_started: 0,
            be_killed: 0,
            spec,
        }
    }

    /// The machine's static capacities.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Monotone counter of allocation changes (BE admissions, grants,
    /// suspends, resumes, kills). Two reads returning the same value
    /// guarantee the BE population, CAT partition and core ownership are
    /// unchanged between them; DVFS points and the qdisc ceiling are
    /// *not* covered (they are cheap to read directly).
    pub fn change_epoch(&self) -> u64 {
        self.change_epoch
    }

    /// The LC Servpod's reservation.
    pub fn lc_alloc(&self) -> Allocation {
        self.lc_alloc
    }

    /// Cores pinned to the LC Servpod.
    pub fn lc_cpuset(&self) -> CpuSet {
        self.lc_cpuset
    }

    /// The LLC partition.
    pub fn cat(&self) -> &CatPartition {
        &self.cat
    }

    /// Number of cores owned by neither LC nor any BE instance.
    pub fn free_core_count(&self) -> u32 {
        self.free_cores.count()
    }

    /// Free memory in MB.
    pub fn free_mem_mb(&self) -> u64 {
        let used: u64 = self.lc_alloc.mem_mb + self.bes.iter().map(|b| b.alloc.mem_mb).sum::<u64>();
        self.spec.total_mem_mb().saturating_sub(used)
    }

    /// Sum of BE grants (suspended instances contribute only memory).
    pub fn be_total_alloc(&self) -> Allocation {
        self.bes
            .iter()
            .fold(Allocation::none(), |acc, b| acc + b.alloc)
    }

    /// Live BE instances.
    pub fn be_instances(&self) -> impl Iterator<Item = &BeInstance> {
        self.bes.iter()
    }

    /// Number of live (running or suspended) BE instances.
    pub fn be_count(&self) -> usize {
        self.bes.len()
    }

    /// BE instance records held in memory (the allocated capacity), for
    /// footprint accounting.
    pub fn be_capacity(&self) -> usize {
        self.bes.capacity()
    }

    /// Number of running BE instances.
    pub fn running_be_count(&self) -> usize {
        self.bes
            .iter()
            .filter(|b| b.state == BeState::Running)
            .count()
    }

    /// Admits a new BE instance with the requested grant at priority 0.
    ///
    /// Fails without side effects if any dimension is unavailable.
    pub fn admit_be(
        &mut self,
        workload: &str,
        req: Allocation,
    ) -> Result<BeInstanceId, MachineError> {
        self.admit_be_prio(workload, req, 0)
    }

    /// Admits a new BE instance with the requested grant at the given
    /// priority class (0 = lowest; preemption prefers low classes).
    ///
    /// Fails without side effects if any dimension is unavailable.
    pub fn admit_be_prio(
        &mut self,
        workload: &str,
        req: Allocation,
        priority: u8,
    ) -> Result<BeInstanceId, MachineError> {
        if self.free_cores.count() < req.cores {
            return Err(MachineError::Insufficient(format!(
                "cores: need {}, free {}",
                req.cores,
                self.free_cores.count()
            )));
        }
        if self.free_mem_mb() < req.mem_mb {
            return Err(MachineError::Insufficient(format!(
                "memory: need {} MB, free {} MB",
                req.mem_mb,
                self.free_mem_mb()
            )));
        }
        // Grow the BE cache class by the requested ways.
        let mut cat = self.cat;
        if req.llc_ways > 0 && cat.grow_be(req.llc_ways).is_err() {
            return Err(MachineError::Insufficient(format!(
                "LLC ways: need {}, LC holds {}",
                req.llc_ways,
                self.cat.lc_ways()
            )));
        }
        let cpuset = self
            .free_cores
            .take_lowest(req.cores)
            .expect("checked above");
        self.cat = cat;
        let id = self.next_be_id;
        self.next_be_id += 1;
        self.bes.push(BeInstance {
            id,
            workload: workload.to_string(),
            alloc: req,
            cpuset,
            state: BeState::Running,
            priority,
            saved: None,
        });
        self.be_started += 1;
        self.change_epoch += 1;
        debug_assert!(self.check_invariants().is_ok());
        Ok(id)
    }

    /// The position of instance `id` in `bes`.
    fn index_of(&self, id: BeInstanceId) -> Result<usize, MachineError> {
        self.bes
            .binary_search_by_key(&id, |b| b.id)
            .map_err(|_| MachineError::NoSuchInstance(id))
    }

    /// Grows a running BE instance by `delta` cores/ways/memory.
    pub fn grow_be(&mut self, id: BeInstanceId, delta: Allocation) -> Result<(), MachineError> {
        let free_mem = self.free_mem_mb();
        let free_core_count = self.free_cores.count();
        let k = self.index_of(id)?;
        let inst = &self.bes[k];
        if inst.state != BeState::Running {
            return Err(MachineError::BadState(id, inst.state));
        }
        if free_core_count < delta.cores {
            return Err(MachineError::Insufficient("cores".into()));
        }
        if free_mem < delta.mem_mb {
            return Err(MachineError::Insufficient("memory".into()));
        }
        let mut cat = self.cat;
        if delta.llc_ways > 0 && cat.grow_be(delta.llc_ways).is_err() {
            return Err(MachineError::Insufficient("LLC ways".into()));
        }
        let extra = self
            .free_cores
            .take_lowest(delta.cores)
            .expect("checked above");
        self.cat = cat;
        let inst = &mut self.bes[k];
        inst.cpuset = inst.cpuset.union(&extra);
        inst.alloc += delta;
        self.change_epoch += 1;
        debug_assert!(self.check_invariants().is_ok());
        Ok(())
    }

    /// Cuts `delta` from a running BE instance (saturating per dimension).
    /// Returns what was actually reclaimed.
    pub fn cut_be(
        &mut self,
        id: BeInstanceId,
        delta: Allocation,
    ) -> Result<Allocation, MachineError> {
        let k = self.index_of(id)?;
        let inst = &mut self.bes[k];
        if inst.state != BeState::Running {
            return Err(MachineError::BadState(id, inst.state));
        }
        let cut_cores = delta.cores.min(inst.alloc.cores);
        let cut_ways = delta.llc_ways.min(inst.alloc.llc_ways);
        let cut_mem = delta.mem_mb.min(inst.alloc.mem_mb);
        let mut freed_cores = CpuSet::empty();
        let mut remaining = cut_cores;
        let ids: Vec<u32> = inst.cpuset.iter().collect();
        // Release highest-numbered cores first so LC-adjacent low cores
        // stay stable.
        for &cid in ids.iter().rev() {
            if remaining == 0 {
                break;
            }
            freed_cores.insert(cid);
            remaining -= 1;
        }
        inst.cpuset = inst.cpuset.difference(&freed_cores);
        inst.alloc.cores -= cut_cores;
        inst.alloc.llc_ways -= cut_ways;
        inst.alloc.mem_mb -= cut_mem;
        self.free_cores = self.free_cores.union(&freed_cores);
        self.cat.shrink_be(cut_ways);
        self.change_epoch += 1;
        debug_assert!(self.check_invariants().is_ok());
        Ok(Allocation {
            cores: cut_cores,
            llc_ways: cut_ways,
            mem_mb: cut_mem,
            net_mbps: 0.0,
            freq_mhz: 0,
        })
    }

    /// Suspends a running BE instance: cores, LLC and network are released;
    /// memory is kept.
    pub fn suspend_be(&mut self, id: BeInstanceId) -> Result<(), MachineError> {
        let k = self.index_of(id)?;
        let inst = &mut self.bes[k];
        if inst.state != BeState::Running {
            return Ok(()); // Already suspended: idempotent.
        }
        inst.saved = Some(inst.alloc);
        self.free_cores = self.free_cores.union(&inst.cpuset);
        self.cat.shrink_be(inst.alloc.llc_ways);
        inst.cpuset = CpuSet::empty();
        inst.alloc = Allocation {
            cores: 0,
            llc_ways: 0,
            mem_mb: inst.alloc.mem_mb,
            net_mbps: 0.0,
            freq_mhz: inst.alloc.freq_mhz,
        };
        inst.state = BeState::Suspended;
        self.change_epoch += 1;
        debug_assert!(self.check_invariants().is_ok());
        Ok(())
    }

    /// Suspends every running BE instance.
    pub fn suspend_all_be(&mut self) {
        for k in 0..self.bes.len() {
            let _ = self.suspend_be(self.bes[k].id);
        }
    }

    /// Resumes a suspended instance with as much of its saved grant as
    /// currently fits (cores/ways may have been given away meanwhile).
    /// Returns the grant it came back with.
    pub fn resume_be(&mut self, id: BeInstanceId) -> Result<Allocation, MachineError> {
        let free_core_count = self.free_cores.count();
        let k = self.index_of(id)?;
        let inst = &self.bes[k];
        if inst.state != BeState::Suspended {
            return Err(MachineError::BadState(id, inst.state));
        }
        let saved = inst.saved.unwrap_or(inst.alloc);
        let cores = saved.cores.min(free_core_count);
        let mut cat = self.cat;
        let mut ways = 0;
        for _ in 0..saved.llc_ways {
            if cat.grow_be(1).is_ok() {
                ways += 1;
            } else {
                break;
            }
        }
        let cpuset = self
            .free_cores
            .take_lowest(cores)
            .expect("bounded by free count");
        self.cat = cat;
        let inst = &mut self.bes[k];
        inst.cpuset = cpuset;
        inst.alloc = Allocation {
            cores,
            llc_ways: ways,
            mem_mb: inst.alloc.mem_mb,
            net_mbps: saved.net_mbps,
            freq_mhz: saved.freq_mhz,
        };
        inst.state = BeState::Running;
        inst.saved = None;
        let granted = inst.alloc;
        self.change_epoch += 1;
        debug_assert!(self.check_invariants().is_ok());
        Ok(granted)
    }

    /// Resumes every suspended BE instance (best effort).
    pub fn resume_all_be(&mut self) {
        for k in 0..self.bes.len() {
            let _ = self.resume_be(self.bes[k].id);
        }
    }

    /// Kills one BE instance, releasing all of its resources.
    pub fn kill_be(&mut self, id: BeInstanceId) -> Result<(), MachineError> {
        let inst = self.bes.remove(self.index_of(id)?);
        self.free_cores = self.free_cores.union(&inst.cpuset);
        self.cat.shrink_be(inst.alloc.llc_ways);
        self.be_killed += 1;
        self.change_epoch += 1;
        debug_assert!(self.check_invariants().is_ok());
        Ok(())
    }

    /// Kills every BE instance (StopBE).
    pub fn kill_all_be(&mut self) {
        while let Some(first) = self.bes.first() {
            let _ = self.kill_be(first.id);
        }
    }

    /// The lowest priority class among live BE instances, if any.
    pub fn min_be_priority(&self) -> Option<u8> {
        self.bes.iter().map(|b| b.priority).min()
    }

    /// Kills only the lowest-priority class of BE instances (priority
    /// victim selection for StopBE). Returns the number killed.
    pub fn kill_min_priority_be(&mut self) -> usize {
        let Some(min) = self.min_be_priority() else {
            return 0;
        };
        let ids: Vec<BeInstanceId> = self
            .bes
            .iter()
            .filter(|b| b.priority == min)
            .map(|b| b.id)
            .collect();
        for id in &ids {
            let _ = self.kill_be(*id);
        }
        ids.len()
    }

    /// Checks all resource-accounting invariants; returns a description of
    /// the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let be_cores: u32 = self.bes.iter().map(|b| b.alloc.cores).sum();
        if self.lc_alloc.cores + be_cores + self.free_cores.count() != self.spec.total_cores() {
            return Err(format!(
                "core accounting: lc={} be={} free={} total={}",
                self.lc_alloc.cores,
                be_cores,
                self.free_cores.count(),
                self.spec.total_cores()
            ));
        }
        if !self.cat.is_consistent() {
            return Err("CAT partition inconsistent".into());
        }
        let be_ways: u32 = self.bes.iter().map(|b| b.alloc.llc_ways).sum();
        if be_ways != self.cat.be_ways() {
            return Err(format!(
                "LLC accounting: instances hold {} ways, CAT says {}",
                be_ways,
                self.cat.be_ways()
            ));
        }
        let mem: u64 = self.lc_alloc.mem_mb + self.bes.iter().map(|b| b.alloc.mem_mb).sum::<u64>();
        if mem > self.spec.total_mem_mb() {
            return Err(format!(
                "memory over-commit: {} > {}",
                mem,
                self.spec.total_mem_mb()
            ));
        }
        for inst in &self.bes {
            if inst.cpuset.count() != inst.alloc.cores {
                return Err(format!(
                    "instance {} cpuset/grant mismatch: {} vs {}",
                    inst.id,
                    inst.cpuset.count(),
                    inst.alloc.cores
                ));
            }
            if !inst.cpuset.is_disjoint(&self.lc_cpuset) {
                return Err(format!("instance {} overlaps LC cores", inst.id));
            }
            if !inst.cpuset.is_disjoint(&self.free_cores) {
                return Err(format!("instance {} overlaps free cores", inst.id));
            }
            if inst.state == BeState::Suspended && inst.alloc.cores != 0 {
                return Err(format!("suspended instance {} holds cores", inst.id));
            }
        }
        Ok(())
    }
}

impl rhythm_snapshot::Snapshot for BeState {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(match self {
            BeState::Running => 0,
            BeState::Suspended => 1,
        });
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        match r.u8()? {
            0 => Ok(BeState::Running),
            1 => Ok(BeState::Suspended),
            t => Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                "unknown BeState tag {t}"
            ))),
        }
    }
}

impl rhythm_snapshot::Snapshot for BeInstance {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let BeInstance {
            id,
            workload,
            alloc,
            cpuset,
            state,
            priority,
            saved,
        } = self;
        w.u64(*id);
        w.str(workload);
        alloc.encode(w);
        cpuset.encode(w);
        state.encode(w);
        w.u8(*priority);
        saved.encode(w);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(BeInstance {
            id: r.u64()?,
            workload: r.str()?,
            alloc: Allocation::decode(r)?,
            cpuset: CpuSet::decode(r)?,
            state: BeState::decode(r)?,
            priority: r.u8()?,
            saved: Option::<Allocation>::decode(r)?,
        })
    }
}

impl rhythm_snapshot::Snapshot for Machine {
    /// Context-free encoding of the full machine: spec, LC reservation,
    /// core/LLC/DVFS/qdisc actuator state, every BE instance, and the
    /// cumulative counters. Decoding re-checks the machine invariants, so
    /// a tampered or mismatched snapshot is refused rather than producing
    /// a machine that cannot account for its own cores.
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let Machine {
            spec,
            lc_alloc,
            lc_cpuset,
            free_cores,
            cat,
            lc_dvfs,
            be_dvfs,
            qdisc,
            power,
            bes,
            next_be_id,
            change_epoch,
            be_started,
            be_killed,
        } = self;
        spec.encode(w);
        lc_alloc.encode(w);
        lc_cpuset.encode(w);
        free_cores.encode(w);
        cat.encode(w);
        lc_dvfs.encode(w);
        be_dvfs.encode(w);
        qdisc.encode(w);
        power.encode(w);
        w.u64(bes.len() as u64);
        for inst in bes {
            inst.encode(w);
        }
        w.u64(*next_be_id);
        w.u64(*change_epoch);
        w.u64(*be_started);
        w.u64(*be_killed);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let spec = MachineSpec::decode(r)?;
        let lc_alloc = Allocation::decode(r)?;
        let lc_cpuset = CpuSet::decode(r)?;
        let free_cores = CpuSet::decode(r)?;
        let cat = CatPartition::decode(r)?;
        let lc_dvfs = DvfsDomain::decode(r)?;
        let be_dvfs = DvfsDomain::decode(r)?;
        let qdisc = Qdisc::decode(r)?;
        let power = PowerModel::decode(r)?;
        let n = r.len(1)?;
        let mut bes: Vec<BeInstance> = Vec::new();
        for _ in 0..n {
            let inst = BeInstance::decode(r)?;
            // `encode` writes instances ascending by id.
            if bes.last().is_some_and(|prev| prev.id >= inst.id) {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(
                    "BE instance ids duplicated or out of order".into(),
                ));
            }
            bes.push(inst);
        }
        let next_be_id = r.u64()?;
        if bes.last().is_some_and(|b| b.id >= next_be_id) {
            return Err(rhythm_snapshot::SnapshotError::Corrupt(
                "BE id counter behind a live instance id".into(),
            ));
        }
        let m = Machine {
            spec,
            lc_alloc,
            lc_cpuset,
            free_cores,
            cat,
            lc_dvfs,
            be_dvfs,
            qdisc,
            power,
            bes,
            next_be_id,
            change_epoch: r.u64()?,
            be_started: r.u64()?,
            be_killed: r.u64()?,
        };
        m.check_invariants()
            .map_err(rhythm_snapshot::SnapshotError::Corrupt)?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        let lc = Allocation {
            cores: 16,
            llc_ways: 0,
            mem_mb: 64 * 1024,
            net_mbps: 2_000.0,
            freq_mhz: 2_000,
        };
        Machine::new(MachineSpec::paper_testbed(), lc)
    }

    fn be_req() -> Allocation {
        // The paper's initial BE grant: 1 core, 10% LLC (2 ways of 20 per
        // socket scaled to the 80-way machine = 8), 2 GB memory.
        Allocation {
            cores: 1,
            llc_ways: 8,
            mem_mb: 2 * 1024,
            net_mbps: 0.0,
            freq_mhz: 2_000,
        }
    }

    #[test]
    fn new_machine_reserves_lc() {
        let m = machine();
        assert_eq!(m.lc_cpuset().count(), 16);
        assert_eq!(m.free_core_count(), 24);
        assert_eq!(m.cat().lc_ways(), 80);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn admit_be_takes_resources() {
        let mut m = machine();
        let id = m.admit_be("wordcount", be_req()).unwrap();
        assert_eq!(m.free_core_count(), 23);
        assert_eq!(m.cat().be_ways(), 8);
        assert_eq!(m.be_count(), 1);
        assert_eq!(m.running_be_count(), 1);
        assert_eq!(m.be_started, 1);
        let inst = m.be_instances().next().unwrap();
        assert_eq!(inst.id, id);
        assert!(inst.cpuset.is_disjoint(&m.lc_cpuset()));
    }

    #[test]
    fn admit_fails_when_out_of_cores() {
        let mut m = machine();
        let mut req = be_req();
        req.cores = 25;
        req.llc_ways = 0;
        assert!(matches!(
            m.admit_be("x", req),
            Err(MachineError::Insufficient(_))
        ));
        assert_eq!(m.be_count(), 0);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn admit_fails_when_out_of_memory() {
        let mut m = machine();
        let mut req = be_req();
        req.mem_mb = 300 * 1024;
        assert!(m.admit_be("x", req).is_err());
    }

    #[test]
    fn grow_and_cut() {
        let mut m = machine();
        let id = m.admit_be("wc", be_req()).unwrap();
        m.grow_be(id, Allocation::cores_and_llc(1, 8)).unwrap();
        let inst = m.be_instances().next().unwrap();
        assert_eq!(inst.alloc.cores, 2);
        assert_eq!(inst.alloc.llc_ways, 16);

        let got = m.cut_be(id, Allocation::cores_and_llc(1, 8)).unwrap();
        assert_eq!(got.cores, 1);
        let inst = m.be_instances().next().unwrap();
        assert_eq!(inst.alloc.cores, 1);
        assert_eq!(m.cat().be_ways(), 8);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn cut_saturates() {
        let mut m = machine();
        let id = m.admit_be("wc", be_req()).unwrap();
        let got = m.cut_be(id, Allocation::cores_and_llc(99, 99)).unwrap();
        assert_eq!(got.cores, 1);
        assert_eq!(got.llc_ways, 8);
        let inst = m.be_instances().next().unwrap();
        assert_eq!(inst.alloc.cores, 0);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn suspend_keeps_memory_releases_cores() {
        let mut m = machine();
        let id = m.admit_be("wc", be_req()).unwrap();
        let free_before = m.free_core_count();
        m.suspend_be(id).unwrap();
        assert_eq!(m.free_core_count(), free_before + 1);
        assert_eq!(m.cat().be_ways(), 0);
        let inst = m.be_instances().next().unwrap();
        assert_eq!(inst.state, BeState::Suspended);
        assert_eq!(inst.alloc.mem_mb, 2 * 1024, "memory retained");
        assert_eq!(inst.alloc.cores, 0);
        // Idempotent.
        m.suspend_be(id).unwrap();
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn resume_restores_saved_grant() {
        let mut m = machine();
        let id = m.admit_be("wc", be_req()).unwrap();
        m.suspend_be(id).unwrap();
        let back = m.resume_be(id).unwrap();
        assert_eq!(back.cores, 1);
        assert_eq!(back.llc_ways, 8);
        assert_eq!(m.running_be_count(), 1);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn resume_running_is_error() {
        let mut m = machine();
        let id = m.admit_be("wc", be_req()).unwrap();
        assert!(matches!(
            m.resume_be(id),
            Err(MachineError::BadState(_, BeState::Running))
        ));
    }

    #[test]
    fn kill_releases_everything() {
        let mut m = machine();
        let id = m.admit_be("wc", be_req()).unwrap();
        m.kill_be(id).unwrap();
        assert_eq!(m.be_count(), 0);
        assert_eq!(m.free_core_count(), 24);
        assert_eq!(m.cat().be_ways(), 0);
        assert_eq!(m.be_killed, 1);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn kill_all_be() {
        let mut m = machine();
        for _ in 0..5 {
            m.admit_be("wc", be_req()).unwrap();
        }
        m.kill_all_be();
        assert_eq!(m.be_count(), 0);
        assert_eq!(m.free_core_count(), 24);
        assert_eq!(m.be_killed, 5);
    }

    #[test]
    fn suspend_all_and_resume_all() {
        let mut m = machine();
        for _ in 0..3 {
            m.admit_be("wc", be_req()).unwrap();
        }
        m.suspend_all_be();
        assert_eq!(m.running_be_count(), 0);
        assert_eq!(m.be_count(), 3);
        m.resume_all_be();
        assert_eq!(m.running_be_count(), 3);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn grow_suspended_is_error() {
        let mut m = machine();
        let id = m.admit_be("wc", be_req()).unwrap();
        m.suspend_be(id).unwrap();
        assert!(matches!(
            m.grow_be(id, Allocation::cores_and_llc(1, 0)),
            Err(MachineError::BadState(..))
        ));
    }

    #[test]
    fn unknown_instance_errors() {
        let mut m = machine();
        assert!(matches!(
            m.kill_be(42),
            Err(MachineError::NoSuchInstance(42))
        ));
        assert!(matches!(
            m.cut_be(42, Allocation::none()),
            Err(MachineError::NoSuchInstance(42))
        ));
    }

    #[test]
    fn be_total_alloc_sums() {
        let mut m = machine();
        m.admit_be("a", be_req()).unwrap();
        m.admit_be("b", be_req()).unwrap();
        let total = m.be_total_alloc();
        assert_eq!(total.cores, 2);
        assert_eq!(total.llc_ways, 16);
        assert_eq!(total.mem_mb, 4 * 1024);
    }

    #[test]
    fn free_mem_accounts_lc_and_be() {
        let mut m = machine();
        let total = m.spec().total_mem_mb();
        assert_eq!(m.free_mem_mb(), total - 64 * 1024);
        m.admit_be("a", be_req()).unwrap();
        assert_eq!(m.free_mem_mb(), total - 64 * 1024 - 2 * 1024);
    }

    #[test]
    fn priority_kill_takes_only_lowest_class() {
        let mut m = machine();
        let a = m.admit_be_prio("low", be_req(), 0).unwrap();
        let b = m.admit_be_prio("high", be_req(), 2).unwrap();
        let c = m.admit_be_prio("low2", be_req(), 0).unwrap();
        assert_eq!(m.min_be_priority(), Some(0));
        let killed = m.kill_min_priority_be();
        assert_eq!(killed, 2);
        assert!(m.index_of(a).is_err());
        assert!(m.index_of(c).is_err());
        assert_eq!(m.bes[m.index_of(b).unwrap()].priority, 2);
        assert_eq!(m.min_be_priority(), Some(2));
        assert!(m.check_invariants().is_ok());
        // Second call takes the surviving class.
        assert_eq!(m.kill_min_priority_be(), 1);
        assert_eq!(m.kill_min_priority_be(), 0);
    }

    #[test]
    fn admit_be_defaults_to_priority_zero() {
        let mut m = machine();
        let id = m.admit_be("x", be_req()).unwrap();
        assert_eq!(m.bes[m.index_of(id).unwrap()].priority, 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_machine() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut m = machine();
        let a = m.admit_be_prio("wordcount", be_req(), 1).unwrap();
        m.admit_be("stream", be_req()).unwrap();
        m.suspend_be(a).unwrap();
        m.lc_dvfs.step_down();
        m.qdisc.reallocate(1_500.0);
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Machine::decode(&mut Reader::new(&bytes)).unwrap();
        assert!(r.check_invariants().is_ok());
        assert_eq!(r.be_count(), m.be_count());
        assert_eq!(r.running_be_count(), m.running_be_count());
        assert_eq!(r.change_epoch(), m.change_epoch());
        assert_eq!(r.free_core_count(), m.free_core_count());
        assert_eq!(r.lc_dvfs.current_mhz(), m.lc_dvfs.current_mhz());
        assert_eq!(r.qdisc.be_limit_mbps(), m.qdisc.be_limit_mbps());
        // Suspended grant restores identically on both machines.
        let back_m = m.resume_be(a).unwrap();
        let back_r = r.resume_be(a).unwrap();
        assert_eq!(back_m, back_r);
        // Canonical bytes: encoding the restored machine is identical.
        let mut w2 = Writer::new();
        let mut w3 = Writer::new();
        m.encode(&mut w2);
        r.encode(&mut w3);
        assert_eq!(w2.into_bytes(), w3.into_bytes());
    }

    #[test]
    fn snapshot_rejects_broken_accounting() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let mut m = machine();
        m.admit_be("wc", be_req()).unwrap();
        let mut w = Writer::new();
        m.encode(&mut w);
        let mut bytes = w.into_bytes();
        // The free-core cpuset sits right after spec + lc_alloc + lc_cpuset.
        // Flip a low bit of it so core accounting no longer sums up.
        let off = 4 * 3 + 8 * 5 + 4 * 3 + (4 + 4 + 8 + 8 + 4) + 16;
        bytes[off] ^= 0x02;
        let decoded = Machine::decode(&mut Reader::new(&bytes));
        assert!(matches!(decoded.err(), Some(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn snapshot_rejects_instances_out_of_id_order() {
        use rhythm_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let mut m = machine();
        m.admit_be("wc", be_req()).unwrap();
        m.admit_be("stream", be_req()).unwrap();
        // A capture `encode` never writes: the same two instances, the
        // higher id first. Every accounting invariant still holds.
        m.bes.swap(0, 1);
        assert!(m.check_invariants().is_ok());
        let mut w = Writer::new();
        m.encode(&mut w);
        let decoded = Machine::decode(&mut Reader::new(&w.into_bytes()));
        assert!(matches!(decoded.err(), Some(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn many_admissions_until_exhaustion() {
        let mut m = machine();
        let mut admitted = 0;
        loop {
            let mut req = be_req();
            req.llc_ways = 2;
            match m.admit_be("x", req) {
                Ok(_) => admitted += 1,
                Err(_) => break,
            }
        }
        // 24 free cores but only 79 grantable ways / 2 -> cores bind first.
        assert_eq!(admitted, 24);
        assert!(m.check_invariants().is_ok());
    }
}
