//! Best-effort (BE) batch job models.
//!
//! Table 1 lists seven BE jobs: four synthetic single-resource stressors
//! (CPU-stress, stream-llc, stream-dram, iperf) and three real mixed
//! workloads (Wordcount, ImageClassify on CycleGAN, LSTM on TensorFlow).
//! A BE job matters to the co-location controller through exactly two
//! things, both modelled here:
//!
//! 1. **Pressure** — how much contention it puts on each shared resource
//!    per granted core (aggregated machine-wide by `rhythm-interference`).
//! 2. **Progress** — how fast it completes work given its grant, which
//!    yields the paper's normalized *BE throughput* metric (§5.1: jobs
//!    finished per hour normalized to a solo run).

/// The BE workload kinds of Table 1 (plus the big/small stream variants
/// used in the §2 characterization).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BeKind {
    /// CPU stress-testing tool; pure core pressure.
    CpuStress,
    /// iBench LLC benchmark; `big` saturates the LLC, otherwise half.
    StreamLlc { big: bool },
    /// iBench DRAM-bandwidth benchmark; `big` saturates, otherwise half.
    StreamDram { big: bool },
    /// Network stress (iperf).
    Iperf,
    /// Big-data analytics (Wordcount); mixed CPU/DRAM pressure.
    Wordcount,
    /// CycleGAN image classification; mixed CPU/LLC/DRAM pressure.
    ImageClassify,
    /// TensorFlow LSTM training; CPU-heavy mixed pressure.
    Lstm,
}

/// Full model of one BE workload.
#[derive(Clone, Debug, PartialEq)]
pub struct BeSpec {
    /// Workload kind.
    pub kind: BeKind,
    /// Display name as used in the paper's figures.
    pub name: String,
    /// Core-contention pressure contributed per granted core (saturates
    /// at 1.0 machine-wide).
    pub cpu_pressure_per_core: f64,
    /// LLC pressure per granted core *before* CAT isolation is applied.
    pub llc_pressure_per_core: f64,
    /// DRAM-bandwidth pressure per granted core.
    pub dram_pressure_per_core: f64,
    /// NIC demand of one instance in Mbit/s (drives network pressure).
    pub net_demand_mbps: f64,
    /// Memory a fresh instance asks for in MB (the paper initializes BE
    /// jobs with 2 GB).
    pub mem_mb: u64,
    /// LLC ways one instance can productively use (cache-starved
    /// instances run slower).
    pub llc_ways_wanted: u32,
    /// Fraction of the job's progress that scales with core frequency
    /// (1.0 = fully compute-bound).
    pub cpu_bound: f64,
    /// Progress penalty at zero cache: progress multiplier is
    /// `1 - cache_penalty * starvation`.
    pub cache_penalty: f64,
    /// Cores a solo run would use on an otherwise idle machine
    /// (normalization basis for throughput).
    pub solo_cores: u32,
    /// Wall-clock seconds one job takes at solo speed.
    pub job_seconds: f64,
}

impl BeSpec {
    /// The model for a given kind, calibrated to the paper's §2/§5
    /// observations (e.g. "CPU-stress generates the least interference",
    /// stream-dram/llc big saturate their resource).
    pub fn of(kind: BeKind) -> BeSpec {
        match kind {
            BeKind::CpuStress => BeSpec {
                kind,
                name: "CPU-stress".into(),
                cpu_pressure_per_core: 0.085,
                llc_pressure_per_core: 0.010,
                dram_pressure_per_core: 0.008,
                net_demand_mbps: 0.0,
                mem_mb: 2048,
                llc_ways_wanted: 2,
                cpu_bound: 1.0,
                cache_penalty: 0.05,
                solo_cores: 24,
                job_seconds: 300.0,
            },
            BeKind::StreamLlc { big } => {
                let scale = if big { 1.0 } else { 0.5 };
                BeSpec {
                    kind,
                    name: if big {
                        "stream-llc".into()
                    } else {
                        "stream-llc(small)".into()
                    },
                    cpu_pressure_per_core: 0.010,
                    llc_pressure_per_core: 0.24 * scale,
                    dram_pressure_per_core: 0.060 * scale,
                    net_demand_mbps: 0.0,
                    mem_mb: 2048,
                    llc_ways_wanted: 8,
                    cpu_bound: 0.30,
                    cache_penalty: 0.10,
                    solo_cores: 8,
                    job_seconds: 240.0,
                }
            }
            BeKind::StreamDram { big } => {
                let scale = if big { 1.0 } else { 0.5 };
                BeSpec {
                    kind,
                    name: if big {
                        "stream-dram".into()
                    } else {
                        "stream-dram(small)".into()
                    },
                    cpu_pressure_per_core: 0.010,
                    llc_pressure_per_core: 0.050 * scale,
                    dram_pressure_per_core: 0.26 * scale,
                    net_demand_mbps: 0.0,
                    mem_mb: 4096,
                    llc_ways_wanted: 2,
                    cpu_bound: 0.25,
                    cache_penalty: 0.05,
                    solo_cores: 8,
                    job_seconds: 240.0,
                }
            }
            BeKind::Iperf => BeSpec {
                kind,
                name: "iperf".into(),
                cpu_pressure_per_core: 0.010,
                llc_pressure_per_core: 0.005,
                dram_pressure_per_core: 0.010,
                net_demand_mbps: 9_000.0,
                mem_mb: 512,
                llc_ways_wanted: 1,
                cpu_bound: 0.20,
                cache_penalty: 0.02,
                solo_cores: 4,
                job_seconds: 120.0,
            },
            BeKind::Wordcount => BeSpec {
                kind,
                name: "wordcount".into(),
                cpu_pressure_per_core: 0.040,
                llc_pressure_per_core: 0.055,
                dram_pressure_per_core: 0.120,
                net_demand_mbps: 200.0,
                mem_mb: 2048,
                llc_ways_wanted: 4,
                cpu_bound: 0.60,
                cache_penalty: 0.15,
                solo_cores: 16,
                job_seconds: 600.0,
            },
            BeKind::ImageClassify => BeSpec {
                kind,
                name: "imageClassify".into(),
                cpu_pressure_per_core: 0.055,
                llc_pressure_per_core: 0.080,
                dram_pressure_per_core: 0.075,
                net_demand_mbps: 50.0,
                mem_mb: 4096,
                llc_ways_wanted: 6,
                cpu_bound: 0.75,
                cache_penalty: 0.25,
                solo_cores: 16,
                job_seconds: 900.0,
            },
            BeKind::Lstm => BeSpec {
                kind,
                name: "LSTM".into(),
                cpu_pressure_per_core: 0.075,
                llc_pressure_per_core: 0.040,
                dram_pressure_per_core: 0.050,
                net_demand_mbps: 20.0,
                mem_mb: 4096,
                llc_ways_wanted: 4,
                cpu_bound: 0.85,
                cache_penalty: 0.20,
                solo_cores: 20,
                job_seconds: 1200.0,
            },
        }
    }

    /// The six BE jobs used in the co-location experiments (Figures 9-16).
    pub fn colocation_set() -> Vec<BeSpec> {
        vec![
            BeSpec::of(BeKind::StreamLlc { big: true }),
            BeSpec::of(BeKind::StreamDram { big: true }),
            BeSpec::of(BeKind::CpuStress),
            BeSpec::of(BeKind::Lstm),
            BeSpec::of(BeKind::ImageClassify),
            BeSpec::of(BeKind::Wordcount),
        ]
    }

    /// Progress rate of one instance in "solo-machine equivalents": 1.0
    /// means it completes jobs as fast as a solo run on its preferred
    /// `solo_cores`.
    ///
    /// * `cores` — granted cores.
    /// * `freq_fraction` — BE DVFS operating point relative to max.
    /// * `llc_ways` — granted cache ways.
    /// * `net_fraction` — granted network bandwidth relative to demand
    ///   (1.0 when the job's demand is met; only matters for iperf-like
    ///   jobs).
    pub fn progress_rate(
        &self,
        cores: u32,
        freq_fraction: f64,
        llc_ways: u32,
        net_fraction: f64,
    ) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        let core_share = f64::from(cores) / f64::from(self.solo_cores);
        let f = freq_fraction.clamp(0.05, 1.0);
        // A `cpu_bound` fraction of the work scales with frequency.
        let freq_factor = self.cpu_bound * f + (1.0 - self.cpu_bound);
        let starvation = if self.llc_ways_wanted == 0 {
            0.0
        } else {
            (1.0 - f64::from(llc_ways) / f64::from(self.llc_ways_wanted)).clamp(0.0, 1.0)
        };
        let cache_factor = 1.0 - self.cache_penalty * starvation;
        let net_factor = if self.net_demand_mbps > 0.0 {
            net_fraction.clamp(0.0, 1.0).max(0.05)
        } else {
            1.0
        };
        core_share * freq_factor * cache_factor * net_factor
    }

    /// Jobs one instance finishes per hour at the given progress rate.
    pub fn jobs_per_hour(&self, progress_rate: f64) -> f64 {
        progress_rate * 3600.0 / self.job_seconds
    }

    /// Jobs per hour of a solo run (the throughput normalization basis).
    pub fn solo_jobs_per_hour(&self) -> f64 {
        3600.0 / self.job_seconds
    }
}

impl rhythm_snapshot::Snapshot for BeKind {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let (tag, big) = match self {
            BeKind::CpuStress => (0, false),
            BeKind::StreamLlc { big } => (1, *big),
            BeKind::StreamDram { big } => (2, *big),
            BeKind::Iperf => (3, false),
            BeKind::Wordcount => (4, false),
            BeKind::ImageClassify => (5, false),
            BeKind::Lstm => (6, false),
        };
        w.u8(tag);
        w.bool(big);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let tag = r.u8()?;
        let big = r.bool()?;
        Ok(match tag {
            0 => BeKind::CpuStress,
            1 => BeKind::StreamLlc { big },
            2 => BeKind::StreamDram { big },
            3 => BeKind::Iperf,
            4 => BeKind::Wordcount,
            5 => BeKind::ImageClassify,
            6 => BeKind::Lstm,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown BeKind tag {t}"
                )))
            }
        })
    }
}

impl rhythm_snapshot::Snapshot for BeSpec {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let BeSpec {
            kind,
            name,
            cpu_pressure_per_core,
            llc_pressure_per_core,
            dram_pressure_per_core,
            net_demand_mbps,
            mem_mb,
            llc_ways_wanted,
            cpu_bound,
            cache_penalty,
            solo_cores,
            job_seconds,
        } = self;
        kind.encode(w);
        w.str(name);
        w.f64(*cpu_pressure_per_core);
        w.f64(*llc_pressure_per_core);
        w.f64(*dram_pressure_per_core);
        w.f64(*net_demand_mbps);
        w.u64(*mem_mb);
        w.u32(*llc_ways_wanted);
        w.f64(*cpu_bound);
        w.f64(*cache_penalty);
        w.u32(*solo_cores);
        w.f64(*job_seconds);
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(BeSpec {
            kind: BeKind::decode(r)?,
            name: r.str()?,
            cpu_pressure_per_core: r.f64()?,
            llc_pressure_per_core: r.f64()?,
            dram_pressure_per_core: r.f64()?,
            net_demand_mbps: r.f64()?,
            mem_mb: r.u64()?,
            llc_ways_wanted: r.u32()?,
            cpu_bound: r.f64()?,
            cache_penalty: r.f64()?,
            solo_cores: r.u32()?,
            job_seconds: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_construct() {
        for kind in [
            BeKind::CpuStress,
            BeKind::StreamLlc { big: true },
            BeKind::StreamLlc { big: false },
            BeKind::StreamDram { big: true },
            BeKind::StreamDram { big: false },
            BeKind::Iperf,
            BeKind::Wordcount,
            BeKind::ImageClassify,
            BeKind::Lstm,
        ] {
            let s = BeSpec::of(kind);
            assert!(!s.name.is_empty());
            assert!(s.solo_cores > 0);
            assert!(s.job_seconds > 0.0);
        }
    }

    #[test]
    fn colocation_set_has_six() {
        assert_eq!(BeSpec::colocation_set().len(), 6);
    }

    #[test]
    fn small_variants_pressure_half_of_big() {
        let big = BeSpec::of(BeKind::StreamDram { big: true });
        let small = BeSpec::of(BeKind::StreamDram { big: false });
        assert!((small.dram_pressure_per_core - big.dram_pressure_per_core / 2.0).abs() < 1e-12);
    }

    #[test]
    fn stream_dram_big_saturates_with_four_cores() {
        let s = BeSpec::of(BeKind::StreamDram { big: true });
        assert!(4.0 * s.dram_pressure_per_core > 1.0);
    }

    #[test]
    fn cpu_stress_interferes_least() {
        // The paper: "CPU-stress generates the least interference" on
        // cache/memory paths.
        let cpu = BeSpec::of(BeKind::CpuStress);
        let llc = BeSpec::of(BeKind::StreamLlc { big: true });
        let dram = BeSpec::of(BeKind::StreamDram { big: true });
        assert!(cpu.llc_pressure_per_core < llc.llc_pressure_per_core);
        assert!(cpu.dram_pressure_per_core < dram.dram_pressure_per_core);
    }

    #[test]
    fn progress_zero_without_cores() {
        let s = BeSpec::of(BeKind::Wordcount);
        assert_eq!(s.progress_rate(0, 1.0, 4, 1.0), 0.0);
    }

    #[test]
    fn progress_scales_with_cores() {
        let s = BeSpec::of(BeKind::CpuStress);
        let one = s.progress_rate(1, 1.0, 2, 1.0);
        let two = s.progress_rate(2, 1.0, 2, 1.0);
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn full_grant_runs_at_solo_speed() {
        let s = BeSpec::of(BeKind::Lstm);
        let r = s.progress_rate(s.solo_cores, 1.0, s.llc_ways_wanted, 1.0);
        assert!((r - 1.0).abs() < 1e-9);
        assert!((s.jobs_per_hour(r) - s.solo_jobs_per_hour()).abs() < 1e-9);
    }

    #[test]
    fn frequency_hits_compute_bound_jobs_harder() {
        let cpu = BeSpec::of(BeKind::CpuStress);
        let dram = BeSpec::of(BeKind::StreamDram { big: true });
        let cpu_drop = cpu.progress_rate(4, 0.6, 2, 1.0) / cpu.progress_rate(4, 1.0, 2, 1.0);
        let dram_drop = dram.progress_rate(4, 0.6, 2, 1.0) / dram.progress_rate(4, 1.0, 2, 1.0);
        assert!(cpu_drop < dram_drop, "compute-bound drops more");
    }

    #[test]
    fn cache_starvation_slows_cache_hungry_jobs() {
        let s = BeSpec::of(BeKind::ImageClassify);
        let starved = s.progress_rate(8, 1.0, 0, 1.0);
        let fed = s.progress_rate(8, 1.0, s.llc_ways_wanted, 1.0);
        assert!(starved < fed);
        assert!((fed - starved) / fed > 0.1);
    }

    #[test]
    fn network_starvation_only_hits_network_jobs() {
        let iperf = BeSpec::of(BeKind::Iperf);
        let wc = BeSpec::of(BeKind::CpuStress);
        assert!(iperf.progress_rate(2, 1.0, 1, 0.1) < iperf.progress_rate(2, 1.0, 1, 1.0));
        assert_eq!(
            wc.progress_rate(2, 1.0, 2, 0.0),
            wc.progress_rate(2, 1.0, 2, 1.0)
        );
    }
}
