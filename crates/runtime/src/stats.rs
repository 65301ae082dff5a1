//! Aggregate throughput/latency/energy statistics for a batch run.

use std::fmt;

use tempus_core::schedule::CacheStats;

use crate::job::JobResult;
use crate::ledger::DeviceSummary;

/// Clock period at the paper's 250 MHz evaluation clock, in ns —
/// re-exported from the hardware model so the runtime's energy and
/// sim-time figures stay coupled to the timing reports.
pub use tempus_hwmodel::timing::CLOCK_PERIOD_NS as PERIOD_NS;

/// Per-worker execution record.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Jobs executed.
    pub jobs: u64,
    /// Modelled cycles summed over the worker's jobs.
    pub sim_cycles: u64,
    /// Host wall-clock the worker spent executing, in ns.
    pub wall_ns: u64,
    /// Schedule-cache counters, when the backend caches.
    pub schedule_cache: Option<CacheStats>,
}

/// Batch-level aggregates.
#[derive(Debug, Clone)]
pub struct AggregateStats {
    /// Backend that ran the batch.
    pub backend: &'static str,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed.
    pub jobs: u64,
    /// Modelled cycles summed over all jobs.
    pub total_sim_cycles: u64,
    /// Modelled execution time on hardware at 250 MHz, in µs.
    pub sim_time_us: f64,
    /// Modelled energy over all jobs, in pJ.
    pub total_energy_pj: f64,
    /// Dynamic (switching) share of `total_energy_pj` — energy spent
    /// on working array-cycles, voltage-squared-scaled under DVFS.
    pub dynamic_energy_pj: f64,
    /// Static (leakage) share of `total_energy_pj` — leakage charged
    /// while arrays were busy on a job (idle tails of a sharded run
    /// included).
    pub static_energy_pj: f64,
    /// Leakage burned in the ledger's idle gaps **between** jobs —
    /// array-cycles no job owned, charged at the leakage (not
    /// active) rate. Not part of `total_energy_pj`, which sums job
    /// energies only.
    pub idle_leakage_pj: f64,
    /// Host wall-clock for the whole batch, in ns.
    pub wall_ns: u64,
    /// Host throughput: jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Mean modelled cycles per job.
    pub avg_job_sim_cycles: f64,
    /// Largest single-job modelled cycle count (tail latency).
    pub max_job_sim_cycles: u64,
    /// Array-cycles summed over every job and shard — what the energy
    /// figure scales with (equals `total_sim_cycles` on single-array
    /// configurations).
    pub total_array_cycles: u64,
    /// Mean PE arrays occupied per job (1.0 on single-array
    /// configurations).
    pub avg_shards_per_job: f64,
    /// Mean per-job work balance across arrays (1.0 when single-array
    /// or perfectly balanced).
    pub avg_shard_utilization: f64,
    /// Device-time view of the batch on the array pool: the array
    /// ledger's account (makespan, packing efficiency, array-wait)
    /// under either policy. Under the all-arrays policy each job holds
    /// the whole core exclusively, so the makespan is the sum of job
    /// latencies.
    pub device: DeviceSummary,
    /// Schedule-cache counters merged across workers.
    pub schedule_cache: Option<CacheStats>,
    /// Largest per-job scratch high-water mark in elements (0 for an
    /// all-conv batch) — the figure a deployment sizes its scratch
    /// SRAM against.
    pub peak_scratch_elems: u64,
}

impl AggregateStats {
    /// Computes aggregates from per-job results and worker records.
    /// `device` is the array ledger's account of the batch.
    /// `idle_leakage_mw` is the per-array leakage power used to price
    /// the ledger's idle gaps (0.0 when unknown — gaps then cost
    /// nothing, the pre-DVFS accounting).
    #[must_use]
    pub fn from_results(
        backend: &'static str,
        workers: usize,
        results: &[JobResult],
        worker_stats: &[WorkerStats],
        wall_ns: u64,
        device: DeviceSummary,
        idle_leakage_mw: f64,
    ) -> Self {
        let jobs = results.len() as u64;
        let total_sim_cycles: u64 = results.iter().map(|r| r.sim_cycles).sum();
        let total_energy_pj: f64 = results.iter().map(|r| r.energy_pj).sum();
        let dynamic_energy_pj: f64 = results.iter().map(|r| r.dynamic_energy_pj).sum();
        let static_energy_pj: f64 = results.iter().map(|r| r.static_energy_pj).sum();
        let max_job_sim_cycles = results.iter().map(|r| r.sim_cycles).max().unwrap_or(0);
        let total_array_cycles: u64 = results.iter().map(|r| r.total_array_cycles).sum();
        let total_shards: u64 = results.iter().map(|r| r.shards as u64).sum();
        let util_sum: f64 = results.iter().map(|r| r.shard_utilization).sum();
        let peak_scratch_elems = results
            .iter()
            .map(|r| r.peak_scratch_elems)
            .max()
            .unwrap_or(0);
        let idle_leakage_pj = idle_leakage_mw * device.idle_gap_cycles as f64 * PERIOD_NS;
        let mut schedule_cache: Option<CacheStats> = None;
        for ws in worker_stats {
            if let Some(cs) = &ws.schedule_cache {
                schedule_cache
                    .get_or_insert_with(CacheStats::default)
                    .merge(cs);
            }
        }
        AggregateStats {
            backend,
            workers,
            jobs,
            total_sim_cycles,
            sim_time_us: total_sim_cycles as f64 * PERIOD_NS * 1e-3,
            total_energy_pj,
            dynamic_energy_pj,
            static_energy_pj,
            idle_leakage_pj,
            wall_ns,
            jobs_per_sec: if wall_ns == 0 {
                0.0
            } else {
                jobs as f64 / (wall_ns as f64 * 1e-9)
            },
            avg_job_sim_cycles: if jobs == 0 {
                0.0
            } else {
                total_sim_cycles as f64 / jobs as f64
            },
            max_job_sim_cycles,
            total_array_cycles,
            avg_shards_per_job: if jobs == 0 {
                1.0
            } else {
                total_shards as f64 / jobs as f64
            },
            avg_shard_utilization: if jobs == 0 {
                1.0
            } else {
                util_sum / jobs as f64
            },
            device,
            schedule_cache,
            peak_scratch_elems,
        }
    }
}

impl fmt::Display for AggregateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} jobs on {} workers in {:.2} ms ({:.0} jobs/s); \
             {} modelled cycles ({:.1} us @250MHz), {:.1} nJ",
            self.backend,
            self.jobs,
            self.workers,
            self.wall_ns as f64 * 1e-6,
            self.jobs_per_sec,
            self.total_sim_cycles,
            self.sim_time_us,
            self.total_energy_pj * 1e-3,
        )?;
        if self.idle_leakage_pj > 0.0 {
            write!(
                f,
                " ({:.1} nJ dynamic, {:.1} nJ busy leakage, {:.1} nJ idle leakage)",
                self.dynamic_energy_pj * 1e-3,
                self.static_energy_pj * 1e-3,
                self.idle_leakage_pj * 1e-3,
            )?;
        }
        if self.avg_shards_per_job > 1.0 {
            write!(
                f,
                "; {:.1} arrays/job ({:.0}% balanced, {} array-cycles)",
                self.avg_shards_per_job,
                self.avg_shard_utilization * 100.0,
                self.total_array_cycles,
            )?;
        }
        if self.device.num_arrays > 1 {
            write!(
                f,
                "; device makespan {} cycles ({:.0}% packed, {:.1} arrays granted/job, {} wait cycles)",
                self.device.makespan_cycles,
                self.device.occupancy() * 100.0,
                self.device.avg_arrays_granted(),
                self.device.wait_cycles,
            )?;
        }
        if self.peak_scratch_elems > 0 {
            write!(f, "; peak scratch {} elems", self.peak_scratch_elems)?;
        }
        if let Some(cs) = &self.schedule_cache {
            write!(
                f,
                "; schedule cache {}h/{}m, latency memo {}h/{}m",
                cs.schedule_hits, cs.schedule_misses, cs.latency_hits, cs.latency_misses
            )?;
        }
        Ok(())
    }
}
