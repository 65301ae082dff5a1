//! The batched multi-threaded inference engine.
//!
//! Jobs are distributed by a **deterministic seeded scheduler**: the
//! batch is permuted by a seeded Fisher–Yates shuffle (a cheap model
//! of arrival-order randomisation that keeps heavy jobs from clumping
//! on one worker) and dealt round-robin to the worker threads. Each
//! worker owns its backend instance — cores and schedule caches are
//! worker-local, so execution is lock-free — and results are returned
//! sorted by job id. For a fixed `(jobs, seed, workers)` triple the
//! assignment, every per-job modelled statistic and the result order
//! are bit-for-bit reproducible; only host wall-clock varies.

use std::time::Instant;

use tempus_arith::IntPrecision;
use tempus_core::gemm::TubGemm;
use tempus_core::streaming::StreamPlan;
use tempus_core::TempusConfig;
use tempus_hwmodel::{Family, SynthModel};
use tempus_nvdla::config::NvdlaConfig;
use tempus_nvdla::cube::DataCube;
use tempus_nvdla::{fused, pdp};
use tempus_telemetry::SplitMix64;

use tempus_core::shard::WidenPolicy;

use crate::backend::BackendKind;
use crate::error::RuntimeError;
use crate::job::{Job, JobPayload, JobResult};
use crate::ledger::{ArrayAssignment, ArrayLedger, ArrayPolicy};
use crate::planner::ArrayPlanner;
use crate::pool::{ArrayPower, Executor};
use crate::stats::{AggregateStats, WorkerStats};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (each owns a core instance). Must be ≥ 1.
    pub workers: usize,
    /// Scheduler seed: fixes the job permutation.
    pub seed: u64,
    /// Which backend the workers instantiate.
    pub backend: BackendKind,
    /// PE arrays per modelled DLA: jobs are sharded across them
    /// (kernel groups preferred, channel groups + cross-array
    /// reduction as fallback) and per-job latency becomes the sharded
    /// critical path. 1 models the paper's single-core socket.
    pub num_arrays: usize,
    /// How jobs are granted arrays: [`ArrayPolicy::AllArrays`] (every
    /// job takes the whole core — PR 4 semantics, the default) or
    /// [`ArrayPolicy::CostAware`] (the budget planner picks each
    /// job's width and the array-slot ledger packs jobs onto disjoint
    /// array sets).
    pub scheduling: ArrayPolicy,
    /// Tempus Core configuration (tempus and functional backends).
    pub tempus: TempusConfig,
    /// NVDLA baseline configuration (nvdla backend).
    pub nvdla: NvdlaConfig,
    /// GEMM PE-grid shape for all backends.
    pub gemm_grid: (usize, usize),
    /// Scratch-arena budget in elements for every worker backend:
    /// GEMMs stage the deepest window fitting it (whole-operand
    /// windows when `None`, the default). Outputs and cycles do not
    /// depend on it; the serving layer's admission rejects jobs whose
    /// smallest arena exceeds it.
    pub scratch_budget_elems: Option<u64>,
}

impl EngineConfig {
    /// Default configuration for `backend`: 4 workers, the paper's
    /// 16×16 cores, a 16×16 GEMM grid, seed 42.
    #[must_use]
    pub fn new(backend: BackendKind) -> Self {
        EngineConfig {
            workers: 4,
            seed: 42,
            backend,
            num_arrays: 1,
            scheduling: ArrayPolicy::AllArrays,
            tempus: TempusConfig::paper_16x16(),
            nvdla: NvdlaConfig::paper_16x16(),
            gemm_grid: (16, 16),
            scratch_budget_elems: None,
        }
    }

    /// Overrides the worker count (builder style).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the scheduler seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the modelled PE-array count (builder style).
    #[must_use]
    pub fn with_arrays(mut self, num_arrays: usize) -> Self {
        self.num_arrays = num_arrays.max(1);
        self
    }

    /// Enables cost-aware array-slot co-scheduling with the default
    /// widening policy (builder style).
    #[must_use]
    pub fn with_co_scheduling(mut self) -> Self {
        self.scheduling = ArrayPolicy::CostAware(WidenPolicy::edge_default());
        self
    }

    /// Overrides both core configurations' precision (builder style).
    #[must_use]
    pub fn with_precision(mut self, precision: IntPrecision) -> Self {
        self.tempus = self.tempus.with_precision(precision);
        self.nvdla = self.nvdla.with_precision(precision);
        self
    }

    /// Overrides the core configurations (builder style).
    #[must_use]
    pub fn with_cores(mut self, tempus: TempusConfig, nvdla: NvdlaConfig) -> Self {
        self.tempus = tempus;
        self.nvdla = nvdla;
        self
    }

    /// Smallest scratch arena `job` can execute under, in elements:
    /// the one-step-`tile_k` floor of the GEMM tile arena, or the
    /// widest per-row fused ring across a network's layers. Conv jobs
    /// stage nothing (0). Shape errors also floor at 0 —
    /// admission defers to execution to surface them as the caller's
    /// job-level failure.
    #[must_use]
    pub fn min_stream_scratch_elems(&self, job: &Job) -> u64 {
        match &job.payload {
            JobPayload::Conv { .. } => 0,
            JobPayload::Gemm { a, b } => {
                let engine = TubGemm::new(
                    self.gemm_grid.0,
                    self.gemm_grid.1,
                    self.tempus.base.precision,
                );
                StreamPlan::min_scratch_elems(&engine, a.rows(), a.cols(), b.cols())
            }
            JobPayload::Network { input, layers } => {
                let (mut w, mut h) = (input.w(), input.h());
                let mut peak = 0u64;
                for layer in layers {
                    let Ok((out_w, out_h)) =
                        layer
                            .conv
                            .output_dims(w, h, layer.kernels.r(), layer.kernels.s())
                    else {
                        return 0;
                    };
                    peak = peak.max(fused::fused_layer_scratch(
                        out_w,
                        layer.kernels.k(),
                        layer.pool.as_ref(),
                    ));
                    (w, h) = match &layer.pool {
                        Some(pool) => match pdp::apply(&DataCube::zeros(out_w, out_h, 1), pool) {
                            Ok(pooled) => (pooled.w(), pooled.h()),
                            Err(_) => return 0,
                        },
                        None => (out_w, out_h),
                    };
                }
                peak
            }
        }
    }
}

/// The synthesized PE array `kind` models under `config`: its family
/// and the core configuration fixing its precision and shape.
fn array_model(config: &EngineConfig, kind: BackendKind) -> (Family, &NvdlaConfig) {
    match kind {
        BackendKind::NvdlaCycleAccurate => (Family::Binary, &config.nvdla),
        BackendKind::TempusCycleAccurate | BackendKind::FastFunctional => {
            (Family::Tub, &config.tempus.base)
        }
    }
}

/// Per-cycle PE-array power for `kind` under `config`, in mW —
/// calibrated synthesis model for the family the backend models, at
/// the configured precision and array shape. Shared by the batch
/// engine and the incremental [`crate::pool::WorkerPool`] so their
/// energy figures agree.
#[must_use]
pub fn array_power_mw(config: &EngineConfig, kind: BackendKind) -> f64 {
    let (family, c) = array_model(config, kind);
    let array = SynthModel::nangate45().pe_array(family, c.precision, c.atomic_k, c.atomic_c);
    array.power_mw
}

/// Static/leakage fraction of [`array_power_mw`] for `kind` under
/// `config`, in `[0, 1)` — from the same structural netlist rollup.
/// The DVFS energy split charges `power × (1 − f)` as dynamic
/// (voltage-squared-scaled) energy on working array-cycles and
/// `power × f` as static energy on busy wall time.
#[must_use]
pub fn array_leakage_fraction(config: &EngineConfig, kind: BackendKind) -> f64 {
    let (family, c) = array_model(config, kind);
    SynthModel::nangate45().leakage_fraction(family, c.precision, c.atomic_k, c.atomic_c)
}

/// A completed batch: per-job results (sorted by id), per-worker
/// records and batch aggregates.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, sorted by job id.
    pub results: Vec<JobResult>,
    /// Per-worker records, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Batch-level aggregates.
    pub aggregate: AggregateStats,
}

impl BatchReport {
    /// Combined digest over all job outputs (in job-id order) —
    /// comparing two backends' batch digests proves bit-identical
    /// results in one comparison.
    #[must_use]
    pub fn output_digest(&self) -> u64 {
        tempus_nvdla::cube::fnv1a(
            self.results
                .iter()
                .flat_map(|r| [r.job_id, r.output.digest()]),
        )
    }
}

/// The inference engine: configure once, run batches.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    config: EngineConfig,
    power: ArrayPower,
}

impl InferenceEngine {
    /// Builds an engine.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoWorkers`] when `workers == 0`.
    pub fn new(config: EngineConfig) -> Result<Self, RuntimeError> {
        if config.workers == 0 {
            return Err(RuntimeError::NoWorkers);
        }
        Ok(InferenceEngine {
            power: ArrayPower::new(&config),
            config,
        })
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Deterministic job order: seeded Fisher–Yates permutation of
    /// `0..n` (SplitMix64 underneath).
    #[must_use]
    pub fn permutation(&self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix64(self.config.seed ^ 0x6A09_E667_F3BC_C908);
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// Executes a batch of jobs across the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the first job error encountered (by worker, then
    /// submission order), or [`RuntimeError::WorkerPanicked`] if a
    /// worker thread died.
    pub fn run_batch(&self, jobs: &[Job]) -> Result<BatchReport, RuntimeError> {
        let order = self.permutation(jobs.len());
        let workers = self.config.workers.min(jobs.len()).max(1);
        // Deal the permuted batch round-robin onto the workers.
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (slot, &job_idx) in order.iter().enumerate() {
            assignments[slot % workers].push(job_idx);
        }

        // Array-slot grants, decided up front in permutation order so
        // they are deterministic for a fixed (jobs, seed) pair: under
        // the cost-aware policy each job gets the width the budget
        // planner picked and the ledger packed; under the all-arrays
        // policy every job keeps the whole core, and the ledger takes
        // each executed result exclusively once the batch is back.
        let mut grants: Vec<ArrayAssignment> =
            vec![ArrayAssignment::full(self.config.num_arrays); jobs.len()];
        let mut ledger = ArrayLedger::new(self.config.num_arrays);
        if let ArrayPolicy::CostAware(policy) = self.config.scheduling {
            let mut planner = ArrayPlanner::new(&self.config, policy);
            for &job_idx in &order {
                let plan = planner.plan_or_single(&jobs[job_idx]);
                grants[job_idx] = ledger.place(&plan, 0).assignment;
            }
        }
        let grants = &grants;

        let batch_start = Instant::now();
        let worker_outputs: Vec<Result<(Vec<JobResult>, WorkerStats), RuntimeError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = assignments
                    .iter()
                    .enumerate()
                    .map(|(worker_idx, assigned)| {
                        let (config, power) = (&self.config, self.power);
                        scope.spawn(move || {
                            // Batch runs always execute at the nominal
                            // level.
                            let mut executor = Executor::new(worker_idx, config, power);
                            let results = (assigned.iter())
                                .map(|&i| executor.execute(&jobs[i], config.backend, grants[i], 0))
                                .collect::<Result<Vec<_>, _>>()?;
                            Ok((results, executor.finish()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(worker, h)| {
                        h.join()
                            .map_err(|_| RuntimeError::WorkerPanicked { worker })
                            .and_then(|r| r)
                    })
                    .collect()
            });
        let wall_ns = batch_start.elapsed().as_nanos() as u64;

        let per_worker = worker_outputs.into_iter().collect::<Result<Vec<_>, _>>()?;
        if self.config.scheduling == ArrayPolicy::AllArrays {
            // Slot `s` of the permutation ran on worker `s % workers`
            // as its `s / workers`-th job.
            for slot in 0..jobs.len() {
                let run = &per_worker[slot % workers].0[slot / workers];
                ledger.place_exclusive(run.sim_cycles, run.total_array_cycles, 0);
            }
        }
        let mut results = Vec::with_capacity(jobs.len());
        let mut worker_stats = Vec::with_capacity(workers);
        for (mut rs, ws) in per_worker {
            results.append(&mut rs);
            worker_stats.push(ws);
        }
        results.sort_by_key(|r| r.job_id);

        let aggregate = AggregateStats::from_results(
            self.config.backend.name(),
            workers,
            &results,
            &worker_stats,
            wall_ns,
            ledger.summary(),
            self.power.static_mw(self.config.backend),
        );
        Ok(BatchReport {
            results,
            workers: worker_stats,
            aggregate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_core::gemm::Matrix;
    use tempus_nvdla::conv::ConvParams;
    use tempus_nvdla::cube::{DataCube, KernelSet};

    fn mixed_jobs(n: u64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    let features = DataCube::from_fn(5, 5, 4, move |x, y, c| {
                        ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7 + i as i32) % 255) - 127
                    });
                    let kernels = KernelSet::from_fn(4, 3, 3, 4, move |k, r, s, c| {
                        ((k as i32 * 13 + r as i32 + s as i32 * 3 + c as i32 * 11 + i as i32) % 255)
                            - 127
                    });
                    Job::conv(
                        i,
                        format!("conv-{i}"),
                        features,
                        kernels,
                        ConvParams::valid(),
                    )
                } else {
                    let a = Matrix::from_fn(5, 6, move |r, c| {
                        ((r as i32 * 31 + c as i32 * 17 + i as i32) % 255) - 127
                    });
                    let b = Matrix::from_fn(6, 4, move |r, c| {
                        ((r as i32 * 13 + c as i32 * 41 + i as i32) % 255) - 127
                    });
                    Job::gemm(i, format!("gemm-{i}"), a, b)
                }
            })
            .collect()
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = EngineConfig::new(BackendKind::FastFunctional).with_workers(0);
        assert!(matches!(
            InferenceEngine::new(cfg),
            Err(RuntimeError::NoWorkers)
        ));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional).with_seed(1))
            .unwrap();
        let b = InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional).with_seed(1))
            .unwrap();
        let c = InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional).with_seed(2))
            .unwrap();
        let pa = a.permutation(64);
        assert_eq!(pa, b.permutation(64));
        assert_ne!(pa, c.permutation(64));
        let mut sorted = pa.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn batch_results_are_sorted_and_reproducible() {
        let jobs = mixed_jobs(24);
        let engine =
            InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional).with_workers(3))
                .unwrap();
        let r1 = engine.run_batch(&jobs).unwrap();
        let r2 = engine.run_batch(&jobs).unwrap();
        assert_eq!(
            r1.results.iter().map(|r| r.job_id).collect::<Vec<_>>(),
            (0..24).collect::<Vec<_>>()
        );
        assert_eq!(r1.output_digest(), r2.output_digest());
        assert_eq!(r1.aggregate.total_sim_cycles, r2.aggregate.total_sim_cycles);
        assert_eq!(r1.aggregate.jobs, 24);
        assert!(r1.aggregate.total_energy_pj > 0.0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let jobs = mixed_jobs(16);
        let digests: Vec<u64> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|w| {
                let engine = InferenceEngine::new(
                    EngineConfig::new(BackendKind::FastFunctional).with_workers(w),
                )
                .unwrap();
                let report = engine.run_batch(&jobs).unwrap();
                assert_eq!(report.aggregate.workers, w.min(16));
                report.output_digest()
            })
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional)).unwrap();
        let report = engine.run_batch(&[]).unwrap();
        assert_eq!(report.aggregate.jobs, 0);
        assert!(report.results.is_empty());
    }

    #[test]
    fn job_errors_propagate_from_workers() {
        let bad = vec![Job::gemm(
            0,
            "mismatched",
            Matrix::zeros(2, 3),
            Matrix::zeros(4, 2),
        )];
        let engine = InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional)).unwrap();
        assert!(matches!(
            engine.run_batch(&bad),
            Err(RuntimeError::Arith(_))
        ));
    }
}
