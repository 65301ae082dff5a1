//! Pluggable inference backends behind one trait.
//!
//! Three implementations of [`InferenceBackend`]:
//!
//! * [`TempusBackend`] — the cycle-accurate Tempus Core simulation
//!   (authoritative cycles, slowest);
//! * [`NvdlaBackend`] — the cycle-accurate binary NVDLA baseline;
//! * [`FunctionalBackend`] — computes **bit-identical outputs**
//!   through the golden functional models while reporting Tempus Core
//!   latency via the closed-form model (with per-worker stripe
//!   schedule caching) — orders of magnitude faster, for large
//!   sweeps.
//!
//! The equivalence contract — same outputs everywhere, and
//! `FunctionalBackend` cycles exactly equal to `TempusBackend` cycles
//! — is enforced by the workspace's property tests.

use tempus_core::gemm::{Matrix, TubGemm};
use tempus_core::schedule::{CacheStats, ScheduleCache};
use tempus_core::shard::{self, ShardAccum};
use tempus_core::streaming::StreamPlan;
use tempus_core::{TempusConfig, TempusCore};
use tempus_nvdla::config::NvdlaConfig;
use tempus_nvdla::conv::direct_conv;
use tempus_nvdla::cube::DataCube;
use tempus_nvdla::fused;
use tempus_nvdla::network::NetworkLayer;
use tempus_nvdla::pipeline::{ConvCore, NvdlaConvCore};

use crate::error::RuntimeError;
use crate::job::{Job, JobOutput, JobPayload};

/// Output plus the backend's modelled cycle counts and multi-array
/// shard accounting.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The computed output.
    pub output: JobOutput,
    /// Modelled job latency in datapath cycles. On a multi-array
    /// backend this is the **sharded critical path**: the slowest
    /// shard plus any cross-array reduction stage.
    pub sim_cycles: u64,
    /// Array-cycles summed over every shard (equals `sim_cycles` on a
    /// single array) — the figure energy accounting scales with, since
    /// every array burns power while it runs.
    pub total_array_cycles: u64,
    /// PE arrays the job actually occupied.
    pub shards: usize,
    /// Work balance across the arrays: summed shard cycles over
    /// `shards × slowest shard` (1.0 when single-array or perfectly
    /// balanced).
    pub shard_utilization: f64,
    /// Per-shard busy cycles, one per occupied array, shard order
    /// (`[sim_cycles]` on one array). Empty on whole-network jobs,
    /// whose layers shard independently. Telemetry renders a vector
    /// of length 0 or 1 as one flat busy interval instead of per-shard
    /// spans.
    pub per_shard_cycles: Vec<u64>,
    /// Cycles of the cross-array reduction stage included in
    /// `sim_cycles` (0 when the split needed no reduction).
    pub reduction_cycles: u64,
    /// Window-batch cycles reported by `TempusStats` — non-zero only
    /// on the cycle-accurate Tempus conv paths, where the PCU
    /// actually streams windows.
    pub window_cycles: u64,
    /// Peak scratch high-water mark in elements: the GEMM tile arena
    /// or the widest fused per-row ring of a network. The Tempus
    /// backend observes it; the functional and NVDLA backends report
    /// the same closed form. 0 on conv jobs, which stage nothing.
    pub peak_scratch_elems: u64,
}

impl Execution {
    /// Attaches the window-batch cycle count (builder style).
    #[must_use]
    pub fn with_window_cycles(mut self, window_cycles: u64) -> Self {
        self.window_cycles = window_cycles;
        self
    }

    /// Attaches the scratch high-water mark (builder style).
    #[must_use]
    pub fn with_peak_scratch(mut self, peak_scratch_elems: u64) -> Self {
        self.peak_scratch_elems = peak_scratch_elems;
        self
    }
}

/// The one place a GEMM picks its window depth, shared by all
/// backends so they cannot drift: under a scratch budget, the deepest
/// plan fitting it (clamped to the one-step floor when even that does
/// not fit — the honest peak is still reported, and budget
/// *enforcement* is the admission layer's job); without one, the
/// whole operand in one window.
fn gemm_stream_plan(engine: &TubGemm, a: &Matrix, b: &Matrix, budget: Option<u64>) -> StreamPlan {
    let (m, n, p) = (a.rows(), a.cols(), b.cols());
    match budget {
        Some(budget) => {
            StreamPlan::for_budget(engine, m, n, p, budget).unwrap_or_else(|| StreamPlan::new(1))
        }
        None => StreamPlan::new(n.max(1)),
    }
}

/// The functional GEMM shared by the functional and NVDLA backends:
/// the product through [`Matrix::multiply`] and the peak scratch the
/// Tempus backend's arena would observe under the same plan.
fn modelled_gemm(
    engine: &TubGemm,
    a: &Matrix,
    b: &Matrix,
    budget: Option<u64>,
) -> Result<(Matrix, u64), RuntimeError> {
    let plan = gemm_stream_plan(engine, a, b, budget);
    let scratch = plan.peak_scratch_elems(engine, a.rows(), a.cols(), b.cols());
    Ok((a.multiply(b)?, scratch))
}

/// The pluggable backend contract: every worker owns one instance
/// (`Send`, no shared state) and executes whole jobs.
pub trait InferenceBackend: Send {
    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Executes one job at the backend's full configured width.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (shape, precision, capacity).
    fn execute(&mut self, job: &Job) -> Result<Execution, RuntimeError>;

    /// Executes one job on `num_arrays` of the backend's PE arrays —
    /// the array-slot scheduler's entry point. The contract: the run
    /// is **bit-identical** (outputs, cycles, shard accounting) to a
    /// backend configured with `num_arrays` executing the same job,
    /// so a granted width fully determines the result.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (shape, precision, capacity).
    fn execute_on(&mut self, job: &Job, num_arrays: usize) -> Result<Execution, RuntimeError>;

    /// Schedule-cache counters, for backends that cache.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// The one place a sharded single-layer run (conv or GEMM, any
/// backend) folds into an [`Execution`]: latency is the critical path
/// (slowest shard plus reduction), the energy-bearing array-cycles
/// are the per-shard sum, and balance comes from the same cycle
/// vector — so the three backends cannot drift in how they merge.
fn sharded_execution(
    output: JobOutput,
    used_arrays: usize,
    per_shard_cycles: &[u64],
    reduction_cycles: u64,
) -> Execution {
    let max_shard = per_shard_cycles.iter().copied().max().unwrap_or(0);
    Execution {
        output,
        sim_cycles: max_shard + reduction_cycles,
        total_array_cycles: per_shard_cycles.iter().sum(),
        shards: used_arrays,
        shard_utilization: shard::balance(per_shard_cycles),
        per_shard_cycles: per_shard_cycles.to_vec(),
        reduction_cycles,
        window_cycles: 0,
        peak_scratch_elems: 0,
    }
}

/// The whole-network counterpart: per-layer critical paths sum, the
/// accumulator carries occupancy and balance across layers.
fn network_execution(
    output: DataCube,
    critical_path_cycles: u64,
    total_array_cycles: u64,
    accum: &ShardAccum,
) -> Execution {
    Execution {
        output: JobOutput::Cube(output),
        sim_cycles: critical_path_cycles,
        total_array_cycles,
        shards: accum.max_used(),
        shard_utilization: accum.balance(),
        per_shard_cycles: Vec::new(),
        reduction_cycles: 0,
        window_cycles: 0,
        peak_scratch_elems: 0,
    }
}

/// Which backend an engine instantiates per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Cycle-accurate Tempus Core.
    TempusCycleAccurate,
    /// Cycle-accurate binary NVDLA baseline.
    NvdlaCycleAccurate,
    /// Fast functional model with closed-form Tempus latency.
    FastFunctional,
}

impl BackendKind {
    /// All backends, in comparison order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::TempusCycleAccurate,
        BackendKind::NvdlaCycleAccurate,
        BackendKind::FastFunctional,
    ];

    /// Stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::TempusCycleAccurate => "tempus-cycle-accurate",
            BackendKind::NvdlaCycleAccurate => "nvdla-cycle-accurate",
            BackendKind::FastFunctional => "fast-functional",
        }
    }

    /// Builds one worker-owned backend instance modelling a DLA with
    /// `num_arrays` PE arrays whose GEMMs stage through at most
    /// `scratch_budget_elems` of scratch (`None`: whole-operand
    /// windows).
    #[must_use]
    pub fn instantiate(
        self,
        tempus: TempusConfig,
        nvdla: NvdlaConfig,
        gemm_grid: (usize, usize),
        num_arrays: usize,
        scratch_budget_elems: Option<u64>,
    ) -> Box<dyn InferenceBackend> {
        match self {
            BackendKind::TempusCycleAccurate => Box::new(TempusBackend {
                scratch_budget_elems,
                ..TempusBackend::new(tempus, gemm_grid).with_arrays(num_arrays)
            }),
            BackendKind::NvdlaCycleAccurate => Box::new(NvdlaBackend {
                scratch_budget_elems,
                ..NvdlaBackend::new(nvdla, gemm_grid).with_arrays(num_arrays)
            }),
            BackendKind::FastFunctional => Box::new(FunctionalBackend {
                scratch_budget_elems,
                ..FunctionalBackend::new(tempus, gemm_grid).with_arrays(num_arrays)
            }),
        }
    }
}

/// Executes a whole network on a cycle-accurate core, shared by the
/// Tempus and NVDLA backends: each layer's convolution runs on the
/// core, sharded across `num_arrays`, then SDP and pooling fuse per
/// conv output row through the bounded ring, never materializing the
/// intermediate requantized cube. Bit-identical to
/// [`tempus_nvdla::network::run_network`], the materialized oracle.
/// Latency is the sum of per-layer critical paths; the peak scratch
/// is the widest fused ring.
fn network_on_core<C: ConvCore>(
    core: &mut C,
    input: &DataCube,
    layers: &[NetworkLayer],
    num_arrays: usize,
) -> Result<Execution, RuntimeError> {
    let mut x = input.clone();
    let mut critical = 0u64;
    let mut total_array = 0u64;
    let mut accum = ShardAccum::new();
    let mut peak_scratch = 0u64;
    for layer in layers {
        let run = shard::convolve_sharded_with(
            core,
            &x,
            &layer.kernels,
            &layer.conv,
            num_arrays,
            |_| {},
        )?;
        critical += run.critical_path_cycles;
        total_array += run.stats.cycles;
        accum.add(&run.per_shard_cycles());
        let fused = fused::fuse_post_conv(&run.output, &layer.sdp, layer.pool.as_ref())?;
        peak_scratch = peak_scratch.max(fused.peak_scratch_elems);
        x = fused.output;
    }
    Ok(network_execution(x, critical, total_array, &accum).with_peak_scratch(peak_scratch))
}

/// Cycle-accurate Tempus Core backend.
#[derive(Debug, Clone)]
pub struct TempusBackend {
    core: TempusCore,
    gemm: TubGemm,
    num_arrays: usize,
    scratch_budget_elems: Option<u64>,
}

impl TempusBackend {
    /// Creates a single-array backend; the GEMM path uses a `grid` PE
    /// array at the core's precision.
    #[must_use]
    pub fn new(config: TempusConfig, grid: (usize, usize)) -> Self {
        TempusBackend {
            gemm: TubGemm::new(grid.0, grid.1, config.base.precision),
            core: TempusCore::new(config),
            num_arrays: 1,
            scratch_budget_elems: None,
        }
    }

    /// Models a DLA with `num_arrays` PE arrays (builder style): jobs
    /// are sharded across the arrays and latency is the critical path.
    #[must_use]
    pub fn with_arrays(mut self, num_arrays: usize) -> Self {
        self.num_arrays = num_arrays.max(1);
        self
    }
}

impl InferenceBackend for TempusBackend {
    fn name(&self) -> &'static str {
        BackendKind::TempusCycleAccurate.name()
    }

    fn execute(&mut self, job: &Job) -> Result<Execution, RuntimeError> {
        let arrays = self.num_arrays;
        self.execute_on(job, arrays)
    }

    fn execute_on(&mut self, job: &Job, num_arrays: usize) -> Result<Execution, RuntimeError> {
        match &job.payload {
            JobPayload::Conv {
                features,
                kernels,
                params,
            } => {
                let run = self
                    .core
                    .convolve_sharded(features, kernels, params, num_arrays)?;
                let per_shard = run.per_shard_cycles();
                let windows = self.core.last_tempus_stats().total_window_cycles;
                Ok(sharded_execution(
                    JobOutput::Cube(run.output),
                    run.plan.used_arrays(),
                    &per_shard,
                    run.reduction_cycles,
                )
                .with_window_cycles(windows))
            }
            JobPayload::Gemm { a, b } => {
                let plan = gemm_stream_plan(&self.gemm, a, b, self.scratch_budget_elems);
                let streamed = self
                    .gemm
                    .multiply_sharded_streamed(a, b, num_arrays, &plan)?;
                Ok(sharded_execution(
                    JobOutput::Matrix(streamed.run.output),
                    streamed.run.plan.used_arrays(),
                    &streamed.run.per_shard_cycles,
                    0,
                )
                .with_peak_scratch(streamed.stream.peak_scratch_elems))
            }
            JobPayload::Network { input, layers } => {
                network_on_core(&mut self.core, input, layers, num_arrays)
            }
        }
    }
}

/// Cycle-accurate binary NVDLA baseline backend.
#[derive(Debug, Clone)]
pub struct NvdlaBackend {
    core: NvdlaConvCore,
    gemm: TubGemm,
    num_arrays: usize,
    scratch_budget_elems: Option<u64>,
}

impl NvdlaBackend {
    /// Creates a single-array backend; GEMMs model a `grid` MAC array.
    #[must_use]
    pub fn new(config: NvdlaConfig, grid: (usize, usize)) -> Self {
        NvdlaBackend {
            gemm: TubGemm::new(grid.0, grid.1, config.precision),
            core: NvdlaConvCore::new(config),
            num_arrays: 1,
            scratch_budget_elems: None,
        }
    }

    /// Models a DLA with `num_arrays` MAC arrays (builder style).
    #[must_use]
    pub fn with_arrays(mut self, num_arrays: usize) -> Self {
        self.num_arrays = num_arrays.max(1);
        self
    }

    /// Binary outer-product GEMM cycle model: one rank-1 update per
    /// cycle per grid tile (no temporal streaming).
    fn binary_gemm_cycles(&self, a: &Matrix, b: &Matrix) -> u64 {
        let m_tiles = a.rows().div_ceil(self.gemm.grid_m()) as u64;
        let p_tiles = b.cols().div_ceil(self.gemm.grid_p()) as u64;
        m_tiles * p_tiles * a.cols() as u64
    }

    /// Per-shard binary GEMM cycles under the multi-array tile split:
    /// the sharded axis's tile count partitions, the other axis stays
    /// whole.
    fn sharded_binary_gemm_cycles(
        &self,
        a: &Matrix,
        b: &Matrix,
        num_arrays: usize,
    ) -> (usize, Vec<u64>) {
        let m_tiles = a.rows().div_ceil(self.gemm.grid_m());
        let p_tiles = b.cols().div_ceil(self.gemm.grid_p());
        let plan = shard::plan_gemm(m_tiles, p_tiles, num_arrays);
        let n = a.cols() as u64;
        let per_shard = match plan.axis {
            shard::GemmAxis::Single => vec![self.binary_gemm_cycles(a, b)],
            shard::GemmAxis::Cols => plan
                .tiles
                .iter()
                .map(|&(lo, hi)| m_tiles as u64 * (hi - lo) as u64 * n)
                .collect(),
            shard::GemmAxis::Rows => plan
                .tiles
                .iter()
                .map(|&(lo, hi)| (hi - lo) as u64 * p_tiles as u64 * n)
                .collect(),
        };
        (plan.used_arrays(), per_shard)
    }
}

impl InferenceBackend for NvdlaBackend {
    fn name(&self) -> &'static str {
        BackendKind::NvdlaCycleAccurate.name()
    }

    fn execute(&mut self, job: &Job) -> Result<Execution, RuntimeError> {
        let arrays = self.num_arrays;
        self.execute_on(job, arrays)
    }

    fn execute_on(&mut self, job: &Job, num_arrays: usize) -> Result<Execution, RuntimeError> {
        match &job.payload {
            JobPayload::Conv {
                features,
                kernels,
                params,
            } => {
                let run = shard::convolve_sharded_with(
                    &mut self.core,
                    features,
                    kernels,
                    params,
                    num_arrays,
                    |_| {},
                )?;
                let per_shard = run.per_shard_cycles();
                Ok(sharded_execution(
                    JobOutput::Cube(run.output),
                    run.plan.used_arrays(),
                    &per_shard,
                    run.reduction_cycles,
                ))
            }
            JobPayload::Gemm { a, b } => {
                let precision = self.core.config().precision;
                precision.check_all(a.as_slice())?;
                precision.check_all(b.as_slice())?;
                let (shards, per_shard) = self.sharded_binary_gemm_cycles(a, b, num_arrays);
                // Staging hides behind compute, so the binary cycle
                // model ignores the arena; only its size is reported.
                let (output, scratch) = modelled_gemm(&self.gemm, a, b, self.scratch_budget_elems)?;
                Ok(
                    sharded_execution(JobOutput::Matrix(output), shards, &per_shard, 0)
                        .with_peak_scratch(scratch),
                )
            }
            JobPayload::Network { input, layers } => {
                network_on_core(&mut self.core, input, layers, num_arrays)
            }
        }
    }
}

/// Fast functional backend: golden-model outputs, closed-form Tempus
/// latency, per-worker schedule caching.
#[derive(Debug, Clone)]
pub struct FunctionalBackend {
    config: TempusConfig,
    gemm: TubGemm,
    cache: ScheduleCache,
    num_arrays: usize,
    scratch_budget_elems: Option<u64>,
}

impl FunctionalBackend {
    /// Creates a single-array backend with an empty schedule cache.
    #[must_use]
    pub fn new(config: TempusConfig, grid: (usize, usize)) -> Self {
        FunctionalBackend {
            gemm: TubGemm::new(grid.0, grid.1, config.base.precision),
            config,
            cache: ScheduleCache::new(),
            num_arrays: 1,
            scratch_budget_elems: None,
        }
    }

    /// Models a DLA with `num_arrays` PE arrays (builder style): the
    /// closed-form latency reproduces the sharded critical path of the
    /// cycle-accurate multi-array engine exactly.
    #[must_use]
    pub fn with_arrays(mut self, num_arrays: usize) -> Self {
        self.num_arrays = num_arrays.max(1);
        self
    }
}

impl InferenceBackend for FunctionalBackend {
    fn name(&self) -> &'static str {
        BackendKind::FastFunctional.name()
    }

    fn execute(&mut self, job: &Job) -> Result<Execution, RuntimeError> {
        let arrays = self.num_arrays;
        self.execute_on(job, arrays)
    }

    fn execute_on(&mut self, job: &Job, num_arrays: usize) -> Result<Execution, RuntimeError> {
        match &job.payload {
            JobPayload::Conv {
                features,
                kernels,
                params,
            } => {
                tempus_nvdla::conv::check_operands(features, kernels, self.config.base.precision)?;
                let latency = self.cache.predict_sharded(
                    features,
                    kernels,
                    params,
                    &self.config,
                    num_arrays,
                )?;
                let output = direct_conv(features, kernels, params)?;
                Ok(sharded_execution(
                    JobOutput::Cube(output),
                    latency.plan.used_arrays(),
                    &latency.per_shard_cycles,
                    latency.reduction_cycles,
                ))
            }
            JobPayload::Gemm { a, b } => {
                self.config.base.precision.check_all(a.as_slice())?;
                self.config.base.precision.check_all(b.as_slice())?;
                let (output, scratch) = modelled_gemm(&self.gemm, a, b, self.scratch_budget_elems)?;
                // One closed-form window model serves every width:
                // double buffering hides staging, so the cycles are
                // the cycle-accurate arena's at any window depth.
                let (plan, per_shard) = self.gemm.cost_profile(a, b).at(num_arrays);
                Ok(
                    sharded_execution(JobOutput::Matrix(output), plan.used_arrays(), &per_shard, 0)
                        .with_peak_scratch(scratch),
                )
            }
            JobPayload::Network { input, layers } => {
                self.run_network_functional(input, layers, num_arrays)
            }
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }
}

impl FunctionalBackend {
    /// Network execution mirroring
    /// [`tempus_nvdla::network::run_network`] with closed-form sharded
    /// latency (each layer's memoized cost profile priced at
    /// `num_arrays`). Each layer runs through
    /// [`fused::run_layer_fused`] — the conv output cube never
    /// materializes — and the fused-ring peak scratch (max over
    /// layers) is attached.
    fn run_network_functional(
        &mut self,
        input: &DataCube,
        layers: &[NetworkLayer],
        num_arrays: usize,
    ) -> Result<Execution, RuntimeError> {
        let mut x = input.clone();
        let mut critical = 0u64;
        let mut total_array = 0u64;
        let mut accum = ShardAccum::new();
        let mut peak_scratch = 0u64;
        for layer in layers {
            tempus_nvdla::conv::check_operands(&x, &layer.kernels, self.config.base.precision)?;
            let latency = self.cache.predict_sharded(
                &x,
                &layer.kernels,
                &layer.conv,
                &self.config,
                num_arrays,
            )?;
            critical += latency.critical_path_cycles;
            total_array += latency.total_array_cycles;
            accum.add(&latency.per_shard_cycles);
            let fused = fused::run_layer_fused(&x, layer)?;
            peak_scratch = peak_scratch.max(fused.peak_scratch_elems);
            x = fused.output;
        }
        Ok(network_execution(x, critical, total_array, &accum).with_peak_scratch(peak_scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_nvdla::conv::ConvParams;
    use tempus_nvdla::cube::KernelSet;

    fn conv_job(id: u64) -> Job {
        let features = DataCube::from_fn(6, 6, 8, |x, y, c| {
            ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7) % 255) - 127
        });
        let kernels = KernelSet::from_fn(8, 3, 3, 8, |k, r, s, c| {
            ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11) % 255) - 127
        });
        Job::conv(
            id,
            "conv",
            features,
            kernels,
            ConvParams::unit_stride_same(3),
        )
    }

    fn gemm_job(id: u64) -> Job {
        let a = Matrix::from_fn(7, 9, |i, j| ((i as i32 * 31 + j as i32 * 17) % 255) - 127);
        let b = Matrix::from_fn(9, 5, |i, j| ((i as i32 * 13 + j as i32 * 41) % 255) - 127);
        Job::gemm(id, "gemm", a, b)
    }

    fn network_job(id: u64) -> Job {
        let input = DataCube::from_fn(6, 6, 4, |x, y, c| {
            ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7) % 255) - 127
        });
        let k1 = KernelSet::from_fn(8, 3, 3, 4, |k, r, s, c| {
            ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11) % 255) - 127
        });
        let k2 = KernelSet::from_fn(4, 3, 3, 8, |k, r, s, c| {
            ((k as i32 * 7 + r as i32 * 3 + s as i32 * 5 + c as i32) % 255) - 127
        });
        let layers = vec![
            NetworkLayer::conv_relu(
                "l1",
                k1,
                ConvParams::unit_stride_same(3),
                6,
                tempus_arith::IntPrecision::Int8,
            ),
            NetworkLayer::conv_relu(
                "l2",
                k2,
                ConvParams::unit_stride_same(3),
                6,
                tempus_arith::IntPrecision::Int8,
            )
            .with_pool(tempus_nvdla::pdp::PoolParams::max(2)),
        ];
        Job::network(id, "net", input, layers)
    }

    #[test]
    fn functional_conv_matches_tempus_exactly() {
        let mut tempus = TempusBackend::new(TempusConfig::nv_small(), (4, 4));
        let mut fast = FunctionalBackend::new(TempusConfig::nv_small(), (4, 4));
        let job = conv_job(1);
        let t = tempus.execute(&job).unwrap();
        let f = fast.execute(&job).unwrap();
        assert_eq!(t.output, f.output);
        assert_eq!(t.sim_cycles, f.sim_cycles);
    }

    #[test]
    fn functional_gemm_matches_tempus_exactly() {
        let mut tempus = TempusBackend::new(TempusConfig::nv_small(), (4, 4));
        let mut fast = FunctionalBackend::new(TempusConfig::nv_small(), (4, 4));
        let job = gemm_job(2);
        let t = tempus.execute(&job).unwrap();
        let f = fast.execute(&job).unwrap();
        assert_eq!(t.output, f.output);
        assert_eq!(t.sim_cycles, f.sim_cycles);
        assert_eq!(t.output.digest(), f.output.digest());
    }

    #[test]
    fn nvdla_agrees_on_outputs_with_different_cycles() {
        let mut tempus = TempusBackend::new(TempusConfig::nv_small(), (4, 4));
        let mut nvdla = NvdlaBackend::new(NvdlaConfig::nv_small(), (4, 4));
        for job in [conv_job(3), gemm_job(4)] {
            let t = tempus.execute(&job).unwrap();
            let n = nvdla.execute(&job).unwrap();
            assert_eq!(t.output, n.output, "{}", job.name);
            assert!(t.sim_cycles > n.sim_cycles, "tub pays a latency premium");
        }
    }

    #[test]
    fn out_of_precision_jobs_are_rejected() {
        let a = Matrix::from_fn(2, 2, |_, _| 1000);
        let b = Matrix::from_fn(2, 2, |_, _| 1);
        let job = Job::gemm(9, "hot", a, b);
        let mut fast = FunctionalBackend::new(TempusConfig::nv_small(), (4, 4));
        assert!(matches!(fast.execute(&job), Err(RuntimeError::Arith(_))));
    }

    #[test]
    fn multi_array_backends_agree_on_outputs_and_cycles() {
        // Tempus and functional backends must agree on the sharded
        // critical path, array-cycles, occupancy and balance for every
        // array count; NVDLA agrees on outputs. Width 1 is one more
        // sharded run: one shard whose cycles are the job's latency.
        for arrays in [1usize, 2, 3, 4, 8] {
            let mut tempus =
                TempusBackend::new(TempusConfig::nv_small(), (4, 4)).with_arrays(arrays);
            let mut fast =
                FunctionalBackend::new(TempusConfig::nv_small(), (4, 4)).with_arrays(arrays);
            let mut nvdla = NvdlaBackend::new(NvdlaConfig::nv_small(), (4, 4)).with_arrays(arrays);
            for job in [conv_job(10), gemm_job(11)] {
                let t = tempus.execute(&job).unwrap();
                let f = fast.execute(&job).unwrap();
                let n = nvdla.execute(&job).unwrap();
                assert_eq!(t.output, f.output, "{} arrays={arrays}", job.name);
                assert_eq!(t.output, n.output, "{} arrays={arrays}", job.name);
                assert_eq!(t.sim_cycles, f.sim_cycles, "{} arrays={arrays}", job.name);
                assert_eq!(
                    t.total_array_cycles, f.total_array_cycles,
                    "{} arrays={arrays}",
                    job.name
                );
                assert_eq!(t.shards, f.shards, "{} arrays={arrays}", job.name);
                assert_eq!(
                    t.shard_utilization.to_bits(),
                    f.shard_utilization.to_bits(),
                    "{} arrays={arrays}",
                    job.name
                );
                assert_eq!(t.per_shard_cycles, f.per_shard_cycles, "{}", job.name);
                assert_eq!(t.reduction_cycles, f.reduction_cycles, "{}", job.name);
                if arrays == 1 {
                    for (backend, run) in [("tempus", &t), ("fast", &f), ("nvdla", &n)] {
                        let tag = format!("{backend} {} arrays=1", job.name);
                        assert_eq!(run.shards, 1, "{tag}");
                        assert_eq!(run.per_shard_cycles, [run.sim_cycles], "{tag}");
                        assert_eq!(run.reduction_cycles, 0, "{tag}");
                        assert_eq!(run.total_array_cycles, run.sim_cycles, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_array_conv_cuts_latency_and_conserves_output() {
        // 8 kernels on an 8-cell array is a single kernel group, so 2
        // arrays fall back to channel-group splitting (32 channels =
        // 4 groups) with the cross-array reduction stage.
        let features = DataCube::from_fn(6, 6, 32, |x, y, c| {
            ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7) % 255) - 127
        });
        let kernels = tempus_nvdla::cube::KernelSet::from_fn(8, 3, 3, 32, |k, r, s, c| {
            ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11) % 255) - 127
        });
        let job = Job::conv(
            20,
            "wide-conv",
            features,
            kernels,
            tempus_nvdla::conv::ConvParams::valid(),
        );
        let mut single = TempusBackend::new(TempusConfig::nv_small(), (4, 4));
        let mut dual = TempusBackend::new(TempusConfig::nv_small(), (4, 4)).with_arrays(2);
        let s = single.execute(&job).unwrap();
        let d = dual.execute(&job).unwrap();
        assert_eq!(s.output, d.output);
        assert_eq!(d.shards, 2);
        assert!(d.sim_cycles < s.sim_cycles);
        assert!(d.total_array_cycles >= s.sim_cycles);
    }

    #[test]
    fn backends_report_one_scratch_figure() {
        // Every GEMM and network execution reports its scratch: the
        // Tempus arena observes it, the functional and NVDLA backends
        // model the same closed form, at every width and budget
        // (including the sub-floor 8). Outputs, cycles and shard
        // fields agree as everywhere else.
        for budget in [None, Some(200), Some(8)] {
            for arrays in [1usize, 3] {
                let mut backends = BackendKind::ALL.map(|kind| {
                    kind.instantiate(
                        TempusConfig::nv_small(),
                        NvdlaConfig::nv_small(),
                        (4, 4),
                        arrays,
                        budget,
                    )
                });
                for job in [gemm_job(30), network_job(31)] {
                    let [t, n, f] = backends.each_mut().map(|b| b.execute(&job).unwrap());
                    let tag = format!("{} arrays={arrays} budget={budget:?}", job.name);
                    assert!(t.peak_scratch_elems > 0, "{tag}");
                    for other in [&n, &f] {
                        assert_eq!(other.output, t.output, "{tag}");
                        assert_eq!(other.peak_scratch_elems, t.peak_scratch_elems, "{tag}");
                    }
                    assert_eq!(f.sim_cycles, t.sim_cycles, "{tag}");
                    assert_eq!(f.total_array_cycles, t.total_array_cycles, "{tag}");
                    assert_eq!(f.shards, t.shards, "{tag}");
                }
            }
        }
    }

    #[test]
    fn scratch_budget_caps_streamed_gemm_arena() {
        let with_budget = |budget| FunctionalBackend {
            scratch_budget_elems: Some(budget),
            ..FunctionalBackend::new(TempusConfig::nv_small(), (4, 4))
        };
        let run = with_budget(200).execute(&gemm_job(40)).unwrap();
        assert!(run.peak_scratch_elems > 0 && run.peak_scratch_elems <= 200);
        // An infeasible budget clamps to the one-step-window floor
        // and reports the honest (over-budget) peak; rejecting such
        // jobs is the serving layer's admission decision.
        let clamped = with_budget(1).execute(&gemm_job(41)).unwrap();
        assert!(clamped.peak_scratch_elems > 1);
    }

    #[test]
    fn backend_kinds_instantiate() {
        for kind in BackendKind::ALL {
            let mut backend = kind.instantiate(
                TempusConfig::nv_small(),
                NvdlaConfig::nv_small(),
                (4, 4),
                2,
                None,
            );
            let run = backend.execute(&conv_job(7)).unwrap();
            assert!(run.sim_cycles > 0);
            assert_eq!(backend.name(), kind.name());
        }
    }
}
