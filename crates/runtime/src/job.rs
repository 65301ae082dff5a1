//! Inference jobs and their results.

use std::fmt;

use tempus_core::gemm::Matrix;
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::network::NetworkLayer;

/// What a job computes.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// One convolution layer.
    Conv {
        /// Input feature cube.
        features: DataCube,
        /// Kernel weights.
        kernels: KernelSet,
        /// Convolution parameters.
        params: ConvParams,
    },
    /// One dense matrix product (the tuGEMM/tubGEMM workload shape).
    Gemm {
        /// Left operand (binary-held).
        a: Matrix,
        /// Right operand (temporally streamed).
        b: Matrix,
    },
    /// A whole network: convolution + SDP requantization (+ optional
    /// pooling) per layer.
    Network {
        /// Network input cube.
        input: DataCube,
        /// Layers in execution order.
        layers: Vec<NetworkLayer>,
    },
}

impl JobPayload {
    /// Short payload-kind tag for reporting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobPayload::Conv { .. } => "conv",
            JobPayload::Gemm { .. } => "gemm",
            JobPayload::Network { .. } => "network",
        }
    }
}

/// One unit of work submitted to the engine.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-assigned id; results are returned sorted by it.
    pub id: u64,
    /// Human-readable label for reports.
    pub name: String,
    /// The computation.
    pub payload: JobPayload,
}

impl Job {
    /// Builds a convolution job.
    #[must_use]
    pub fn conv(
        id: u64,
        name: impl Into<String>,
        features: DataCube,
        kernels: KernelSet,
        params: ConvParams,
    ) -> Self {
        Job {
            id,
            name: name.into(),
            payload: JobPayload::Conv {
                features,
                kernels,
                params,
            },
        }
    }

    /// Builds a GEMM job.
    #[must_use]
    pub fn gemm(id: u64, name: impl Into<String>, a: Matrix, b: Matrix) -> Self {
        Job {
            id,
            name: name.into(),
            payload: JobPayload::Gemm { a, b },
        }
    }

    /// Builds a whole-network job.
    #[must_use]
    pub fn network(
        id: u64,
        name: impl Into<String>,
        input: DataCube,
        layers: Vec<NetworkLayer>,
    ) -> Self {
        Job {
            id,
            name: name.into(),
            payload: JobPayload::Network { input, layers },
        }
    }

    /// Content-addressed key over everything that determines the
    /// job's output: inputs, weights and parameters — id and name are
    /// excluded, so two requests for the same computation share a key.
    /// The serving layer (`tempus-serve`) uses this to memoize results
    /// above the backend layer.
    #[must_use]
    pub fn content_key(&self) -> u64 {
        match &self.payload {
            JobPayload::Conv {
                features,
                kernels,
                params,
            } => tempus_nvdla::cube::fnv1a(
                [
                    1u64,
                    features.content_hash(),
                    kernels.content_hash(),
                    params.content_hash(),
                ]
                .into_iter(),
            ),
            JobPayload::Gemm { a, b } => {
                tempus_nvdla::cube::fnv1a([2u64, a.content_hash(), b.content_hash()].into_iter())
            }
            JobPayload::Network { input, layers } => tempus_nvdla::cube::fnv1a(
                [3u64, input.content_hash(), layers.len() as u64]
                    .into_iter()
                    .chain(layers.iter().map(NetworkLayer::content_hash)),
            ),
        }
    }
}

/// A job's computed output.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Output cube (conv and network jobs).
    Cube(DataCube),
    /// Output matrix (GEMM jobs).
    Matrix(Matrix),
}

impl JobOutput {
    /// Order-stable content digest, comparable across backends.
    #[must_use]
    pub fn digest(&self) -> u64 {
        match self {
            JobOutput::Cube(cube) => cube.content_hash(),
            JobOutput::Matrix(m) => m.content_hash(),
        }
    }
}

/// One executed job's result.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Id of the job this answers.
    pub job_id: u64,
    /// Job label.
    pub job_name: String,
    /// Payload-kind tag (`conv`/`gemm`/`network`).
    pub kind: &'static str,
    /// The computed output.
    pub output: JobOutput,
    /// Modelled job latency in datapath cycles (simulated or
    /// closed-form, per backend); on a multi-array backend, the
    /// sharded critical path.
    pub sim_cycles: u64,
    /// Array-cycles summed over every shard (equals `sim_cycles` on a
    /// single array); energy scales with this.
    pub total_array_cycles: u64,
    /// PE arrays the job occupied (1 on single-array backends).
    pub shards: usize,
    /// Work balance across the arrays (1.0 when single-array or
    /// perfectly balanced).
    pub shard_utilization: f64,
    /// Arrays the scheduler requested for the job (the cost-aware
    /// width, or the full configured width under the all-arrays
    /// policy).
    pub arrays_requested: usize,
    /// Arrays the array-slot ledger granted — the width the backend
    /// executed with. Equals `arrays_requested` except when the
    /// ledger shrank the grant to start the job on idle arrays.
    pub arrays_granted: usize,
    /// Device cycles the job waited past the earliest free array to
    /// gather its granted set (0 without co-scheduling).
    pub array_wait_cycles: u64,
    /// Modelled energy at the executed frequency level, in pJ
    /// (`dynamic_energy_pj + static_energy_pj`).
    pub energy_pj: f64,
    /// Dynamic (switching) share of `energy_pj` — scales with the
    /// square of the supply voltage under DVFS.
    pub dynamic_energy_pj: f64,
    /// Static (leakage) share of `energy_pj`, charged on the busy
    /// wall window — stretches with the period under DVFS.
    pub static_energy_pj: f64,
    /// DVFS ladder level the job's arrays ran at (0 = nominal
    /// 250 MHz; always 0 with the frequency governor off).
    pub freq_level: u8,
    /// Host wall-clock spent executing the job, in nanoseconds.
    pub wall_ns: u64,
    /// Which worker ran it.
    pub worker: usize,
    /// Per-shard busy cycles, shard order (`[sim_cycles]` on one
    /// array, empty on whole-network jobs) — the telemetry layer
    /// renders two or more as per-array spans on the device timeline.
    pub per_shard_cycles: Vec<u64>,
    /// Cycles of the cross-array reduction stage within `sim_cycles`.
    pub reduction_cycles: u64,
    /// Window-batch cycles from `TempusStats` (cycle-accurate Tempus
    /// conv paths only).
    pub window_cycles: u64,
    /// Peak scratch high-water mark in elements: the GEMM tile arena
    /// or the widest fused network ring (0 on conv jobs).
    pub peak_scratch_elems: u64,
}

impl fmt::Display for JobResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} [{}] {}: {} cycles, {:.1} pJ, worker {}",
            self.job_id, self.kind, self.job_name, self.sim_cycles, self.energy_pj, self.worker
        )?;
        if self.shards > 1 {
            write!(
                f,
                ", {} arrays ({:.0}% balanced)",
                self.shards,
                self.shard_utilization * 100.0
            )?;
        }
        if self.arrays_granted < self.arrays_requested {
            write!(
                f,
                ", granted {}/{} arrays",
                self.arrays_granted, self.arrays_requested
            )?;
        }
        if self.array_wait_cycles > 0 {
            write!(f, ", waited {} cycles for arrays", self.array_wait_cycles)?;
        }
        Ok(())
    }
}
