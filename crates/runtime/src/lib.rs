//! **tempus-runtime**: a batched, multi-threaded inference engine over
//! the Tempus Core reproduction, with pluggable fast/cycle-accurate
//! backends.
//!
//! The paper positions Tempus Core as a drop-in convolution core for
//! edge DLAs serving real workloads; this crate supplies the serving
//! layer above the core — in the spirit of the streaming/scheduling
//! frameworks the related Tempus/tuGEMM work argues for:
//!
//! * [`job`] — request-oriented work units: single convolutions, GEMMs
//!   (the tuGEMM workload shape) and whole networks;
//! * [`backend`] — one [`InferenceBackend`] trait, three
//!   implementations: the cycle-accurate Tempus Core
//!   ([`TempusBackend`]), the cycle-accurate NVDLA binary baseline
//!   ([`NvdlaBackend`]), and the **fast functional backend**
//!   ([`FunctionalBackend`]) that computes bit-identical outputs
//!   through the golden models while reporting Tempus latency via the
//!   closed-form model — orders of magnitude faster for large sweeps;
//! * [`engine`] — the worker pool: a deterministic seeded scheduler
//!   permutes the batch and deals it round-robin to worker threads,
//!   each owning its core instance and per-worker CSC stripe-schedule
//!   cache ([`tempus_core::schedule`]);
//! * [`pool`] — the resident [`WorkerPool`]: incremental one-job-at-a-
//!   time submission with streaming outcomes and per-worker backends
//!   that persist (caches included) across submissions — the substrate
//!   the `tempus-serve` streaming service builds on;
//! * [`ledger`] — the **array-slot scheduler**: a device-time
//!   [`ArrayLedger`] modelling the N PE arrays as a shared pool with
//!   per-array busy-until clocks, granting concurrent jobs disjoint
//!   array sets instead of handing every job the whole core;
//! * [`planner`] — the cost-aware [`ArrayPlanner`]: picks how many
//!   arrays a job should take by walking the closed-form width/cost
//!   curve until the marginal speedup of one more array stops paying;
//! * [`stats`] — aggregate throughput/latency/energy statistics,
//!   including the device-time makespan and packing efficiency.
//!
//! Equivalence contract (enforced by tests): for any job, all three
//! backends produce **bit-identical outputs**, and the functional
//! backend's closed-form cycles equal the cycle-accurate Tempus
//! simulation exactly.
//!
//! # Example
//!
//! ```
//! use tempus_runtime::{BackendKind, EngineConfig, InferenceEngine, Job};
//! use tempus_nvdla::conv::ConvParams;
//! use tempus_nvdla::cube::{DataCube, KernelSet};
//!
//! # fn main() -> Result<(), tempus_runtime::RuntimeError> {
//! let jobs: Vec<Job> = (0..8)
//!     .map(|i| {
//!         let f = DataCube::from_fn(5, 5, 4, move |x, y, c| {
//!             ((x + 2 * y + c + i as usize) % 17) as i32 - 8
//!         });
//!         let k = KernelSet::from_fn(4, 3, 3, 4, |k, r, s, c| ((k + r + s + c) % 9) as i32 - 4);
//!         Job::conv(i, format!("layer-{i}"), f, k, ConvParams::valid())
//!     })
//!     .collect();
//!
//! let fast = InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional))?;
//! let accurate = InferenceEngine::new(EngineConfig::new(BackendKind::TempusCycleAccurate))?;
//! let f = fast.run_batch(&jobs)?;
//! let a = accurate.run_batch(&jobs)?;
//! assert_eq!(f.output_digest(), a.output_digest());           // bit-identical
//! assert_eq!(f.aggregate.total_sim_cycles, a.aggregate.total_sim_cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod engine;
mod error;
pub mod job;
pub mod ledger;
pub mod planner;
pub mod pool;
pub mod stats;

pub use backend::{
    BackendKind, Execution, FunctionalBackend, InferenceBackend, NvdlaBackend, TempusBackend,
};
pub use engine::{BatchReport, EngineConfig, InferenceEngine};
pub use error::RuntimeError;
pub use job::{Job, JobOutput, JobPayload, JobResult};
pub use ledger::{
    ArrayAssignment, ArrayLedger, ArrayPolicy, DeviceSummary, FreqChange, GovernorPolicy, IdleGap,
    Placement,
};
pub use planner::ArrayPlanner;
pub use pool::{PoolOutcome, PoolTask, WorkerPool};
pub use stats::{AggregateStats, WorkerStats};
