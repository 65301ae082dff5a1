//! # Tempus Core reproduction — facade crate
//!
//! One-stop re-export of the whole workspace, reproducing
//! *"Tempus Core: Area-Power Efficient Temporal-Unary Convolution Core
//! for Low-Precision Edge DLAs"* (DATE 2025).
//!
//! See the repository `README.md` for the architecture overview and
//! quickstart; per-crate docs (`cargo doc --open`) carry the detailed
//! design notes.
//!
//! The workspace layers, bottom-up: [`arith`] (tub arithmetic),
//! [`sim`] (FIFO, activity counter and VCD writer), [`nvdla`] (the
//! convolution-pipeline substrate and binary baseline), [`core`] (the
//! Tempus Core engine and tubGEMM), [`hwmodel`] (calibrated area/power
//! models), [`models`] (the CNN zoo with synthetic quantized weights),
//! [`profile`] (workload statistics and energy), [`runtime`] (the
//! batched multi-threaded inference engine with pluggable
//! fast/cycle-accurate backends), [`fleet`] (the deterministic
//! multi-device scheduler with backfilling, deadline-aware admission
//! and elastic sizing) and [`serve`] (the async streaming ingestion
//! service with content-addressed result caching and per-class
//! latency SLOs). Cross-cutting: [`chaos`] (deterministic fault
//! injection) and [`telemetry`] (the dual-clock trace hub).
//!
//! ```
//! use tempus::arith::{tub, IntPrecision};
//!
//! # fn main() -> Result<(), tempus::arith::ArithError> {
//! assert_eq!(tub::multiply(9, -7, IntPrecision::Int8)?, -63);
//! # Ok(())
//! # }
//! ```
//!
//! Serving a batch through the runtime:
//!
//! ```
//! use tempus::nvdla::conv::ConvParams;
//! use tempus::nvdla::cube::{DataCube, KernelSet};
//! use tempus::runtime::{BackendKind, EngineConfig, InferenceEngine, Job};
//!
//! # fn main() -> Result<(), tempus::runtime::RuntimeError> {
//! let f = DataCube::from_fn(5, 5, 4, |x, y, c| ((x + y + c) % 9) as i32 - 4);
//! let k = KernelSet::from_fn(4, 3, 3, 4, |k, r, s, c| ((k + r + s + c) % 9) as i32 - 4);
//! let jobs = vec![Job::conv(0, "layer", f, k, ConvParams::valid())];
//! let engine = InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional))?;
//! let report = engine.run_batch(&jobs)?;
//! assert_eq!(report.aggregate.jobs, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use tempus_arith as arith;
pub use tempus_chaos as chaos;
pub use tempus_core as core;
pub use tempus_fleet as fleet;
pub use tempus_hwmodel as hwmodel;
pub use tempus_models as models;
pub use tempus_nvdla as nvdla;
pub use tempus_profile as profile;
pub use tempus_runtime as runtime;
pub use tempus_serve as serve;
pub use tempus_sim as sim;
pub use tempus_telemetry as telemetry;
