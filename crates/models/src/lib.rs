//! CNN architecture zoo with calibrated synthetic quantized weights.
//!
//! The paper profiles pretrained INT8 CNNs (Table I sparsity; Fig. 7/8
//! MobileNetV2 and ResNeXt101 tile statistics). Pretrained checkpoints
//! are unavailable offline, so this crate substitutes **synthetic
//! weights** with the paper's own published statistics as calibration
//! targets (see README.md, *Reproducing the paper*):
//!
//! * [`zoo`] encodes architecture-faithful convolution layer shape
//!   lists for the eight CNNs in Table I;
//! * [`weightgen`] samples per-layer weights from a seeded generalized
//!   Gaussian and quantizes them with symmetric per-layer INT8/INT4
//!   scaling — per-layer symmetric quantization is what produces the
//!   Fig. 7 histogram shape (each layer's largest tile reaches the
//!   full-scale value, smaller tiles follow extreme-value statistics);
//! * [`calib`] holds the per-model shape parameter and the Table I
//!   sparsity targets the generator pins exactly;
//! * [`stats`] computes sparsity and distribution statistics;
//! * [`netbuild`] lowers the zoo's quantized layers into runnable
//!   NVDLA network-layer chains for the batched runtime
//!   (`tempus-runtime`);
//! * [`traffic`] generates deterministic seeded request traces
//!   (Poisson-ish bursty arrivals, mixed job classes, template
//!   repeats) for the streaming service (`tempus-serve`);
//! * [`transformer`] supplies transformer-block GEMM templates
//!   (attention projection, MLP up/down — inner dimensions in the
//!   thousands at the standard presets) for LLM-scale streaming
//!   workloads.
//!
//! # Example
//!
//! ```
//! use tempus_models::zoo::Model;
//! use tempus_models::QuantizedModel;
//! use tempus_arith::IntPrecision;
//!
//! let model = QuantizedModel::generate(Model::MobileNetV2, IntPrecision::Int8, 42);
//! // Table I: 2.25% zero weights for INT8 MobileNetV2.
//! let sparsity = model.sparsity_pct();
//! assert!((sparsity - 2.25).abs() < 0.3, "sparsity {sparsity}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
mod layer;
mod model;
pub mod netbuild;
pub mod stats;
pub mod traffic;
pub mod transformer;
pub mod weightgen;
pub mod zoo;

pub use layer::{ConvLayerSpec, LayerKind};
pub use model::{budgeted_layers, QuantizedLayer, QuantizedModel};
