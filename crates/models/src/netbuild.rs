//! Whole-network job construction: turns the zoo's synthetic
//! quantized layers into runnable NVDLA [`NetworkLayer`] chains.
//!
//! The runtime engine (`tempus-runtime`) serves whole-network jobs,
//! not just single convolutions; this module bridges the model zoo to
//! the execution substrate. Architecture layer lists contain branches
//! and grouped convolutions the dense [`NetworkLayer`] path cannot
//! express, so [`network_prefix`] extracts the longest *chainable*
//! dense prefix under a channel budget — small enough to run on the
//! cycle-accurate cores in tests, faithful enough to carry each
//! layer's real quantized weight statistics. Only the layers a job
//! runs are generated: the prefix walks the model's weight budget the
//! way [`QuantizedModel::generate_limited`] does and draws weights
//! for the layers it keeps, bit-identical to that model's.
//!
//! [`QuantizedModel::generate_limited`]: crate::QuantizedModel::generate_limited

use tempus_arith::IntPrecision;
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::network::NetworkLayer;

use crate::model::budgeted_layers;
use crate::zoo::Model;
use crate::QuantizedLayer;

/// Lowers a dense quantized layer's weights into the KRSC kernel cube
/// the convolution cores consume.
///
/// Column order of the lowered matrix is `((c · kh) + r) · kw + s` —
/// the inverse of this function's indexing, so
/// `kernel_set(layer).get(k, r, s, c) == layer.get(k, col)`.
///
/// # Panics
///
/// Panics when the layer is grouped (`groups > 1`); the dense network
/// path cannot express it.
#[must_use]
pub fn kernel_set(layer: &QuantizedLayer) -> KernelSet {
    assert_eq!(
        layer.spec.groups, 1,
        "kernel_set only lowers dense layers; {} is grouped",
        layer.spec.name
    );
    let (kh, kw) = (layer.spec.kh, layer.spec.kw);
    KernelSet::from_fn(layer.spec.out_c, kh, kw, layer.spec.in_c, |k, r, s, c| {
        i32::from(layer.get(k, (c * kh + r) * kw + s))
    })
}

/// A deterministic synthetic INT-precision input cube (stands in for
/// an image tile; checkpointed activations are unavailable offline).
#[must_use]
pub fn input_cube(w: usize, h: usize, c: usize, precision: IntPrecision, seed: u64) -> DataCube {
    let hi = precision.max_value();
    let lo = precision.min_value();
    let span = i64::from(hi) - i64::from(lo) + 1;
    DataCube::from_fn(w, h, c, |x, y, ch| {
        // SplitMix64 over the coordinates: deterministic, seed-keyed.
        let mut z = seed
            .wrapping_add(x as u64)
            .wrapping_add((y as u64) << 20)
            .wrapping_add((ch as u64) << 40)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (i64::from(lo) + (z % span as u64) as i64) as i32
    })
}

/// Builds the longest chainable dense-layer prefix of `model`'s
/// first layers under a `max_weights` budget as runnable
/// [`NetworkLayer`]s. The layers equal the matching ones of
/// [`QuantizedModel::generate_limited`]`(model, precision, seed,
/// max_weights)`, but only the layers returned are generated. Layers
/// are walked in architecture order and charged against the budget
/// whether taken or not (the walk ends at the first that does not
/// fit); grouped/depthwise layers and any layer whose input channels
/// don't match the running channel count are skipped, until
/// `max_layers` are collected or a channel count would exceed
/// `max_channels`.
///
/// Every layer gets `same`-padded unit stride (odd kernels) or valid
/// convolution (even kernels) so spatial dims survive the chain, plus
/// ReLU requantization back to the model's precision — the standard
/// CNN block the paper's integration argument targets.
///
/// [`QuantizedModel::generate_limited`]: crate::QuantizedModel::generate_limited
#[must_use]
pub fn network_prefix(
    model: Model,
    precision: IntPrecision,
    seed: u64,
    max_weights: usize,
    max_layers: usize,
    max_channels: usize,
) -> Vec<NetworkLayer> {
    let mut layers = Vec::new();
    let mut channels: Option<usize> = None;
    for (idx, spec) in budgeted_layers(model, max_weights) {
        if layers.len() == max_layers {
            break;
        }
        if spec.groups != 1 || spec.out_c > max_channels || spec.in_c > max_channels {
            continue;
        }
        if let Some(c) = channels {
            if spec.in_c != c {
                continue;
            }
        }
        let params = if spec.kh == spec.kw && spec.kh % 2 == 1 {
            ConvParams::unit_stride_same(spec.kh)
        } else {
            ConvParams::valid()
        };
        // Right-shift sized to the *typical* accumulation magnitude,
        // not the worst case: random-sign products grow like
        // qmax²·√depth, so shedding one full-scale exponent plus half
        // the depth's bits recentres on the output precision. Outliers
        // saturate in the SDP, which every backend shares, so
        // cross-backend equivalence is unaffected.
        let depth = (spec.in_c * spec.kh * spec.kw) as u32;
        let shift = (precision.bits() - 1) + (32 - depth.leading_zeros()) / 2;
        channels = Some(spec.out_c);
        let layer = QuantizedLayer::generate(model, idx, spec, precision, seed);
        layers.push(NetworkLayer::conv_relu(
            layer.spec.name.clone(),
            kernel_set(&layer),
            params,
            shift,
            precision,
        ));
    }
    layers
}

/// The input channel count the first layer of `layers` expects, if
/// any.
#[must_use]
pub fn input_channels(layers: &[NetworkLayer]) -> Option<usize> {
    layers.first().map(|l| l.kernels.c())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantizedModel;

    #[test]
    fn kernel_set_round_trips_lowered_weights() {
        let m = QuantizedModel::generate_limited(Model::ResNet18, IntPrecision::Int8, 3, 100_000);
        let layer = &m.layers[0];
        let cube = kernel_set(layer);
        assert_eq!(cube.k(), layer.spec.out_c);
        assert_eq!(cube.c(), layer.spec.in_c);
        let (kh, kw) = (layer.spec.kh, layer.spec.kw);
        for k in 0..cube.k() {
            for r in 0..kh {
                for s in 0..kw {
                    for c in 0..cube.c() {
                        assert_eq!(
                            cube.get(k, r, s, c),
                            i32::from(layer.get(k, (c * kh + r) * kw + s))
                        );
                    }
                }
            }
        }
    }

    /// The chainable dense selection over an eagerly generated model:
    /// the oracle the lazy prefix must reproduce.
    fn eager_prefix(
        model: &QuantizedModel,
        max_layers: usize,
        max_channels: usize,
    ) -> Vec<(String, KernelSet)> {
        let mut taken = Vec::new();
        let mut channels = None;
        for layer in &model.layers {
            let spec = &layer.spec;
            if taken.len() == max_layers {
                break;
            }
            if spec.groups == 1
                && spec.in_c <= max_channels
                && spec.out_c <= max_channels
                && channels.is_none_or(|c| c == spec.in_c)
            {
                taken.push((spec.name.clone(), kernel_set(layer)));
                channels = Some(spec.out_c);
            }
        }
        taken
    }

    #[test]
    fn lazy_prefix_equals_eager_model_layers() {
        for model in Model::ALL {
            // One below the first layer's weights: the budget runs out
            // before any layer is taken.
            let starved = model.conv_layers()[0].weight_count() - 1;
            for budget in [starved, 10_000, 200_000, 2_000_000] {
                let eager = QuantizedModel::generate_limited(model, IntPrecision::Int8, 13, budget);
                for (max_layers, max_channels) in [(1, 64), (2, 64), (3, 256), (4, 128)] {
                    let lazy: Vec<(String, KernelSet)> = network_prefix(
                        model,
                        IntPrecision::Int8,
                        13,
                        budget,
                        max_layers,
                        max_channels,
                    )
                    .into_iter()
                    .map(|l| (l.name, l.kernels))
                    .collect();
                    assert_eq!(
                        lazy,
                        eager_prefix(&eager, max_layers, max_channels),
                        "{model:?} budget {budget} ({max_layers}, {max_channels})"
                    );
                    assert_eq!(lazy.is_empty(), budget == starved);
                }
            }
        }
    }

    #[test]
    fn network_prefix_chains_channels() {
        let layers = network_prefix(Model::ResNet18, IntPrecision::Int8, 1, 2_000_000, 4, 128);
        assert!(!layers.is_empty(), "resnet18 must yield a dense prefix");
        let mut c = input_channels(&layers).unwrap();
        for layer in &layers {
            assert_eq!(layer.kernels.c(), c, "layer {} chains", layer.name);
            c = layer.kernels.k();
        }
    }

    #[test]
    fn input_cube_is_deterministic_and_in_range() {
        let a = input_cube(6, 6, 3, IntPrecision::Int8, 42);
        let b = input_cube(6, 6, 3, IntPrecision::Int8, 42);
        let c = input_cube(6, 6, 3, IntPrecision::Int8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (-128..=127).contains(&v)));
        let q = input_cube(4, 4, 2, IntPrecision::Int4, 7);
        assert!(q.as_slice().iter().all(|&v| (-8..=7).contains(&v)));
    }

    #[test]
    fn low_precision_prefixes_survive_requantization() {
        // The shift is precision-derived: an Int4 model's layers must
        // not requantize every activation to zero.
        use tempus_nvdla::config::NvdlaConfig;
        use tempus_nvdla::network::run_network;
        use tempus_nvdla::pipeline::NvdlaConvCore;

        let layers = network_prefix(Model::ResNet18, IntPrecision::Int4, 5, 100_000, 1, 64);
        assert!(!layers.is_empty());
        let channels = input_channels(&layers).unwrap();
        let input = input_cube(8, 8, channels, IntPrecision::Int4, 5);
        let mut core =
            NvdlaConvCore::new(NvdlaConfig::nv_small().with_precision(IntPrecision::Int4));
        let run = run_network(&mut core, &input, &layers).unwrap();
        assert!(
            run.output.as_slice().iter().any(|&v| v != 0),
            "Int4 prefix must produce nonzero activations"
        );
    }

    #[test]
    fn grouped_layers_are_skipped() {
        // MobileNetV2 is depthwise-heavy; the prefix must still chain.
        let layers = network_prefix(Model::MobileNetV2, IntPrecision::Int8, 2, 2_000_000, 3, 256);
        for layer in &layers {
            assert!(layer.kernels.k() <= 256);
        }
        let mut c = match input_channels(&layers) {
            Some(c) => c,
            None => return,
        };
        for layer in &layers {
            assert_eq!(layer.kernels.c(), c);
            c = layer.kernels.k();
        }
    }
}
