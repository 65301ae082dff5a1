//! Quantized model containers.

use tempus_arith::IntPrecision;

use crate::calib;
use crate::weightgen;
use crate::zoo::Model;
use crate::ConvLayerSpec;

/// One convolution layer with its synthetic quantized weights, stored
/// row-major over the lowered matrix (`out_c` rows ×
/// `(in_c/groups)·kh·kw` columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedLayer {
    /// Layer shape.
    pub spec: ConvLayerSpec,
    /// Quantized weights (fits `i8` for INT8 and below).
    pub weights: Vec<i8>,
}

impl QuantizedLayer {
    /// Generates layer `idx` of `model` (shape `spec`) with the
    /// model's calibrated weight statistics. Deterministic in
    /// `(model, idx, precision, seed)`; every generation path goes
    /// through here, so a layer's weights never depend on which other
    /// layers were generated with it.
    #[must_use]
    pub fn generate(
        model: Model,
        idx: usize,
        spec: ConvLayerSpec,
        precision: IntPrecision,
        seed: u64,
    ) -> Self {
        let cal = calib::for_model(model);
        let layer_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(idx as u64);
        let weights = weightgen::generate_layer(
            spec.weight_count(),
            cal.beta,
            cal.sparsity_pct / 100.0,
            precision.max_value(),
            layer_seed,
        );
        QuantizedLayer { spec, weights }
    }

    /// Lowered weight matrix dimensions `(rows, cols)`.
    #[must_use]
    pub fn lowered_dims(&self) -> (usize, usize) {
        self.spec.lowered_dims()
    }

    /// Weight at `(row, col)` of the lowered matrix.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> i8 {
        let (rows, cols) = self.lowered_dims();
        assert!(row < rows && col < cols, "lowered index out of range");
        self.weights[row * cols + col]
    }

    /// Fraction of zero weights.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.weights.is_empty() {
            return 0.0;
        }
        self.weights.iter().filter(|&&w| w == 0).count() as f64 / self.weights.len() as f64
    }
}

/// The layers a `max_weights` budget covers, with their architecture
/// indices: each is charged in order, and the walk stops at the first
/// layer that does not fit. Generating each with
/// [`QuantizedLayer::generate`] yields exactly the layers of
/// [`QuantizedModel::generate_limited`], one at a time.
pub fn budgeted_layers(
    model: Model,
    max_weights: usize,
) -> impl Iterator<Item = (usize, ConvLayerSpec)> {
    model
        .conv_layers()
        .into_iter()
        .enumerate()
        .scan(max_weights, |budget, (idx, spec)| {
            let count = spec.weight_count();
            (count <= *budget).then(|| {
                *budget -= count;
                (idx, spec)
            })
        })
}

/// A whole model's synthetic quantized convolution weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedModel {
    /// Which architecture this is.
    pub model: Model,
    /// Quantization precision.
    pub precision: IntPrecision,
    /// Layers in network order.
    pub layers: Vec<QuantizedLayer>,
}

impl QuantizedModel {
    /// Generates the full model with calibrated weight statistics.
    /// Deterministic in `(model, precision, seed)`.
    #[must_use]
    pub fn generate(model: Model, precision: IntPrecision, seed: u64) -> Self {
        Self::generate_limited(model, precision, seed, usize::MAX)
    }

    /// Generates only the first layers up to a total weight budget —
    /// statistically representative subsets for fast tests on the
    /// 80M-weight models. Layers are charged in architecture order and
    /// generation stops at the first that does not fit. Callers that
    /// run only some of those layers build them with
    /// [`netbuild::network_prefix`](crate::netbuild::network_prefix),
    /// which walks the same budget and generates only the layers it
    /// keeps, bit-identical to the ones here.
    #[must_use]
    pub fn generate_limited(
        model: Model,
        precision: IntPrecision,
        seed: u64,
        max_weights: usize,
    ) -> Self {
        let layers = budgeted_layers(model, max_weights)
            .map(|(idx, spec)| QuantizedLayer::generate(model, idx, spec, precision, seed))
            .collect();
        QuantizedModel {
            model,
            precision,
            layers,
        }
    }

    /// Total weight count across generated layers.
    #[must_use]
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len()).sum()
    }

    /// Zero-weight percentage across all generated layers (Table I's
    /// "word sparsity").
    #[must_use]
    pub fn sparsity_pct(&self) -> f64 {
        let total = self.total_weights();
        if total == 0 {
            return 0.0;
        }
        let zeros: usize = self
            .layers
            .iter()
            .map(|l| l.weights.iter().filter(|&&w| w == 0).count())
            .sum();
        zeros as f64 / total as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a =
            QuantizedModel::generate_limited(Model::ShuffleNetV2, IntPrecision::Int8, 1, 200_000);
        let b =
            QuantizedModel::generate_limited(Model::ShuffleNetV2, IntPrecision::Int8, 1, 200_000);
        assert_eq!(a, b);
    }

    #[test]
    fn weights_respect_precision() {
        let m = QuantizedModel::generate_limited(Model::GoogleNet, IntPrecision::Int4, 2, 100_000);
        for layer in &m.layers {
            for &w in &layer.weights {
                assert!((-7..=7).contains(&w), "INT4 weight {w}");
            }
        }
    }

    #[test]
    fn sparsity_close_to_table_i_target() {
        let m = QuantizedModel::generate_limited(Model::GoogleNet, IntPrecision::Int8, 3, 500_000);
        let target = calib::for_model(Model::GoogleNet).sparsity_pct;
        assert!(
            (m.sparsity_pct() - target).abs() < 0.2,
            "sparsity {} vs target {}",
            m.sparsity_pct(),
            target
        );
    }

    #[test]
    fn lowered_indexing() {
        let m =
            QuantizedModel::generate_limited(Model::ShuffleNetV2, IntPrecision::Int8, 4, 10_000);
        let layer = &m.layers[0];
        let (rows, cols) = layer.lowered_dims();
        assert_eq!(rows * cols, layer.weights.len());
        assert_eq!(layer.get(0, 0), layer.weights[0]);
        assert_eq!(
            layer.get(rows - 1, cols - 1),
            *layer.weights.last().unwrap()
        );
    }

    #[test]
    fn limited_generation_respects_budget() {
        let m = QuantizedModel::generate_limited(Model::ResNet18, IntPrecision::Int8, 5, 50_000);
        assert!(m.total_weights() <= 50_000);
        assert!(!m.layers.is_empty());
    }

    #[test]
    fn every_layer_reaches_full_scale() {
        let m =
            QuantizedModel::generate_limited(Model::MobileNetV2, IntPrecision::Int8, 6, 300_000);
        for layer in &m.layers {
            let max = layer
                .weights
                .iter()
                .map(|w| w.unsigned_abs())
                .max()
                .unwrap();
            assert_eq!(max, 127, "layer {} max {max}", layer.spec.name);
        }
    }
}
