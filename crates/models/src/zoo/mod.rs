//! Architecture zoo: convolution layer shape lists for the eight CNNs
//! the paper profiles (Table I).
//!
//! MobileNetV2, ResNet-18/50 and ResNeXt-101 32x8d follow their
//! published architectures exactly; GoogleNet uses the canonical
//! Inception-v1 table; MobileNetV3-Large, InceptionV3 and ShuffleNetV2
//! are architecture-faithful encodings of the standard variants (the
//! paper's "ShuffleNetV3" does not exist as a published architecture —
//! we map it to ShuffleNetV2, the nearest published design, and note
//! this in the README's "Reproducing the paper" section).

mod inception;
mod mobilenet;
mod resnet;
mod shufflenet;

use std::fmt;

use crate::ConvLayerSpec;

/// The eight CNNs of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// MobileNetV2 (1.0x, 224).
    MobileNetV2,
    /// MobileNetV3-Large.
    MobileNetV3,
    /// GoogleNet (Inception v1).
    GoogleNet,
    /// InceptionV3.
    InceptionV3,
    /// ShuffleNetV2 1.0x (the paper's "ShuffleNetV3").
    ShuffleNetV2,
    /// ResNet-18.
    ResNet18,
    /// ResNet-50.
    ResNet50,
    /// ResNeXt-101 32x8d.
    ResNeXt101,
}

impl Model {
    /// All models, in Table I order.
    pub const ALL: [Model; 8] = [
        Model::MobileNetV2,
        Model::MobileNetV3,
        Model::GoogleNet,
        Model::InceptionV3,
        Model::ShuffleNetV2,
        Model::ResNet18,
        Model::ResNet50,
        Model::ResNeXt101,
    ];

    /// Display name matching Table I.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::MobileNetV2 => "MobileNetV2",
            Model::MobileNetV3 => "MobileNetV3",
            Model::GoogleNet => "GoogleNet",
            Model::InceptionV3 => "InceptionV3",
            Model::ShuffleNetV2 => "ShuffleNetV3",
            Model::ResNet18 => "ResNet18",
            Model::ResNet50 => "ResNet50",
            Model::ResNeXt101 => "ResNeXt101",
        }
    }

    /// Convolution layer shapes for the model.
    #[must_use]
    pub fn conv_layers(self) -> Vec<ConvLayerSpec> {
        match self {
            Model::MobileNetV2 => mobilenet::mobilenet_v2(),
            Model::MobileNetV3 => mobilenet::mobilenet_v3_large(),
            Model::GoogleNet => inception::googlenet(),
            Model::InceptionV3 => inception::inception_v3(),
            Model::ShuffleNetV2 => shufflenet::shufflenet_v2_x1(),
            Model::ResNet18 => resnet::resnet18(),
            Model::ResNet50 => resnet::resnet50(),
            Model::ResNeXt101 => resnet::resnext101_32x8d(),
        }
    }

    /// Total convolution weight count.
    #[must_use]
    pub fn conv_weight_count(self) -> usize {
        self.conv_layers()
            .iter()
            .map(ConvLayerSpec::weight_count)
            .sum()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published convolution-parameter counts (approximate, in
    /// millions) the shape lists must land near. Keeping these tight
    /// guards against transcription slips in the tables.
    #[test]
    fn parameter_counts_match_published_architectures() {
        let expectations = [
            (Model::MobileNetV2, 2.0, 0.35),
            (Model::MobileNetV3, 4.1, 1.2),
            (Model::GoogleNet, 5.8, 0.6),
            (Model::InceptionV3, 21.0, 3.0),
            (Model::ShuffleNetV2, 1.2, 0.5),
            (Model::ResNet18, 11.2, 0.6),
            (Model::ResNet50, 23.5, 1.5),
            (Model::ResNeXt101, 86.7, 4.0),
        ];
        for (model, millions, tolerance) in expectations {
            let count = model.conv_weight_count() as f64 / 1e6;
            assert!(
                (count - millions).abs() < tolerance,
                "{model}: {count:.2}M conv params, expected ~{millions}M"
            );
        }
    }

    #[test]
    fn every_model_has_layers() {
        for model in Model::ALL {
            let layers = model.conv_layers();
            assert!(!layers.is_empty(), "{model}");
            for layer in &layers {
                assert!(layer.weight_count() > 0);
            }
        }
    }

    #[test]
    fn first_layers_consume_rgb() {
        for model in Model::ALL {
            assert_eq!(model.conv_layers()[0].in_c, 3, "{model}");
        }
    }

    #[test]
    fn mobilenets_contain_depthwise_layers() {
        use crate::LayerKind;
        for model in [Model::MobileNetV2, Model::MobileNetV3] {
            assert!(
                model
                    .conv_layers()
                    .iter()
                    .any(|l| l.kind() == LayerKind::Depthwise),
                "{model}"
            );
        }
    }

    #[test]
    fn resnext_contains_grouped_layers() {
        use crate::LayerKind;
        assert!(Model::ResNeXt101
            .conv_layers()
            .iter()
            .any(|l| l.kind() == LayerKind::Grouped && l.groups == 32));
    }
}
