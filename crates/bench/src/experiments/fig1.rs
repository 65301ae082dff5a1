//! Fig. 1 (background): quantization training accuracies from the
//! paper's reference \[8\] (Jain et al., "Trained quantization
//! thresholds…", MLSys 2020).
//!
//! This figure motivates low-precision inference; it is *cited data*,
//! not a computation of the Tempus Core paper, so we reprint the
//! published top-5 ImageNet retraining accuracies rather than
//! attempting an ImageNet training run. Values are the TQT paper's
//! reported results.

use tempus_profile::table::Table;

/// One network's accuracy series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyRow {
    /// Network name.
    pub network: &'static str,
    /// FP32 baseline top-5 accuracy (%).
    pub fp32: f64,
    /// INT8 (8w/8a) retrained top-5 accuracy (%).
    pub int8: f64,
    /// INT4-weight (4w/8a) retrained top-5 accuracy (%).
    pub int4w: f64,
}

/// Published accuracy series underlying Fig. 1.
pub const SERIES: [AccuracyRow; 4] = [
    AccuracyRow {
        network: "VGG16-BN",
        fp32: 90.4,
        int8: 90.5,
        int4w: 90.2,
    },
    AccuracyRow {
        network: "ResNet-50",
        fp32: 92.9,
        int8: 92.7,
        int4w: 91.9,
    },
    AccuracyRow {
        network: "InceptionV3",
        fp32: 93.4,
        int8: 93.3,
        int4w: 92.0,
    },
    AccuracyRow {
        network: "MobileNetV2",
        fp32: 90.3,
        int8: 90.1,
        int4w: 87.8,
    },
];

/// Renders the Fig. 1 data table.
#[must_use]
pub fn to_table() -> Table {
    let mut t = Table::new([
        "Network",
        "FP32 top-5 (%)",
        "INT8 top-5 (%)",
        "INT4w top-5 (%)",
    ]);
    for r in SERIES {
        t.push_row([
            r.network.to_string(),
            format!("{:.1}", r.fp32),
            format!("{:.1}", r.int8),
            format!("{:.1}", r.int4w),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_minimal() {
        // Fig. 1's message: "minimal accuracy decrease with lower
        // precisions" — INT8 within 0.3 pts, INT4 weights within 3 pts.
        for r in SERIES {
            assert!((r.fp32 - r.int8).abs() <= 0.3, "{}", r.network);
            assert!(r.fp32 - r.int4w <= 3.0, "{}", r.network);
        }
    }

    #[test]
    fn table_renders() {
        assert_eq!(to_table().len(), 4);
    }
}
