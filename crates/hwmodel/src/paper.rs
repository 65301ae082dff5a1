//! Published reference numbers from the Tempus Core paper (DATE 2025).
//!
//! These constants serve two purposes: a subset are *calibration
//! anchors* for the synthesis/P&R models (see [`crate::calibration`]),
//! and all of them are *comparison targets* printed next to measured
//! values by the report harness (README, "Reproducing the paper").
//!
//! Unit note: the paper's Table II and Fig. 4 label areas "µm²", which
//! is physically impossible in 45nm (a lone NAND2 is 0.798 µm²); cross-
//! checking against Table III (mm²) shows the intended unit is mm².
//! Everything here is stored in mm².

use tempus_arith::IntPrecision;

use crate::design::Family;

/// One Table II anchor: single PE cell (k=1) with `n` multipliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellAnchor {
    /// Datapath family.
    pub family: Family,
    /// Precision.
    pub precision: IntPrecision,
    /// Multipliers per cell.
    pub n: usize,
    /// Post-synthesis cell area in mm².
    pub area_mm2: f64,
    /// Post-synthesis total power in mW.
    pub power_mw: f64,
}

/// Table II: post-synthesis area and power of a single PE cell.
pub const TABLE_II: [CellAnchor; 12] = {
    use Family::{Binary, Tub};
    use IntPrecision::{Int4, Int8};
    [
        CellAnchor {
            family: Binary,
            precision: Int4,
            n: 16,
            area_mm2: 0.0022,
            power_mw: 0.09,
        },
        CellAnchor {
            family: Binary,
            precision: Int4,
            n: 256,
            area_mm2: 0.0371,
            power_mw: 1.03,
        },
        CellAnchor {
            family: Binary,
            precision: Int4,
            n: 1024,
            area_mm2: 0.1462,
            power_mw: 3.98,
        },
        CellAnchor {
            family: Binary,
            precision: Int8,
            n: 16,
            area_mm2: 0.0056,
            power_mw: 0.20,
        },
        CellAnchor {
            family: Binary,
            precision: Int8,
            n: 256,
            area_mm2: 0.1063,
            power_mw: 3.00,
        },
        CellAnchor {
            family: Binary,
            precision: Int8,
            n: 1024,
            area_mm2: 0.4334,
            power_mw: 12.20,
        },
        CellAnchor {
            family: Tub,
            precision: Int4,
            n: 16,
            area_mm2: 0.0006,
            power_mw: 0.06,
        },
        CellAnchor {
            family: Tub,
            precision: Int4,
            n: 256,
            area_mm2: 0.0046,
            power_mw: 0.19,
        },
        CellAnchor {
            family: Tub,
            precision: Int4,
            n: 1024,
            area_mm2: 0.0171,
            power_mw: 0.51,
        },
        CellAnchor {
            family: Tub,
            precision: Int8,
            n: 16,
            area_mm2: 0.0011,
            power_mw: 0.088,
        },
        CellAnchor {
            family: Tub,
            precision: Int8,
            n: 256,
            area_mm2: 0.0093,
            power_mw: 0.32,
        },
        CellAnchor {
            family: Tub,
            precision: Int8,
            n: 1024,
            area_mm2: 0.0355,
            power_mw: 1.06,
        },
    ]
};

/// Table II improvement percentages (area, power) reported by the
/// paper per (precision, n); used as comparison targets.
pub const TABLE_II_IMPROVEMENT_PCT: [(IntPrecision, usize, f64, f64); 6] = [
    (IntPrecision::Int4, 16, 71.89, 25.86),
    (IntPrecision::Int4, 256, 87.53, 81.74),
    (IntPrecision::Int4, 1024, 88.30, 87.25),
    (IntPrecision::Int8, 16, 80.15, 54.72),
    (IntPrecision::Int8, 256, 91.24, 89.35),
    (IntPrecision::Int8, 1024, 91.81, 91.28),
];

/// One Fig. 4 anchor: a 16×16 PE array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayAnchor {
    /// Datapath family.
    pub family: Family,
    /// Precision.
    pub precision: IntPrecision,
    /// Array area in mm².
    pub area_mm2: f64,
    /// Array power in mW.
    pub power_mw: f64,
}

/// Fig. 4 anchors for the 16×16 array.
///
/// INT8 values are stated in §V-A (0.09 / 0.018 mm², 3.8 / 1.42 mW).
/// INT4 powers are derived from §V-C's energy statements (7.48 pJ and
/// 17.76 pJ over 4-cycle windows at 4 ns ⇒ 1.87 / 1.11 mW); INT4 areas
/// follow from §V-A's "for INT4, the reductions are 80% in area"
/// applied around the Table II cell sums.
pub const FIG4_16X16: [ArrayAnchor; 4] = {
    use Family::{Binary, Tub};
    use IntPrecision::{Int4, Int8};
    [
        ArrayAnchor {
            family: Binary,
            precision: Int8,
            area_mm2: 0.090,
            power_mw: 3.80,
        },
        ArrayAnchor {
            family: Tub,
            precision: Int8,
            area_mm2: 0.018,
            power_mw: 1.42,
        },
        ArrayAnchor {
            family: Binary,
            precision: Int4,
            area_mm2: 0.049,
            power_mw: 1.87,
        },
        ArrayAnchor {
            family: Tub,
            precision: Int4,
            area_mm2: 0.0098,
            power_mw: 1.11,
        },
    ]
};

/// Fig. 5 headline: PCU-vs-CMAC unit-level reductions for INT8
/// (area %, power %).
pub const FIG5_INT8_REDUCTION_PCT: (f64, f64) = (59.3, 15.3);

/// Fig. 5 sweep: array widths `16×n` for n in this list, across
/// INT8/INT4/INT2.
pub const FIG5_WIDTHS: [usize; 3] = [4, 16, 32];

/// Table III: post-place-and-route results, INT4 16×4 arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PnrAnchor {
    /// Datapath family.
    pub family: Family,
    /// Total die area in mm².
    pub area_mm2: f64,
    /// Total power in mW.
    pub power_mw: f64,
}

/// Table III anchors (CMAC then PCU).
pub const TABLE_III: [PnrAnchor; 2] = [
    PnrAnchor {
        family: Family::Binary,
        area_mm2: 0.0361,
        power_mw: 10.7013,
    },
    PnrAnchor {
        family: Family::Tub,
        area_mm2: 0.0168,
        power_mw: 6.1146,
    },
];

/// Floorplan utilization used for both P&R runs (§V-B).
pub const PNR_UTILIZATION: f64 = 0.70;

/// P&R headline improvements: 53% area efficiency, 44% power
/// efficiency (§I contribution 4).
pub const PNR_IMPROVEMENT_PCT: (f64, f64) = (53.0, 44.0);

/// §V-D / §I headline: iso-area throughput improvement of a 16×16
/// array: 5× for INT8, 4× for INT4.
pub const ISO_AREA_16X16: [(IntPrecision, f64); 2] =
    [(IntPrecision::Int8, 5.0), (IntPrecision::Int4, 4.0)];

/// Fig. 9 projection at n = 65536 multipliers: up to 26× (INT8) and
/// 18× (INT4) iso-area throughput.
pub const FIG9_PROJECTION_N65536: [(IntPrecision, f64); 2] =
    [(IntPrecision::Int8, 26.0), (IntPrecision::Int4, 18.0)];

/// §V-C workload-dependent latency (cycles per 16×16 tile window).
pub const WORKLOAD_LATENCY_CYCLES: [(&str, u32); 2] = [("MobileNetV2", 33), ("ResNeXt101", 31)];

/// §V-C average silent PEs per 16×16 tile.
pub const WORKLOAD_SILENT_PES: [(&str, f64); 2] = [("MobileNetV2", 6.0), ("ResNeXt101", 2.0)];

/// §V-C energy per 16×16 array window, INT8: binary 15 pJ; tub 187 pJ
/// (MobileNetV2) and 176 pJ (ResNeXt101).
pub const ENERGY_INT8_PJ: (f64, f64, f64) = (15.0, 187.0, 176.0);

/// §V-C energy per window, INT4: binary 7.48 pJ, tub 17.76 pJ.
pub const ENERGY_INT4_PJ: (f64, f64) = (7.48, 17.76);

/// §V-C energy-gap statement: 11.7× at INT8 shrinking to 2.3× at INT4.
pub const ENERGY_GAP: [(IntPrecision, f64); 2] =
    [(IntPrecision::Int8, 11.7), (IntPrecision::Int4, 2.3)];

/// Table I: word sparsity (% zero weights) of INT8-quantized CNNs.
pub const TABLE_I_SPARSITY_PCT: [(&str, f64); 8] = [
    ("MobileNetV2", 2.25),
    ("MobileNetV3", 9.52),
    ("GoogleNet", 1.91),
    ("InceptionV3", 1.99),
    ("ShuffleNetV3", 1.43),
    ("ResNet18", 2.043),
    ("ResNet50", 2.45),
    ("ResNeXt101", 2.64),
];

/// Looks up the Table II anchor for a design point, if present.
#[must_use]
pub fn table_ii_anchor(family: Family, precision: IntPrecision, n: usize) -> Option<CellAnchor> {
    TABLE_II
        .iter()
        .copied()
        .find(|a| a.family == family && a.precision == precision && a.n == n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_internally_consistent() {
        // The paper's improvement percentages should match the raw
        // Table II anchors to within rounding.
        for &(prec, n, area_pct, power_pct) in &TABLE_II_IMPROVEMENT_PCT {
            let b = table_ii_anchor(Family::Binary, prec, n).unwrap();
            let t = table_ii_anchor(Family::Tub, prec, n).unwrap();
            let area = (1.0 - t.area_mm2 / b.area_mm2) * 100.0;
            let power = (1.0 - t.power_mw / b.power_mw) * 100.0;
            assert!(
                (area - area_pct).abs() < 3.0,
                "{prec} n={n}: area {area:.1} vs paper {area_pct}"
            );
            assert!(
                (power - power_pct).abs() < 9.0,
                "{prec} n={n}: power {power:.1} vs paper {power_pct}"
            );
        }
    }

    #[test]
    fn fig4_int8_matches_16x_cell_sums() {
        // 16 × Table II cell(n=16) should approximate the Fig. 4 array.
        let b_cell = table_ii_anchor(Family::Binary, IntPrecision::Int8, 16).unwrap();
        let b_arr = FIG4_16X16
            .iter()
            .find(|a| a.family == Family::Binary && a.precision == IntPrecision::Int8)
            .unwrap();
        assert!((16.0 * b_cell.area_mm2 - b_arr.area_mm2).abs() / b_arr.area_mm2 < 0.05);
    }

    #[test]
    fn table_iii_improvements_match_headline() {
        let (b, t) = (TABLE_III[0], TABLE_III[1]);
        let area_red = (1.0 - t.area_mm2 / b.area_mm2) * 100.0;
        let power_red = (1.0 - t.power_mw / b.power_mw) * 100.0;
        assert!((area_red - PNR_IMPROVEMENT_PCT.0).abs() < 1.5, "{area_red}");
        assert!(
            (power_red - PNR_IMPROVEMENT_PCT.1).abs() < 1.5,
            "{power_red}"
        );
    }

    #[test]
    fn energy_int8_follows_from_fig4_and_latency() {
        // 3.8 mW × 4 ns ≈ 15.2 pJ; 1.42 mW × 33 cy × 4 ns ≈ 187 pJ.
        let (bin, tub_mnv2, tub_rnx) = ENERGY_INT8_PJ;
        assert!((3.8 * 4.0 - bin).abs() < 0.5);
        assert!((1.42 * 33.0 * 4.0 - tub_mnv2).abs() < 1.0);
        assert!((1.42 * 31.0 * 4.0 - tub_rnx).abs() < 1.0);
    }
}
