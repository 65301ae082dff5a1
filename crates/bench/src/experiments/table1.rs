//! Table I: word sparsity of eight INT8-quantized CNNs.

use tempus_arith::IntPrecision;
use tempus_hwmodel::paper;
use tempus_models::zoo::Model;
use tempus_models::QuantizedModel;
use tempus_profile::table::Table;

/// One Table I row: measured vs paper.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityRow {
    /// Model name.
    pub model: String,
    /// Measured zero-weight percentage.
    pub measured_pct: f64,
    /// Paper's Table I value.
    pub paper_pct: f64,
    /// Weights generated.
    pub weights: usize,
}

/// Runs the experiment. `max_weights_per_model` bounds generation for
/// quick runs (`usize::MAX` reproduces the full table).
#[must_use]
pub fn run(seed: u64, max_weights_per_model: usize) -> Vec<SparsityRow> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = Model::ALL
            .iter()
            .map(|&model| {
                scope.spawn(move || {
                    let quantized = QuantizedModel::generate_limited(
                        model,
                        IntPrecision::Int8,
                        seed,
                        max_weights_per_model,
                    );
                    let paper_pct = paper::TABLE_I_SPARSITY_PCT
                        .iter()
                        .find(|&&(name, _)| name == model.name())
                        .map_or(f64::NAN, |&(_, v)| v);
                    SparsityRow {
                        model: model.name().to_string(),
                        measured_pct: quantized.sparsity_pct(),
                        paper_pct,
                        weights: quantized.total_weights(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("model generation panicked"))
            .collect()
    })
}

/// Renders the rows as a markdown table.
#[must_use]
pub fn to_table(rows: &[SparsityRow]) -> Table {
    let mut t = Table::new(["CNN", "Word (%) measured", "Word (%) paper", "conv weights"]);
    for r in rows {
        t.push_row([
            r.model.clone(),
            format!("{:.2}", r.measured_pct),
            format!("{:.2}", r.paper_pct),
            format!("{:.2}M", r.weights as f64 / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_run_matches_targets() {
        // 300k weights per model is plenty to pin sparsity.
        let rows = run(7, 300_000);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(
                (row.measured_pct - row.paper_pct).abs() < 0.4,
                "{}: {:.2} vs {:.2}",
                row.model,
                row.measured_pct,
                row.paper_pct
            );
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = run(7, 50_000);
        let t = to_table(&rows);
        assert_eq!(t.len(), 8);
        assert!(t.to_markdown().contains("MobileNetV2"));
    }
}
