//! Multi-array scaling: modeled-cycle speedup and wall-clock of the
//! sharded multi-array engine against array count, on model-zoo
//! layers — with **digest equality** over outputs across every array
//! count and functional-vs-accurate critical-path equality as the
//! acceptance gates (`results/BENCH_multi_array_scaling.json`).
//!
//! For each layer and `num_arrays ∈ {1, 2, 4, 8}` the experiment
//! runs the cycle-accurate sharded engine
//! ([`TempusCore::convolve_sharded`]) and the closed-form sharded
//! latency model ([`ScheduleCache::predict_sharded`]); outputs must
//! be bit-identical to the single-array run and the modelled critical
//! paths must agree exactly. Kernel-rich layers (≥ 4 kernel groups)
//! must reach ≥ 1.8× modeled-cycle speedup at 2 arrays.

use std::time::Instant;

use tempus_arith::IntPrecision;
use tempus_core::schedule::ScheduleCache;
use tempus_core::shard::ShardStrategy;
use tempus_core::{TempusConfig, TempusCore};
use tempus_models::netbuild::{input_cube, kernel_set};
use tempus_models::zoo::Model;
use tempus_models::{budgeted_layers, QuantizedLayer};
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_telemetry::json::{self, Fixed, Hex};

/// One `(layer, array count)` measurement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalingRow {
    /// Workload label (`model/layer kxc`).
    pub case: String,
    /// Arrays requested.
    pub arrays: usize,
    /// Arrays the planner actually used.
    pub used_arrays: usize,
    /// Split axis (`single` / `kernel-groups` / `channel-groups`).
    pub strategy: &'static str,
    /// Whether the case has ≥ 4 kernel groups (the speedup gate
    /// applies to these).
    pub kernel_rich: bool,
    /// Modelled critical-path cycles at this array count.
    pub critical_path_cycles: u64,
    /// Cross-array reduction cycles included in the critical path.
    pub reduction_cycles: u64,
    /// Modeled-cycle speedup over the single-array run.
    pub speedup: f64,
    /// Work balance across the arrays.
    pub balance: f64,
    /// Wall-clock of the cycle-accurate sharded run, seconds.
    pub accurate_wall_s: f64,
    /// Wall-clock of the closed-form sharded prediction, seconds.
    pub functional_wall_s: f64,
    /// Digest over the sharded output cube.
    pub output_digest: u64,
    /// Digest of the single-array output for the same case.
    pub baseline_digest: u64,
    /// `true` when the functional critical path equalled the
    /// cycle-accurate one exactly.
    pub model_exact: bool,
}

impl ScalingRow {
    /// `true` when the sharded output matched the single-array run
    /// bit-for-bit.
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.output_digest == self.baseline_digest
    }
}

/// The full experiment result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiArrayReport {
    /// Seed the zoo weights were generated from.
    pub seed: u64,
    /// Array counts swept.
    pub array_counts: Vec<usize>,
    /// Per-(case, arrays) rows.
    pub rows: Vec<ScalingRow>,
}

impl MultiArrayReport {
    /// `true` when every row's output matched the single-array run
    /// AND the closed-form model matched the cycle-accurate critical
    /// path exactly.
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.rows.iter().all(|r| r.digests_equal() && r.model_exact)
    }

    /// Smallest speedup at 2 arrays over the kernel-rich cases (the
    /// ≥ 1.8× acceptance gate), or `None` when nothing qualified.
    #[must_use]
    pub fn min_kernel_rich_speedup_at_2(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter(|r| r.arrays == 2 && r.kernel_rich)
            .map(|r| r.speedup)
            .min_by(|a, b| a.total_cmp(b))
    }
}

fn strategy_name(strategy: ShardStrategy) -> &'static str {
    match strategy {
        ShardStrategy::Single => "single",
        ShardStrategy::KernelGroups => "kernel-groups",
        ShardStrategy::ChannelGroups => "channel-groups",
    }
}

/// Zoo-derived conv cases: dense, kernel-rich layers small enough for
/// the cycle-accurate engine, plus one kernel-starved layer that
/// exercises the channel-group fallback.
fn cases(seed: u64, quick: bool) -> Vec<(String, DataCube, KernelSet, bool)> {
    let mut out = Vec::new();
    let specs: &[(Model, usize, usize)] = if quick {
        // (model, min kernels, max channels)
        &[(Model::ResNet18, 32, 64)]
    } else {
        &[
            (Model::ResNet18, 32, 64),
            (Model::GoogleNet, 32, 64),
            (Model::MobileNetV2, 32, 64),
        ]
    };
    let spatial = if quick { 5 } else { 6 };
    for &(model, min_k, max_c) in specs {
        // Only the picked layer of the 2M-weight budget is generated.
        let picked = budgeted_layers(model, 2_000_000).find(|(_, spec)| {
            spec.groups == 1 && spec.out_c >= min_k && spec.in_c >= 8 && spec.in_c <= max_c
        });
        if let Some((idx, spec)) = picked {
            let layer = QuantizedLayer::generate(model, idx, spec, IntPrecision::Int8, seed);
            let kernels = kernel_set(&layer);
            let features = input_cube(
                spatial,
                spatial,
                kernels.c(),
                IntPrecision::Int8,
                seed ^ 0xA5A5,
            );
            let kernel_rich = kernels.k().div_ceil(8) >= 4; // nv_small atomic_k
            out.push((
                format!(
                    "{}/{} k{}c{}",
                    model.name(),
                    layer.spec.name,
                    kernels.k(),
                    kernels.c()
                ),
                features,
                kernels,
                kernel_rich,
            ));
        }
    }
    // Kernel-starved synthetic layer: 8 kernels (one group) over 32
    // channels forces the channel-group fallback + reduction stage.
    let kernels = KernelSet::from_fn(8, 3, 3, 32, move |k, r, s, c| {
        ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11 + seed as i32) % 255) - 127
    });
    let features = input_cube(spatial, spatial, 32, IntPrecision::Int8, seed ^ 0x5A5A);
    out.push((
        "synthetic/chan-fallback k8c32".to_string(),
        features,
        kernels,
        false,
    ));
    out
}

/// Runs the experiment. `quick` shrinks the case list and spatial
/// extent for CI smoke runs — the digest and model-exactness gates
/// are the invariant there, not timing.
#[must_use]
pub fn run(seed: u64, quick: bool) -> MultiArrayReport {
    let array_counts: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    };
    let config = TempusConfig::nv_small();
    let params = ConvParams::unit_stride_same(3);
    let mut rows = Vec::new();

    for (case, features, kernels, kernel_rich) in cases(seed, quick) {
        let mut baseline_cycles = 0u64;
        let mut baseline_digest = 0u64;
        for &arrays in &array_counts {
            let mut core = TempusCore::new(config);
            let accurate_start = Instant::now();
            let run = core
                .convolve_sharded(&features, &kernels, &params, arrays)
                .expect("sharded conv runs");
            let accurate_wall_s = accurate_start.elapsed().as_secs_f64();

            let mut cache = ScheduleCache::new();
            let functional_start = Instant::now();
            let predicted = cache
                .predict_sharded(&features, &kernels, &params, &config, arrays)
                .expect("sharded prediction runs");
            let functional_wall_s = functional_start.elapsed().as_secs_f64();

            let output_digest = run.output.content_hash();
            if arrays == 1 {
                baseline_cycles = run.critical_path_cycles;
                baseline_digest = output_digest;
            }
            rows.push(ScalingRow {
                case: case.clone(),
                arrays,
                used_arrays: run.plan.used_arrays(),
                strategy: strategy_name(run.plan.strategy),
                kernel_rich,
                critical_path_cycles: run.critical_path_cycles,
                reduction_cycles: run.reduction_cycles,
                speedup: baseline_cycles as f64 / run.critical_path_cycles.max(1) as f64,
                balance: run.balance(),
                accurate_wall_s,
                functional_wall_s,
                output_digest,
                baseline_digest,
                model_exact: predicted.critical_path_cycles == run.critical_path_cycles
                    && predicted.per_shard_cycles == run.per_shard_cycles(),
            });
        }
    }
    MultiArrayReport {
        seed,
        array_counts,
        rows,
    }
}

impl MultiArrayReport {
    /// Machine-readable JSON summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("experiment", "multi_array_scaling")
                .field("seed", self.seed);
            o.array("array_counts", |a| {
                for &n in &self.array_counts {
                    a.item(n);
                }
            });
            o.field("digests_equal", self.digests_equal()).field(
                "min_kernel_rich_speedup_at_2",
                Fixed(self.min_kernel_rich_speedup_at_2().unwrap_or(0.0), 2),
            );
            o.array("rows", |a| {
                for r in &self.rows {
                    a.object(|o| {
                        o.field("case", &r.case)
                            .field("arrays", r.arrays)
                            .field("used_arrays", r.used_arrays)
                            .field("strategy", r.strategy)
                            .field("kernel_rich", r.kernel_rich)
                            .field("critical_path_cycles", r.critical_path_cycles)
                            .field("reduction_cycles", r.reduction_cycles)
                            .field("speedup", Fixed(r.speedup, 3))
                            .field("balance", Fixed(r.balance, 4))
                            .field("accurate_wall_s", Fixed(r.accurate_wall_s, 6))
                            .field("functional_wall_s", Fixed(r.functional_wall_s, 6))
                            .field("output_digest", Hex(r.output_digest))
                            .field("digests_equal", r.digests_equal())
                            .field("model_exact", r.model_exact);
                    });
                }
            });
        })
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "multi_array_scaling: sharded engine vs array count, digests equal: {}, \
             min kernel-rich speedup @2 arrays: {:.2}x\n\n",
            self.digests_equal(),
            self.min_kernel_rich_speedup_at_2().unwrap_or(0.0),
        );
        s.push_str(
            "| case | arrays | used | strategy | critical cycles | reduction | speedup \
             | balance | sim wall s | digests |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
        for r in &self.rows {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {:.2}x | {:.2} | {:.4} | {} |\n",
                r.case,
                r.arrays,
                r.used_arrays,
                r.strategy,
                r.critical_path_cycles,
                r.reduction_cycles,
                r.speedup,
                r.balance,
                r.accurate_wall_s,
                if r.digests_equal() && r.model_exact {
                    "equal"
                } else {
                    "DRIFT"
                },
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_outputs_and_model_agree_in_smoke_mode() {
        // The CI gate: outputs bit-identical across array counts and
        // the closed-form model exact on every row; kernel-rich
        // layers reach >= 1.8x modeled-cycle speedup at 2 arrays.
        let report = run(42, true);
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            assert!(
                row.digests_equal(),
                "{} arrays={}: output diverged from single-array run",
                row.case,
                row.arrays
            );
            assert!(
                row.model_exact,
                "{} arrays={}: closed-form model drifted from simulation",
                row.case, row.arrays
            );
        }
        let min = report
            .min_kernel_rich_speedup_at_2()
            .expect("a kernel-rich case exists");
        assert!(min >= 1.8, "kernel-rich speedup at 2 arrays: {min:.2}x");
        // The channel-group fallback must appear and pay a reduction.
        assert!(report
            .rows
            .iter()
            .any(|r| r.strategy == "channel-groups" && r.reduction_cycles > 0));
        assert!(report.to_json().contains("\"digests_equal\": true"));
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let report = MultiArrayReport {
            rows: vec![ScalingRow::default()],
            ..MultiArrayReport::default()
        };
        let committed = include_str!("../../../../results/BENCH_multi_array_scaling.json");
        crate::assert_keys_match(&report.to_json(), committed);
    }
}
