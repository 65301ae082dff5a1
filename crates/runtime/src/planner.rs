//! Cost-aware array-width planning for runtime jobs.
//!
//! [`ArrayPlanner`] turns one [`Job`] into a
//! [`BudgetPlan`](tempus_core::shard::BudgetPlan): the width/cost
//! curve over candidate array counts plus the chosen width where the
//! marginal speedup of one more array stops paying
//! ([`plan_for_budget`]). A job's cost does not depend on its width
//! until the shard plan splits it, so the planner scans the job once
//! into a width-invariant cost profile and prices every candidate
//! width from it. The profiles are the closed-form models pinned
//! bit-identical to the cycle-accurate engines:
//!
//! * conv — [`ConvCostProfile`] (per stripe rectangle; summed per
//!   shard it equals the simulated sharded run);
//! * GEMM — [`GemmCostProfile`] (per output column tile, exact by the
//!   same pinned contract);
//! * network — one conv profile per layer, summed along the layer
//!   chain, with shapes propagated through the conv and PDP output
//!   dimensions (predicted cycles depend only on shapes and weights,
//!   never on activation values).
//!
//! The estimates price **Tempus** device time. When the executing
//! backend is the binary NVDLA baseline the decision is still made on
//! the Tempus curve, and so is the device account the serving
//! dispatcher keeps under either array policy; the job's reported
//! cycles always come from its own backend.

use tempus_core::gemm::{GemmCostProfile, TubGemm};
use tempus_core::schedule::{ConvCostProfile, StripeSchedule};
use tempus_core::shard::{plan_for_budget, BudgetPlan, WidenPolicy, WidthCost};
use tempus_core::TempusConfig;

use crate::backend::BackendKind;
use crate::engine::{array_leakage_fraction, array_power_mw, EngineConfig};
use crate::error::RuntimeError;
use crate::job::{Job, JobPayload};
use crate::stats::PERIOD_NS;

/// Per-dispatcher width planner. It keeps no memo: each job is
/// scanned once per [`ArrayPlanner::plan`], whatever the number of
/// candidate widths.
#[derive(Debug, Clone)]
pub struct ArrayPlanner {
    policy: WidenPolicy,
    num_arrays: usize,
    tempus: TempusConfig,
    gemm: TubGemm,
    /// Per-cycle Tempus array power in mW (the planner prices Tempus
    /// device time) — basis of the width curve's energy points.
    power_mw: f64,
    /// Static/leakage fraction of `power_mw`, from the calibrated
    /// synthesis model.
    leak_frac: f64,
}

/// One job's width-invariant cost.
enum CostProfile {
    Conv(ConvCostProfile),
    Gemm(GemmCostProfile),
    Network(Vec<ConvCostProfile>),
}

impl ArrayPlanner {
    /// Builds a planner for `config`'s modelled device under
    /// `policy`.
    #[must_use]
    pub fn new(config: &EngineConfig, policy: WidenPolicy) -> Self {
        ArrayPlanner {
            policy,
            num_arrays: config.num_arrays.max(1),
            tempus: config.tempus,
            gemm: TubGemm::new(
                config.gemm_grid.0,
                config.gemm_grid.1,
                config.tempus.base.precision,
            ),
            power_mw: array_power_mw(config, BackendKind::TempusCycleAccurate),
            leak_frac: array_leakage_fraction(config, BackendKind::TempusCycleAccurate),
        }
    }

    /// The cost-aware width decision for `job`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the closed-form models (the same
    /// job would fail identically at execution; dispatchers fall back
    /// to [`BudgetPlan::single`] and let the backend report it).
    pub fn plan(&mut self, job: &Job) -> Result<BudgetPlan, RuntimeError> {
        let profile = self.profile(job)?;
        plan_for_budget(self.num_arrays, &self.policy, |w| {
            Ok::<_, RuntimeError>(self.cost(&profile, w))
        })
    }

    /// [`ArrayPlanner::plan`] with the shared fallback the
    /// dispatchers use: a job whose cost cannot be estimated gets a
    /// zero-duration single-array plan — it executes at width 1 and
    /// the backend surfaces the underlying error.
    #[must_use]
    pub fn plan_or_single(&mut self, job: &Job) -> BudgetPlan {
        self.plan(job).unwrap_or_else(|_| BudgetPlan::single(0))
    }

    /// The whole-core price of `job`: its exact closed-form
    /// [`WidthCost`] at the full configured width, which an
    /// all-arrays placement holds the device for. On the Tempus and
    /// functional backends it equals the executed critical path
    /// bit-for-bit (the pinned model contract; networks are walked on
    /// shapes, and predicted cycles never depend on activation
    /// values). Like [`ArrayPlanner::plan_or_single`], a job whose
    /// cost cannot be estimated is priced at zero cycles and the
    /// backend surfaces the underlying error.
    #[must_use]
    pub fn whole_core_cost(&self, job: &Job) -> WidthCost {
        match self.profile(job) {
            Ok(profile) => self.cost(&profile, self.num_arrays),
            Err(_) => BudgetPlan::single(0).widths[0],
        }
    }

    /// Scans `job` into its width-invariant cost profile.
    fn profile(&self, job: &Job) -> Result<CostProfile, RuntimeError> {
        Ok(match &job.payload {
            JobPayload::Conv {
                features,
                kernels,
                params,
            } => {
                let schedule =
                    StripeSchedule::derive(features, kernels, params, &self.tempus.base)?;
                CostProfile::Conv(ConvCostProfile::new(&schedule, kernels, &self.tempus))
            }
            JobPayload::Gemm { a, b } => CostProfile::Gemm(self.gemm.cost_profile(a, b)),
            JobPayload::Network { input, layers } => {
                let (mut w, mut h) = (input.w(), input.h());
                let mut profiles = Vec::with_capacity(layers.len());
                for layer in layers {
                    let schedule = StripeSchedule::for_map(
                        w,
                        h,
                        &layer.kernels,
                        &layer.conv,
                        &self.tempus.base,
                    )?;
                    (w, h) = match &layer.pool {
                        Some(pool) => pool.output_dims(schedule.out_w, schedule.out_h)?,
                        None => (schedule.out_w, schedule.out_h),
                    };
                    profiles.push(ConvCostProfile::new(
                        &schedule,
                        &layer.kernels,
                        &self.tempus,
                    ));
                }
                CostProfile::Network(profiles)
            }
        })
    }

    /// Prices `profile` at `arrays`.
    fn cost(&self, profile: &CostProfile, arrays: usize) -> WidthCost {
        let (used, critical, reduction, total_array) = match profile {
            CostProfile::Conv(conv) => {
                let latency = conv.at(arrays);
                (
                    latency.plan.used_arrays(),
                    latency.critical_path_cycles,
                    latency.reduction_cycles,
                    latency.total_array_cycles,
                )
            }
            CostProfile::Gemm(gemm) => {
                let (plan, per_shard) = gemm.at(arrays);
                let critical = per_shard.iter().copied().max().unwrap_or(0);
                (plan.used_arrays(), critical, 0, per_shard.iter().sum())
            }
            CostProfile::Network(layers) => layers.iter().map(|layer| layer.at(arrays)).fold(
                (1, 0, 0, 0),
                |(used, critical, reduction, total), latency| {
                    (
                        used.max(latency.plan.used_arrays()),
                        critical + latency.critical_path_cycles,
                        reduction + latency.reduction_cycles,
                        total + latency.total_array_cycles,
                    )
                },
            ),
        };
        // Nominal-level energy split: dynamic (switching) energy on
        // working array-cycles, static (leakage) energy on the
        // busy-until wall window — `used` arrays held for the critical
        // path, idle tails included.
        let dynamic = self.power_mw * (1.0 - self.leak_frac) * total_array as f64 * PERIOD_NS;
        let wall = used as u64 * critical;
        let stat = self.power_mw * self.leak_frac * wall as f64 * PERIOD_NS;
        WidthCost {
            arrays,
            used,
            critical_path_cycles: critical,
            reduction_cycles: reduction,
            total_array_cycles: total_array,
            dynamic_energy_pj: dynamic.round() as u64,
            static_energy_pj: stat.round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, FunctionalBackend, InferenceBackend, TempusBackend};
    use tempus_arith::IntPrecision;
    use tempus_core::gemm::Matrix;
    use tempus_core::shard::GemmAxis;
    use tempus_core::TempusCore;
    use tempus_nvdla::conv::ConvParams;
    use tempus_nvdla::cube::{DataCube, KernelSet};
    use tempus_nvdla::network::NetworkLayer;
    use tempus_nvdla::pdp::PoolParams;

    fn planner(arrays: usize) -> ArrayPlanner {
        let config = EngineConfig::new(BackendKind::FastFunctional)
            .with_cores(
                TempusConfig::nv_small(),
                tempus_nvdla::config::NvdlaConfig::nv_small(),
            )
            .with_arrays(arrays);
        ArrayPlanner::new(&config, WidenPolicy::edge_default())
    }

    fn features(w: usize, h: usize, c: usize) -> DataCube {
        DataCube::from_fn(w, h, c, |x, y, c| {
            ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7) % 255) - 127
        })
    }

    fn kernels(k: usize, size: usize, c: usize) -> KernelSet {
        KernelSet::from_fn(k, size, size, c, |k, r, s, c| {
            ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11) % 255) - 127
        })
    }

    fn wide_conv() -> Job {
        // 32 kernels / atomic_k 8 = 4 kernel groups: widens well.
        let kernels = kernels(32, 3, 8);
        Job::conv(0, "wide", features(6, 6, 8), kernels, ConvParams::valid())
    }

    fn narrow_gemm() -> Job {
        let a = Matrix::from_fn(3, 4, |i, j| ((i * 7 + j) % 9) as i32 - 4);
        let b = Matrix::from_fn(4, 3, |i, j| ((i * 5 + j) % 9) as i32 - 4);
        Job::gemm(1, "narrow", a, b)
    }

    #[test]
    fn wide_convs_request_multiple_arrays() {
        let mut planner = planner(4);
        let plan = planner.plan(&wide_conv()).unwrap();
        assert!(plan.arrays >= 2, "kernel-rich conv should widen");
        assert!(
            plan.cost_at(plan.arrays).critical_path_cycles < plan.cost_at(1).critical_path_cycles
        );
    }

    #[test]
    fn narrow_jobs_stay_narrow() {
        // A 3x3 GEMM on a (16, 16) grid is one output tile: widening
        // cannot help, and the planner must not request idle arrays.
        let mut planner = planner(8);
        let plan = planner.plan(&narrow_gemm()).unwrap();
        assert_eq!(plan.arrays, 1);
    }

    /// Critical path and total array-cycles of the cycle-accurate
    /// engine running `job` on `arrays` arrays.
    fn simulated(job: &Job, arrays: usize) -> (u64, u64) {
        let config = TempusConfig::nv_small();
        match &job.payload {
            JobPayload::Conv {
                features,
                kernels,
                params,
            } => {
                let run = TempusCore::new(config)
                    .convolve_sharded(features, kernels, params, arrays)
                    .unwrap();
                (run.critical_path_cycles, run.stats.cycles)
            }
            JobPayload::Gemm { a, b } => {
                let run = TubGemm::new(16, 16, IntPrecision::Int8)
                    .multiply_sharded(a, b, arrays)
                    .unwrap();
                (run.critical_path_cycles, run.per_shard_cycles.iter().sum())
            }
            JobPayload::Network { .. } => {
                let run = TempusBackend::new(config, (16, 16))
                    .execute_on(job, arrays)
                    .unwrap();
                (run.sim_cycles, run.total_array_cycles)
            }
        }
    }

    /// The planner's curve at width w equals what the cycle-accurate
    /// engines and the functional backend report when granted w — the
    /// ledger schedules with exactly the cycles execution will show.
    #[test]
    fn width_curves_match_the_executing_engines_exactly() {
        let gemm = |m: usize, p: usize| {
            let a = Matrix::from_fn(m, 12, |i, j| ((i * 31 + j * 17) % 255) as i32 - 127);
            let b = Matrix::from_fn(12, p, |i, j| ((i * 13 + j * 41) % 255) as i32 - 127);
            Job::gemm(2, format!("gemm {m}x{p}"), a, b)
        };
        let layer = |name: &str, k: usize, size: usize, c: usize| {
            let same = ConvParams::unit_stride_same(size);
            NetworkLayer::conv_relu(name, kernels(k, size, c), same, 6, IntPrecision::Int8)
        };
        let network = Job::network(
            3,
            "pooled network",
            features(8, 8, 8),
            vec![
                layer("l1", 16, 3, 8).with_pool(PoolParams::max(2)),
                layer("l2", 8, 3, 16),
                layer("l3", 24, 1, 8).with_pool(PoolParams::max(2)),
            ],
        );
        // One kernel group over four channel groups: splits by
        // channels and pays the cross-array reduction.
        let reduced = Job::conv(
            4,
            "channel groups",
            features(6, 6, 32),
            kernels(8, 3, 32),
            ConvParams::valid(),
        );
        let cases = [wide_conv(), reduced, gemm(8, 64), gemm(64, 8), network];
        let mut planner = planner(8);
        for job in &cases {
            let plan = planner.plan(job).unwrap();
            assert_eq!(plan.widths.len(), 8, "{}", job.name);
            for (cost, w) in plan.widths.iter().zip(1..) {
                let predicted = (cost.critical_path_cycles, cost.total_array_cycles);
                assert_eq!(predicted, simulated(job, w), "{} at width {w}", job.name);
                let run = FunctionalBackend::new(TempusConfig::nv_small(), (16, 16))
                    .execute_on(job, w)
                    .unwrap();
                let functional = (run.sim_cycles, run.total_array_cycles);
                assert_eq!(predicted, functional, "{} at width {w}", job.name);
            }
        }
        let grid = TubGemm::new(16, 16, IntPrecision::Int8);
        assert_eq!(grid.shard_plan(8, 64, 8).axis, GemmAxis::Cols);
        assert_eq!(grid.shard_plan(64, 8, 8).axis, GemmAxis::Rows);
        assert!(planner.plan(&cases[1]).unwrap().cost_at(4).reduction_cycles > 0);
    }

    #[test]
    fn bad_shapes_error_like_execution_would() {
        let bad = Job::gemm(9, "bad", Matrix::zeros(2, 3), Matrix::zeros(4, 2));
        let mut planner = planner(4);
        // GEMM width curves never error (the closed-form model is
        // total); conv shape errors do propagate.
        assert!(planner.plan(&bad).is_ok());
        let mismatched = Job::conv(
            10,
            "mismatch",
            DataCube::zeros(4, 4, 3),
            KernelSet::zeros(2, 3, 3, 5),
            ConvParams::valid(),
        );
        assert!(planner.plan(&mismatched).is_err());
    }
}
