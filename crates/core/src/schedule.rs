//! CSC stripe-schedule caching for batched serving.
//!
//! The closed-form latency model in [`crate::latency`] walks the full
//! [`ModifiedCsc`](crate::csc_mod::ModifiedCsc) command stream — every
//! weight load *and* every atomic op — which is wasteful when the same
//! layer shapes (and, in batched inference, the same weights) recur
//! across requests. This module provides the fast path the runtime's
//! workers use:
//!
//! * [`StripeSchedule`] — the shape-derived stripe decomposition
//!   (groups, taps, ops per stripe), cached per layer shape;
//! * [`ConvCostProfile`] — the width-invariant cost of a layer: the
//!   cycles of every (kernel group × channel group) stripe rectangle,
//!   from one scan of the weights; [`ConvCostProfile::at`] prices any
//!   array count by summing rectangles;
//! * a weight-digest-keyed memo of profiles, so a repeated layer costs
//!   one hash lookup instead of a weight scan, at every width;
//! * [`ScheduleCache::predict_sharded`] — the memoized profile priced
//!   at any width; at one array its critical path is *bit-identical*
//!   to [`crate::latency::predict`]'s total (tests pin this), which is
//!   itself pinned to the cycle-accurate simulation.
//!
//! The cache is intended to be owned per worker thread (no interior
//! locking): each worker of the runtime engine keeps its own instance,
//! so the hot path is contention-free.

use std::collections::HashMap;

use tempus_nvdla::config::NvdlaConfig;
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::NvdlaError;

use crate::shard::{balance, plan_conv, ShardPlan, ShardStrategy};
use crate::TempusConfig;

/// Cache key: everything the stripe decomposition depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Feature width.
    pub fw: usize,
    /// Feature height.
    pub fh: usize,
    /// Channels.
    pub c: usize,
    /// Kernel count.
    pub k: usize,
    /// Kernel height (taps).
    pub r: usize,
    /// Kernel width (taps).
    pub s: usize,
    /// Stride x/y.
    pub stride: (usize, usize),
    /// Padding x/y.
    pub pad: (usize, usize),
    /// Dilation x/y.
    pub dilation: (usize, usize),
    /// Array shape `(atomic_k, atomic_c)`.
    pub array: (usize, usize),
}

impl ShapeKey {
    /// Builds the key for one convolution under `config`.
    #[must_use]
    pub fn new(
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
        config: &NvdlaConfig,
    ) -> Self {
        ShapeKey {
            fw: features.w(),
            fh: features.h(),
            c: kernels.c(),
            k: kernels.k(),
            r: kernels.r(),
            s: kernels.s(),
            stride: (params.stride_x, params.stride_y),
            pad: (params.pad_x, params.pad_y),
            dilation: (params.dilation_x, params.dilation_y),
            array: (config.atomic_k, config.atomic_c),
        }
    }
}

/// The shape-derived part of a stripe schedule: identical for every
/// convolution with the same [`ShapeKey`], independent of weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeSchedule {
    /// Output width.
    pub out_w: usize,
    /// Output height.
    pub out_h: usize,
    /// Kernel groups (`ceil(k / atomic_k)`).
    pub kernel_groups: usize,
    /// Channel groups (`ceil(c / atomic_c)`).
    pub channel_groups: usize,
    /// Total stripes (`kernel_groups × channel_groups × r × s`).
    pub stripe_count: u64,
    /// Atomic ops streamed per stripe (`out_w × out_h`).
    pub ops_per_stripe: u64,
}

impl StripeSchedule {
    /// Derives the schedule from shapes, mirroring
    /// [`tempus_nvdla::csc::CscSequencer`]'s decomposition exactly.
    ///
    /// # Errors
    ///
    /// Returns the same shape errors the sequencer would.
    pub fn derive(
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
        config: &NvdlaConfig,
    ) -> Result<Self, NvdlaError> {
        if features.c() != kernels.c() {
            return Err(NvdlaError::ChannelMismatch {
                feature_c: features.c(),
                kernel_c: kernels.c(),
            });
        }
        Self::for_map(features.w(), features.h(), kernels, params, config)
    }

    /// [`StripeSchedule::derive`] from the feature map's `fw × fh`
    /// extent alone (its channels are taken to match `kernels`) — the
    /// schedule never reads activation values, so a layer chain can be
    /// planned on shapes without materializing cubes.
    ///
    /// # Errors
    ///
    /// Returns the sequencer's output-shape errors.
    pub fn for_map(
        fw: usize,
        fh: usize,
        kernels: &KernelSet,
        params: &ConvParams,
        config: &NvdlaConfig,
    ) -> Result<Self, NvdlaError> {
        let (out_w, out_h) = params.output_dims(fw, fh, kernels.r(), kernels.s())?;
        let kernel_groups = kernels.k().div_ceil(config.atomic_k);
        let channel_groups = kernels.c().div_ceil(config.atomic_c);
        Ok(StripeSchedule {
            out_w,
            out_h,
            kernel_groups,
            channel_groups,
            stripe_count: (kernel_groups * channel_groups * kernels.r() * kernels.s()) as u64,
            ops_per_stripe: (out_w * out_h) as u64,
        })
    }

    /// Total atomic ops across the whole convolution.
    #[must_use]
    pub fn atomic_op_count(&self) -> u64 {
        self.stripe_count * self.ops_per_stripe
    }
}

/// Hit/miss counters for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Shape-schedule lookups served from the cache.
    pub schedule_hits: u64,
    /// Shape-schedule lookups that had to derive.
    pub schedule_misses: u64,
    /// Latency predictions served from the memo.
    pub latency_hits: u64,
    /// Latency predictions that had to scan weights.
    pub latency_misses: u64,
}

impl CacheStats {
    /// Merges another worker's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.schedule_hits += other.schedule_hits;
        self.schedule_misses += other.schedule_misses;
        self.latency_hits += other.latency_hits;
        self.latency_misses += other.latency_misses;
    }
}

/// Memo key for a cost profile: the stripe shape, the weight digest,
/// and the [`TempusConfig`] fields the profile depends on (the cache
/// overheads).
type LatencyKey = (ShapeKey, u64, u32, u32);

/// Closed-form latency of a convolution partitioned across N PE
/// arrays — the functional backend's model of the multi-array engine,
/// bit-identical to the per-shard cycle counts of
/// [`TempusCore::convolve_sharded`](crate::TempusCore::convolve_sharded)
/// (pinned by tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedLatency {
    /// The plan the prediction models.
    pub plan: ShardPlan,
    /// Predicted cycles per shard, in shard order.
    pub per_shard_cycles: Vec<u64>,
    /// Cycles of the cross-array reduction stage (0 for kernel-group
    /// splits).
    pub reduction_cycles: u64,
    /// Predicted multi-array latency: slowest shard plus reduction.
    pub critical_path_cycles: u64,
    /// Summed array-cycles — equals the single-array engine's total
    /// exactly (the stripe set partitions).
    pub total_array_cycles: u64,
}

impl ShardedLatency {
    /// Work balance across the arrays (see [`crate::shard::balance`]).
    #[must_use]
    pub fn balance(&self) -> f64 {
        balance(&self.per_shard_cycles)
    }
}

/// The width-invariant cost of one convolution: the cycles of every
/// (kernel group × channel group) stripe rectangle — one weight-load
/// cycle per stripe plus window and cache overheads per atomic op —
/// priced from a single scan of the weights.
///
/// Every [`ShardPlan`] partitions the stripe set along group
/// boundaries, so [`ConvCostProfile::at`] prices any array count by
/// summing rectangles: the same u64 sums over the same stripes, hence
/// bit-identical to the per-shard cycles of
/// [`TempusCore::convolve_sharded`](crate::TempusCore::convolve_sharded)
/// at every width, and to [`crate::latency::predict`]'s total at one
/// array (tests pin both).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvCostProfile {
    schedule: StripeSchedule,
    k: usize,
    c: usize,
    array: (usize, usize),
    /// Cycles of rectangle `(kg, cg)` at `kg * channel_groups + cg`.
    rects: Vec<u64>,
}

impl ConvCostProfile {
    /// Prices every stripe rectangle of `schedule` (derived for
    /// `kernels`) under `config`.
    #[must_use]
    pub fn new(schedule: &StripeSchedule, kernels: &KernelSet, config: &TempusConfig) -> Self {
        let (atomic_k, atomic_c) = (config.base.atomic_k, config.base.atomic_c);
        let cgs = schedule.channel_groups;
        let taps = kernels.r() * kernels.s();
        // Largest |weight| per stripe, indexed (kg, cg, tap), in one
        // pass over the weights in storage order (channels innermost).
        // Cells past the kernel count and channels past the extent are
        // zero (silent) and cannot raise a stripe's max magnitude.
        let mut max_mag = vec![0u32; schedule.kernel_groups * cgs * taps];
        let c = kernels.c().max(1);
        for (k, kernel) in kernels.as_slice().chunks((taps * c).max(1)).enumerate() {
            let group_stripes = &mut max_mag[k / atomic_k * cgs * taps..];
            for (tap, weights) in kernel.chunks(c).enumerate() {
                for (cg, group) in weights.chunks(atomic_c).enumerate() {
                    let mag = group.iter().fold(0, |m, &v| m.max(v.unsigned_abs()));
                    let slot = &mut group_stripes[cg * taps + tap];
                    *slot = (*slot).max(mag);
                }
            }
        }
        let ops_per_stripe = schedule.ops_per_stripe;
        let overhead_per_op = u64::from(config.cache_in_cycles + config.cache_out_cycles);
        let rects = (0..schedule.kernel_groups * cgs)
            .map(|rect| {
                max_mag[rect * taps..(rect + 1) * taps]
                    .iter()
                    .map(|&mag| {
                        let stripe_latency = u64::from(mag.div_ceil(2).max(1));
                        1 + (stripe_latency + overhead_per_op) * ops_per_stripe
                    })
                    .sum()
            })
            .collect();
        ConvCostProfile {
            schedule: *schedule,
            k: kernels.k(),
            c: kernels.c(),
            array: (atomic_k, atomic_c),
            rects,
        }
    }

    /// Summed cycles of the rectangles `kg × cg` (group ranges).
    fn rect_cost(&self, kg: (usize, usize), cg: (usize, usize)) -> u64 {
        let cgs = self.schedule.channel_groups;
        (kg.0..kg.1)
            .map(|g| {
                self.rects[g * cgs + cg.0..g * cgs + cg.1]
                    .iter()
                    .sum::<u64>()
            })
            .sum()
    }

    /// The latency across `num_arrays` PE arrays: plans the split
    /// exactly as the cycle-accurate driver does, then sums each
    /// shard's rectangles.
    #[must_use]
    pub fn at(&self, num_arrays: usize) -> ShardedLatency {
        let (atomic_k, atomic_c) = self.array;
        let plan = plan_conv(self.k, self.c, atomic_k, atomic_c, num_arrays);
        let all_kg = (0, self.schedule.kernel_groups);
        let all_cg = (0, self.schedule.channel_groups);
        let per_shard_cycles: Vec<u64> = match plan.strategy {
            ShardStrategy::Single => vec![self.rect_cost(all_kg, all_cg)],
            ShardStrategy::KernelGroups => plan
                .slices
                .iter()
                .map(|s| self.rect_cost((s.group_lo, s.group_hi), all_cg))
                .collect(),
            ShardStrategy::ChannelGroups => plan
                .slices
                .iter()
                .map(|s| self.rect_cost(all_kg, (s.group_lo, s.group_hi)))
                .collect(),
        };
        let out_elems = (self.schedule.out_w * self.schedule.out_h * self.k) as u64;
        let reduction_cycles = plan.reduction_cycles(out_elems, atomic_k);
        let max_shard = per_shard_cycles.iter().copied().max().unwrap_or(0);
        ShardedLatency {
            plan,
            total_array_cycles: per_shard_cycles.iter().sum(),
            critical_path_cycles: max_shard + reduction_cycles,
            reduction_cycles,
            per_shard_cycles,
        }
    }
}

/// Most cost profiles one [`ScheduleCache`] keeps. A long-running
/// worker on unique traffic would otherwise grow the memo without
/// bound; at the cap it is cleared and refills with what recurs.
const PROFILE_MEMO_CAP: usize = 1024;

/// Per-worker stripe-schedule and cost-profile cache.
#[derive(Debug, Clone, Default)]
pub struct ScheduleCache {
    schedules: HashMap<ShapeKey, StripeSchedule>,
    profiles: HashMap<LatencyKey, ConvCostProfile>,
    stats: CacheStats,
}

impl ScheduleCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cached entries `(schedules, profiles)`.
    #[must_use]
    pub fn len(&self) -> (usize, usize) {
        (self.schedules.len(), self.profiles.len())
    }

    /// `true` when nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty() && self.profiles.is_empty()
    }

    /// The stripe schedule for one convolution, cached per shape.
    ///
    /// # Errors
    ///
    /// Returns the sequencer's shape errors on the first (miss) path.
    pub fn schedule(
        &mut self,
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
        config: &NvdlaConfig,
    ) -> Result<StripeSchedule, NvdlaError> {
        let key = ShapeKey::new(features, kernels, params, config);
        if let Some(&hit) = self.schedules.get(&key) {
            self.stats.schedule_hits += 1;
            return Ok(hit);
        }
        self.stats.schedule_misses += 1;
        let schedule = StripeSchedule::derive(features, kernels, params, config)?;
        self.schedules.insert(key, schedule);
        Ok(schedule)
    }

    /// The cost profile of one convolution, memoized per shape ×
    /// weight digest × config: a repeated layer costs one weight hash
    /// and no scan, whatever width it is then priced at. The memo
    /// holds at most [`PROFILE_MEMO_CAP`] profiles.
    ///
    /// # Errors
    ///
    /// Returns the sequencer's shape errors.
    fn profile(
        &mut self,
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
        config: &TempusConfig,
    ) -> Result<&ConvCostProfile, NvdlaError> {
        let memo_key = (
            ShapeKey::new(features, kernels, params, &config.base),
            kernels.content_hash(),
            config.cache_in_cycles,
            config.cache_out_cycles,
        );
        if self.profiles.contains_key(&memo_key) {
            self.stats.latency_hits += 1;
        } else {
            self.stats.latency_misses += 1;
            let schedule = self.schedule(features, kernels, params, &config.base)?;
            let profile = ConvCostProfile::new(&schedule, kernels, config);
            if self.profiles.len() >= PROFILE_MEMO_CAP {
                self.profiles.clear();
            }
            self.profiles.insert(memo_key, profile);
        }
        Ok(&self.profiles[&memo_key])
    }

    /// Closed-form multi-array latency prediction: the memoized
    /// profile priced at `num_arrays`. Per-shard cycles are
    /// bit-identical to the cycle-accurate sharded engine (each shard
    /// is itself a convolution the single-array theorem covers).
    ///
    /// # Errors
    ///
    /// Returns the sequencer's shape errors.
    pub fn predict_sharded(
        &mut self,
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
        config: &TempusConfig,
        num_arrays: usize,
    ) -> Result<ShardedLatency, NvdlaError> {
        Ok(self
            .profile(features, kernels, params, config)?
            .at(num_arrays))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_nvdla::csc::CscSequencer;
    use tempus_nvdla::pipeline::ConvCore;

    use crate::latency;
    use crate::TempusCore;

    fn case(c: usize, k: usize, ksize: usize, seed: i32) -> (DataCube, KernelSet) {
        let f = DataCube::from_fn(7, 6, c, move |x, y, ch| {
            ((x as i32 * 31 + y as i32 * 17 + ch as i32 * 7 + seed) % 255) - 127
        });
        let kn = KernelSet::from_fn(k, ksize, ksize, c, move |k, r, s, ch| {
            ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + ch as i32 * 11 + seed) % 255) - 127
        });
        (f, kn)
    }

    #[test]
    fn schedule_matches_sequencer_counts() {
        for (c, k, ksize, params) in [
            (8, 8, 3, ConvParams::valid()),
            (11, 13, 3, ConvParams::unit_stride_same(3)),
            (16, 4, 5, ConvParams::strided(2, 2)),
            (3, 9, 1, ConvParams::valid()),
        ] {
            let (f, kn) = case(c, k, ksize, 3);
            let cfg = NvdlaConfig::nv_small();
            let seq = CscSequencer::new(&f, &kn, &params, &cfg).unwrap();
            let schedule = StripeSchedule::derive(&f, &kn, &params, &cfg).unwrap();
            assert_eq!(schedule.stripe_count, seq.stripe_count());
            assert_eq!(schedule.atomic_op_count(), seq.atomic_op_count());
            assert_eq!((schedule.out_w, schedule.out_h), seq.output_dims());
        }
    }

    #[test]
    fn cached_prediction_is_bit_identical_to_walking_predictor() {
        let mut cache = ScheduleCache::new();
        for (c, k, ksize, params) in [
            (8, 8, 3, ConvParams::valid()),
            (11, 13, 3, ConvParams::unit_stride_same(3)),
            (16, 4, 5, ConvParams::strided(2, 2)),
        ] {
            let (f, kn) = case(c, k, ksize, 9);
            for overheads in [(1, 1), (0, 0), (2, 3)] {
                let config =
                    TempusConfig::nv_small().with_cache_overheads(overheads.0, overheads.1);
                let walked = latency::predict(&f, &kn, &params, &config).unwrap();
                let cached = cache.predict_sharded(&f, &kn, &params, &config, 1).unwrap();
                assert_eq!(
                    cached.critical_path_cycles, walked.total_cycles,
                    "c={c} k={k} ksize={ksize}"
                );
                assert_eq!(cached.per_shard_cycles, [walked.total_cycles]);
                assert_eq!(cached.reduction_cycles, 0);
            }
        }
    }

    #[test]
    fn profile_memo_is_bounded_and_repeats_still_hit() {
        let params = ConvParams::valid();
        let config = TempusConfig::nv_small();
        let features = DataCube::from_fn(4, 4, 8, |x, y, ch| (x + 2 * y + ch) as i32 - 6);
        // Bit `k * 8 + ch` of `i` picks the weight: distinct sets for
        // every `i` below 2^16.
        let weights = |i: usize| {
            KernelSet::from_fn(2, 1, 1, 8, move |k, _, _, ch| {
                if (i >> (k * 8 + ch)) & 1 == 1 {
                    5
                } else {
                    -3
                }
            })
        };
        let mut cache = ScheduleCache::new();
        for i in 0..=PROFILE_MEMO_CAP {
            let kn = weights(i);
            let cached = cache
                .predict_sharded(&features, &kn, &params, &config, 1)
                .unwrap();
            let walked = latency::predict(&features, &kn, &params, &config).unwrap();
            assert_eq!(
                cached.critical_path_cycles, walked.total_cycles,
                "weight set {i}"
            );
            assert!(cache.len().1 <= PROFILE_MEMO_CAP);
        }
        assert_eq!(cache.stats().latency_misses, PROFILE_MEMO_CAP as u64 + 1);
        let kn = weights(PROFILE_MEMO_CAP);
        let again = cache
            .predict_sharded(&features, &kn, &params, &config, 1)
            .unwrap();
        assert_eq!(cache.stats().latency_hits, 1, "a repeat still hits");
        assert_eq!(
            again.critical_path_cycles,
            latency::predict(&features, &kn, &params, &config)
                .unwrap()
                .total_cycles
        );
    }

    #[test]
    fn cached_prediction_matches_cycle_accurate_simulation() {
        let (f, kn) = case(8, 8, 3, 11);
        let params = ConvParams::unit_stride_same(3);
        let config = TempusConfig::nv_small();
        let mut cache = ScheduleCache::new();
        let predicted = cache.predict_sharded(&f, &kn, &params, &config, 1).unwrap();
        let mut core = TempusCore::new(config);
        let run = core.convolve(&f, &kn, &params).unwrap();
        assert_eq!(predicted.critical_path_cycles, run.stats.cycles);
    }

    #[test]
    fn sharded_prediction_matches_sharded_simulation_exactly() {
        let params = ConvParams::unit_stride_same(3);
        let config = TempusConfig::nv_small();
        let mut cache = ScheduleCache::new();
        for (c, k, arrays) in [
            (8usize, 32usize, 2usize),
            (8, 32, 4),
            (32, 8, 4),
            (11, 19, 3),
        ] {
            let (f, kn) = case(c, k, 3, 13);
            let predicted = cache
                .predict_sharded(&f, &kn, &params, &config, arrays)
                .unwrap();
            let mut core = TempusCore::new(config);
            let run = core.convolve_sharded(&f, &kn, &params, arrays).unwrap();
            assert_eq!(predicted.plan, run.plan, "c={c} k={k} arrays={arrays}");
            assert_eq!(
                predicted.per_shard_cycles,
                run.per_shard_cycles(),
                "c={c} k={k} arrays={arrays}"
            );
            assert_eq!(predicted.reduction_cycles, run.reduction_cycles);
            assert_eq!(predicted.critical_path_cycles, run.critical_path_cycles);
            assert_eq!(predicted.total_array_cycles, run.stats.cycles);
            assert_eq!(predicted.balance().to_bits(), run.balance().to_bits());
        }
    }

    #[test]
    fn sharded_prediction_sums_to_the_single_array_prediction() {
        let (f, kn) = case(16, 24, 3, 5);
        let params = ConvParams::valid();
        let config = TempusConfig::nv_small();
        let mut cache = ScheduleCache::new();
        let single = latency::predict(&f, &kn, &params, &config).unwrap();
        for arrays in [1usize, 2, 3, 4, 8] {
            let sharded = cache
                .predict_sharded(&f, &kn, &params, &config, arrays)
                .unwrap();
            assert_eq!(sharded.total_array_cycles, single.total_cycles, "{arrays}");
        }
    }

    #[test]
    fn sharded_predictions_hit_the_memo() {
        let (f, kn) = case(8, 16, 3, 9);
        let params = ConvParams::valid();
        let config = TempusConfig::nv_small();
        let mut cache = ScheduleCache::new();
        let first = cache.predict_sharded(&f, &kn, &params, &config, 2).unwrap();
        let misses = cache.stats().latency_misses;
        for _ in 0..5 {
            let again = cache.predict_sharded(&f, &kn, &params, &config, 2).unwrap();
            assert_eq!(first, again);
        }
        assert_eq!(cache.stats().latency_misses, misses);
        assert_eq!(cache.stats().latency_hits, 5);
        // The profile is width-invariant: other array counts,
        // one array included, are answered from the same entry.
        let _ = cache.predict_sharded(&f, &kn, &params, &config, 4).unwrap();
        let _ = cache.predict_sharded(&f, &kn, &params, &config, 1).unwrap();
        assert_eq!(cache.stats().latency_misses, misses);
        assert_eq!(cache.stats().latency_hits, 7);
        assert_eq!(cache.len(), (1, 1));
    }

    #[test]
    fn repeated_layers_hit_the_memo() {
        let (f, kn) = case(8, 8, 3, 5);
        let params = ConvParams::valid();
        let config = TempusConfig::nv_small();
        let mut cache = ScheduleCache::new();
        let first = cache.predict_sharded(&f, &kn, &params, &config, 1).unwrap();
        for _ in 0..9 {
            let again = cache.predict_sharded(&f, &kn, &params, &config, 1).unwrap();
            assert_eq!(first, again);
        }
        let stats = cache.stats();
        assert_eq!(stats.latency_misses, 1);
        assert_eq!(stats.latency_hits, 9);
        // Same shape with different weights: schedule hits, memo misses.
        let (_, other) = case(8, 8, 3, 6);
        cache
            .predict_sharded(&f, &other, &params, &config, 1)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.latency_misses, 2);
        assert_eq!(stats.schedule_hits, 1);
        assert_eq!(stats.schedule_misses, 1);
    }

    #[test]
    fn pipeline_depth_shares_one_profile() {
        // The binary baseline's pipeline depth does not move Tempus
        // cycles, so configs differing only there share one profile.
        let (f, kn) = case(8, 8, 3, 4);
        let params = ConvParams::valid();
        let mut cache = ScheduleCache::new();
        let shallow = TempusConfig::nv_small();
        let mut deep = shallow;
        deep.base.cmac_pipeline_depth = shallow.base.cmac_pipeline_depth + 5;
        let a = cache
            .predict_sharded(&f, &kn, &params, &shallow, 1)
            .unwrap();
        let b = cache.predict_sharded(&f, &kn, &params, &deep, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.len(), (1, 1));
        let walked = latency::predict(&f, &kn, &params, &deep).unwrap();
        assert_eq!(b.critical_path_cycles, walked.total_cycles);
    }

    #[test]
    fn shape_errors_propagate() {
        let f = DataCube::zeros(4, 4, 3);
        let kn = KernelSet::zeros(2, 3, 3, 5);
        let mut cache = ScheduleCache::new();
        assert!(matches!(
            cache.predict_sharded(&f, &kn, &ConvParams::valid(), &TempusConfig::nv_small(), 1),
            Err(NvdlaError::ChannelMismatch { .. })
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn cores_are_send_and_sync_for_worker_pools() {
        fn check<T: Send + Sync>() {}
        check::<TempusCore>();
        check::<ScheduleCache>();
        check::<tempus_nvdla::pipeline::NvdlaConvCore>();
    }
}
