//! Multi-array sharding: partition one job across N PE arrays.
//!
//! Edge DLAs scale by replicating MAC arrays; the tuGEMM/tubGEMM line
//! frames the unary datapath as tileable across units. This module
//! supplies the planning and execution layer for that scaling step:
//!
//! * [`plan_conv`] — splits a convolution's **kernel groups** across
//!   `num_arrays` PE arrays (each array computes complete output
//!   channels, no cross-array traffic), falling back to
//!   **channel-group** splitting with a cross-array partial-sum
//!   reduction stage when k is too small to fill the arrays;
//! * [`convolve_sharded_with`] — the generic multi-array driver: runs
//!   each shard through its own core (any [`ConvCore`]), merges psum
//!   streams deterministically into CACC output order, and keeps
//!   per-shard cycle accounting;
//! * [`plan_gemm`] — the analogous planner for the outer-product GEMM
//!   engine (output-tile splitting along either grid axis, no
//!   reduction stage);
//! * [`ShardPlan::reduction_cycles`] — the closed-form cost of the
//!   cross-array reduction tree, shared by the cycle-accurate drivers
//!   and the functional latency model so the two agree exactly.
//!
//! **Equivalence contract.** The stripe set of a convolution is
//! `kernel_groups × channel_groups × r × s`; both split axes partition
//! it along group boundaries, so every shard executes exactly the
//! stripes the single-array engine would, with identical weight arrays
//! and window lengths. Sharded outputs are therefore bit-identical to
//! the single-array engine, and the *summed* statistics (cycles,
//! atomic ops, stripes, pulse/gated PE-cycles, window statistics) are
//! bit-identical too — pinned by `tests/shard_equivalence.rs`. The
//! job-level latency is the **critical path**: the slowest shard plus
//! the reduction stage.

use tempus_arith::binary::saturating_accumulate;
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::pipeline::{ConvCore, RunStats};
use tempus_nvdla::NvdlaError;
use tempus_sim::{ActivityCounter, ShardActivity};

/// How a job is split across arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// One array runs the whole job (no split).
    Single,
    /// Each array owns a contiguous range of kernel groups and
    /// computes complete output channels — no reduction stage.
    KernelGroups,
    /// Each array owns a contiguous range of channel groups and
    /// computes partial sums over its channels for *every* output
    /// element; a cross-array reduction stage adds the partials.
    ChannelGroups,
}

/// One array's slice of the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlice {
    /// Group range `[group_lo, group_hi)` along the split axis.
    pub group_lo: usize,
    /// Exclusive upper group bound.
    pub group_hi: usize,
    /// Element range `[lo, hi)` along the split axis (kernels or
    /// channels), clamped to the job's extent.
    pub lo: usize,
    /// Exclusive upper element bound.
    pub hi: usize,
}

/// A sharding decision: strategy plus one slice per array used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Arrays the caller asked for.
    pub requested: usize,
    /// The chosen split axis.
    pub strategy: ShardStrategy,
    /// One slice per array actually used (empty for
    /// [`ShardStrategy::Single`]).
    pub slices: Vec<ShardSlice>,
}

impl ShardPlan {
    /// Arrays this plan actually occupies (1 for `Single`).
    #[must_use]
    pub fn used_arrays(&self) -> usize {
        if self.slices.is_empty() {
            1
        } else {
            self.slices.len()
        }
    }

    /// `true` when the plan needs the cross-array reduction stage.
    #[must_use]
    pub fn needs_reduction(&self) -> bool {
        self.strategy == ShardStrategy::ChannelGroups && self.used_arrays() > 1
    }

    /// Cycles of the cross-array partial-sum reduction stage for an
    /// output of `out_elems` elements reduced over `lanes` parallel
    /// adder lanes (the CACC write width, `atomic_k`): the tree
    /// streams `lanes` elements per cycle once its
    /// `ceil(log2(arrays))` pipeline stages fill. Zero when no
    /// reduction is needed (kernel-group splits concatenate, they
    /// never add).
    #[must_use]
    pub fn reduction_cycles(&self, out_elems: u64, lanes: usize) -> u64 {
        if !self.needs_reduction() {
            return 0;
        }
        out_elems.div_ceil(lanes.max(1) as u64) + ceil_log2(self.used_arrays())
    }
}

/// Knobs for cost-aware array-width selection ([`plan_for_budget`]).
///
/// PR 4's engine always hands a job every array it can use; under
/// mixed traffic that wastes silicon — past the point where the
/// marginal speedup of one more array is small, the array is better
/// spent on a co-scheduled neighbour. The policy encodes where that
/// point is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidenPolicy {
    /// Minimum speedup factor each **additional array** must buy for
    /// the planner to keep widening: width `w` is accepted over the
    /// current choice `c` only when
    /// `critical(c) / critical(w) >= min_speedup_per_array^(w - c)`.
    pub min_speedup_per_array: f64,
    /// Stop widening once the cross-array reduction stage exceeds
    /// this fraction of the candidate's critical path (reduction
    /// cycles are pure overhead — when they dominate, extra arrays
    /// are mostly adding partial sums back together).
    pub max_reduction_fraction: f64,
}

impl WidenPolicy {
    /// Edge-serving defaults: each extra array must buy ≥ 5% and the
    /// reduction tree may take at most a quarter of the critical
    /// path.
    #[must_use]
    pub fn edge_default() -> Self {
        WidenPolicy {
            min_speedup_per_array: 1.05,
            max_reduction_fraction: 0.25,
        }
    }
}

impl Default for WidenPolicy {
    fn default() -> Self {
        WidenPolicy::edge_default()
    }
}

/// The closed-form cost of running a job at one candidate width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthCost {
    /// Arrays offered to the planner at this candidate.
    pub arrays: usize,
    /// Arrays the shard plan actually uses at this width.
    pub used: usize,
    /// Predicted critical-path cycles (slowest shard + reduction).
    pub critical_path_cycles: u64,
    /// Predicted cross-array reduction cycles included above.
    pub reduction_cycles: u64,
    /// Predicted array-cycles of real work summed over the shards —
    /// what device-time occupancy accounting counts as busy (idle
    /// tails of imbalanced shards and reserved-but-unused arrays are
    /// waste, not work).
    pub total_array_cycles: u64,
    /// Closed-form **dynamic** energy of the work at the nominal
    /// operating point, in pJ: switching energy scales with the
    /// working array-cycles (window/pulse activity), derived from the
    /// calibrated synthesis model's dynamic power share. Zero when the
    /// planner has no calibrated power figure.
    pub dynamic_energy_pj: u64,
    /// Closed-form **static/leakage** energy at the nominal point, in
    /// pJ: leakage is charged on busy-until wall time — `used` arrays
    /// held for the critical path, idle tails included. Zero when
    /// uncalibrated.
    pub static_energy_pj: u64,
}

impl WidthCost {
    /// Total energy (dynamic + static) of this candidate when run at
    /// DVFS ladder level `lvl`, in pJ
    /// ([`crate::freq::energy_at`]).
    #[must_use]
    pub fn energy_at(&self, lvl: u8) -> u64 {
        crate::freq::energy_at(self.dynamic_energy_pj, self.static_energy_pj, lvl)
    }
}

/// A cost-aware width decision: the chosen array count plus the full
/// width/cost curve that was evaluated (the device-time ledger uses
/// the curve to price shrink-vs-wait trade-offs at grant time).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPlan {
    /// The chosen width — what the job should request.
    pub arrays: usize,
    /// Predicted critical path at the chosen width.
    pub critical_path_cycles: u64,
    /// Evaluated candidates: `widths[i]` is the cost at `i + 1`
    /// arrays, contiguous from width 1 up to the last width the
    /// policy looked at.
    pub widths: Vec<WidthCost>,
}

impl BudgetPlan {
    /// A degenerate single-array plan (used as the fallback when a
    /// job's cost cannot be estimated — the execution will surface
    /// the underlying error).
    #[must_use]
    pub fn single(critical_path_cycles: u64) -> Self {
        BudgetPlan {
            arrays: 1,
            critical_path_cycles,
            widths: vec![WidthCost {
                arrays: 1,
                used: 1,
                critical_path_cycles,
                reduction_cycles: 0,
                total_array_cycles: critical_path_cycles,
                dynamic_energy_pj: 0,
                static_energy_pj: 0,
            }],
        }
    }

    /// The evaluated cost at `arrays`, clamped into the evaluated
    /// range (widths past the last candidate cost the same as the
    /// last candidate — the planner stopped because widening had
    /// ceased to help).
    ///
    /// # Panics
    ///
    /// Panics when the plan holds no candidates (never produced by
    /// [`plan_for_budget`] or [`BudgetPlan::single`]).
    #[must_use]
    pub fn cost_at(&self, arrays: usize) -> &WidthCost {
        let idx = arrays.clamp(1, self.widths.len()) - 1;
        &self.widths[idx]
    }

    /// The (latency, energy) Pareto set of running this plan at
    /// `arrays` across every DVFS ladder level: one
    /// [`ParetoPoint`] per level, level order (so latency is
    /// non-decreasing and dynamic energy non-increasing down the
    /// list). The scheduler walks this to pick the lowest-energy
    /// point that still meets a deadline / power envelope.
    #[must_use]
    pub fn pareto_at(&self, arrays: usize) -> Vec<ParetoPoint> {
        let cost = self.cost_at(arrays);
        (0..crate::freq::NUM_LEVELS as u8)
            .map(|lvl| ParetoPoint {
                level: lvl,
                latency_cycles: crate::freq::level(lvl).scale_cycles(cost.critical_path_cycles),
                energy_pj: cost.energy_at(lvl),
            })
            .collect()
    }
}

/// One point of a plan's (latency, energy) Pareto frontier: the cost
/// of one `(width, frequency level)` operating choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParetoPoint {
    /// DVFS ladder level ([`crate::freq::LADDER`] index).
    pub level: u8,
    /// Critical-path latency at the level, in nominal device cycles.
    pub latency_cycles: u64,
    /// Total (dynamic + static) energy at the level, in pJ.
    pub energy_pj: u64,
}

/// Speedup of widening from `narrower_cycles` to `wider_cycles`
/// critical-path cycles (≥ 1.0 when widening helped).
#[must_use]
pub fn marginal_speedup(narrower_cycles: u64, wider_cycles: u64) -> f64 {
    narrower_cycles as f64 / wider_cycles.max(1) as f64
}

/// Picks how many arrays a job should take, instead of always taking
/// all `max_arrays`: every candidate width up to `max_arrays` is
/// evaluated through `estimate` (typically a closure pricing a
/// [`ConvCostProfile`](crate::schedule::ConvCostProfile) or
/// [`GemmCostProfile`](crate::gemm::GemmCostProfile) built once per
/// job), and
/// the walk widens from the current choice `c` to a wider `w` only
/// when
///
/// * the plan at `w` uses more arrays than the plan at `c` (not
///   saturated),
/// * the marginal gain holds: `critical(c) / critical(w) >=`
///   [`WidenPolicy::min_speedup_per_array`]`^(w - c)` — each added
///   array must pay for itself, and
/// * the cross-array reduction stage stays under
///   [`WidenPolicy::max_reduction_fraction`] of the critical path.
///
/// Failing widths are *skipped*, not terminal: 4 kernel groups gain
/// nothing going from 2 arrays to 3 (the 2-group shard still
/// dominates), but halve again at 4 — the plateau must not hide the
/// win behind it.
///
/// # Errors
///
/// Propagates the first `estimate` error (shape mismatches surface at
/// execution too; callers usually fall back to [`BudgetPlan::single`]).
pub fn plan_for_budget<E, F>(
    max_arrays: usize,
    policy: &WidenPolicy,
    mut estimate: F,
) -> Result<BudgetPlan, E>
where
    F: FnMut(usize) -> Result<WidthCost, E>,
{
    let max_arrays = max_arrays.max(1);
    let mut widths = Vec::with_capacity(max_arrays);
    widths.push(estimate(1)?);
    let mut chosen = 0usize;
    for w in 2..=max_arrays {
        let cost = estimate(w)?;
        let current = widths[chosen];
        let widens = cost.used > current.used;
        let gain = marginal_speedup(current.critical_path_cycles, cost.critical_path_cycles);
        let required = policy
            .min_speedup_per_array
            .powi((w - current.arrays) as i32);
        let reduction_ok = cost.reduction_cycles as f64
            <= policy.max_reduction_fraction * cost.critical_path_cycles.max(1) as f64;
        widths.push(cost);
        if widens && gain >= required && reduction_ok {
            chosen = widths.len() - 1;
        }
    }
    Ok(BudgetPlan {
        arrays: widths[chosen].arrays,
        critical_path_cycles: widths[chosen].critical_path_cycles,
        widths,
    })
}

/// `ceil(log2(n))` for the reduction-tree depth (0 for n <= 1).
#[must_use]
pub fn ceil_log2(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        u64::from(usize::BITS - (n - 1).leading_zeros())
    }
}

/// Splits `units` work units into at most `arrays` contiguous,
/// balanced chunks (the first `units % used` chunks get one extra).
#[must_use]
pub fn split_units(units: usize, arrays: usize) -> Vec<(usize, usize)> {
    let used = arrays.clamp(1, units.max(1));
    let base = units / used;
    let rem = units % used;
    (0..used)
        .map(|i| {
            let lo = i * base + i.min(rem);
            let hi = lo + base + usize::from(i < rem);
            (lo, hi)
        })
        .collect()
}

/// Plans a convolution split: `k`/`c` are the job's kernel and channel
/// extents, `atomic_k`/`atomic_c` the per-array shape. Kernel groups
/// are preferred (no reduction stage); channel groups are the
/// fallback when k is too small to fill the arrays and the channel
/// axis is richer.
#[must_use]
pub fn plan_conv(
    k: usize,
    c: usize,
    atomic_k: usize,
    atomic_c: usize,
    num_arrays: usize,
) -> ShardPlan {
    let kg = k.div_ceil(atomic_k.max(1));
    let cg = c.div_ceil(atomic_c.max(1));
    let n = num_arrays.max(1);
    let (strategy, used) = if n == 1 {
        (ShardStrategy::Single, 1)
    } else if kg >= n {
        (ShardStrategy::KernelGroups, n)
    } else if cg > kg && cg >= 2 {
        (ShardStrategy::ChannelGroups, n.min(cg))
    } else if kg >= 2 {
        (ShardStrategy::KernelGroups, kg)
    } else if cg >= 2 {
        (ShardStrategy::ChannelGroups, n.min(cg))
    } else {
        (ShardStrategy::Single, 1)
    };
    let slices = match strategy {
        ShardStrategy::Single => Vec::new(),
        ShardStrategy::KernelGroups => split_units(kg, used)
            .into_iter()
            .map(|(g_lo, g_hi)| ShardSlice {
                group_lo: g_lo,
                group_hi: g_hi,
                lo: g_lo * atomic_k,
                hi: (g_hi * atomic_k).min(k),
            })
            .collect(),
        ShardStrategy::ChannelGroups => split_units(cg, used)
            .into_iter()
            .map(|(g_lo, g_hi)| ShardSlice {
                group_lo: g_lo,
                group_hi: g_hi,
                lo: g_lo * atomic_c,
                hi: (g_hi * atomic_c).min(c),
            })
            .collect(),
    };
    ShardPlan {
        requested: num_arrays,
        strategy,
        slices,
    }
}

/// Work balance of a sharded run: total array-cycles over the
/// perfectly balanced ideal (`used × slowest shard`). 1.0 for a
/// single array or perfectly even shards; lower means idle arrays
/// waiting on the critical shard. Computable from per-shard cycle
/// counts alone, so the cycle-accurate and closed-form paths agree
/// bit-for-bit.
#[must_use]
pub fn balance(per_shard_cycles: &[u64]) -> f64 {
    let max = per_shard_cycles.iter().copied().max().unwrap_or(0);
    if per_shard_cycles.len() <= 1 || max == 0 {
        return 1.0;
    }
    let total: u64 = per_shard_cycles.iter().sum();
    total as f64 / (per_shard_cycles.len() as u64 * max) as f64
}

/// Accumulates per-layer shard cycle vectors into one job-level
/// balance figure (whole-network jobs run many sharded layers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardAccum {
    total_array_cycles: u64,
    ideal_array_cycles: u64,
    max_used: usize,
}

impl ShardAccum {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        ShardAccum::default()
    }

    /// Folds one sharded run's per-shard cycles in.
    pub fn add(&mut self, per_shard_cycles: &[u64]) {
        let used = per_shard_cycles.len().max(1);
        let max = per_shard_cycles.iter().copied().max().unwrap_or(0);
        self.total_array_cycles += per_shard_cycles.iter().sum::<u64>();
        self.ideal_array_cycles += used as u64 * max;
        self.max_used = self.max_used.max(used);
    }

    /// Aggregate balance over everything folded in (1.0 when empty).
    #[must_use]
    pub fn balance(&self) -> f64 {
        if self.ideal_array_cycles == 0 {
            1.0
        } else {
            self.total_array_cycles as f64 / self.ideal_array_cycles as f64
        }
    }

    /// The widest array occupancy observed.
    #[must_use]
    pub fn max_used(&self) -> usize {
        self.max_used.max(1)
    }
}

/// One shard's execution record inside a [`ShardedConvRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index within the plan.
    pub index: usize,
    /// Element range `[lo, hi)` this shard owned along the split axis.
    pub lo: usize,
    /// Exclusive upper element bound.
    pub hi: usize,
    /// The shard's full run statistics on its own array.
    pub stats: RunStats,
    /// The shard's clock and PE activity (cell-cycles for the binary
    /// core, pulse/gated PE-cycles once the Tempus driver refines it).
    pub activity: ShardActivity,
}

/// Result of a multi-array convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConvRun {
    /// Merged output cube — bit-identical to the single-array engine.
    pub output: DataCube,
    /// Merged statistics: work counters summed over shards,
    /// utilization recomputed from the merged integers.
    pub stats: RunStats,
    /// The plan that was executed.
    pub plan: ShardPlan,
    /// Per-shard records, in shard order.
    pub shards: Vec<ShardStats>,
    /// Cycles of the cross-array reduction stage (0 for kernel-group
    /// splits).
    pub reduction_cycles: u64,
    /// The job's latency on the multi-array core: slowest shard plus
    /// the reduction stage.
    pub critical_path_cycles: u64,
}

impl ShardedConvRun {
    /// Per-shard cycle counts, in shard order.
    #[must_use]
    pub fn per_shard_cycles(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.stats.cycles).collect()
    }

    /// Work balance across the arrays (see [`balance`]).
    #[must_use]
    pub fn balance(&self) -> f64 {
        balance(&self.per_shard_cycles())
    }
}

/// The generic multi-array driver: plans the split for `core`'s array
/// shape, runs every shard through `core` (its window-batched engine),
/// and merges the psum streams deterministically into CACC output
/// order — kernel shards concatenate along k, channel shards reduce
/// element-wise through `cacc_bits`-wide saturating adders, exactly
/// the arithmetic the CACC itself uses.
///
/// `observe` is called after each shard's `convolve` so callers can
/// capture core-specific statistics (the Tempus driver collects its
/// tub window/pulse statistics this way).
///
/// # Errors
///
/// Propagates the substrate errors of `core.convolve` for each shard,
/// plus [`NvdlaError::InvalidShape`] if a reduced accumulator exceeds
/// `i32` (callers picking adequate `cacc_bits` never see this).
pub fn convolve_sharded_with<C: ConvCore, F: FnMut(&C)>(
    core: &mut C,
    features: &DataCube,
    kernels: &KernelSet,
    params: &ConvParams,
    num_arrays: usize,
    mut observe: F,
) -> Result<ShardedConvRun, NvdlaError> {
    let cfg = *core.config();
    let plan = plan_conv(
        kernels.k(),
        kernels.c(),
        cfg.atomic_k,
        cfg.atomic_c,
        num_arrays,
    );

    if plan.strategy == ShardStrategy::Single {
        let run = core.convolve(features, kernels, params)?;
        observe(core);
        let cycles = run.stats.cycles;
        let activity = cell_activity(&run.stats, cfg.atomic_c);
        return Ok(ShardedConvRun {
            critical_path_cycles: cycles,
            reduction_cycles: 0,
            shards: vec![ShardStats {
                index: 0,
                lo: 0,
                hi: kernels.k(),
                stats: run.stats,
                activity: ShardActivity::new(0, cycles, activity),
            }],
            stats: run.stats,
            output: run.output,
            plan,
        });
    }

    let mut shards = Vec::with_capacity(plan.slices.len());
    let mut shard_outputs = Vec::with_capacity(plan.slices.len());
    for (index, slice) in plan.slices.iter().enumerate() {
        let run = match plan.strategy {
            ShardStrategy::KernelGroups => {
                let sub = kernels.slice_kernels(slice.lo, slice.hi);
                core.convolve(features, &sub, params)?
            }
            ShardStrategy::ChannelGroups => {
                let sub_f = features.slice_channels(slice.lo, slice.hi);
                let sub_k = kernels.slice_channels(slice.lo, slice.hi);
                core.convolve(&sub_f, &sub_k, params)?
            }
            ShardStrategy::Single => unreachable!("handled above"),
        };
        observe(core);
        let activity = cell_activity(&run.stats, cfg.atomic_c);
        shards.push(ShardStats {
            index,
            lo: slice.lo,
            hi: slice.hi,
            stats: run.stats,
            activity: ShardActivity::new(index, run.stats.cycles, activity),
        });
        shard_outputs.push(run.output);
    }

    // Deterministic psum merge into CACC output order.
    let output = match plan.strategy {
        ShardStrategy::KernelGroups => {
            let (w, h) = (shard_outputs[0].w(), shard_outputs[0].h());
            let mut out = DataCube::zeros(w, h, kernels.k());
            for (shard, cube) in shards.iter().zip(&shard_outputs) {
                for (x, y, ch, v) in cube.iter() {
                    out.set(x, y, shard.lo + ch, v);
                }
            }
            out
        }
        ShardStrategy::ChannelGroups => reduce_partials(&shard_outputs, cfg.cacc_bits)?,
        ShardStrategy::Single => unreachable!("handled above"),
    };

    let out_elems = (output.w() * output.h() * output.c()) as u64;
    let reduction_cycles = plan.reduction_cycles(out_elems, cfg.atomic_k);
    let max_shard = shards.iter().map(|s| s.stats.cycles).max().unwrap_or(0);

    let mut stats = RunStats::default();
    for s in &shards {
        stats.cycles += s.stats.cycles;
        stats.atomic_ops += s.stats.atomic_ops;
        stats.stripes += s.stats.stripes;
        stats.macs += s.stats.macs;
        stats.gated_cell_cycles += s.stats.gated_cell_cycles;
        stats.cbuf_reads += s.stats.cbuf_reads;
    }
    // Recomputed from the merged integers: macs per lane-cycle, the
    // binary core's definition. The Tempus driver overrides this with
    // its pulse-based figure from the merged tub statistics.
    let lane_cycles = stats.cycles * cfg.lanes() as u64;
    stats.utilization = if lane_cycles == 0 {
        0.0
    } else {
        stats.macs as f64 / lane_cycles as f64
    };

    Ok(ShardedConvRun {
        output,
        stats,
        plan,
        shards,
        reduction_cycles,
        critical_path_cycles: max_shard + reduction_cycles,
    })
}

/// Reconstructs a cell-cycle [`ActivityCounter`] from run statistics:
/// `macs / atomic_c` active cell-cycles (the binary core's exact
/// inverse) plus the recorded gated cell-cycles.
fn cell_activity(stats: &RunStats, atomic_c: usize) -> ActivityCounter {
    let mut a = ActivityCounter::new();
    a.record_active_n(stats.macs / atomic_c.max(1) as u64);
    a.record_gated_n(stats.gated_cell_cycles);
    a
}

/// Element-wise cross-array reduction of channel-shard partial sums,
/// through `acc_bits`-wide saturating adders (the CACC's arithmetic),
/// in shard order.
fn reduce_partials(partials: &[DataCube], acc_bits: u32) -> Result<DataCube, NvdlaError> {
    let first = &partials[0];
    let (w, h, c) = (first.w(), first.h(), first.c());
    let mut acc: Vec<i64> = first.as_slice().iter().map(|&v| i64::from(v)).collect();
    for cube in &partials[1..] {
        debug_assert_eq!((cube.w(), cube.h(), cube.c()), (w, h, c));
        for (slot, &v) in acc.iter_mut().zip(cube.as_slice()) {
            *slot = saturating_accumulate(*slot, i64::from(v), acc_bits);
        }
    }
    let mut data = Vec::with_capacity(acc.len());
    for v in acc {
        data.push(i32::try_from(v).map_err(|_| {
            NvdlaError::InvalidShape("reduced accumulator value exceeds i32 output".into())
        })?);
    }
    DataCube::from_vec(w, h, c, data)
}

/// Which GEMM output axis a multi-array split tiles over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmAxis {
    /// One array runs the whole product.
    Single,
    /// Each array owns a contiguous range of row tiles of `A`.
    Rows,
    /// Each array owns a contiguous range of column tiles of `B`.
    Cols,
}

/// A GEMM sharding decision: split axis plus per-array grid-tile
/// ranges. Output tiles are independent (the inner dimension is never
/// split), so no reduction stage is needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmShardPlan {
    /// The chosen split axis.
    pub axis: GemmAxis,
    /// Tile index ranges `[lo, hi)` per array (empty for `Single`).
    pub tiles: Vec<(usize, usize)>,
}

impl GemmShardPlan {
    /// Arrays this plan actually occupies (1 for `Single`).
    #[must_use]
    pub fn used_arrays(&self) -> usize {
        if self.tiles.is_empty() {
            1
        } else {
            self.tiles.len()
        }
    }
}

/// Plans a GEMM split over `m_tiles × p_tiles` output grid tiles:
/// column tiles are preferred (they shard the temporally streamed `B`
/// operand), row tiles are the fallback when the column axis is too
/// narrow.
#[must_use]
pub fn plan_gemm(m_tiles: usize, p_tiles: usize, num_arrays: usize) -> GemmShardPlan {
    let n = num_arrays.max(1);
    let (axis, units, used) = if n == 1 {
        (GemmAxis::Single, 0, 1)
    } else if p_tiles >= n {
        (GemmAxis::Cols, p_tiles, n)
    } else if m_tiles > p_tiles && m_tiles >= 2 {
        (GemmAxis::Rows, m_tiles, n.min(m_tiles))
    } else if p_tiles >= 2 {
        (GemmAxis::Cols, p_tiles, p_tiles)
    } else if m_tiles >= 2 {
        (GemmAxis::Rows, m_tiles, n.min(m_tiles))
    } else {
        (GemmAxis::Single, 0, 1)
    };
    GemmShardPlan {
        axis,
        tiles: if axis == GemmAxis::Single {
            Vec::new()
        } else {
            split_units(units, used)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_nvdla::config::NvdlaConfig;
    use tempus_nvdla::conv::direct_conv;
    use tempus_nvdla::pipeline::NvdlaConvCore;

    #[test]
    fn split_units_is_balanced_and_contiguous() {
        assert_eq!(split_units(8, 3), vec![(0, 3), (3, 6), (6, 8)]);
        assert_eq!(split_units(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(split_units(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(split_units(0, 3), vec![(0, 0)]);
    }

    #[test]
    fn planner_prefers_kernel_groups() {
        // 32 kernels / atomic_k 8 = 4 groups >= 2 arrays.
        let plan = plan_conv(32, 8, 8, 8, 2);
        assert_eq!(plan.strategy, ShardStrategy::KernelGroups);
        assert_eq!(plan.used_arrays(), 2);
        assert_eq!(
            plan.slices[0],
            ShardSlice {
                group_lo: 0,
                group_hi: 2,
                lo: 0,
                hi: 16
            }
        );
        assert_eq!(
            plan.slices[1],
            ShardSlice {
                group_lo: 2,
                group_hi: 4,
                lo: 16,
                hi: 32
            }
        );
        assert!(!plan.needs_reduction());
        assert_eq!(plan.reduction_cycles(1000, 8), 0);
    }

    #[test]
    fn planner_falls_back_to_channel_groups() {
        // 8 kernels = 1 group, 32 channels = 4 groups: k too small.
        let plan = plan_conv(8, 32, 8, 8, 4);
        assert_eq!(plan.strategy, ShardStrategy::ChannelGroups);
        assert_eq!(plan.used_arrays(), 4);
        assert!(plan.needs_reduction());
        // 1000 elements over 8 lanes + log2(4) stages.
        assert_eq!(plan.reduction_cycles(1000, 8), 125 + 2);
    }

    #[test]
    fn tiny_jobs_stay_single() {
        let plan = plan_conv(4, 6, 8, 8, 8);
        assert_eq!(plan.strategy, ShardStrategy::Single);
        assert_eq!(plan.used_arrays(), 1);
        assert_eq!(plan_conv(32, 32, 8, 8, 1).strategy, ShardStrategy::Single);
    }

    #[test]
    fn partial_last_group_clamps_element_range() {
        // 19 kernels / 8 = 3 groups (last partial) on 2 arrays.
        let plan = plan_conv(19, 8, 8, 8, 2);
        assert_eq!(plan.strategy, ShardStrategy::KernelGroups);
        assert_eq!(plan.slices[0].hi, 16);
        assert_eq!(plan.slices[1].lo, 16);
        assert_eq!(plan.slices[1].hi, 19);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn balance_measures_skew() {
        assert!((balance(&[100, 100]) - 1.0).abs() < 1e-12);
        assert!((balance(&[100, 50]) - 0.75).abs() < 1e-12);
        assert!((balance(&[42]) - 1.0).abs() < 1e-12);
        assert!((balance(&[]) - 1.0).abs() < 1e-12);

        let mut accum = ShardAccum::new();
        accum.add(&[100, 100]);
        accum.add(&[100, 50]);
        assert!((accum.balance() - 350.0 / 400.0).abs() < 1e-12);
        assert_eq!(accum.max_used(), 2);
    }

    #[test]
    fn gemm_planner_prefers_column_tiles() {
        let plan = plan_gemm(2, 8, 4);
        assert_eq!(plan.axis, GemmAxis::Cols);
        assert_eq!(plan.used_arrays(), 4);
        let rows = plan_gemm(8, 1, 4);
        assert_eq!(rows.axis, GemmAxis::Rows);
        assert_eq!(rows.used_arrays(), 4);
        assert_eq!(plan_gemm(1, 1, 4).axis, GemmAxis::Single);
        assert_eq!(plan_gemm(8, 8, 1).axis, GemmAxis::Single);
    }

    fn case(c: usize, k: usize, seed: i32) -> (DataCube, KernelSet) {
        let f = DataCube::from_fn(6, 6, c, move |x, y, ch| {
            ((x as i32 * 31 + y as i32 * 17 + ch as i32 * 7 + seed) % 255) - 127
        });
        let kn = KernelSet::from_fn(k, 3, 3, c, move |k, r, s, ch| {
            ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + ch as i32 * 11 + seed) % 255) - 127
        });
        (f, kn)
    }

    #[test]
    fn sharded_binary_core_matches_golden_on_both_axes() {
        let params = ConvParams::unit_stride_same(3);
        for (c, k, arrays) in [(8, 32, 2), (8, 32, 4), (32, 8, 4), (11, 19, 3)] {
            let (f, kn) = case(c, k, 1);
            let golden = direct_conv(&f, &kn, &params).unwrap();
            let mut core = NvdlaConvCore::new(NvdlaConfig::nv_small());
            let run = convolve_sharded_with(&mut core, &f, &kn, &params, arrays, |_| {}).unwrap();
            assert_eq!(run.output, golden, "c={c} k={k} arrays={arrays}");
            assert!(run.critical_path_cycles <= run.stats.cycles);
            assert_eq!(run.plan.used_arrays(), run.shards.len());
        }
    }

    #[test]
    fn sharded_binary_cycles_relate_exactly_to_single() {
        // Each array pays its own pipeline drain; everything else
        // partitions. The merged cycle sum must equal the single-array
        // run plus (used - 1) extra drains — an exact pinned identity.
        let params = ConvParams::valid();
        let cfg = NvdlaConfig::nv_small();
        for (c, k, arrays) in [(8, 32, 4), (32, 8, 4)] {
            let (f, kn) = case(c, k, 5);
            let mut single = NvdlaConvCore::new(cfg);
            let base = single.convolve(&f, &kn, &params).unwrap();
            let mut core = NvdlaConvCore::new(cfg);
            let run = convolve_sharded_with(&mut core, &f, &kn, &params, arrays, |_| {}).unwrap();
            let used = run.plan.used_arrays() as u64;
            assert_eq!(
                run.stats.cycles,
                base.stats.cycles + (used - 1) * u64::from(cfg.cmac_pipeline_depth)
            );
            assert_eq!(run.stats.atomic_ops, base.stats.atomic_ops);
            assert_eq!(run.stats.stripes, base.stats.stripes);
            assert_eq!(run.stats.macs, base.stats.macs);
            assert_eq!(run.stats.cbuf_reads, base.stats.cbuf_reads);
        }
    }

    /// A synthetic near-linear cost curve: the budget planner should
    /// keep widening while gains hold and stop at saturation.
    fn linear_curve(units: u64) -> impl FnMut(usize) -> Result<WidthCost, ()> {
        move |w| {
            let used = (w as u64).min(units).max(1);
            Ok(WidthCost {
                arrays: w,
                used: used as usize,
                critical_path_cycles: units * 1000 / used,
                reduction_cycles: 0,
                total_array_cycles: units * 1000,
                dynamic_energy_pj: 0,
                static_energy_pj: 0,
            })
        }
    }

    #[test]
    fn budget_planner_widens_while_gains_hold() {
        let policy = WidenPolicy::edge_default();
        let plan = plan_for_budget(8, &policy, linear_curve(8)).unwrap();
        assert_eq!(plan.arrays, 8);
        assert_eq!(plan.critical_path_cycles, 1000);
        assert_eq!(plan.widths.len(), 8);
        // The curve is exposed for the ledger's shrink-vs-wait math.
        assert_eq!(plan.cost_at(1).critical_path_cycles, 8000);
        assert_eq!(plan.cost_at(4).critical_path_cycles, 2000);
    }

    #[test]
    fn budget_planner_stops_at_saturation() {
        // Only 3 work units: widths 4..8 cannot use a fourth array.
        let policy = WidenPolicy::edge_default();
        let plan = plan_for_budget(8, &policy, linear_curve(3)).unwrap();
        assert_eq!(plan.arrays, 3);
        // The whole curve is evaluated (the ledger prices every
        // width), but no saturated width is chosen.
        assert_eq!(plan.widths.len(), 8);
        assert_eq!(plan.cost_at(8).arrays, 8);
        assert_eq!(plan.cost_at(8).used, 3);
    }

    #[test]
    fn budget_planner_sees_past_plateaus() {
        // 4 kernel groups: widths 1/2/3/4 give 4g/2g/2g/1g per
        // critical shard — width 3 is a plateau, width 4 halves
        // again. The planner must pick 4, not stall at 2.
        let curve = [4000u64, 2000, 2000, 1000];
        let policy = WidenPolicy::edge_default();
        let plan = plan_for_budget(4, &policy, |w| {
            Ok::<_, ()>(WidthCost {
                arrays: w,
                used: w,
                critical_path_cycles: curve[w - 1],
                reduction_cycles: 0,
                total_array_cycles: 4000,
                dynamic_energy_pj: 0,
                static_energy_pj: 0,
            })
        })
        .unwrap();
        assert_eq!(plan.arrays, 4);
        assert_eq!(plan.critical_path_cycles, 1000);
    }

    #[test]
    fn budget_planner_stops_when_marginal_gain_fades() {
        // Critical path shrinks 2.0x, then only 2% more: stop at 2.
        let curve = [10_000u64, 5_000, 4_900, 4_800];
        let policy = WidenPolicy::edge_default();
        let plan = plan_for_budget(4, &policy, |w| {
            Ok::<_, ()>(WidthCost {
                arrays: w,
                used: w,
                critical_path_cycles: curve[w - 1],
                reduction_cycles: 0,
                total_array_cycles: curve[w - 1] * w as u64,
                dynamic_energy_pj: 0,
                static_energy_pj: 0,
            })
        })
        .unwrap();
        assert_eq!(plan.arrays, 2);
        assert_eq!(plan.critical_path_cycles, 5_000);
    }

    #[test]
    fn budget_planner_rejects_reduction_heavy_widths() {
        // Width 2 halves the compute but spends half its critical
        // path re-adding partials: the policy refuses it.
        let policy = WidenPolicy::edge_default();
        let plan = plan_for_budget(4, &policy, |w| {
            Ok::<_, ()>(WidthCost {
                arrays: w,
                used: w,
                critical_path_cycles: if w == 1 { 10_000 } else { 6_000 },
                reduction_cycles: if w == 1 { 0 } else { 3_000 },
                total_array_cycles: 10_000,
                dynamic_energy_pj: 0,
                static_energy_pj: 0,
            })
        })
        .unwrap();
        assert_eq!(plan.arrays, 1);
    }

    #[test]
    fn budget_planner_propagates_estimate_errors() {
        let policy = WidenPolicy::edge_default();
        let err: Result<BudgetPlan, &str> =
            plan_for_budget(4, &policy, |_| Err::<WidthCost, _>("bad shape"));
        assert_eq!(err.unwrap_err(), "bad shape");
    }

    #[test]
    fn marginal_speedup_is_a_simple_ratio() {
        assert!((marginal_speedup(2000, 1000) - 2.0).abs() < 1e-12);
        assert!((marginal_speedup(1000, 1000) - 1.0).abs() < 1e-12);
        assert!((marginal_speedup(1000, 0) - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn single_budget_plan_is_width_one() {
        let plan = BudgetPlan::single(42);
        assert_eq!(plan.arrays, 1);
        assert_eq!(plan.cost_at(5).critical_path_cycles, 42);
    }

    #[test]
    fn reduction_saturates_like_the_cacc() {
        // Two partials of 100 through 8-bit accumulators clamp at 127.
        let a = DataCube::from_fn(1, 1, 1, |_, _, _| 100);
        let b = DataCube::from_fn(1, 1, 1, |_, _, _| 100);
        let out = reduce_partials(&[a, b], 8).unwrap();
        assert_eq!(out.get(0, 0, 0), 127);
    }
}
