//! The full Tempus Core engine: modified CSC + PCU + CACC behind the
//! [`ConvCore`] socket.
//!
//! Two execution strategies share the same components and produce
//! bit-identical results:
//!
//! * **window-batched** (the default, [`ConvCore::convolve`]) — the
//!   driver consumes whole compute windows via [`Pcu::run_window`] and
//!   the allocation-free scratch command stream
//!   ([`ModifiedCsc::next_step`]); per-atomic-op cost is O(k·n) with
//!   zero heap allocation in the loop;
//! * **per-cycle reference**
//!   ([`TempusCore::convolve_reference`]) — ticks the PCU cycle by
//!   cycle over the allocating command iterator, exactly the
//!   pre-window-batching engine, retained for equivalence tests and
//!   the `sim_speed` benchmark.

use tempus_arith::IntPrecision;
use tempus_nvdla::cacc::Cacc;
use tempus_nvdla::cbuf::ConvBuffer;
use tempus_nvdla::config::NvdlaConfig;
use tempus_nvdla::conv::{check_operands, ConvParams};
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::pipeline::{ConvCore, ConvRun, RunStats};
use tempus_nvdla::NvdlaError;

use crate::csc_mod::{ModifiedCsc, TempusCommand, TempusStep};
use crate::pcu::Pcu;

/// Tempus Core configuration: the NVDLA socket parameters plus the
/// PCU's multi-cycle overheads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TempusConfig {
    /// The underlying NVDLA configuration (array shape, precision,
    /// buffer geometry).
    pub base: NvdlaConfig,
    /// Cycles to cache operands into the cells per atomic op.
    pub cache_in_cycles: u32,
    /// Cycles to forward partial sums out per atomic op.
    pub cache_out_cycles: u32,
}

impl TempusConfig {
    /// Wraps an NVDLA configuration with the paper's default one-cycle
    /// cache-in / one-cycle cache-out overheads.
    #[must_use]
    pub fn new(base: NvdlaConfig) -> Self {
        TempusConfig {
            base,
            cache_in_cycles: 1,
            cache_out_cycles: 1,
        }
    }

    /// The paper's 16×16 evaluation configuration.
    #[must_use]
    pub fn paper_16x16() -> Self {
        TempusConfig::new(NvdlaConfig::paper_16x16())
    }

    /// An `nv_small`-socket Tempus Core.
    #[must_use]
    pub fn nv_small() -> Self {
        TempusConfig::new(NvdlaConfig::nv_small())
    }

    /// Overrides the operating precision (builder style).
    #[must_use]
    pub fn with_precision(mut self, precision: IntPrecision) -> Self {
        self.base.precision = precision;
        self
    }

    /// Overrides the cache overheads (builder style).
    #[must_use]
    pub fn with_cache_overheads(mut self, cache_in: u32, cache_out: u32) -> Self {
        self.cache_in_cycles = cache_in;
        self.cache_out_cycles = cache_out;
        self
    }
}

impl Default for TempusConfig {
    fn default() -> Self {
        TempusConfig::paper_16x16()
    }
}

/// Extended statistics specific to the tub datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TempusStats {
    /// Sum over stripes of the scanned window length (compute cycles).
    pub total_window_cycles: u64,
    /// Average window length per atomic op, in cycles.
    pub avg_window_cycles: f64,
    /// Worst window observed.
    pub max_window_cycles: u32,
    /// PE-cycles spent pulsing (active).
    pub pe_pulse_cycles: u64,
    /// PE-cycles spent gated (silent or drained).
    pub pe_gated_cycles: u64,
    /// Average silent PEs per stripe.
    pub avg_silent_pes: f64,
    /// Total silent-PE observations summed over stripes (the exact
    /// integer `avg_silent_pes` is derived from — kept so sharded
    /// runs can merge statistics without floating-point round trips).
    pub total_silent_pes: u64,
}

/// The Tempus Core engine.
#[derive(Debug, Clone)]
pub struct TempusCore {
    config: TempusConfig,
    last_stats: TempusStats,
}

impl TempusCore {
    /// Creates the engine.
    #[must_use]
    pub fn new(config: TempusConfig) -> Self {
        TempusCore {
            config,
            last_stats: TempusStats::default(),
        }
    }

    /// The Tempus-specific configuration.
    #[must_use]
    pub fn tempus_config(&self) -> &TempusConfig {
        &self.config
    }

    /// tub-specific statistics from the most recent
    /// [`convolve`](ConvCore::convolve) run.
    #[must_use]
    pub fn last_tempus_stats(&self) -> TempusStats {
        self.last_stats
    }
}

impl ConvCore for TempusCore {
    fn name(&self) -> &'static str {
        "tempus-core"
    }

    fn config(&self) -> &NvdlaConfig {
        &self.config.base
    }

    fn convolve(
        &mut self,
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
    ) -> Result<ConvRun, NvdlaError> {
        let base = &self.config.base;
        check_operands(features, kernels, base.precision)?;
        let mut cbuf = ConvBuffer::new(*base);
        cbuf.load(features, kernels, base.precision)?;

        let mut seq = ModifiedCsc::new(features, kernels, params, base)?;
        let (out_w, out_h) = seq.output_dims();
        let mut scratch = seq.scratch();
        let mut pcu = Pcu::new(
            base.atomic_k,
            base.atomic_c,
            base.precision,
            self.config.cache_in_cycles,
            self.config.cache_out_cycles,
        );
        let mut cacc = Cacc::new(out_w, out_h, kernels.k(), base.cacc_bits);

        let mut stats = RunStats::default();
        let mut tstats = TempusStats::default();
        let mut kernel_base = 0usize;
        let mut total_silent: u64 = 0;
        let watchdog_limit = watchdog_limit(&seq, base);
        while let Some(step) = seq.next_step(&mut scratch) {
            match step {
                TempusStep::LoadWeights {
                    kernel_group,
                    stripe_latency,
                    silent_pes,
                } => {
                    // Wait for any in-flight window to complete before
                    // swapping weights (§III: partial sums forwarded
                    // once all cells finish) — one run_window call
                    // instead of a per-cycle stall loop.
                    let consumed =
                        pcu.run_window(&mut |bundle| cacc.accumulate(&bundle, kernel_base));
                    advance_watchdog(&mut stats.cycles, consumed, watchdog_limit)?;
                    for bundle in pcu.drain() {
                        cacc.accumulate(&bundle, kernel_base);
                    }
                    kernel_base = kernel_group * base.atomic_k;
                    pcu.load_weights(&scratch.cell_weights)?;
                    stats.stripes += 1;
                    stats.cycles += 1; // weight cache swap
                    tstats.max_window_cycles = tstats.max_window_cycles.max(stripe_latency);
                    total_silent += silent_pes as u64;
                }
                TempusStep::Atomic { out_x, out_y } => {
                    cbuf.record_read();
                    // Multi-cycle handshake: the whole stall-until-
                    // accept window is consumed in one call.
                    let consumed =
                        pcu.run_window(&mut |bundle| cacc.accumulate(&bundle, kernel_base));
                    advance_watchdog(&mut stats.cycles, consumed, watchdog_limit)?;
                    pcu.begin_op(out_x, out_y, &scratch.feature)?;
                    tstats.total_window_cycles += u64::from(pcu.stripe_latency().max(1));
                    stats.atomic_ops += 1;
                }
            }
        }
        // Flush the final window.
        let consumed = pcu.run_window(&mut |bundle| cacc.accumulate(&bundle, kernel_base));
        advance_watchdog(&mut stats.cycles, consumed, watchdog_limit)?;
        for bundle in pcu.drain() {
            cacc.accumulate(&bundle, kernel_base);
        }

        self.finish(&pcu, &cbuf, cacc, stats, tstats, total_silent)
    }
}

/// The deadlock ceiling both engines share: worst-case window plus
/// handshake slack per atomic op, one cycle per stripe, plus margin.
fn watchdog_limit(seq: &ModifiedCsc, base: &NvdlaConfig) -> u64 {
    seq.atomic_op_count()
        .saturating_mul(u64::from(base.precision.worst_case_tub_cycles()) + 8)
        .saturating_add(seq.stripe_count())
        .saturating_add(1024)
}

/// Advances the cycle counter by a fast-forwarded window, reproducing
/// the per-cycle watchdog exactly: the tick loop increments then
/// checks, so the first violation fires at `max(cycles, limit) + 1`.
fn advance_watchdog(cycles: &mut u64, consumed: u64, limit: u64) -> Result<(), NvdlaError> {
    if *cycles + consumed > limit {
        return Err(NvdlaError::Deadlock {
            cycles: (*cycles).max(limit) + 1,
        });
    }
    *cycles += consumed;
    Ok(())
}

impl TempusCore {
    /// The pre-window-batching engine: drives the PCU **cycle by
    /// cycle** over the allocating command iterator. Bit-identical to
    /// [`ConvCore::convolve`] in outputs and every statistic — the
    /// equivalence is enforced by tests and by the `sim_speed`
    /// benchmark, which also measures the wall-clock gap between the
    /// two.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ConvCore::convolve`], including the
    /// same watchdog cycle counts.
    pub fn convolve_reference(
        &mut self,
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
    ) -> Result<ConvRun, NvdlaError> {
        let base = &self.config.base;
        check_operands(features, kernels, base.precision)?;
        let mut cbuf = ConvBuffer::new(*base);
        cbuf.load(features, kernels, base.precision)?;

        let seq = ModifiedCsc::new(features, kernels, params, base)?;
        let (out_w, out_h) = seq.output_dims();
        let mut pcu = Pcu::new(
            base.atomic_k,
            base.atomic_c,
            base.precision,
            self.config.cache_in_cycles,
            self.config.cache_out_cycles,
        );
        let mut cacc = Cacc::new(out_w, out_h, kernels.k(), base.cacc_bits);

        let mut stats = RunStats::default();
        let mut tstats = TempusStats::default();
        let mut kernel_base = 0usize;
        let mut total_silent: u64 = 0;
        let watchdog_limit = watchdog_limit(&seq, base);
        for cmd in seq {
            match cmd {
                TempusCommand::LoadWeights {
                    load,
                    stripe_latency,
                    silent_pes,
                } => {
                    while !pcu.ready() {
                        if let Some(bundle) = pcu.tick() {
                            cacc.accumulate(&bundle, kernel_base);
                        }
                        stats.cycles += 1;
                        if stats.cycles > watchdog_limit {
                            return Err(NvdlaError::Deadlock {
                                cycles: stats.cycles,
                            });
                        }
                    }
                    for bundle in pcu.drain() {
                        cacc.accumulate(&bundle, kernel_base);
                    }
                    kernel_base = load.stripe.kernel_group * base.atomic_k;
                    pcu.load_weights(&load.cell_weights)?;
                    stats.stripes += 1;
                    stats.cycles += 1; // weight cache swap
                    tstats.max_window_cycles = tstats.max_window_cycles.max(stripe_latency);
                    total_silent += silent_pes as u64;
                }
                TempusCommand::Atomic(op) => {
                    cbuf.record_read();
                    while !pcu.ready() {
                        if let Some(bundle) = pcu.tick() {
                            cacc.accumulate(&bundle, kernel_base);
                        }
                        stats.cycles += 1;
                        if stats.cycles > watchdog_limit {
                            return Err(NvdlaError::Deadlock {
                                cycles: stats.cycles,
                            });
                        }
                    }
                    pcu.begin(&op)?;
                    tstats.total_window_cycles += u64::from(pcu.stripe_latency().max(1));
                    stats.atomic_ops += 1;
                }
            }
        }
        while !pcu.ready() {
            if let Some(bundle) = pcu.tick() {
                cacc.accumulate(&bundle, kernel_base);
            }
            stats.cycles += 1;
            if stats.cycles > watchdog_limit {
                return Err(NvdlaError::Deadlock {
                    cycles: stats.cycles,
                });
            }
        }
        for bundle in pcu.drain() {
            cacc.accumulate(&bundle, kernel_base);
        }

        self.finish(&pcu, &cbuf, cacc, stats, tstats, total_silent)
    }

    /// Runs one convolution partitioned across `num_arrays` PE arrays
    /// (see [`crate::shard`]): each shard runs on its own
    /// window-batched engine, psum streams merge deterministically
    /// into CACC output order, and the merged statistics — including
    /// the tub window/pulse statistics left in
    /// [`last_tempus_stats`](TempusCore::last_tempus_stats) — are
    /// bit-identical to the single-array engine. The run's
    /// `critical_path_cycles` (slowest shard + reduction stage) is the
    /// multi-array latency; `stats.cycles` stays the summed
    /// array-cycles so work accounting is conserved.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ConvCore::convolve`] applied per shard.
    pub fn convolve_sharded(
        &mut self,
        features: &DataCube,
        kernels: &KernelSet,
        params: &ConvParams,
        num_arrays: usize,
    ) -> Result<crate::shard::ShardedConvRun, NvdlaError> {
        let mut per_shard: Vec<TempusStats> = Vec::new();
        let mut run = crate::shard::convolve_sharded_with(
            self,
            features,
            kernels,
            params,
            num_arrays,
            |core: &TempusCore| per_shard.push(core.last_stats),
        )?;

        let mut merged = TempusStats::default();
        for ts in &per_shard {
            merged.total_window_cycles += ts.total_window_cycles;
            merged.max_window_cycles = merged.max_window_cycles.max(ts.max_window_cycles);
            merged.pe_pulse_cycles += ts.pe_pulse_cycles;
            merged.pe_gated_cycles += ts.pe_gated_cycles;
            merged.total_silent_pes += ts.total_silent_pes;
        }
        merged.avg_window_cycles = if run.stats.atomic_ops == 0 {
            0.0
        } else {
            merged.total_window_cycles as f64 / run.stats.atomic_ops as f64
        };
        merged.avg_silent_pes = if run.stats.stripes == 0 {
            0.0
        } else {
            merged.total_silent_pes as f64 / run.stats.stripes as f64
        };
        // Tempus utilization is pulse-based; recompute it from the
        // merged integers (the generic driver's figure is MAC-based).
        let lane_cycles = run.stats.cycles * self.config.base.lanes() as u64;
        run.stats.utilization = if lane_cycles == 0 {
            0.0
        } else {
            merged.pe_pulse_cycles as f64 / lane_cycles as f64
        };
        self.last_stats = merged;
        Ok(run)
    }

    /// Shared statistics finalisation of both engines.
    fn finish(
        &mut self,
        pcu: &Pcu,
        cbuf: &ConvBuffer,
        cacc: Cacc,
        mut stats: RunStats,
        mut tstats: TempusStats,
        total_silent: u64,
    ) -> Result<ConvRun, NvdlaError> {
        let base = &self.config.base;
        let pe_activity = pcu.pe_activity();
        tstats.pe_pulse_cycles = pe_activity.active_cycles();
        tstats.pe_gated_cycles = pe_activity.gated_cycles();
        tstats.avg_window_cycles = if stats.atomic_ops == 0 {
            0.0
        } else {
            tstats.total_window_cycles as f64 / stats.atomic_ops as f64
        };
        tstats.avg_silent_pes = if stats.stripes == 0 {
            0.0
        } else {
            total_silent as f64 / stats.stripes as f64
        };
        tstats.total_silent_pes = total_silent;
        self.last_stats = tstats;

        // One MAC-equivalent per pulse-active PE-cycle would overcount;
        // the useful work equals the binary core's MAC count, which is
        // lanes × atomic ops minus gated lanes. Report pulses as
        // activity and MACs as the logical multiply count.
        stats.macs = stats.atomic_ops * base.lanes() as u64;
        stats.gated_cell_cycles = tstats.pe_gated_cycles;
        let lane_cycles = stats.cycles * base.lanes() as u64;
        stats.utilization = if lane_cycles == 0 {
            0.0
        } else {
            tstats.pe_pulse_cycles as f64 / lane_cycles as f64
        };
        stats.cbuf_reads = cbuf.reads();

        Ok(ConvRun {
            output: cacc.read_out()?,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_nvdla::conv::direct_conv;
    use tempus_nvdla::pipeline::NvdlaConvCore;

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
    fn matches_golden_and_binary_core() {
        let (f, k) = case(8, 8, 3);
        let params = ConvParams::unit_stride_same(3);
        let golden = direct_conv(&f, &k, &params).unwrap();
        let mut tempus = TempusCore::new(TempusConfig::nv_small());
        let mut binary = NvdlaConvCore::new(NvdlaConfig::nv_small());
        let t = tempus.convolve(&f, &k, &params).unwrap();
        let b = binary.convolve(&f, &k, &params).unwrap();
        assert_eq!(t.output, golden);
        assert_eq!(b.output, golden);
    }

    #[test]
    fn matches_golden_with_grouping_and_stride() {
        let (f, k) = case(11, 13, 7);
        let params = ConvParams::strided(2, 1);
        let golden = direct_conv(&f, &k, &params).unwrap();
        let mut tempus = TempusCore::new(TempusConfig::nv_small());
        let run = tempus.convolve(&f, &k, &params).unwrap();
        assert_eq!(run.output, golden);
    }

    #[test]
    fn int4_precision_round_trip() {
        let f = DataCube::from_fn(5, 5, 4, |x, y, c| ((x + y + c) % 15) as i32 - 7);
        let k = KernelSet::from_fn(3, 3, 3, 4, |a, b, c, d| ((a + b + c + d) % 15) as i32 - 7);
        let params = ConvParams::valid();
        let golden = direct_conv(&f, &k, &params).unwrap();
        let mut tempus = TempusCore::new(
            TempusConfig::new(NvdlaConfig::nv_small().with_array(4, 4))
                .with_precision(IntPrecision::Int4),
        );
        let run = tempus.convolve(&f, &k, &params).unwrap();
        assert_eq!(run.output, golden);
    }

    #[test]
    fn cycle_count_reflects_weight_magnitudes() {
        // Small weights -> short windows; large weights -> long ones.
        let f = DataCube::from_fn(4, 4, 8, |_, _, _| 1);
        let small = KernelSet::from_fn(8, 1, 1, 8, |_, _, _, _| 2);
        let large = KernelSet::from_fn(8, 1, 1, 8, |_, _, _, _| -128);
        let params = ConvParams::valid();
        let mut core = TempusCore::new(TempusConfig::nv_small());
        let fast = core.convolve(&f, &small, &params).unwrap();
        let slow = core.convolve(&f, &large, &params).unwrap();
        assert!(slow.stats.cycles > fast.stats.cycles * 10);
        assert_eq!(fast.output.get(0, 0, 0), 16);
        assert_eq!(slow.output.get(0, 0, 0), -128 * 8);
    }

    #[test]
    fn tempus_stats_report_windows_and_silence() {
        let f = DataCube::from_fn(4, 4, 8, |_, _, _| 1);
        let mut k = KernelSet::zeros(8, 1, 1, 8);
        k.set(0, 0, 0, 0, 10); // one nonzero weight in the whole set
        let mut core = TempusCore::new(TempusConfig::nv_small());
        let run = core.convolve(&f, &k, &ConvParams::valid()).unwrap();
        let ts = core.last_tempus_stats();
        assert_eq!(ts.max_window_cycles, 5);
        assert!((ts.avg_window_cycles - 5.0).abs() < 1e-9);
        assert_eq!(ts.avg_silent_pes, 63.0);
        assert_eq!(run.output.get(0, 0, 0), 10);
    }

    #[test]
    fn windowed_engine_matches_reference_engine_exactly() {
        // Outputs AND statistics must be bit-identical between the
        // window-batched engine and the per-cycle reference.
        let cases = [
            (8usize, 8usize, 3i32, ConvParams::unit_stride_same(3)),
            (11, 13, 7, ConvParams::strided(2, 1)),
            (4, 5, 9, ConvParams::valid()),
        ];
        for (c, k, seed, params) in cases {
            let (f, kn) = case(c, k, seed);
            let mut windowed = TempusCore::new(TempusConfig::nv_small());
            let mut reference = TempusCore::new(TempusConfig::nv_small());
            let w = windowed.convolve(&f, &kn, &params).unwrap();
            let r = reference.convolve_reference(&f, &kn, &params).unwrap();
            assert_eq!(w.output, r.output);
            assert_eq!(w.stats, r.stats);
            assert_eq!(windowed.last_tempus_stats(), reference.last_tempus_stats());
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_single_array() {
        // Outputs AND every statistic (work sums, tub windows, pulse
        // counts, utilization) must be bit-identical to the
        // single-array engine, on both split axes.
        let params = ConvParams::unit_stride_same(3);
        for (c, k, arrays) in [
            (8usize, 32usize, 2usize),
            (8, 32, 4),
            (32, 8, 4),
            (11, 19, 3),
        ] {
            let (f, kn) = case(c, k, 7);
            let mut single = TempusCore::new(TempusConfig::nv_small());
            let base = single.convolve(&f, &kn, &params).unwrap();
            let mut sharded = TempusCore::new(TempusConfig::nv_small());
            let run = sharded.convolve_sharded(&f, &kn, &params, arrays).unwrap();
            assert_eq!(run.output, base.output, "c={c} k={k} arrays={arrays}");
            assert_eq!(run.stats, base.stats, "c={c} k={k} arrays={arrays}");
            assert_eq!(
                sharded.last_tempus_stats(),
                single.last_tempus_stats(),
                "c={c} k={k} arrays={arrays}"
            );
            assert!(run.critical_path_cycles < base.stats.cycles);
            let per_shard = run.per_shard_cycles();
            assert_eq!(per_shard.iter().sum::<u64>(), base.stats.cycles);
            assert_eq!(
                run.critical_path_cycles,
                per_shard.iter().copied().max().unwrap() + run.reduction_cycles
            );
        }
    }

    #[test]
    fn single_array_plan_is_a_passthrough() {
        let (f, kn) = case(8, 8, 3);
        let params = ConvParams::valid();
        let mut a = TempusCore::new(TempusConfig::nv_small());
        let base = a.convolve(&f, &kn, &params).unwrap();
        let mut b = TempusCore::new(TempusConfig::nv_small());
        let run = b.convolve_sharded(&f, &kn, &params, 1).unwrap();
        assert_eq!(run.output, base.output);
        assert_eq!(run.stats, base.stats);
        assert_eq!(run.critical_path_cycles, base.stats.cycles);
        assert_eq!(run.reduction_cycles, 0);
        assert_eq!(run.plan.used_arrays(), 1);
        assert_eq!(a.last_tempus_stats(), b.last_tempus_stats());
    }

    #[test]
    fn watchdog_fires_identically_in_both_engines() {
        // Absurd cache overheads push every op past the watchdog
        // ceiling; the two engines must fail with the same cycle count.
        let (f, k) = case(8, 8, 3);
        let params = ConvParams::valid();
        let cfg = TempusConfig::nv_small().with_cache_overheads(10_000, 10_000);
        let mut windowed = TempusCore::new(cfg);
        let mut reference = TempusCore::new(cfg);
        let w = windowed.convolve(&f, &k, &params).unwrap_err();
        let r = reference.convolve_reference(&f, &k, &params).unwrap_err();
        assert_eq!(format!("{w:?}"), format!("{r:?}"));
    }

    #[test]
    fn throughput_tradeoff_vs_binary() {
        let (f, k) = case(8, 8, 11);
        let params = ConvParams::valid();
        let mut tempus = TempusCore::new(TempusConfig::nv_small());
        let mut binary = NvdlaConvCore::new(NvdlaConfig::nv_small());
        let t = tempus.convolve(&f, &k, &params).unwrap();
        let b = binary.convolve(&f, &k, &params).unwrap();
        // Random INT8 weights: expect a large multi-cycle penalty,
        // bounded by worst case 64 + overheads.
        let ratio = t.stats.cycles as f64 / b.stats.cycles as f64;
        assert!(ratio > 5.0, "ratio {ratio}");
        assert!(ratio < 70.0, "ratio {ratio}");
    }
}
