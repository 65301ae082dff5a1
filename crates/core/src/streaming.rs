//! Streaming tiled GEMM: resource-invariant execution of large
//! products through a bounded, reused scratch arena.
//!
//! This is the one tubGEMM engine: [`TubGemm::multiply`] and
//! [`TubGemm::multiply_sharded`] are its single-window case. It
//! streams the computation through O(tile) scratch: per output
//! tile, the inner dimension is cut into [`StreamPlan::tile_k`]-deep
//! windows whose operand tiles are staged into a double-buffered
//! arena (window *w+1* is staged while window *w* computes, so
//! staging hides under compute and never extends the modelled
//! latency), and partial sums accumulate in a tile-local accumulator
//! bank that never leaves the core until the tile's final flush.
//!
//! **Bit-identity is the contract.** Outputs and [`GemmStats`] are
//! the same at every window depth, and match the per-cycle
//! [`TubGemm::multiply_reference`]: integer accumulation is exact and
//! the windows visit the inner dimension in the same ascending order,
//! and every cycle/silence counter is computed from the same
//! per-step operand values. Streaming is purely an
//! execution-order/memory-footprint transform, which is why the
//! closed-form latency model ([`TubGemm::cost_profile`]) prices every
//! window depth, and [`StreamPlan::peak_scratch_elems`] is the arena
//! size a functional model reports.

use std::ops::Range;

use tempus_arith::{ArithError, TwosUnaryStream};

use crate::gemm::{flush_row, gemm_row, GemmStats, Matrix, ShardedGemmRun, TubGemm};
use crate::shard::GemmAxis;

/// Inner-dimension tiling plan for a streamed GEMM: how many inner
/// (`k`) steps are staged per window. The output-tile dimensions are
/// the engine's PE grid, so the whole scratch arena is a pure
/// function of the plan and the grid — O(tile), independent of
/// operand size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPlan {
    tile_k: usize,
}

impl StreamPlan {
    /// A plan staging `tile_k` inner steps per window.
    ///
    /// # Panics
    ///
    /// Panics when `tile_k` is zero.
    #[must_use]
    pub fn new(tile_k: usize) -> Self {
        assert!(tile_k > 0, "stream window depth must be nonzero");
        StreamPlan { tile_k }
    }

    /// Inner steps staged per window.
    #[must_use]
    pub fn tile_k(&self) -> usize {
        self.tile_k
    }

    /// Peak scratch in elements for `A(m×n) × B(n×p)` on `engine`:
    /// double-buffered A and B operand tiles plus the tile-local
    /// accumulator bank. Grid and window depths cap at the operand
    /// extents, so small problems do not over-allocate; for operands
    /// larger than the grid the figure is **independent of operand
    /// size** — that is the streaming guarantee.
    #[must_use]
    pub fn peak_scratch_elems(&self, engine: &TubGemm, m: usize, n: usize, p: usize) -> u64 {
        let em = engine.grid_m().min(m) as u64;
        let ep = engine.grid_p().min(p) as u64;
        let ek = self.tile_k.min(n) as u64;
        2 * em * ek + 2 * ek * ep + em * ep
    }

    /// The smallest scratch any plan can run `A(m×n) × B(n×p)` in on
    /// `engine`: a one-step window ([`StreamPlan::new`]`(1)`).
    #[must_use]
    pub fn min_scratch_elems(engine: &TubGemm, m: usize, n: usize, p: usize) -> u64 {
        StreamPlan::new(1).peak_scratch_elems(engine, m, n, p)
    }

    /// The deepest plan whose scratch fits `budget_elems`, or `None`
    /// when even a one-step window exceeds the budget. Deeper windows
    /// amortize staging better, so the largest feasible `tile_k` is
    /// always chosen (capped at `n`: beyond that the arena stops
    /// growing).
    #[must_use]
    pub fn for_budget(
        engine: &TubGemm,
        m: usize,
        n: usize,
        p: usize,
        budget_elems: u64,
    ) -> Option<StreamPlan> {
        let em = engine.grid_m().min(m) as u64;
        let ep = engine.grid_p().min(p) as u64;
        let bank = em * ep;
        let per_step = 2 * (em + ep);
        let spare = budget_elems.checked_sub(bank)?;
        let tile_k = usize::try_from(spare / per_step).unwrap_or(usize::MAX);
        let tile_k = tile_k.min(n.max(1));
        if tile_k == 0 {
            return None;
        }
        let plan = StreamPlan::new(tile_k);
        (plan.peak_scratch_elems(engine, m, n, p) <= budget_elems).then_some(plan)
    }
}

/// Streaming-side statistics of a streamed run (the compute-side
/// statistics stay in [`GemmStats`], bit-identical to the
/// materialized engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Scratch arena high-water mark in elements: both operand
    /// double-buffers plus the accumulator bank. Equals
    /// [`StreamPlan::peak_scratch_elems`] exactly.
    pub peak_scratch_elems: u64,
    /// Operand tiles staged through the arena (one A plus one B tile
    /// per window per output-tile pass).
    pub tiles_staged: u64,
    /// Inner-dimension windows pipelined, summed over tile passes.
    pub inner_windows: u64,
    /// The window depth the run used.
    pub tile_k: usize,
}

impl StreamStats {
    /// Folds another shard's streaming counters into this one (the
    /// arena is shared, so the high-water mark is the max).
    pub fn merge(&mut self, other: &StreamStats) {
        self.peak_scratch_elems = self.peak_scratch_elems.max(other.peak_scratch_elems);
        self.tiles_staged += other.tiles_staged;
        self.inner_windows += other.inner_windows;
        self.tile_k = other.tile_k;
    }
}

/// Result of a streamed tubGEMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedGemmRun {
    /// Exact product — bit-identical to [`TubGemm::multiply`].
    pub output: Matrix,
    /// Cycle statistics — bit-identical to [`TubGemm::multiply`].
    pub stats: GemmStats,
    /// Streaming-side counters.
    pub stream: StreamStats,
}

/// Result of a streamed multi-array tubGEMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedShardedGemmRun {
    /// The sharded run — bit-identical to
    /// [`TubGemm::multiply_sharded`] in output, stats, plan and
    /// per-shard cycles.
    pub run: ShardedGemmRun,
    /// Streaming-side counters, merged across shards.
    pub stream: StreamStats,
}

/// Reused staging state: double-buffered operand tiles and the
/// tile-local accumulator bank — allocated once per run, reused across
/// every tile pass and window.
struct StreamArena {
    a_buf: [Vec<i32>; 2],
    b_buf: [Vec<i32>; 2],
    acc: Vec<i64>,
}

impl StreamArena {
    fn new(
        (grid_m, grid_p): (usize, usize),
        m: usize,
        n: usize,
        p: usize,
        plan: &StreamPlan,
    ) -> Self {
        let (em, ep, ek) = (grid_m.min(m), grid_p.min(p), plan.tile_k().min(n));
        StreamArena {
            a_buf: [Vec::with_capacity(em * ek), Vec::with_capacity(em * ek)],
            b_buf: [Vec::with_capacity(ek * ep), Vec::with_capacity(ek * ep)],
            acc: vec![0; em * ep],
        }
    }

    /// Streams the output tiles of `m_range × p_range` (cut by `grid`)
    /// through the arena: per tile pass the inner dimension flows as
    /// `tile_k`-deep windows (window *w+1* is staged into the back
    /// buffers before window *w* computes — the double-buffer overlap),
    /// `window(a_tile, b_tile, kw, bank)` folds each `kw`-deep window
    /// into the tile's bank, and the finished tile flushes to `output`
    /// once. Returns the tile passes made.
    #[allow(clippy::too_many_arguments)]
    fn stream(
        &mut self,
        a: &Matrix,
        b: &Matrix,
        (m_range, p_range): (Range<usize>, Range<usize>),
        (grid_m, grid_p): (usize, usize),
        plan: &StreamPlan,
        output: &mut Matrix,
        stream: &mut StreamStats,
        mut window: impl FnMut(&[i32], &[i32], usize, &mut [i64]) -> Result<(), ArithError>,
    ) -> Result<u64, ArithError> {
        let (n, tile_k) = (a.cols(), plan.tile_k());
        let windows = n.div_ceil(tile_k);
        let bounds = |w: usize| w * tile_k..((w + 1) * tile_k).min(n);
        let mut passes = 0;
        for m0 in m_range.clone().step_by(grid_m) {
            let m1 = (m0 + grid_m).min(m_range.end);
            for p0 in p_range.clone().step_by(grid_p) {
                let p1 = (p0 + grid_p).min(p_range.end);
                passes += 1;
                let bank = &mut self.acc[..(m1 - m0) * (p1 - p0)];
                bank.fill(0);
                stage_tile(a, m0..m1, bounds(0), &mut self.a_buf[0]);
                stage_tile(b, bounds(0), p0..p1, &mut self.b_buf[0]);
                stream.tiles_staged += 2;
                for w in 0..windows {
                    let front = w % 2;
                    if w + 1 < windows {
                        stage_tile(a, m0..m1, bounds(w + 1), &mut self.a_buf[1 - front]);
                        stage_tile(b, bounds(w + 1), p0..p1, &mut self.b_buf[1 - front]);
                        stream.tiles_staged += 2;
                    }
                    stream.inner_windows += 1;
                    let kw = bounds(w).len();
                    window(&self.a_buf[front], &self.b_buf[front], kw, bank)?;
                }
                // The only time partial sums leave the bank: the
                // finished tile flushes to the output once.
                for (i, bank_row) in bank.chunks_exact(p1 - p0).enumerate() {
                    flush_row(bank_row, &mut output.row_mut(m0 + i)[p0..p1]);
                }
            }
        }
        Ok(passes)
    }
}

/// Stages the operand window into `buf` through the checked
/// [`Matrix::tile_view`], so no path hand-rolls index arithmetic.
fn stage_tile(src: &Matrix, rows: Range<usize>, cols: Range<usize>, buf: &mut Vec<i32>) {
    buf.clear();
    let view = src.tile_view(rows, cols);
    for i in 0..view.rows() {
        buf.extend_from_slice(view.row(i));
    }
}

impl TubGemm {
    /// Computes `A × B` with outer-product temporal dataflow, streamed
    /// through the bounded double-buffered scratch arena described by
    /// `plan`: the width-1 case of
    /// [`TubGemm::multiply_sharded_streamed`]. Output and
    /// [`GemmStats`] are the same at every window depth.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::LengthMismatch`] on inner-dimension
    /// mismatch or [`ArithError::OutOfRange`] on out-of-precision
    /// operands.
    pub fn multiply_streamed(
        &self,
        a: &Matrix,
        b: &Matrix,
        plan: &StreamPlan,
    ) -> Result<StreamedGemmRun, ArithError> {
        let run = self.multiply_sharded_streamed(a, b, 1, plan)?;
        Ok(StreamedGemmRun {
            output: run.run.output,
            stats: run.run.stats,
            stream: run.stream,
        })
    }

    /// Computes `A × B` partitioned across `num_arrays` PE grids
    /// ([`TubGemm::shard_plan`]), each shard's output tiles streamed
    /// through one shared arena. The merged output and summed
    /// statistics do not depend on the width; `critical_path_cycles`
    /// (the slowest shard) is the multi-array latency.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`TubGemm::multiply_streamed`].
    pub fn multiply_sharded_streamed(
        &self,
        a: &Matrix,
        b: &Matrix,
        num_arrays: usize,
        plan: &StreamPlan,
    ) -> Result<StreamedShardedGemmRun, ArithError> {
        if a.cols() != b.rows() {
            return Err(ArithError::LengthMismatch {
                lhs: a.cols(),
                rhs: b.rows(),
            });
        }
        self.precision().check_all(a.as_slice())?;
        self.precision().check_all(b.as_slice())?;
        let (m, n, p) = (a.rows(), a.cols(), b.cols());
        let grid = (self.grid_m(), self.grid_p());
        let shard_plan = self.shard_plan(m, p, num_arrays);
        let tiles = shard_plan.tiles.iter();
        let shards: Vec<(Range<usize>, Range<usize>)> = match shard_plan.axis {
            GemmAxis::Single => vec![(0..m, 0..p)],
            GemmAxis::Cols => tiles
                .map(|&(lo, hi)| (0..m, lo * grid.1..(hi * grid.1).min(p)))
                .collect(),
            GemmAxis::Rows => tiles
                .map(|&(lo, hi)| (lo * grid.0..(hi * grid.0).min(m), 0..p))
                .collect(),
        };
        let mut arena = StreamArena::new(grid, m, n, p, plan);
        let mut output = Matrix::zeros(m, p);
        let mut stream = StreamStats {
            peak_scratch_elems: plan.peak_scratch_elems(self, m, n, p),
            tile_k: plan.tile_k(),
            ..StreamStats::default()
        };
        let mut stats = GemmStats::default();
        let mut per_shard_cycles = Vec::with_capacity(shards.len());
        // Per-step stream and decoded-weight scratch, reused across
        // every step of every window.
        let mut streams: Vec<TwosUnaryStream> = Vec::with_capacity(grid.1);
        let mut weights: Vec<i32> = Vec::with_capacity(grid.1);
        for ranges in shards {
            let mut shard = GemmStats::default();
            shard.tile_passes = arena.stream(
                a,
                b,
                ranges,
                grid,
                plan,
                &mut output,
                &mut stream,
                |a_tile, b_tile, kw, bank| {
                    let ep = b_tile.len() / kw;
                    // One rank-1 update per inner step; its window is
                    // bounded by the largest streamed |B| in the tile.
                    for (lt, b_row) in b_tile.chunks_exact(ep).enumerate() {
                        shard.steps += 1;
                        streams.clear();
                        for &v in b_row {
                            streams.push(TwosUnaryStream::encode(v, self.precision())?);
                        }
                        let window = streams.iter().map(|s| s.cycles()).max().unwrap_or(0);
                        shard.cycles += u64::from(window.max(1));
                        let silent = streams.iter().filter(|s| s.is_silent()).count();
                        shard.silent_pe_steps += (silent * a_tile.len() / kw) as u64;
                        // Window-batched fold: a whole stream
                        // contributes its decoded value times the
                        // activation — bit-identical to accumulating
                        // pulse by pulse (silent streams decode to 0).
                        weights.clear();
                        weights.extend(streams.iter().map(|s| s.decode()));
                        for (bank_row, a_row) in
                            bank.chunks_exact_mut(ep).zip(a_tile.chunks_exact(kw))
                        {
                            gemm_row(bank_row, &a_row[lt..=lt], &weights);
                        }
                    }
                    Ok(())
                },
            )?;
            stats.cycles += shard.cycles;
            stats.steps += shard.steps;
            stats.tile_passes += shard.tile_passes;
            stats.silent_pe_steps += shard.silent_pe_steps;
            per_shard_cycles.push(shard.cycles);
        }
        let critical_path_cycles = per_shard_cycles.iter().copied().max().unwrap_or(0);
        Ok(StreamedShardedGemmRun {
            run: ShardedGemmRun {
                output,
                stats,
                plan: shard_plan,
                per_shard_cycles,
                critical_path_cycles,
            },
            stream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_arith::IntPrecision;

    fn case(m: usize, n: usize, p: usize, seed: i32) -> (Matrix, Matrix) {
        let a = Matrix::from_fn(m, n, |i, j| {
            ((i as i32 * 31 + j as i32 * 17 + seed) % 255) - 127
        });
        let b = Matrix::from_fn(n, p, |i, j| {
            ((i as i32 * 13 + j as i32 * 41 + seed * 3) % 255) - 127
        });
        (a, b)
    }

    #[test]
    fn streamed_is_bit_identical_to_materialized() {
        let engine = TubGemm::new(4, 4, IntPrecision::Int8);
        for (m, n, p, seed) in [
            (7usize, 9usize, 5usize, 1i32),
            (10, 6, 11, 2),
            (16, 16, 16, 5),
        ] {
            let (a, b) = case(m, n, p, seed);
            let materialized = engine.multiply(&a, &b).unwrap();
            // One-step, odd, exact-divisor and whole-operand windows.
            for tile_k in [1usize, 3, n / 2, n] {
                if tile_k == 0 {
                    continue;
                }
                let plan = StreamPlan::new(tile_k);
                let streamed = engine.multiply_streamed(&a, &b, &plan).unwrap();
                assert_eq!(streamed.output, materialized.output, "tile_k={tile_k}");
                assert_eq!(streamed.stats, materialized.stats, "tile_k={tile_k}");
                assert_eq!(
                    streamed.stream.peak_scratch_elems,
                    plan.peak_scratch_elems(&engine, m, n, p)
                );
                assert!(streamed.stream.inner_windows >= streamed.stats.tile_passes);
            }
        }
    }

    #[test]
    fn sharded_streamed_matches_sharded_materialized() {
        let engine = TubGemm::new(4, 4, IntPrecision::Int8);
        for (m, n, p, arrays) in [
            (10usize, 6usize, 24usize, 3usize), // col split
            (24, 6, 7, 4),                      // row split
            (3, 3, 3, 4),                       // single
        ] {
            let (a, b) = case(m, n, p, 11);
            let plan = StreamPlan::new(3.min(n));
            let sharded = engine.multiply_sharded(&a, &b, arrays).unwrap();
            let streamed = engine
                .multiply_sharded_streamed(&a, &b, arrays, &plan)
                .unwrap();
            assert_eq!(streamed.run.output, sharded.output, "{m}x{n}x{p}");
            assert_eq!(streamed.run.stats, sharded.stats, "{m}x{n}x{p}");
            assert_eq!(streamed.run.plan, sharded.plan);
            assert_eq!(streamed.run.per_shard_cycles, sharded.per_shard_cycles);
            assert_eq!(
                streamed.run.critical_path_cycles,
                sharded.critical_path_cycles
            );
            // The closed forms predict the streamed run exactly.
            let (model_plan, model_cycles) = engine.cost_profile(&a, &b).at(arrays);
            assert_eq!(model_plan, streamed.run.plan);
            assert_eq!(model_cycles, streamed.run.per_shard_cycles);
            assert_eq!(
                plan.peak_scratch_elems(&engine, m, n, p),
                streamed.stream.peak_scratch_elems
            );
        }
    }

    #[test]
    fn scratch_is_operand_size_invariant() {
        let engine = TubGemm::new(8, 8, IntPrecision::Int8);
        let budget = 1024u64;
        let small = StreamPlan::for_budget(&engine, 16, 32, 16, budget).unwrap();
        let large = StreamPlan::for_budget(&engine, 64, 512, 64, budget).unwrap();
        assert_eq!(small.tile_k(), large.tile_k());
        assert!(large.peak_scratch_elems(&engine, 64, 512, 64) <= budget);
        // Growing the operands does not grow the arena.
        assert!(
            large.peak_scratch_elems(&engine, 64, 4096, 64)
                <= large.peak_scratch_elems(&engine, 64, 512, 64)
        );
    }

    #[test]
    fn budget_below_floor_is_rejected() {
        let engine = TubGemm::new(8, 8, IntPrecision::Int8);
        let floor = StreamPlan::min_scratch_elems(&engine, 64, 64, 64);
        assert!(StreamPlan::for_budget(&engine, 64, 64, 64, floor).is_some());
        assert!(StreamPlan::for_budget(&engine, 64, 64, 64, floor - 1).is_none());
    }

    #[test]
    fn streamed_rejects_mismatch_and_precision_like_materialized() {
        let engine = TubGemm::new(4, 4, IntPrecision::Int4);
        let plan = StreamPlan::new(2);
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            engine.multiply_streamed(&a, &b, &plan),
            Err(ArithError::LengthMismatch { .. })
        ));
        let a = Matrix::from_fn(2, 2, |_, _| 100);
        let b = Matrix::zeros(2, 2);
        assert!(engine.multiply_streamed(&a, &b, &plan).is_err());
    }
}
