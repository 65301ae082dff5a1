//! tubGEMM: the outer-product GEMM engine Tempus Core descends from
//! (§II-B).
//!
//! The paper positions Tempus Core against its predecessors: "Unlike
//! previous temporal GEMM designs \[9\]\[10\] that follow an outer-product
//! GEMM dataflow, Tempus Core serves as a convolution engine supporting
//! inner-product convolution dataflow." This module implements that
//! predecessor so the dataflow comparison is runnable: an M×P PE grid
//! computing `O = A × B` as N rank-1 updates, where the `A` column is
//! the binary operand and the `B` row streams temporally (2s-unary, as
//! tubGEMM upgraded over tuGEMM's plain unary).
//!
//! Latency per outer step is bounded by the largest `B`-row magnitude
//! in the active tile; totals accumulate over the N steps and over
//! grid tiles when the matrices exceed the PE grid.

use std::fmt;

use tempus_arith::{ArithError, IntPrecision, TwosUnaryStream};

use crate::shard::{balance, plan_gemm, GemmAxis, GemmShardPlan};

/// A dense row-major integer matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Builds a matrix element-wise from `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> i32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = f(r, c);
                m.set(r, c, v);
            }
        }
        m
    }

    /// Rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> i32 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, row: usize, col: usize, v: i32) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = v;
    }

    /// Row `r` as a contiguous slice — one bounds check for the whole
    /// row instead of one per element.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[i32] {
        assert!(r < self.rows, "index out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a contiguous mutable slice.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [i32] {
        assert!(r < self.rows, "index out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The full row-major backing store.
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Checked rectangular view over `rows × cols` index ranges.
    /// Bounds are validated once here; every later access through the
    /// view is plain slice arithmetic — this is the single slicing
    /// helper both the sharded and streaming GEMM drivers use, so the
    /// hot loops carry no per-call index checks.
    ///
    /// # Panics
    ///
    /// Panics when either range is empty or exceeds the matrix.
    #[must_use]
    pub fn tile_view(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> TileView<'_> {
        assert!(
            rows.start < rows.end && rows.end <= self.rows,
            "tile row range out of range"
        );
        assert!(
            cols.start < cols.end && cols.end <= self.cols,
            "tile col range out of range"
        );
        TileView {
            parent: self,
            row_lo: rows.start,
            col_lo: cols.start,
            rows: rows.end - rows.start,
            cols: cols.end - cols.start,
        }
    }

    /// Order-stable FNV-1a digest over dimensions and contents —
    /// shares [`tempus_nvdla::cube::fnv1a`] with the cube digests so
    /// every job-input digest in the workspace is comparable and the
    /// serving layer can key its result cache uniformly.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        tempus_nvdla::cube::fnv1a(
            [self.rows as u64, self.cols as u64]
                .into_iter()
                .chain(self.data.iter().map(|&v| v as u32 as u64)),
        )
    }

    /// Golden exact product `self × rhs` in `i64`-safe arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::LengthMismatch`] when inner dimensions
    /// disagree.
    pub fn multiply(&self, rhs: &Matrix) -> Result<Matrix, ArithError> {
        if self.cols != rhs.rows {
            return Err(ArithError::LengthMismatch {
                lhs: self.cols,
                rhs: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0i64;
                for t in 0..self.cols {
                    acc += i64::from(self.get(i, t)) * i64::from(rhs.get(t, j));
                }
                out.set(i, j, i32::try_from(acc).expect("gemm output exceeds i32"));
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix {}x{}", self.rows, self.cols)
    }
}

/// A checked rectangular window into a [`Matrix`].
///
/// Constructed by [`Matrix::tile_view`], which validates the ranges
/// once; row access hands back contiguous slices of the parent
/// storage (a column sub-range of one parent row is contiguous), so
/// tiled kernels pay no per-element bounds or index arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a> {
    parent: &'a Matrix,
    row_lo: usize,
    col_lo: usize,
    rows: usize,
    cols: usize,
}

impl<'a> TileView<'a> {
    /// Rows in the view.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the view.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// View row `i` as a contiguous slice of the parent storage.
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the view.
    #[must_use]
    pub fn row(&self, i: usize) -> &'a [i32] {
        assert!(i < self.rows, "tile row out of range");
        let base = (self.row_lo + i) * self.parent.cols + self.col_lo;
        &self.parent.data[base..base + self.cols]
    }

    /// Element at `(i, j)` in view coordinates.
    ///
    /// # Panics
    ///
    /// Panics when out of the view.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> i32 {
        assert!(j < self.cols, "tile col out of range");
        self.row(i)[j]
    }

    /// Copies the view out into an owned matrix.
    #[must_use]
    pub fn to_matrix(self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (i, chunk) in m.data.chunks_exact_mut(self.cols).enumerate() {
            chunk.copy_from_slice(self.row(i));
        }
        m
    }

    /// Copies view row `i` into `dst` (a reused staging buffer row).
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the view or `dst` is not exactly
    /// one view row wide.
    pub fn copy_row_into(&self, i: usize, dst: &mut [i32]) {
        dst.copy_from_slice(self.row(i));
    }
}

/// Execution statistics of a tubGEMM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmStats {
    /// Total compute cycles.
    pub cycles: u64,
    /// Outer-product steps executed (N per tile pass).
    pub steps: u64,
    /// Grid tile passes.
    pub tile_passes: u64,
    /// Silent PE-steps (zero B values skipping whole windows).
    pub silent_pe_steps: u64,
}

/// Result of a tubGEMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmRun {
    /// Exact product.
    pub output: Matrix,
    /// Cycle statistics.
    pub stats: GemmStats,
}

/// The outer-product tubGEMM engine: a `grid_m`×`grid_p` PE grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TubGemm {
    grid_m: usize,
    grid_p: usize,
    precision: IntPrecision,
}

impl TubGemm {
    /// Creates an engine with a `grid_m`×`grid_p` PE grid at
    /// `precision`.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    #[must_use]
    pub fn new(grid_m: usize, grid_p: usize, precision: IntPrecision) -> Self {
        assert!(grid_m > 0 && grid_p > 0, "grid dimensions must be nonzero");
        TubGemm {
            grid_m,
            grid_p,
            precision,
        }
    }

    /// PE grid height (rows of `A` served in parallel).
    #[must_use]
    pub fn grid_m(&self) -> usize {
        self.grid_m
    }

    /// PE grid width (columns of `B` served in parallel).
    #[must_use]
    pub fn grid_p(&self) -> usize {
        self.grid_p
    }

    /// Operand precision the engine encodes at.
    #[must_use]
    pub fn precision(&self) -> IntPrecision {
        self.precision
    }

    /// Computes `A × B` with outer-product temporal dataflow,
    /// returning the exact product and the cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::LengthMismatch`] on inner-dimension
    /// mismatch or [`ArithError::OutOfRange`] on out-of-precision
    /// operands.
    pub fn multiply(&self, a: &Matrix, b: &Matrix) -> Result<GemmRun, ArithError> {
        if a.cols != b.rows {
            return Err(ArithError::LengthMismatch {
                lhs: a.cols,
                rhs: b.rows,
            });
        }
        for &v in &a.data {
            self.precision.check(v)?;
        }
        for &v in &b.data {
            self.precision.check(v)?;
        }
        let mut acc = vec![0i64; a.rows * b.cols];
        let mut stats = GemmStats::default();
        // Stream and decoded-weight scratch, sized once per tile pass
        // and reused across the N outer steps — no per-step
        // allocation.
        let mut streams: Vec<TwosUnaryStream> = Vec::with_capacity(self.grid_p);
        let mut weights: Vec<i32> = Vec::with_capacity(self.grid_p);
        // Tile the output grid over the PE array.
        for m0 in (0..a.rows).step_by(self.grid_m) {
            for p0 in (0..b.cols).step_by(self.grid_p) {
                stats.tile_passes += 1;
                let m1 = (m0 + self.grid_m).min(a.rows);
                let p1 = (p0 + self.grid_p).min(b.cols);
                // One checked view per tile pass; every row access
                // below is a plain contiguous slice.
                let b_tile = b.tile_view(0..b.rows, p0..p1);
                // N rank-1 updates; each step's window is bounded by
                // the largest streamed |B| value in the active columns.
                for t in 0..a.cols {
                    stats.steps += 1;
                    streams.clear();
                    for &v in b_tile.row(t) {
                        streams.push(TwosUnaryStream::encode(v, self.precision)?);
                    }
                    let window = streams.iter().map(|s| s.cycles()).max().unwrap_or(0);
                    stats.cycles += u64::from(window.max(1));
                    let silent = streams.iter().filter(|s| s.is_silent()).count();
                    stats.silent_pe_steps += silent as u64 * (m1 - m0) as u64;
                    // Window-batched fold: the whole stream's
                    // contribution is its decoded value times the
                    // activation — bit-identical to accumulating
                    // pulse by pulse (silent streams decode to 0 and
                    // contribute nothing). Products stay in i32
                    // (|a·w| ≤ 2^(2w-2)) and widen at the accumulate.
                    weights.clear();
                    weights.extend(streams.iter().map(|s| s.decode()));
                    for i in m0..m1 {
                        let activation = a.data[i * a.cols + t];
                        let row = &mut acc[i * b.cols + p0..i * b.cols + p1];
                        for (slot, &w) in row.iter_mut().zip(&weights) {
                            *slot += i64::from(activation * w);
                        }
                    }
                }
            }
        }
        let mut output = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                output.set(
                    i,
                    j,
                    i32::try_from(acc[i * b.cols + j]).expect("gemm output exceeds i32"),
                );
            }
        }
        Ok(GemmRun { output, stats })
    }

    /// The pre-window-batching engine: encodes each step's `B` row
    /// into a freshly allocated stream vector and folds every stream
    /// **pulse by pulse** ([`tempus_arith::tub::fold_stream`]).
    /// Bit-identical to [`multiply`](TubGemm::multiply) in output and
    /// statistics; retained for equivalence tests and the `sim_speed`
    /// benchmark.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`multiply`](TubGemm::multiply).
    pub fn multiply_reference(&self, a: &Matrix, b: &Matrix) -> Result<GemmRun, ArithError> {
        if a.cols != b.rows {
            return Err(ArithError::LengthMismatch {
                lhs: a.cols,
                rhs: b.rows,
            });
        }
        for &v in &a.data {
            self.precision.check(v)?;
        }
        for &v in &b.data {
            self.precision.check(v)?;
        }
        let mut acc = vec![0i64; a.rows * b.cols];
        let mut stats = GemmStats::default();
        for m0 in (0..a.rows).step_by(self.grid_m) {
            for p0 in (0..b.cols).step_by(self.grid_p) {
                stats.tile_passes += 1;
                let m1 = (m0 + self.grid_m).min(a.rows);
                let p1 = (p0 + self.grid_p).min(b.cols);
                for t in 0..a.cols {
                    stats.steps += 1;
                    let streams: Vec<TwosUnaryStream> = (p0..p1)
                        .map(|j| TwosUnaryStream::encode(b.get(t, j), self.precision))
                        .collect::<Result<_, _>>()?;
                    let window = streams.iter().map(|s| s.cycles()).max().unwrap_or(0);
                    stats.cycles += u64::from(window.max(1));
                    for (j, stream) in streams.iter().enumerate() {
                        if stream.is_silent() {
                            stats.silent_pe_steps += (m1 - m0) as u64;
                            continue;
                        }
                        for i in m0..m1 {
                            let product =
                                i64::from(tempus_arith::tub::fold_stream(a.get(i, t), *stream));
                            acc[i * b.cols + (p0 + j)] += product;
                        }
                    }
                }
            }
        }
        let mut output = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                output.set(
                    i,
                    j,
                    i32::try_from(acc[i * b.cols + j]).expect("gemm output exceeds i32"),
                );
            }
        }
        Ok(GemmRun { output, stats })
    }

    /// Worst-case cycles for an inner dimension of `n`: every step at
    /// the full window, `n × 2^(w-2)` (our 2s-unary realisation of the
    /// tubGEMM bound; tuGEMM's plain unary doubles it).
    #[must_use]
    pub fn worst_case_cycles(&self, n: usize) -> u64 {
        n as u64 * u64::from(self.precision.worst_case_tub_cycles())
    }

    /// Plans a multi-array split of `A(m×n) × B(n×p)` over this
    /// engine's grid-tile decomposition (see
    /// [`crate::shard::plan_gemm`]).
    #[must_use]
    pub fn shard_plan(&self, m: usize, p: usize, num_arrays: usize) -> GemmShardPlan {
        plan_gemm(m.div_ceil(self.grid_m), p.div_ceil(self.grid_p), num_arrays)
    }

    /// Computes `A × B` partitioned across `num_arrays` PE grids:
    /// each array owns a contiguous range of output grid tiles (column
    /// tiles preferred, row tiles as fallback — the inner dimension is
    /// never split, so no reduction stage is needed). The merged
    /// output and summed statistics are bit-identical to
    /// [`multiply`](TubGemm::multiply); `critical_path_cycles` (the
    /// slowest shard) is the multi-array latency.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`multiply`](TubGemm::multiply).
    pub fn multiply_sharded(
        &self,
        a: &Matrix,
        b: &Matrix,
        num_arrays: usize,
    ) -> Result<ShardedGemmRun, ArithError> {
        if a.cols != b.rows {
            return Err(ArithError::LengthMismatch {
                lhs: a.cols,
                rhs: b.rows,
            });
        }
        let plan = self.shard_plan(a.rows, b.cols, num_arrays);
        if plan.axis == GemmAxis::Single {
            let run = self.multiply(a, b)?;
            return Ok(ShardedGemmRun {
                critical_path_cycles: run.stats.cycles,
                per_shard_cycles: vec![run.stats.cycles],
                output: run.output,
                stats: run.stats,
                plan,
            });
        }
        let mut output = Matrix::zeros(a.rows, b.cols);
        let mut stats = GemmStats::default();
        let mut per_shard_cycles = Vec::with_capacity(plan.tiles.len());
        for &(t_lo, t_hi) in &plan.tiles {
            let run = match plan.axis {
                GemmAxis::Cols => {
                    let lo = t_lo * self.grid_p;
                    let hi = (t_hi * self.grid_p).min(b.cols);
                    let sub = b.tile_view(0..b.rows, lo..hi).to_matrix();
                    let run = self.multiply(a, &sub)?;
                    for i in 0..a.rows {
                        output.row_mut(i)[lo..hi].copy_from_slice(run.output.row(i));
                    }
                    run
                }
                GemmAxis::Rows => {
                    let lo = t_lo * self.grid_m;
                    let hi = (t_hi * self.grid_m).min(a.rows);
                    let sub = a.tile_view(lo..hi, 0..a.cols).to_matrix();
                    let run = self.multiply(&sub, b)?;
                    for i in 0..(hi - lo) {
                        output.row_mut(lo + i).copy_from_slice(run.output.row(i));
                    }
                    run
                }
                GemmAxis::Single => unreachable!("handled above"),
            };
            stats.cycles += run.stats.cycles;
            stats.steps += run.stats.steps;
            stats.tile_passes += run.stats.tile_passes;
            stats.silent_pe_steps += run.stats.silent_pe_steps;
            per_shard_cycles.push(run.stats.cycles);
        }
        let critical_path_cycles = per_shard_cycles.iter().copied().max().unwrap_or(0);
        Ok(ShardedGemmRun {
            output,
            stats,
            plan,
            per_shard_cycles,
            critical_path_cycles,
        })
    }

    /// The closed-form cost profile of `A × B` on this grid: per grid
    /// tile and outer step the window is the largest streamed `|B|`
    /// magnitude under 2s-unary encoding, floored at one cycle —
    /// exactly the accounting the simulated engine keeps. Priced once
    /// from one pass over `B`; [`GemmCostProfile::at`] then yields any
    /// width.
    #[must_use]
    pub fn cost_profile(&self, a: &Matrix, b: &Matrix) -> GemmCostProfile {
        let mut col_tile_cycles = vec![0u64; b.cols.div_ceil(self.grid_p)];
        // One outer step per inner index: the first `a.cols` rows of B
        // (all of them when the shapes agree).
        for b_row in b.data.chunks(b.cols.max(1)).take(a.cols) {
            for (cycles, tile_row) in col_tile_cycles.iter_mut().zip(b_row.chunks(self.grid_p)) {
                let max_mag = tile_row.iter().fold(0, |m, &v| m.max(v.unsigned_abs()));
                *cycles += u64::from(max_mag.div_ceil(2).max(1));
            }
        }
        GemmCostProfile {
            m_tiles: a.rows.div_ceil(self.grid_m),
            col_tile_cycles,
        }
    }
}

/// The width-invariant cost of one tubGEMM
/// ([`TubGemm::cost_profile`]): output tiles are independent and the
/// inner dimension is never split, so every shard plan is a sum over
/// these entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmCostProfile {
    /// Output row tiles (`ceil(m / grid_m)`); each streams every
    /// column tile.
    pub m_tiles: usize,
    /// Cycles of streaming the whole inner dimension through each
    /// output column tile, in tile order.
    pub col_tile_cycles: Vec<u64>,
}

impl GemmCostProfile {
    /// The shard plan and per-shard cycles across `num_arrays` grids —
    /// bit-for-bit the per-shard cycles (and, by their max, the
    /// critical path) of [`TubGemm::multiply_sharded`]; with one array
    /// the single entry equals [`TubGemm::multiply`]'s cycles.
    #[must_use]
    pub fn at(&self, num_arrays: usize) -> (GemmShardPlan, Vec<u64>) {
        let plan = plan_gemm(self.m_tiles, self.col_tile_cycles.len(), num_arrays);
        let m_tiles = self.m_tiles as u64;
        let all_cols: u64 = self.col_tile_cycles.iter().sum();
        let per_shard = match plan.axis {
            GemmAxis::Single => vec![m_tiles * all_cols],
            GemmAxis::Cols => plan
                .tiles
                .iter()
                .map(|&(lo, hi)| m_tiles * self.col_tile_cycles[lo..hi].iter().sum::<u64>())
                .collect(),
            GemmAxis::Rows => plan
                .tiles
                .iter()
                .map(|&(lo, hi)| (hi - lo) as u64 * all_cols)
                .collect(),
        };
        (plan, per_shard)
    }
}

/// Result of a multi-array tubGEMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedGemmRun {
    /// Merged product — bit-identical to the single-array engine.
    pub output: Matrix,
    /// Statistics summed over shards (bit-identical to the
    /// single-array run: the output-tile set partitions exactly).
    pub stats: GemmStats,
    /// The plan that was executed.
    pub plan: GemmShardPlan,
    /// Per-shard cycle counts, in shard order.
    pub per_shard_cycles: Vec<u64>,
    /// The job's latency on the multi-array core: the slowest shard
    /// (no reduction stage — output tiles are independent).
    pub critical_path_cycles: u64,
}

impl ShardedGemmRun {
    /// Work balance across the arrays (see [`crate::shard::balance`]).
    #[must_use]
    pub fn balance(&self) -> f64 {
        balance(&self.per_shard_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn matches_golden_product_exactly() {
        let (a, b) = case(7, 9, 5, 1);
        let engine = TubGemm::new(4, 4, IntPrecision::Int8);
        let run = engine.multiply(&a, &b).unwrap();
        assert_eq!(run.output, a.multiply(&b).unwrap());
    }

    #[test]
    fn tiling_is_transparent() {
        let (a, b) = case(10, 6, 11, 2);
        let small = TubGemm::new(3, 4, IntPrecision::Int8);
        let large = TubGemm::new(16, 16, IntPrecision::Int8);
        let r1 = small.multiply(&a, &b).unwrap();
        let r2 = large.multiply(&a, &b).unwrap();
        assert_eq!(r1.output, r2.output);
        assert!(r1.stats.tile_passes > r2.stats.tile_passes);
    }

    #[test]
    fn cycles_bounded_by_worst_case() {
        let (a, b) = case(8, 16, 8, 3);
        let engine = TubGemm::new(8, 8, IntPrecision::Int8);
        let run = engine.multiply(&a, &b).unwrap();
        assert!(run.stats.cycles <= engine.worst_case_cycles(16));
        assert!(run.stats.cycles >= 16, "at least one cycle per step");
    }

    #[test]
    fn zero_b_rows_take_minimum_window() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + j) as i32);
        let b = Matrix::zeros(3, 4);
        let engine = TubGemm::new(4, 4, IntPrecision::Int8);
        let run = engine.multiply(&a, &b).unwrap();
        assert_eq!(run.stats.cycles, 3); // 3 steps x min window 1
        assert_eq!(run.stats.silent_pe_steps, 3 * 4 * 4); // 3 steps x 4 cols x 4 rows, all silent
        assert!(run.output.data.iter().all(|&v| v == 0));
    }

    #[test]
    fn window_batched_multiply_matches_reference_exactly() {
        for (m, n, p, seed, gm, gp) in [
            (7usize, 9usize, 5usize, 1i32, 4usize, 4usize),
            (10, 6, 11, 2, 3, 4),
            (16, 16, 16, 5, 8, 8),
            (1, 1, 1, 9, 2, 2),
        ] {
            let (a, b) = {
                let a = Matrix::from_fn(m, n, |i, j| {
                    ((i as i32 * 31 + j as i32 * 17 + seed) % 255) - 127
                });
                let b = Matrix::from_fn(n, p, |i, j| {
                    ((i as i32 * 13 + j as i32 * 41 + seed * 3) % 255) - 127
                });
                (a, b)
            };
            let engine = TubGemm::new(gm, gp, IntPrecision::Int8);
            let fast = engine.multiply(&a, &b).unwrap();
            let reference = engine.multiply_reference(&a, &b).unwrap();
            assert_eq!(fast.output, reference.output);
            assert_eq!(fast.stats, reference.stats);
        }
    }

    #[test]
    fn sharded_multiply_is_bit_identical_to_single() {
        for (m, n, p, gm, gp, arrays) in [
            (10usize, 6usize, 24usize, 4usize, 4usize, 3usize), // col split
            (24, 6, 7, 4, 4, 4),                                // row split
            (16, 8, 16, 4, 4, 2),
            (3, 3, 3, 4, 4, 4), // single tile both axes
        ] {
            let (a, b) = case(m, n, p, 11);
            let engine = TubGemm::new(gm, gp, IntPrecision::Int8);
            let single = engine.multiply(&a, &b).unwrap();
            let sharded = engine.multiply_sharded(&a, &b, arrays).unwrap();
            assert_eq!(sharded.output, single.output, "{m}x{n}x{p} arrays={arrays}");
            assert_eq!(sharded.stats, single.stats, "{m}x{n}x{p} arrays={arrays}");
            assert_eq!(
                sharded.per_shard_cycles.iter().sum::<u64>(),
                single.stats.cycles
            );
            assert!(sharded.critical_path_cycles <= single.stats.cycles);
            // The closed-form model reproduces the simulated shard
            // cycles exactly.
            let (plan, modelled) = engine.cost_profile(&a, &b).at(arrays);
            assert_eq!(plan, sharded.plan);
            assert_eq!(modelled, sharded.per_shard_cycles);
        }
    }

    #[test]
    fn sharded_multiply_cuts_the_critical_path() {
        let (a, b) = case(8, 16, 32, 11);
        let engine = TubGemm::new(8, 8, IntPrecision::Int8);
        let single = engine.multiply(&a, &b).unwrap();
        let sharded = engine.multiply_sharded(&a, &b, 4).unwrap();
        assert_eq!(sharded.plan.used_arrays(), 4);
        assert!(
            (sharded.critical_path_cycles as f64) < 0.6 * single.stats.cycles as f64,
            "critical path {} vs single {}",
            sharded.critical_path_cycles,
            single.stats.cycles
        );
        assert!(sharded.balance() > 0.5);
    }

    #[test]
    fn tile_view_matches_get_and_round_trips() {
        let (a, _) = case(6, 5, 4, 7);
        let view = a.tile_view(1..5, 2..5);
        assert_eq!(view.rows(), 4);
        assert_eq!(view.cols(), 3);
        for i in 0..view.rows() {
            for j in 0..view.cols() {
                assert_eq!(view.get(i, j), a.get(1 + i, 2 + j));
            }
            assert_eq!(view.row(i), &a.row(1 + i)[2..5]);
        }
        let owned = view.to_matrix();
        assert_eq!(owned, Matrix::from_fn(4, 3, |i, j| a.get(1 + i, 2 + j)));
    }

    #[test]
    #[should_panic(expected = "tile col range out of range")]
    fn tile_view_rejects_out_of_range() {
        let m = Matrix::zeros(3, 3);
        let _ = m.tile_view(0..3, 1..4);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let engine = TubGemm::new(4, 4, IntPrecision::Int8);
        assert!(matches!(
            engine.multiply(&a, &b),
            Err(ArithError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn int4_extremes() {
        let p = IntPrecision::Int4;
        let a = Matrix::from_fn(3, 3, |_, _| p.min_value());
        let b = Matrix::from_fn(3, 3, |_, _| p.min_value());
        let engine = TubGemm::new(2, 2, p);
        let run = engine.multiply(&a, &b).unwrap();
        assert_eq!(run.output.get(0, 0), 64 * 3);
        // Every step at the worst window (4 cycles), 4 tile passes
        // (ceil(3/2)^2) x 3 steps each.
        assert_eq!(run.stats.cycles, 4 * 3 * 4);
    }

    #[test]
    fn precision_violation_rejected() {
        let a = Matrix::from_fn(1, 1, |_, _| 8);
        let b = Matrix::zeros(1, 1);
        assert!(TubGemm::new(1, 1, IntPrecision::Int4)
            .multiply(&a, &b)
            .is_err());
    }
}
