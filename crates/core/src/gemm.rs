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

use tempus_arith::dot::{self, max_magnitude, Accumulator};
use tempus_arith::{ArithError, IntPrecision, TwosUnaryStream};

use crate::shard::{balance, plan_gemm, GemmAxis, GemmShardPlan};
use crate::streaming::StreamPlan;

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

    /// Exact product `self × rhs`, one output row at a time through
    /// the `gemm_row` microkernel (memory order: `out_row += a[i][t] · b_row_t`).
    ///
    /// Accumulation runs in `i32` when the one-pass bound
    /// `n · max|a| · max|b| ≤ i32::MAX` ([`dot::fits_i32`]) proves no
    /// partial sum can overflow — always the case for INT8 and below
    /// at any practical inner dimension. Otherwise each row accumulates
    /// in `i64` and is narrowed once at the end.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::LengthMismatch`] when inner dimensions
    /// disagree.
    ///
    /// # Panics
    ///
    /// Panics with `"gemm output exceeds i32"` when an output element
    /// does not fit `i32` (only reachable on the `i64` path).
    pub fn multiply(&self, rhs: &Matrix) -> Result<Matrix, ArithError> {
        if self.cols != rhs.rows {
            return Err(ArithError::LengthMismatch {
                lhs: self.cols,
                rhs: rhs.rows,
            });
        }
        let (max_a, max_b) = (max_magnitude(&self.data), max_magnitude(&rhs.data));
        Ok(if dot::fits_i32(self.cols, max_a, max_b) {
            self.multiply_in::<i32>(rhs)
        } else {
            self.multiply_in::<i64>(rhs)
        })
    }

    fn multiply_in<A: Accumulator>(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let mut acc = vec![A::default(); rhs.cols];
        for (i, out_row) in out.data.chunks_exact_mut(rhs.cols).enumerate() {
            acc.fill(A::default());
            gemm_row(&mut acc, self.row(i), &rhs.data);
            flush_row(&acc, out_row);
        }
        out
    }
}

/// The one functional GEMM row microkernel: `acc += a_row × B`, where
/// `b` holds `a_row.len()` row-major rows of `acc.len()` columns. The
/// inner loop is a contiguous multiply-add over one `B` row, which the
/// compiler vectorizes. The caller picks the accumulator lane with
/// [`dot::fits_i32`].
pub(crate) fn gemm_row<A: Accumulator>(acc: &mut [A], a_row: &[i32], b: &[i32]) {
    for (&x, b_row) in a_row.iter().zip(b.chunks_exact(acc.len())) {
        let x = A::from(x);
        for (slot, &w) in acc.iter_mut().zip(b_row) {
            *slot += x * A::from(w);
        }
    }
}

/// Narrows finished accumulator lanes into `out`.
///
/// # Panics
///
/// Panics with `"gemm output exceeds i32"` when a sum does not fit.
pub(crate) fn flush_row<A: Accumulator>(acc: &[A], out: &mut [i32]) {
    for (slot, &v) in out.iter_mut().zip(acc) {
        *slot = v.to_i32().expect("gemm output exceeds i32");
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
    /// returning the exact product and the cycle count: the streamed
    /// engine ([`TubGemm::multiply_streamed`]) with one window spanning
    /// the whole inner dimension.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::LengthMismatch`] on inner-dimension
    /// mismatch or [`ArithError::OutOfRange`] on out-of-precision
    /// operands.
    pub fn multiply(&self, a: &Matrix, b: &Matrix) -> Result<GemmRun, ArithError> {
        let run = self.multiply_streamed(a, b, &StreamPlan::new(a.cols))?;
        Ok(GemmRun {
            output: run.output,
            stats: run.stats,
        })
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
        self.precision.check_all(&a.data)?;
        self.precision.check_all(&b.data)?;
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
        flush_row(&acc, &mut output.data);
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
    /// slowest shard) is the multi-array latency. Runs
    /// [`TubGemm::multiply_sharded_streamed`] with one window spanning
    /// the whole inner dimension.
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
        let plan = StreamPlan::new(a.cols);
        Ok(self.multiply_sharded_streamed(a, b, num_arrays, &plan)?.run)
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

    /// The naive checked-index `i64` triple loop [`Matrix::multiply`]
    /// replaced, kept as the independent oracle: unnarrowed sums, so a
    /// test can tell which outputs fit `i32`.
    fn multiply_oracle(a: &Matrix, b: &Matrix) -> Vec<i64> {
        let mut out = Vec::with_capacity(a.rows() * b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0i64;
                for t in 0..a.cols() {
                    acc += i64::from(a.get(i, t)) * i64::from(b.get(t, j));
                }
                out.push(acc);
            }
        }
        out
    }

    /// Operands at `precision`: each element is nonzero with
    /// probability `1 / sparsity`, uniform over the whole range, and
    /// both `[0][0]` corners hold the most negative value, so the
    /// accumulator bound sits at its worst case.
    fn precision_case(
        precision: IntPrecision,
        (m, n, p): (usize, usize, usize),
        sparsity: u64,
        seed: u64,
    ) -> (Matrix, Matrix) {
        let mut state = seed;
        let mut draw = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let span = u64::from(precision.max_magnitude()) * 2;
        let mut value = move || {
            let (keep, v) = (draw(), draw());
            if keep % sparsity == 0 {
                precision.min_value() + (v % span) as i32
            } else {
                0
            }
        };
        let mut a = Matrix::from_fn(m, n, |_, _| value());
        let mut b = Matrix::from_fn(n, p, |_, _| value());
        a.set(0, 0, precision.min_value());
        b.set(0, 0, precision.min_value());
        (a, b)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn multiply_equals_oracle(
            precision in proptest::prop_oneof![
                proptest::prelude::Just(IntPrecision::Int2),
                proptest::prelude::Just(IntPrecision::Int4),
                proptest::prelude::Just(IntPrecision::Int8),
                proptest::prelude::Just(IntPrecision::Int16),
            ],
            shape in proptest::prop_oneof![
                (1usize..=4, 1usize..=8, 1usize..=4),
                (1usize..=16, 1usize..=512, 1usize..=128),
                proptest::prelude::Just((16usize, 512usize, 128usize)),
            ],
            sparsity in proptest::prop_oneof![
                proptest::prelude::Just(1u64),
                proptest::prelude::Just(8u64),
                proptest::prelude::Just(64u64),
            ],
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (a, b) = precision_case(precision, shape, sparsity, seed);
            let oracle = multiply_oracle(&a, &b);
            // Outputs past i32 panic instead (pinned below).
            proptest::prop_assume!(oracle.iter().all(|&v| i32::try_from(v).is_ok()));
            let bound = dot::fits_i32(
                a.cols(),
                max_magnitude(a.as_slice()),
                max_magnitude(b.as_slice()),
            );
            // Low precision stays on the i32 lane at every shape here;
            // INT16 extremes force the i64 lane past one inner step.
            proptest::prop_assert_eq!(
                bound,
                precision != IntPrecision::Int16 || a.cols() == 1
            );
            let product = a.multiply(&b).unwrap();
            let expected: Vec<i32> = oracle.iter().map(|&v| v as i32).collect();
            proptest::prop_assert_eq!(product.as_slice(), &expected[..]);
        }
    }

    #[test]
    fn partial_sums_past_i32_take_the_i64_lane() {
        // 2^30 + 2^30 overflows an i32 partial sum; the final sum fits.
        let a = Matrix::from_fn(1, 4, |_, _| -32768);
        let b = Matrix::from_fn(4, 1, |t, _| if t < 2 { -32768 } else { 32767 });
        assert_eq!(multiply_oracle(&a, &b), vec![65536]);
        assert_eq!(a.multiply(&b).unwrap().get(0, 0), 65536);
    }

    #[test]
    #[should_panic(expected = "gemm output exceeds i32")]
    fn multiply_panics_when_an_output_exceeds_i32() {
        let a = Matrix::from_fn(1, 2, |_, _| -32768);
        let b = Matrix::from_fn(2, 1, |_, _| -32768);
        let _ = a.multiply(&b);
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
