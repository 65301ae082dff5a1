//! Convolution parameters and golden references.
//!
//! Two independent references guard the cycle-accurate cores: plain
//! direct convolution and im2col + GEMM lowering. Their agreement with
//! each other and with both hardware models is enforced by tests.

use std::ops::Range;

use tempus_arith::dot::{self, max_magnitude, Accumulator};
use tempus_arith::IntPrecision;

use crate::cube::{DataCube, KernelSet};
use crate::NvdlaError;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    /// Horizontal stride (≥1).
    pub stride_x: usize,
    /// Vertical stride (≥1).
    pub stride_y: usize,
    /// Zero padding on the left/right edges.
    pub pad_x: usize,
    /// Zero padding on the top/bottom edges.
    pub pad_y: usize,
    /// Horizontal dilation (≥1; 1 = dense kernel).
    pub dilation_x: usize,
    /// Vertical dilation (≥1).
    pub dilation_y: usize,
}

impl ConvParams {
    /// Unit-stride, no padding, no dilation.
    #[must_use]
    pub fn valid() -> Self {
        ConvParams {
            stride_x: 1,
            stride_y: 1,
            pad_x: 0,
            pad_y: 0,
            dilation_x: 1,
            dilation_y: 1,
        }
    }

    /// Unit-stride "same" convolution for an odd `kernel` size: output
    /// dims equal input dims.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even.
    #[must_use]
    pub fn unit_stride_same(kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "same-padding needs an odd kernel");
        ConvParams {
            pad_x: kernel / 2,
            pad_y: kernel / 2,
            ..ConvParams::valid()
        }
    }

    /// Strided convolution with explicit padding.
    #[must_use]
    pub fn strided(stride: usize, pad: usize) -> Self {
        ConvParams {
            stride_x: stride,
            stride_y: stride,
            pad_x: pad,
            pad_y: pad,
            dilation_x: 1,
            dilation_y: 1,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NvdlaError::InvalidShape`] for zero strides/dilations.
    pub fn validate(&self) -> Result<(), NvdlaError> {
        if self.stride_x == 0 || self.stride_y == 0 {
            return Err(NvdlaError::InvalidShape("stride must be >= 1".into()));
        }
        if self.dilation_x == 0 || self.dilation_y == 0 {
            return Err(NvdlaError::InvalidShape("dilation must be >= 1".into()));
        }
        Ok(())
    }

    /// Order-stable FNV-1a digest over every hyper-parameter — the
    /// serving layer folds this into content-addressed cache keys, so
    /// two jobs share a key only when their convolutions are
    /// configured identically.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        crate::cube::fnv1a(
            [
                self.stride_x,
                self.stride_y,
                self.pad_x,
                self.pad_y,
                self.dilation_x,
                self.dilation_y,
            ]
            .into_iter()
            .map(|v| v as u64),
        )
    }

    /// Output dimensions `(out_w, out_h)` for an input of `w`×`h`
    /// convolved with an `r`×`s` kernel.
    ///
    /// # Errors
    ///
    /// Returns [`NvdlaError::EmptyOutput`] when the kernel (with
    /// dilation) exceeds the padded input.
    pub fn output_dims(
        &self,
        w: usize,
        h: usize,
        r: usize,
        s: usize,
    ) -> Result<(usize, usize), NvdlaError> {
        self.validate()?;
        let eff_s = (s - 1) * self.dilation_x + 1;
        let eff_r = (r - 1) * self.dilation_y + 1;
        let padded_w = w + 2 * self.pad_x;
        let padded_h = h + 2 * self.pad_y;
        if eff_s > padded_w || eff_r > padded_h {
            return Err(NvdlaError::EmptyOutput);
        }
        Ok((
            (padded_w - eff_s) / self.stride_x + 1,
            (padded_h - eff_r) / self.stride_y + 1,
        ))
    }
}

impl Default for ConvParams {
    fn default() -> Self {
        ConvParams::valid()
    }
}

fn check_channels(features: &DataCube, kernels: &KernelSet) -> Result<(), NvdlaError> {
    if features.c() != kernels.c() {
        return Err(NvdlaError::ChannelMismatch {
            feature_c: features.c(),
            kernel_c: kernels.c(),
        });
    }
    Ok(())
}

/// Golden direct convolution: output cube of `i32` partial sums
/// (out_w × out_h × K), one [`ConvRows::row`] per output row.
///
/// # Errors
///
/// Returns [`NvdlaError::ChannelMismatch`] or [`NvdlaError::EmptyOutput`]
/// for inconsistent shapes.
///
/// # Panics
///
/// Panics if an accumulated output exceeds `i32` — unreachable for the
/// paper's precisions (INT8 and below) at any practical layer size, and
/// for INT16 up to ~8k-term dot products.
pub fn direct_conv(
    features: &DataCube,
    kernels: &KernelSet,
    params: &ConvParams,
) -> Result<DataCube, NvdlaError> {
    let rows = ConvRows::new(features, kernels, params)?;
    let row_len = rows.out_w * kernels.k();
    let mut data = vec![0; row_len * rows.out_h];
    for (oy, row) in data.chunks_exact_mut(row_len).enumerate() {
        rows.row(oy, row);
    }
    DataCube::from_vec(rows.out_w, rows.out_h, kernels.k(), data)
}

/// A convolution prepared for row-at-a-time evaluation: shapes are
/// validated and the accumulator lane chosen once, then
/// [`row`](ConvRows::row) computes any output row. [`direct_conv`]
/// loops over it, and the fused streaming pipeline ([`crate::fused`])
/// calls it per row so a whole-layer run never materializes the conv
/// cube.
///
/// Accumulation runs in `i32` when the one-pass bound
/// `r·s·c · max|features| · max|kernels| ≤ i32::MAX`
/// ([`dot::fits_i32`]) proves no partial sum can overflow — always the
/// case for INT8 and below at practical layer sizes — and in `i64`
/// otherwise.
#[derive(Debug, Clone, Copy)]
pub struct ConvRows<'a> {
    features: &'a DataCube,
    kernels: &'a KernelSet,
    params: &'a ConvParams,
    out_w: usize,
    out_h: usize,
    narrow: bool,
}

impl<'a> ConvRows<'a> {
    /// Prepares `features ⊛ kernels` under `params`.
    ///
    /// # Errors
    ///
    /// Returns [`NvdlaError::ChannelMismatch`] or
    /// [`NvdlaError::EmptyOutput`] for inconsistent shapes, in that
    /// order.
    pub fn new(
        features: &'a DataCube,
        kernels: &'a KernelSet,
        params: &'a ConvParams,
    ) -> Result<Self, NvdlaError> {
        check_channels(features, kernels)?;
        let (out_w, out_h) =
            params.output_dims(features.w(), features.h(), kernels.r(), kernels.s())?;
        let narrow = dot::fits_i32(
            kernels.r() * kernels.s() * kernels.c(),
            max_magnitude(features.as_slice()),
            max_magnitude(kernels.as_slice()),
        );
        Ok(ConvRows {
            features,
            kernels,
            params,
            out_w,
            out_h,
            narrow,
        })
    }

    /// Output dimensions `(out_w, out_h)`.
    #[must_use]
    pub fn out_dims(&self) -> (usize, usize) {
        (self.out_w, self.out_h)
    }

    /// Computes output row `oy` into `row`, laid out exactly like one
    /// y-row of the output cube (`row[x * k + kk]`, channel-minor).
    ///
    /// Both operands are channel-minor, so each in-bounds (r, s) tap is
    /// a contiguous channel slice of the cube and of the kernel set;
    /// padded taps are skipped once per (r, s), never per element.
    ///
    /// # Panics
    ///
    /// Panics when `row` is not `out_w × k` elements long, or with
    /// `"accumulator exceeds i32 output"` when an output does not fit
    /// `i32`.
    pub fn row(&self, oy: usize, row: &mut [i32]) {
        assert_eq!(
            row.len(),
            self.out_w * self.kernels.k(),
            "conv row buffer size mismatch"
        );
        if self.narrow {
            self.row_in::<i32>(oy, row);
        } else {
            self.row_in::<i64>(oy, row);
        }
    }

    /// [`row`](ConvRows::row) in accumulator lane `A`. Taps adjacent in
    /// both operands (consecutive `s` at unit dilation) merge into one
    /// longer slice, so each output is a sum of a few contiguous dot
    /// products.
    fn row_in<A: Accumulator>(&self, oy: usize, row: &mut [i32]) {
        let (p, kernels) = (self.params, self.kernels);
        let (w, c, s_dim) = (self.features.w(), self.features.c(), kernels.s());
        let cube = self.features.as_slice();
        let rows = valid_taps(
            oy,
            p.stride_y,
            p.dilation_y,
            p.pad_y,
            self.features.h(),
            kernels.r(),
        );
        let kernel_len = kernels.r() * s_dim * c;
        // (cube offset, kernel offset, length) of each contiguous tap run.
        let mut taps: Vec<(usize, usize, usize)> = Vec::with_capacity(kernels.r() * s_dim);
        for (ox, pixel) in row.chunks_exact_mut(kernels.k()).enumerate() {
            taps.clear();
            for r in rows.clone() {
                let iy = oy * p.stride_y + r * p.dilation_y - p.pad_y;
                for s in valid_taps(ox, p.stride_x, p.dilation_x, p.pad_x, w, s_dim) {
                    let ix = ox * p.stride_x + s * p.dilation_x - p.pad_x;
                    let (at, ko) = ((iy * w + ix) * c, (r * s_dim + s) * c);
                    match taps.last_mut() {
                        Some((f0, k0, len)) if *f0 + *len == at && *k0 + *len == ko => *len += c,
                        _ => taps.push((at, ko, c)),
                    }
                }
            }
            for (slot, kernel) in pixel
                .iter_mut()
                .zip(kernels.as_slice().chunks_exact(kernel_len))
            {
                let mut acc = A::default();
                for &(at, ko, len) in &taps {
                    acc += cube[at..at + len]
                        .iter()
                        .zip(&kernel[ko..ko + len])
                        .fold(A::default(), |sum, (&x, &y)| sum + A::from(x) * A::from(y));
                }
                *slot = acc.to_i32().expect("accumulator exceeds i32 output");
            }
        }
    }
}

/// The kernel offsets `t` whose input coordinate
/// `o·stride + t·dilation − pad` lands inside `0..extent` — always one
/// contiguous range.
fn valid_taps(
    o: usize,
    stride: usize,
    dilation: usize,
    pad: usize,
    extent: usize,
    taps: usize,
) -> Range<usize> {
    let base = o * stride;
    let hi = (extent + pad)
        .saturating_sub(base)
        .div_ceil(dilation)
        .min(taps);
    let lo = pad.saturating_sub(base).div_ceil(dilation).min(hi);
    lo..hi
}

/// im2col + GEMM reference: lowers the convolution to a matrix product
/// `O[k][p] = Σ_q W[k][q] · F[q][p]` and reshapes back. Used as an
/// independent second witness against [`direct_conv`].
///
/// # Errors
///
/// Same conditions as [`direct_conv`].
///
/// # Panics
///
/// Same overflow condition as [`direct_conv`].
pub fn im2col_conv(
    features: &DataCube,
    kernels: &KernelSet,
    params: &ConvParams,
) -> Result<DataCube, NvdlaError> {
    check_channels(features, kernels)?;
    let (out_w, out_h) =
        params.output_dims(features.w(), features.h(), kernels.r(), kernels.s())?;
    let patch = kernels.r() * kernels.s() * kernels.c();
    let positions = out_w * out_h;
    // Lower the input: columns are output positions, rows patch elems.
    let mut cols = vec![0i32; patch * positions];
    for oy in 0..out_h {
        for ox in 0..out_w {
            let p = oy * out_w + ox;
            let mut q = 0;
            for r in 0..kernels.r() {
                for s in 0..kernels.s() {
                    let iy = (oy * params.stride_y + r * params.dilation_y) as isize
                        - params.pad_y as isize;
                    let ix = (ox * params.stride_x + s * params.dilation_x) as isize
                        - params.pad_x as isize;
                    for c in 0..features.c() {
                        cols[q * positions + p] = features.get_padded(ix, iy, c);
                        q += 1;
                    }
                }
            }
        }
    }
    // GEMM: K × patch times patch × positions.
    let mut out = DataCube::zeros(out_w, out_h, kernels.k());
    for k in 0..kernels.k() {
        for p in 0..positions {
            let mut acc = 0i64;
            let mut q = 0;
            for r in 0..kernels.r() {
                for s in 0..kernels.s() {
                    for c in 0..kernels.c() {
                        acc +=
                            i64::from(kernels.get(k, r, s, c)) * i64::from(cols[q * positions + p]);
                        q += 1;
                    }
                }
            }
            out.set(
                p % out_w,
                p / out_w,
                k,
                i32::try_from(acc).expect("accumulator exceeds i32 output"),
            );
        }
    }
    Ok(out)
}

/// Validates operand cubes against a precision in one call.
///
/// # Errors
///
/// Returns the first out-of-range element.
pub fn check_operands(
    features: &DataCube,
    kernels: &KernelSet,
    precision: IntPrecision,
) -> Result<(), NvdlaError> {
    features.check_precision(precision)?;
    kernels.check_precision(precision)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_case() -> (DataCube, KernelSet) {
        let f = DataCube::from_fn(5, 5, 3, |x, y, c| {
            ((x * 7 + y * 3 + c * 11) % 13) as i32 - 6
        });
        let k = KernelSet::from_fn(4, 3, 3, 3, |k, r, s, c| {
            ((k * 5 + r * 2 + s * 9 + c * 4) % 15) as i32 - 7
        });
        (f, k)
    }

    #[test]
    fn output_dims_basic() {
        let p = ConvParams::valid();
        assert_eq!(p.output_dims(5, 5, 3, 3).unwrap(), (3, 3));
        let p = ConvParams::unit_stride_same(3);
        assert_eq!(p.output_dims(5, 5, 3, 3).unwrap(), (5, 5));
        let p = ConvParams::strided(2, 1);
        assert_eq!(p.output_dims(6, 6, 3, 3).unwrap(), (3, 3));
    }

    #[test]
    fn output_dims_rejects_oversized_kernels() {
        let p = ConvParams::valid();
        assert_eq!(p.output_dims(2, 2, 3, 3), Err(NvdlaError::EmptyOutput));
    }

    #[test]
    fn dilation_grows_effective_kernel() {
        let p = ConvParams {
            dilation_x: 2,
            dilation_y: 2,
            ..ConvParams::valid()
        };
        // Effective 5x5 kernel on 7x7 input -> 3x3 output.
        assert_eq!(p.output_dims(7, 7, 3, 3).unwrap(), (3, 3));
    }

    #[test]
    fn direct_equals_im2col() {
        let (f, k) = small_case();
        for params in [
            ConvParams::valid(),
            ConvParams::unit_stride_same(3),
            ConvParams::strided(2, 1),
            ConvParams {
                dilation_x: 2,
                dilation_y: 2,
                pad_x: 2,
                pad_y: 2,
                ..ConvParams::valid()
            },
        ] {
            let a = direct_conv(&f, &k, &params).unwrap();
            let b = im2col_conv(&f, &k, &params).unwrap();
            assert_eq!(a, b, "params {params:?}");
        }
    }

    #[test]
    fn kernels_wider_than_the_input_match_im2col() {
        // A padded row of taps can cover a whole input row, so the
        // next kernel row's taps start right after it in the cube but
        // not in the kernel set.
        for (w, h) in [(1usize, 3usize), (2, 3), (2, 1)] {
            let f = DataCube::from_fn(w, h, 2, |x, y, c| (x * 5 + y * 3 + c) as i32 - 4);
            let k = KernelSet::from_fn(3, 3, 3, 2, |k, r, s, c| (k + r * 3 + s * 7 + c) as i32 - 6);
            for params in [ConvParams::unit_stride_same(3), ConvParams::strided(2, 2)] {
                let a = direct_conv(&f, &k, &params).unwrap();
                let b = im2col_conv(&f, &k, &params).unwrap();
                assert_eq!(a, b, "{w}x{h} {params:?}");
            }
        }
    }

    #[test]
    fn conv_rows_reassemble_direct_conv() {
        let (f, k) = small_case();
        for params in [
            ConvParams::valid(),
            ConvParams::unit_stride_same(3),
            ConvParams::strided(2, 1),
            ConvParams {
                dilation_x: 2,
                dilation_y: 2,
                pad_x: 2,
                pad_y: 1,
                ..ConvParams::strided(2, 0)
            },
        ] {
            let whole = direct_conv(&f, &k, &params).unwrap();
            let rows = ConvRows::new(&f, &k, &params).unwrap();
            let (out_w, out_h) = rows.out_dims();
            assert_eq!((out_w, out_h), (whole.w(), whole.h()));
            let mut row = vec![0i32; out_w * k.k()];
            for oy in 0..out_h {
                rows.row(oy, &mut row);
                for ox in 0..out_w {
                    for kk in 0..k.k() {
                        assert_eq!(row[ox * k.k() + kk], whole.get(ox, oy, kk));
                    }
                }
            }
        }
    }

    #[test]
    fn identity_kernel_copies_input_channel() {
        let f = DataCube::from_fn(4, 4, 2, |x, y, c| (x + y * 4 + c * 16) as i32);
        // 1x1 kernel selecting channel 1.
        let mut k = KernelSet::zeros(1, 1, 1, 2);
        k.set(0, 0, 0, 1, 1);
        let out = direct_conv(&f, &k, &ConvParams::valid()).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(out.get(x, y, 0), f.get(x, y, 1));
            }
        }
    }

    #[test]
    fn channel_mismatch_detected() {
        let f = DataCube::zeros(4, 4, 3);
        let k = KernelSet::zeros(2, 3, 3, 4);
        assert!(matches!(
            direct_conv(&f, &k, &ConvParams::valid()),
            Err(NvdlaError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn zero_stride_rejected() {
        let p = ConvParams {
            stride_x: 0,
            ..ConvParams::valid()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn padding_contributes_zeros() {
        // All-ones 3x3 kernel over all-ones 3x3 input with same padding:
        // corner output sees only 4 valid taps.
        let f = DataCube::from_fn(3, 3, 1, |_, _, _| 1);
        let k = KernelSet::from_fn(1, 3, 3, 1, |_, _, _, _| 1);
        let out = direct_conv(&f, &k, &ConvParams::unit_stride_same(3)).unwrap();
        assert_eq!(out.get(0, 0, 0), 4);
        assert_eq!(out.get(1, 1, 0), 9);
        assert_eq!(out.get(2, 0, 0), 4);
        assert_eq!(out.get(1, 0, 0), 6);
    }
}
