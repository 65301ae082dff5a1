//! Golden dot products — the atomic operation both convolution cores
//! compute per PE cell: a 1×1×n feature cube against a cached 1×1×n
//! weight cube, producing one partial sum (§III).

use std::ops::{Add, AddAssign, Mul};

use crate::{adder_tree, tub, ArithError, IntPrecision};

/// Exact dot product of validated operands, reduced through the same
/// balanced tree the hardware uses.
///
/// ```
/// use tempus_arith::{dot, IntPrecision};
///
/// # fn main() -> Result<(), tempus_arith::ArithError> {
/// let acts = [1, -2, 3, 4];
/// let wts = [5, 6, -7, 0];
/// assert_eq!(dot::binary(&acts, &wts, IntPrecision::Int8)?, 1*5 - 2*6 - 3*7);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`ArithError::LengthMismatch`] when slices differ in length
/// and [`ArithError::OutOfRange`] when any operand exceeds `precision`.
pub fn binary(
    activations: &[i32],
    weights: &[i32],
    precision: IntPrecision,
) -> Result<i64, ArithError> {
    check_lengths(activations, weights)?;
    let mut terms = Vec::with_capacity(activations.len());
    for (&a, &w) in activations.iter().zip(weights) {
        terms.push(i64::from(crate::binary::multiply(a, w, precision)?));
    }
    adder_tree::reduce(&terms)
}

/// Dot product computed the tub way: every weight is temporally encoded
/// and folded pulse-by-pulse. Bit-exact equal to [`binary`]; the
/// equality is the paper's "maintaining computational accuracy" claim
/// and is enforced by tests and property tests.
///
/// # Errors
///
/// Returns [`ArithError::LengthMismatch`] when slices differ in length
/// and [`ArithError::OutOfRange`] when any operand exceeds `precision`.
pub fn tub(
    activations: &[i32],
    weights: &[i32],
    precision: IntPrecision,
) -> Result<i64, ArithError> {
    check_lengths(activations, weights)?;
    let mut terms = Vec::with_capacity(activations.len());
    for (&a, &w) in activations.iter().zip(weights) {
        terms.push(i64::from(tub::multiply(a, w, precision)?));
    }
    adder_tree::reduce(&terms)
}

/// Latency in cycles for a tub PE cell to produce this dot product:
/// bounded by the largest weight magnitude in the cell.
///
/// # Errors
///
/// Returns [`ArithError::OutOfRange`] when any weight exceeds
/// `precision`.
pub fn tub_latency(weights: &[i32], precision: IntPrecision) -> Result<u32, ArithError> {
    tub::array_latency(weights, precision)
}

/// An exact accumulator lane for the functional GEMM and convolution
/// kernels: `i32` where [`fits_i32`] proves no partial sum can
/// overflow, `i64` otherwise. Products are formed in the lane type, so
/// the `i64` lane is exact for any `i32` operands.
pub trait Accumulator:
    Copy + Default + From<i32> + Add<Output = Self> + Mul<Output = Self> + AddAssign
{
    /// The finished sum as an `i32` output, or `None` when it does not
    /// fit.
    fn to_i32(self) -> Option<i32>;
}

impl Accumulator for i32 {
    fn to_i32(self) -> Option<i32> {
        Some(self)
    }
}

impl Accumulator for i64 {
    fn to_i32(self) -> Option<i32> {
        i32::try_from(self).ok()
    }
}

/// The accumulation bound both functional kernels share: a reduction
/// of `terms` products whose factors are at most `max_a` and `max_b`
/// in magnitude keeps every partial sum in `i32` when
/// `terms · max_a · max_b ≤ i32::MAX`. Low precision is what makes the
/// bound hold in practice: an INT8×INT8 product is at most 2^14 in
/// magnitude, so an INT8 reduction stays in `i32` up to 2^17 − 1 terms.
///
/// ```
/// use tempus_arith::dot::fits_i32;
///
/// assert!(fits_i32((1 << 17) - 1, 128, 128));
/// assert!(!fits_i32(1 << 17, 128, 128));
/// ```
#[must_use]
pub fn fits_i32(terms: usize, max_a: u32, max_b: u32) -> bool {
    (terms as u128) * u128::from(max_a) * u128::from(max_b) <= i32::MAX as u128
}

/// The largest magnitude in `values` (0 when empty) — the factor bound
/// [`fits_i32`] takes.
#[must_use]
pub fn max_magnitude(values: &[i32]) -> u32 {
    values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0)
}

fn check_lengths(a: &[i32], b: &[i32]) -> Result<(), ArithError> {
    if a.len() == b.len() {
        Ok(())
    } else {
        Err(ArithError::LengthMismatch {
            lhs: a.len(),
            rhs: b.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tub_equals_binary_on_grid() {
        let p = IntPrecision::Int4;
        let acts: Vec<i32> = (-8..8).collect();
        let wts: Vec<i32> = (-8..8).rev().collect();
        assert_eq!(
            tub(&acts, &wts, p).unwrap(),
            binary(&acts, &wts, p).unwrap()
        );
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let p = IntPrecision::Int8;
        assert_eq!(
            binary(&[1, 2], &[1], p),
            Err(ArithError::LengthMismatch { lhs: 2, rhs: 1 })
        );
        assert_eq!(
            tub(&[1], &[1, 2], p),
            Err(ArithError::LengthMismatch { lhs: 1, rhs: 2 })
        );
    }

    #[test]
    fn empty_dot_is_zero() {
        let p = IntPrecision::Int8;
        assert_eq!(binary(&[], &[], p).unwrap(), 0);
        assert_eq!(tub(&[], &[], p).unwrap(), 0);
        assert_eq!(tub_latency(&[], p).unwrap(), 0);
    }

    #[test]
    fn worst_case_int8_cell() {
        let p = IntPrecision::Int8;
        let acts = vec![-128; 16];
        let wts = vec![-128; 16];
        assert_eq!(binary(&acts, &wts, p).unwrap(), 16 * 16384);
        assert_eq!(tub(&acts, &wts, p).unwrap(), 16 * 16384);
        assert_eq!(tub_latency(&wts, p).unwrap(), 64);
    }
}
