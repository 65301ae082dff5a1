use std::fmt;
use std::str::FromStr;

use crate::ArithError;

/// Signed integer precisions evaluated by the Tempus Core paper.
///
/// The paper sweeps INT8, INT4 and INT2 datapaths (§IV, Fig. 5). Values are
/// two's complement, so an `IntPrecision::Int8` value lies in `-128..=127`
/// and its largest *magnitude* is 128 — which is exactly what bounds the
/// tub array latency (§III).
///
/// ```
/// use tempus_arith::IntPrecision;
///
/// assert_eq!(IntPrecision::Int8.max_magnitude(), 128);
/// assert_eq!(IntPrecision::Int8.worst_case_tub_cycles(), 64); // paper §V-C
/// assert_eq!(IntPrecision::Int4.worst_case_tub_cycles(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntPrecision {
    /// 2-bit signed integers (`-2..=1`).
    Int2,
    /// 4-bit signed integers (`-8..=7`).
    Int4,
    /// 8-bit signed integers (`-128..=127`).
    Int8,
    /// 16-bit signed integers (`-32768..=32767`). Not evaluated in the
    /// paper but supported so the substrate generalises.
    Int16,
}

impl IntPrecision {
    /// All precisions the paper evaluates, in ascending bit width.
    pub const PAPER_SWEEP: [IntPrecision; 3] =
        [IntPrecision::Int2, IntPrecision::Int4, IntPrecision::Int8];

    /// Bit width `w` of the precision.
    #[must_use]
    pub const fn bits(self) -> u32 {
        match self {
            IntPrecision::Int2 => 2,
            IntPrecision::Int4 => 4,
            IntPrecision::Int8 => 8,
            IntPrecision::Int16 => 16,
        }
    }

    /// Smallest representable value (`-2^(w-1)`).
    #[must_use]
    pub const fn min_value(self) -> i32 {
        -(1 << (self.bits() - 1))
    }

    /// Largest representable value (`2^(w-1) - 1`).
    #[must_use]
    pub const fn max_value(self) -> i32 {
        (1 << (self.bits() - 1)) - 1
    }

    /// Largest representable magnitude, `2^(w-1)` (reached by the most
    /// negative value).
    #[must_use]
    pub const fn max_magnitude(self) -> u32 {
        1 << (self.bits() - 1)
    }

    /// Worst-case tub multiplier latency in cycles under 2s-unary
    /// encoding: `max_magnitude / 2 = 2^(w-2)`.
    ///
    /// Matches the paper: 64 cycles for INT8 and 4 cycles for INT4 (§V-C).
    #[must_use]
    pub const fn worst_case_tub_cycles(self) -> u32 {
        self.max_magnitude() / 2
    }

    /// Checks that `value` is representable at this precision.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::OutOfRange`] when the value lies outside
    /// `min_value()..=max_value()`.
    pub fn check(self, value: i32) -> Result<i32, ArithError> {
        if value < self.min_value() || value > self.max_value() {
            Err(ArithError::OutOfRange {
                value: i64::from(value),
                precision: self,
            })
        } else {
            Ok(value)
        }
    }

    /// Checks every element of `values`, failing on the first
    /// out-of-range one exactly as a [`check`](IntPrecision::check)
    /// loop would. The common all-in-range case is one vectorizable
    /// min/max pass with no early exit.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::OutOfRange`] for the first value outside
    /// `min_value()..=max_value()`.
    pub fn check_all(self, values: &[i32]) -> Result<(), ArithError> {
        let (lo, hi) = values
            .iter()
            .fold((0, 0), |(lo, hi), &v| (v.min(lo), v.max(hi)));
        if lo >= self.min_value() && hi <= self.max_value() {
            return Ok(());
        }
        values.iter().try_for_each(|&v| self.check(v).map(drop))
    }

    /// Saturates `value` into the representable range.
    #[must_use]
    pub fn saturate(self, value: i64) -> i32 {
        value.clamp(i64::from(self.min_value()), i64::from(self.max_value())) as i32
    }

    /// Wraps `value` into the representable range (two's complement
    /// truncation, as RTL would).
    #[must_use]
    pub fn wrap(self, value: i64) -> i32 {
        let bits = self.bits();
        let mask = (1i64 << bits) - 1;
        let v = value & mask;
        // Sign-extend.
        if v >= (1i64 << (bits - 1)) {
            (v - (1i64 << bits)) as i32
        } else {
            v as i32
        }
    }

    /// Width in bits of a full-precision product of two operands at this
    /// precision (`2w`).
    #[must_use]
    pub const fn product_bits(self) -> u32 {
        self.bits() * 2
    }

    /// Width in bits needed to accumulate `n` products without overflow:
    /// `2w + ceil(log2(n))`.
    #[must_use]
    pub fn accumulator_bits(self, n: usize) -> u32 {
        let n = n.max(1) as u64;
        self.product_bits() + (u64::BITS - (n - 1).leading_zeros())
    }
}

impl fmt::Display for IntPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INT{}", self.bits())
    }
}

impl FromStr for IntPrecision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "INT2" | "2" => Ok(IntPrecision::Int2),
            "INT4" | "4" => Ok(IntPrecision::Int4),
            "INT8" | "8" => Ok(IntPrecision::Int8),
            "INT16" | "16" => Ok(IntPrecision::Int16),
            other => Err(format!("unknown precision: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_match_twos_complement() {
        assert_eq!(IntPrecision::Int2.min_value(), -2);
        assert_eq!(IntPrecision::Int2.max_value(), 1);
        assert_eq!(IntPrecision::Int4.min_value(), -8);
        assert_eq!(IntPrecision::Int4.max_value(), 7);
        assert_eq!(IntPrecision::Int8.min_value(), -128);
        assert_eq!(IntPrecision::Int8.max_value(), 127);
        assert_eq!(IntPrecision::Int16.min_value(), -32768);
        assert_eq!(IntPrecision::Int16.max_value(), 32767);
    }

    #[test]
    fn worst_case_latency_matches_paper() {
        // §V-C: "the worst-case INT8 latency of 64 cycles" and
        // "With INT4, the worst case latency is 4 cycles".
        assert_eq!(IntPrecision::Int8.worst_case_tub_cycles(), 64);
        assert_eq!(IntPrecision::Int4.worst_case_tub_cycles(), 4);
        assert_eq!(IntPrecision::Int2.worst_case_tub_cycles(), 1);
    }

    #[test]
    fn check_accepts_bounds_rejects_outside() {
        let p = IntPrecision::Int4;
        assert_eq!(p.check(-8), Ok(-8));
        assert_eq!(p.check(7), Ok(7));
        assert!(p.check(8).is_err());
        assert!(p.check(-9).is_err());
    }

    #[test]
    fn check_all_reports_the_first_out_of_range_value() {
        let p = IntPrecision::Int4;
        let first_err = |values: &[i32]| values.iter().find_map(|&v| p.check(v).err());
        for values in [
            &[][..],
            &[-8, 0, 7],
            &[3, -9, 8],
            &[3, 8, -9],
            &[i32::MIN, 0],
            &[0, i32::MAX],
        ] {
            assert_eq!(p.check_all(values).err(), first_err(values), "{values:?}");
        }
    }

    #[test]
    fn saturate_clamps() {
        let p = IntPrecision::Int8;
        assert_eq!(p.saturate(1000), 127);
        assert_eq!(p.saturate(-1000), -128);
        assert_eq!(p.saturate(5), 5);
    }

    #[test]
    fn wrap_is_twos_complement_truncation() {
        let p = IntPrecision::Int8;
        assert_eq!(p.wrap(128), -128);
        assert_eq!(p.wrap(255), -1);
        assert_eq!(p.wrap(256), 0);
        assert_eq!(p.wrap(-129), 127);
        assert_eq!(p.wrap(42), 42);
    }

    #[test]
    fn accumulator_bits_covers_worst_case() {
        let p = IntPrecision::Int8;
        // 16 products of at most 128*128 = 2^14; 16 of them is 2^18,
        // so 2w + log2(16) = 20 bits is enough.
        assert_eq!(p.accumulator_bits(16), 20);
        assert_eq!(p.accumulator_bits(1), 16);
        let worst = i64::from(p.min_value()) * i64::from(p.min_value()) * 16;
        assert!(worst < (1i64 << (p.accumulator_bits(16) - 1)) + 1);
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in [
            IntPrecision::Int2,
            IntPrecision::Int4,
            IntPrecision::Int8,
            IntPrecision::Int16,
        ] {
            let s = p.to_string();
            assert_eq!(s.parse::<IntPrecision>().unwrap(), p);
        }
        assert!("INT3".parse::<IntPrecision>().is_err());
    }
}
