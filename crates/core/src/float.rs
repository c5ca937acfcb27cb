//! Float series: an `f64` value column stored with the XOR codec family
//! (GorillaFloat / Chimp / Elf) is read by the one engine as its ordered
//! keys ([`etsqp_encoding::f64_to_ordered_i64`], what
//! `Encoding::decode_i64` returns for these codecs). A value range over
//! such a column is a [`FloatRange`], which this module maps to the key
//! range the engine's §V pruning and filters compare against.

use crate::expr::Predicate;

/// A float range filter `[lo, hi]` (inclusive, NaN never matches).
#[derive(Debug, Clone, Copy)]
pub struct FloatRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl FloatRange {
    /// The inclusive key range `[lo, hi]` selects, under IEEE `>=` and
    /// `<=`: a zero bound takes in both zeros (`lo = ±0.0` is the key of
    /// −0.0, `hi = ±0.0` that of +0.0), NaN keys lie outside every range
    /// from ±∞ inwards, and a NaN bound or `lo > hi` selects no key.
    pub fn keys(&self) -> (i64, i64) {
        if self.lo.is_nan() || self.hi.is_nan() || self.lo > self.hi {
            return (i64::MAX, i64::MIN);
        }
        let lo = if self.lo == 0.0 { -0.0 } else { self.lo };
        let hi = if self.hi == 0.0 { 0.0 } else { self.hi };
        let key = etsqp_encoding::f64_to_ordered_i64;
        (key(lo), key(hi))
    }

    /// The value conjunct of this range over a float series.
    pub fn predicate(&self) -> Predicate {
        let (lo, hi) = self.keys();
        Predicate::value(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::f64_to_ordered_i64;

    #[test]
    fn zero_bounds_take_in_both_zeros_and_nan_bounds_nothing() {
        let key = f64_to_ordered_i64;
        let r = |lo, hi| FloatRange { lo, hi }.keys();
        assert_eq!(r(0.0, 10.0), (key(-0.0), key(10.0)));
        assert_eq!(r(-0.0, 10.0), (key(-0.0), key(10.0)));
        assert_eq!(r(-10.0, -0.0), (key(-10.0), key(0.0)));
        assert_eq!(r(-10.0, 0.0), (key(-10.0), key(0.0)));
        assert_eq!(r(0.0, -0.0), (key(-0.0), key(0.0)));
        for empty in [r(f64::NAN, 1.0), r(1.0, f64::NAN), r(2.0, 1.0)] {
            assert!(empty.0 > empty.1, "{empty:?}");
        }
        // ±∞ bounds keep NaN out, of either sign.
        let (lo, hi) = r(f64::NEG_INFINITY, f64::INFINITY);
        for nan in [f64::NAN, -f64::NAN] {
            assert!(!(lo..=hi).contains(&key(nan)));
        }
    }
}
